// Semantic-aware kernel fusion (§5.2): the elementwise tail of an NN layer —
// batch normalization, ReLU, quantization — applied to each 32-bit
// accumulator while it is still in a register, immediately after the
// in-shared-memory bit combination. Fusing removes the global-memory round
// trips (and kernel launches) separate BN / ReLU / quantize kernels cost.
//
// Pooling is fused at the APConv level (it is spatial, not elementwise) —
// see apconv.hpp.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/check.hpp"
#include "src/quant/quantizer.hpp"

namespace apnn::core {

/// Per-output-channel affine BN folded to y = x * scale + bias
/// (scale = gamma / sqrt(var + eps), bias = beta - mean * scale).
struct BatchNormParams {
  std::vector<float> scale;
  std::vector<float> bias;
};

/// Elementwise epilogue configuration. Operations apply in the fixed order
/// BN -> ReLU -> quantize (the composition the paper writes out in §5.2).
struct Epilogue {
  bool has_bn = false;
  BatchNormParams bn;

  bool has_relu = false;

  /// Quantize the truncated int32 result to `quant.bits` unsigned codes; the
  /// kernel then emits bit-packed planes instead of int32 (minimal-traffic
  /// dataflow, §5.1).
  bool has_quant = false;
  quant::QuantParams quant;

  bool identity() const { return !has_bn && !has_relu && !has_quant; }

  /// ALU ops per element this epilogue costs (for the traffic counters).
  std::int64_t alu_ops_per_element() const {
    std::int64_t ops = 0;
    if (has_bn) ops += 2;     // fma
    if (has_relu) ops += 1;   // max
    if (has_quant) ops += 2;  // sub + mul(floor)
    return ops;
  }

  /// Applies BN -> ReLU to one 32-bit accumulator of output channel `ch`
  /// and truncates the result back to int32 — the value a quantizing
  /// epilogue then codes. Without BN or ReLU the accumulator passes through
  /// exactly (no float round trip), so it agrees with the integer GEMM for
  /// accumulators beyond float's 2^24 integer range.
  std::int32_t apply(std::int32_t acc, std::int64_t ch) const {
    if (!has_bn && !has_relu) return acc;
    float v = static_cast<float>(acc);
    if (has_bn) {
      APNN_DCHECK(ch < static_cast<std::int64_t>(bn.scale.size()));
      v = v * bn.scale[static_cast<std::size_t>(ch)] +
          bn.bias[static_cast<std::size_t>(ch)];
    }
    if (has_relu && v < 0.f) v = 0.f;
    return static_cast<std::int32_t>(v);
  }
};

}  // namespace apnn::core
