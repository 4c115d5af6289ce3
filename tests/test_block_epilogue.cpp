// Exhaustive small-width verification of the bit-GEMM block epilogue (the
// in-block p*q plane combine followed by the fused BN -> ReLU -> pool ->
// quantize tail), in the spirit of a formal MMA-semantics check: instead of
// sampling shapes, every cell of a small grid is run and compared with the
// integer reference.
//
// The grid crosses
//   * every emulation case (I: unsigned / two's-complement pairs, II: ±1 x
//     ±1, III: ±1 weights x unsigned or two's-complement features) at
//     p, q in {1, 2, 3} where the encoding allows it;
//   * k in {1, 63, 64, 65, 129} (word and tile edges);
//   * sparse staging kAuto / kOn / kOff;
//   * operands with all-zero bit planes, so every whole-plane elision rule
//     fires (weight plane, one feature plane, every feature plane);
//   * epilogues identity, ReLU, BN+ReLU, ReLU+quant and BN+ReLU+quant;
//   * sinks: apmm's dense M x N output and packed N x M planes, and apconv
//     with and without a fused 2x2 max / average pool.
// The reference is a naive integer GEMM or conv2d_reference, then BN/ReLU
// in float, truncation to int32, pooling, and quantization of the truncated
// value.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/bitops/decompose.hpp"
#include "src/core/apconv.hpp"
#include "src/core/apmm.hpp"
#include "src/layout/packed_activations.hpp"
#include "src/quant/quantizer.hpp"
#include "test_util.hpp"

namespace apnn::core {
namespace {

using Sparse = microkernel::MicroConfig::Sparse;

const tcsim::DeviceSpec& dev() { return tcsim::rtx3090(); }

struct EncPair {
  Encoding w, x;
  int p, q;
};

std::vector<EncPair> encoding_grid() {
  std::vector<EncPair> out;
  for (int p = 1; p <= 3; ++p) {
    for (int q = 1; q <= 3; ++q) {
      out.push_back({Encoding::kUnsigned01, Encoding::kUnsigned01, p, q});
      out.push_back({Encoding::kTwosComplement, Encoding::kUnsigned01, p, q});
      out.push_back({Encoding::kUnsigned01, Encoding::kTwosComplement, p, q});
    }
  }
  out.push_back({Encoding::kSignedPM1, Encoding::kSignedPM1, 1, 1});
  for (int q = 1; q <= 3; ++q) {
    out.push_back({Encoding::kSignedPM1, Encoding::kUnsigned01, 1, q});
    out.push_back({Encoding::kSignedPM1, Encoding::kTwosComplement, 1, q});
  }
  return out;
}

/// Which bit planes are forced to zero: {weight mask, feature mask}.
struct ZeroPlanes {
  unsigned w = 0, x = 0;
};

std::vector<ZeroPlanes> zero_patterns(int p, int q) {
  const unsigned w_msb = 1u << (p - 1), x_msb = 1u << (q - 1);
  return {{0, 0}, {w_msb, 0}, {0, 1}, {1, x_msb}, {0, (1u << q) - 1}};
}

/// Random logical values whose codes have the `zero` planes cleared.
Tensor<std::int32_t> logical_with_zero_planes(
    Rng& rng, const std::vector<std::int64_t>& shape, Encoding enc, int bits,
    unsigned zero) {
  Tensor<std::int32_t> t(shape);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    const auto code = static_cast<std::int32_t>(
        rng.uniform_int(0, (std::int64_t{1} << bits) - 1) & ~zero);
    t[i] = static_cast<std::int32_t>(decode_value(enc, bits, code));
  }
  return t;
}

struct EpiCase {
  const char* name;
  bool bn, relu, quant;
};

constexpr EpiCase kEpilogues[] = {{"identity", false, false, false},
                                  {"relu", false, true, false},
                                  {"bn+relu", true, true, false},
                                  {"relu+quant", false, true, true},
                                  {"bn+relu+quant", true, true, true}};

/// Channel-varying BN with fractional parameters of both signs, so the
/// truncation before quantization matters.
BatchNormParams bn_params(std::int64_t channels) {
  BatchNormParams bn;
  for (std::int64_t c = 0; c < channels; ++c) {
    bn.scale.push_back(static_cast<float>(c % 5 - 2) * 0.37f + 0.11f);
    bn.bias.push_back(static_cast<float>(c % 7 - 3) * 0.53f);
  }
  return bn;
}

/// Reference BN -> ReLU in float, truncated to int32.
std::int32_t ref_pre(std::int32_t acc, std::int64_t ch, const EpiCase& e,
                     const BatchNormParams& bn) {
  if (!e.bn && !e.relu) return acc;
  float v = static_cast<float>(acc);
  if (e.bn) {
    v = v * bn.scale[static_cast<std::size_t>(ch)] +
        bn.bias[static_cast<std::size_t>(ch)];
  }
  if (e.relu && v < 0.0f) v = 0.0f;
  return static_cast<std::int32_t>(v);
}

/// Builds the kernel epilogue; quantization is calibrated on the reference
/// pre-quantization values (the network's own calibration rule).
Epilogue make_epilogue(const EpiCase& e, const BatchNormParams& bn,
                       const std::vector<std::int32_t>& pre, int qbits) {
  Epilogue epi;
  epi.has_bn = e.bn;
  epi.bn = bn;
  epi.has_relu = e.relu;
  epi.has_quant = e.quant;
  if (e.quant) {
    std::vector<float> vals(pre.begin(), pre.end());
    epi.quant = quant::choose_uniform_params(vals, qbits);
  }
  return epi;
}

std::string cell(const EncPair& ep, std::int64_t k, const ZeroPlanes& z,
                 Sparse sp, const EpiCase& e) {
  return "w" + std::to_string(ep.p) + "(enc " +
         std::to_string(static_cast<int>(ep.w)) + ") a" +
         std::to_string(ep.q) + "(enc " +
         std::to_string(static_cast<int>(ep.x)) + ") k=" + std::to_string(k) +
         " zero w/x=" + std::to_string(z.w) + "/" + std::to_string(z.x) +
         " sparse=" + std::to_string(static_cast<int>(sp)) + " " + e.name;
}

constexpr std::int64_t kKs[] = {1, 63, 64, 65, 129};
constexpr Sparse kSparse[] = {Sparse::kAuto, Sparse::kOn, Sparse::kOff};

TEST(BlockEpilogueGrid, ApmmDenseAndPackedSinksMatchIntegerReference) {
  // M spans two 64-bit packed words and several row blocks, so blocks share
  // packed words and the end-of-block atomic publish merges them.
  constexpr std::int64_t kM = 67, kN = 13;
  int failures = 0;
  for (const EncPair& ep : encoding_grid()) {
    for (const std::int64_t k : kKs) {
      for (const ZeroPlanes& z : zero_patterns(ep.p, ep.q)) {
        Rng rng(static_cast<std::uint64_t>(k * 131 + ep.p * 17 + ep.q * 5 +
                                           z.w * 3 + z.x));
        const Tensor<std::int32_t> wl =
            logical_with_zero_planes(rng, {kM, k}, ep.w, ep.p, z.w);
        const Tensor<std::int32_t> xl =
            logical_with_zero_planes(rng, {kN, k}, ep.x, ep.q, z.x);
        const ApOperand w = make_operand(wl, ep.w, ep.p);
        const ApOperand x = make_operand(xl, ep.x, ep.q);
        const Tensor<std::int32_t> acc = testing::naive_gemm(wl, xl);
        const BatchNormParams bn = bn_params(kM);
        for (const EpiCase& e : kEpilogues) {
          // pre[n * M + m]: the packed sink's N x M order.
          std::vector<std::int32_t> pre(static_cast<std::size_t>(kM * kN));
          for (std::int64_t m = 0; m < kM; ++m) {
            for (std::int64_t n = 0; n < kN; ++n) {
              pre[static_cast<std::size_t>(n * kM + m)] =
                  ref_pre(acc(m, n), m, e, bn);
            }
          }
          const Epilogue epi =
              make_epilogue(e, bn, pre, 1 + static_cast<int>(k % 3));
          for (const Sparse sp : kSparse) {
            ApmmOptions o;
            o.autotune = false;
            o.tile.bm = 32;
            o.tile.bn = 16;
            o.micro.sparse_staging = sp;
            o.collect_profile = false;
            const ApmmResult r = apmm(w, x, dev(), o, epi);
            bool ok = true;
            if (e.quant) {
              const std::vector<std::int32_t> codes =
                  bitops::recompose(r.packed);
              for (std::size_t i = 0; i < pre.size() && ok; ++i) {
                ok = codes[i] == quant::quantize_value(
                                     static_cast<float>(pre[i]), epi.quant);
              }
            } else {
              for (std::int64_t m = 0; m < kM && ok; ++m) {
                for (std::int64_t n = 0; n < kN && ok; ++n) {
                  ok = r.y(m, n) == pre[static_cast<std::size_t>(n * kM + m)];
                }
              }
            }
            if (!ok) {
              ++failures;
              ADD_FAILURE() << "apmm " << cell(ep, k, z, sp, e);
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(failures, 0);
}

/// Reference 2x2 pooling over NHWC (max, or the truncating average).
Tensor<std::int32_t> ref_pool(const Tensor<std::int32_t>& y,
                              PoolSpec::Kind kind) {
  const std::int64_t b = y.dim(0), h = y.dim(1) / 2, w = y.dim(2) / 2,
                     c = y.dim(3);
  Tensor<std::int32_t> out({b, h, w, c});
  for (std::int64_t n = 0; n < b; ++n) {
    for (std::int64_t i = 0; i < h; ++i) {
      for (std::int64_t j = 0; j < w; ++j) {
        for (std::int64_t ch = 0; ch < c; ++ch) {
          const bool is_max = kind == PoolSpec::Kind::kMax;
          std::int64_t agg = is_max ? y(n, 2 * i, 2 * j, ch) : 0;
          for (int d = 0; d < 4; ++d) {
            const std::int64_t v = y(n, 2 * i + d / 2, 2 * j + d % 2, ch);
            agg = is_max ? std::max(agg, v) : agg + v;
          }
          out(n, i, j, ch) = static_cast<std::int32_t>(is_max ? agg : agg / 4);
        }
      }
    }
  }
  return out;
}

TEST(BlockEpilogueGrid, ApconvWithAndWithoutFusedPoolMatchesReference) {
  // k = kernel² * in_c: 63 runs a padded 3x3 conv over 7 channels (the
  // Case-II border correction and zero-padded gathers); the other depths
  // run 1x1 convs over k channels.
  constexpr std::int64_t kCout = 67;
  int failures = 0;
  for (const EncPair& ep : encoding_grid()) {
    for (const std::int64_t k : kKs) {
      layout::ConvGeometry g;
      g.batch = 1;
      g.in_h = g.in_w = 4;
      g.out_c = kCout;
      g.kernel = k % 9 == 0 ? 3 : 1;
      g.in_c = k / (g.kernel * g.kernel);
      g.stride = 1;
      g.pad = g.kernel / 2;
      for (const ZeroPlanes& z : zero_patterns(ep.p, ep.q)) {
        Rng rng(static_cast<std::uint64_t>(k * 137 + ep.p * 19 + ep.q * 7 +
                                           z.w * 3 + z.x));
        const Tensor<std::int32_t> w_ohwi = logical_with_zero_planes(
            rng, {kCout, g.kernel, g.kernel, g.in_c}, ep.w, ep.p, z.w);
        const Tensor<std::int32_t> x_nhwc = logical_with_zero_planes(
            rng, {g.batch, g.in_h, g.in_w, g.in_c}, ep.x, ep.q, z.x);
        Tensor<std::int32_t> codes(x_nhwc.shape());
        for (std::int64_t i = 0; i < codes.numel(); ++i) {
          codes[i] = encode_value(ep.x, ep.q, x_nhwc[i]);
        }
        const layout::PackedActivations x = layout::pack_activations(
            codes, layout::DenseLayout::kNHWC, ep.q);
        const ApOperand w = make_conv_weights(w_ohwi, ep.w, ep.p);
        const Tensor<std::int32_t> acc = conv2d_reference(x_nhwc, w_ohwi, g);
        const BatchNormParams bn = bn_params(kCout);
        for (const PoolSpec::Kind pk :
             {PoolSpec::Kind::kNone, PoolSpec::Kind::kMax,
              PoolSpec::Kind::kAvg}) {
          PoolSpec pool;
          pool.kind = pk;
          for (const EpiCase& e : kEpilogues) {
            Tensor<std::int32_t> pre = acc;
            for (std::int64_t i = 0; i < pre.numel(); ++i) {
              pre[i] = ref_pre(pre[i], i % kCout, e, bn);
            }
            if (pool.active()) pre = ref_pool(pre, pk);
            const Epilogue epi = make_epilogue(
                e, bn, std::vector<std::int32_t>(pre.data(),
                                                 pre.data() + pre.numel()),
                1 + static_cast<int>(k % 3));
            for (const Sparse sp : kSparse) {
              ApconvOptions o;
              o.autotune = false;
              o.tile.bm = 32;
              o.tile.bn = 16;
              o.micro.sparse_staging = sp;
              o.collect_profile = false;
              const ApconvResult r =
                  apconv(w, x, ep.x, g, dev(), o, epi, pool);
              bool ok = true;
              if (e.quant) {
                const Tensor<std::int32_t> got =
                    layout::unpack_activations(r.packed);
                for (std::int64_t i = 0; i < pre.numel() && ok; ++i) {
                  ok = got[i] == quant::quantize_value(
                                     static_cast<float>(pre[i]), epi.quant);
                }
              } else {
                ok = r.y == pre;
              }
              if (!ok) {
                ++failures;
                ADD_FAILURE() << "apconv pool=" << static_cast<int>(pk) << " "
                              << cell(ep, k, z, sp, e);
              }
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(failures, 0);
}

}  // namespace
}  // namespace apnn::core
