// Stage-by-stage replay of a conv network through the public kernel entry
// points (core::apconv / core::apmm), used to time each stage alone and to
// hand the correctness checks a stage's real input.
//
// The walk chains stages with plain dense glue (residual add, ReLU, pool,
// standalone quantize) written here, and runs every conv/linear stage with
// the tile the InferenceSession picks when autotuning is off, so a replayed
// stage does the same kernel work as the session's step.
#pragma once

#include <cstdint>
#include <vector>

#include "src/core/apconv.hpp"
#include "src/core/apmm.hpp"
#include "src/nn/apnn_network.hpp"
#include "src/parallel/thread_pool.hpp"

namespace perfbench {

using apnn::Tensor;
namespace core = apnn::core;
namespace layout = apnn::layout;
namespace nn = apnn::nn;

/// The real input of one conv/linear stage, captured during a walk.
struct StageInput {
  std::size_t stage = 0;  ///< index into ApnnNetwork::stages()
  bool conv = true;
  layout::PackedActivations x;  ///< conv: packed input activations
  layout::ConvGeometry g;       ///< conv: geometry at the walk's batch
  core::ApOperand xop;          ///< linear: feature operand (N x K)

  /// Bit-level operations of the stage: 2 * MACs * p * q.
  double bit_ops(const nn::ApnnNetwork& net) const;
};

/// Reusable output storage for replays (steady replays allocate no output).
struct StageOutput {
  Tensor<std::int32_t> y;
  layout::PackedActivations packed;
  apnn::bitops::BitPlanes planes;
};

/// Walks `net` over `image_u8` ({B, H, W, C}) and returns the logits;
/// appends every conv/linear stage's input to `*inputs` in stage order.
/// Conv models only (attention stages are rejected).
Tensor<std::int32_t> walk_network(const nn::ApnnNetwork& net,
                                  const Tensor<std::int32_t>& image_u8,
                                  const apnn::tcsim::DeviceSpec& dev,
                                  apnn::ThreadPool* pool,
                                  std::vector<StageInput>* inputs);

/// Runs one stage alone on its captured input. With `raw` the epilogue and
/// pool are dropped, so out->y holds the raw int32 accumulators (NHWC for a
/// conv, M x N for a linear stage).
void replay_stage(const nn::ApnnNetwork& net, const StageInput& in,
                  const apnn::tcsim::DeviceSpec& dev, apnn::ThreadPool* pool,
                  bool raw, StageOutput* out);

}  // namespace perfbench
