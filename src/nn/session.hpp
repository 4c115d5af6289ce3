// Compiled network execution: InferenceSession (§5 network-level designs as
// a compile-once / run-many pipeline). A session compiles the network once
// into an ExecutionPlan:
//
//  * resolved stage/tail structure — one step list, no per-call spec walk;
//    every non-conv bit-GEMM (linear layers, attention) is one descriptor-
//    driven step;
//  * buffer-lifetime analysis — every intermediate value gets a slot in a
//    reusable parallel::ActivationSlab (liveness-based slot reuse), and the
//    apconv/apmm kernels write straight into the slab (y_out / packed_out),
//    so steady-state forward passes grow no slab and make no heap
//    allocation at all, at every pool width;
//  * pre-resolved glue ops — residual add, standalone ReLU / pool /
//    quantize, packing and GEMM-operand assembly run as word-granular
//    blocked kernels farmed over the thread pool, operating directly on the
//    packed/dense slab buffers.
//
// The plan is batch-agnostic: per-batch conv geometries and tiles are
// resolved lazily and cached, so one session serves any request size (the
// dynamic-batching nn::InferenceServer relies on this). Results are
// bit-exact with ApnnNetwork::forward_reference().
//
// Dynamic sequence lengths (ModelSpec::seq_buckets) compile a plan *family*:
// one plan per bucket, sharing the network's weights and a single
// session-owned slab sized to the largest plan's slot count. run() picks the
// smallest bucket that fits the request's token count and zero-pads up to
// it, so serving mixed-length attention traffic never recompiles.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/autotune.hpp"
#include "src/nn/apnn_network.hpp"
#include "src/parallel/slab.hpp"
#include "src/tcsim/device_spec.hpp"
#include "src/tcsim/trace.hpp"

namespace apnn::nn {

/// Compile-time behavior of an InferenceSession.
struct SessionOptions {
  /// Empirical plan-time autotuning (core::Autotuner): per-stage kernel
  /// geometries are measured on the real operand shapes instead of trusting
  /// the §4.3.2 heuristic. Off by default — tuning costs a burst of
  /// measurement runs per (stage, batch) unless `cache` already holds the
  /// winners.
  bool autotune = false;

  /// Optional persistent tuning cache, shared across sessions/processes via
  /// TuningCache::{load,save}_file. Non-owning; must outlive the session.
  /// When null and autotune is on, the session keeps a private cache (warm
  /// within the session only).
  core::TuningCache* cache = nullptr;

  /// When > 0 (and autotune is on), the constructor eagerly resolves — and
  /// tunes — this batch size, so the first run() at that size pays no
  /// tuning latency. Other batch sizes tune lazily on first use.
  std::int64_t tune_batch = 0;

  core::AutotuneOptions tuner;

  /// Pool every kernel and glue loop of this session runs on; nullptr =
  /// ThreadPool::global(). Non-owning — must outlive the session. The
  /// replicated InferenceServer gives each replica's session a private pool
  /// slice so N replicas never oversubscribe the global pool N×; autotune
  /// measurements run on the same pool so tuned winners reflect the slice
  /// width the session actually executes with.
  ThreadPool* pool = nullptr;
};

class InferenceSession {
 public:
  /// Compiles `net` (must be calibrated) for `dev`. The network must
  /// outlive the session; recompile after re-calibrating.
  InferenceSession(const ApnnNetwork& net, const tcsim::DeviceSpec& dev,
                   const SessionOptions& opts = {});
  ~InferenceSession();

  InferenceSession(const InferenceSession&) = delete;
  InferenceSession& operator=(const InferenceSession&) = delete;

  /// Runs one forward pass. `input_u8` is NHWC uint8 codes {B, H, W, C};
  /// logits land in `*logits` ({B, classes}), which is reshaped in place so
  /// a reused tensor costs no allocation. Appends kernel launch records to
  /// `prof` when given (the steady-state path skips record-keeping
  /// entirely when it is null). Not thread-safe: one run at a time per
  /// session. Distinct sessions over the same (const) network may run
  /// concurrently — they share only their execution pool (the global pool,
  /// or per-session slices via SessionOptions::pool) and, when configured, a
  /// TuningCache, both of which tolerate concurrent callers; the replicated
  /// InferenceServer relies on this.
  void run(const Tensor<std::int32_t>& input_u8, Tensor<std::int32_t>* logits,
           tcsim::SequenceProfile* prof = nullptr);

  /// Convenience overload returning the logits by value.
  Tensor<std::int32_t> run(const Tensor<std::int32_t>& input_u8,
                           tcsim::SequenceProfile* prof = nullptr);

  const ApnnNetwork& network() const { return net_; }

  /// Per-sample admission check for serving front-ends: `sample` must be
  /// {H, W, C} or {1, H, W, C} matching `shape`, with every value a valid
  /// 8-bit input code in [0, 255]. Throws apnn::Error naming the offending
  /// dimension or value. Validating at admission keeps one bad sample from
  /// poisoning the micro-batch it would have joined: the error surfaces in
  /// the offending caller's infer(), never inside a shared batched run.
  static void validate_sample(const ActShape& shape,
                              const Tensor<std::int32_t>& sample);

  /// Bucketed-sequence variant: with `seq_buckets` non-empty (sorted
  /// ascending, as ModelSpec carries them) the sample's leading dimension is
  /// a token count and may be any value in [1, seq_buckets.back()]; the
  /// trailing dims must still match {shape.w, shape.c}. With empty buckets
  /// this forwards to the fixed-shape overload.
  static void validate_sample(const ActShape& shape,
                              const std::vector<std::int64_t>& seq_buckets,
                              const Tensor<std::int32_t>& sample);

  /// Opaque compiled plan (defined in session.cpp).
  struct Plan;

  /// The session-owned activation slab (footprint inspection).
  const parallel::ActivationSlab& slab() const;

  /// Compiled plan shape of the *default* plan (the bucket serving the
  /// spec's calibration length; the only plan for fixed-shape models):
  /// executable steps and distinct slab slots. The slot count is below the
  /// value count whenever liveness found reuse.
  std::size_t step_count() const;
  std::size_t slot_count() const;

  /// Number of compiled plans (1 for fixed-shape models, one per sequence
  /// bucket otherwise).
  std::size_t plan_count() const;

  /// Candidate measurement executions this session's autotuner has
  /// performed (0 with autotuning off, or when every stage resolution hit
  /// the TuningCache — the warm-cache fast path the tests pin).
  std::int64_t tuning_measurements() const;

  /// Resolved per-step kernel choices for `batch` (tuning it first if that
  /// batch has not been seen): one entry per plan step; steps that are not
  /// conv or GEMM steps carry default-constructed entries.
  std::vector<core::TunedKernel> stage_kernels(std::int64_t batch);

 private:
  /// The plan serving `seq_len` tokens: smallest bucket >= seq_len. Throws
  /// when seq_len exceeds the largest bucket.
  Plan& plan_for(std::int64_t seq_len) const;
  Plan& default_plan() const;

  /// Executes one compiled plan; `input` rows must match the plan's bucket.
  void run_plan(Plan& plan, const Tensor<std::int32_t>& input,
                Tensor<std::int32_t>* logits, tcsim::SequenceProfile* prof);

  const ApnnNetwork& net_;
  tcsim::DeviceSpec dev_;
  SessionOptions opts_;
  std::unique_ptr<core::TuningCache> owned_cache_;
  std::unique_ptr<core::Autotuner> tuner_;
  /// Plan family, ascending by bucket (a single entry for fixed shapes).
  std::vector<std::unique_ptr<Plan>> plans_;
  /// One slab shared by every plan (slots sized to the largest plan).
  parallel::ActivationSlab slab_;
  /// Reusable zero-padded staging input for sub-bucket requests.
  Tensor<std::int32_t> padded_;
};

}  // namespace apnn::nn
