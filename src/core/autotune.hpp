// Plan-time empirical autotuning (measure, don't model).
//
// The §4.3.2 heuristic ranks tile configurations by modeled occupancy
// (TLP/CI); on the host microkernel that model misses what actually decides
// wall time — SIMD lane utilization of the row-block kernel, staging
// amortization vs cache footprint of the k-strip depth, the virtual-row
// padding of short-M stages. Following the measure-don't-model approach of
// tensor-core characterization studies (PAPERS.md: Markidis et al.), the
// Autotuner benchmarks a pruned candidate set per ExecutionPlan stage on the
// session's thread pool, using the stage's real packed weight operand and a
// synthetic feature operand of the exact geometry, and bakes the winner into
// the plan. perf_model::ranked_tiles is the candidate pruner and the
// heuristic pick is always candidate #0, so a tuned plan degrades to exactly
// the heuristic plan when nothing measures faster.
//
// Winners persist in a TuningCache keyed by a canonical stage signature and
// guarded by a hardware fingerprint (schema version, compiled SIMD level,
// thread-pool width): repeated compiles, CLI runs, and server cold starts
// hit the cache instead of re-measuring, and a cache recorded on different
// hardware (or an incompatible schema) invalidates wholesale.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/apconv.hpp"
#include "src/core/apmm.hpp"

namespace apnn::core {

/// One fully resolved kernel configuration for a stage: the paper-level
/// tile plus the host-microkernel knobs. Every config is bit-exact; only
/// speed differs.
struct TunedKernel {
  TileConfig tile;
  microkernel::MicroConfig micro;

  double measured_ms = 0.0;  ///< best-of-reps wall time (0 when unmeasured)
  bool measured = false;     ///< false: heuristic fallback, never timed

  /// Geometry equality (ignores measurement metadata) — what the
  /// determinism tests compare across compiles.
  bool same_config(const TunedKernel& o) const {
    return tile.bm == o.tile.bm && tile.bn == o.tile.bn &&
           tile.bk == o.tile.bk && micro == o.micro;
  }
};

/// Canonical signature of a tunable stage — the TuningCache key. Everything
/// that changes the measured cost shape is in here; anything that does not
/// (operand *values*, device spec of the simulated GPU) is deliberately out.
struct StageKey {
  std::string kind;  ///< "mm" (linear) or "conv"
  std::int64_t m = 0, n = 0, k = 0;  ///< lowered GEMM dims
  int p = 1, q = 1;
  EmulationCase ecase = EmulationCase::kCaseI;
  bool has_bn = false, has_relu = false;
  int qbits = 0;     ///< quantizing-epilogue output bits (0 = dense)
  int pool_win = 1;  ///< fused pool window (1 = none)
  int pool_kind = 0; ///< PoolSpec::Kind as int (max/avg reduce differently)
  /// Sequence bucket of a dynamic-shape plan family's attention GEMM
  /// (0 = shape-static stage). N already encodes batch * bucket; carrying
  /// the bucket separately keeps each family member's winner distinct even
  /// when batch * bucket collides across buckets.
  std::int64_t seq = 0;
  /// Conv-only window-gather shape (zero for "mm").
  std::int64_t in_c = 0;
  int kernel = 0, stride = 0, pad = 0;

  /// Canonical single-token form (no whitespace) used as the cache key and
  /// in the serialized file format.
  std::string canonical() const;
};

StageKey make_mm_key(const ApOperand& w, std::int64_t n, int q_bits,
                     Encoding x_enc, const Epilogue& epi,
                     std::int64_t seq = 0);
StageKey make_conv_key(const ApOperand& w, const layout::ConvGeometry& g,
                       int q_bits, Encoding x_enc, const Epilogue& epi,
                       const PoolSpec& pool);

/// Persistent, serializable store of measured winners. Versioned: the
/// serialized text carries a fingerprint (schema version + compiled SIMD
/// level + thread-pool width); deserializing a text whose fingerprint does
/// not match the running binary drops every entry (stale-cache
/// invalidation) rather than replaying measurements from a different
/// machine shape.
///
/// Thread-safe: lookup/insert/size/serialize/deserialize take an internal
/// mutex, so one cache may back any number of concurrently tuning sessions
/// (the replicated InferenceServer shares one cache across its replicas —
/// the first replica's measurements are every later replica's cache hits).
/// entries() is the exception: it hands out a reference for offline
/// inspection (CLI `inspect`, tests) and must not race concurrent inserts.
class TuningCache {
 public:
  /// `pool_threads` is the logical width (workers + participating caller) of
  /// the pool the cached measurements run on; 0 means the process-global
  /// pool. A server slicing hardware into per-replica pools passes the slice
  /// width so `t<threads>` reflects what its sessions actually execute with
  /// — measurements from a different width invalidate wholesale on load.
  explicit TuningCache(unsigned pool_threads = 0);

  /// What measurements depend on: "v<schema>:<simd>:t<threads>", where
  /// <threads> is the logical pool width (0 = the global pool's width).
  static std::string hardware_fingerprint(unsigned pool_threads = 0);

  bool lookup(const StageKey& key, TunedKernel* out) const;
  void insert(const StageKey& key, const TunedKernel& cfg);
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }
  /// Inspection-only view; requires no concurrent writers (see class doc).
  const std::map<std::string, TunedKernel>& entries() const {
    return entries_;
  }
  /// Fingerprint this cache carries (the running binary's, unless
  /// deserialize(any_fingerprint=true) loaded a foreign one for inspection).
  /// By value: deserialize() may reassign it concurrently.
  std::string fingerprint() const {
    std::lock_guard<std::mutex> lock(mu_);
    return fingerprint_;
  }

  std::string serialize() const;
  /// Replaces the contents from serialized text. Returns false (and leaves
  /// the cache empty) on malformed input or a fingerprint mismatch; pass
  /// `any_fingerprint` to load a foreign cache for inspection only.
  bool deserialize(const std::string& text, bool any_fingerprint = false);

  /// File convenience wrappers (false on I/O failure or stale content).
  /// A corrupt or truncated file makes load_file return false with the
  /// cache left empty — callers degrade to cold tuning, never crash.
  bool load_file(const std::string& path, bool any_fingerprint = false);
  /// Crash-safe: writes `path + ".tmp"` then atomically renames over
  /// `path`, so a failure mid-save never leaves a truncated cache behind.
  bool save_file(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, TunedKernel> entries_;
  std::string fingerprint_;
  unsigned pool_threads_ = 0;  ///< width this cache is keyed to (0 = global)
};

struct AutotuneOptions {
  /// Tile candidates kept from perf_model::ranked_tiles (the heuristic pick
  /// always survives pruning).
  std::size_t max_tile_candidates = 3;
  /// Timing repetitions per candidate (best-of, after one warm-up run).
  int reps = 2;
  /// Also measure microkernel-knob variants (k-strip depth, staging,
  /// sparse staging) of the heuristic tile.
  bool explore_micro = true;
  /// Share of 64-bit words zeroed (in word-aligned runs) in the synthetic
  /// feature operand before measurement, so sparse-vs-dense candidates are
  /// compared on occupancy representative of ReLU-fed packed activations
  /// rather than the dense-only worst case. 0 disables.
  double synth_zero_frac = 0.25;
};

/// Stateless apart from counters and reusable measurement scratch; one
/// instance per InferenceSession (or per CLI tune run).
class Autotuner {
 public:
  /// `cache` may be null (measurements are then never reused). `pool` is the
  /// pool measurement runs execute on (nullptr = global) — a session tuning
  /// on a private slice measures at the slice width it will serve with.
  Autotuner(const tcsim::DeviceSpec& dev, TuningCache* cache,
            const AutotuneOptions& opts = {}, ThreadPool* pool = nullptr);

  /// One measured candidate (introspection for the explorer/CLI).
  struct Candidate {
    TunedKernel cfg;  ///< measured_ms/measured filled in
  };

  /// Tunes a linear stage: `w` is the stage's real packed weight operand;
  /// the N x K feature operand is synthesized at the exact geometry
  /// (q_bits planes, encoding x_enc, random payload bits). `seq` is the
  /// sequence bucket for attention GEMMs of a dynamic-shape plan family
  /// (0 for shape-static stages); it only widens the cache key.
  TunedKernel tune_apmm(const ApOperand& w, std::int64_t n, int q_bits,
                        Encoding x_enc, const Epilogue& epi,
                        std::int64_t seq = 0,
                        std::vector<Candidate>* trace = nullptr);

  /// Tunes a conv stage end to end (window-gather staging, fused tail
  /// included) against a synthetic packed activation map of the stage's
  /// exact NPHWC geometry.
  TunedKernel tune_apconv(const ApOperand& w, const layout::ConvGeometry& g,
                          int q_bits, Encoding x_enc, const Epilogue& epi,
                          const PoolSpec& pool,
                          std::vector<Candidate>* trace = nullptr);

  /// Candidate kernel executions performed so far (warm-ups included).
  /// Zero after a compile whose every stage hit the TuningCache. Atomic so
  /// the serving tier may poll these counters while a replica tunes lazily.
  std::int64_t measurement_runs() const { return measurement_runs_.load(); }
  std::int64_t cache_hits() const { return cache_hits_.load(); }

  const tcsim::DeviceSpec& device() const { return dev_; }

 private:
  /// The pruned candidate list: ranked tiles x (default micro), plus the
  /// micro variants of the heuristic tile.
  std::vector<TunedKernel> candidates(std::int64_t m, std::int64_t n,
                                      std::int64_t k, int p, int q) const;

  template <typename RunFn>
  TunedKernel measure(const StageKey& key, std::vector<TunedKernel> cands,
                      RunFn&& run, std::vector<Candidate>* trace);

  tcsim::DeviceSpec dev_;
  TuningCache* cache_;
  AutotuneOptions opts_;
  ThreadPool* pool_ = nullptr;
  std::atomic<std::int64_t> measurement_runs_{0};
  std::atomic<std::int64_t> cache_hits_{0};

  // Reusable measurement sinks (grow once, then steady-state).
  Tensor<std::int32_t> scratch_y_;
  bitops::BitPlanes scratch_planes_;
  layout::PackedActivations scratch_packed_;
};

}  // namespace apnn::core
