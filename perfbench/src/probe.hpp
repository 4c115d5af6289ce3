// Measurement probes the benchmark takes from outside the library: clocks,
// process CPU time, peak resident memory, hypervisor steal, a heap
// allocation counter and an in-memory span recorder.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/// Monotonic wall clock in milliseconds since an arbitrary epoch.
double now_ms();

/// CPU time consumed by every thread of this process, in milliseconds.
double process_cpu_ms();

/// Peak resident set size of this process (VmHWM), in MiB.
double peak_rss_mib();

/// The aggregate "cpu" line of /proc/stat: all ticks and the steal ticks.
struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuTicks read_cpu_ticks();
/// Share of the machine's ticks between `a` and `b` stolen by the hypervisor.
double steal_share(const CpuTicks& a, const CpuTicks& b);

/// Samples /proc/stat steal and this process's CPU time on a background
/// thread every `slice_ms`, from construction until stop(), so a timed
/// window can be split into slices the hypervisor did or did not disturb.
class StealSampler {
 public:
  struct Slice {
    double t0_ms, t1_ms;  ///< now_ms() at the slice's ends
    double steal;         ///< steal_share over the slice
    double cpu_ms;        ///< process CPU time spent in the slice
  };

  explicit StealSampler(double slice_ms);
  ~StealSampler() { stop(); }
  StealSampler(const StealSampler&) = delete;
  StealSampler& operator=(const StealSampler&) = delete;

  /// Ends sampling (idempotent) and returns the slices.
  const std::vector<Slice>& stop();

 private:
  void loop(double slice_ms);

  std::mutex mu_;
  bool stopping_ = false;
  std::vector<Slice> slices_;
  std::thread thread_;  ///< last: starts after the members it uses
};

/// One timed operation, by its now_ms() start and end.
struct Op {
  double t0_ms, t1_ms;
};

/// A timed window judged by the hypervisor's steal, sampled in slices.
/// An operation's exposure is the time-weighted steal share of the slices
/// it overlaps; latencies come from the operations whose exposure is at
/// most max(0, first quartile of all exposures), so at least a quarter of
/// the operations is kept however busy the host is. A slice is quiet when
/// its steal share is at most max(0, first quartile of the slices); rates
/// and CPU cost divide the quiet slices' time and CPU by the operations
/// done in them, each operation counted by the share of its time spent
/// there.
struct QuietSummary {
  std::vector<double> lat_ms;     ///< latencies of the least exposed ops
  double per_s = 0;               ///< operations per quiet second
  double cpu_ms_per_op = 0;       ///< process CPU per operation, quiet slices
  double quiet_share = 0;         ///< quiet time / window time
  double steal = 0;               ///< steal share of the whole window
  double threshold = 0;           ///< the quiet-slice steal bound used
  std::vector<double> all_lat_ms; ///< every operation, for diagnostics
};
QuietSummary summarize(const std::vector<Op>& ops,
                       const std::vector<StealSampler::Slice>& slices);

/// Heap allocations made by any thread of this process so far (every
/// replaceable operator new of the benchmark binary counts one).
std::int64_t alloc_count();

/// Order statistics over a copy of `v` (linear interpolation between
/// closest ranks); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }
double mean(const std::vector<double>& v);

/// Spans recorded in memory around calls into the library's layers and
/// written out once, when the run ends. Thread-safe; a disabled recorder
/// costs one branch per call.
class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }
  bool enabled() const { return enabled_; }

  /// Opens a span; returns its id (0 when disabled).
  std::int64_t begin(const char* name);
  /// Closes span `id` and returns its duration in ms.
  double end(std::int64_t id);

  /// Per-run figures that are not spans (per-stage rows, counters).
  void note(const std::string& key, const std::string& json_value);

  /// Writes {"spans": [...], "notes": {...}} to `path`. Returns false on
  /// I/O failure.
  bool write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    double start_ms;
    double end_ms;
  };
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<std::pair<std::string, std::string>> notes_;
};

}  // namespace perfbench
