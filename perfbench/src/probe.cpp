#include "probe.hpp"

#include <fcntl.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <thread>

namespace perfbench {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

double peak_rss_mib() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

CpuTicks read_cpu_ticks() {
  // The aggregate line: cpu user nice system idle iowait irq softirq steal
  // guest guest_nice; guest time is already counted in user/nice. Read into
  // a stack buffer so that sampling allocates nothing.
  CpuTicks t;
  char buf[512];
  const int fd = ::open("/proc/stat", O_RDONLY | O_CLOEXEC);
  if (fd < 0) return t;
  const ssize_t n = ::read(fd, buf, sizeof buf - 1);
  ::close(fd);
  if (n <= 4 || std::strncmp(buf, "cpu ", 4) != 0) return t;
  buf[n] = '\0';
  char* p = buf + 4;
  for (int i = 0; i < 8; ++i) {
    char* end = nullptr;
    const std::uint64_t v = std::strtoull(p, &end, 10);
    if (end == p) break;
    t.total += v;
    if (i == 7) t.steal = v;
    p = end;
  }
  return t;
}

double steal_share(const CpuTicks& a, const CpuTicks& b) {
  const std::uint64_t total = b.total - a.total;
  return total == 0 ? 0.0
                    : static_cast<double>(b.steal - a.steal) /
                          static_cast<double>(total);
}

StealSampler::StealSampler(double slice_ms)
    : thread_([this, slice_ms] { loop(slice_ms); }) {}

void StealSampler::loop(double slice_ms) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    slices_.reserve(1 << 14);  // no allocation while sampling
  }
  CpuTicks ticks = read_cpu_ticks();
  double t = now_ms(), cpu = process_cpu_ms();
  for (;;) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(slice_ms));
    const CpuTicks ticks1 = read_cpu_ticks();
    const double t1 = now_ms(), cpu1 = process_cpu_ms();
    std::lock_guard<std::mutex> lock(mu_);
    slices_.push_back({t, t1, steal_share(ticks, ticks1), cpu1 - cpu});
    if (stopping_) return;
    ticks = ticks1;
    t = t1;
    cpu = cpu1;
  }
}

const std::vector<StealSampler::Slice>& StealSampler::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  if (thread_.joinable()) thread_.join();
  return slices_;
}

QuietSummary summarize(const std::vector<Op>& ops,
                       const std::vector<StealSampler::Slice>& slices) {
  QuietSummary q;
  for (const Op& op : ops) q.all_lat_ms.push_back(op.t1_ms - op.t0_ms);
  if (slices.empty()) return q;
  std::vector<double> steals;
  double total_ms = 0, stolen_ms = 0;
  for (const auto& s : slices) {
    steals.push_back(s.steal);
    total_ms += s.t1_ms - s.t0_ms;
    stolen_ms += s.steal * (s.t1_ms - s.t0_ms);
  }
  q.steal = stolen_ms / total_ms;
  q.threshold = std::max(0.0, quantile(steals, 0.25));
  // Slices are contiguous and ordered; locate a time by binary search.
  const auto slice_of = [&](double t) -> std::ptrdiff_t {
    if (t < slices.front().t0_ms || t >= slices.back().t1_ms) return -1;
    const auto it = std::upper_bound(
        slices.begin(), slices.end(), t,
        [](double v, const StealSampler::Slice& s) { return v < s.t1_ms; });
    return it - slices.begin();
  };
  const auto quiet = [&](std::ptrdiff_t i) {
    return slices[static_cast<std::size_t>(i)].steal <= q.threshold;
  };
  double quiet_ms = 0, quiet_cpu = 0;
  for (const auto& s : slices) {
    if (s.steal <= q.threshold) {
      quiet_ms += s.t1_ms - s.t0_ms;
      quiet_cpu += s.cpu_ms;
    }
  }
  // An operation's exposure is the time-weighted steal of the slices it
  // overlaps; latencies come from the least exposed ones. The quiet work
  // counts each operation by the share of its time spent in quiet slices,
  // so a long operation is not counted whole or not at all.
  double quiet_work = 0;
  std::vector<double> exposure(ops.size(), -1.0);
  for (std::size_t o = 0; o < ops.size(); ++o) {
    const Op& op = ops[o];
    const std::ptrdiff_t a = slice_of(op.t0_ms), b = slice_of(op.t1_ms);
    if (a < 0 || b < 0) continue;
    const double dur = std::max(op.t1_ms - op.t0_ms, 1e-9);
    double stolen = 0, in_quiet = 0;
    for (std::ptrdiff_t i = a; i <= b; ++i) {
      const auto& s = slices[static_cast<std::size_t>(i)];
      const double overlap =
          std::min(op.t1_ms, s.t1_ms) - std::max(op.t0_ms, s.t0_ms);
      stolen += s.steal * overlap;
      if (quiet(i)) in_quiet += overlap;
    }
    exposure[o] = stolen / dur;
    quiet_work += in_quiet / dur;
  }
  std::vector<double> seen;
  for (double e : exposure) {
    if (e >= 0) seen.push_back(e);
  }
  const double bound = std::max(0.0, quantile(seen, 0.25));
  for (std::size_t o = 0; o < ops.size(); ++o) {
    if (exposure[o] >= 0 && exposure[o] <= bound) {
      q.lat_ms.push_back(ops[o].t1_ms - ops[o].t0_ms);
    }
  }
  if (q.lat_ms.empty()) q.lat_ms = q.all_lat_ms;
  q.quiet_share = quiet_ms / total_ms;
  q.per_s = quiet_work / (quiet_ms / 1e3);
  q.cpu_ms_per_op = quiet_work > 0 ? quiet_cpu / quiet_work : 0;
  return q;
}

namespace {
std::atomic<std::int64_t> g_allocs{0};
}  // namespace

std::int64_t alloc_count() { return g_allocs.load(std::memory_order_relaxed); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

std::int64_t Trace::begin(const char* name) {
  if (!enabled_) return 0;
  const double t = now_ms();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, t, -1.0});
  return static_cast<std::int64_t>(spans_.size());
}

double Trace::end(std::int64_t id) {
  if (!enabled_ || id <= 0) return 0.0;
  const double t = now_ms();
  std::lock_guard<std::mutex> lock(mu_);
  Span& s = spans_[static_cast<std::size_t>(id - 1)];
  s.end_ms = t;
  return s.end_ms - s.start_ms;
}

void Trace::note(const std::string& key, const std::string& json_value) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  notes_.emplace_back(key, json_value);
}

bool Trace::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start_ms;
  std::fprintf(f, "{\"spans\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", "
                 "\"start_ms\": %.4f, \"dur_ms\": %.4f}%s\n",
                 i + 1, s.name,
                 s.start_ms - t0, s.end_ms - s.start_ms,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "],\n\"notes\": {\n");
  for (std::size_t i = 0; i < notes_.size(); ++i) {
    std::fprintf(f, "  \"%s\": %s%s\n", notes_[i].first.c_str(),
                 notes_[i].second.c_str(), i + 1 < notes_.size() ? "," : "");
  }
  std::fprintf(f, "}}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench

// Counting replacements of the global allocation functions. Every form
// funnels into malloc/aligned_alloc so the matching deletes can free.
namespace {
void* counted_alloc(std::size_t n, std::size_t align) {
  perfbench::g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) n = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(n);
  } else {
    n = (n + align - 1) / align * align;
    p = std::aligned_alloc(align, n);
  }
  return p;
}
}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n, 0)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_alloc(n, 0)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, std::align_val_t a) {
  if (void* p = counted_alloc(n, static_cast<std::size_t>(a))) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t a) {
  if (void* p = counted_alloc(n, static_cast<std::size_t>(a))) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, 0);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, 0);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
