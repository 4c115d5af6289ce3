#include "src/core/autotune.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

#include "src/common/faultinject.hpp"
#include "src/common/rng.hpp"
#include "src/common/timer.hpp"
#include "src/parallel/thread_pool.hpp"

namespace apnn::core {

namespace {

/// Bump whenever the serialized layout, the StageKey schema, or the meaning
/// of any knob changes — a stale schema must drop entries, not misread them.
// v2: t<threads> became the logical pool width (workers + caller) of the
// pool measurements run on — per-replica slices tune at their own width —
// where v1 recorded the global pool's worker count.
// v3: entries gained MicroConfig::sparse_staging (the data-sparsity fast
// path), and the kAuto default means v2 winners were measured on a kernel
// that no longer exists — they must invalidate, not misread.
// v4: StageKey gained the sequence-bucket dimension (|sq) for attention
// GEMMs of dynamic-shape plan families.
// v5: entries lost the combine fast-path column (the p=q=1 identity combine
// fast path is gone; every block runs the one row combine).
constexpr int kSchemaVersion = 5;

constexpr const char* kMagic = "apnn-tuning-cache";

/// Zeroes ~`frac` of each row's 64-bit payload words of a synthetic operand
/// plane. Word-granular (not bit-granular) on purpose: this is the shape
/// ReLU + quantize actually produces in packed activations, and it is the
/// granularity the occupancy maps can exploit.
void sparsify_plane(bitops::BitMatrix& pm, double frac, Rng& rng) {
  if (frac <= 0.0) return;
  for (std::int64_t r = 0; r < pm.rows(); ++r) {
    std::uint64_t* row = pm.row(r);
    for (std::int64_t w = 0; w < pm.row_words(); ++w) {
      if (rng.uniform() < frac) row[w] = 0;
    }
  }
}

}  // namespace

std::string StageKey::canonical() const {
  std::ostringstream os;
  os << kind << "|m" << m << "|n" << n << "|k" << k << "|p" << p << "|q" << q
     << "|case" << emulation_case_name(ecase) << "|bn" << (has_bn ? 1 : 0)
     << "|relu" << (has_relu ? 1 : 0) << "|qb" << qbits << "|pw" << pool_win
     << "|sq" << seq;
  if (kind == "conv") {
    os << "|c" << in_c << "|kk" << kernel << "|s" << stride << "|pd" << pad
       << "|pk" << pool_kind;
  }
  return os.str();
}

StageKey make_mm_key(const ApOperand& w, std::int64_t n, int q_bits,
                     Encoding x_enc, const Epilogue& epi, std::int64_t seq) {
  StageKey key;
  key.kind = "mm";
  key.m = w.rows();
  key.n = n;
  key.k = w.cols();
  key.p = w.bits();
  key.q = q_bits;
  key.ecase = select_operator({w.encoding, x_enc}).kind;
  key.has_bn = epi.has_bn;
  key.has_relu = epi.has_relu;
  key.qbits = epi.has_quant ? epi.quant.bits : 0;
  key.seq = seq;
  return key;
}

StageKey make_conv_key(const ApOperand& w, const layout::ConvGeometry& g,
                       int q_bits, Encoding x_enc, const Epilogue& epi,
                       const PoolSpec& pool) {
  StageKey key;
  key.kind = "conv";
  key.m = g.gemm_m();
  key.n = g.gemm_n();
  key.k = g.gemm_k();
  key.p = w.bits();
  key.q = q_bits;
  key.ecase = select_operator({w.encoding, x_enc}).kind;
  key.has_bn = epi.has_bn;
  key.has_relu = epi.has_relu;
  key.qbits = epi.has_quant ? epi.quant.bits : 0;
  key.pool_win = pool.active() ? pool.size : 1;
  key.pool_kind = static_cast<int>(pool.kind);
  key.in_c = g.in_c;
  key.kernel = g.kernel;
  key.stride = g.stride;
  key.pad = g.pad;
  return key;
}

// --- TuningCache ------------------------------------------------------------

TuningCache::TuningCache(unsigned pool_threads)
    : fingerprint_(hardware_fingerprint(pool_threads)),
      pool_threads_(pool_threads) {}

std::string TuningCache::hardware_fingerprint(unsigned pool_threads) {
  const unsigned width =
      pool_threads != 0 ? pool_threads : ThreadPool::global().size() + 1;
  std::ostringstream os;
  os << "v" << kSchemaVersion << ":" << microkernel::kSimdFlavor << ":t"
     << width;
  return os.str();
}

bool TuningCache::lookup(const StageKey& key, TunedKernel* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key.canonical());
  if (it == entries_.end()) return false;
  *out = it->second;
  return true;
}

void TuningCache::insert(const StageKey& key, const TunedKernel& cfg) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_[key.canonical()] = cfg;
}

std::string TuningCache::serialize() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << kMagic << " " << kSchemaVersion << "\n";
  os << "fingerprint " << fingerprint_ << "\n";
  for (const auto& [key, c] : entries_) {
    os << "entry " << key << " " << c.tile.bm << " " << c.tile.bn << " "
       << c.tile.bk << " " << c.tile.warp_rows << " " << c.tile.warp_cols
       << " " << c.micro.strip_words << " "
       << static_cast<int>(c.micro.staging) << " "
       << static_cast<int>(c.micro.sparse_staging) << " "
       << (c.measured ? 1 : 0) << " "
       << c.measured_ms << "\n";
  }
  return os.str();
}

bool TuningCache::deserialize(const std::string& text, bool any_fingerprint) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  fingerprint_ = hardware_fingerprint(pool_threads_);
  std::istringstream is(text);

  std::string magic;
  int version = 0;
  if (!(is >> magic >> version) || magic != kMagic ||
      version != kSchemaVersion) {
    return false;
  }
  std::string tag, fp;
  if (!(is >> tag >> fp) || tag != "fingerprint") return false;
  if (!any_fingerprint && fp != hardware_fingerprint(pool_threads_)) {
    return false;
  }
  fingerprint_ = fp;

  std::map<std::string, TunedKernel> loaded;
  while (is >> tag) {
    if (tag != "entry") {
      entries_.clear();
      return false;
    }
    std::string key;
    TunedKernel c;
    int staging = 0, sparse = 0, measured = 0;
    if (!(is >> key >> c.tile.bm >> c.tile.bn >> c.tile.bk >>
          c.tile.warp_rows >> c.tile.warp_cols >> c.micro.strip_words >>
          staging >> sparse >> measured >> c.measured_ms)) {
      entries_.clear();
      return false;
    }
    // A corrupt or hand-edited entry must be rejected here, not discovered
    // as a SIGFPE (warp_rows=0 in the profile math) or a silently
    // pathological tiling at run time.
    const bool sane =
        c.tile.bm >= 1 && c.tile.bm <= 4096 && c.tile.bn >= 1 &&
        c.tile.bn <= 4096 && c.tile.bk >= 1 && c.tile.bk <= 4096 &&
        c.tile.warp_rows >= 1 && c.tile.warp_rows <= 64 &&
        c.tile.warp_cols >= 1 && c.tile.warp_cols <= 64 &&
        c.micro.strip_words >= 0 && c.micro.strip_words <= (1 << 20) &&
        staging >= 0 &&
        staging <=
            static_cast<int>(microkernel::MicroConfig::Staging::kRowMajor) &&
        sparse >= 0 &&
        sparse <= static_cast<int>(microkernel::MicroConfig::Sparse::kOff);
    if (!sane) {
      entries_.clear();
      return false;
    }
    c.micro.staging =
        static_cast<microkernel::MicroConfig::Staging>(staging);
    c.micro.sparse_staging =
        static_cast<microkernel::MicroConfig::Sparse>(sparse);
    c.measured = measured != 0;
    loaded[key] = c;
  }
  entries_ = std::move(loaded);
  return true;
}

bool TuningCache::load_file(const std::string& path, bool any_fingerprint) {
  std::ifstream f(path);
  if (!f) return false;
  std::ostringstream os;
  os << f.rdbuf();
  return deserialize(os.str(), any_fingerprint);
}

bool TuningCache::save_file(const std::string& path) const {
  // Write-temp-then-rename: a crash (or injected fault) mid-write can only
  // ever leave a stray .tmp behind, never a truncated cache at `path` — and
  // a truncated cache would silently cost a full cold re-tune on next load.
  // rename(2) is atomic within a filesystem, and the temp lives next to the
  // destination precisely so it is on the same filesystem.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp);
    if (!f) return false;
    f << serialize();
    if (!f) {
      std::remove(tmp.c_str());
      return false;
    }
  }
  try {
    faultinject::point(faultinject::kCacheSave);
  } catch (...) {
    std::remove(tmp.c_str());
    throw;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

// --- Autotuner --------------------------------------------------------------

Autotuner::Autotuner(const tcsim::DeviceSpec& dev, TuningCache* cache,
                     const AutotuneOptions& opts, ThreadPool* pool)
    : dev_(dev), cache_(cache), opts_(opts), pool_(pool) {
  APNN_CHECK(opts_.reps >= 1);
  APNN_CHECK(opts_.max_tile_candidates >= 1);
}

std::vector<TunedKernel> Autotuner::candidates(std::int64_t m, std::int64_t n,
                                               std::int64_t k, int p,
                                               int q) const {
  const std::vector<TileConfig> tiles =
      ranked_tiles(m, n, k, p, q, dev_, opts_.max_tile_candidates);
  std::vector<TunedKernel> out;
  out.reserve(tiles.size() + 5);
  for (const TileConfig& t : tiles) {
    TunedKernel c;
    c.tile = t;
    out.push_back(c);
  }
  if (opts_.explore_micro) {
    // Micro variants of the heuristic tile. Strip depths that the k extent
    // collapses to the default are skipped (identical execution). Copied by
    // value: the push_backs below may reallocate `out`.
    const TileConfig head = out.front().tile;
    const std::int64_t row_words = bitops::padded_words(k);
    if (row_words > 16) {
      TunedKernel c;
      c.tile = head;
      c.micro.strip_words = 16;
      out.push_back(c);
    }
    if (row_words > microkernel::kStripWords) {
      TunedKernel c;
      c.tile = head;
      c.micro.strip_words = 2 * microkernel::kStripWords;
      out.push_back(c);
    }
    if (microkernel::kHasRowBlockKernel) {
      TunedKernel c;
      c.tile = head;
      c.micro.staging = microkernel::MicroConfig::Staging::kRowMajor;
      out.push_back(c);
    }
    // Sparse-staging variants of the heuristic tile: kOff strips the
    // occupancy build entirely, kOn forces the skip kernels past the
    // density gate. The head candidate's kAuto default sits between them,
    // so the measurement decides per stage whether occupancy pays.
    {
      TunedKernel c;
      c.tile = head;
      c.micro.sparse_staging = microkernel::MicroConfig::Sparse::kOff;
      out.push_back(c);
    }
    {
      TunedKernel c;
      c.tile = head;
      c.micro.sparse_staging = microkernel::MicroConfig::Sparse::kOn;
      out.push_back(c);
    }
  }
  return out;
}

template <typename RunFn>
TunedKernel Autotuner::measure(const StageKey& key,
                               std::vector<TunedKernel> cands, RunFn&& run,
                               std::vector<Candidate>* trace) {
  TunedKernel best;
  double best_ms = std::numeric_limits<double>::infinity();
  for (TunedKernel& c : cands) {
    run(c);  // warm-up: grows arenas and sinks so timed reps are steady-state
    ++measurement_runs_;
    double ms = std::numeric_limits<double>::infinity();
    for (int r = 0; r < opts_.reps; ++r) {
      WallTimer t;
      run(c);
      ms = std::min(ms, t.millis());
      ++measurement_runs_;
    }
    c.measured_ms = ms;
    c.measured = true;
    if (trace != nullptr) trace->push_back({c});
    // Strict < : ties keep the earlier (more heuristic-preferred) candidate,
    // so a tuned plan is never a lateral move away from the heuristic.
    if (ms < best_ms) {
      best_ms = ms;
      best = c;
    }
  }
  if (cache_ != nullptr) cache_->insert(key, best);
  return best;
}

TunedKernel Autotuner::tune_apmm(const ApOperand& w, std::int64_t n,
                                 int q_bits, Encoding x_enc,
                                 const Epilogue& epi, std::int64_t seq,
                                 std::vector<Candidate>* trace) {
  const StageKey key = make_mm_key(w, n, q_bits, x_enc, epi, seq);
  TunedKernel cached;
  if (cache_ != nullptr && cache_->lookup(key, &cached)) {
    ++cache_hits_;
    if (trace != nullptr) trace->push_back({cached});
    return cached;
  }

  // Synthetic feature operand at the stage's exact geometry: the weight
  // operand is the real one, so staging, window shapes, and combine cost are
  // what the plan will actually run. Values are irrelevant to wall time
  // (branch-free kernels); the seed is fixed for reproducibility.
  ApOperand x;
  x.encoding = x_enc;
  x.planes.reset_shape(n, w.cols(), q_bits);
  Rng rng(0x9e3779b97f4a7c15ull);
  for (int t = 0; t < q_bits; ++t) {
    x.planes.planes[static_cast<std::size_t>(t)].randomize(rng);
    sparsify_plane(x.planes.planes[static_cast<std::size_t>(t)],
                   opts_.synth_zero_frac, rng);
  }

  return measure(
      key, candidates(w.rows(), n, w.cols(), w.bits(), q_bits),
      [&](const TunedKernel& c) {
        ApmmOptions o;
        o.autotune = false;
        o.tile = c.tile;
        o.micro = c.micro;
        o.collect_profile = false;
        o.pool = pool_;
        if (epi.has_quant) {
          o.packed_out = &scratch_planes_;
        } else {
          o.y_out = &scratch_y_;
        }
        apmm(w, x, dev_, o, epi);
      },
      trace);
}

TunedKernel Autotuner::tune_apconv(const ApOperand& w,
                                   const layout::ConvGeometry& g, int q_bits,
                                   Encoding x_enc, const Epilogue& epi,
                                   const PoolSpec& pool,
                                   std::vector<Candidate>* trace) {
  const StageKey key = make_conv_key(w, g, q_bits, x_enc, epi, pool);
  TunedKernel cached;
  if (cache_ != nullptr && cache_->lookup(key, &cached)) {
    ++cache_hits_;
    if (trace != nullptr) trace->push_back({cached});
    return cached;
  }

  layout::PackedActivations x;
  x.reset_shape(g.batch, g.in_h, g.in_w, g.in_c, q_bits);
  Rng rng(0xbf58476d1ce4e5b9ull);
  for (int t = 0; t < q_bits; ++t) {
    x.planes[static_cast<std::size_t>(t)].randomize(rng);
    sparsify_plane(x.planes[static_cast<std::size_t>(t)],
                   opts_.synth_zero_frac, rng);
  }

  return measure(
      key, candidates(g.gemm_m(), g.gemm_n(), g.gemm_k(), w.bits(), q_bits),
      [&](const TunedKernel& c) {
        ApconvOptions o;
        o.autotune = false;
        o.tile = c.tile;
        o.micro = c.micro;
        o.collect_profile = false;
        o.pool = pool_;
        if (epi.has_quant) {
          o.packed_out = &scratch_packed_;
        } else {
          o.y_out = &scratch_y_;
        }
        apconv(w, x, x_enc, g, dev_, o, epi, pool);
      },
      trace);
}

}  // namespace apnn::core
