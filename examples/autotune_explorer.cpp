// Domain example: the §4.3 performance model as a candidate pruner for the
// real empirical autotuner.
//
// For a given GEMM problem this prints two views side by side:
//   1. the full bm x bn candidate grid with TLP (Eq. 3), CI (Eq. 4) and the
//      *modeled* device latency, marking the §4.3.2 heuristic pick;
//   2. the pruned candidate set core::Autotuner actually *measures* on this
//      host — tile + microkernel knobs with wall-clock times — and the
//      winner it would bake into an InferenceSession plan.
// Comparing the two columns shows why the plan is tuned by measurement: the
// occupancy model ranks device tiles, but host wall time also moves with
// SIMD lane utilization and k-strip cache footprint, which only a
// measurement sees.
//
//   build/examples/autotune_explorer [M N K p q]
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "src/common/strings.hpp"
#include "src/core/apmm.hpp"
#include "src/core/autotune.hpp"
#include "src/core/perf_model.hpp"
#include "src/tcsim/cost_model.hpp"

using namespace apnn;

int main(int argc, char** argv) {
  std::int64_t m = 64, n = 512, k = 512;
  int p = 1, q = 2;
  if (argc == 6) {
    m = std::atoll(argv[1]);
    n = std::atoll(argv[2]);
    k = std::atoll(argv[3]);
    p = std::atoi(argv[4]);
    q = std::atoi(argv[5]);
  }
  const auto& dev = tcsim::rtx3090();
  const tcsim::CostModel cm(dev);
  const core::EncodingConfig enc{
      p == 1 ? core::Encoding::kSignedPM1 : core::Encoding::kUnsigned01,
      core::Encoding::kUnsigned01};

  std::printf("APMM-w%da%d, %ldx%ldx%ld on %s (TLP threshold 64)\n\n", p, q,
              m, n, k, dev.name.c_str());
  std::printf("-- modeled candidate grid (perf_model) --\n");
  std::printf("%-10s %10s %8s %10s %12s\n", "tile", "TLP", "CI", "shmem",
              "latency");

  const core::TuneResult chosen = core::autotune_tile(m, n, k, p, q, dev);
  for (int bm : {16, 32, 64, 128}) {
    for (int bn : {16, 32, 64, 128}) {
      core::TileConfig t;
      t.bm = bm;
      t.bn = bn;
      core::assign_warp_grid(t);
      if (t.shmem_bytes() > dev.shmem_per_sm) {
        std::printf("%-10s %10s\n", strf("%dx%d", bm, bn).c_str(),
                    "(exceeds shared memory)");
        continue;
      }
      core::ApmmOptions opts;
      opts.autotune = false;
      opts.tile = t;
      const double us =
          cm.estimate(core::apmm_profile(m, n, k, p, q, enc, dev, opts))
              .total_us;
      const bool is_chosen = bm == chosen.tile.bm && bn == chosen.tile.bn;
      std::printf("%-10s %10.1f %8.1f %9.1fK %10.2fus %s\n",
                  strf("%dx%d", bm, bn).c_str(),
                  core::tlp(m, n, p, q, t), core::compute_intensity(t),
                  t.shmem_bytes() / 1024.0, us,
                  is_chosen ? "  <-- heuristic pick" : "");
    }
  }

  // The empirical side: a real weight operand at the problem geometry, the
  // pruned candidate sweep, actual wall-clock per candidate.
  std::printf("\n-- measured candidates (core::Autotuner, this host) --\n");
  core::ApOperand w;
  w.encoding = enc.w;
  w.planes.reset_shape(m, k, p);
  Rng rng(7);
  for (int s = 0; s < p; ++s) {
    w.planes.planes[static_cast<std::size_t>(s)].randomize(rng);
  }
  core::TuningCache cache;
  core::AutotuneOptions topts;
  topts.reps = 3;
  core::Autotuner tuner(dev, &cache, topts);
  std::vector<core::Autotuner::Candidate> trace;
  const core::TunedKernel winner =
      tuner.tune_apmm(w, n, q, enc.x, core::Epilogue{}, /*seq=*/0, &trace);

  std::printf("%-10s %8s %9s %6s %12s\n", "tile", "strip", "staging",
              "sparse", "wall");
  for (const auto& c : trace) {
    const char* staging =
        c.cfg.micro.staging ==
                core::microkernel::MicroConfig::Staging::kRowMajor
            ? "rowmajor"
            : "auto";
    std::printf("%-10s %8lld %9s %6d %10.3fms %s\n",
                strf("%dx%d", c.cfg.tile.bm, c.cfg.tile.bn).c_str(),
                static_cast<long long>(c.cfg.micro.effective_strip()),
                staging, static_cast<int>(c.cfg.micro.sparse_staging),
                c.cfg.measured_ms,
                c.cfg.same_config(winner) ? "  <-- measured winner" : "");
  }
  std::printf("\nheuristic proposes (ranked by TLP, then CI — §4.3.2); the\n"
              "autotuner measures the pruned set on the real operands and\n"
              "bakes the winner into the session plan. %lld measurement\n"
              "runs; a warm TuningCache replays the winner with zero runs.\n",
              static_cast<long long>(tuner.measurement_runs()));
  return 0;
}
