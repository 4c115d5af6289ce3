#include <gtest/gtest.h>

#include <tuple>

#include "src/bitops/decompose.hpp"
#include "src/core/apmm.hpp"
#include "src/tcsim/cost_model.hpp"
#include "test_util.hpp"

namespace apnn::core {
namespace {

using apnn::testing::naive_gemm;
using apnn::testing::random_logical;

const tcsim::DeviceSpec& dev() { return tcsim::rtx3090(); }

struct MmCase {
  Encoding w_enc;
  int p;
  Encoding x_enc;
  int q;
  std::int64_t m, n, k;
};

class ApmmCorrectness : public ::testing::TestWithParam<MmCase> {};

TEST_P(ApmmCorrectness, MatchesNaiveGemm) {
  const MmCase c = GetParam();
  Rng rng(static_cast<std::uint64_t>(c.m * 31 + c.n * 7 + c.k + c.p + c.q));
  const auto wl = random_logical(rng, c.m, c.k, c.w_enc, c.p);
  const auto xl = random_logical(rng, c.n, c.k, c.x_enc, c.q);
  const ApOperand w = make_operand(wl, c.w_enc, c.p);
  const ApOperand x = make_operand(xl, c.x_enc, c.q);
  const ApmmResult r = apmm(w, x, dev());
  EXPECT_EQ(r.y, naive_gemm(wl, xl));
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ApmmCorrectness,
    ::testing::Values(
        // w1a2 — the headline configuration (Case III).
        MmCase{Encoding::kSignedPM1, 1, Encoding::kUnsigned01, 2, 64, 128,
               128},
        // Larger-than-tile shapes, ragged in every dimension.
        MmCase{Encoding::kSignedPM1, 1, Encoding::kUnsigned01, 2, 130, 70,
               300},
        MmCase{Encoding::kSignedPM1, 1, Encoding::kUnsigned01, 3, 65, 129,
               257},
        MmCase{Encoding::kSignedPM1, 1, Encoding::kUnsigned01, 8, 40, 40,
               512},
        // Case I multi-bit weights.
        MmCase{Encoding::kUnsigned01, 2, Encoding::kUnsigned01, 2, 96, 96,
               256},
        MmCase{Encoding::kUnsigned01, 3, Encoding::kUnsigned01, 5, 33, 47,
               129},
        MmCase{Encoding::kUnsigned01, 5, Encoding::kUnsigned01, 1, 64, 64,
               128},
        MmCase{Encoding::kUnsigned01, 6, Encoding::kUnsigned01, 2, 24, 100,
               140},
        MmCase{Encoding::kUnsigned01, 4, Encoding::kUnsigned01, 4, 64, 64,
               1024},
        // Case II (BNN).
        MmCase{Encoding::kSignedPM1, 1, Encoding::kSignedPM1, 1, 100, 90,
               333},
        // Two's complement extension.
        MmCase{Encoding::kTwosComplement, 4, Encoding::kUnsigned01, 4, 50,
               60, 200},
        // Tiny shapes (single tile, single output).
        MmCase{Encoding::kSignedPM1, 1, Encoding::kUnsigned01, 2, 1, 1, 1},
        MmCase{Encoding::kUnsigned01, 2, Encoding::kUnsigned01, 2, 3, 2, 5}));

TEST(Apmm, MatchesReferenceImplementation) {
  Rng rng(77);
  const auto wl = random_logical(rng, 45, 200, Encoding::kSignedPM1, 1);
  const auto xl = random_logical(rng, 61, 200, Encoding::kUnsigned01, 3);
  const ApOperand w = make_operand(wl, Encoding::kSignedPM1, 1);
  const ApOperand x = make_operand(xl, Encoding::kUnsigned01, 3);
  EXPECT_EQ(apmm(w, x, dev()).y, ap_gemm_reference(w, x));
}

// --- option toggles preserve results, change traffic ---------------------------

struct Operands {
  Tensor<std::int32_t> wl, xl;
  ApOperand w, x;
};

Operands sample_operands(std::uint64_t seed, std::int64_t m = 64,
                         std::int64_t n = 256, std::int64_t k = 256,
                         int p = 1, int q = 2) {
  Rng rng(seed);
  Operands o;
  const Encoding we = p == 1 ? Encoding::kSignedPM1 : Encoding::kUnsigned01;
  o.wl = random_logical(rng, m, k, we, p);
  o.xl = random_logical(rng, n, k, Encoding::kUnsigned01, q);
  o.w = make_operand(o.wl, we, p);
  o.x = make_operand(o.xl, Encoding::kUnsigned01, q);
  return o;
}

TEST(ApmmOptions, NoBatchingSameResultMoreLaunches) {
  const Operands o = sample_operands(1, 48, 96, 256, 2, 2);
  ApmmOptions batched, naive;
  naive.batch_planes = false;
  const ApmmResult rb = apmm(o.w, o.x, dev(), batched);
  const ApmmResult rn = apmm(o.w, o.x, dev(), naive);
  EXPECT_EQ(rb.y, rn.y);
  EXPECT_EQ(rb.profile.kernels.size(), 1u);
  EXPECT_EQ(rn.profile.kernels.size(), 5u);  // p*q BMMAs + combine
  EXPECT_GT(rn.profile.total_counters().total_global_bytes(),
            rb.profile.total_counters().total_global_bytes());
}

TEST(ApmmOptions, NoDoubleCachingSameResultMoreGlobalTraffic) {
  const Operands o = sample_operands(2);
  ApmmOptions cached, uncached;
  uncached.double_caching = false;
  const ApmmResult rc = apmm(o.w, o.x, dev(), cached);
  const ApmmResult ru = apmm(o.w, o.x, dev(), uncached);
  EXPECT_EQ(rc.y, ru.y);
  EXPECT_GT(ru.profile.total_counters().global_load_bytes,
            rc.profile.total_counters().global_load_bytes);
}

TEST(ApmmOptions, NoFragmentCachingSameResultMoreSharedTraffic) {
  const Operands o = sample_operands(3);
  ApmmOptions frag, nofrag;
  nofrag.fragment_caching = false;
  const ApmmResult rf = apmm(o.w, o.x, dev(), frag);
  const ApmmResult rn = apmm(o.w, o.x, dev(), nofrag);
  EXPECT_EQ(rf.y, rn.y);
  EXPECT_GT(rn.profile.total_counters().total_shared_bytes(),
            rf.profile.total_counters().total_shared_bytes());
}

TEST(ApmmOptions, NonSemanticAwareSpillsPartialsToGlobal) {
  const Operands o = sample_operands(4);
  ApmmOptions sem, nonsem;
  nonsem.semantic_aware = false;
  const ApmmResult rs = apmm(o.w, o.x, dev(), sem);
  const ApmmResult rn = apmm(o.w, o.x, dev(), nonsem);
  EXPECT_EQ(rs.y, rn.y);
  EXPECT_EQ(rn.profile.kernels.size(), 2u);  // main + combine
  EXPECT_GT(rn.profile.total_counters().global_store_bytes,
            rs.profile.total_counters().global_store_bytes);
}

TEST(ApmmOptions, DimensionOnlyProfileMatchesFullCounters) {
  const Operands o = sample_operands(5, 70, 140, 384, 2, 3);
  ApmmOptions opts;
  for (bool sem : {true, false}) {
    opts.semantic_aware = sem;
    const ApmmResult rf = apmm(o.w, o.x, dev(), opts);
    const tcsim::SequenceProfile rp =
        apmm_profile(o.w.rows(), o.x.rows(), o.w.cols(), o.w.bits(),
                     o.x.bits(), {o.w.encoding, o.x.encoding}, dev(), opts);
    ASSERT_EQ(rf.profile.kernels.size(), rp.kernels.size());
    const auto cf = rf.profile.total_counters();
    const auto cp = rp.total_counters();
    EXPECT_EQ(cf.total_global_bytes(), cp.total_global_bytes());
    EXPECT_EQ(cf.total_shared_bytes(), cp.total_shared_bytes());
    EXPECT_EQ(cf.bmma_b1, cp.bmma_b1);
    EXPECT_EQ(cf.total_alu_ops(), cp.total_alu_ops());
  }
}

TEST(ApmmOptions, FixedTileOverridesAutotune) {
  const Operands o = sample_operands(6);
  ApmmOptions opts;
  opts.autotune = false;
  opts.tile.bm = 32;
  opts.tile.bn = 32;
  const ApmmResult r = apmm(o.w, o.x, dev(), opts);
  EXPECT_EQ(r.tile.bm, 32);
  EXPECT_EQ(r.tile.bn, 32);
  EXPECT_EQ(r.y, naive_gemm(o.wl, o.xl));
}

TEST(Apmm, BmmaCountMatchesEmulationCost) {
  // p*q planes: the bmma issue count must scale with p*q (the paper's
  // "w2a8 needs 16 1-bit matrices" arithmetic, §6.2).
  const Operands o12 = sample_operands(7, 64, 64, 512, 1, 2);
  const Operands o28 = sample_operands(8, 64, 64, 512, 2, 8);
  ApmmOptions opts;
  opts.autotune = false;  // same tile so the grids are comparable
  opts.tile.bm = 32;
  opts.tile.bn = 32;
  const auto c12 = apmm(o12.w, o12.x, dev(), opts).profile.total_counters();
  const auto c28 = apmm(o28.w, o28.x, dev(), opts).profile.total_counters();
  EXPECT_NEAR(static_cast<double>(c28.bmma_b1) / c12.bmma_b1, 8.0, 0.2);
}

// --- fused epilogue -------------------------------------------------------------

TEST(ApmmEpilogue, ReluClampsNegative) {
  const Operands o = sample_operands(9, 32, 32, 128, 1, 2);
  Epilogue epi;
  epi.has_relu = true;
  const ApmmResult r = apmm(o.w, o.x, dev(), {}, epi);
  const Tensor<std::int32_t> ref = naive_gemm(o.wl, o.xl);
  for (std::int64_t i = 0; i < ref.numel(); ++i) {
    EXPECT_EQ(r.y[i], std::max(ref[i], 0));
  }
}

TEST(ApmmEpilogue, BatchNormAppliesPerChannel) {
  const Operands o = sample_operands(10, 16, 24, 128, 1, 2);
  Epilogue epi;
  epi.has_bn = true;
  epi.bn.scale.assign(16, 2.0f);
  epi.bn.bias.assign(16, 10.0f);
  epi.bn.scale[3] = -1.0f;
  const ApmmResult r = apmm(o.w, o.x, dev(), {}, epi);
  const Tensor<std::int32_t> ref = naive_gemm(o.wl, o.xl);
  for (std::int64_t m = 0; m < 16; ++m) {
    for (std::int64_t n = 0; n < 24; ++n) {
      const float scale = m == 3 ? -1.f : 2.f;
      EXPECT_EQ(r.y(m, n),
                static_cast<std::int32_t>(ref(m, n) * scale + 10.f));
    }
  }
}

TEST(ApmmEpilogue, QuantizedOutputPacksTransposed) {
  const Operands o = sample_operands(11, 20, 30, 256, 1, 2);
  Epilogue epi;
  epi.has_relu = true;
  epi.has_quant = true;
  epi.quant.bits = 2;
  epi.quant.scale = 16.0;
  epi.quant.zero_point = 0.0;
  const ApmmResult r = apmm(o.w, o.x, dev(), {}, epi);
  EXPECT_EQ(r.y.numel(), 0);
  EXPECT_EQ(r.packed.rows, 30);  // N x M, ready for the next layer
  EXPECT_EQ(r.packed.cols, 20);
  EXPECT_EQ(r.packed.bits, 2);
  const Tensor<std::int32_t> ref = naive_gemm(o.wl, o.xl);
  const std::vector<std::int32_t> codes = bitops::recompose(r.packed);
  for (std::int64_t m = 0; m < 20; ++m) {
    for (std::int64_t n = 0; n < 30; ++n) {
      const std::int32_t expect = quant::quantize_value(
          static_cast<float>(std::max(ref(m, n), 0)), epi.quant);
      EXPECT_EQ(codes[static_cast<std::size_t>(n * 20 + m)], expect)
          << m << "," << n;
    }
  }
}

TEST(ApmmEpilogue, PackedOutputSmallerThanInt32Store) {
  const Operands o = sample_operands(12, 64, 256, 256, 1, 2);
  Epilogue quant_epi;
  quant_epi.has_quant = true;
  quant_epi.quant.bits = 2;
  quant_epi.quant.scale = 64;
  const auto c32 = apmm(o.w, o.x, dev(), {}).profile.total_counters();
  const auto cq =
      apmm(o.w, o.x, dev(), {}, quant_epi).profile.total_counters();
  // Minimal-traffic dataflow: 2-bit stores are 16x smaller than 32-bit.
  EXPECT_LT(cq.global_store_bytes, c32.global_store_bytes / 8);
}

// --- cost-model integration -----------------------------------------------------

TEST(ApmmCost, BatchingImprovesModeledLatencyOnSmallGemm) {
  // The §4.1a claim: batching many small BMMAs into one launch beats
  // independent launches (launch overhead + utilization).
  const Operands o = sample_operands(13, 64, 256, 256, 2, 2);
  ApmmOptions batched, naive;
  naive.batch_planes = false;
  const tcsim::CostModel cm(dev());
  const double tb = cm.estimate(apmm(o.w, o.x, dev(), batched).profile).total_us;
  const double tn = cm.estimate(apmm(o.w, o.x, dev(), naive).profile).total_us;
  EXPECT_LT(tb, tn);
}

TEST(ApmmCost, SemanticAwareCombinationFasterThanSeparateKernel) {
  const Operands o = sample_operands(14, 64, 512, 512, 1, 2);
  ApmmOptions sem, nonsem;
  nonsem.semantic_aware = false;
  const tcsim::CostModel cm(dev());
  const double ts = cm.estimate(apmm(o.w, o.x, dev(), sem).profile).total_us;
  const double tn =
      cm.estimate(apmm(o.w, o.x, dev(), nonsem).profile).total_us;
  EXPECT_LT(ts, tn);
}

TEST(DecomposeProfile, ScalesWithBits) {
  const auto p2 = decompose_profile(1024, 256, 2, 1.0);
  const auto p8 = decompose_profile(1024, 256, 8, 1.0);
  EXPECT_EQ(p8.counters.global_store_bytes, 4 * p2.counters.global_store_bytes);
  EXPECT_EQ(p8.counters.alu_decompose_ops, 4 * p2.counters.alu_decompose_ops);
  EXPECT_EQ(p2.counters.global_load_bytes, 1024 * 256);
}

}  // namespace
}  // namespace apnn::core
