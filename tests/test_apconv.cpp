#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "src/baselines/conv.hpp"
#include "src/core/apconv.hpp"
#include "src/layout/im2col.hpp"
#include "src/tcsim/cost_model.hpp"
#include "test_util.hpp"

namespace apnn::core {
namespace {

using apnn::testing::random_logical;

const tcsim::DeviceSpec& dev() { return tcsim::rtx3090(); }

layout::ConvGeometry geom(std::int64_t batch, std::int64_t cin,
                          std::int64_t hw, std::int64_t cout, int kernel,
                          int stride, int pad) {
  layout::ConvGeometry g;
  g.batch = batch;
  g.in_c = cin;
  g.in_h = hw;
  g.in_w = hw;
  g.out_c = cout;
  g.kernel = kernel;
  g.stride = stride;
  g.pad = pad;
  return g;
}

struct ConvSetup {
  Tensor<std::int32_t> x_logical;  // NHWC
  Tensor<std::int32_t> w_ohwi;
  ApOperand w;
  layout::PackedActivations x;
  Encoding x_enc;
};

ConvSetup make_setup(const layout::ConvGeometry& g, Encoding w_enc, int p,
                     Encoding x_enc, int q, std::uint64_t seed) {
  Rng rng(seed);
  ConvSetup s;
  s.x_enc = x_enc;
  Tensor<std::int32_t> x({g.batch, g.in_h, g.in_w, g.in_c});
  if (x_enc == Encoding::kSignedPM1) {
    for (std::int64_t i = 0; i < x.numel(); ++i) {
      x[i] = rng.bernoulli(0.5) ? 1 : -1;
    }
  } else {
    x.randomize(rng, 0, (1 << q) - 1);
  }
  s.x_logical = x;
  // Pack the *codes* (±1 encoded as 0/1) channel-major.
  Tensor<std::int32_t> codes(x.shape());
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    codes[i] = encode_value(x_enc, q, x[i]);
  }
  s.x = layout::pack_activations(codes, layout::DenseLayout::kNHWC, q);

  s.w_ohwi = Tensor<std::int32_t>({g.out_c, g.kernel, g.kernel, g.in_c});
  const ValueRange r = encoding_range(w_enc, p);
  for (std::int64_t i = 0; i < s.w_ohwi.numel(); ++i) {
    s.w_ohwi[i] = w_enc == Encoding::kSignedPM1
                      ? (rng.bernoulli(0.5) ? 1 : -1)
                      : static_cast<std::int32_t>(rng.uniform_int(r.lo, r.hi));
  }
  s.w = make_conv_weights(s.w_ohwi, w_enc, p);
  return s;
}

struct ConvCase {
  Encoding w_enc;
  int p;
  Encoding x_enc;
  int q;
  std::int64_t batch, cin, hw, cout;
  int kernel, stride, pad;
};

class ApconvCorrectness : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ApconvCorrectness, MatchesDirectConvolution) {
  const ConvCase c = GetParam();
  const layout::ConvGeometry g =
      geom(c.batch, c.cin, c.hw, c.cout, c.kernel, c.stride, c.pad);
  const ConvSetup s =
      make_setup(g, c.w_enc, c.p, c.x_enc, c.q,
                 static_cast<std::uint64_t>(c.p * 100 + c.q * 10 + c.hw));
  const ApconvResult r = apconv(s.w, s.x, c.x_enc, g, dev());
  const Tensor<std::int32_t> ref =
      conv2d_reference(s.x_logical, s.w_ohwi, g);
  EXPECT_EQ(r.y, ref);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ApconvCorrectness,
    ::testing::Values(
        // Case III (w1aX) across kernel geometries.
        ConvCase{Encoding::kSignedPM1, 1, Encoding::kUnsigned01, 2, 2, 8, 8,
                 12, 3, 1, 1},
        ConvCase{Encoding::kSignedPM1, 1, Encoding::kUnsigned01, 2, 1, 16,
                 10, 8, 5, 1, 2},
        ConvCase{Encoding::kSignedPM1, 1, Encoding::kUnsigned01, 3, 2, 4, 9,
                 6, 3, 2, 1},
        ConvCase{Encoding::kSignedPM1, 1, Encoding::kUnsigned01, 2, 1, 8, 6,
                 4, 1, 1, 0},
        // Case I multi-bit.
        ConvCase{Encoding::kUnsigned01, 2, Encoding::kUnsigned01, 2, 2, 8, 8,
                 8, 3, 1, 1},
        ConvCase{Encoding::kUnsigned01, 3, Encoding::kUnsigned01, 4, 1, 8, 7,
                 5, 3, 1, 1},
        // Case II (BNN conv) — exercises pad-1 + counter amendment.
        ConvCase{Encoding::kSignedPM1, 1, Encoding::kSignedPM1, 1, 2, 8, 8,
                 8, 3, 1, 1},
        ConvCase{Encoding::kSignedPM1, 1, Encoding::kSignedPM1, 1, 1, 16, 9,
                 4, 5, 1, 2},
        ConvCase{Encoding::kSignedPM1, 1, Encoding::kSignedPM1, 1, 1, 4, 6,
                 4, 3, 2, 1},
        // Two's complement weights.
        ConvCase{Encoding::kTwosComplement, 3, Encoding::kUnsigned01, 2, 1,
                 8, 8, 6, 3, 1, 1},
        // Wide activations (q > 8): regression for the fused-tail
        // multiplier table bound.
        ConvCase{Encoding::kUnsigned01, 2, Encoding::kUnsigned01, 9, 1, 4,
                 6, 5, 3, 1, 1},
        // No padding at all (padding logic must be a no-op).
        ConvCase{Encoding::kSignedPM1, 1, Encoding::kSignedPM1, 1, 1, 8, 8,
                 4, 3, 1, 0}));

// --- fused (im2col-free) lowering vs materialized goldens ------------------
//
// The fused path window-gathers patch-row k-strips straight from the packed
// feature map; these tests pin it, across every emulation case x stride x
// pad x pool on deliberately non-tile-aligned oh*ow, against two
// independently materialized goldens: the direct convolution and the
// im2col_dense patch-matrix GEMM (plus the int8 implicit-GEMM baseline
// where the value range allows).

using apnn::testing::conv_via_im2col_dense;

/// Reference max pooling of an NHWC tensor (window == stride == size).
Tensor<std::int32_t> maxpool_nhwc(const Tensor<std::int32_t>& x, int size) {
  const std::int64_t b = x.dim(0), h = x.dim(1), w = x.dim(2), c = x.dim(3);
  Tensor<std::int32_t> y({b, h / size, w / size, c});
  for (std::int64_t n = 0; n < b; ++n) {
    for (std::int64_t py = 0; py < h / size; ++py) {
      for (std::int64_t px = 0; px < w / size; ++px) {
        for (std::int64_t ch = 0; ch < c; ++ch) {
          std::int32_t agg = INT32_MIN;
          for (int dy = 0; dy < size; ++dy) {
            for (int dx = 0; dx < size; ++dx) {
              agg = std::max(agg,
                             x(n, py * size + dy, px * size + dx, ch));
            }
          }
          y(n, py, px, ch) = agg;
        }
      }
    }
  }
  return y;
}

struct FusedCase {
  Encoding w_enc;
  int p;
  Encoding x_enc;
  int q;
  int stride;
  int pad;
  bool pool;
};

class ApconvFusedLowering : public ::testing::TestWithParam<FusedCase> {};

TEST_P(ApconvFusedLowering, MatchesMaterializedGoldens) {
  const FusedCase c = GetParam();
  // hw chosen per (stride, pad) so oh = ow is even (poolable) while
  // batch*oh*ow stays off every tile boundary.
  std::int64_t hw = 0;
  if (c.stride == 1) {
    hw = c.pad == 1 ? 10 : 12;  // oh = 10
  } else {
    hw = c.pad == 1 ? 11 : 13;  // oh = 6
  }
  const layout::ConvGeometry g = geom(2, 5, hw, 9, 3, c.stride, c.pad);
  ASSERT_EQ(g.out_h() % 2, 0);
  const ConvSetup s = make_setup(
      g, c.w_enc, c.p, c.x_enc, c.q,
      static_cast<std::uint64_t>(c.p * 1000 + c.q * 100 + c.stride * 10 +
                                 c.pad + (c.pool ? 7 : 0)));

  // Two independent materialized goldens must agree with each other.
  const Tensor<std::int32_t> ref = conv2d_reference(s.x_logical, s.w_ohwi, g);
  ASSERT_EQ(conv_via_im2col_dense(s.x_logical, s.w_ohwi, g), ref);
  if (c.p <= 7 && c.q <= 7) {
    // Third, fully independent pin: the int8 implicit-GEMM baseline.
    Tensor<std::int8_t> x8({g.batch, g.in_h, g.in_w, g.in_c});
    Tensor<std::int8_t> w8({g.out_c, g.kernel, g.kernel, g.in_c});
    for (std::int64_t i = 0; i < x8.numel(); ++i) {
      x8[i] = static_cast<std::int8_t>(s.x_logical[i]);
    }
    for (std::int64_t i = 0; i < w8.numel(); ++i) {
      w8[i] = static_cast<std::int8_t>(s.w_ohwi[i]);
    }
    ASSERT_EQ(baselines::conv_int8(x8, w8, g), ref);
  }

  PoolSpec pool;
  if (c.pool) {
    pool.kind = PoolSpec::Kind::kMax;
    pool.size = 2;
  }

  // Plain fused conv vs the (optionally pooled) golden.
  {
    const ApconvResult r =
        apconv(s.w, s.x, c.x_enc, g, dev(), {}, {}, pool);
    const Tensor<std::int32_t> want = c.pool ? maxpool_nhwc(ref, 2) : ref;
    ASSERT_EQ(r.y, want)
        << "stride=" << c.stride << " pad=" << c.pad << " pool=" << c.pool;
  }

  // Fused BN -> ReLU tail (applied before pooling, §5.2 composition order).
  {
    Epilogue epi;
    epi.has_bn = true;
    epi.bn.scale.assign(static_cast<std::size_t>(g.out_c), 0.5f);
    epi.bn.bias.assign(static_cast<std::size_t>(g.out_c), -1.0f);
    epi.has_relu = true;
    const ApconvResult r =
        apconv(s.w, s.x, c.x_enc, g, dev(), {}, epi, pool);
    Tensor<std::int32_t> want = ref;
    for (std::int64_t i = 0; i < want.numel(); ++i) {
      const float v = static_cast<float>(want[i]) * 0.5f - 1.0f;
      want[i] = static_cast<std::int32_t>(std::max(v, 0.0f));
    }
    if (c.pool) want = maxpool_nhwc(want, 2);
    ASSERT_EQ(r.y, want)
        << "stride=" << c.stride << " pad=" << c.pad << " pool=" << c.pool;
  }
}

std::vector<FusedCase> fused_cases() {
  const std::tuple<Encoding, int, Encoding, int> encodings[] = {
      {Encoding::kUnsigned01, 2, Encoding::kUnsigned01, 2},      // Case I
      {Encoding::kSignedPM1, 1, Encoding::kSignedPM1, 1},        // Case II
      {Encoding::kSignedPM1, 1, Encoding::kUnsigned01, 3},       // Case III
      {Encoding::kTwosComplement, 3, Encoding::kUnsigned01, 2},  // 2's comp
  };
  std::vector<FusedCase> cases;
  for (const auto& [we, p, xe, q] : encodings) {
    for (int stride : {1, 2}) {
      for (int pad : {0, 1}) {
        for (bool pool : {false, true}) {
          cases.push_back({we, p, xe, q, stride, pad, pool});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllCases, ApconvFusedLowering,
                         ::testing::ValuesIn(fused_cases()));

// The Case-II padding amendment is the trickiest §4.2b path: verify border
// vs interior positions explicitly.
TEST(ApconvPadding, CaseTwoAmendmentExactOnBorders) {
  const layout::ConvGeometry g = geom(1, 8, 6, 4, 3, 1, 1);
  const ConvSetup s = make_setup(g, Encoding::kSignedPM1, 1,
                                 Encoding::kSignedPM1, 1, 99);
  const ApconvResult r = apconv(s.w, s.x, Encoding::kSignedPM1, g, dev());
  const Tensor<std::int32_t> ref =
      conv2d_reference(s.x_logical, s.w_ohwi, g);
  // All positions — including the four corners where 5 of 9 taps pad.
  for (std::int64_t oy = 0; oy < g.out_h(); ++oy) {
    for (std::int64_t ox = 0; ox < g.out_w(); ++ox) {
      for (std::int64_t m = 0; m < g.out_c; ++m) {
        ASSERT_EQ(r.y(0, oy, ox, m), ref(0, oy, ox, m))
            << "pos " << oy << "," << ox << " ch " << m;
      }
    }
  }
}

TEST(ApconvPadding, CaseOnePadsZeroTrivially) {
  const layout::ConvGeometry g = geom(1, 4, 5, 3, 3, 1, 1);
  const ConvSetup s = make_setup(g, Encoding::kUnsigned01, 2,
                                 Encoding::kUnsigned01, 2, 100);
  EXPECT_EQ(apconv(s.w, s.x, Encoding::kUnsigned01, g, dev()).y,
            conv2d_reference(s.x_logical, s.w_ohwi, g));
}

// --- fused epilogue + pooling ----------------------------------------------------

TEST(ApconvEpilogue, FusedBnReluMatchesPostProcessing) {
  const layout::ConvGeometry g = geom(1, 8, 8, 6, 3, 1, 1);
  const ConvSetup s = make_setup(g, Encoding::kSignedPM1, 1,
                                 Encoding::kUnsigned01, 2, 101);
  Epilogue epi;
  epi.has_bn = true;
  epi.bn.scale.assign(6, 0.5f);
  epi.bn.bias.assign(6, -3.0f);
  epi.has_relu = true;
  const ApconvResult r =
      apconv(s.w, s.x, Encoding::kUnsigned01, g, dev(), {}, epi);
  const Tensor<std::int32_t> ref =
      conv2d_reference(s.x_logical, s.w_ohwi, g);
  for (std::int64_t i = 0; i < ref.numel(); ++i) {
    const float v = static_cast<float>(ref[i]) * 0.5f - 3.0f;
    EXPECT_EQ(r.y[i], static_cast<std::int32_t>(std::max(v, 0.f)));
  }
}

TEST(ApconvEpilogue, MaxPoolingMatchesReference) {
  const layout::ConvGeometry g = geom(2, 8, 8, 4, 3, 1, 1);
  const ConvSetup s = make_setup(g, Encoding::kSignedPM1, 1,
                                 Encoding::kUnsigned01, 2, 102);
  PoolSpec pool;
  pool.kind = PoolSpec::Kind::kMax;
  pool.size = 2;
  const ApconvResult r =
      apconv(s.w, s.x, Encoding::kUnsigned01, g, dev(), {}, {}, pool);
  const Tensor<std::int32_t> ref =
      conv2d_reference(s.x_logical, s.w_ohwi, g);
  ASSERT_EQ(r.y.shape(), (std::vector<std::int64_t>{2, 4, 4, 4}));
  for (std::int64_t n = 0; n < 2; ++n) {
    for (std::int64_t py = 0; py < 4; ++py) {
      for (std::int64_t px = 0; px < 4; ++px) {
        for (std::int64_t c = 0; c < 4; ++c) {
          std::int32_t expect = INT32_MIN;
          for (int dy = 0; dy < 2; ++dy) {
            for (int dx = 0; dx < 2; ++dx) {
              expect = std::max(expect,
                                ref(n, py * 2 + dy, px * 2 + dx, c));
            }
          }
          ASSERT_EQ(r.y(n, py, px, c), expect);
        }
      }
    }
  }
}

TEST(ApconvEpilogue, AvgPoolingTruncates) {
  const layout::ConvGeometry g = geom(1, 4, 4, 2, 3, 1, 1);
  const ConvSetup s = make_setup(g, Encoding::kUnsigned01, 2,
                                 Encoding::kUnsigned01, 2, 103);
  PoolSpec pool;
  pool.kind = PoolSpec::Kind::kAvg;
  pool.size = 2;
  const ApconvResult r =
      apconv(s.w, s.x, Encoding::kUnsigned01, g, dev(), {}, {}, pool);
  const Tensor<std::int32_t> ref =
      conv2d_reference(s.x_logical, s.w_ohwi, g);
  for (std::int64_t py = 0; py < 2; ++py) {
    for (std::int64_t px = 0; px < 2; ++px) {
      for (std::int64_t c = 0; c < 2; ++c) {
        std::int64_t sum = 0;
        for (int dy = 0; dy < 2; ++dy) {
          for (int dx = 0; dx < 2; ++dx) {
            sum += ref(0, py * 2 + dy, px * 2 + dx, c);
          }
        }
        ASSERT_EQ(r.y(0, py, px, c), static_cast<std::int32_t>(sum / 4));
      }
    }
  }
}

TEST(ApconvEpilogue, QuantizedPackedOutputFeedsNextLayer) {
  const layout::ConvGeometry g = geom(2, 8, 8, 8, 3, 1, 1);
  const ConvSetup s = make_setup(g, Encoding::kSignedPM1, 1,
                                 Encoding::kUnsigned01, 2, 104);
  Epilogue epi;
  epi.has_relu = true;
  epi.has_quant = true;
  epi.quant.bits = 2;
  epi.quant.scale = 8.0;
  PoolSpec pool;
  pool.kind = PoolSpec::Kind::kMax;
  pool.size = 2;
  const ApconvResult r =
      apconv(s.w, s.x, Encoding::kUnsigned01, g, dev(), {}, epi, pool);
  EXPECT_EQ(r.packed.n, 2);
  EXPECT_EQ(r.packed.h, 4);
  EXPECT_EQ(r.packed.w, 4);
  EXPECT_EQ(r.packed.c, 8);
  EXPECT_EQ(r.packed.bits, 2);
  // Validate codes against the dense reference pipeline.
  const Tensor<std::int32_t> ref =
      conv2d_reference(s.x_logical, s.w_ohwi, g);
  const Tensor<std::int32_t> codes = layout::unpack_activations(r.packed);
  for (std::int64_t n = 0; n < 2; ++n) {
    for (std::int64_t py = 0; py < 4; ++py) {
      for (std::int64_t px = 0; px < 4; ++px) {
        for (std::int64_t c = 0; c < 8; ++c) {
          std::int32_t pooled = INT32_MIN;
          for (int dy = 0; dy < 2; ++dy) {
            for (int dx = 0; dx < 2; ++dx) {
              pooled = std::max(
                  pooled,
                  std::max(ref(n, py * 2 + dy, px * 2 + dx, c), 0));
            }
          }
          ASSERT_EQ(codes(n, py, px, c),
                    quant::quantize_value(static_cast<float>(pooled),
                                          epi.quant));
        }
      }
    }
  }
}

// --- fusion and layout traffic properties ----------------------------------------

TEST(ApconvTraffic, FusionRemovesKernelLaunchesAndGlobalRoundTrips) {
  const layout::ConvGeometry g = geom(1, 128, 16, 128, 3, 1, 1);
  Epilogue epi;
  epi.has_quant = true;
  epi.quant.bits = 2;
  PoolSpec pool;
  pool.kind = PoolSpec::Kind::kMax;
  pool.size = 2;
  ApconvOptions fused, unfused;
  unfused.fuse_epilogue = false;
  const EncodingConfig enc{Encoding::kSignedPM1, Encoding::kUnsigned01};
  const auto pf = apconv_profile(g, 1, 2, enc, dev(), fused, epi, pool);
  const auto pu = apconv_profile(g, 1, 2, enc, dev(), unfused, epi, pool);
  EXPECT_EQ(pf.kernels.size(), 1u);
  EXPECT_EQ(pu.kernels.size(), 3u);  // conv + pool + quantize
  EXPECT_LT(pf.total_counters().total_global_bytes(),
            pu.total_counters().total_global_bytes());
  const tcsim::CostModel cm(dev());
  EXPECT_LT(cm.estimate(pf).total_us, cm.estimate(pu).total_us);
}

TEST(ApconvTraffic, DimensionOnlyProfileMatchesFullExecution) {
  const layout::ConvGeometry g = geom(1, 16, 8, 12, 3, 1, 1);
  const ConvSetup s = make_setup(g, Encoding::kSignedPM1, 1,
                                 Encoding::kUnsigned01, 2, 105);
  const auto rf = apconv(s.w, s.x, Encoding::kUnsigned01, g, dev());
  const auto rp =
      apconv_profile(g, 1, 2, {Encoding::kSignedPM1, Encoding::kUnsigned01},
                     dev());
  ASSERT_EQ(rf.profile.kernels.size(), rp.kernels.size());
  const auto cf = rf.profile.total_counters();
  const auto cp = rp.total_counters();
  EXPECT_EQ(cf.total_global_bytes(), cp.total_global_bytes());
  EXPECT_EQ(cf.bmma_b1, cp.bmma_b1);
}

TEST(ApconvTraffic, BitOverheadIsSmallFraction) {
  // Fig 11 property: decomposition+combination ALU work is tiny next to the
  // tensor-core op count.
  const layout::ConvGeometry g = geom(1, 256, 16, 256, 3, 1, 1);
  Epilogue epi;
  epi.has_quant = true;
  epi.quant.bits = 2;
  const EncodingConfig enc{Encoding::kSignedPM1, Encoding::kUnsigned01};
  const auto prof = apconv_profile(g, 1, 2, enc, dev(), {}, epi);
  const auto c = prof.total_counters();
  EXPECT_LT(static_cast<double>(c.total_alu_ops()),
            0.05 * static_cast<double>(c.ops_b1()) / 2);
}

TEST(Apconv, RejectsGeometryMismatch) {
  const layout::ConvGeometry g = geom(1, 8, 8, 4, 3, 1, 1);
  const ConvSetup s = make_setup(g, Encoding::kSignedPM1, 1,
                                 Encoding::kUnsigned01, 2, 106);
  layout::ConvGeometry bad = g;
  bad.in_c = 16;
  EXPECT_THROW(apconv(s.w, s.x, Encoding::kUnsigned01, bad, dev()),
               apnn::Error);
}

TEST(Apconv, RejectsNonTilingPool) {
  const layout::ConvGeometry g = geom(1, 8, 7, 4, 3, 1, 1);  // 7x7 output
  const ConvSetup s = make_setup(g, Encoding::kSignedPM1, 1,
                                 Encoding::kUnsigned01, 2, 107);
  PoolSpec pool;
  pool.kind = PoolSpec::Kind::kMax;
  pool.size = 2;
  EXPECT_THROW(
      apconv(s.w, s.x, Encoding::kUnsigned01, g, dev(), {}, {}, pool),
      apnn::Error);
}

}  // namespace
}  // namespace apnn::core
