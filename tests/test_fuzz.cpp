// Randomized differential testing: many seeded random problem instances
// (shapes, bit widths, encodings, kernel options) run through the
// production kernels and compared against the naive integer references.
// Any mismatch prints the seed for exact reproduction.
#include <gtest/gtest.h>

#include "src/core/apconv.hpp"
#include "src/core/apmm.hpp"
#include "test_util.hpp"

namespace apnn {
namespace {

using core::ApconvOptions;
using core::ApmmOptions;
using core::ApOperand;
using core::Encoding;
using testing::naive_gemm;
using testing::random_logical;

const tcsim::DeviceSpec& dev() { return tcsim::rtx3090(); }

/// Draws a random encoding pair the kernels support.
core::EncodingConfig random_encodings(Rng& rng, int* p, int* q) {
  switch (rng.uniform_int(0, 3)) {
    case 0:  // Case I
      *p = static_cast<int>(rng.uniform_int(1, 5));
      *q = static_cast<int>(rng.uniform_int(1, 5));
      return {Encoding::kUnsigned01, Encoding::kUnsigned01};
    case 1:  // Case II
      *p = 1;
      *q = 1;
      return {Encoding::kSignedPM1, Encoding::kSignedPM1};
    case 2:  // Case III
      *p = 1;
      *q = static_cast<int>(rng.uniform_int(1, 8));
      return {Encoding::kSignedPM1, Encoding::kUnsigned01};
    default:  // two's complement extension
      *p = static_cast<int>(rng.uniform_int(2, 4));
      *q = static_cast<int>(rng.uniform_int(1, 4));
      return {Encoding::kTwosComplement, Encoding::kUnsigned01};
  }
}

ApmmOptions random_apmm_options(Rng& rng) {
  ApmmOptions o;
  o.batch_planes = rng.bernoulli(0.8);
  o.double_caching = rng.bernoulli(0.8);
  o.fragment_caching = rng.bernoulli(0.8);
  o.semantic_aware = rng.bernoulli(0.8);
  if (rng.bernoulli(0.3)) {
    o.autotune = false;
    static constexpr int kSizes[] = {16, 32, 64, 128};
    o.tile.bm = kSizes[rng.uniform_int(0, 3)];
    o.tile.bn = kSizes[rng.uniform_int(0, 3)];
  }
  return o;
}

class FuzzSeed : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSeed, ApmmMatchesNaiveGemm) {
  Rng rng(GetParam());
  int p = 1, q = 1;
  const core::EncodingConfig enc = random_encodings(rng, &p, &q);
  const std::int64_t m = rng.uniform_int(1, 96);
  const std::int64_t n = rng.uniform_int(1, 96);
  const std::int64_t k = rng.uniform_int(1, 384);
  const auto wl = random_logical(rng, m, k, enc.w, p);
  const auto xl = random_logical(rng, n, k, enc.x, q);
  const ApOperand w = core::make_operand(wl, enc.w, p);
  const ApOperand x = core::make_operand(xl, enc.x, q);
  const ApmmOptions opts = random_apmm_options(rng);
  const core::ApmmResult r = core::apmm(w, x, dev(), opts);
  ASSERT_EQ(r.y, naive_gemm(wl, xl))
      << "seed " << GetParam() << " m=" << m << " n=" << n << " k=" << k
      << " p=" << p << " q=" << q;
}

TEST_P(FuzzSeed, ApconvMatchesDirectConvolution) {
  Rng rng(GetParam() ^ 0xc0ffee);
  int p = 1, q = 1;
  const core::EncodingConfig enc = random_encodings(rng, &p, &q);
  layout::ConvGeometry g;
  g.batch = rng.uniform_int(1, 2);
  g.in_c = rng.uniform_int(1, 12);
  g.in_h = rng.uniform_int(4, 10);
  g.in_w = rng.uniform_int(4, 10);
  g.out_c = rng.uniform_int(1, 10);
  g.kernel = static_cast<int>(rng.uniform_int(0, 1)) * 2 + 1;  // 1 or 3
  g.stride = static_cast<int>(rng.uniform_int(1, 2));
  g.pad = static_cast<int>(rng.uniform_int(0, g.kernel / 2));
  if (g.out_h() <= 0 || g.out_w() <= 0) GTEST_SKIP();

  // Logical activations and weights.
  Tensor<std::int32_t> x_logical({g.batch, g.in_h, g.in_w, g.in_c});
  Tensor<std::int32_t> codes(x_logical.shape());
  const core::ValueRange xr = core::encoding_range(enc.x, q);
  for (std::int64_t i = 0; i < x_logical.numel(); ++i) {
    if (enc.x == Encoding::kSignedPM1) {
      x_logical[i] = rng.bernoulli(0.5) ? 1 : -1;
    } else {
      x_logical[i] = static_cast<std::int32_t>(rng.uniform_int(xr.lo, xr.hi));
    }
    codes[i] = core::encode_value(enc.x, q, x_logical[i]);
  }
  Tensor<std::int32_t> w_ohwi({g.out_c, g.kernel, g.kernel, g.in_c});
  const core::ValueRange wr = core::encoding_range(enc.w, p);
  for (std::int64_t i = 0; i < w_ohwi.numel(); ++i) {
    w_ohwi[i] = enc.w == Encoding::kSignedPM1
                    ? (rng.bernoulli(0.5) ? 1 : -1)
                    : static_cast<std::int32_t>(rng.uniform_int(wr.lo, wr.hi));
  }

  const ApOperand w = core::make_conv_weights(w_ohwi, enc.w, p);
  const auto x =
      layout::pack_activations(codes, layout::DenseLayout::kNHWC, q);
  ApconvOptions opts;
  opts.double_caching = rng.bernoulli(0.8);
  opts.semantic_aware = rng.bernoulli(0.8);
  const core::ApconvResult r = core::apconv(w, x, enc.x, g, dev(), opts);
  ASSERT_EQ(r.y, core::conv2d_reference(x_logical, w_ohwi, g))
      << "seed " << GetParam() << " cin=" << g.in_c << " cout=" << g.out_c
      << " hw=" << g.in_h << "x" << g.in_w << " k=" << g.kernel << " s="
      << g.stride << " pad=" << g.pad << " p=" << p << " q=" << q;
}

TEST_P(FuzzSeed, PackedOutputRoundTripsThroughNextLayer) {
  // Chain two APMM layers through the packed minimal-traffic interface and
  // check against the dense integer pipeline.
  Rng rng(GetParam() ^ 0xfeedface);
  const int q = static_cast<int>(rng.uniform_int(1, 4));
  const std::int64_t batch = rng.uniform_int(1, 16);
  const std::int64_t f0 = rng.uniform_int(1, 64);
  const std::int64_t f1 = rng.uniform_int(1, 64);
  const std::int64_t f2 = rng.uniform_int(1, 32);

  const auto w1l = random_logical(rng, f1, f0, Encoding::kSignedPM1, 1);
  const auto w2l = random_logical(rng, f2, f1, Encoding::kSignedPM1, 1);
  const auto xl = random_logical(rng, batch, f0, Encoding::kUnsigned01, q);
  const ApOperand w1 = core::make_operand(w1l, Encoding::kSignedPM1, 1);
  const ApOperand w2 = core::make_operand(w2l, Encoding::kSignedPM1, 1);
  const ApOperand x0 = core::make_operand(xl, Encoding::kUnsigned01, q);

  core::Epilogue epi;
  epi.has_relu = true;
  epi.has_quant = true;
  epi.quant.bits = q;
  epi.quant.scale = std::max<std::int64_t>(1, f0);  // keep codes in range

  // Kernel path: layer1 emits packed planes consumed directly by layer2.
  const core::ApmmResult r1 = core::apmm(w1, x0, dev(), {}, epi);
  ApOperand x1;
  x1.planes = r1.packed;
  x1.encoding = Encoding::kUnsigned01;
  const core::ApmmResult r2 = core::apmm(w2, x1, dev());

  // Dense path.
  const Tensor<std::int32_t> y1 = naive_gemm(w1l, xl);
  Tensor<std::int32_t> codes({batch, f1});
  for (std::int64_t b = 0; b < batch; ++b) {
    for (std::int64_t o = 0; o < f1; ++o) {
      codes(b, o) = quant::quantize_value(
          static_cast<float>(std::max(y1(o, b), 0)), epi.quant);
    }
  }
  ASSERT_EQ(r2.y, naive_gemm(w2l, codes)) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeed,
                         ::testing::Range<std::uint64_t>(1, 33));

// --- fused conv differential fuzzer ----------------------------------------
//
// Each seed draws one random conv problem across the full bit-width space
// (w/a bits in 1..8), random geometry (kernel/stride/pad, non-aligned
// shapes), random fused tail (BN / ReLU / pooling / quantization), and
// asserts a three-way agreement:
//   fused im2col-free apconv == dense im2col patch-GEMM == direct conv,
// plus, when the tail quantizes, that the packed channel-major output feeds
// a second conv layer with results identical to the dense pipeline.

/// Encoding pair with conv-relevant bit widths up to 8.
core::EncodingConfig conv_encodings(Rng& rng, int* p, int* q) {
  switch (rng.uniform_int(0, 3)) {
    case 0:  // Case I
      *p = static_cast<int>(rng.uniform_int(1, 8));
      *q = static_cast<int>(rng.uniform_int(1, 8));
      return {Encoding::kUnsigned01, Encoding::kUnsigned01};
    case 1:  // Case II
      *p = 1;
      *q = 1;
      return {Encoding::kSignedPM1, Encoding::kSignedPM1};
    case 2:  // Case III
      *p = 1;
      *q = static_cast<int>(rng.uniform_int(1, 8));
      return {Encoding::kSignedPM1, Encoding::kUnsigned01};
    default:  // two's complement extension
      *p = static_cast<int>(rng.uniform_int(2, 8));
      *q = static_cast<int>(rng.uniform_int(1, 8));
      return {Encoding::kTwosComplement, Encoding::kUnsigned01};
  }
}

using testing::conv_via_im2col_dense;

class ConvFuzzSeed : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConvFuzzSeed, FusedConvMatchesIm2colAndDensePipelines) {
  Rng rng(GetParam() * 0x9e3779b97f4a7c15ULL + 0xabcdef);
  int p = 1, q = 1;
  const core::EncodingConfig enc = conv_encodings(rng, &p, &q);
  layout::ConvGeometry g;
  g.batch = rng.uniform_int(1, 2);
  g.in_c = rng.uniform_int(1, 10);
  g.in_h = rng.uniform_int(4, 9);
  g.in_w = rng.uniform_int(4, 9);
  g.out_c = rng.uniform_int(1, 8);
  g.kernel = static_cast<int>(rng.uniform_int(0, 1)) * 2 + 1;  // 1 or 3
  g.stride = static_cast<int>(rng.uniform_int(1, 2));
  g.pad = static_cast<int>(rng.uniform_int(0, g.kernel / 2));
  if (g.out_h() <= 0 || g.out_w() <= 0) GTEST_SKIP();
  const std::int64_t oh = g.out_h(), ow = g.out_w();

  // Random fused tail.
  core::PoolSpec pool;
  if (oh % 2 == 0 && ow % 2 == 0 && rng.bernoulli(0.5)) {
    pool.kind = rng.bernoulli(0.5) ? core::PoolSpec::Kind::kMax
                                   : core::PoolSpec::Kind::kAvg;
    pool.size = 2;
  }
  core::Epilogue epi;
  if (rng.bernoulli(0.4)) {
    epi.has_bn = true;
    epi.bn.scale.resize(static_cast<std::size_t>(g.out_c));
    epi.bn.bias.resize(static_cast<std::size_t>(g.out_c));
    for (std::int64_t c = 0; c < g.out_c; ++c) {
      epi.bn.scale[static_cast<std::size_t>(c)] =
          static_cast<float>(rng.uniform(0.25, 2.0));
      epi.bn.bias[static_cast<std::size_t>(c)] =
          static_cast<float>(rng.uniform(-8.0, 8.0));
    }
  }
  epi.has_relu = rng.bernoulli(0.4);
  const bool quantize = rng.bernoulli(0.5);
  if (quantize) {
    epi.has_quant = true;
    epi.quant.bits = static_cast<int>(rng.uniform_int(1, 4));
    epi.quant.scale = std::max<double>(
        1.0, static_cast<double>(g.gemm_k()) * ((1 << q) - 1) /
                 ((1 << epi.quant.bits) - 1) / 4.0);
    epi.quant.zero_point = 0.0;
  }

  // Logical operands + packed/decomposed forms.
  Tensor<std::int32_t> x_logical({g.batch, g.in_h, g.in_w, g.in_c});
  Tensor<std::int32_t> codes(x_logical.shape());
  const core::ValueRange xr = core::encoding_range(enc.x, q);
  for (std::int64_t i = 0; i < x_logical.numel(); ++i) {
    x_logical[i] = enc.x == Encoding::kSignedPM1
                       ? (rng.bernoulli(0.5) ? 1 : -1)
                       : static_cast<std::int32_t>(
                             rng.uniform_int(xr.lo, xr.hi));
    codes[i] = core::encode_value(enc.x, q, x_logical[i]);
  }
  Tensor<std::int32_t> w_ohwi({g.out_c, g.kernel, g.kernel, g.in_c});
  const core::ValueRange wr = core::encoding_range(enc.w, p);
  for (std::int64_t i = 0; i < w_ohwi.numel(); ++i) {
    w_ohwi[i] = enc.w == Encoding::kSignedPM1
                    ? (rng.bernoulli(0.5) ? 1 : -1)
                    : static_cast<std::int32_t>(
                          rng.uniform_int(wr.lo, wr.hi));
  }
  const ApOperand w = core::make_conv_weights(w_ohwi, enc.w, p);
  const auto x =
      layout::pack_activations(codes, layout::DenseLayout::kNHWC, q);

  // Dense reference pipeline (direct conv), cross-checked against the
  // materialized im2col lowering.
  Tensor<std::int32_t> ref = core::conv2d_reference(x_logical, w_ohwi, g);
  ASSERT_EQ(conv_via_im2col_dense(x_logical, w_ohwi, g), ref)
      << "im2col lowering diverged, seed " << GetParam();
  for (std::int64_t i = 0; i < ref.numel(); ++i) {
    ref[i] = epi.apply(ref[i], i % g.out_c);
  }
  std::int64_t ph = oh, pw = ow;
  if (pool.active()) {
    ph = oh / 2;
    pw = ow / 2;
    Tensor<std::int32_t> pooled({g.batch, ph, pw, g.out_c});
    for (std::int64_t n = 0; n < g.batch; ++n) {
      for (std::int64_t py = 0; py < ph; ++py) {
        for (std::int64_t px = 0; px < pw; ++px) {
          for (std::int64_t c = 0; c < g.out_c; ++c) {
            std::int64_t agg =
                pool.kind == core::PoolSpec::Kind::kMax ? INT64_MIN : 0;
            for (int dy = 0; dy < 2; ++dy) {
              for (int dx = 0; dx < 2; ++dx) {
                const std::int32_t v = ref(n, py * 2 + dy, px * 2 + dx, c);
                if (pool.kind == core::PoolSpec::Kind::kMax) {
                  agg = std::max<std::int64_t>(agg, v);
                } else {
                  agg += v;
                }
              }
            }
            if (pool.kind == core::PoolSpec::Kind::kAvg) agg /= 4;
            pooled(n, py, px, c) = static_cast<std::int32_t>(agg);
          }
        }
      }
    }
    ref = pooled;
  }

  const core::ApconvResult r = core::apconv(w, x, enc.x, g, dev(), {}, epi,
                                            pool);
  const std::string ctx = "seed " + std::to_string(GetParam());
  if (!quantize) {
    ASSERT_EQ(r.y, ref) << ctx;
    return;
  }

  // Quantized tail: codes must match the dense pipeline...
  Tensor<std::int32_t> ref_codes = ref;
  for (std::int64_t i = 0; i < ref.numel(); ++i) {
    ref_codes[i] =
        quant::quantize_value(static_cast<float>(ref[i]), epi.quant);
  }
  ASSERT_EQ(layout::unpack_activations(r.packed), ref_codes) << ctx;

  // ...and the packed output must repack correctly for the next layer:
  // run a 1x1 conv over it and over the dense codes and compare.
  layout::ConvGeometry g2;
  g2.batch = g.batch;
  g2.in_c = g.out_c;
  g2.in_h = ph;
  g2.in_w = pw;
  g2.out_c = 3;
  g2.kernel = 1;
  g2.stride = 1;
  g2.pad = 0;
  Tensor<std::int32_t> w2({g2.out_c, 1, 1, g2.in_c});
  for (std::int64_t i = 0; i < w2.numel(); ++i) {
    w2[i] = rng.bernoulli(0.5) ? 1 : -1;
  }
  const ApOperand w2op =
      core::make_conv_weights(w2, Encoding::kSignedPM1, 1);
  const core::ApconvResult r2 = core::apconv(
      w2op, r.packed, Encoding::kUnsigned01, g2, dev());
  ASSERT_EQ(r2.y, core::conv2d_reference(ref_codes, w2, g2)) << ctx;
}

INSTANTIATE_TEST_SUITE_P(Shapes, ConvFuzzSeed,
                         ::testing::Range<std::uint64_t>(1, 201));

// --- sparsity-stratified differential fuzzer -------------------------------
//
// The microkernel's data-sparsity fast paths (occupancy-map staging,
// skip-zero kernels, bit-plane elision) are gated by
// MicroConfig::sparse_staging and must be bit-exact at every setting. Each
// case below shapes activations into a specific sparsity stratum — fully
// zero inputs, all-zero bit planes, word-aligned zero runs straddling
// k-strip boundaries, realistic ReLU-fed packed sparsity — and asserts that
// kOff (dense baseline), kAuto, and kOn all reproduce the naive integer
// reference exactly.

using Sparse = core::microkernel::MicroConfig::Sparse;

constexpr Sparse kSparseModes[] = {Sparse::kOff, Sparse::kAuto, Sparse::kOn};

const char* sparse_name(Sparse s) {
  switch (s) {
    case Sparse::kAuto: return "kAuto";
    case Sparse::kOn: return "kOn";
    default: return "kOff";
  }
}

class SparsityFuzzSeed : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SparsityFuzzSeed, StratifiedSparseApmmMatchesNaiveInEveryMode) {
  Rng rng(GetParam() * 0x2545f4914f6cdd1dULL + 0x5eed);
  int p = 1, q = 1;
  const core::EncodingConfig enc = random_encodings(rng, &p, &q);
  const std::int64_t m = rng.uniform_int(1, 80);
  const std::int64_t n = rng.uniform_int(1, 80);
  // K large enough that a zero run can span several 64-bit plane words and
  // straddle at least one k-strip boundary (kStripWords * 64 logical cols).
  const std::int64_t k = rng.uniform_int(1536, 4608);
  const auto wl = random_logical(rng, m, k, enc.w, p);
  auto xl = random_logical(rng, n, k, enc.x, q);

  // Carve the stratum into the activation rows. ±1 features have no zero
  // code (their planes never produce zero words from zero *values*), so
  // those seeds exercise the sparse kernels' dense fallback instead.
  const int stratum = static_cast<int>(rng.uniform_int(0, 2));
  if (enc.x != Encoding::kSignedPM1) {
    for (std::int64_t j = 0; j < n; ++j) {
      switch (stratum) {
        case 0:  // a random subset of rows fully zero
          if (rng.bernoulli(0.5)) {
            for (std::int64_t kk = 0; kk < k; ++kk) xl(j, kk) = 0;
          }
          break;
        case 1: {  // alternating zero / dense word-aligned runs whose length
                   // is not a strip divisor, so runs straddle strips
          const std::int64_t run = 64 * rng.uniform_int(3, 40);
          const std::int64_t phase = 64 * rng.uniform_int(0, 40);
          for (std::int64_t kk = 0; kk < k; ++kk) {
            if (((kk + phase) / run) % 2 == 0) xl(j, kk) = 0;
          }
          break;
        }
        default:  // high bit planes all zero (plane-elision stratum)
          for (std::int64_t kk = 0; kk < k; ++kk) xl(j, kk) &= 1;
          break;
      }
    }
  }

  const ApOperand w = core::make_operand(wl, enc.w, p);
  const ApOperand x = core::make_operand(xl, enc.x, q);
  const Tensor<std::int32_t> ref = naive_gemm(wl, xl);
  for (const Sparse mode : kSparseModes) {
    ApmmOptions o;
    o.micro.sparse_staging = mode;
    o.collect_profile = false;
    const core::ApmmResult r = core::apmm(w, x, dev(), o);
    ASSERT_EQ(r.y, ref)
        << "seed " << GetParam() << " mode " << sparse_name(mode)
        << " stratum " << stratum << " m=" << m << " n=" << n << " k=" << k
        << " p=" << p << " q=" << q;
  }
}

TEST(SparsityEdge, FullyZeroOperandsMatchInEveryMode) {
  // Fully-zero activations — and, for Case I, fully-zero weights too —
  // drive every strip through the skip path and elide every eligible
  // plane. The reference is trivially the zero matrix; the point is that
  // the sparse kernels and plane elision agree with it bit-exactly.
  struct Cfg {
    Encoding we, xe;
    int p, q;
    bool zero_w;
  };
  const Cfg cfgs[] = {
      {Encoding::kUnsigned01, Encoding::kUnsigned01, 2, 2, false},
      {Encoding::kUnsigned01, Encoding::kUnsigned01, 3, 2, true},
      {Encoding::kSignedPM1, Encoding::kUnsigned01, 1, 2, false},
      {Encoding::kTwosComplement, Encoding::kUnsigned01, 2, 3, false},
  };
  Rng rng(0xdead5eed);
  for (const Cfg& c : cfgs) {
    const std::int64_t m = 33, n = 29, k = 2500;
    auto wl = random_logical(rng, m, k, c.we, c.p);
    if (c.zero_w) {
      for (std::int64_t i = 0; i < wl.numel(); ++i) wl[i] = 0;
    }
    Tensor<std::int32_t> xl({n, k});
    for (std::int64_t i = 0; i < xl.numel(); ++i) xl[i] = 0;
    const ApOperand w = core::make_operand(wl, c.we, c.p);
    const ApOperand x = core::make_operand(xl, c.xe, c.q);
    const Tensor<std::int32_t> ref = naive_gemm(wl, xl);
    for (const Sparse mode : kSparseModes) {
      ApmmOptions o;
      o.micro.sparse_staging = mode;
      o.collect_profile = false;
      const core::ApmmResult r = core::apmm(w, x, dev(), o);
      ASSERT_EQ(r.y, ref) << "p=" << c.p << " q=" << c.q << " zero_w="
                          << c.zero_w << " mode " << sparse_name(mode);
    }
  }
}

TEST_P(SparsityFuzzSeed, ReluFedSecondConvLayerMatchesAcrossModes) {
  // First conv layer with a fused ReLU + quantize tail emits packed
  // channel-major activations whose sparsity is the realistic one (zero
  // runs where ReLU clipped whole regions); the second layer consumes them
  // under each sparse mode and must match the dense integer pipeline.
  Rng rng(GetParam() * 0x9e3779b97f4a7c15ULL + 0x0d1f);
  layout::ConvGeometry g;
  g.batch = rng.uniform_int(1, 2);
  g.in_c = rng.uniform_int(4, 16);
  g.in_h = rng.uniform_int(6, 12);
  g.in_w = rng.uniform_int(6, 12);
  g.out_c = rng.uniform_int(8, 24);
  g.kernel = 3;
  g.stride = 1;
  g.pad = 1;

  const int q = 2;
  Tensor<std::int32_t> x_logical({g.batch, g.in_h, g.in_w, g.in_c});
  Tensor<std::int32_t> codes(x_logical.shape());
  for (std::int64_t i = 0; i < x_logical.numel(); ++i) {
    x_logical[i] = static_cast<std::int32_t>(rng.uniform_int(0, 3));
    codes[i] = core::encode_value(Encoding::kUnsigned01, q, x_logical[i]);
  }
  Tensor<std::int32_t> w1({g.out_c, g.kernel, g.kernel, g.in_c});
  for (std::int64_t i = 0; i < w1.numel(); ++i) {
    w1[i] = rng.bernoulli(0.5) ? 1 : -1;
  }
  const ApOperand w1op = core::make_conv_weights(w1, Encoding::kSignedPM1, 1);
  const auto x = layout::pack_activations(codes, layout::DenseLayout::kNHWC, q);

  // BN with a strongly negative bias so ReLU zeroes a large share of the
  // map, then quantize back to q bits: realistic second-layer sparsity.
  core::Epilogue epi;
  epi.has_bn = true;
  epi.bn.scale.assign(static_cast<std::size_t>(g.out_c), 1.0f);
  epi.bn.bias.assign(static_cast<std::size_t>(g.out_c), 0.0f);
  for (std::int64_t c = 0; c < g.out_c; ++c) {
    epi.bn.bias[static_cast<std::size_t>(c)] =
        static_cast<float>(rng.uniform(-24.0, 4.0));
  }
  epi.has_relu = true;
  epi.has_quant = true;
  epi.quant.bits = q;
  epi.quant.scale = std::max<double>(
      1.0, static_cast<double>(g.gemm_k()) * 3.0 / ((1 << q) - 1) / 4.0);

  const core::ApconvResult r1 =
      core::apconv(w1op, x, Encoding::kUnsigned01, g, dev(), {}, epi);

  // Dense reference for layer 1's quantized codes.
  Tensor<std::int32_t> ref = core::conv2d_reference(x_logical, w1, g);
  Tensor<std::int32_t> ref_codes = ref;
  for (std::int64_t i = 0; i < ref.numel(); ++i) {
    ref_codes[i] = quant::quantize_value(
        static_cast<float>(epi.apply(ref[i], i % g.out_c)), epi.quant);
  }
  ASSERT_EQ(layout::unpack_activations(r1.packed), ref_codes)
      << "layer-1 seed " << GetParam();

  layout::ConvGeometry g2;
  g2.batch = g.batch;
  g2.in_c = g.out_c;
  g2.in_h = g.out_h();
  g2.in_w = g.out_w();
  g2.out_c = rng.uniform_int(4, 12);
  g2.kernel = 3;
  g2.stride = 1;
  g2.pad = 1;
  Tensor<std::int32_t> w2({g2.out_c, g2.kernel, g2.kernel, g2.in_c});
  for (std::int64_t i = 0; i < w2.numel(); ++i) {
    w2[i] = rng.bernoulli(0.5) ? 1 : -1;
  }
  const ApOperand w2op = core::make_conv_weights(w2, Encoding::kSignedPM1, 1);
  const Tensor<std::int32_t> ref2 =
      core::conv2d_reference(ref_codes, w2, g2);
  for (const Sparse mode : kSparseModes) {
    ApconvOptions o2;
    o2.micro.sparse_staging = mode;
    o2.collect_profile = false;
    const core::ApconvResult r2 = core::apconv(
        w2op, r1.packed, Encoding::kUnsigned01, g2, dev(), o2);
    ASSERT_EQ(r2.y, ref2)
        << "seed " << GetParam() << " mode " << sparse_name(mode);
  }
}

INSTANTIATE_TEST_SUITE_P(Strata, SparsityFuzzSeed,
                         ::testing::Range<std::uint64_t>(1, 25));

}  // namespace
}  // namespace apnn
