// Conv hot-path regression gate: materialized-im2col APConv (the pre-fusion
// pipeline) vs the im2col-free fused APConv.
//
// The materialized baseline is re-implemented here verbatim from the old
// apconv() functional path so later library changes cannot silently move
// it: per activation plane a full gemm_n x gemm_k patch matrix is built
// with im2col_bits, the batched GEMM runs over it, and the BN -> ReLU ->
// pool -> quantize-repack tail executes as *serial* full-output passes.
// The fused path (core::apconv) window-gathers B-panel k-strips straight
// from the packed feature map inside the microkernel staging layer and
// runs the whole tail inside each block's epilogue.
//
// Bit-exactness of the two paths is checked before any timing. Results are
// written as JSON so CI can track the conv-path speedup from PR 2 onward.
//
// Usage: apconv_hotpath [out.json] [reps]
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/common/timer.hpp"
#include "src/core/apconv.hpp"
#include "src/core/apmm_internal.hpp"
#include "src/layout/im2col.hpp"
#include "src/layout/packed_activations.hpp"
#include "src/quant/quantizer.hpp"

namespace apnn {
namespace {

using core::ApOperand;
using core::Epilogue;
using core::PoolSpec;

/// Verbatim re-implementation of the pre-fusion apconv() functional path:
/// materialized channel-major im2col, GEMM over the patch planes, then the
/// serial BN/ReLU double loop, serial pooling, and serial quantize+repack.
layout::PackedActivations materialized_apconv(
    const ApOperand& w, const layout::PackedActivations& x,
    core::Encoding x_enc, const layout::ConvGeometry& g,
    const core::TileConfig& tile, const Epilogue& epi, const PoolSpec& pool) {
  const core::OpSelection sel = core::select_operator({w.encoding, x_enc});
  const bool pad_one = sel.kind == core::EmulationCase::kCaseII;
  const core::internal::BatchedGeometry geom = core::internal::make_geometry(
      g.gemm_m(), g.gemm_n(), g.gemm_k(), w.bits(), x.bits, tile);
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  const std::int64_t win = pool.active() ? pool.size : 1;
  const std::int64_t pooled_h = oh / win, pooled_w = ow / win;

  // Channel-major lowering: one patch matrix per activation plane.
  ApOperand xop;
  xop.encoding = x_enc;
  xop.planes.rows = g.gemm_n();
  xop.planes.cols = g.gemm_k();
  xop.planes.bits = x.bits;
  for (int t = 0; t < x.bits; ++t) {
    xop.planes.planes.push_back(layout::im2col_bits(
        x.planes[static_cast<std::size_t>(t)], g, pad_one));
  }

  Tensor<std::int32_t> y32({geom.m, geom.n});
  bitops::BitPlanes unused;
  core::internal::run_batched_compute(w, xop, sel, geom, Epilogue{}, &y32,
                                      &unused);

  // §4.2b Case-II padding amendment (verbatim: the serial per-border-
  // position masked-popc pass of the pre-fusion path).
  if (sel.kind == core::EmulationCase::kCaseII) {
    const bitops::BitMatrix& w0 = w.planes.plane(0);
    const std::int64_t row_words = w0.row_words();
    std::vector<std::uint64_t> mask(static_cast<std::size_t>(row_words));
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      for (std::int64_t ox = 0; ox < ow; ++ox) {
        std::fill(mask.begin(), mask.end(), 0);
        std::int64_t npad = 0;
        for (int kh = 0; kh < g.kernel; ++kh) {
          for (int kw = 0; kw < g.kernel; ++kw) {
            const std::int64_t ih = oy * g.stride + kh - g.pad;
            const std::int64_t iw = ox * g.stride + kw - g.pad;
            if (ih < 0 || ih >= g.in_h || iw < 0 || iw >= g.in_w) {
              const std::int64_t bit =
                  (static_cast<std::int64_t>(kh) * g.kernel + kw) * g.in_c;
              for (std::int64_t c = 0; c < g.in_c; ++c) {
                mask[static_cast<std::size_t>((bit + c) / 64)] |=
                    1ULL << ((bit + c) % 64);
              }
              npad += g.in_c;
            }
          }
        }
        if (npad == 0) continue;
        for (std::int64_t m = 0; m < g.out_c; ++m) {
          const std::int64_t ones =
              bitops::dot_and_popc(w0.row(m), mask.data(), row_words);
          const std::int32_t corr =
              static_cast<std::int32_t>(2 * ones - npad);
          for (std::int64_t n = 0; n < g.batch; ++n) {
            y32(m, (n * oh + oy) * ow + ox) -= corr;
          }
        }
      }
    }
  }

  // BN / ReLU before pooling (the serial full-output double loop).
  if (epi.has_bn || epi.has_relu) {
    for (std::int64_t m = 0; m < geom.m; ++m) {
      for (std::int64_t col = 0; col < geom.n; ++col) {
        y32(m, col) = epi.apply(y32(m, col), m);
      }
    }
  }

  // Pooling (serial).
  Tensor<std::int32_t> pooled({geom.m, g.batch * pooled_h * pooled_w});
  if (pool.active()) {
    for (std::int64_t m = 0; m < geom.m; ++m) {
      for (std::int64_t n = 0; n < g.batch; ++n) {
        for (std::int64_t py = 0; py < pooled_h; ++py) {
          for (std::int64_t px = 0; px < pooled_w; ++px) {
            std::int64_t agg =
                pool.kind == PoolSpec::Kind::kMax ? INT64_MIN : 0;
            for (std::int64_t dy = 0; dy < win; ++dy) {
              for (std::int64_t dx = 0; dx < win; ++dx) {
                const std::int64_t col =
                    (n * oh + py * win + dy) * ow + (px * win + dx);
                const std::int32_t v = y32(m, col);
                if (pool.kind == PoolSpec::Kind::kMax) {
                  agg = std::max<std::int64_t>(agg, v);
                } else {
                  agg += v;
                }
              }
            }
            if (pool.kind == PoolSpec::Kind::kAvg) agg /= win * win;
            pooled(m, (n * pooled_h + py) * pooled_w + px) =
                static_cast<std::int32_t>(agg);
          }
        }
      }
    }
  } else {
    pooled = y32;
  }

  // Quantize + bit repack (serial).
  layout::PackedActivations out;
  out.n = g.batch;
  out.h = pooled_h;
  out.w = pooled_w;
  out.c = geom.m;
  out.bits = epi.quant.bits;
  out.planes.assign(
      static_cast<std::size_t>(epi.quant.bits),
      bitops::BitMatrix(g.batch * pooled_h * pooled_w, geom.m));
  for (std::int64_t m = 0; m < geom.m; ++m) {
    for (std::int64_t col = 0; col < g.batch * pooled_h * pooled_w; ++col) {
      const std::int32_t code = quant::quantize_value(
          static_cast<float>(pooled(m, col)), epi.quant);
      for (int bit = 0; bit < epi.quant.bits; ++bit) {
        if ((code >> bit) & 1) {
          out.planes[static_cast<std::size_t>(bit)].set(col, m, true);
        }
      }
    }
  }
  return out;
}

template <typename Fn>
double best_of_ms(int reps, Fn&& fn) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    WallTimer t;
    fn();
    best = std::min(best, t.millis());
  }
  return best;
}

}  // namespace
}  // namespace apnn

int main(int argc, char** argv) {
  using namespace apnn;
  const std::string out_path =
      argc > 1 ? argv[1] : "BENCH_apconv_hotpath.json";
  const int reps = argc > 2 ? std::atoi(argv[2]) : 5;

  // Reference shape: the paper's dominant scenario — a mid-network w1a2
  // (Case III) 3x3 conv stage with the full fused tail
  // (BN -> ReLU -> 2x2 maxpool -> 2-bit quantize -> repack).
  layout::ConvGeometry g;
  g.batch = 8;
  g.in_c = 64;
  g.in_h = g.in_w = 16;
  g.out_c = 128;
  g.kernel = 3;
  g.stride = 1;
  g.pad = 1;

  Rng rng(42);
  Tensor<std::int32_t> codes({g.batch, g.in_h, g.in_w, g.in_c});
  codes.randomize(rng, 0, 3);
  const layout::PackedActivations x =
      layout::pack_activations(codes, layout::DenseLayout::kNHWC, 2);

  Tensor<std::int32_t> w_ohwi({g.out_c, g.kernel, g.kernel, g.in_c});
  for (std::int64_t i = 0; i < w_ohwi.numel(); ++i) {
    w_ohwi[i] = rng.bernoulli(0.5) ? 1 : -1;
  }
  const core::ApOperand w =
      core::make_conv_weights(w_ohwi, core::Encoding::kSignedPM1, 1);

  core::Epilogue epi;
  epi.has_bn = true;
  epi.bn.scale.assign(static_cast<std::size_t>(g.out_c), 0.125f);
  epi.bn.bias.assign(static_cast<std::size_t>(g.out_c), -16.0f);
  epi.has_relu = true;
  epi.has_quant = true;
  epi.quant.bits = 2;
  epi.quant.scale = 24.0;
  core::PoolSpec pool;
  pool.kind = core::PoolSpec::Kind::kMax;
  pool.size = 2;

  const auto& dev = tcsim::rtx3090();
  const core::TileConfig tile =
      core::autotune_tile(g.gemm_m(), g.gemm_n(), g.gemm_k(), 1, 2, dev)
          .tile;
  core::ApconvOptions opts;
  opts.autotune = false;
  opts.tile = tile;

  // Correctness gate first: both paths must agree bit-exactly.
  const layout::PackedActivations ref =
      materialized_apconv(w, x, core::Encoding::kUnsigned01, g, tile, epi,
                          pool);
  const core::ApconvResult fused = core::apconv(
      w, x, core::Encoding::kUnsigned01, g, dev, opts, epi, pool);
  const Tensor<std::int32_t> ref_codes = layout::unpack_activations(ref);
  const Tensor<std::int32_t> fused_codes =
      layout::unpack_activations(fused.packed);
  if (ref_codes.numel() != fused_codes.numel()) {
    std::fprintf(stderr, "FATAL: output shape mismatch\n");
    return 1;
  }
  for (std::int64_t i = 0; i < ref_codes.numel(); ++i) {
    if (ref_codes[i] != fused_codes[i]) {
      std::fprintf(stderr, "FATAL: path mismatch at %lld: %d vs %d\n",
                   static_cast<long long>(i), ref_codes[i], fused_codes[i]);
      return 1;
    }
  }

  const double mat_ms = best_of_ms(reps, [&] {
    materialized_apconv(w, x, core::Encoding::kUnsigned01, g, tile, epi,
                        pool);
  });
  const double fused_ms = best_of_ms(reps, [&] {
    core::apconv(w, x, core::Encoding::kUnsigned01, g, dev, opts, epi, pool);
  });

  const double ops = 2.0 * static_cast<double>(g.macs());
  const double mat_gops = ops / (mat_ms * 1e6);
  const double fused_gops = ops / (fused_ms * 1e6);
  const double speedup = mat_ms / fused_ms;

  std::printf(
      "apconv hot path, w1a2 (Case III) %lldx%lldx%lldx%lld k%d s%d p%d, "
      "BN+ReLU+maxpool2+quant2\n",
      static_cast<long long>(g.batch), static_cast<long long>(g.in_h),
      static_cast<long long>(g.in_w), static_cast<long long>(g.in_c),
      g.kernel, g.stride, g.pad);
  std::printf("  gemm             : %lld x %lld x %lld\n",
              static_cast<long long>(g.gemm_m()),
              static_cast<long long>(g.gemm_n()),
              static_cast<long long>(g.gemm_k()));
  std::printf("  materialized path: %8.2f ms  (%7.2f Gop/s)\n", mat_ms,
              mat_gops);
  std::printf("  fused path       : %8.2f ms  (%7.2f Gop/s)\n", fused_ms,
              fused_gops);
  std::printf("  speedup          : %6.2fx\n", speedup);

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"apconv_hotpath\",\n"
               "  \"workload\": \"w1a2_case3_conv_bn_relu_maxpool2_quant2\",\n"
               "  \"batch\": %lld,\n  \"in_c\": %lld,\n  \"hw\": %lld,\n"
               "  \"out_c\": %lld,\n  \"kernel\": %d,\n"
               "  \"gemm_m\": %lld,\n  \"gemm_n\": %lld,\n  \"gemm_k\": %lld,\n"
               "  \"tile_bm\": %d,\n  \"tile_bn\": %d,\n"
               "  \"reps\": %d,\n"
               "  \"bit_exact\": true,\n"
               "  \"materialized_ms\": %.3f,\n"
               "  \"fused_ms\": %.3f,\n"
               "  \"materialized_gops\": %.2f,\n"
               "  \"fused_gops\": %.2f,\n"
               "  \"speedup\": %.3f\n"
               "}\n",
               static_cast<long long>(g.batch),
               static_cast<long long>(g.in_c),
               static_cast<long long>(g.in_h),
               static_cast<long long>(g.out_c), g.kernel,
               static_cast<long long>(g.gemm_m()),
               static_cast<long long>(g.gemm_n()),
               static_cast<long long>(g.gemm_k()), tile.bm, tile.bn, reps,
               mat_ms, fused_ms, mat_gops, fused_gops, speedup);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
