// Domain example: arbitrary-precision attention (the paper's §7 claim that
// APNN-TC generalizes beyond vision because attention and feed-forward
// layers are GEMMs and dot products).
//
// Two views of the same arithmetic:
//
//   1. A hand-built quantized self-attention head wired directly out of
//      apmm() calls — the Q/K/V projections as APMM-w1a2 with quantizing
//      epilogues, the score GEMM Q·Kᵀ over packed codes, an integer softmax
//      approximation, and the value aggregation over a word-granular packed
//      transpose (layout::transpose_planes). Every GEMM is verified against
//      the dense integer reference; this is the differential golden the
//      compiled path below must match step for step.
//   2. The compiled path: nn::tiny_transformer lowered by an
//      InferenceSession into a dynamic-shape plan family (one plan per
//      sequence bucket), serving token batches of any length in
//      [1, max bucket] with no steady-state slab growth — checked
//      bit-exact against ApnnNetwork::forward_reference per bucket.
//
//   build/examples/nlp_attention
#include <algorithm>
#include <cstdio>

#include "src/baselines/gemm.hpp"
#include "src/common/rng.hpp"
#include "src/core/apmm.hpp"
#include "src/layout/bit_transpose.hpp"
#include "src/nn/apnn_network.hpp"
#include "src/nn/session.hpp"
#include "src/tcsim/cost_model.hpp"

using namespace apnn;

namespace {

Tensor<std::int32_t> naive_gemm(const Tensor<std::int32_t>& a,
                                const Tensor<std::int32_t>& b) {
  Tensor<std::int32_t> y({a.dim(0), b.dim(0)});
  for (std::int64_t i = 0; i < a.dim(0); ++i) {
    for (std::int64_t j = 0; j < b.dim(0); ++j) {
      std::int64_t acc = 0;
      for (std::int64_t k = 0; k < a.dim(1); ++k) acc += a(i, k) * b(j, k);
      y(i, j) = static_cast<std::int32_t>(acc);
    }
  }
  return y;
}

// --- 1. hand-built head (per-call apmm, the differential golden) ------------

int hand_built_head(const tcsim::DeviceSpec& dev, const tcsim::CostModel& cm) {
  const std::int64_t seq = 128, d_model = 256, d_head = 64;
  const int abits = 2;
  Rng rng(42);

  // Quantized token activations (2-bit codes) and ±1 projection weights.
  Tensor<std::int32_t> x({seq, d_model});
  x.randomize(rng, 0, (1 << abits) - 1);
  auto pm1 = [&](std::int64_t rows, std::int64_t cols) {
    Tensor<std::int32_t> w({rows, cols});
    for (std::int64_t i = 0; i < w.numel(); ++i) {
      w[i] = rng.bernoulli(0.5) ? 1 : -1;
    }
    return w;
  };
  const Tensor<std::int32_t> wq = pm1(d_head, d_model);
  const Tensor<std::int32_t> wk = pm1(d_head, d_model);

  const core::ApOperand xop =
      core::make_operand(x, core::Encoding::kUnsigned01, abits);
  tcsim::SequenceProfile head_profile;
  int mismatches = 0;

  // Q/K projections: w1a2 APMM with a quantizing epilogue so the score GEMM
  // consumes packed planes directly (minimal-traffic dataflow).
  core::Epilogue proj_epi;
  proj_epi.has_relu = true;
  proj_epi.has_quant = true;
  proj_epi.quant.bits = abits;
  proj_epi.quant.scale = d_model / 2.0;

  auto project = [&](const Tensor<std::int32_t>& w_logical) {
    const core::ApOperand w =
        core::make_operand(w_logical, core::Encoding::kSignedPM1, 1);
    core::ApmmResult r = core::apmm(w, xop, dev, {}, proj_epi);
    head_profile.add(r.profile);
    core::ApOperand out;  // seq x d_head packed codes
    out.planes = std::move(r.packed);
    out.encoding = core::Encoding::kUnsigned01;
    // Verify against the dense pipeline.
    const Tensor<std::int32_t> dense = naive_gemm(w_logical, x);
    const auto codes = core::operand_to_logical(out);
    for (std::int64_t s = 0; s < seq; ++s) {
      for (std::int64_t h = 0; h < d_head; ++h) {
        const std::int32_t expect = quant::quantize_value(
            static_cast<float>(std::max(dense(h, s), 0)), proj_epi.quant);
        if (codes(s, h) != expect) ++mismatches;
      }
    }
    return out;
  };

  const core::ApOperand q = project(wq);
  const core::ApOperand k = project(wk);

  // Scores: S = Q Kᵀ — a q-bit x q-bit APMM (Case I) over seq x seq.
  core::ApmmResult scores = core::apmm(q, k, dev);
  head_profile.add(scores.profile);
  if (scores.y != naive_gemm(core::operand_to_logical(q),
                             core::operand_to_logical(k))) {
    ++mismatches;
  }

  // Integer "softmax": shift-based normalization + re-quantization to
  // abits codes (row-wise max-normalized), then V aggregation as APMM.
  Tensor<std::int32_t> attn({seq, seq});
  for (std::int64_t i = 0; i < seq; ++i) {
    std::int32_t row_max = scores.y(i, 0);
    for (std::int64_t j = 1; j < seq; ++j) {
      row_max = std::max(row_max, scores.y(i, j));
    }
    const std::int32_t span = std::max(1, row_max);
    for (std::int64_t j = 0; j < seq; ++j) {
      const std::int32_t v = std::max(scores.y(i, j), 0);
      attn(i, j) = std::min<std::int32_t>(
          (1 << abits) - 1,
          v * (1 << abits) / (span + 1));
    }
  }
  const core::ApOperand attn_op =
      core::make_operand(attn, core::Encoding::kUnsigned01, abits);
  const Tensor<std::int32_t> wv_logical = pm1(d_head, d_model);
  const core::ApOperand wv =
      core::make_operand(wv_logical, core::Encoding::kSignedPM1, 1);
  core::ApmmResult v = core::apmm(wv, xop, dev, {}, proj_epi);
  head_profile.add(v.profile);
  core::ApOperand v_op;
  v_op.planes = std::move(v.packed);
  v_op.encoding = core::Encoding::kUnsigned01;
  // Context = Attn · V: apmm contracts both operands along their column
  // (K) dimension, so V's seq x d_head packed planes become the d_head x
  // seq operand via the word-granular packed transpose — no decode to
  // dense codes, no bit-by-bit get/set loop.
  core::ApOperand vt_op;
  vt_op.encoding = core::Encoding::kUnsigned01;
  layout::transpose_planes(v_op.planes, vt_op.planes);
  const Tensor<std::int32_t> v_t = core::operand_to_logical(vt_op);
  core::ApmmResult context = core::apmm(attn_op, vt_op, dev);
  head_profile.add(context.profile);
  if (context.y != naive_gemm(attn, v_t)) ++mismatches;

  std::printf("hand-built attention head (seq=%ld, d_model=%ld, d_head=%ld, "
              "w1a%d): %d mismatches vs integer reference\n",
              seq, d_model, d_head, abits, mismatches);

  // Price against fp16 / int8 heads (same four projections + two GEMMs).
  const double t_ap = cm.estimate(head_profile).total_us;
  auto baseline_head = [&](tcsim::Precision prec, bool cublas) {
    tcsim::SequenceProfile p;
    for (int i = 0; i < 3; ++i) {  // Q, K, V projections
      p.add(cublas ? baselines::cublas_gemm_int8_profile(d_head, seq, d_model)
                   : baselines::cutlass_gemm_profile(prec, d_head, seq,
                                                     d_model));
    }
    p.add(cublas ? baselines::cublas_gemm_int8_profile(seq, seq, d_head)
                 : baselines::cutlass_gemm_profile(prec, seq, seq, d_head));
    p.add(cublas ? baselines::cublas_gemm_int8_profile(seq, d_head, seq)
                 : baselines::cutlass_gemm_profile(prec, seq, d_head, seq));
    return cm.estimate(p).total_us;
  };
  const double t_fp16 = baseline_head(tcsim::Precision::kFp16, false);
  const double t_int8 = baseline_head(tcsim::Precision::kInt8, true);
  std::printf("modeled head latency on %s:\n", dev.name.c_str());
  std::printf("  APNN-w1a2  %7.2f us\n", t_ap);
  std::printf("  fp16       %7.2f us  (%.2fx slower)\n", t_fp16,
              t_fp16 / t_ap);
  std::printf("  int8       %7.2f us  (%.2fx slower)\n", t_int8,
              t_int8 / t_ap);
  return mismatches;
}

// --- 2. compiled plan family (tiny_transformer through a session) -----------

int compiled_transformer(const tcsim::DeviceSpec& dev) {
  const nn::ModelSpec spec = nn::tiny_transformer();
  nn::ApnnNetwork net = nn::ApnnNetwork::random(spec, 1, 2, /*seed=*/7);
  Rng rng(11);
  Tensor<std::int32_t> calib(
      {2, spec.input.h, spec.input.w, spec.input.c});
  calib.randomize(rng, 0, 255);
  net.calibrate(calib);

  nn::InferenceSession session(net, dev);
  std::printf("\ncompiled %s: %zu plans (one per bucket), %zu slab slots, "
              "%zu steps in the default plan\n",
              spec.name.c_str(), session.plan_count(), session.slot_count(),
              session.step_count());

  // Serve one request per bucket plus two off-bucket lengths (padded up by
  // the session) and check each against the dense integer reference on the
  // same padded input.
  int mismatches = 0;
  std::vector<std::int64_t> lengths = spec.seq_buckets;
  lengths.push_back(20);   // pads up to 32
  lengths.push_back(100);  // pads up to 128
  for (const std::int64_t seq : lengths) {
    Tensor<std::int32_t> tokens({1, seq, 1, spec.input.c});
    tokens.randomize(rng, 0, 255);
    const Tensor<std::int32_t> got = session.run(tokens);

    std::int64_t bucket = spec.seq_buckets.back();
    for (const std::int64_t b : spec.seq_buckets) {
      if (b >= seq) {
        bucket = b;
        break;
      }
    }
    Tensor<std::int32_t> padded({1, bucket, 1, spec.input.c});
    padded.fill(0);
    for (std::int64_t i = 0; i < tokens.numel(); ++i) padded[i] = tokens[i];
    const Tensor<std::int32_t> want = net.forward_reference(padded);
    const bool ok = got == want;
    if (!ok) ++mismatches;
    std::printf("  seq %4ld -> bucket %4ld: %s\n", seq, bucket,
                ok ? "bit-exact vs reference" : "MISMATCH");
  }
  return mismatches;
}

}  // namespace

int main() {
  const auto& dev = tcsim::rtx3090();
  const tcsim::CostModel cm(dev);
  int mismatches = hand_built_head(dev, cm);
  mismatches += compiled_transformer(dev);
  return mismatches == 0 ? 0 : 1;
}
