// Attention hot-path regression gate: the pre-session hand-built attention
// path (per-call apmm over dense-staged operands, the style of the old
// examples/nlp_attention head) vs the compiled InferenceSession plan family
// on the TinyTransformer workload, across every sequence bucket.
//
// The hand-built baseline is deliberately written the way attention ran
// before the session lowering existed: every GEMM re-packs its operands
// from dense codes with make_operand on every call, Q/K/V head windows are
// sliced out as dense copies, V is transposed element by element, the
// integer-softmax tail and every requantization run as serial dense loops,
// and each stage decodes back to dense before the next one repacks it.
// The session compiles the same arithmetic once per bucket: packed-operand
// chaining between stages, word-granular packed transpose for V, slab-owned
// buffers with no steady-state growth, and one plan lookup per run.
//
// Gates (tools/check_bench.py):
//   * bit_exact — hand-built, compiled, and the dense integer reference
//     agree on every bucket, and the slab's backing capacity is unchanged
//     by a second pass over all buckets (no steady-state slab growth);
//     any violation is a hard failure regardless of speed.
//   * speedup / speedup_seq* — compiled-vs-hand-built ratios per bucket
//     extreme and aggregate, gated against the checked-in baseline.
//
// The serving section drives one InferenceServer (one compiled plan family,
// never a recompile) with concurrent mixed-length requests spanning every
// bucket and verifies each response bit-exact against the padded reference.
//
// Usage: attention_hotpath [out.json] [reps]
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "src/common/timer.hpp"
#include "src/core/apmm.hpp"
#include "src/nn/apnn_network.hpp"
#include "src/nn/attention_math.hpp"
#include "src/nn/model.hpp"
#include "src/nn/server.hpp"
#include "src/nn/session.hpp"
#include "src/tcsim/device_spec.hpp"

namespace apnn {
namespace {

using nn::ApnnNetwork;
using nn::ApnnStage;
using nn::LayerKind;
using nn::LayerSpec;
using nn::ModelSpec;

// --- hand-built per-call attention forward ----------------------------------

Tensor<std::int32_t> apmm_dense(const core::ApOperand& w,
                                const Tensor<std::int32_t>& x_codes,
                                int x_bits, const tcsim::DeviceSpec& dev) {
  const core::ApOperand x =
      core::make_operand(x_codes, core::Encoding::kUnsigned01, x_bits);
  return core::apmm(w, x, dev).y;  // y(m, n) = sum_k W(m,k) X(n,k)
}

Tensor<std::int32_t> hand_attention(const LayerSpec& l, const ApnnStage& st,
                                    const Tensor<std::int32_t>& in,
                                    int abits, const tcsim::DeviceSpec& dev) {
  const std::int64_t batch = in.dim(0);
  const std::int64_t seq = in.dim(1);
  const std::int64_t d_model = in.dim(3);
  const int heads = l.attn.heads;
  const std::int64_t dh = l.attn.d_head;
  const std::int64_t proj = heads * dh;
  const std::int64_t tokens = batch * seq;
  const int shift = nn::attn_scale_shift(l.attn);
  const Tensor<std::int32_t> xf = in.reshaped({tokens, d_model});

  // Q/K/V projections: one apmm each (operands re-packed per call), then
  // serial relu + requantize into abits codes.
  auto project = [&](const core::ApOperand& w, const quant::QuantParams& qp) {
    const Tensor<std::int32_t> y = apmm_dense(w, xf, st.in_bits, dev);
    Tensor<std::int32_t> codes({tokens, proj});
    for (std::int64_t t = 0; t < tokens; ++t) {
      for (std::int64_t o = 0; o < proj; ++o) {
        codes(t, o) = quant::quantize_value(
            static_cast<float>(std::max(y(o, t), 0)), qp);
      }
    }
    return codes;
  };
  const Tensor<std::int32_t> q = project(st.weights, st.attn_q_quant);
  const Tensor<std::int32_t> k = project(st.attn_wk, st.attn_k_quant);
  const Tensor<std::int32_t> v = project(st.attn_wv, st.attn_v_quant);

  // Per (sample, head): dense-sliced score GEMM, integer softmax, and the
  // context GEMM over an element-wise V transpose.
  Tensor<std::int32_t> ctx({tokens, proj});
  for (std::int64_t b = 0; b < batch; ++b) {
    for (int h = 0; h < heads; ++h) {
      const std::int64_t col0 = h * dh;
      Tensor<std::int32_t> qh({seq, dh}), kh({seq, dh});
      for (std::int64_t i = 0; i < seq; ++i) {
        for (std::int64_t x = 0; x < dh; ++x) {
          qh(i, x) = q(b * seq + i, col0 + x);
          kh(i, x) = k(b * seq + i, col0 + x);
        }
      }
      const core::ApOperand qop =
          core::make_operand(qh, core::Encoding::kUnsigned01, abits);
      const Tensor<std::int32_t> scores = apmm_dense(qop, kh, abits, dev);

      Tensor<std::int32_t> attn({seq, seq});
      for (std::int64_t i = 0; i < seq; ++i) {
        nn::attn_softmax_row(&scores(i, 0), seq, shift, abits, &attn(i, 0));
      }

      Tensor<std::int32_t> vt({dh, seq});  // element-wise transpose
      for (std::int64_t j = 0; j < seq; ++j) {
        for (std::int64_t x = 0; x < dh; ++x) {
          vt(x, j) = v(b * seq + j, col0 + x);
        }
      }
      const core::ApOperand aop =
          core::make_operand(attn, core::Encoding::kUnsigned01, abits);
      const Tensor<std::int32_t> ch = apmm_dense(aop, vt, abits, dev);
      for (std::int64_t i = 0; i < seq; ++i) {
        for (std::int64_t x = 0; x < dh; ++x) {
          ctx(b * seq + i, col0 + x) = std::max(ch(i, x), 0);
        }
      }
    }
  }
  Tensor<std::int32_t> ctx_codes = ctx;
  for (std::int64_t i = 0; i < ctx.numel(); ++i) {
    ctx_codes[i] = quant::quantize_value(static_cast<float>(ctx[i]),
                                         st.attn_ctx_quant);
  }

  // Output projection back to d_model with the stage epilogue.
  const Tensor<std::int32_t> o = apmm_dense(st.attn_wo, ctx_codes, abits, dev);
  Tensor<std::int32_t> out({batch, seq, std::int64_t{1}, d_model});
  Tensor<std::int32_t> of = out.reshaped({tokens, d_model});
  for (std::int64_t t = 0; t < tokens; ++t) {
    for (std::int64_t c = 0; c < d_model; ++c) {
      of(t, c) = quant::quantize_value(
          static_cast<float>(std::max(o(c, t), 0)), st.epilogue.quant);
    }
  }
  return of.reshaped({batch, seq, std::int64_t{1}, d_model});
}

Tensor<std::int32_t> hand_forward(const ApnnNetwork& net,
                                  const Tensor<std::int32_t>& input_u8,
                                  const tcsim::DeviceSpec& dev) {
  const ModelSpec& spec = net.spec();
  std::vector<const ApnnStage*> stage_at(spec.layers.size(), nullptr);
  for (const ApnnStage& st : net.stages()) {
    stage_at[st.layer_index] = &st;
  }
  Tensor<std::int32_t> cur = input_u8;
  Tensor<std::int32_t> logits;
  for (std::size_t li = 0; li < spec.layers.size(); ++li) {
    const LayerSpec& l = spec.layers[li];
    switch (l.kind) {
      case LayerKind::kAttention:
        cur = hand_attention(l, *stage_at[li], cur, net.abits(), dev);
        break;
      case LayerKind::kPool: {  // global average over the token axis
        const std::int64_t b = cur.dim(0), h = cur.dim(1) * cur.dim(2),
                           c = cur.dim(3);
        Tensor<std::int32_t> y({b, std::int64_t{1}, std::int64_t{1}, c});
        for (std::int64_t n = 0; n < b; ++n) {
          for (std::int64_t ch = 0; ch < c; ++ch) {
            std::int64_t acc = 0;
            for (std::int64_t i = 0; i < h; ++i) {
              acc += cur(n, i / cur.dim(2), i % cur.dim(2), ch);
            }
            y(n, 0, 0, ch) = static_cast<std::int32_t>(acc / h);
          }
        }
        cur = y;
        break;
      }
      case LayerKind::kLinear: {
        const ApnnStage& st = *stage_at[li];
        const std::int64_t b = cur.dim(0);
        const Tensor<std::int32_t> xf = cur.reshaped({b, cur.numel() / b});
        const Tensor<std::int32_t> y = apmm_dense(st.weights, xf,
                                                  st.in_bits, dev);
        Tensor<std::int32_t> out({b, l.out_features});
        for (std::int64_t n = 0; n < b; ++n) {
          for (std::int64_t o = 0; o < l.out_features; ++o) {
            std::int32_t val = st.epilogue.apply(y(o, n), o);
            if (st.epilogue.has_quant) {
              val = quant::quantize_value(static_cast<float>(val),
                                          st.epilogue.quant);
            }
            out(n, o) = val;
          }
        }
        cur = out;
        logits = cur;
        break;
      }
      case LayerKind::kSoftmax:
        break;  // logits returned raw
      default:
        APNN_CHECK(false) << "hand-built path: unexpected layer kind in "
                          << spec.name;
    }
  }
  return logits;
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
      argc > 1 ? argv[1] : "BENCH_attention_hotpath.json";
  const int reps = argc > 2 ? std::atoi(argv[2]) : 3;

  const nn::ModelSpec spec = nn::tiny_transformer();
  nn::ApnnNetwork net = nn::ApnnNetwork::random(spec, 1, 2, 42);
  Rng rng(43);
  Tensor<std::int32_t> calib({2, spec.input.h, spec.input.w, spec.input.c});
  calib.randomize(rng, 0, 255);
  net.calibrate(calib);
  const auto& dev = tcsim::rtx3090();

  nn::InferenceSession session(net, dev);

  // Correctness gate across every bucket: reference == hand-built ==
  // compiled, and a second full pass over the plan family must not grow the
  // slab (no steady-state slab growth).
  std::vector<Tensor<std::int32_t>> inputs;
  for (const std::int64_t seq : spec.seq_buckets) {
    Tensor<std::int32_t> in({1, seq, 1, spec.input.c});
    in.randomize(rng, 0, 255);
    inputs.push_back(std::move(in));
  }
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const Tensor<std::int32_t> ref = net.forward_reference(inputs[i]);
    const Tensor<std::int32_t> hand = hand_forward(net, inputs[i], dev);
    const Tensor<std::int32_t> sess = session.run(inputs[i]);
    if (!(hand == ref)) {
      std::fprintf(stderr, "FATAL: hand-built path mismatches reference at "
                           "seq %lld\n",
                   static_cast<long long>(spec.seq_buckets[i]));
      return 1;
    }
    if (!(sess == ref)) {
      std::fprintf(stderr, "FATAL: compiled session mismatches reference at "
                           "seq %lld\n",
                   static_cast<long long>(spec.seq_buckets[i]));
      return 1;
    }
  }
  const std::size_t slab_bytes = session.slab().capacity_bytes();
  for (const auto& in : inputs) session.run(in);
  if (session.slab().capacity_bytes() != slab_bytes) {
    std::fprintf(stderr, "FATAL: slab grew across a steady-state pass "
                         "(%zu -> %zu bytes)\n",
                 slab_bytes, session.slab().capacity_bytes());
    return 1;
  }

  // Timed section: smallest and largest bucket, plus the aggregate over
  // both (one ratio that moves if either end regresses).
  const Tensor<std::int32_t>& in_small = inputs.front();
  const Tensor<std::int32_t>& in_large = inputs.back();
  const double hand_small_ms =
      best_of_ms(reps, [&] { hand_forward(net, in_small, dev); });
  const double hand_large_ms =
      best_of_ms(reps, [&] { hand_forward(net, in_large, dev); });
  const double sess_small_ms =
      best_of_ms(reps, [&] { session.run(in_small); });
  const double sess_large_ms =
      best_of_ms(reps, [&] { session.run(in_large); });
  const double speedup_small = hand_small_ms / sess_small_ms;
  const double speedup_large = hand_large_ms / sess_large_ms;
  const double speedup =
      (hand_small_ms + hand_large_ms) / (sess_small_ms + sess_large_ms);

  // Serving drill: one server (one compiled plan family), concurrent
  // requests spanning every bucket plus off-bucket lengths. Each response
  // must be bit-exact vs the reference on the same zero-padded input.
  const std::vector<std::int64_t> lengths = {20, 32, 48, 64, 100,
                                             128, 256, 300, 512};
  std::vector<Tensor<std::int32_t>> samples, expected;
  for (const std::int64_t seq : lengths) {
    Tensor<std::int32_t> s({1, seq, 1, spec.input.c});
    s.randomize(rng, 0, 255);
    std::int64_t bucket = spec.seq_buckets.back();
    for (const std::int64_t b : spec.seq_buckets) {
      if (b >= seq) { bucket = b; break; }
    }
    Tensor<std::int32_t> padded({1, bucket, 1, spec.input.c});
    padded.fill(0);
    for (std::int64_t i = 0; i < s.numel(); ++i) padded[i] = s[i];
    expected.push_back(net.forward_reference(padded));
    samples.push_back(std::move(s));
  }

  nn::ServerOptions sopts;
  sopts.max_batch = 4;
  sopts.batch_window = std::chrono::microseconds(2000);
  nn::InferenceServer server(net, dev, sopts);
  const int client_threads = 4, rounds = 2;
  std::atomic<int> serve_mismatches{0};
  WallTimer serve_timer;
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < client_threads; ++c) {
      clients.emplace_back([&, c] {
        for (int r = 0; r < rounds; ++r) {
          for (std::size_t i = 0; i < samples.size(); ++i) {
            const std::size_t pick = (i + static_cast<std::size_t>(c)) %
                                     samples.size();
            // infer() returns {classes}; the reference returns {1, classes}.
            const Tensor<std::int32_t> got = server.infer(samples[pick]);
            const Tensor<std::int32_t>& want = expected[pick];
            bool same = got.numel() == want.numel();
            for (std::int64_t e = 0; same && e < got.numel(); ++e) {
              same = got[e] == want[e];
            }
            if (!same) ++serve_mismatches;
          }
        }
      });
    }
    for (auto& t : clients) t.join();
  }
  const double serve_ms = serve_timer.millis();
  const auto stats = server.stats();
  if (serve_mismatches.load() != 0) {
    std::fprintf(stderr, "FATAL: %d mixed-length serving responses "
                         "mismatched the padded reference\n",
                 serve_mismatches.load());
    return 1;
  }
  const double serve_rps =
      static_cast<double>(stats.requests) / (serve_ms / 1000.0);

  std::printf("attention hot path, %s w1a2, buckets %lld..%lld\n",
              spec.name.c_str(),
              static_cast<long long>(spec.seq_buckets.front()),
              static_cast<long long>(spec.seq_buckets.back()));
  std::printf("  seq %4lld: hand %8.2f ms | session %8.2f ms | %5.2fx\n",
              static_cast<long long>(spec.seq_buckets.front()),
              hand_small_ms, sess_small_ms, speedup_small);
  std::printf("  seq %4lld: hand %8.2f ms | session %8.2f ms | %5.2fx\n",
              static_cast<long long>(spec.seq_buckets.back()),
              hand_large_ms, sess_large_ms, speedup_large);
  std::printf("  aggregate speedup   : %5.2fx\n", speedup);
  std::printf("  plan family         : %zu plans, %zu slots, %.1f KiB slab\n",
              session.plan_count(), session.slot_count(),
              static_cast<double>(slab_bytes) / 1024.0);
  std::printf("  mixed-length serving: %lld requests in %lld batches "
              "(max batch %lld), %.1f req/s\n",
              static_cast<long long>(stats.requests),
              static_cast<long long>(stats.batches),
              static_cast<long long>(stats.max_batch), serve_rps);

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"attention_hotpath\",\n"
               "  \"workload\": \"tiny_transformer_w1a2_buckets\",\n"
               "  \"buckets\": %zu,\n"
               "  \"reps\": %d,\n"
               "  \"bit_exact\": %s,\n"
               "  \"hand_seq32_millis\": %.3f,\n"
               "  \"session_seq32_millis\": %.3f,\n"
               "  \"hand_seq512_millis\": %.3f,\n"
               "  \"session_seq512_millis\": %.3f,\n"
               "  \"speedup_seq32\": %.3f,\n"
               "  \"speedup_seq512\": %.3f,\n"
               "  \"speedup\": %.3f,\n"
               "  \"plans\": %zu,\n"
               "  \"slots\": %zu,\n"
               "  \"slab_bytes\": %zu,\n"
               "  \"serve_requests\": %lld,\n"
               "  \"serve_batches\": %lld,\n"
               "  \"serve_max_batch\": %lld,\n"
               "  \"serve_rps\": %.1f\n"
               "}\n",
               spec.seq_buckets.size(), reps, "true", hand_small_ms,
               sess_small_ms, hand_large_ms, sess_large_ms, speedup_small,
               speedup_large, speedup, session.plan_count(),
               session.slot_count(), slab_bytes,
               static_cast<long long>(stats.requests),
               static_cast<long long>(stats.batches),
               static_cast<long long>(stats.max_batch), serve_rps);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
