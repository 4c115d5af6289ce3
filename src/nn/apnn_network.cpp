#include "src/nn/apnn_network.hpp"

#include <algorithm>
#include <map>

#include "src/common/check.hpp"
#include "src/nn/attention_math.hpp"
#include "src/nn/session.hpp"
#include "src/quant/quantizer.hpp"

namespace apnn::nn {

namespace {

using core::Encoding;
using core::Epilogue;
using core::PoolSpec;

/// Integer max/avg pooling on a dense NHWC tensor. size == 0 pools the
/// whole spatial extent down to 1x1 (global pooling).
Tensor<std::int32_t> pool_dense(const Tensor<std::int32_t>& x,
                                const PoolSpec& pool) {
  const std::int64_t b = x.dim(0), h = x.dim(1), w = x.dim(2), c = x.dim(3);
  const std::int64_t win_h = pool.size == 0 ? h : pool.size;
  const std::int64_t win_w = pool.size == 0 ? w : pool.size;
  const std::int64_t ph = h / win_h, pw = w / win_w;
  Tensor<std::int32_t> y({b, ph, pw, c});
  for (std::int64_t n = 0; n < b; ++n) {
    for (std::int64_t py = 0; py < ph; ++py) {
      for (std::int64_t px = 0; px < pw; ++px) {
        for (std::int64_t ch = 0; ch < c; ++ch) {
          std::int64_t agg =
              pool.kind == PoolSpec::Kind::kMax ? INT64_MIN : 0;
          for (std::int64_t dy = 0; dy < win_h; ++dy) {
            for (std::int64_t dx = 0; dx < win_w; ++dx) {
              const std::int32_t v =
                  x(n, py * win_h + dy, px * win_w + dx, ch);
              if (pool.kind == PoolSpec::Kind::kMax) {
                agg = std::max<std::int64_t>(agg, v);
              } else {
                agg += v;
              }
            }
          }
          if (pool.kind == PoolSpec::Kind::kAvg) {
            agg /= win_h * win_w;
          }
          y(n, py, px, ch) = static_cast<std::int32_t>(agg);
        }
      }
    }
  }
  return y;
}

}  // namespace

ApnnNetwork ApnnNetwork::random_binary(const ModelSpec& spec,
                                       std::uint64_t seed) {
  for (const auto& l : spec.layers) {
    APNN_CHECK(l.kind != LayerKind::kAttention)
        << "binary (±1 activation) networks do not support attention";
  }
  ApnnNetwork net = random(spec, 1, 1, seed);
  net.binary_ = true;
  for (std::size_t si = 1; si < net.stages_.size(); ++si) {
    net.stages_[si].in_enc = Encoding::kSignedPM1;
    APNN_CHECK(net.stages_[si].in_bits == 1);
  }
  // Every quantize must fold into a stage tail (values between stages stay
  // packed ±1 codes; dense binary intermediates are not supported).
  for (std::size_t li = 0; li < spec.layers.size(); ++li) {
    if (spec.layers[li].kind != LayerKind::kQuantize) continue;
    bool absorbed = false;
    for (const auto& st : net.stages_) {
      for (std::size_t j : st.absorbed) absorbed |= j == li;
    }
    APNN_CHECK(absorbed) << "binary networks need fully fused tails ("
                         << spec.layers[li].name << " is standalone)";
  }
  return net;
}

ApnnNetwork ApnnNetwork::random(const ModelSpec& spec, int wbits, int abits,
                                std::uint64_t seed) {
  APNN_CHECK(wbits >= 1 && wbits <= 8 && abits >= 1 && abits <= 8);
  ApnnNetwork net;
  net.spec_ = spec;
  net.shapes_ = propagate_shapes(spec);
  net.wbits_ = wbits;
  net.abits_ = abits;
  Rng rng(seed);

  const Encoding w_enc =
      wbits == 1 ? Encoding::kSignedPM1 : Encoding::kUnsigned01;
  auto random_weights = [&](Tensor<std::int32_t>& t, std::int64_t rows,
                            std::int64_t cols) {
    t = Tensor<std::int32_t>({rows, cols});
    for (std::int64_t i = 0; i < t.numel(); ++i) {
      t[i] = wbits == 1 ? (rng.bernoulli(0.5) ? 1 : -1)
                        : static_cast<std::int32_t>(
                              rng.uniform_int(0, (1 << wbits) - 1));
    }
  };

  for (std::size_t li = 0; li < spec.layers.size(); ++li) {
    const LayerSpec& l = spec.layers[li];
    if (l.kind == LayerKind::kAttention) {
      const ActShape in = li == 0 ? spec.input : net.shapes_[li - 1];
      const std::int64_t d_model = in.c;
      const std::int64_t proj = l.attn.heads * l.attn.d_head;
      ApnnStage st;
      st.layer_index = li;
      random_weights(st.weights_logical, proj, d_model);  // Q
      random_weights(st.attn_wk_logical, proj, d_model);
      random_weights(st.attn_wv_logical, proj, d_model);
      random_weights(st.attn_wo_logical, d_model, proj);
      st.weights = core::make_operand(st.weights_logical, w_enc, wbits);
      st.attn_wk = core::make_operand(st.attn_wk_logical, w_enc, wbits);
      st.attn_wv = core::make_operand(st.attn_wv_logical, w_enc, wbits);
      st.attn_wo = core::make_operand(st.attn_wo_logical, w_enc, wbits);
      // Attention stages always emit abits codes (the internal stages need
      // packed operands); calibrate() fills in the five quantizer scales.
      st.epilogue.has_relu = true;
      st.epilogue.has_quant = true;
      st.epilogue.quant.bits = abits;
      st.attn_q_quant.bits = abits;
      st.attn_k_quant.bits = abits;
      st.attn_v_quant.bits = abits;
      st.attn_ctx_quant.bits = abits;
      st.in_bits = net.stages_.empty() ? 8 : abits;
      net.stages_.push_back(std::move(st));
      continue;
    }
    if (l.kind != LayerKind::kConv && l.kind != LayerKind::kLinear) continue;
    ApnnStage st;
    st.layer_index = li;
    const TailScan tail = scan_tail(spec, li);
    st.absorbed = tail.absorbed;
    st.pool = tail.pool;

    // Logical weights.
    std::int64_t rows, cols;
    if (l.kind == LayerKind::kConv) {
      const layout::ConvGeometry g = conv_geometry(spec, net.shapes_, li, 1);
      rows = g.out_c;
      cols = g.gemm_k();
    } else {
      const ActShape in =
          li == 0 ? spec.input : net.shapes_[li - 1];
      rows = l.out_features;
      cols = in.numel();
    }
    st.weights_logical = Tensor<std::int32_t>({rows, cols});
    for (std::int64_t i = 0; i < st.weights_logical.numel(); ++i) {
      st.weights_logical[i] =
          wbits == 1 ? (rng.bernoulli(0.5) ? 1 : -1)
                     : static_cast<std::int32_t>(
                           rng.uniform_int(0, (1 << wbits) - 1));
    }
    st.weights = core::make_operand(st.weights_logical, w_enc, wbits);

    // Epilogue skeleton; quantization scales are set by calibrate().
    if (tail.has_bn) {
      st.epilogue.has_bn = true;
      st.epilogue.bn.scale.resize(static_cast<std::size_t>(rows));
      st.epilogue.bn.bias.resize(static_cast<std::size_t>(rows));
      for (std::int64_t c = 0; c < rows; ++c) {
        st.epilogue.bn.scale[static_cast<std::size_t>(c)] =
            static_cast<float>(rng.uniform(0.5, 1.5));
        st.epilogue.bn.bias[static_cast<std::size_t>(c)] =
            static_cast<float>(rng.uniform(-4.0, 4.0));
      }
    }
    st.epilogue.has_relu = tail.has_relu;
    st.epilogue.has_quant = tail.has_quant;
    st.epilogue.quant.bits = abits;
    st.in_bits = net.stages_.empty() ? 8 : abits;
    net.stages_.push_back(std::move(st));
  }
  return net;
}

Tensor<std::int32_t> ApnnNetwork::quantize_input(
    const Tensor<std::int32_t>& u8) const {
  // The int8 image feeds the first layer directly as 8-bit activations
  // (§5.1): the first stage's epilogue produces the abits-quantized feature
  // map for the intermediate layers.
  for (std::int64_t i = 0; i < u8.numel(); ++i) {
    APNN_CHECK(u8[i] >= 0 && u8[i] <= 255) << "input must be uint8 codes";
  }
  return u8;
}

namespace {

/// Shared walk used by forward_reference() and calibrate(). It reads the
/// network's stages in place; when calibrating, quantization parameters are
/// (re)derived from the observed pre-quantization value range at each
/// quantize point and written through the calibration targets.
struct ReferenceWalker {
  const ModelSpec& spec;
  const std::vector<ActShape>& shapes;
  const std::vector<ApnnStage>& stages;
  const std::map<std::size_t, quant::QuantParams>& standalone_quant;
  int abits;
  bool binary;  ///< ±1 networks: decode codes to -1/+1 post-quant
  /// Calibration targets, aliasing `stages` and `standalone_quant`; both
  /// null for the read-only forward_reference() walk.
  std::vector<ApnnStage>* calib_stages = nullptr;
  std::map<std::size_t, quant::QuantParams>* calib_quant = nullptr;

  bool calibrating() const { return calib_stages != nullptr; }

  quant::QuantParams derive_params(const Tensor<std::int32_t>& x) const {
    std::vector<float> vals(static_cast<std::size_t>(x.numel()));
    for (std::int64_t i = 0; i < x.numel(); ++i) {
      vals[static_cast<std::size_t>(i)] = static_cast<float>(x[i]);
    }
    return quant::choose_uniform_params(vals, abits);
  }

  Tensor<std::int32_t> run(const Tensor<std::int32_t>& input_codes) {
    std::vector<Tensor<std::int32_t>> vals(spec.layers.size());
    std::map<std::size_t, const ApnnStage*> stage_at;
    std::map<std::size_t, std::size_t> stage_idx_at;
    for (std::size_t si = 0; si < stages.size(); ++si) {
      stage_at[stages[si].layer_index] = &stages[si];
      stage_idx_at[stages[si].layer_index] = si;
    }
    std::vector<bool> consumed(spec.layers.size(), false);
    Tensor<std::int32_t> logits;

    for (std::size_t li = 0; li < spec.layers.size(); ++li) {
      if (consumed[li]) continue;
      const LayerSpec& l = spec.layers[li];
      const Tensor<std::int32_t>& in =
          l.input >= 0 ? vals[static_cast<std::size_t>(l.input)]
                       : (li == 0 ? input_codes : vals[li - 1]);

      switch (l.kind) {
        case LayerKind::kConv: {
          const std::size_t si = stage_idx_at.at(li);
          const ApnnStage& st = stages[si];
          const layout::ConvGeometry g =
              conv_geometry(spec, shapes, li, in.dim(0));
          const Tensor<std::int32_t> w_ohwi = st.weights_logical.reshaped(
              {g.out_c, g.kernel, g.kernel, g.in_c});
          Tensor<std::int32_t> y = core::conv2d_reference(in, w_ohwi, g);
          // BN / ReLU, truncated to int32 (Epilogue::apply).
          for (std::int64_t i = 0; i < y.numel(); ++i) {
            y[i] = st.epilogue.apply(y[i], i % g.out_c);
          }
          if (st.pool.active()) y = pool_dense(y, st.pool);
          Tensor<std::int32_t> out = y;
          if (st.epilogue.has_quant) {
            if (calibrating()) {
              (*calib_stages)[si].epilogue.quant = derive_params(y);
            }
            for (std::int64_t i = 0; i < y.numel(); ++i) {
              const std::int32_t code = quant::quantize_value(
                  static_cast<float>(y[i]), st.epilogue.quant);
              out[i] = binary ? 2 * code - 1 : code;
            }
          }
          vals[li] = out;
          for (std::size_t j : st.absorbed) {
            vals[j] = out;
            consumed[j] = true;
          }
          break;
        }
        case LayerKind::kLinear: {
          const std::size_t si = stage_idx_at.at(li);
          const ApnnStage& st = stages[si];
          const std::int64_t batch = in.dim(0);
          const Tensor<std::int32_t> xf =
              in.reshaped({batch, in.numel() / batch});
          const std::int64_t out_f = l.out_features;
          Tensor<std::int32_t> y({batch, out_f});
          for (std::int64_t b = 0; b < batch; ++b) {
            for (std::int64_t o = 0; o < out_f; ++o) {
              std::int64_t acc = 0;
              for (std::int64_t f = 0; f < xf.dim(1); ++f) {
                acc += static_cast<std::int64_t>(xf(b, f)) *
                       st.weights_logical(o, f);
              }
              y(b, o) = static_cast<std::int32_t>(acc);
            }
          }
          for (std::int64_t b = 0; b < batch; ++b) {
            for (std::int64_t o = 0; o < out_f; ++o) {
              y(b, o) = st.epilogue.apply(y(b, o), o);
            }
          }
          Tensor<std::int32_t> out = y;
          if (st.epilogue.has_quant) {
            if (calibrating()) {
              (*calib_stages)[si].epilogue.quant = derive_params(y);
            }
            for (std::int64_t i = 0; i < y.numel(); ++i) {
              const std::int32_t code = quant::quantize_value(
                  static_cast<float>(y[i]), st.epilogue.quant);
              out[i] = binary ? 2 * code - 1 : code;
            }
          }
          vals[li] = out;
          for (std::size_t j : st.absorbed) {
            vals[j] = out;
            consumed[j] = true;
          }
          logits = out;
          break;
        }
        case LayerKind::kBatchNorm:
          // A BN that did not fuse into a conv/linear tail has no
          // parameters anywhere — treating it as identity would silently
          // produce wrong numbers on non-zoo specs.
          APNN_CHECK(false)
              << "standalone BatchNorm layer '" << l.name
              << "' is not executable: it has no parameters outside a "
                 "conv/linear epilogue — restructure the spec so the BN "
                 "directly follows a conv/linear (where it fuses into the "
                 "stage tail)";
          break;
        case LayerKind::kReLU: {
          Tensor<std::int32_t> y = in;
          for (std::int64_t i = 0; i < y.numel(); ++i) {
            y[i] = std::max(y[i], 0);
          }
          vals[li] = std::move(y);
          break;
        }
        case LayerKind::kPool:
          vals[li] = pool_dense(in, l.pool);
          break;
        case LayerKind::kQuantize: {
          if (calibrating()) (*calib_quant)[li] = derive_params(in);
          const auto it = standalone_quant.find(li);
          APNN_CHECK(it != standalone_quant.end())
              << "standalone quantize layer " << l.name << " not calibrated";
          Tensor<std::int32_t> y = in;
          for (std::int64_t i = 0; i < y.numel(); ++i) {
            y[i] = quant::quantize_value(static_cast<float>(in[i]),
                                         it->second);
          }
          vals[li] = std::move(y);
          break;
        }
        case LayerKind::kResidualAdd: {
          const Tensor<std::int32_t>& other =
              vals[static_cast<std::size_t>(l.residual)];
          APNN_CHECK(other.numel() == in.numel());
          Tensor<std::int32_t> y = in;
          for (std::int64_t i = 0; i < y.numel(); ++i) y[i] += other[i];
          vals[li] = std::move(y);
          break;
        }
        case LayerKind::kSoftmax:
          vals[li] = in;  // logits are returned raw (softmax is monotonic)
          break;
        case LayerKind::kAttention: {
          const std::size_t si = stage_idx_at.at(li);
          const ApnnStage& st = stages[si];
          const std::int64_t batch = in.dim(0);
          const std::int64_t seq = in.dim(1);  // {B, seq, 1, d_model}
          const std::int64_t d_model = in.dim(3);
          const int heads = l.attn.heads;
          const std::int64_t dh = l.attn.d_head;
          const std::int64_t proj = heads * dh;
          const std::int64_t tokens = batch * seq;
          const int shift = attn_scale_shift(l.attn);
          const Tensor<std::int32_t> xf = in.reshaped({tokens, d_model});

          // ReLU + quantize to abits codes, identical to the apmm epilogue.
          // `calib` is the calibration target aliasing `qp` (null when
          // only reading).
          auto project = [&](const Tensor<std::int32_t>& w,
                             const quant::QuantParams& qp,
                             quant::QuantParams* calib) {
            Tensor<std::int32_t> y({tokens, proj});
            for (std::int64_t t = 0; t < tokens; ++t) {
              for (std::int64_t o = 0; o < proj; ++o) {
                std::int64_t acc = 0;
                for (std::int64_t f = 0; f < d_model; ++f) {
                  acc += static_cast<std::int64_t>(xf(t, f)) * w(o, f);
                }
                y(t, o) = std::max<std::int32_t>(
                    0, static_cast<std::int32_t>(acc));
              }
            }
            if (calib != nullptr) *calib = derive_params(y);
            for (std::int64_t i = 0; i < y.numel(); ++i) {
              y[i] = quant::quantize_value(static_cast<float>(y[i]), qp);
            }
            return y;
          };
          ApnnStage* cal = calibrating() ? &(*calib_stages)[si] : nullptr;
          const Tensor<std::int32_t> q =
              project(st.weights_logical, st.attn_q_quant,
                      cal != nullptr ? &cal->attn_q_quant : nullptr);
          const Tensor<std::int32_t> k =
              project(st.attn_wk_logical, st.attn_k_quant,
                      cal != nullptr ? &cal->attn_k_quant : nullptr);
          const Tensor<std::int32_t> v =
              project(st.attn_wv_logical, st.attn_v_quant,
                      cal != nullptr ? &cal->attn_v_quant : nullptr);

          // Per (sample, head): scores, the shared integer-softmax tail,
          // and the attn-weighted value sum.
          Tensor<std::int32_t> ctx({tokens, proj});
          std::vector<std::int32_t> scores(static_cast<std::size_t>(seq));
          std::vector<std::int32_t> attn(static_cast<std::size_t>(seq));
          for (std::int64_t b = 0; b < batch; ++b) {
            for (int h = 0; h < heads; ++h) {
              const std::int64_t col0 = h * dh;
              for (std::int64_t i = 0; i < seq; ++i) {
                const std::int64_t ti = b * seq + i;
                for (std::int64_t j = 0; j < seq; ++j) {
                  std::int64_t acc = 0;
                  for (std::int64_t x = 0; x < dh; ++x) {
                    acc += static_cast<std::int64_t>(q(ti, col0 + x)) *
                           k(b * seq + j, col0 + x);
                  }
                  scores[static_cast<std::size_t>(j)] =
                      static_cast<std::int32_t>(acc);
                }
                attn_softmax_row(scores.data(), seq, shift, abits,
                                 attn.data());
                for (std::int64_t x = 0; x < dh; ++x) {
                  std::int64_t acc = 0;
                  for (std::int64_t j = 0; j < seq; ++j) {
                    acc += static_cast<std::int64_t>(
                               attn[static_cast<std::size_t>(j)]) *
                           v(b * seq + j, col0 + x);
                  }
                  ctx(ti, col0 + x) = std::max<std::int32_t>(
                      0, static_cast<std::int32_t>(acc));
                }
              }
            }
          }
          if (cal != nullptr) cal->attn_ctx_quant = derive_params(ctx);
          for (std::int64_t i = 0; i < ctx.numel(); ++i) {
            ctx[i] = quant::quantize_value(static_cast<float>(ctx[i]),
                                           st.attn_ctx_quant);
          }

          // Output projection back to d_model, with the stage epilogue.
          Tensor<std::int32_t> out({tokens, d_model});
          for (std::int64_t t = 0; t < tokens; ++t) {
            for (std::int64_t o = 0; o < d_model; ++o) {
              std::int64_t acc = 0;
              for (std::int64_t p = 0; p < proj; ++p) {
                acc += static_cast<std::int64_t>(ctx(t, p)) *
                       st.attn_wo_logical(o, p);
              }
              out(t, o) =
                  std::max<std::int32_t>(0, static_cast<std::int32_t>(acc));
            }
          }
          if (cal != nullptr) cal->epilogue.quant = derive_params(out);
          for (std::int64_t i = 0; i < out.numel(); ++i) {
            out[i] = quant::quantize_value(static_cast<float>(out[i]),
                                           st.epilogue.quant);
          }
          vals[li] = out.reshaped({batch, seq, std::int64_t{1}, d_model});
          break;
        }
      }
      if (l.kind == LayerKind::kLinear) logits = vals[li];
    }
    return logits;
  }
};

}  // namespace

void ApnnNetwork::calibrate(const Tensor<std::int32_t>& input_u8) {
  standalone_quant_.clear();
  ReferenceWalker walker{spec_,  shapes_, stages_,  standalone_quant_,
                         abits_, binary_, &stages_, &standalone_quant_};
  walker.run(quantize_input(input_u8));
  calibrated_ = true;
}

Tensor<std::int32_t> ApnnNetwork::forward_reference(
    const Tensor<std::int32_t>& input_u8) const {
  APNN_CHECK(calibrated_) << "call calibrate() first";
  ReferenceWalker walker{spec_, shapes_, stages_, standalone_quant_, abits_,
                         binary_};
  return walker.run(quantize_input(input_u8));
}

Tensor<std::int32_t> ApnnNetwork::forward(
    const Tensor<std::int32_t>& input_u8, const tcsim::DeviceSpec& dev,
    tcsim::SequenceProfile* prof) const {
  APNN_CHECK(calibrated_) << "call calibrate() first";
  // One-shot convenience: compile a session and run it once. The compiled
  // plan (slot assignment, glue kernels, slab) lives in InferenceSession;
  // hold one of those to amortize compilation over repeated traffic.
  InferenceSession session(*this, dev);
  return session.run(input_u8, prof);  // the pack step range-checks codes
}

}  // namespace apnn::nn
