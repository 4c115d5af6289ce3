#include "walker.hpp"

#include <algorithm>
#include <climits>
#include <map>
#include <optional>

#include "src/bitops/decompose.hpp"
#include "src/core/perf_model.hpp"
#include "src/quant/quantizer.hpp"

namespace perfbench {
namespace {

using nn::LayerKind;

// The session's tile rule with autotuning off: the §4.3.2 heuristic pick,
// rows clamped to the stage's virtual row count.
core::TileConfig heuristic_tile(std::int64_t m, std::int64_t n,
                                std::int64_t k, int p, int q,
                                const apnn::tcsim::DeviceSpec& dev) {
  return core::clamp_tile_rows(core::autotune_tile(m, n, k, p, q, dev).tile,
                               m, p);
}

core::ApconvOptions conv_options(const nn::ApnnStage& st,
                                 const layout::ConvGeometry& g,
                                 const apnn::tcsim::DeviceSpec& dev,
                                 apnn::ThreadPool* pool) {
  core::ApconvOptions o;
  o.autotune = false;
  o.tile = heuristic_tile(g.gemm_m(), g.gemm_n(), g.gemm_k(),
                          st.weights.bits(), st.in_bits, dev);
  o.collect_profile = false;
  o.pool = pool;
  return o;
}

core::ApmmOptions mm_options(const nn::ApnnStage& st, std::int64_t batch,
                             const apnn::tcsim::DeviceSpec& dev,
                             apnn::ThreadPool* pool) {
  core::ApmmOptions o;
  o.autotune = false;
  o.tile = heuristic_tile(st.weights.rows(), batch, st.weights.cols(),
                          st.weights.bits(), st.in_bits, dev);
  o.collect_profile = false;
  o.pool = pool;
  return o;
}

// A layer's value: packed planes (a quantizing conv) or dense NHWC / {B, F}.
struct Value {
  std::optional<layout::PackedActivations> packed;
  std::optional<Tensor<std::int32_t>> dense;
};

Tensor<std::int32_t> to_dense(const Value& v) {
  if (v.dense) return *v.dense;
  APNN_CHECK(v.packed.has_value()) << "walk read an unset value";
  return layout::unpack_activations(*v.packed);
}

Tensor<std::int32_t> pool_dense(const Tensor<std::int32_t>& x,
                                const core::PoolSpec& pool) {
  const std::int64_t b = x.dim(0), h = x.dim(1), w = x.dim(2), c = x.dim(3);
  const std::int64_t sh = pool.size == 0 ? h : pool.size;
  const std::int64_t sw = pool.size == 0 ? w : pool.size;
  Tensor<std::int32_t> y({b, h / sh, w / sw, c});
  for (std::int64_t n = 0; n < b; ++n)
    for (std::int64_t py = 0; py < h / sh; ++py)
      for (std::int64_t px = 0; px < w / sw; ++px)
        for (std::int64_t ch = 0; ch < c; ++ch) {
          const bool is_max = pool.kind == core::PoolSpec::Kind::kMax;
          std::int64_t agg = is_max ? INT64_MIN : 0;
          for (std::int64_t dy = 0; dy < sh; ++dy)
            for (std::int64_t dx = 0; dx < sw; ++dx) {
              const std::int64_t v = x(n, py * sh + dy, px * sw + dx, ch);
              agg = is_max ? std::max(agg, v) : agg + v;
            }
          if (!is_max) agg /= sh * sw;
          y(n, py, px, ch) = static_cast<std::int32_t>(agg);
        }
  return y;
}

}  // namespace

double StageInput::bit_ops(const nn::ApnnNetwork& net) const {
  const nn::ApnnStage& st = net.stages()[stage];
  const double pq = static_cast<double>(st.weights.bits()) * st.in_bits;
  if (conv) return 2.0 * static_cast<double>(g.macs()) * pq;
  return 2.0 * static_cast<double>(st.weights.rows()) *
         static_cast<double>(xop.rows()) *
         static_cast<double>(st.weights.cols()) * pq;
}

Tensor<std::int32_t> walk_network(const nn::ApnnNetwork& net,
                                  const Tensor<std::int32_t>& image_u8,
                                  const apnn::tcsim::DeviceSpec& dev,
                                  apnn::ThreadPool* pool,
                                  std::vector<StageInput>* inputs) {
  const nn::ModelSpec& spec = net.spec();
  const std::int64_t batch = image_u8.dim(0);
  std::map<std::size_t, std::size_t> stage_at;
  for (std::size_t s = 0; s < net.stages().size(); ++s) {
    stage_at[net.stages()[s].layer_index] = s;
  }

  std::vector<Value> vals(spec.layers.size());
  std::vector<bool> consumed(spec.layers.size(), false);
  Value image;
  image.dense = image_u8;
  Tensor<std::int32_t> logits;

  for (std::size_t li = 0; li < spec.layers.size(); ++li) {
    if (consumed[li]) continue;
    const nn::LayerSpec& l = spec.layers[li];
    const int src = l.input;
    const Value& in = src >= 0 ? vals[static_cast<std::size_t>(src)]
                      : li == 0 ? image
                                : vals[li - 1];
    Value out;
    switch (l.kind) {
      case LayerKind::kConv: {
        const std::size_t s = stage_at.at(li);
        const nn::ApnnStage& st = net.stages()[s];
        StageInput si;
        si.stage = s;
        si.conv = true;
        si.g = nn::conv_geometry(spec, net.shapes(), li, batch);
        si.x = in.packed ? *in.packed
                         : layout::pack_activations(
                               *in.dense, layout::DenseLayout::kNHWC,
                               st.in_bits);
        core::ApconvResult r =
            core::apconv(st.weights, si.x, st.in_enc, si.g, dev,
                         conv_options(st, si.g, dev, pool), st.epilogue,
                         st.pool);
        if (st.epilogue.has_quant) {
          out.packed = std::move(r.packed);
        } else {
          out.dense = std::move(r.y);
        }
        inputs->push_back(std::move(si));
        break;
      }
      case LayerKind::kLinear: {
        const std::size_t s = stage_at.at(li);
        const nn::ApnnStage& st = net.stages()[s];
        Tensor<std::int32_t> xf = to_dense(in);
        xf = xf.reshaped({batch, xf.numel() / batch});
        if (st.in_enc == core::Encoding::kSignedPM1) {
          for (std::int64_t i = 0; i < xf.numel(); ++i) xf[i] = 2 * xf[i] - 1;
        }
        StageInput si;
        si.stage = s;
        si.conv = false;
        si.xop = core::make_operand(xf, st.in_enc, st.in_bits);
        core::ApmmResult r = core::apmm(st.weights, si.xop, dev,
                                        mm_options(st, batch, dev, pool),
                                        st.epilogue);
        Tensor<std::int32_t> d({batch, st.weights.rows()});
        if (st.epilogue.has_quant) {
          const std::vector<std::int32_t> codes =
              apnn::bitops::recompose(r.packed);
          std::copy(codes.begin(), codes.end(), d.data());
        } else {
          for (std::int64_t b = 0; b < batch; ++b)
            for (std::int64_t o = 0; o < st.weights.rows(); ++o)
              d(b, o) = r.y(o, b);
        }
        logits = d;
        out.dense = std::move(d);
        inputs->push_back(std::move(si));
        break;
      }
      case LayerKind::kReLU: {
        Tensor<std::int32_t> y = to_dense(in);
        for (std::int64_t i = 0; i < y.numel(); ++i) y[i] = std::max(y[i], 0);
        out.dense = std::move(y);
        break;
      }
      case LayerKind::kPool:
        out.dense = pool_dense(to_dense(in), l.pool);
        break;
      case LayerKind::kQuantize: {
        const apnn::quant::QuantParams& q = net.standalone_quant().at(li);
        Tensor<std::int32_t> y = to_dense(in);
        for (std::int64_t i = 0; i < y.numel(); ++i) {
          y[i] = apnn::quant::quantize_value(static_cast<float>(y[i]), q);
        }
        out.dense = std::move(y);
        break;
      }
      case LayerKind::kResidualAdd: {
        Tensor<std::int32_t> a = to_dense(in);
        const Tensor<std::int32_t> b =
            to_dense(vals[static_cast<std::size_t>(l.residual)]);
        APNN_CHECK(a.numel() == b.numel()) << "residual shape mismatch";
        for (std::int64_t i = 0; i < a.numel(); ++i) a[i] += b[i];
        out.dense = std::move(a);
        break;
      }
      case LayerKind::kBatchNorm:
      case LayerKind::kSoftmax:
        out = in;
        break;
      case LayerKind::kAttention:
        APNN_CHECK(false) << "the stage walk serves conv models only";
        break;
    }
    if (l.kind == LayerKind::kConv || l.kind == LayerKind::kLinear) {
      for (std::size_t j : net.stages()[stage_at.at(li)].absorbed) {
        vals[j] = out;
        consumed[j] = true;
      }
    }
    vals[li] = std::move(out);
  }
  APNN_CHECK(logits.numel() > 0) << "network has no linear head";
  return logits;
}

void replay_stage(const nn::ApnnNetwork& net, const StageInput& in,
                  const apnn::tcsim::DeviceSpec& dev, apnn::ThreadPool* pool,
                  bool raw, StageOutput* out) {
  const nn::ApnnStage& st = net.stages()[in.stage];
  const core::Epilogue epi = raw ? core::Epilogue{} : st.epilogue;
  if (in.conv) {
    core::ApconvOptions o = conv_options(st, in.g, dev, pool);
    if (epi.has_quant) {
      o.packed_out = &out->packed;
    } else {
      o.y_out = &out->y;
    }
    core::apconv(st.weights, in.x, st.in_enc, in.g, dev, o, epi,
                 raw ? core::PoolSpec{} : st.pool);
  } else {
    core::ApmmOptions o = mm_options(st, in.xop.rows(), dev, pool);
    if (epi.has_quant) {
      o.packed_out = &out->planes;
    } else {
      o.y_out = &out->y;
    }
    core::apmm(st.weights, in.xop, dev, o, epi);
  }
}

}  // namespace perfbench
