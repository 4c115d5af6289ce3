#include "src/nn/session.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <vector>

#include "src/bitops/bitcopy.hpp"
#include "src/common/check.hpp"
#include "src/common/faultinject.hpp"
#include "src/core/perf_model.hpp"
#include "src/layout/bit_transpose.hpp"
#include "src/nn/attention_math.hpp"
#include "src/parallel/thread_pool.hpp"
#include "src/quant/quantizer.hpp"

namespace apnn::nn {

namespace {

using core::Encoding;
using core::PoolSpec;

constexpr std::size_t kNoLayer = std::numeric_limits<std::size_t>::max();

/// How a plan value is materialized in its slab slot.
enum class ValueFormat {
  kDense,         ///< SlabSlot::dense — NHWC {B,H,W,C} or features {B,F}
  kPackedConv,    ///< SlabSlot::packed — channel-major packed activations
  kPackedLinear,  ///< SlabSlot::planes — N x M planes from a quantizing apmm
  kPackedTokens,  ///< SlabSlot::planes — (B*seq) x C token-major planes
};

enum class StepKind {
  kPack,         ///< dense codes (the request tensor when in < 0) -> packed
  kConv,         ///< apconv stage (fused tail)
  kGemm,         ///< one bit-GEMM, described by Plan::Gemm
  kResidualAdd,  ///< dense/packed + dense/packed -> dense
  kRelu,         ///< dense -> dense
  kPool,         ///< dense -> dense
  kQuantize,     ///< dense -> dense codes or packed planes (fused repack)
  kUnpack,       ///< packed planes of any format -> dense codes
};

/// Where a GEMM operand's planes come from.
enum class OperandSource {
  kWeight,     ///< a stage weight, read in place (A operands only)
  kLend,       ///< the producer value's own planes, lent without a copy
  kGather,     ///< packed conv planes, one flattened feature row per sample
  kDecompose,  ///< dense {B, F} codes split into planes
  kWindow,     ///< the same column window of each value, side by side
};

/// What a GEMM does with its accumulators.
enum class GemmTail {
  kEpilogue,      ///< Gemm::epi fused into the kernel, emitting packed planes
  kDense,         ///< Gemm::epi on the raw M x N result, transposed to {B, F}
  kSoftmax,       ///< raw rows -> integer softmax -> packed attention codes
  kReluQuantize,  ///< raw rows -> ReLU -> Step::quant -> packed codes
};

// --- glue kernels -----------------------------------------------------------
//
// The word-granular blocked bodies of the plan's glue ops. Each parallel_for
// task owns whole packed rows (or disjoint dense ranges), so tasks never
// share a 64-bit word and the kernels are race-free by construction.

constexpr int kMaxBits = 16;  // plane-count ceiling of pack_activations
constexpr std::int64_t kRowGrain = 64;

/// Shared word-granular bit-plane transpose: for each of `rows` rows of `c`
/// elements, `code_of(v)` yields the code whose bits land in the planes
/// starting at plane row `row_off`. Every word of every written padded row
/// is overwritten (zeros beyond column c), so destinations may skip the
/// reset_shape zero fill — the bit-packed output needs no second pass.
template <typename CodeFn>
void pack_rows(ThreadPool& tp, const std::int32_t* src, std::int64_t rows,
               std::int64_t c, int bits,
               std::vector<bitops::BitMatrix>& planes, std::int64_t grain,
               std::int64_t row_off, CodeFn&& code_of) {
  APNN_CHECK(bits >= 1 && bits <= kMaxBits);
  const std::int64_t row_words = planes[0].row_words();
  tp.parallel_for(0, rows, [&](std::int64_t r) {
    const std::int32_t* s = src + r * c;
    for (std::int64_t w = 0; w < row_words; ++w) {
      const std::int64_t w0 = w * 64;
      const int jmax = static_cast<int>(
          std::clamp<std::int64_t>(c - w0, 0, 64));
      std::uint64_t acc[kMaxBits] = {};
      for (int j = 0; j < jmax; ++j) {
        const std::int32_t code = code_of(s[w0 + j]);
        for (int t = 0; t < bits; ++t) {
          acc[t] |= static_cast<std::uint64_t>((code >> t) & 1) << j;
        }
      }
      for (int t = 0; t < bits; ++t) {
        planes[static_cast<std::size_t>(t)].row(row_off + r)[w] = acc[t];
      }
    }
  }, grain);
}

/// Packs `rows` x `c` non-negative codes (row-major, values < 2^bits).
/// Throws on out-of-range values.
void pack_codes(ThreadPool& tp, const std::int32_t* src, std::int64_t rows,
                std::int64_t c, int bits,
                std::vector<bitops::BitMatrix>& planes,
                std::int64_t grain = kRowGrain, std::int64_t row_off = 0) {
  const std::int32_t hi = static_cast<std::int32_t>(1u << bits);
  pack_rows(tp, src, rows, c, bits, planes, grain, row_off,
            [&](std::int32_t v) {
    APNN_CHECK(v >= 0 && v < hi)
        << "activation " << v << " out of range for " << bits << " bits";
    return v;
  });
}

/// Decodes packed planes back to dense codes; `accumulate` adds instead of
/// overwriting (the packed-input side of a residual add).
void decode_planes(ThreadPool& tp,
                   const std::vector<bitops::BitMatrix>& planes, int bits,
                   std::int64_t rows, std::int64_t c, std::int32_t* dst,
                   bool accumulate) {
  tp.parallel_for(0, rows, [&](std::int64_t r) {
    std::int32_t* d = dst + r * c;
    for (std::int64_t w0 = 0; w0 < c; w0 += 64) {
      const int jmax = static_cast<int>(std::min<std::int64_t>(64, c - w0));
      std::uint64_t wt[kMaxBits];
      for (int t = 0; t < bits; ++t) {
        wt[t] = planes[static_cast<std::size_t>(t)].row(r)[w0 / 64];
      }
      for (int j = 0; j < jmax; ++j) {
        std::int32_t v = 0;
        for (int t = 0; t < bits; ++t) {
          v |= static_cast<std::int32_t>((wt[t] >> j) & 1) << t;
        }
        if (accumulate) {
          d[w0 + j] += v;
        } else {
          d[w0 + j] = v;
        }
      }
    }
  }, kRowGrain);
}

void add_dense(ThreadPool& tp, const std::int32_t* src, std::int32_t* dst,
               std::int64_t n) {
  tp.parallel_for(0, (n + 4095) / 4096, [&](std::int64_t blk) {
    const std::int64_t lo = blk * 4096;
    const std::int64_t hi = std::min(n, lo + 4096);
    for (std::int64_t i = lo; i < hi; ++i) dst[i] += src[i];
  });
}

void relu_dense(ThreadPool& tp, const std::int32_t* src, std::int32_t* dst,
                std::int64_t n) {
  tp.parallel_for(0, (n + 4095) / 4096, [&](std::int64_t blk) {
    const std::int64_t lo = blk * 4096;
    const std::int64_t hi = std::min(n, lo + 4096);
    for (std::int64_t i = lo; i < hi; ++i) dst[i] = std::max(src[i], 0);
  });
}

void quantize_dense(ThreadPool& tp, const std::int32_t* src,
                    std::int32_t* dst, std::int64_t n,
                    const quant::QuantParams& p) {
  tp.parallel_for(0, (n + 4095) / 4096, [&](std::int64_t blk) {
    const std::int64_t lo = blk * 4096;
    const std::int64_t hi = std::min(n, lo + 4096);
    for (std::int64_t i = lo; i < hi; ++i) {
      dst[i] = quant::quantize_value(static_cast<float>(src[i]), p);
    }
  });
}

/// Fused standalone quantize + bit repack: dense pre-quant values straight
/// into packed planes — the dense code tensor never exists.
void quantize_pack(ThreadPool& tp, const std::int32_t* src,
                   std::int64_t rows, std::int64_t c,
                   const quant::QuantParams& p,
                   std::vector<bitops::BitMatrix>& planes,
                   std::int64_t row_off = 0) {
  pack_rows(tp, src, rows, c, p.bits, planes, kRowGrain, row_off,
            [&](std::int32_t v) {
    return quant::quantize_value(static_cast<float>(v), p);
  });
}

/// ReLU + quantize + repack in one pass — the attention context tail. The
/// ReLU must run before quantization (a negative zero-point would otherwise
/// map negative accumulators to nonzero codes).
void relu_quantize_pack(ThreadPool& tp, const std::int32_t* src,
                        std::int64_t rows, std::int64_t c,
                        const quant::QuantParams& p,
                        std::vector<bitops::BitMatrix>& planes,
                        std::int64_t row_off) {
  pack_rows(tp, src, rows, c, p.bits, planes, kRowGrain, row_off,
            [&](std::int32_t v) {
    return quant::quantize_value(static_cast<float>(std::max(v, 0)), p);
  });
}

/// Integer max/avg pooling, NHWC, identical arithmetic to the reference
/// walker's pool_dense (int64 aggregate, truncating average). size == 0 is
/// the global-pool convention: one window covering the whole spatial map.
void pool_nhwc(ThreadPool& tp, const std::int32_t* src, std::int64_t b,
               std::int64_t h, std::int64_t w, std::int64_t c,
               const PoolSpec& pool, std::int32_t* dst) {
  const std::int64_t win_h = pool.size == 0 ? h : pool.size;
  const std::int64_t win_w = pool.size == 0 ? w : pool.size;
  const std::int64_t ph = h / win_h, pw = w / win_w;
  tp.parallel_for(0, b * ph, [&](std::int64_t row) {
    const std::int64_t n = row / ph, py = row % ph;
    for (std::int64_t px = 0; px < pw; ++px) {
      for (std::int64_t ch = 0; ch < c; ++ch) {
        std::int64_t agg = pool.kind == PoolSpec::Kind::kMax ? INT64_MIN : 0;
        for (std::int64_t dy = 0; dy < win_h; ++dy) {
          for (std::int64_t dx = 0; dx < win_w; ++dx) {
            const std::int32_t v =
                src[(((n * h) + py * win_h + dy) * w + px * win_w +
                     dx) * c + ch];
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
        dst[((n * ph + py) * pw + px) * c + ch] =
            static_cast<std::int32_t>(agg);
      }
    }
  });
}

/// Assembles the linear-stage feature operand straight from packed
/// channel-major activations: sample b's operand row is the concatenation
/// of its h*w C-bit channel slabs, copied at word granularity — the packed
/// planes never round-trip through dense codes.
void gather_linear_operand(ThreadPool& tp,
                           const layout::PackedActivations& x,
                           bitops::BitPlanes& dst) {
  const std::int64_t per_sample = x.h * x.w;
  tp.parallel_for(0, x.n * x.bits, [&](std::int64_t task) {
    const std::int64_t b = task / x.bits;
    const int t = static_cast<int>(task % x.bits);
    const bitops::BitMatrix& plane = x.planes[static_cast<std::size_t>(t)];
    std::uint64_t* out = dst.planes[static_cast<std::size_t>(t)].row(b);
    for (std::int64_t r = 0; r < per_sample; ++r) {
      bitops::copy_bits(out, r * x.c, plane.row(b * per_sample + r), 0, x.c);
    }
  });
}

/// M x N -> {N, M} transpose (apmm emits out_features x batch).
void transpose_mn(ThreadPool& tp, const std::int32_t* src, std::int64_t m,
                  std::int64_t n, std::int32_t* dst) {
  tp.parallel_for(0, n, [&](std::int64_t j) {
    for (std::int64_t i = 0; i < m; ++i) dst[j * m + i] = src[i * n + j];
  }, kRowGrain);
}

/// Stages rows [row0, row0 + nrows) of the planes `planes_of(v)` of each
/// value v in `values` as one operand: the column window [col0, col0 +
/// width) of each, side by side. One value with a head's window slices
/// Q/K/V, one value with all columns takes a sample's row block, and
/// several values with all columns concatenate the heads. Reshapes `dst` in
/// place, so steady-state reuse allocates nothing.
template <typename PlanesOf>
void copy_windows(ThreadPool& tp, const std::vector<int>& values,
                  PlanesOf&& planes_of, std::int64_t row0, std::int64_t nrows,
                  std::int64_t col0, std::int64_t width, int bits,
                  bitops::BitPlanes& dst) {
  // copy_bits only touches the windows; the zero fill keeps the word
  // padding beyond them honest.
  dst.reset_shape(nrows, width * static_cast<std::int64_t>(values.size()),
                  bits, /*zero_fill=*/true);
  tp.parallel_for(0, nrows * bits, [&](std::int64_t task) {
    const std::int64_t r = task / bits;
    const auto t = static_cast<std::size_t>(task % bits);
    std::uint64_t* out = dst.planes[t].row(r);
    for (std::size_t i = 0; i < values.size(); ++i) {
      bitops::copy_bits(out, static_cast<std::int64_t>(i) * width,
                        planes_of(values[i])[t].row(row0 + r), col0, width);
    }
  }, kRowGrain);
}

}  // namespace

// --- the compiled plan ------------------------------------------------------

struct InferenceSession::Plan {
  struct Value {
    ValueFormat format = ValueFormat::kDense;
    std::int64_t c = 0, h = 1, w = 1;  ///< per-sample dims (features in c)
    bool spatial = false;              ///< dense values: NHWC vs {B, F}
    int bits = 0;                      ///< code bits of packed formats
    std::size_t last_use = 0;          ///< step index of the last read
    int slot = -1;

    std::int64_t per_sample() const { return c * h * w; }
  };

  /// One operand of a bit-GEMM (W is M x K, X is N x K, as core::apmm).
  struct Operand {
    OperandSource src = OperandSource::kLend;
    const core::ApOperand ApnnStage::*weight = nullptr;  ///< kWeight
    std::vector<int> values;  ///< the plan values it reads (kWindow: each)
    std::int64_t col0 = 0, width = 0;  ///< kWindow: the column window
    bool transpose = false;  ///< kWindow: transpose the staged planes
    /// Rows per sample (per group for a per-sample GEMM), columns (K) and
    /// bits the kernel sees; unused for kWeight.
    std::int64_t rows = 0, cols = 0;
    int bits = 0;
    core::Encoding enc = Encoding::kUnsigned01;
  };

  /// A kGemm step: y = W X^T, once for the batch or once per sample, with
  /// its accumulators finished by `tail`.
  struct Gemm {
    Operand a, b;
    bool per_sample = false;  ///< one GEMM per sample's row block
    GemmTail tail = GemmTail::kEpilogue;
    core::Epilogue epi;         ///< fused epilogue (identity on raw tails)
    std::int64_t tune_seq = 0;  ///< StageKey::seq: bucket for token GEMMs
  };

  struct Step {
    StepKind kind;
    std::size_t layer = kNoLayer;  ///< spec layer (diagnostics)
    std::size_t stage = kNoLayer;  ///< index into net.stages()
    int in = -1, in2 = -1, out = -1;
    quant::QuantParams quant;  ///< kQuantize; kGemm's kReluQuantize tail
    PoolSpec pool;             ///< kPool
    Gemm gemm;                 ///< kGemm
    /// kGemm staging slots: one per staged operand (two when transposed),
    /// in A, B order; raw accumulators use the first slot's dense tensor.
    std::vector<int> scratch_slots;
  };

  /// Batch-dependent step state, resolved once per distinct batch size and
  /// cached (the dynamic-batching server alternates sizes every run; a
  /// single-entry cache would re-run autotune — and allocate — each time).
  struct ResolvedBatch {
    std::vector<layout::ConvGeometry> geom;  ///< per step (kConv only)
    std::vector<core::TunedKernel> kern;     ///< per step (kConv/kGemm)
  };

  /// This plan's bucketed view of the network: the spec with input.h set to
  /// the plan's sequence bucket, plus the shapes propagated from it. Conv
  /// geometry, attention lowering, and batch resolution all read these —
  /// never the network's calibration-length spec — so one network compiles
  /// into a family of shape-specialized plans over shared weights.
  ModelSpec spec;
  std::vector<ActShape> shapes;
  std::int64_t bucket = 0;  ///< tokens per sample this plan serves

  std::vector<Value> values;
  std::vector<Step> steps;
  int input_value = -1;
  int logits_value = -1;
  std::size_t num_slots = 0;
  std::map<std::int64_t, ResolvedBatch> resolved;  ///< keyed by batch

  // Reads of compile-time network state (stages are referenced by index so
  // the plan stays valid if the stage vector reallocates). The activation
  // slab lives on the session, shared by every plan of the family.
};

namespace {

/// Plan builder: mirrors the old interpreter's layer walk once, at compile
/// time, producing the step list, value formats, and slot assignment.
class Compiler {
 public:
  /// `plan.spec` and `plan.shapes` must already carry the plan's bucketed
  /// view (InferenceSession's constructor sets them before compiling).
  Compiler(const ApnnNetwork& net, InferenceSession::Plan& plan)
      : net_(net), spec_(plan.spec), plan_(plan) {}

  void compile() {
    index_stages();
    scan_consumers();
    build_steps();
    assign_slots();
  }

 private:
  using Value = InferenceSession::Plan::Value;
  using Step = InferenceSession::Plan::Step;
  using Gemm = InferenceSession::Plan::Gemm;
  using Operand = InferenceSession::Plan::Operand;

  void index_stages() {
    consumed_.assign(spec_.layers.size(), false);
    stage_of_.assign(spec_.layers.size(), kNoLayer);
    for (std::size_t si = 0; si < net_.stages().size(); ++si) {
      const ApnnStage& st = net_.stages()[si];
      stage_of_[st.layer_index] = si;
      for (std::size_t j : st.absorbed) consumed_[j] = true;
    }
  }

  /// Canonical producer layer of the value layer `li` outputs (resolves
  /// stage absorption and pass-through layers). spec_.layers.size() denotes
  /// the network input.
  std::size_t canon(std::size_t li) const { return canon_[li]; }

  std::size_t input_layer_of(std::size_t li) const {
    const int src = spec_.layers[li].input;
    if (src >= 0) return static_cast<std::size_t>(src);
    return li == 0 ? spec_.layers.size() : li - 1;
  }

  /// Pass 1: which executed layer kinds read each canonical producer.
  void scan_consumers() {
    const std::size_t n = spec_.layers.size();
    canon_.assign(n + 1, n);
    canon_[n] = n;  // network input
    consumers_.assign(n + 1, std::vector<LayerKind>{});
    auto resolve = [&](std::size_t li) {
      return li == n ? n : canon_[li];
    };
    for (std::size_t li = 0; li < n; ++li) {
      const LayerSpec& l = spec_.layers[li];
      if (consumed_[li]) {
        // Absorbed tail layers alias their stage's output.
        canon_[li] = canon_[input_layer_of(li)];
        continue;
      }
      switch (l.kind) {
        case LayerKind::kConv:
        case LayerKind::kLinear:
          consumers_[resolve(input_layer_of(li))].push_back(l.kind);
          canon_[li] = li;
          break;
        case LayerKind::kResidualAdd:
          consumers_[resolve(input_layer_of(li))].push_back(l.kind);
          consumers_[resolve(static_cast<std::size_t>(l.residual))].push_back(
              l.kind);
          canon_[li] = li;
          break;
        case LayerKind::kSoftmax:
          canon_[li] = canon_[input_layer_of(li)];
          break;
        case LayerKind::kBatchNorm:
          APNN_CHECK(false)
              << "standalone BatchNorm layer '" << l.name
              << "' is not executable: it has no parameters outside a "
                 "conv/linear epilogue — restructure the spec so the BN "
                 "directly follows a conv/linear (where it fuses into the "
                 "stage tail)";
          break;
        default:
          consumers_[resolve(input_layer_of(li))].push_back(l.kind);
          canon_[li] = li;
          break;
      }
    }
  }

  bool all_conv_consumers(std::size_t li) const {
    const auto& cs = consumers_[li];
    if (cs.empty()) return false;
    for (LayerKind k : cs) {
      if (k != LayerKind::kConv) return false;
    }
    return true;
  }

  int new_value(ValueFormat fmt, std::int64_t c, std::int64_t h,
                std::int64_t w, bool spatial, int bits) {
    Value v;
    v.format = fmt;
    v.c = c;
    v.h = h;
    v.w = w;
    v.spatial = spatial;
    v.bits = bits;
    plan_.values.push_back(v);
    return static_cast<int>(plan_.values.size() - 1);
  }

  Step& add_step(StepKind kind, std::size_t layer) {
    Step s;
    s.kind = kind;
    s.layer = layer;
    plan_.steps.push_back(s);
    return plan_.steps.back();
  }

  /// Appends a kGemm step of stage `si` writing `out`; the caller fills in
  /// the descriptor.
  Gemm& add_gemm(std::size_t layer, std::size_t si, int out) {
    Step& s = add_step(StepKind::kGemm, layer);
    s.stage = si;
    s.out = out;
    return s.gemm;
  }

  static Operand weight(const core::ApOperand ApnnStage::*w) {
    Operand op;
    op.src = OperandSource::kWeight;
    op.weight = w;
    return op;
  }

  /// Value id holding layer `li`'s output (network input for li == size).
  int value_of(std::size_t li) {
    const std::size_t producer = li == spec_.layers.size()
                                     ? spec_.layers.size()
                                     : canon_[li];
    if (producer == spec_.layers.size()) return plan_.input_value;
    const int v = val_of_layer_[producer];
    APNN_CHECK(v >= 0) << "layer " << spec_.layers[producer].name
                       << " has no materialized value";
    return v;
  }

  /// Dense view of `vid`, inserting a decode step at most once per value.
  int ensure_dense(int vid) {
    Value& v = plan_.values[static_cast<std::size_t>(vid)];
    if (v.format == ValueFormat::kDense) return vid;
    if (dense_shadow_.count(vid) != 0) return dense_shadow_[vid];
    const bool spatial = v.format == ValueFormat::kPackedConv ||
                         v.format == ValueFormat::kPackedTokens;
    const int dv = new_value(ValueFormat::kDense, v.c, v.h, v.w, spatial, 0);
    Step& s = add_step(StepKind::kUnpack, kNoLayer);
    s.in = vid;
    s.out = dv;
    dense_shadow_[vid] = dv;
    return dv;
  }

  /// Packed channel-major view of `vid` with `bits` code planes, inserting
  /// a pack step at most once per value.
  int ensure_packed(int vid, int bits) {
    Value& v = plan_.values[static_cast<std::size_t>(vid)];
    if (v.format == ValueFormat::kPackedConv) {
      APNN_CHECK(v.bits == bits)
          << "packed value carries " << v.bits << " bits, stage wants "
          << bits;
      return vid;
    }
    if (v.format == ValueFormat::kPackedLinear ||
        v.format == ValueFormat::kPackedTokens) {
      vid = ensure_dense(vid);
    }
    if (packed_shadow_.count(vid) != 0) return packed_shadow_[vid];
    Value& dv = plan_.values[static_cast<std::size_t>(vid)];
    APNN_CHECK(dv.spatial) << "cannot pack feature vectors";
    const int pv =
        new_value(ValueFormat::kPackedConv, dv.c, dv.h, dv.w, true, bits);
    Step& s = add_step(StepKind::kPack, kNoLayer);
    s.in = vid;
    s.out = pv;
    packed_shadow_[vid] = pv;
    return pv;
  }

  /// Pass 2: the step list.
  void build_steps() {
    const std::size_t n = spec_.layers.size();
    val_of_layer_.assign(n, -1);

    // Input image: 8-bit packed planes (§5.1 — the uint8 codes are the
    // first stage's activations).
    plan_.input_value =
        new_value(ValueFormat::kPackedConv, spec_.input.c, spec_.input.h,
                  spec_.input.w, true, 8);
    Step& pack_in = add_step(StepKind::kPack, kNoLayer);
    pack_in.out = plan_.input_value;  // in < 0: the request tensor

    const auto& shapes = plan_.shapes;
    for (std::size_t li = 0; li < n; ++li) {
      if (consumed_[li]) continue;
      const LayerSpec& l = spec_.layers[li];
      switch (l.kind) {
        case LayerKind::kConv: {
          const std::size_t si = stage_of_[li];
          const ApnnStage& st = net_.stages()[si];
          const int in_v = ensure_packed(value_of(input_layer_of(li)),
                                         st.in_bits);
          const std::size_t out_layer =
              st.absorbed.empty() ? li : st.absorbed.back();
          const ActShape& os = shapes[out_layer];
          const int out_v =
              st.epilogue.has_quant
                  ? new_value(ValueFormat::kPackedConv, os.c, os.h, os.w,
                              true, st.epilogue.quant.bits)
                  : new_value(ValueFormat::kDense, os.c, os.h, os.w, true, 0);
          Step& s = add_step(StepKind::kConv, li);
          s.stage = si;
          s.in = in_v;
          s.out = out_v;
          val_of_layer_[li] = out_v;
          break;
        }
        case LayerKind::kLinear: {
          const std::size_t si = stage_of_[li];
          const ApnnStage& st = net_.stages()[si];
          int in_v = value_of(input_layer_of(li));
          // Token-major planes have no per-sample row layout a linear
          // operand can borrow; take the dense shadow and decompose.
          if (plan_.values[static_cast<std::size_t>(in_v)].format ==
              ValueFormat::kPackedTokens) {
            in_v = ensure_dense(in_v);
          }
          // The feature operand: lend a quantizing apmm's planes, gather
          // packed conv planes, or decompose dense codes (range-checked, so
          // an un-quantized value fails loudly instead of truncating).
          Operand x;
          x.values = {in_v};
          x.rows = 1;
          x.cols = st.weights.cols();
          x.bits = st.in_bits;
          x.enc = st.in_enc;
          {
            const Value& v = plan_.values[static_cast<std::size_t>(in_v)];
            APNN_CHECK(v.per_sample() == x.cols)
                << "linear layer '" << l.name << "' wants " << x.cols
                << " features, producer emits " << v.per_sample();
            if (v.format != ValueFormat::kDense) {
              APNN_CHECK(v.bits == st.in_bits)
                  << "linear stage wants " << st.in_bits
                  << "-bit features, producer emits " << v.bits;
            }
            x.src = v.format == ValueFormat::kPackedLinear
                        ? OperandSource::kLend
                        : v.format == ValueFormat::kPackedConv
                              ? OperandSource::kGather
                              : OperandSource::kDecompose;
          }
          const std::size_t out_layer =
              st.absorbed.empty() ? li : st.absorbed.back();
          const std::int64_t out_f = shapes[out_layer].c;
          const int out_v =
              st.epilogue.has_quant
                  ? new_value(ValueFormat::kPackedLinear, out_f, 1, 1, false,
                              st.epilogue.quant.bits)
                  : new_value(ValueFormat::kDense, out_f, 1, 1, false, 0);
          Gemm& g = add_gemm(li, si, out_v);
          g.a = weight(&ApnnStage::weights);
          g.b = std::move(x);
          g.tail = st.epilogue.has_quant ? GemmTail::kEpilogue
                                         : GemmTail::kDense;
          g.epi = st.epilogue;
          val_of_layer_[li] = out_v;
          plan_.logits_value = out_v;
          break;
        }
        case LayerKind::kResidualAdd: {
          int a = value_of(input_layer_of(li));
          int b = value_of(static_cast<std::size_t>(l.residual));
          // Feature/token planes can't be decoded by the packed-conv side
          // helper; take the dense shadow. Channel-major packed inputs
          // decode inline.
          auto densify_planes = [&](int vid) {
            const ValueFormat f =
                plan_.values[static_cast<std::size_t>(vid)].format;
            return f == ValueFormat::kPackedLinear ||
                           f == ValueFormat::kPackedTokens
                       ? ensure_dense(vid)
                       : vid;
          };
          a = densify_planes(a);
          b = densify_planes(b);
          const Value& av = plan_.values[static_cast<std::size_t>(a)];
          const int out_v = new_value(ValueFormat::kDense, av.c, av.h, av.w,
                                      av.spatial, 0);
          Step& s = add_step(StepKind::kResidualAdd, li);
          s.in = a;
          s.in2 = b;
          s.out = out_v;
          val_of_layer_[li] = out_v;
          break;
        }
        case LayerKind::kReLU: {
          const int in_v = ensure_dense(value_of(input_layer_of(li)));
          const Value& iv = plan_.values[static_cast<std::size_t>(in_v)];
          const int out_v = new_value(ValueFormat::kDense, iv.c, iv.h, iv.w,
                                      iv.spatial, 0);
          Step& s = add_step(StepKind::kRelu, li);
          s.in = in_v;
          s.out = out_v;
          val_of_layer_[li] = out_v;
          break;
        }
        case LayerKind::kPool: {
          const int in_v = ensure_dense(value_of(input_layer_of(li)));
          const Value& iv = plan_.values[static_cast<std::size_t>(in_v)];
          APNN_CHECK(iv.spatial) << "pool needs a spatial input";
          const std::int64_t oh = l.pool.size == 0 ? 1 : iv.h / l.pool.size;
          const std::int64_t ow = l.pool.size == 0 ? 1 : iv.w / l.pool.size;
          const int out_v = new_value(ValueFormat::kDense, iv.c, oh, ow,
                                      true, 0);
          Step& s = add_step(StepKind::kPool, li);
          s.in = in_v;
          s.out = out_v;
          s.pool = l.pool;
          val_of_layer_[li] = out_v;
          break;
        }
        case LayerKind::kQuantize: {
          const auto it = net_.standalone_quant().find(li);
          APNN_CHECK(it != net_.standalone_quant().end())
              << "standalone quantize layer " << l.name << " not calibrated";
          const int in_v = ensure_dense(value_of(input_layer_of(li)));
          const Value& iv = plan_.values[static_cast<std::size_t>(in_v)];
          // When every consumer is a conv the quantize emits packed planes
          // directly (fused repack — the dense code tensor never exists).
          const bool to_packed = iv.spatial && all_conv_consumers(li);
          const int out_v =
              to_packed ? new_value(ValueFormat::kPackedConv, iv.c, iv.h,
                                    iv.w, true, it->second.bits)
                        : new_value(ValueFormat::kDense, iv.c, iv.h, iv.w,
                                    iv.spatial, it->second.bits);
          Step& s = add_step(StepKind::kQuantize, li);
          s.in = in_v;
          s.out = out_v;
          s.quant = it->second;
          val_of_layer_[li] = out_v;
          break;
        }
        case LayerKind::kAttention: {
          // Lowering (§5 extended to attention): three quantizing bit-GEMM
          // projections over the token operand, per-head QK^T with the
          // fused integer-softmax tail, per-head attn x V through a packed
          // word-granular transpose of the V slice, then the quantizing
          // output projection over the concatenated heads.
          const std::size_t si = stage_of_[li];
          const ApnnStage& st = net_.stages()[si];
          int in_v = value_of(input_layer_of(li));
          if (plan_.values[static_cast<std::size_t>(in_v)].format ==
              ValueFormat::kDense) {
            in_v = ensure_packed(in_v, st.in_bits);
          }
          const Value& iv = plan_.values[static_cast<std::size_t>(in_v)];
          APNN_CHECK(iv.format == ValueFormat::kPackedConv ||
                     iv.format == ValueFormat::kPackedTokens)
              << "attention layer '" << l.name << "' needs packed tokens";
          APNN_CHECK(iv.w == 1)
              << "attention tokens run along H; W must be 1";
          APNN_CHECK(iv.bits == st.in_bits)
              << "attention stage wants " << st.in_bits
              << "-bit tokens, producer emits " << iv.bits;
          const std::int64_t seq = iv.h;
          const std::int64_t d_model = iv.c;
          const int heads = l.attn.heads;
          const std::int64_t dh = l.attn.d_head;
          const std::int64_t proj = heads * dh;
          const int abits = st.epilogue.quant.bits;
          APNN_CHECK(st.epilogue.has_quant)
              << "attention output projection must quantize";

          // A window operand over token-major planes of `values`: `seq`
          // rows per sample, `width` columns from col0 of each value.
          const auto window = [&](std::vector<int> values, std::int64_t col0,
                                  std::int64_t width) {
            Operand op;
            op.src = OperandSource::kWindow;
            op.rows = seq;
            op.cols = width * static_cast<std::int64_t>(values.size());
            op.bits = abits;
            op.values = std::move(values);
            op.col0 = col0;
            op.width = width;
            return op;
          };

          // Q/K/V projections: ReLU + requantize fused into the kernel.
          static constexpr const core::ApOperand ApnnStage::*kProjW[3] = {
              &ApnnStage::weights, &ApnnStage::attn_wk, &ApnnStage::attn_wv};
          static constexpr const quant::QuantParams ApnnStage::*kProjQ[3] = {
              &ApnnStage::attn_q_quant, &ApnnStage::attn_k_quant,
              &ApnnStage::attn_v_quant};
          int qkv[3];
          for (int p = 0; p < 3; ++p) {
            qkv[p] = new_value(ValueFormat::kPackedTokens, proj, seq, 1,
                               true, abits);
            Gemm& g = add_gemm(li, si, qkv[p]);
            g.a = weight(kProjW[p]);
            g.b.src = OperandSource::kLend;
            g.b.values = {in_v};
            g.b.rows = seq;
            g.b.cols = d_model;
            g.b.bits = st.in_bits;
            g.b.enc = st.in_enc;
            g.epi.has_relu = true;
            g.epi.has_quant = true;
            g.epi.quant = st.*kProjQ[p];
            g.tune_seq = plan_.bucket;
          }

          // Per-head chains, one GEMM per sample: QK^T with the integer
          // softmax tail, then attn x V against the transposed V slice.
          std::vector<int> ctx;
          for (int h = 0; h < heads; ++h) {
            const int sv = new_value(ValueFormat::kPackedTokens, seq, seq, 1,
                                     true, abits);
            Gemm& sg = add_gemm(li, si, sv);
            sg.a = window({qkv[0]}, h * dh, dh);
            sg.b = window({qkv[1]}, h * dh, dh);
            sg.per_sample = true;
            sg.tail = GemmTail::kSoftmax;

            const int cv = new_value(ValueFormat::kPackedTokens, dh, seq, 1,
                                     true, abits);
            Gemm& cg = add_gemm(li, si, cv);
            plan_.steps.back().quant = st.attn_ctx_quant;
            cg.a = window({sv}, 0, seq);
            cg.b = window({qkv[2]}, h * dh, dh);
            cg.b.transpose = true;
            std::swap(cg.b.rows, cg.b.cols);
            cg.per_sample = true;
            cg.tail = GemmTail::kReluQuantize;
            ctx.push_back(cv);
          }

          // Output projection over the head concatenation.
          const int out_v = new_value(ValueFormat::kPackedTokens, d_model,
                                      seq, 1, true, abits);
          Gemm& og = add_gemm(li, si, out_v);
          og.a = weight(&ApnnStage::attn_wo);
          og.b = window(std::move(ctx), 0, dh);
          og.epi = st.epilogue;
          og.tune_seq = plan_.bucket;
          val_of_layer_[li] = out_v;
          break;
        }
        case LayerKind::kSoftmax:
          // Logits are returned raw (softmax is monotonic); the value
          // aliases through canon_.
          break;
        case LayerKind::kBatchNorm:
          break;  // scan_consumers() already hard-errored
      }
    }
    APNN_CHECK(plan_.logits_value >= 0) << "network has no linear head";

    // The returned logits must be dense codes; recompose feature planes
    // straight into the destination tensor (no intermediate code vector).
    if (plan_.values[static_cast<std::size_t>(plan_.logits_value)].format !=
        ValueFormat::kDense) {
      plan_.logits_value = ensure_dense(plan_.logits_value);
    }
  }

  /// Pass 3: liveness + greedy slot reuse. Values with disjoint live ranges
  /// share a slot; the logits value survives the whole plan.
  void assign_slots() {
    const std::size_t nsteps = plan_.steps.size();
    for (auto& v : plan_.values) v.last_use = 0;
    for (std::size_t s = 0; s < nsteps; ++s) {
      for_each_input(plan_.steps[s], [&](int vid) {
        plan_.values[static_cast<std::size_t>(vid)].last_use = s;
      });
    }
    plan_.values[static_cast<std::size_t>(plan_.logits_value)].last_use =
        nsteps;  // survives

    std::vector<int> free;
    int next = 0;
    auto acquire = [&]() {
      if (!free.empty()) {
        const int s = free.back();
        free.pop_back();
        return s;
      }
      return next++;
    };
    auto release_inputs = [&](const Step& st, std::size_t s) {
      // A step reading the same value twice (x + x) must free it once.
      std::vector<int> seen;
      for_each_input(st, [&](int vid) {
        if (std::find(seen.begin(), seen.end(), vid) != seen.end()) return;
        seen.push_back(vid);
        Value& v = plan_.values[static_cast<std::size_t>(vid)];
        // v.slot stays recorded — the step executing at v.last_use still
        // reads through it; only *later* outputs may take the slot over.
        if (v.last_use == s && v.slot >= 0) free.push_back(v.slot);
      });
    };

    for (std::size_t s = 0; s < nsteps; ++s) {
      Step& st = plan_.steps[s];
      const bool elementwise = st.kind == StepKind::kRelu ||
                               st.kind == StepKind::kQuantize ||
                               st.kind == StepKind::kResidualAdd;
      if (elementwise) {
        // Same-index reads and writes (and packed/dense buffers of one slot
        // are distinct), so an input slot freed here can carry the output —
        // the in-place steady state of a residual/ReLU/quantize chain.
        release_inputs(st, s);
        plan_.values[static_cast<std::size_t>(st.out)].slot = acquire();
      } else {
        plan_.values[static_cast<std::size_t>(st.out)].slot = acquire();
        if (st.kind == StepKind::kGemm) {
          for (int i = 0; i < scratch_count(st.gemm); ++i) {
            st.scratch_slots.push_back(acquire());
          }
        }
        release_inputs(st, s);
        for (int slot : st.scratch_slots) free.push_back(slot);
      }
    }
    plan_.num_slots = static_cast<std::size_t>(next);
  }

  /// Calls fn(value id) for every value step `st` reads.
  template <typename Fn>
  static void for_each_input(const Step& st, Fn&& fn) {
    for (int vid : {st.in, st.in2}) {
      if (vid >= 0) fn(vid);
    }
    for (int vid : st.gemm.a.values) fn(vid);
    for (int vid : st.gemm.b.values) fn(vid);
  }

  /// Scratch slots a GEMM stages its operands (and raw accumulators) in.
  static int scratch_count(const Gemm& g) {
    const auto staged = [](const Operand& op) {
      const bool copies = op.src == OperandSource::kGather ||
                          op.src == OperandSource::kDecompose ||
                          op.src == OperandSource::kWindow;
      return copies ? 1 + static_cast<int>(op.transpose) : 0;
    };
    const int n = staged(g.a) + staged(g.b);
    return n == 0 && g.tail != GemmTail::kEpilogue ? 1 : n;
  }

  const ApnnNetwork& net_;
  const ModelSpec& spec_;
  InferenceSession::Plan& plan_;

  std::vector<bool> consumed_;
  std::vector<std::size_t> stage_of_;
  std::vector<std::size_t> canon_;
  std::vector<std::vector<LayerKind>> consumers_;
  std::vector<int> val_of_layer_;
  std::map<int, int> dense_shadow_;
  std::map<int, int> packed_shadow_;
};

}  // namespace

// --- session ---------------------------------------------------------------

InferenceSession::~InferenceSession() = default;

const parallel::ActivationSlab& InferenceSession::slab() const {
  return slab_;
}
std::size_t InferenceSession::step_count() const {
  return default_plan().steps.size();
}
std::size_t InferenceSession::slot_count() const {
  return default_plan().num_slots;
}
std::size_t InferenceSession::plan_count() const { return plans_.size(); }

InferenceSession::Plan& InferenceSession::plan_for(
    std::int64_t seq_len) const {
  for (const auto& p : plans_) {
    if (p->bucket >= seq_len) return *p;
  }
  APNN_CHECK(false) << "sequence length " << seq_len
                    << " exceeds the largest compiled bucket "
                    << plans_.back()->bucket;
  return *plans_.back();  // unreachable
}

InferenceSession::Plan& InferenceSession::default_plan() const {
  return plan_for(net_.spec().input.h);
}

namespace {

/// Resolves the batch-dependent step state (conv geometries, per-stage
/// kernel configs) once per distinct batch size; later runs at an
/// already-seen batch are pure map lookups (no tuning, no allocations).
///
/// With `tuner` set, each stage's config comes from an empirical
/// measurement sweep (core::Autotuner) — or straight from its TuningCache
/// when the stage signature was measured before. Without a tuner this is
/// the heuristic plan: the §4.3.2 pick with bm clamped to the stage's
/// virtual row count (short-M stages stop staging padded zero A-rows —
/// e.g. the 8-channel stem, a small classifier head; the kernel result is
/// bit-exact for any tile).
const InferenceSession::Plan::ResolvedBatch& resolve_batch(
    const ApnnNetwork& net, const tcsim::DeviceSpec& dev,
    InferenceSession::Plan& plan, std::int64_t batch,
    core::Autotuner* tuner) {
  const auto it = plan.resolved.find(batch);
  if (it != plan.resolved.end()) return it->second;

  InferenceSession::Plan::ResolvedBatch rb;
  rb.geom.resize(plan.steps.size());
  rb.kern.resize(plan.steps.size());
  const auto heuristic = [&](std::int64_t m, std::int64_t n, std::int64_t k,
                             int p, int q) {
    core::TunedKernel kern;
    kern.tile = core::clamp_tile_rows(
        core::autotune_tile(m, n, k, p, q, dev).tile, m, p);
    return kern;
  };
  for (std::size_t si = 0; si < plan.steps.size(); ++si) {
    const auto& s = plan.steps[si];
    if (s.kind == StepKind::kConv) {
      const ApnnStage& st = net.stages()[s.stage];
      const layout::ConvGeometry& g =
          rb.geom[si] = conv_geometry(plan.spec, plan.shapes, s.layer, batch);
      rb.kern[si] = tuner != nullptr
                        ? tuner->tune_apconv(st.weights, g, st.in_bits,
                                             st.in_enc, st.epilogue, st.pool)
                        : heuristic(g.gemm_m(), g.gemm_n(), g.gemm_k(),
                                    st.weights.bits(), st.in_bits);
    } else if (s.kind == StepKind::kGemm) {
      const InferenceSession::Plan::Gemm& g = s.gemm;
      const std::int64_t n = g.b.rows * (g.per_sample ? 1 : batch);
      if (g.a.src != OperandSource::kWeight) {
        // Per-sample GEMMs on freshly staged operands: heuristic tiles
        // only — empirical measurement would key on staging scratch, not a
        // stage weight operand.
        rb.kern[si] = heuristic(g.a.rows, n, g.a.cols, g.a.bits, g.b.bits);
        continue;
      }
      // Token GEMMs key on the plan's bucket (tune_seq), so each bucket of
      // the family tunes (and caches) independently.
      const core::ApOperand& w = net.stages()[s.stage].*g.a.weight;
      rb.kern[si] = tuner != nullptr
                        ? tuner->tune_apmm(w, n, g.b.bits, g.b.enc, g.epi,
                                           g.tune_seq)
                        : heuristic(w.rows(), n, w.cols(), w.bits(),
                                    g.b.bits);
    }
  }
  return plan.resolved.emplace(batch, std::move(rb)).first->second;
}

}  // namespace

InferenceSession::InferenceSession(const ApnnNetwork& net,
                                   const tcsim::DeviceSpec& dev,
                                   const SessionOptions& opts)
    : net_(net), dev_(dev), opts_(opts) {
  APNN_CHECK(net.calibrated()) << "call calibrate() before compiling";

  // One plan per sequence bucket (a single plan at the spec's input length
  // for fixed-shape models), all sharing the network's weights and the
  // session's slab.
  std::vector<std::int64_t> buckets = net.spec().seq_buckets;
  if (buckets.empty()) {
    buckets.push_back(net.spec().input.h);
  } else {
    std::sort(buckets.begin(), buckets.end());
    buckets.erase(std::unique(buckets.begin(), buckets.end()), buckets.end());
    APNN_CHECK(buckets.front() >= 1) << "sequence buckets must be positive";
    APNN_CHECK(net.spec().input.h <= buckets.back())
        << "calibration length " << net.spec().input.h
        << " exceeds the largest bucket " << buckets.back();
  }
  std::size_t max_slots = 0;
  for (std::int64_t b : buckets) {
    auto plan = std::make_unique<Plan>();
    plan->bucket = b;
    plan->spec = net.spec();
    plan->spec.input.h = b;
    plan->shapes = propagate_shapes(plan->spec);
    Compiler(net, *plan).compile();
    max_slots = std::max(max_slots, plan->num_slots);
    plans_.push_back(std::move(plan));
  }
  slab_.require(max_slots);

  if (opts_.autotune) {
    core::TuningCache* cache = opts_.cache;
    if (cache == nullptr) {
      owned_cache_ = std::make_unique<core::TuningCache>();
      cache = owned_cache_.get();
    }
    tuner_ = std::make_unique<core::Autotuner>(dev_, cache, opts_.tuner,
                                               opts_.pool);
    if (opts_.tune_batch > 0) {
      // Warm every plan of the family: serving mixed-length traffic must
      // never pay a tuning burst per request.
      for (const auto& plan : plans_) {
        resolve_batch(net_, dev_, *plan, opts_.tune_batch, tuner_.get());
      }
    }
  }
}

std::int64_t InferenceSession::tuning_measurements() const {
  return tuner_ != nullptr ? tuner_->measurement_runs() : 0;
}

std::vector<core::TunedKernel> InferenceSession::stage_kernels(
    std::int64_t batch) {
  return resolve_batch(net_, dev_, default_plan(), batch, tuner_.get()).kern;
}

void InferenceSession::validate_sample(const ActShape& shape,
                                       const Tensor<std::int32_t>& sample) {
  const bool batched_rank = sample.rank() == 4;
  APNN_CHECK((sample.rank() == 3 || batched_rank) &&
             (!batched_rank || sample.dim(0) == 1))
      << "sample must be one image: {H, W, C} or {1, H, W, C}";
  const int off = batched_rank ? 1 : 0;
  APNN_CHECK(sample.dim(off) == shape.h && sample.dim(off + 1) == shape.w &&
             sample.dim(off + 2) == shape.c)
      << "sample must be {" << shape.h << ", " << shape.w << ", " << shape.c
      << "}, got {" << sample.dim(off) << ", " << sample.dim(off + 1) << ", "
      << sample.dim(off + 2) << "}";
  const std::int32_t* s = sample.data();
  for (std::int64_t i = 0; i < sample.numel(); ++i) {
    APNN_CHECK(s[i] >= 0 && s[i] <= 255)
        << "sample value " << s[i] << " at index " << i
        << " is not an 8-bit input code";
  }
}

void InferenceSession::validate_sample(
    const ActShape& shape, const std::vector<std::int64_t>& seq_buckets,
    const Tensor<std::int32_t>& sample) {
  if (seq_buckets.empty()) {
    validate_sample(shape, sample);
    return;
  }
  const bool batched_rank = sample.rank() == 4;
  APNN_CHECK((sample.rank() == 3 || batched_rank) &&
             (!batched_rank || sample.dim(0) == 1))
      << "sample must be one sequence: {S, W, C} or {1, S, W, C}";
  const int off = batched_rank ? 1 : 0;
  const std::int64_t s_len = sample.dim(off);
  const std::int64_t max_bucket = seq_buckets.back();
  APNN_CHECK(s_len >= 1 && s_len <= max_bucket)
      << "sequence length " << s_len << " outside the bucket range [1, "
      << max_bucket << "]";
  APNN_CHECK(sample.dim(off + 1) == shape.w &&
             sample.dim(off + 2) == shape.c)
      << "sample must be {seq, " << shape.w << ", " << shape.c << "}, got {"
      << s_len << ", " << sample.dim(off + 1) << ", " << sample.dim(off + 2)
      << "}";
  const std::int32_t* s = sample.data();
  for (std::int64_t i = 0; i < sample.numel(); ++i) {
    APNN_CHECK(s[i] >= 0 && s[i] <= 255)
        << "sample value " << s[i] << " at index " << i
        << " is not an 8-bit input code";
  }
}

namespace {

/// Stamps the occupancy counters a step collected onto the launch records
/// that step just appended ([first, end) of the sequence). A step that
/// never staged a panel (kOff, or profile-only) leaves the -1 "not
/// measured" default in place.
void annotate_sparsity(tcsim::SequenceProfile* prof, std::size_t first,
                       const core::microkernel::SparsityStats& st) {
  const std::int64_t staged =
      st.staged_words.load(std::memory_order_relaxed);
  for (std::size_t i = first; i < prof->kernels.size(); ++i) {
    tcsim::KernelProfile& k = prof->kernels[i];
    if (staged > 0) k.sparsity_zero_word_fraction = st.zero_word_fraction();
    k.sparsity_sparse_strips =
        st.sparse_strips.load(std::memory_order_relaxed);
    k.sparsity_dense_strips =
        st.dense_strips.load(std::memory_order_relaxed);
    k.sparsity_planes = st.planes.load(std::memory_order_relaxed);
    k.sparsity_planes_elided =
        st.planes_elided.load(std::memory_order_relaxed);
  }
}

}  // namespace

void InferenceSession::run(const Tensor<std::int32_t>& input_u8,
                           Tensor<std::int32_t>* logits,
                           tcsim::SequenceProfile* prof) {
  // Chaos drill: an injected throw here exercises every caller's "the
  // compiled forward pass itself failed" path (the server treats it as a
  // replica failure).
  faultinject::point(faultinject::kSessionRun);
  const ModelSpec& spec = net_.spec();
  APNN_CHECK(input_u8.rank() == 4) << "input must be NHWC {B, S, W, C}";
  const std::int64_t batch = input_u8.dim(0);
  APNN_CHECK(batch >= 1);
  if (spec.seq_buckets.empty()) {
    APNN_CHECK(input_u8.dim(1) == spec.input.h &&
               input_u8.dim(2) == spec.input.w &&
               input_u8.dim(3) == spec.input.c)
        << "input must be NHWC {B, " << spec.input.h << ", " << spec.input.w
        << ", " << spec.input.c << "}";
    run_plan(*plans_.front(), input_u8, logits, prof);
    return;
  }

  // Bucketed sequences: pick the smallest plan that fits and zero-pad the
  // token tail up to its bucket (padded tokens are all-zero codes; their
  // rows never feed back into real tokens' logits through the pooled head).
  APNN_CHECK(input_u8.dim(2) == spec.input.w &&
             input_u8.dim(3) == spec.input.c)
      << "input must be NHWC {B, seq, " << spec.input.w << ", "
      << spec.input.c << "}";
  const std::int64_t seq = input_u8.dim(1);
  APNN_CHECK(seq >= 1) << "input has no tokens";
  Plan& plan = plan_for(seq);
  if (seq == plan.bucket) {
    run_plan(plan, input_u8, logits, prof);
    return;
  }
  const std::int64_t per_tok = spec.input.w * spec.input.c;
  const std::int64_t in_per = seq * per_tok;
  const std::int64_t out_per = plan.bucket * per_tok;
  padded_.reset_shape({batch, plan.bucket, spec.input.w, spec.input.c});
  for (std::int64_t b = 0; b < batch; ++b) {
    std::memcpy(padded_.data() + b * out_per, input_u8.data() + b * in_per,
                sizeof(std::int32_t) * static_cast<std::size_t>(in_per));
    std::memset(padded_.data() + b * out_per + in_per, 0,
                sizeof(std::int32_t) *
                    static_cast<std::size_t>(out_per - in_per));
  }
  run_plan(plan, padded_, logits, prof);
}

void InferenceSession::run_plan(Plan& plan,
                                const Tensor<std::int32_t>& input_u8,
                                Tensor<std::int32_t>* logits,
                                tcsim::SequenceProfile* prof) {
  const std::int64_t batch = input_u8.dim(0);
  // Every kernel and glue loop of this pass runs on the session's pool (a
  // replica's private slice under the server; the global pool otherwise).
  ThreadPool& tp = opts_.pool != nullptr ? *opts_.pool : ThreadPool::global();
  const Plan::ResolvedBatch& rb =
      resolve_batch(net_, dev_, plan, batch, tuner_.get());

  auto slot_of = [&](int vid) -> parallel::SlabSlot& {
    const auto& v = plan.values[static_cast<std::size_t>(vid)];
    APNN_DCHECK(v.slot >= 0);
    return slab_.slot(static_cast<std::size_t>(v.slot));
  };
  auto value = [&](int vid) -> const Plan::Value& {
    return plan.values[static_cast<std::size_t>(vid)];
  };
  /// The bit planes of a packed value, whatever its format.
  auto planes_of = [&](int vid) -> std::vector<bitops::BitMatrix>& {
    parallel::SlabSlot& s = slot_of(vid);
    return value(vid).format == ValueFormat::kPackedConv ? s.packed.planes
                                                         : s.planes.planes;
  };
  /// Shapes a dense value's tensor: NHWC when spatial, {B, F} otherwise.
  auto shape_dense = [&](Tensor<std::int32_t>& t, const Plan::Value& v) {
    if (v.spatial) {
      t.reset_shape({batch, v.h, v.w, v.c});
    } else {
      t.reset_shape({batch, v.c});
    }
  };

  for (std::size_t si = 0; si < plan.steps.size(); ++si) {
    const auto& step = plan.steps[si];
    switch (step.kind) {
      case StepKind::kPack: {
        const Plan::Value& out = value(step.out);
        const std::int64_t rows = batch * out.h * out.w;
        const std::int32_t* src = step.in < 0
                                      ? input_u8.data()
                                      : slot_of(step.in).dense.data();
        parallel::SlabSlot& dst = slot_of(step.out);
        // pack_rows overwrites every padded word — no zero-fill pass.
        dst.packed.reset_shape(batch, out.h, out.w, out.c, out.bits,
                               /*zero_fill=*/false);
        pack_codes(tp, src, rows, out.c, out.bits, dst.packed.planes);
        if (prof != nullptr && step.in < 0) {
          prof->add(core::decompose_profile(rows, out.c, out.bits, 1.0));
        }
        break;
      }
      case StepKind::kConv: {
        const ApnnStage& st = net_.stages()[step.stage];
        core::ApconvOptions o;
        o.autotune = false;
        o.tile = rb.kern[si].tile;
        o.micro = rb.kern[si].micro;
        o.collect_profile = prof != nullptr;
        o.pool = opts_.pool;
        core::microkernel::SparsityStats sstats;
        o.sparsity_stats = prof != nullptr ? &sstats : nullptr;
        parallel::SlabSlot& dst = slot_of(step.out);
        if (st.epilogue.has_quant) {
          o.packed_out = &dst.packed;
        } else {
          o.y_out = &dst.dense;
        }
        const std::size_t first = prof != nullptr ? prof->kernels.size() : 0;
        core::ApconvResult r =
            core::apconv(st.weights, slot_of(step.in).packed, st.in_enc,
                         rb.geom[si], dev_, o, st.epilogue, st.pool);
        if (prof != nullptr) {
          prof->add(r.profile);
          annotate_sparsity(prof, first, sstats);
        }
        break;
      }
      case StepKind::kGemm: {
        const Plan::Gemm& gm = step.gemm;
        const ApnnStage& st = net_.stages()[step.stage];
        const Plan::Value& out = value(step.out);
        parallel::SlabSlot& dst = slot_of(step.out);
        auto scratch = [&](std::size_t i) -> parallel::SlabSlot& {
          return slab_.slot(static_cast<std::size_t>(step.scratch_slots[i]));
        };
        const std::int64_t groups = gm.per_sample ? batch : 1;
        // Output rows per group: a sample's tokens, or the whole batch.
        const std::int64_t out_rows = batch * out.h * out.w / groups;

        core::ApmmOptions o;
        o.autotune = false;
        o.tile = rb.kern[si].tile;
        o.micro = rb.kern[si].micro;
        o.collect_profile = prof != nullptr;
        o.pool = opts_.pool;
        core::microkernel::SparsityStats sstats;
        o.sparsity_stats = prof != nullptr ? &sstats : nullptr;
        Tensor<std::int32_t>* raw = nullptr;
        if (gm.tail == GemmTail::kEpilogue) {
          o.packed_out = &dst.planes;
        } else {
          raw = &scratch(0).dense;
          o.y_out = raw;
        }
        if (gm.tail == GemmTail::kSoftmax ||
            gm.tail == GemmTail::kReluQuantize) {
          // Each group packs its rows; every padded word gets overwritten.
          dst.planes.reset_shape(batch * out.h * out.w, out.c, out.bits,
                                 /*zero_fill=*/false);
        }

        // Binds one slab operand for group g: its planes are staged in the
        // next scratch slot (or are the producer's own, for kLend) and are
        // moved into `op` for the call; the returned home takes them back.
        std::size_t next_scratch = 0;
        auto bind = [&](const Plan::Operand& d, std::int64_t g,
                        core::ApOperand& op) {
          op.encoding = d.enc;
          bitops::BitPlanes* staged = nullptr;
          switch (d.src) {
            case OperandSource::kLend: {
              const Plan::Value& v = value(d.values[0]);
              std::vector<bitops::BitMatrix>& home = planes_of(d.values[0]);
              op.planes.rows = batch * v.h * v.w;
              op.planes.cols = v.c;
              op.planes.bits = v.bits;
              op.planes.planes = std::move(home);
              return &home;
            }
            case OperandSource::kGather:
              staged = &scratch(next_scratch++).planes;
              // The gather writes C-bit slabs into otherwise untouched rows
              // and needs the zeroed padding.
              staged->reset_shape(batch, d.cols, d.bits, /*zero_fill=*/true);
              gather_linear_operand(tp, slot_of(d.values[0]).packed,
                                    *staged);
              break;
            case OperandSource::kDecompose:
              staged = &scratch(next_scratch++).planes;
              staged->reset_shape(batch, d.cols, d.bits, /*zero_fill=*/false);
              pack_codes(tp, slot_of(d.values[0]).dense.data(), batch,
                         d.cols, d.bits, staged->planes, /*grain=*/1);
              break;
            case OperandSource::kWindow: {
              const Plan::Value& v = value(d.values[0]);
              const std::int64_t rows = v.h * v.w * (batch / groups);
              staged = &scratch(next_scratch++).planes;
              copy_windows(tp, d.values, planes_of, g * rows, rows, d.col0,
                           d.width, d.bits, *staged);
              if (d.transpose) {
                bitops::BitPlanes* t = &scratch(next_scratch++).planes;
                layout::transpose_planes(*staged, *t);
                staged = t;
              }
              break;
            }
            case OperandSource::kWeight:
              APNN_CHECK(false) << "weights are never staged";
          }
          op.planes.rows = staged->rows;
          op.planes.cols = staged->cols;
          op.planes.bits = staged->bits;
          op.planes.planes = std::move(staged->planes);
          return &staged->planes;
        };

        const std::size_t first = prof != nullptr ? prof->kernels.size() : 0;
        for (std::int64_t g = 0; g < groups; ++g) {
          next_scratch = 0;
          core::ApOperand a_staged, x;
          std::vector<bitops::BitMatrix>* a_home = nullptr;
          const core::ApOperand* a = &a_staged;
          if (gm.a.src == OperandSource::kWeight) {
            a = &(st.*gm.a.weight);
          } else {
            a_home = bind(gm.a, g, a_staged);
          }
          std::vector<bitops::BitMatrix>* x_home = bind(gm.b, g, x);
          core::ApmmResult r = core::apmm(*a, x, dev_, o, gm.epi);
          if (prof != nullptr) prof->add(r.profile);
          if (a_home != nullptr) *a_home = std::move(a_staged.planes.planes);
          *x_home = std::move(x.planes.planes);

          switch (gm.tail) {
            case GemmTail::kEpilogue:
              break;  // the kernel wrote the packed planes
            case GemmTail::kDense:
              // apmm emits M x N; the dense value is {B, F}.
              shape_dense(dst.dense, out);
              transpose_mn(tp, raw->data(), out.c, batch, dst.dense.data());
              break;
            case GemmTail::kSoftmax: {
              // Scale -> integer softmax -> requantize, in place on the raw
              // scores (row max is read out before any write).
              const int shift =
                  attn_scale_shift(plan.spec.layers[step.layer].attn);
              std::int32_t* scores = raw->data();
              tp.parallel_for(0, out_rows, [&](std::int64_t i) {
                attn_softmax_row(scores + i * out.c, out.c, shift, out.bits,
                                 scores + i * out.c);
              }, kRowGrain);
              pack_codes(tp, scores, out_rows, out.c, out.bits,
                         dst.planes.planes, kRowGrain, g * out_rows);
              break;
            }
            case GemmTail::kReluQuantize:
              relu_quantize_pack(tp, raw->data(), out_rows, out.c,
                                 step.quant, dst.planes.planes,
                                 g * out_rows);
              break;
          }
        }
        if (prof != nullptr) annotate_sparsity(prof, first, sstats);
        break;
      }
      case StepKind::kResidualAdd: {
        const Plan::Value& out = value(step.out);
        const std::int64_t rows = batch * out.h * out.w;
        const std::int64_t n = rows * out.c;
        parallel::SlabSlot& ds = slot_of(step.out);
        struct Side {
          const std::int32_t* dense;               // null when packed
          const layout::PackedActivations* packed;
        };
        auto side = [&](int vid) -> Side {
          if (value(vid).format == ValueFormat::kDense) {
            return {slot_of(vid).dense.data(), nullptr};
          }
          return {nullptr, &slot_of(vid).packed};
        };
        // Reshape the destination before capturing input pointers: when the
        // output slot aliases an input (same shape) this is a no-op, and
        // otherwise a first-run growth must not invalidate captured data().
        ds.dense.reset_shape({batch, out.h, out.w, out.c});
        Side a = side(step.in), b = side(step.in2);
        std::int32_t* d = ds.dense.data();
        // The output slot may alias either dense input (elementwise slot
        // reuse); materialize the aliasing side first so nothing is
        // clobbered, then accumulate the other (packed sides decode
        // word-wise on the fly — no to_dense copy ever happens).
        if (b.dense == d && b.dense != nullptr) std::swap(a, b);
        if (a.dense != nullptr) {
          if (a.dense != d) {
            std::memcpy(d, a.dense,
                        sizeof(std::int32_t) * static_cast<std::size_t>(n));
          }
        } else {
          decode_planes(tp, a.packed->planes, a.packed->bits, rows, out.c,
                        d, false);
        }
        if (b.dense != nullptr) {
          add_dense(tp, b.dense, d, n);
        } else {
          decode_planes(tp, b.packed->planes, b.packed->bits, rows, out.c,
                        d, true);
        }
        break;
      }
      case StepKind::kRelu: {
        const Plan::Value& out = value(step.out);
        const Tensor<std::int32_t>& src = slot_of(step.in).dense;
        parallel::SlabSlot& ds = slot_of(step.out);
        const std::int32_t* s = src.data();
        // in-place when the slot was reused
        if (&ds.dense != &src) shape_dense(ds.dense, out);
        relu_dense(tp, s, ds.dense.data(), batch * out.per_sample());
        break;
      }
      case StepKind::kPool: {
        const Plan::Value& in = value(step.in);
        const Plan::Value& out = value(step.out);
        parallel::SlabSlot& ds = slot_of(step.out);
        ds.dense.reset_shape({batch, out.h, out.w, out.c});
        pool_nhwc(tp, slot_of(step.in).dense.data(), batch, in.h, in.w,
                  in.c, step.pool, ds.dense.data());
        break;
      }
      case StepKind::kQuantize: {
        const Plan::Value& out = value(step.out);
        const std::int64_t rows = batch * out.h * out.w;
        const Tensor<std::int32_t>& src = slot_of(step.in).dense;
        parallel::SlabSlot& ds = slot_of(step.out);
        if (out.format == ValueFormat::kPackedConv) {
          ds.packed.reset_shape(batch, out.h, out.w, out.c, out.bits,
                                /*zero_fill=*/false);
          quantize_pack(tp, src.data(), rows, out.c, step.quant,
                        ds.packed.planes);
        } else {
          const std::int32_t* s = src.data();
          // in-place when the slot was reused
          if (&ds.dense != &src) shape_dense(ds.dense, out);
          quantize_dense(tp, s, ds.dense.data(), rows * out.c, step.quant);
        }
        break;
      }
      case StepKind::kUnpack: {
        const Plan::Value& in = value(step.in);
        const Plan::Value& out = value(step.out);
        parallel::SlabSlot& ds = slot_of(step.out);
        shape_dense(ds.dense, out);
        decode_planes(tp, planes_of(step.in), in.bits, batch * out.h * out.w,
                      out.c, ds.dense.data(), false);
        break;
      }
    }
  }

  // Copy the logits out (the slab keeps ownership of every intermediate).
  const Plan::Value& lv = value(plan.logits_value);
  const Tensor<std::int32_t>& ld = slot_of(plan.logits_value).dense;
  logits->reset_shape({batch, lv.c});
  std::memcpy(logits->data(), ld.data(),
              sizeof(std::int32_t) * static_cast<std::size_t>(batch * lv.c));
  slab_.note_high_water();
}

Tensor<std::int32_t> InferenceSession::run(const Tensor<std::int32_t>& input_u8,
                                           tcsim::SequenceProfile* prof) {
  Tensor<std::int32_t> logits;
  run(input_u8, &logits, prof);
  return logits;
}

}  // namespace apnn::nn
