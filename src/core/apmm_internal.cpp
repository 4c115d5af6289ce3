#include "src/core/apmm_internal.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <optional>
#include <vector>

#include "src/core/microkernel.hpp"
#include "src/layout/im2col.hpp"
#include "src/parallel/scratch.hpp"

namespace apnn::core::internal {

namespace {

/// Pool the geometry's block loops run on (nullptr = process-global).
ThreadPool& geometry_pool(const BatchedGeometry& g) {
  return g.pool != nullptr ? *g.pool : ThreadPool::global();
}

}  // namespace

BatchedGeometry make_geometry(const ApOperand& w, const ApOperand& x,
                              const TileConfig& tile) {
  return make_geometry(w.rows(), x.rows(), w.cols(), w.bits(), x.bits(),
                       tile);
}

BatchedGeometry make_geometry(std::int64_t m, std::int64_t n, std::int64_t k,
                              int p, int q, const TileConfig& tile,
                              std::int64_t col_align) {
  BatchedGeometry g;
  g.m = m;
  g.n = n;
  g.k = k;
  g.p = p;
  g.q = q;
  g.tile = tile;
  // Blocks own whole output elements (all p*q plane partials), so the block
  // tile is expressed in output space and expanded by the plane counts.
  g.om = std::max<std::int64_t>(1, tile.bm / g.p);
  g.on = round_up(std::max<std::int64_t>(1, tile.bn / g.q), col_align);
  g.vtm = g.om * g.p;
  g.vtn = g.on * g.q;
  g.vtm8 = round_up(g.vtm, 8);
  g.vtn8 = round_up(g.vtn, 8);
  g.grid_m = ceil_div(g.m, g.om);
  g.grid_n = ceil_div(g.n, g.on);
  g.blocks = g.grid_m * g.grid_n;
  g.row_words = bitops::padded_words(k);
  g.ktiles = g.row_words / bitops::kWordsPerTile;
  return g;
}

tcsim::KernelProfile batched_profile(const BatchedGeometry& g,
                                     const OpSelection& sel,
                                     const ApmmOptions& opts,
                                     const Epilogue& epi,
                                     const std::string& name,
                                     std::int64_t store_scale,
                                     std::int64_t extra_alu_per_out) {
  tcsim::KernelProfile prof;
  prof.name = name;
  prof.family = "apnn";
  prof.grid_blocks = g.blocks;
  prof.threads_per_block = g.tile.warps_per_block() * 32;
  prof.shmem_per_block = g.tile.shmem_bytes();
  prof.ci = compute_intensity(g.tile);
  auto& c = prof.counters;
  c.kernel_launches = 1;

  const std::int64_t tile_bits = (g.vtm + g.vtn) * g.tile.bk;
  const int wr = g.tile.warp_rows, wc = g.tile.warp_cols;
  const std::int64_t wm_t = ceil_div(g.vtm, wr), wn_t = ceil_div(g.vtn, wc);
  const std::int64_t warp_bits = static_cast<std::int64_t>(wr) * wc *
                                 (wm_t + wn_t) * g.tile.bk;

  if (opts.double_caching) {
    // Warps collaboratively stage tiles in SHMEM, then fetch their subtiles.
    c.global_load_bytes += g.blocks * g.ktiles * tile_bits / 8;
    c.shared_store_bytes += g.blocks * g.ktiles * tile_bits / 8;
    c.shared_load_bytes += g.blocks * g.ktiles * warp_bits / 8;
  } else {
    // Each warp pulls its own tiles straight from global memory.
    c.global_load_bytes += g.blocks * g.ktiles * warp_bits / 8;
  }

  if (!opts.fragment_caching) {
    // Partial accumulators spill to SHMEM and reload every k-tile instead of
    // staying in register fragments.
    c.shared_store_bytes += g.blocks * g.ktiles * g.vtm8 * g.vtn8 * 4;
    c.shared_load_bytes += g.blocks * g.ktiles * g.vtm8 * g.vtn8 * 4;
  }

  c.bmma_b1 += g.blocks * g.ktiles * (g.vtm8 / 8) * (g.vtn8 / 8);

  if (sel.kind == EmulationCase::kCaseIII) {
    // J·X correction: one popc per loaded feature word.
    c.alu_combine_ops += g.q * g.n * g.row_words;
  }

  const std::int64_t out_per_block =
      std::max<std::int64_t>(1, g.om * g.on / store_scale);
  if (opts.semantic_aware) {
    // In-SHMEM reduction of the p*q partials of each output element.
    c.shared_store_bytes += g.blocks * g.vtm * g.vtn * 4;
    c.shared_load_bytes += g.blocks * g.vtm * g.vtn * 4;
    c.alu_combine_ops += g.blocks * g.vtm * g.vtn * 2;
    c.alu_epilogue_ops +=
        g.blocks * out_per_block *
        (epi.alu_ops_per_element() + extra_alu_per_out);
    if (epi.has_quant) {
      const int qo = epi.quant.bits;
      // Plane split (shift+and per bit) plus one ballot per 32 lanes/plane.
      c.alu_decompose_ops += g.blocks * out_per_block * qo;
      c.alu_decompose_ops += g.blocks * ceil_div(out_per_block, 32) * qo;
      c.global_store_bytes += g.blocks * ceil_div(out_per_block, 32) * 4 * qo;
    } else {
      c.global_store_bytes += g.blocks * out_per_block * 4;
    }
  } else {
    // Partials leave the kernel unreduced; a second kernel combines them.
    c.global_store_bytes += g.blocks * g.vtm * g.vtn * 4;
  }
  return prof;
}

tcsim::KernelProfile combine_kernel_profile(const BatchedGeometry& g,
                                            const Epilogue& epi) {
  tcsim::KernelProfile prof;
  prof.name = "bit-combine";
  prof.family = "apnn";
  prof.grid_blocks = ceil_div(g.m * g.n, 4096);
  prof.threads_per_block = 256;
  prof.ci = 0;
  auto& c = prof.counters;
  c.kernel_launches = 1;
  c.global_load_bytes += g.p * g.q * g.m * g.n * 4;
  c.alu_combine_ops += g.p * g.q * g.m * g.n * 2;
  c.alu_epilogue_ops += g.m * g.n * epi.alu_ops_per_element();
  if (epi.has_quant) {
    const int qo = epi.quant.bits;
    c.alu_decompose_ops += g.m * g.n * qo + ceil_div(g.m * g.n, 32) * qo;
    c.global_store_bytes += ceil_div(g.m * g.n, 32) * 4 * qo;
  } else {
    c.global_store_bytes += g.m * g.n * 4;
  }
  return prof;
}

namespace {

/// Grow-only per-thread storage for the driver's pre-block passes: it
/// settles at the largest call the thread has driven, so a steady-state
/// caller allocates nothing here. The contents are not zeroed. Per-thread
/// is enough because no block body re-enters the driver.
template <typename T>
T* grow_only(std::vector<T>& store, std::int64_t count) {
  if (store.size() < static_cast<std::size_t>(count)) {
    store.resize(static_cast<std::size_t>(count));
  }
  return store.data();
}

}  // namespace

void run_batched_compute(const ApOperand& w, const ApOperand& x,
                         const OpSelection& sel, const BatchedGeometry& g,
                         const Epilogue& epi, Tensor<std::int32_t>* y,
                         bitops::BitPlanes* packed) {
  FeatureSource src;
  src.planes = &x.planes;
  src.encoding = x.encoding;
  src.bits = x.bits();
  run_batched_compute(w, src, sel, g, epi, ConvTail{}, y, packed);
}

void run_batched_compute(const ApOperand& w, const FeatureSource& x,
                         const OpSelection& sel, const BatchedGeometry& g,
                         const Epilogue& epi, const ConvTail& tail,
                         Tensor<std::int32_t>* y, bitops::BitPlanes* packed) {
  // 16 is the plane-count ceiling enforced by bitops::decompose /
  // layout::pack_activations.
  APNN_DCHECK(g.p <= 16 && g.q <= 16) << "p=" << g.p << " q=" << g.q;
  // The row combine accumulates in int32. Every partial sum is bounded by
  // sum|wmult| * sum|xmult| * k = (2^p - 1)(2^q - 1) k, so a shape within
  // that bound can never overflow.
  APNN_CHECK(g.k <= std::numeric_limits<std::int32_t>::max() /
                        (((std::int64_t{1} << g.p) - 1) *
                         ((std::int64_t{1} << g.q) - 1)))
      << "w" << g.p << "a" << g.q << " product with k=" << g.k
      << " can overflow the int32 accumulator";

  // Whole-plane elision (the plane-level sparse fast path): a bit-plane
  // whose payload is entirely zero contributes an exactly-zero term and is
  // dropped from the combine and the Case-III popcount pass. Rules:
  //   - weight plane s, Case I only: term = wmult*xmult*raw with
  //     raw = popc(AND) = 0 (exact for kTwosComplement too — the sign
  //     multiplier scales an exact zero).
  //   - activation plane t, Case I (raw = 0) and Case III (raw = 0 and
  //     x_popc = 0, so 2*raw - x_popc = 0).
  //   - Case II never elides: in ±1 encoding a zero plane encodes all -1
  //     values and its term k - 2*raw = k is nonzero. That also keeps the
  //     window-gather check sound — pad_one is only ever set for Case II,
  //     so in the elidable cases padding stages 0 bits and a zero
  //     feature-map plane implies all-zero patch rows.
  //   - Case III weight planes never elide (term = -wmult*xmult*x_popc).
  std::uint32_t elide_w = 0, elide_x = 0;
  if (g.micro.sparse_staging != microkernel::MicroConfig::Sparse::kOff &&
      sel.kind != EmulationCase::kCaseII) {
    const auto plane_zero = [](const bitops::BitMatrix& pm) {
      for (std::int64_t r = 0; r < pm.rows(); ++r) {
        if (pm.row_popcount(r) != 0) return false;
      }
      return true;
    };
    if (sel.kind == EmulationCase::kCaseI) {
      for (int s = 0; s < g.p; ++s) {
        if (plane_zero(w.planes.plane(s))) elide_w |= 1u << s;
      }
    }
    for (int t = 0; t < g.q; ++t) {
      const bitops::BitMatrix& pm =
          x.window_gather() ? x.fmap->planes[static_cast<std::size_t>(t)]
                            : x.planes->plane(t);
      if (plane_zero(pm)) elide_x |= 1u << t;
    }
  }
  if (g.sparsity != nullptr) {
    g.sparsity->planes.fetch_add(g.p + g.q, std::memory_order_relaxed);
    g.sparsity->planes_elided.fetch_add(
        __builtin_popcount(elide_w) + __builtin_popcount(elide_x),
        std::memory_order_relaxed);
  }
  const bool all_x_elided =
      elide_x != 0 && elide_x == (1u << static_cast<unsigned>(g.q)) - 1;

  // Case III needs popc(X row) per feature plane; flattened q x n, column
  // xpopc[n * q + t] so one output column's planes sit contiguously. For the
  // window-gathered operand the patch row never exists, but its popcount is
  // the sum of the in-frame channel-slab popcounts (§4.2b pads 0 here, so
  // padding taps contribute nothing).
  thread_local std::vector<std::int64_t> xpopc_store;
  thread_local std::vector<std::int32_t> slab_popc_store;
  const std::int64_t* xpopc = nullptr;
  if (sel.kind == EmulationCase::kCaseIII) {
    std::int64_t* xp = grow_only(xpopc_store, g.n * g.q);
    xpopc = xp;
    if (x.window_gather()) {
      // Two stages: popc of each spatial position's C-bit slab once per
      // plane, then per column a pure-integer sum over its in-frame taps.
      const layout::ConvGeometry& cg = *x.conv;
      const std::int64_t spatial = cg.batch * cg.in_h * cg.in_w;
      std::int32_t* slab_popc = grow_only(slab_popc_store, spatial * g.q);
      geometry_pool(g).parallel_for(0, spatial, [&](std::int64_t r) {
        for (int t = 0; t < g.q; ++t) {
          slab_popc[r * g.q + t] =
              ((elide_x >> t) & 1)  // plane is zero: so is its popc
                  ? 0
                  : static_cast<std::int32_t>(
                        x.fmap->planes[static_cast<std::size_t>(t)]
                            .row_popcount(r));
        }
      }, /*grain=*/256);
      geometry_pool(g).parallel_for(0, g.n, [&](std::int64_t j) {
        const layout::OutPos pos =
            layout::conv_col_position(cg, j, x.pool_win);
        std::int64_t* out = xp + j * g.q;
        for (int t = 0; t < g.q; ++t) out[t] = 0;
        for (int kh = 0; kh < cg.kernel; ++kh) {
          const std::int64_t ih = pos.oy * cg.stride + kh - cg.pad;
          if (ih < 0 || ih >= cg.in_h) continue;
          for (int kw = 0; kw < cg.kernel; ++kw) {
            const std::int64_t iw = pos.ox * cg.stride + kw - cg.pad;
            if (iw < 0 || iw >= cg.in_w) continue;
            const std::int32_t* sp =
                slab_popc + ((pos.n * cg.in_h + ih) * cg.in_w + iw) * g.q;
            for (int t = 0; t < g.q; ++t) out[t] += sp[t];
          }
        }
      }, /*grain=*/256);
    } else {
      geometry_pool(g).parallel_for(0, g.n, [&](std::int64_t j) {
        for (int t = 0; t < g.q; ++t) {
          xp[j * g.q + t] = ((elide_x >> t) & 1)
                                ? 0
                                : x.planes->plane(t).row_popcount(j);
        }
      }, /*grain=*/256);
    }
  }

  // Plane combination multipliers.
  std::int64_t wmult[16], xmult[16];
  for (int s = 0; s < g.p; ++s) {
    wmult[s] = plane_multiplier(w.encoding, s, g.p);
  }
  for (int t = 0; t < g.q; ++t) {
    xmult[t] = plane_multiplier(x.encoding, t, g.q);
  }

  // Block epilogue geometry. A conv tail pools win x win windows of
  // contiguous columns and stores NHWC (channel innermost); without one
  // (APMM) the window is 1 and the dense output is row-major M x N. The
  // packed sink is the same for both: row = output position, bit = channel.
  const layout::ConvGeometry* cg = tail.g;
  const std::int64_t win = tail.pool.active() ? tail.pool.size : 1;
  const std::int64_t wsz = win * win;
  const bool max_pool = tail.pool.kind == PoolSpec::Kind::kMax;
  const std::int64_t y_row_stride = cg != nullptr ? 1 : g.n;
  const std::int64_t y_col_stride = cg != nullptr ? cg->out_c : 1;
  const bool pre_active = epi.has_bn || epi.has_relu;
  const int qbits = epi.has_quant ? epi.quant.bits : 0;

  geometry_pool(g).parallel_for(0, g.blocks, [&](std::int64_t b) {
    // Every temporary below is a pointer bump into the worker's private
    // arena; after the first block on each thread the hot path allocates
    // nothing.
    auto& arena = parallel::ScratchArena::tls();
    arena.reset();

    const std::int64_t bm_idx = b / g.grid_n;
    const std::int64_t bn_idx = b % g.grid_n;
    const std::int64_t m0 = bm_idx * g.om;
    const std::int64_t n0 = bn_idx * g.on;
    const std::int64_t m_end = std::min(m0 + g.om, g.m);
    const std::int64_t n_end = std::min(n0 + g.on, g.n);

    // Virtual rows are plane-interleaved: r = local_m * p + s, so a block
    // always owns every plane partial of its output rows (§4.1b). nullptr
    // marks out-of-range rows; the staging pass turns them into zeros.
    const std::uint64_t** wrows =
        arena.get<const std::uint64_t*>(g.vtm8);
    for (std::int64_t i = 0; i < g.vtm8; ++i) {
      const std::int64_t m = m0 + i / g.p;
      wrows[i] = (i < g.vtm && m < g.m)
                     ? w.planes.plane(static_cast<int>(i % g.p)).row(m)
                     : nullptr;
    }

    // The feature panels come from the staging source: a row-pointer table
    // over contiguous planes, or the im2col-free window gather that
    // assembles each k-strip straight from the packed feature map.
    const std::uint64_t** xrows = nullptr;
    std::optional<layout::WindowGatherSource> gather;
    std::optional<microkernel::RowPointerSource> pointer;
    if (x.window_gather()) {
      gather.emplace(*x.fmap, *x.conv, x.pad_one, x.pool_win, n0, g.vtn8,
                     g.vtn);
    } else {
      xrows = arena.get<const std::uint64_t*>(g.vtn8);
      for (std::int64_t j = 0; j < g.vtn8; ++j) {
        const std::int64_t n = n0 + j / g.q;
        xrows[j] = (j < g.vtn && n < g.n)
                       ? x.planes->plane(static_cast<int>(j % g.q)).row(n)
                       : nullptr;
      }
      pointer.emplace(xrows, g.vtn8);
    }
    const microkernel::PanelSource& bsrc =
        gather ? static_cast<const microkernel::PanelSource&>(*gather)
               : *pointer;

    // Raw popc accumulation over all k-strips ("fragment" storage), then the
    // staged cache-blocked microkernel sweep.
    std::int32_t* raw = arena.get<std::int32_t>(g.vtm8 * g.vtn8);
    std::fill_n(raw, g.vtm8 * g.vtn8, 0);
    microkernel::block_bitgemm(sel.bit_op, wrows, g.vtm8, bsrc, g.row_words,
                               raw, arena, g.micro, g.sparsity);

    // Block epilogue: combine -> correction -> BN/ReLU -> pool ->
    // quantize/store, all inside the block (no full-output pass exists
    // downstream). The walk is m-outer so `raw` is read row-major; the pool
    // windows of all the block's columns are reduced per output row.
    APNN_DCHECK(n0 % wsz == 0 && n_end % wsz == 0)
        << "conv blocks must be pool-window aligned (make_geometry "
           "col_align)";
    const std::int64_t cols = n_end - n0;
    const std::int64_t nwin = cols / wsz;

    // Per-column index of the Case-II correction entry, hoisted out of the
    // m loop (the mapping depends only on the column).
    const std::int32_t* corr_idx = nullptr;
    if (tail.corr != nullptr) {
      std::int32_t* idx = arena.get<std::int32_t>(cols);
      for (std::int64_t no = 0; no < cols; ++no) {
        const layout::OutPos pos = layout::conv_col_position(
            *cg, n0 + no, static_cast<int>(win));
        idx[no] = static_cast<std::int32_t>(pos.oy * cg->out_w() + pos.ox);
      }
      corr_idx = idx;
    }

    // Quantized output: bits land at columns [m0, m_end) of the packed rows
    // this block's windows map to; spans sharing 64-bit words with
    // horizontally adjacent blocks are merged with one atomic OR per touched
    // word (§4.1b repack). The m-outer walk accumulates all the block's
    // window masks and publishes them once at the end.
    const std::int64_t w_lo = m0 >> 6;
    const std::int64_t w_hi = (m_end - 1) >> 6;
    const std::int64_t nw = w_hi - w_lo + 1;
    std::uint64_t* masks = nullptr;
    if (qbits > 0) {
      masks = arena.get<std::uint64_t>(nwin * qbits * nw);
      std::fill_n(masks, nwin * qbits * nw, 0);
    }

    // One combined output row at a time, in four flat vectorizable passes
    // over an L1-resident row buffer — the host analogue of the in-SHMEM
    // plane reduction followed by the in-register epilogue:
    //   (1) per-(s,t) specialized bit combination (case switch hoisted out
    //       of the element loop),
    //   (2) border correction + BN/ReLU with the channel's scale/bias held
    //       in scalars,
    //   (3) pooling over the win² *contiguous* columns of each window (the
    //       window-major column order makes them adjacent),
    //   (4) quantize + mask build, or the dense store.
    std::int32_t* yrow = arena.get<std::int32_t>(cols);
    const auto k32 = static_cast<std::int32_t>(g.k);
    for (std::int64_t mo = 0; mo < m_end - m0; ++mo) {
      const std::int64_t m = m0 + mo;
      std::fill_n(yrow, cols, 0);
      for (int s = 0; s < g.p && !all_x_elided; ++s) {
        if ((elide_w >> s) & 1) continue;  // whole-plane term is zero
        const std::int32_t* pr = raw + (mo * g.p + s) * g.vtn8;
        std::int32_t mult[16];
        for (int t = 0; t < g.q; ++t) {
          mult[t] = static_cast<std::int32_t>(wmult[s] * xmult[t]);
        }
        // All q plane partials of a column sit adjacent in `pr`, so each
        // pass reads contiguously; q = 1 (the BNN case) and q = 2 (the
        // dominant w1a2 stages) get flat unrolled maps.
        switch (sel.kind) {
          case EmulationCase::kCaseI:
            if (g.q == 1) {
              for (std::int64_t no = 0; no < cols; ++no) {
                yrow[no] += mult[0] * pr[no];
              }
            } else if (g.q == 2) {
              for (std::int64_t no = 0; no < cols; ++no) {
                yrow[no] += mult[0] * pr[no * 2] + mult[1] * pr[no * 2 + 1];
              }
            } else {
              for (std::int64_t no = 0; no < cols; ++no) {
                const std::int32_t* pp = pr + no * g.q;
                std::int32_t acc = 0;
                for (int t = 0; t < g.q; ++t) {
                  if ((elide_x >> t) & 1) continue;
                  acc += mult[t] * pp[t];
                }
                yrow[no] += acc;
              }
            }
            break;
          case EmulationCase::kCaseII:
            if (g.q == 1) {
              for (std::int64_t no = 0; no < cols; ++no) {
                yrow[no] += mult[0] * (k32 - 2 * pr[no]);
              }
            } else {
              for (std::int64_t no = 0; no < cols; ++no) {
                const std::int32_t* pp = pr + no * g.q;
                std::int32_t acc = 0;
                for (int t = 0; t < g.q; ++t) {
                  acc += mult[t] * (k32 - 2 * pp[t]);
                }
                yrow[no] += acc;
              }
            }
            break;
          case EmulationCase::kCaseIII: {
            const std::int64_t* xp = xpopc + n0 * g.q;
            if (g.q == 1) {
              for (std::int64_t no = 0; no < cols; ++no) {
                yrow[no] += mult[0] * (2 * pr[no] -
                                       static_cast<std::int32_t>(xp[no]));
              }
            } else if (g.q == 2) {
              for (std::int64_t no = 0; no < cols; ++no) {
                yrow[no] +=
                    mult[0] * (2 * pr[no * 2] -
                               static_cast<std::int32_t>(xp[no * 2])) +
                    mult[1] * (2 * pr[no * 2 + 1] -
                               static_cast<std::int32_t>(xp[no * 2 + 1]));
              }
            } else {
              for (std::int64_t no = 0; no < cols; ++no) {
                const std::int32_t* pp = pr + no * g.q;
                const std::int64_t* xpp = xp + no * g.q;
                std::int32_t acc = 0;
                for (int t = 0; t < g.q; ++t) {
                  if ((elide_x >> t) & 1) continue;
                  acc += mult[t] *
                         (2 * pp[t] - static_cast<std::int32_t>(xpp[t]));
                }
                yrow[no] += acc;
              }
            }
            break;
          }
        }
      }
      if (corr_idx != nullptr) {
        const std::int32_t* mcorr = tail.corr + m * cg->out_h() * cg->out_w();
        for (std::int64_t no = 0; no < cols; ++no) {
          yrow[no] -= mcorr[corr_idx[no]];
        }
      }
      if (pre_active) {
        // Identical float arithmetic to Epilogue::apply with the per-
        // channel parameters hoisted (x*1+0 is exact, so the hoisted form
        // also covers the BN-less ReLU).
        const float scale =
            epi.has_bn ? epi.bn.scale[static_cast<std::size_t>(m)] : 1.0f;
        const float bias =
            epi.has_bn ? epi.bn.bias[static_cast<std::size_t>(m)] : 0.0f;
        if (epi.has_relu) {
          for (std::int64_t no = 0; no < cols; ++no) {
            const float v = static_cast<float>(yrow[no]) * scale + bias;
            yrow[no] = static_cast<std::int32_t>(v < 0.0f ? 0.0f : v);
          }
        } else {
          for (std::int64_t no = 0; no < cols; ++no) {
            yrow[no] = static_cast<std::int32_t>(
                static_cast<float>(yrow[no]) * scale + bias);
          }
        }
      }
      if (wsz > 1) {
        if (max_pool) {
          for (std::int64_t wloc = 0; wloc < nwin; ++wloc) {
            const std::int32_t* src = yrow + wloc * wsz;
            std::int32_t agg = src[0];
            for (std::int64_t e = 1; e < wsz; ++e) {
              agg = std::max(agg, src[e]);
            }
            yrow[wloc] = agg;
          }
        } else {
          for (std::int64_t wloc = 0; wloc < nwin; ++wloc) {
            const std::int32_t* src = yrow + wloc * wsz;
            std::int64_t agg = 0;
            for (std::int64_t e = 0; e < wsz; ++e) agg += src[e];
            // The device epilogue truncates the average (see PoolSpec).
            yrow[wloc] = static_cast<std::int32_t>(agg / wsz);
          }
        }
      }
      if (qbits > 0) {
        // Quantization acts on the truncated int32 (as the reference does).
        const std::int64_t wi = (m >> 6) - w_lo;
        const std::uint64_t bit = std::uint64_t{1} << (m & 63);
        for (std::int64_t wloc = 0; wloc < nwin; ++wloc) {
          const std::int32_t code = quant::quantize_value(
              static_cast<float>(yrow[wloc]), epi.quant);
          for (int plane = 0; plane < qbits; ++plane) {
            if ((code >> plane) & 1) {
              masks[(wloc * qbits + plane) * nw + wi] |= bit;
            }
          }
        }
      } else {
        std::int32_t* dst =
            y->data() + m * y_row_stride + (n0 / wsz) * y_col_stride;
        for (std::int64_t wloc = 0; wloc < nwin; ++wloc) {
          dst[wloc * y_col_stride] = yrow[wloc];
        }
      }
    }
    if (qbits > 0) {
      for (std::int64_t wloc = 0; wloc < nwin; ++wloc) {
        const std::int64_t widx = n0 / wsz + wloc;
        for (int plane = 0; plane < qbits; ++plane) {
          std::uint64_t* row =
              packed->planes[static_cast<std::size_t>(plane)].row(widx) +
              w_lo;
          for (std::int64_t wwi = 0; wwi < nw; ++wwi) {
            const std::uint64_t mask =
                masks[(wloc * qbits + plane) * nw + wwi];
            if (mask != 0) {
              std::atomic_ref<std::uint64_t>(row[wwi]).fetch_or(
                  mask, std::memory_order_relaxed);
            }
          }
        }
      }
    }
  });
}

}  // namespace apnn::core::internal
