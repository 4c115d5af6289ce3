// Channel-major packed activation tensors (the paper's NPHWC layout, §4.2a).
//
// A q-bit activation tensor of shape N x H x W x C is stored as q 1-bit
// planes (P = q outermost), each plane a BitMatrix with one row per spatial
// position (n, h, w) and C channel bits per row. Two properties the paper
// requires hold by construction:
//   * each 1-bit plane is stored consecutively (aligned access for any P);
//   * all channels of one spatial position are contiguous (coalesced reads
//     of C-bit slabs during convolution).
#pragma once

#include <cstdint>
#include <vector>

#include "src/bitops/bit_matrix.hpp"
#include "src/layout/tensor.hpp"

namespace apnn::layout {

/// Dense activation layouts supported by conversion helpers.
enum class DenseLayout { kNCHW, kNHWC };

struct PackedActivations {
  std::int64_t n = 0, h = 0, w = 0, c = 0;
  int bits = 0;
  /// planes[t]: rows = n*h*w, cols = c; bit = (value >> t) & 1.
  std::vector<bitops::BitMatrix> planes;

  std::int64_t spatial_rows() const { return n * h * w; }

  /// Bytes that cross the simulated bus when this tensor moves (the
  /// minimal-traffic dataflow of §5.1 moves exactly these). Only the active
  /// `bits` planes count: a slab-recycled tensor may retain spare trailing
  /// matrices from a wider previous occupant (see reset_shape).
  std::int64_t payload_bytes() const {
    std::int64_t total = 0;
    for (int t = 0; t < bits; ++t) {
      total += planes[static_cast<std::size_t>(t)].payload_bytes();
    }
    return total;
  }

  /// Reshapes in place, reusing existing plane storage whenever capacity
  /// suffices (zero steady-state growth of the session slab). The
  /// planes vector never shrinks — planes beyond `bits` keep their buffers
  /// for a future wider occupant. `zero_fill` as in BitMatrix::reset_shape:
  /// pass false only when every padded word will be overwritten.
  void reset_shape(std::int64_t n_, std::int64_t h_, std::int64_t w_,
                   std::int64_t c_, int bits_, bool zero_fill = true) {
    n = n_;
    h = h_;
    w = w_;
    c = c_;
    bits = bits_;
    if (static_cast<int>(planes.size()) < bits) {
      planes.resize(static_cast<std::size_t>(bits));
    }
    for (int t = 0; t < bits; ++t) {
      planes[static_cast<std::size_t>(t)].reset_shape(spatial_rows(), c,
                                                      zero_fill);
    }
  }
};

/// Packs a dense non-negative q-bit tensor (values < 2^bits). `src` is
/// indexed per `layout`; shape is {N, C, H, W} for kNCHW or {N, H, W, C} for
/// kNHWC.
PackedActivations pack_activations(const Tensor<std::int32_t>& src,
                                   DenseLayout layout, int bits);

/// Unpacks to a dense NHWC tensor (shape {N, H, W, C}).
Tensor<std::int32_t> unpack_activations(const PackedActivations& packed);

/// NCHW -> NHWC for dense tensors (baseline kernels keep dense data).
template <typename T>
Tensor<T> nchw_to_nhwc(const Tensor<T>& src) {
  APNN_CHECK(src.rank() == 4);
  const std::int64_t n = src.dim(0), c = src.dim(1), h = src.dim(2),
                     w = src.dim(3);
  Tensor<T> out({n, h, w, c});
  for (std::int64_t in = 0; in < n; ++in)
    for (std::int64_t ic = 0; ic < c; ++ic)
      for (std::int64_t ih = 0; ih < h; ++ih)
        for (std::int64_t iw = 0; iw < w; ++iw)
          out(in, ih, iw, ic) = src(in, ic, ih, iw);
  return out;
}

/// NHWC -> NCHW for dense tensors.
template <typename T>
Tensor<T> nhwc_to_nchw(const Tensor<T>& src) {
  APNN_CHECK(src.rank() == 4);
  const std::int64_t n = src.dim(0), h = src.dim(1), w = src.dim(2),
                     c = src.dim(3);
  Tensor<T> out({n, c, h, w});
  for (std::int64_t in = 0; in < n; ++in)
    for (std::int64_t ih = 0; ih < h; ++ih)
      for (std::int64_t iw = 0; iw < w; ++iw)
        for (std::int64_t ic = 0; ic < c; ++ic)
          out(in, ic, ih, iw) = src(in, ih, iw, ic);
  return out;
}

}  // namespace apnn::layout
