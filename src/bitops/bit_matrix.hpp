// Packed 1-bit matrices.
//
// A BitMatrix stores an R x C binary matrix row-major, one bit per element,
// packed little-endian into 64-bit words. Rows are padded to a multiple of
// 128 bits so that an Ampere bmma tile (k = 128) never straddles a row
// boundary, mirroring the device-side alignment requirement the paper's
// channel-major layout provides (§4.2a). Padding bits are always zero — an
// invariant the XOR/AND dot-product kernels rely on.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/check.hpp"
#include "src/common/rng.hpp"

namespace apnn::bitops {

inline constexpr int kWordBits = 64;
/// bmma granularity: rows are padded to multiples of 128 bits (2 words).
inline constexpr int kTileBits = 128;
inline constexpr int kWordsPerTile = kTileBits / kWordBits;

/// Number of 64-bit words needed to hold `bits` bits at 128-bit alignment.
constexpr std::int64_t padded_words(std::int64_t bits) {
  const std::int64_t tiles = (bits + kTileBits - 1) / kTileBits;
  return tiles * kWordsPerTile;
}

class BitMatrix {
 public:
  BitMatrix() = default;

  /// R x C all-zero matrix.
  BitMatrix(std::int64_t rows, std::int64_t cols);

  /// Reshapes in place to an R x C matrix, reusing the existing heap buffer
  /// whenever its capacity suffices (the session slab relies on this for
  /// zero steady-state growth). With `zero_fill` (the default) every
  /// word is cleared — required by OR-merge writers and the padding
  /// invariant. Writers that overwrite every word of every padded row
  /// (e.g. the session's word-wise packers) pass false to skip the extra
  /// pass; payload words then hold stale values until written.
  void reset_shape(std::int64_t rows, std::int64_t cols,
                   bool zero_fill = true);

  /// Bytes of backing storage currently reserved (>= storage_bytes()).
  std::size_t capacity_bytes() const { return data_.capacity() * 8; }

  std::int64_t rows() const { return rows_; }
  std::int64_t cols() const { return cols_; }
  /// Words per (padded) row.
  std::int64_t row_words() const { return row_words_; }
  /// Total backing storage in bytes (includes padding).
  std::int64_t storage_bytes() const {
    return static_cast<std::int64_t>(data_.size()) * 8;
  }
  /// Payload size in bytes: the bits that would move over a real bus
  /// (rows * cols / 8, fractional bytes rounded up per row).
  std::int64_t payload_bytes() const { return rows_ * ((cols_ + 7) / 8); }

  bool get(std::int64_t r, std::int64_t c) const {
    APNN_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return (row(r)[c / kWordBits] >> (c % kWordBits)) & 1ULL;
  }

  void set(std::int64_t r, std::int64_t c, bool v) {
    APNN_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    std::uint64_t& w = row(r)[c / kWordBits];
    const std::uint64_t mask = 1ULL << (c % kWordBits);
    w = v ? (w | mask) : (w & ~mask);
  }

  const std::uint64_t* row(std::int64_t r) const {
    return data_.data() + r * row_words_;
  }
  std::uint64_t* row(std::int64_t r) { return data_.data() + r * row_words_; }

  const std::uint64_t* data() const { return data_.data(); }
  std::uint64_t* data() { return data_.data(); }

  /// Sets every payload bit from a dense 0/1 row-major array.
  static BitMatrix from_dense01(const std::int32_t* vals, std::int64_t rows,
                                std::int64_t cols);

  /// Extracts bit-plane `s` of a dense non-negative integer matrix:
  /// out[r][c] = (vals[r*cols + c] >> s) & 1   (paper Eq. 2).
  static BitMatrix from_plane(const std::int32_t* vals, std::int64_t rows,
                              std::int64_t cols, int s);

  /// Random fill of the payload bits (padding stays zero).
  void randomize(Rng& rng);

  /// Expands back to a dense 0/1 matrix (row-major).
  std::vector<std::int32_t> to_dense01() const;

  /// popcount of one row's payload.
  std::int64_t row_popcount(std::int64_t r) const;

  bool operator==(const BitMatrix& o) const {
    return rows_ == o.rows_ && cols_ == o.cols_ && data_ == o.data_;
  }

 private:
  std::int64_t rows_ = 0;
  std::int64_t cols_ = 0;
  std::int64_t row_words_ = 0;
  std::vector<std::uint64_t> data_;
};

/// XOR+popc dot product over `words` packed words:
/// returns popc(a ^ b). For ±1-encoded vectors of true length n the integer
/// dot product is n - 2 * dot_xor_popc (§3.2 Case II).
inline std::int64_t dot_xor_popc(const std::uint64_t* a, const std::uint64_t* b,
                                 std::int64_t words) {
  std::int64_t acc = 0;
  for (std::int64_t i = 0; i < words; ++i) {
    acc += __builtin_popcountll(a[i] ^ b[i]);
  }
  return acc;
}

/// AND+popc dot product: popc(a & b) — the integer dot product of two
/// 0/1-encoded vectors (§3.2 Case I).
inline std::int64_t dot_and_popc(const std::uint64_t* a, const std::uint64_t* b,
                                 std::int64_t words) {
  std::int64_t acc = 0;
  for (std::int64_t i = 0; i < words; ++i) {
    acc += __builtin_popcountll(a[i] & b[i]);
  }
  return acc;
}

/// popc(b) over `words` words — used for the J·X correction of Case III.
inline std::int64_t popc_words(const std::uint64_t* b, std::int64_t words) {
  std::int64_t acc = 0;
  for (std::int64_t i = 0; i < words; ++i) acc += __builtin_popcountll(b[i]);
  return acc;
}

}  // namespace apnn::bitops
