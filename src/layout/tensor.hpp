// Minimal dense tensor used throughout the library (host data only).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <numeric>
#include <vector>

#include "src/common/check.hpp"
#include "src/common/rng.hpp"

namespace apnn {

/// Row-major dense tensor.
template <typename T>
class Tensor {
 public:
  Tensor() = default;

  explicit Tensor(std::vector<std::int64_t> shape) : shape_(std::move(shape)) {
    std::int64_t n = 1;
    for (auto d : shape_) {
      APNN_CHECK(d >= 0) << "negative dim";
      n *= d;
    }
    data_.assign(static_cast<std::size_t>(n), T{});
  }

  Tensor(std::initializer_list<std::int64_t> shape)
      : Tensor(std::vector<std::int64_t>(shape)) {}

  const std::vector<std::int64_t>& shape() const { return shape_; }
  int rank() const { return static_cast<int>(shape_.size()); }
  std::int64_t dim(int i) const {
    APNN_DCHECK(i >= 0 && i < rank());
    return shape_[static_cast<std::size_t>(i)];
  }
  std::int64_t numel() const {
    return static_cast<std::int64_t>(data_.size());
  }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }

  T& operator[](std::int64_t i) {
    APNN_DCHECK(i >= 0 && i < numel());
    return data_[static_cast<std::size_t>(i)];
  }
  const T& operator[](std::int64_t i) const {
    APNN_DCHECK(i >= 0 && i < numel());
    return data_[static_cast<std::size_t>(i)];
  }

  /// Variadic element access: t(i, j, k) with row-major strides.
  template <typename... Ix>
  T& operator()(Ix... ix) {
    return data_[static_cast<std::size_t>(flat_index({static_cast<std::int64_t>(ix)...}))];
  }
  template <typename... Ix>
  const T& operator()(Ix... ix) const {
    return data_[static_cast<std::size_t>(flat_index({static_cast<std::int64_t>(ix)...}))];
  }

  /// Reinterpret with a new shape of equal element count.
  Tensor<T> reshaped(std::vector<std::int64_t> new_shape) const {
    Tensor<T> t(std::move(new_shape));
    APNN_CHECK(t.numel() == numel())
        << "reshape " << numel() << " -> " << t.numel();
    t.data_ = data_;
    return t;
  }

  /// Reshapes in place to an arbitrary new shape, reusing the existing heap
  /// buffers (data and shape vector) whenever capacity suffices — the
  /// session slab relies on this for zero steady-state growth. Element
  /// values are unspecified afterwards unless the element count is
  /// unchanged.
  void reset_shape(std::initializer_list<std::int64_t> shape) {
    shape_.assign(shape);
    finish_reset();
  }
  void reset_shape(const std::vector<std::int64_t>& shape) {
    shape_.assign(shape.begin(), shape.end());
    finish_reset();
  }

  /// Bytes of backing storage currently reserved (>= numel() * sizeof(T)).
  std::size_t capacity_bytes() const { return data_.capacity() * sizeof(T); }

  void fill(T v) { std::fill(data_.begin(), data_.end(), v); }

  /// Uniform fill: integers in [lo, hi], or reals in [lo, hi).
  void randomize(Rng& rng, T lo, T hi) {
    if constexpr (std::is_integral_v<T>) {
      for (auto& v : data_) {
        v = static_cast<T>(rng.uniform_int(static_cast<std::int64_t>(lo),
                                           static_cast<std::int64_t>(hi)));
      }
    } else {
      for (auto& v : data_) {
        v = static_cast<T>(rng.uniform(static_cast<double>(lo),
                                       static_cast<double>(hi)));
      }
    }
  }

  std::int64_t flat_index(std::initializer_list<std::int64_t> idx) const {
    APNN_DCHECK(static_cast<int>(idx.size()) == rank());
    std::int64_t flat = 0;
    int d = 0;
    for (std::int64_t i : idx) {
      APNN_DCHECK(i >= 0 && i < shape_[static_cast<std::size_t>(d)])
          << "index " << i << " out of bounds for dim " << d;
      flat = flat * shape_[static_cast<std::size_t>(d)] + i;
      ++d;
    }
    return flat;
  }

  bool operator==(const Tensor<T>& o) const {
    return shape_ == o.shape_ && data_ == o.data_;
  }

 private:
  void finish_reset() {
    std::int64_t n = 1;
    for (auto d : shape_) {
      APNN_CHECK(d >= 0) << "negative dim";
      n *= d;
    }
    data_.resize(static_cast<std::size_t>(n));
  }

  std::vector<std::int64_t> shape_;
  std::vector<T> data_;
};

}  // namespace apnn
