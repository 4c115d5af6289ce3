// Session-owned activation slab.
//
// An InferenceSession's ExecutionPlan assigns every intermediate network
// value to a slot of an ActivationSlab. Unlike the per-thread ScratchArena
// (block-scoped temporaries), slab slots hold whole inter-layer activations
// and are shared across the plan: liveness analysis reuses a slot as soon as
// its previous occupant's last consumer has run. Each slot keeps one
// resizable buffer per value representation — a dense int32 tensor, packed
// channel-major activations, and transposed feature bit planes — all of
// which reshape in place and grow to their high-water capacity once, so
// steady-state forward passes allocate no activation storage.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/bitops/decompose.hpp"
#include "src/layout/packed_activations.hpp"
#include "src/layout/tensor.hpp"

namespace apnn::parallel {

/// One reusable activation buffer. A slot holds at most one live value at a
/// time; which member carries it is the plan's bookkeeping.
struct SlabSlot {
  Tensor<std::int32_t> dense;          ///< dense NHWC / {B, F} values
  layout::PackedActivations packed;    ///< channel-major packed activations
  bitops::BitPlanes planes;            ///< N x M feature planes (linear path)

  std::size_t capacity_bytes() const;
};

/// Fixed pool of SlabSlots with footprint accounting. Not thread-safe: a
/// slab belongs to one session, and one run() executes at a time.
class ActivationSlab {
 public:
  ActivationSlab() = default;
  ActivationSlab(const ActivationSlab&) = delete;
  ActivationSlab& operator=(const ActivationSlab&) = delete;

  /// Ensures at least `n` slots exist.
  void require(std::size_t n) {
    if (slots_.size() < n) slots_.resize(n);
  }

  std::size_t size() const { return slots_.size(); }
  SlabSlot& slot(std::size_t i) { return slots_[i]; }
  const SlabSlot& slot(std::size_t i) const { return slots_[i]; }

  /// Total backing capacity across all slots. Stable across repeated runs of
  /// the same workload — the zero-steady-state-allocation tests pin this.
  std::size_t capacity_bytes() const;

  /// Largest capacity_bytes() ever observed (updated by note_high_water,
  /// which run() calls once per pass).
  std::size_t high_water_bytes() const { return high_water_; }
  void note_high_water();

 private:
  std::vector<SlabSlot> slots_;
  std::size_t high_water_ = 0;
};

}  // namespace apnn::parallel
