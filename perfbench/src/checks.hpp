// Correctness checks made apart from the code under test, and the
// self-test that shows each of them can fail.
#pragma once

#include <cstdint>
#include <string>

#include "src/layout/im2col.hpp"
#include "src/layout/packed_activations.hpp"
#include "src/layout/tensor.hpp"

namespace perfbench {

using apnn::Tensor;

/// Values in which `got` differs from `want`; a shape difference counts as
/// every value differing (never 0).
std::int64_t mismatches(const Tensor<std::int32_t>& got,
                        const Tensor<std::int32_t>& want);

/// Logical NHWC values of packed activations, read bit by bit from the
/// planes: the code itself, or 2 * code - 1 for a ±1 (`pm1`) encoding.
Tensor<std::int32_t> logical_values(const apnn::layout::PackedActivations& x,
                                    bool pm1);

/// Direct convolution with zero padding: x is NHWC logical activations,
/// w is {Cout, KH * KW * Cin} logical weights in (kh, kw, cin) order.
/// Returns the raw int32 NHWC output {N, OH, OW, Cout}.
Tensor<std::int32_t> naive_conv(const Tensor<std::int32_t>& x,
                                const Tensor<std::int32_t>& w,
                                const apnn::layout::ConvGeometry& g);

/// `apnn_model_requests_total{model="<model>"}` from a /stats document;
/// -1 when the line is missing.
std::int64_t requests_total(const std::string& prometheus,
                            const std::string& model);

/// Runs every check once on clean data and once on a copy with one value
/// corrupted, on a small model; returns the number of checks that did not
/// pass clean or did not fail corrupted (0 = every check can fail).
int selftest(const std::string& scratch_dir);

}  // namespace perfbench
