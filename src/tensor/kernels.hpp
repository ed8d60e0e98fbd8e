// Elementwise, reduction, and block-movement kernels shared by the serial
// reference layers and the distributed algorithms. The kernels the parallel
// layers call return a shape-only result for a shape-only first operand
// (in-place kernels do nothing to a shape-only target); mixing a shape-only
// operand with a real one is a contract violation.
#pragma once

#include <cstdint>

#include "tensor/tensor.hpp"

namespace tsr {

// ---- Elementwise --------------------------------------------------------

/// out = a + b (shapes must have equal numel).
Tensor add(const Tensor& a, const Tensor& b);
/// out = a - b.
Tensor sub(const Tensor& a, const Tensor& b);
/// out = a * b (Hadamard).
Tensor mul(const Tensor& a, const Tensor& b);
/// a += alpha * b, in place.
void axpy(float alpha, const Tensor& x, Tensor& y);
/// t *= alpha, in place.
void scale(Tensor& t, float alpha);
/// out = t * alpha.
Tensor scaled(const Tensor& t, float alpha);

/// Adds a bias vector over the last dimension: x[..., j] += bias[j].
void add_bias(Tensor& x, const Tensor& bias);
/// Gradient of add_bias: sums dy over all leading dimensions -> [features].
Tensor bias_grad(const Tensor& dy);

// ---- Reductions ---------------------------------------------------------

float sum(const Tensor& t);
float mean(const Tensor& t);
float max_abs(const Tensor& t);
/// max |a - b| over all elements; shapes must have equal numel.
float max_abs_diff(const Tensor& a, const Tensor& b);
/// True when all |a - b| <= atol + rtol * |b|.
bool allclose(const Tensor& a, const Tensor& b, float rtol = 1e-4f,
              float atol = 1e-5f);

// ---- Block movement (2-D) -----------------------------------------------
// These implement the split/combine layouts of Fig. 4 of the paper: tensors
// are partitioned into contiguous [rows x cols] blocks matching the grid.

/// Copies the block rows [r0, r0+rows) x cols [c0, c0+cols) of a 2-D tensor.
Tensor slice_block(const Tensor& src, std::int64_t r0, std::int64_t c0,
                   std::int64_t rows, std::int64_t cols);
/// Writes `block` into dst at row/col offset (r0, c0). dst must be 2-D.
void paste_block(Tensor& dst, const Tensor& block, std::int64_t r0,
                 std::int64_t c0);

/// Transpose of a 2-D tensor (fresh storage).
Tensor transpose2d(const Tensor& t);

/// Concatenate 2-D tensors along columns (all with equal row counts).
Tensor hcat(const std::vector<Tensor>& parts);
/// Concatenate 2-D tensors along rows (all with equal column counts).
Tensor vcat(const std::vector<Tensor>& parts);

}  // namespace tsr
