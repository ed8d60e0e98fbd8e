// General matrix multiply for row-major float matrices, with transpose
// variants. This is the single compute kernel every distributed algorithm in
// the repository bottoms out in; it is written as a register-blocked,
// cache-tiled triple loop (no external BLAS).
#pragma once

#include <cstdint>

#include "tensor/tensor.hpp"

namespace tsr {

enum class Trans { N, T };

/// C = alpha * op(A) * op(B) + beta * C.
///
/// op(A) is m x k, op(B) is k x n, C is m x n; lda/ldb/ldc are the leading
/// (row) strides of the *stored* matrices, i.e. the number of columns of the
/// untransposed storage.
void gemm(Trans ta, Trans tb, std::int64_t m, std::int64_t n, std::int64_t k,
          float alpha, const float* a, std::int64_t lda, const float* b,
          std::int64_t ldb, float beta, float* c, std::int64_t ldc);

/// Returns op(a) * op(b) for 2-D tensors (a fresh tensor). matmul, bmm
/// and matmul_acc do no math on shape-only operands (tensor/tensor.hpp):
/// the result is shape-only and an accumulation target is left as is.
Tensor matmul(const Tensor& a, const Tensor& b, Trans ta = Trans::N,
              Trans tb = Trans::N);

/// C += op(a) * op(b) into an existing 2-D tensor.
void matmul_acc(const Tensor& a, const Tensor& b, Tensor& c,
                Trans ta = Trans::N, Trans tb = Trans::N, float beta = 1.0f);

/// Batched matmul over the leading dimension: [B,m,k] x [B,k,n] -> [B,m,n].
/// Transposes apply to the trailing two dimensions of each operand.
Tensor bmm(const Tensor& a, const Tensor& b, Trans ta = Trans::N,
           Trans tb = Trans::N);

/// FLOP count of a gemm with the given logical dimensions (2*m*n*k).
std::int64_t gemm_flops(std::int64_t m, std::int64_t n, std::int64_t k);

/// Pack-scratch arena telemetry, process-wide across all worker threads.
/// Every gemm acquires its packed-panel buffers from a worker-local arena;
/// an acquisition that had to grow the arena counts as an allocation, one
/// served from existing capacity as a reuse. Steady-state GEMM streams
/// should reuse >99% (the BufferPool counter pattern).
struct GemmScratchStats {
  std::uint64_t allocations = 0;
  std::uint64_t reuses = 0;
};
GemmScratchStats gemm_scratch_stats();

}  // namespace tsr
