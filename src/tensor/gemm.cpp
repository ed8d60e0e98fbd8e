#include "tensor/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "runtime/worker_pool.hpp"
#include "tensor/aligned.hpp"
#include "tensor/kernel_registry.hpp"

namespace tsr {
namespace {

// Packed, cache-blocked GEMM built around one register-tile micro-kernel,
// selected per call from the kernel variant registry (kernel_registry.hpp):
// the variant supplies the micro-kernel and its register tile width nr.
//
// Both operands are repacked into contiguous [k][kMR] / [k][nr] micro-panels
// so the inner loops run at unit stride regardless of the original leading
// dimensions. op(A) is packed once per call (per row slab of at most
// kAPackMax elements) by the calling thread; the column stripes of C then
// read that one buffer and pack only their own op(B) panels. The
// micro-kernel keeps its kMR x nr tile of C in registers across a k panel
// and touches C only at the ends (MicroForm in kernel_registry.hpp).
//
// Numerics of every variant are bit-identical to the scalar loops this
// replaces. Two rounding disciplines exist and are preserved exactly:
//   * update form (N/N, T/N): every k-term is accumulated straight into C
//     in ascending k order, with alpha folded into the packed A element.
//     Each k panel loads the C tile, adds its terms and stores it back; a
//     float store and reload is exact, so the per-element sequence is
//     c = c + (alpha*a)*b for k ascending whatever the panel depth kKC.
//   * dot form (N/T, T/T): the product is summed over the FULL k extent into
//     a zeroed accumulator and applied once as c += alpha * acc; k is
//     deliberately not blocked here, because splitting the sum would change
//     the rounding.
// Neither the tile width nr nor any row or column blocking appears in
// either discipline, which is why the 16-wide AVX-512 variant can still be
// memcmp-identical to the 8-wide scalar reference, at any worker count.
constexpr std::int64_t kMR = kMicroMR;  // register tile rows (all variants)
constexpr std::int64_t kNRMax = 16;     // widest tile in the registry
constexpr std::int64_t kKC = 256;       // k-panel depth (update form only)
constexpr std::int64_t kNC = 256;       // j-panel width
constexpr std::int64_t kMC = 64;        // op(A) rows per parallel pack task
// Largest packed op(A) slab (floats, 1 MiB): taller A is packed and
// multiplied in row slabs of this size.
constexpr std::int64_t kAPackMax = std::int64_t{1} << 18;

std::int64_t round_up(std::int64_t x, std::int64_t q) {
  return (x + q - 1) / q * q;
}

// Packs rows [ib, ie) of the op(A) row slab that starts at row i0 and is
// mp rows tall (a multiple of kMR), over the whole k extent, as successive
// k panels of depth kcmax (the last one shorter): panel k0 holds mp/kMR
// micro-panels of layout [kk][kMR], the one for slab rows ip.. starting at
// k0 * mp + ip * kc. ib is a multiple of kMR; rows from ie up to the next
// multiple of kMR are zero-padded. Each element is scaled by `scale`.
// trans: element (i, kk) of op(A) is a[kk*lda + i] instead of a[i*lda + kk].
void pack_a(bool trans, const float* a, std::int64_t lda, std::int64_t i0,
            std::int64_t ib, std::int64_t ie, std::int64_t mp, std::int64_t k,
            std::int64_t kcmax, float scale, float* apack) {
  for (std::int64_t k0 = 0; k0 < k; k0 += kcmax) {
    const std::int64_t kc = std::min(kcmax, k - k0);
    for (std::int64_t ip = ib; ip < ie; ip += kMR) {
      const std::int64_t mr = std::min(kMR, ie - ip);
      float* dst = apack + k0 * mp + ip * kc;
      if (trans) {
        for (std::int64_t kk = 0; kk < kc; ++kk) {
          const float* col = a + (k0 + kk) * lda + i0 + ip;
          for (std::int64_t ii = 0; ii < mr; ++ii) {
            dst[kk * kMR + ii] = scale * col[ii];
          }
        }
      } else {
        for (std::int64_t ii = 0; ii < mr; ++ii) {
          const float* row = a + (i0 + ip + ii) * lda + k0;
          for (std::int64_t kk = 0; kk < kc; ++kk) {
            dst[kk * kMR + ii] = scale * row[kk];
          }
        }
      }
      for (std::int64_t kk = 0; kk < kc; ++kk) {
        for (std::int64_t ii = mr; ii < kMR; ++ii) dst[kk * kMR + ii] = 0.0f;
      }
    }
  }
}

// Packs op(B)[k0:k0+kc][j0:j0+nc] as ceil(nc/vnr) micro-panels of layout
// [kk][vnr], short panels zero-padded.
// trans: element (kk, j) of op(B) is b[j*ldb + kk] instead of b[kk*ldb + j].
void pack_b(bool trans, const float* b, std::int64_t ldb, std::int64_t k0,
            std::int64_t j0, std::int64_t kc, std::int64_t nc,
            std::int64_t vnr, float* dst) {
  for (std::int64_t jp = 0; jp < nc; jp += vnr) {
    const std::int64_t nr = std::min(vnr, nc - jp);
    if (trans) {
      for (std::int64_t jj = 0; jj < nr; ++jj) {
        const float* col = b + (j0 + jp + jj) * ldb + k0;
        for (std::int64_t kk = 0; kk < kc; ++kk) {
          dst[kk * vnr + jj] = col[kk];
        }
      }
    } else {
      for (std::int64_t kk = 0; kk < kc; ++kk) {
        const float* row = b + (k0 + kk) * ldb + j0 + jp;
        for (std::int64_t jj = 0; jj < nr; ++jj) dst[kk * vnr + jj] = row[jj];
      }
    }
    for (std::int64_t kk = 0; kk < kc; ++kk) {
      for (std::int64_t jj = nr; jj < vnr; ++jj) dst[kk * vnr + jj] = 0.0f;
    }
    dst += kc * vnr;
  }
}

// Worker-local scratch arena for the packed panels: one per thread (pool
// workers and fiber-scheduler workers each have their own), grown on first
// use and reused for every later gemm on that thread, so steady-state GEMM
// streams allocate nothing. `apack` holds the op(A) slab a gemm call packs
// on its calling thread and every stripe reads; `bpack` the op(B) panels of
// the stripes this thread runs. The allocation/reuse counters are the
// proof — the same pattern comm::BufferPool uses — aggregated process-wide
// for gemm_scratch_stats(). Safe under the fiber backend: a fiber never
// yields mid-kernel and never migrates between worker threads, and a thread
// waiting for its stripes runs no other gemm. The arenas are
// kTensorAlignment-aligned so SIMD variants stream cache-line-aligned
// panels.
std::atomic<std::uint64_t> g_scratch_allocs{0};
std::atomic<std::uint64_t> g_scratch_reuses{0};

using PackBuffer = std::vector<float, AlignedAllocator<float>>;

// One acquisition of `buf` for `elems` floats: an allocation if it had to
// grow, a reuse otherwise.
float* acquire(PackBuffer& buf, std::int64_t elems) {
  const bool grew = static_cast<std::size_t>(elems) > buf.capacity();
  buf.resize(static_cast<std::size_t>(elems));
  (grew ? g_scratch_allocs : g_scratch_reuses)
      .fetch_add(1, std::memory_order_relaxed);
  return buf.data();
}

struct PackScratch {
  PackBuffer apack;
  PackBuffer bpack;
};

thread_local PackScratch t_scratch;

// Scales columns [jb, je) of the mc x n block of C at `c` by beta (beta ==
// 0 clears them, so the kernels can be pure accumulators).
void scale_c(float beta, float* c, std::int64_t ldc, std::int64_t mc,
             std::int64_t jb, std::int64_t je) {
  if (beta == 1.0f) return;
  for (std::int64_t i = 0; i < mc; ++i) {
    float* row = c + i * ldc;
    if (beta == 0.0f) {
      std::fill(row + jb, row + je, 0.0f);
    } else {
      for (std::int64_t j = jb; j < je; ++j) row[j] *= beta;
    }
  }
}

// Runs the micro-kernel on the mr x nr tile of C at `c`: in place when the
// tile is full, through a zero-padded stack tile at the ragged edges.
void micro_tile(const KernelVariant& v, MicroForm form, std::int64_t kc,
                const float* ap, const float* bp, float alpha, float* c,
                std::int64_t ldc, std::int64_t mr, std::int64_t nr) {
  if (mr == kMR && nr == v.nr) {
    v.micro(form, kc, ap, bp, alpha, c, ldc);
    return;
  }
  alignas(kTensorAlignment) float tile[kMR * kNRMax] = {};
  for (std::int64_t ii = 0; ii < mr; ++ii) {
    std::copy(c + ii * ldc, c + ii * ldc + nr, tile + ii * v.nr);
  }
  v.micro(form, kc, ap, bp, alpha, tile, v.nr);
  for (std::int64_t ii = 0; ii < mr; ++ii) {
    std::copy(tile + ii * v.nr, tile + ii * v.nr + nr, c + ii * ldc);
  }
}

// One row slab of the product over the output columns [jb, je): beta-scales
// that part of C, then runs every k panel (depth kcmax: kKC in the update
// form, the full k in the dot form) over the slab's packed op(A) `apack`.
// The full kernel is gemm_cols(.., 0, n); a parallel caller hands each
// worker a disjoint nr-aligned column stripe.
void gemm_cols(const KernelVariant& v, MicroForm form, std::int64_t kcmax,
               bool b_trans, std::int64_t mc, std::int64_t k, float alpha,
               const float* apack, const float* b, std::int64_t ldb,
               float beta, float* c, std::int64_t ldc, std::int64_t jb,
               std::int64_t je) {
  scale_c(beta, c, ldc, mc, jb, je);
  const std::int64_t vnr = v.nr;
  const std::int64_t mp = round_up(mc, kMR);
  float* bpack =
      acquire(t_scratch.bpack, round_up(std::min(kNC, je - jb), vnr) * kcmax);
  for (std::int64_t k0 = 0; k0 < k; k0 += kcmax) {
    const std::int64_t kc = std::min(kcmax, k - k0);
    const float* apanel = apack + k0 * mp;
    for (std::int64_t j0 = jb; j0 < je; j0 += kNC) {
      const std::int64_t nc = std::min(kNC, je - j0);
      pack_b(b_trans, b, ldb, k0, j0, kc, nc, vnr, bpack);
      for (std::int64_t jp = 0; jp < nc; jp += vnr) {
        const std::int64_t nr = std::min(vnr, nc - jp);
        const float* bp = bpack + (jp / vnr) * kc * vnr;
        for (std::int64_t ip = 0; ip < mc; ip += kMR) {
          micro_tile(v, form, kc, apanel + ip * kc, bp, alpha,
                     c + ip * ldc + j0 + jp, ldc, std::min(kMR, mc - ip), nr);
        }
      }
    }
  }
}

// Below this, fan-out overhead beats the win even on a wide host.
constexpr std::int64_t kMinParallelFlops = 1 << 20;

// Fans fn(begin, end) out over disjoint grain-aligned chunks of [0, n) on
// the persistent worker pool (rt::parallel_chunks), or runs fn(0, n) inline
// for products too small to pay for the fan-out. The column stripes of C
// (grain nr, at most the cache panel kNC wide) each own their part of C
// outright and pack op(B) into their own thread-local arena; the op(A) pack
// splits into row blocks (grain kMC). Per-element FP sequences are
// independent of either partition, so results are bit-identical for every
// worker count (and to the serial kernel).
template <typename Fn>
void fan_out(std::int64_t flops, std::int64_t n, std::int64_t grain,
             std::int64_t max_chunk, const Fn& fn) {
  if (flops < kMinParallelFlops) {
    fn(0, n);
    return;
  }
  rt::parallel_chunks(n, grain, fn, max_chunk);
}

}  // namespace

GemmScratchStats gemm_scratch_stats() {
  return {g_scratch_allocs.load(), g_scratch_reuses.load()};
}

void gemm(Trans ta, Trans tb, std::int64_t m, std::int64_t n, std::int64_t k,
          float alpha, const float* a, std::int64_t lda, const float* b,
          std::int64_t ldb, float beta, float* c, std::int64_t ldc) {
  if (m == 0 || n == 0) return;
  const KernelVariant& v = active_kernel_variant();
  if (k == 0 || alpha == 0.0f) {
    scale_c(beta, c, ldc, m, 0, n);
    return;
  }
  const bool a_trans = ta == Trans::T;
  const bool b_trans = tb == Trans::T;
  const MicroForm form = b_trans ? MicroForm::dot : MicroForm::update;
  const std::int64_t kcmax = b_trans ? k : kKC;
  const float scale = b_trans ? 1.0f : alpha;
  const std::int64_t slab =
      std::max(kMR, std::min(round_up(m, kMR), kAPackMax / k / kMR * kMR));
  for (std::int64_t i0 = 0; i0 < m; i0 += slab) {
    const std::int64_t mc = std::min(slab, m - i0);
    const std::int64_t mp = round_up(mc, kMR);
    const std::int64_t flops = 2 * mc * n * k;
    float* apack = acquire(t_scratch.apack, mp * k);
    fan_out(flops, mc, kMC, kMC, [&](std::int64_t ib, std::int64_t ie) {
      pack_a(a_trans, a, lda, i0, ib, ie, mp, k, kcmax, scale, apack);
    });
    float* cslab = c + i0 * ldc;
    fan_out(flops, n, v.nr, kNC, [&](std::int64_t jb, std::int64_t je) {
      gemm_cols(v, form, kcmax, b_trans, mc, k, alpha, apack, b, ldb, beta,
                cslab, ldc, jb, je);
    });
  }
}

namespace {
void matmul_dims(const Tensor& a, const Tensor& b, Trans ta, Trans tb,
                 std::int64_t& m, std::int64_t& n, std::int64_t& k) {
  check(a.ndim() == 2 && b.ndim() == 2, "matmul: operands must be 2-D");
  m = ta == Trans::N ? a.dim(0) : a.dim(1);
  const std::int64_t ka = ta == Trans::N ? a.dim(1) : a.dim(0);
  const std::int64_t kb = tb == Trans::N ? b.dim(0) : b.dim(1);
  n = tb == Trans::N ? b.dim(1) : b.dim(0);
  if (ka != kb) {
    throw std::invalid_argument("matmul: inner dimensions mismatch: " +
                                shape_to_string(a.shape()) + " x " +
                                shape_to_string(b.shape()));
  }
  k = ka;
}
}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b, Trans ta, Trans tb) {
  std::int64_t m, n, k;
  matmul_dims(a, b, ta, tb, m, n, k);
  if (a.is_shape_only()) return Tensor::shape_only({m, n});
  Tensor c({m, n});
  gemm(ta, tb, m, n, k, 1.0f, a.data(), a.dim(1), b.data(), b.dim(1), 0.0f,
       c.data(), n);
  return c;
}

void matmul_acc(const Tensor& a, const Tensor& b, Tensor& c, Trans ta, Trans tb,
                float beta) {
  std::int64_t m, n, k;
  matmul_dims(a, b, ta, tb, m, n, k);
  check(c.ndim() == 2 && c.dim(0) == m && c.dim(1) == n,
        "matmul_acc: output shape mismatch");
  if (c.is_shape_only()) return;
  gemm(ta, tb, m, n, k, 1.0f, a.data(), a.dim(1), b.data(), b.dim(1), beta,
       c.data(), n);
}

Tensor bmm(const Tensor& a, const Tensor& b, Trans ta, Trans tb) {
  check(a.ndim() == 3 && b.ndim() == 3, "bmm: operands must be 3-D");
  check(a.dim(0) == b.dim(0), "bmm: batch dimensions mismatch");
  const std::int64_t batch = a.dim(0);
  const std::int64_t m = ta == Trans::N ? a.dim(1) : a.dim(2);
  const std::int64_t ka = ta == Trans::N ? a.dim(2) : a.dim(1);
  const std::int64_t kb = tb == Trans::N ? b.dim(1) : b.dim(2);
  const std::int64_t n = tb == Trans::N ? b.dim(2) : b.dim(1);
  check(ka == kb, "bmm: inner dimensions mismatch");
  if (a.is_shape_only()) return Tensor::shape_only({batch, m, n});
  Tensor c({batch, m, n});
  const std::int64_t as = a.dim(1) * a.dim(2);
  const std::int64_t bs = b.dim(1) * b.dim(2);
  const std::int64_t cs = m * n;
  const auto items = [&](std::int64_t ib, std::int64_t ie) {
    for (std::int64_t i = ib; i < ie; ++i) {
      gemm(ta, tb, m, n, ka, 1.0f, a.data() + i * as, a.dim(2),
           b.data() + i * bs, b.dim(2), 0.0f, c.data() + i * cs, n);
    }
  };
  // Small items run serially inside gemm, so spread the batch over the pool
  // instead, at least kMinParallelFlops per chunk. Items at or above that
  // size fan out their own column stripes; fanning out the batch too would
  // nest the two.
  const std::int64_t item_flops = 2 * m * n * ka;
  if (item_flops >= kMinParallelFlops || item_flops == 0) {
    items(0, batch);
  } else {
    rt::parallel_chunks(batch, kMinParallelFlops / item_flops, items);
  }
  return c;
}

std::int64_t gemm_flops(std::int64_t m, std::int64_t n, std::int64_t k) {
  return 2 * m * n * k;
}

}  // namespace tsr
