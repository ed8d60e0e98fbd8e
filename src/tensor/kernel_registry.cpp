#include "tensor/kernel_registry.hpp"

#include <atomic>
#include <cstdlib>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define TSR_X86 1
#endif

namespace tsr {
namespace {

// ---------------------------------------------------------------------------
// Micro-kernels. The bit-identity discipline (docs/performance.md): per
// output element the FP sequence is `acc += a * b` with kk ascending —
// starting from the C element in the update form, from zero in the dot form
// (then c += alpha * acc) — and this file is built without FMA contraction,
// so any variant that keeps multiply and add as separate rounded operations
// per element is memcmp-identical to scalar regardless of tile width.
// ---------------------------------------------------------------------------

void micro_scalar(MicroForm form, std::int64_t kc, const float* ap,
                  const float* bp, float alpha, float* c, std::int64_t ldc) {
  constexpr std::int64_t kNR = 8;
  const bool dot = form == MicroForm::dot;
  float acc[kMicroMR * kNR];
  for (std::int64_t ii = 0; ii < kMicroMR; ++ii) {
    for (std::int64_t jj = 0; jj < kNR; ++jj) {
      acc[ii * kNR + jj] = dot ? 0.0f : c[ii * ldc + jj];
    }
  }
  for (std::int64_t kk = 0; kk < kc; ++kk) {
    const float* arow = ap + kk * kMicroMR;
    const float* brow = bp + kk * kNR;
    for (std::int64_t ii = 0; ii < kMicroMR; ++ii) {
      const float aik = arow[ii];
#pragma omp simd
      for (std::int64_t jj = 0; jj < kNR; ++jj) {
        acc[ii * kNR + jj] += aik * brow[jj];
      }
    }
  }
  for (std::int64_t ii = 0; ii < kMicroMR; ++ii) {
    for (std::int64_t jj = 0; jj < kNR; ++jj) {
      float& cij = c[ii * ldc + jj];
      cij = dot ? cij + alpha * acc[ii * kNR + jj] : acc[ii * kNR + jj];
    }
  }
}

void axpy_scalar(float alpha, const float* x, float* y, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void scale_scalar(float* x, float alpha, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) x[i] *= alpha;
}

#ifdef TSR_X86

// Tile row prologue/epilogue shared by the SIMD kernels: the update form
// loads the C row and stores the sum back; the dot form starts from zero
// and stores c + alpha * acc.
__attribute__((target("avx2"))) inline __m256 row_begin8(MicroForm form,
                                                         const float* c) {
  return form == MicroForm::dot ? _mm256_setzero_ps() : _mm256_loadu_ps(c);
}

__attribute__((target("avx2"))) inline void row_end8(MicroForm form,
                                                     float alpha, __m256 acc,
                                                     float* c) {
  if (form == MicroForm::dot) {
    acc = _mm256_add_ps(_mm256_loadu_ps(c),
                        _mm256_mul_ps(_mm256_set1_ps(alpha), acc));
  }
  _mm256_storeu_ps(c, acc);
}

__attribute__((target("avx512f"))) inline __m512 row_begin16(MicroForm form,
                                                             const float* c) {
  return form == MicroForm::dot ? _mm512_setzero_ps() : _mm512_loadu_ps(c);
}

__attribute__((target("avx512f"))) inline void row_end16(MicroForm form,
                                                         float alpha,
                                                         __m512 acc, float* c) {
  if (form == MicroForm::dot) {
    acc = _mm512_add_ps(_mm512_loadu_ps(c),
                        _mm512_mul_ps(_mm512_set1_ps(alpha), acc));
  }
  _mm512_storeu_ps(c, acc);
}

// AVX2 4x8 tile, separate mul+add — bit-identical to micro_scalar.
__attribute__((target("avx2"))) void micro_avx2(MicroForm form,
                                                std::int64_t kc,
                                                const float* ap,
                                                const float* bp, float alpha,
                                                float* c, std::int64_t ldc) {
  __m256 c0 = row_begin8(form, c);
  __m256 c1 = row_begin8(form, c + ldc);
  __m256 c2 = row_begin8(form, c + 2 * ldc);
  __m256 c3 = row_begin8(form, c + 3 * ldc);
  for (std::int64_t kk = 0; kk < kc; ++kk) {
    const __m256 b = _mm256_loadu_ps(bp + kk * 8);
    const float* arow = ap + kk * 4;
    c0 = _mm256_add_ps(c0, _mm256_mul_ps(_mm256_broadcast_ss(arow + 0), b));
    c1 = _mm256_add_ps(c1, _mm256_mul_ps(_mm256_broadcast_ss(arow + 1), b));
    c2 = _mm256_add_ps(c2, _mm256_mul_ps(_mm256_broadcast_ss(arow + 2), b));
    c3 = _mm256_add_ps(c3, _mm256_mul_ps(_mm256_broadcast_ss(arow + 3), b));
  }
  row_end8(form, alpha, c0, c);
  row_end8(form, alpha, c1, c + ldc);
  row_end8(form, alpha, c2, c + 2 * ldc);
  row_end8(form, alpha, c3, c + 3 * ldc);
}

// AVX-512 4x16 tile, same mul+add discipline — still memcmp-identical: the
// wider tile only changes which elements share a register, not any
// per-element rounding sequence.
__attribute__((target("avx512f"))) void micro_avx512(
    MicroForm form, std::int64_t kc, const float* ap, const float* bp,
    float alpha, float* c, std::int64_t ldc) {
  __m512 c0 = row_begin16(form, c);
  __m512 c1 = row_begin16(form, c + ldc);
  __m512 c2 = row_begin16(form, c + 2 * ldc);
  __m512 c3 = row_begin16(form, c + 3 * ldc);
  for (std::int64_t kk = 0; kk < kc; ++kk) {
    const __m512 b = _mm512_loadu_ps(bp + kk * 16);
    const float* arow = ap + kk * 4;
    c0 = _mm512_add_ps(c0, _mm512_mul_ps(_mm512_set1_ps(arow[0]), b));
    c1 = _mm512_add_ps(c1, _mm512_mul_ps(_mm512_set1_ps(arow[1]), b));
    c2 = _mm512_add_ps(c2, _mm512_mul_ps(_mm512_set1_ps(arow[2]), b));
    c3 = _mm512_add_ps(c3, _mm512_mul_ps(_mm512_set1_ps(arow[3]), b));
  }
  row_end16(form, alpha, c0, c);
  row_end16(form, alpha, c1, c + ldc);
  row_end16(form, alpha, c2, c + 2 * ldc);
  row_end16(form, alpha, c3, c + 3 * ldc);
}

// Elementwise ops are per-element independent, so the vectorized mul+add
// forms are bit-identical to scalar (remainder handled scalar).
__attribute__((target("avx2"))) void axpy_avx2(float alpha, const float* x,
                                               float* y, std::int64_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vy = _mm256_loadu_ps(y + i);
    _mm256_storeu_ps(
        y + i, _mm256_add_ps(vy, _mm256_mul_ps(va, _mm256_loadu_ps(x + i))));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

__attribute__((target("avx2"))) void scale_avx2(float* x, float alpha,
                                                std::int64_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(_mm256_loadu_ps(x + i), va));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

#endif  // TSR_X86

// ---------------------------------------------------------------------------
// The table
// ---------------------------------------------------------------------------

bool avail_always(const CpuFeatures&) { return true; }
#ifdef TSR_X86
bool avail_avx2(const CpuFeatures& f) { return f.avx2; }
bool avail_avx512(const CpuFeatures& f) { return f.avx2 && f.avx512f; }
#endif

const KernelVariant kTable[] = {
    // name, nr, micro, axpy, scale, available. Default resolution picks the
    // LAST available entry, so keep them in ascending preference order.
    {"scalar", 8, micro_scalar, axpy_scalar, scale_scalar, avail_always},
#ifdef TSR_X86
    {"avx2", 8, micro_avx2, axpy_avx2, scale_avx2, avail_avx2},
    {"avx512", 16, micro_avx512, axpy_avx2, scale_avx2, avail_avx512},
#endif
};

std::atomic<const KernelVariant*> g_active{nullptr};

}  // namespace

std::span<const KernelVariant> kernel_variants() {
  return {kTable, sizeof(kTable) / sizeof(kTable[0])};
}

const KernelVariant* find_kernel_variant(std::string_view name) {
  for (const KernelVariant& v : kernel_variants()) {
    if (name == v.name) return &v;
  }
  return nullptr;
}

const KernelVariant& resolve_kernel_variant(std::string_view forced,
                                            const CpuFeatures& f) {
  if (!forced.empty()) {
    const KernelVariant* v = find_kernel_variant(forced);
    if (v != nullptr && v->available(f)) return *v;
    return kTable[0];  // graceful fallback: unknown or unavailable -> scalar
  }
  const KernelVariant* best = &kTable[0];
  for (const KernelVariant& v : kernel_variants()) {
    if (v.available(f)) best = &v;
  }
  return *best;
}

const KernelVariant& active_kernel_variant() {
  const KernelVariant* v = g_active.load(std::memory_order_acquire);
  if (v == nullptr) {
    const char* env = std::getenv("TESSERACT_KERNEL");
    v = &resolve_kernel_variant(env != nullptr ? env : "", cpu_features());
    g_active.store(v, std::memory_order_release);
  }
  return *v;
}

const KernelVariant& force_kernel_variant(const char* name) {
  const char* env = std::getenv("TESSERACT_KERNEL");
  const char* pick = name != nullptr ? name : (env != nullptr ? env : "");
  const KernelVariant& v = resolve_kernel_variant(pick, cpu_features());
  g_active.store(&v, std::memory_order_release);
  return v;
}

std::int64_t active_kernel_variant_index() {
  return &active_kernel_variant() - kTable;
}

}  // namespace tsr
