// Kernel variant registry: one dispatch table of signature-compatible
// GEMM / elementwise micro-kernels (the oalsfxpp mixer idiom).
//
// Variants:
//   scalar  — the portable reference kernel; the bit-identity baseline.
//   avx2    — 4x8 tile with AVX2 intrinsics, separate mul+add (no FMA), so
//             every output element sees the exact FP sequence of scalar:
//             memcmp-identical, safe to auto-dispatch.
//   avx512  — 4x16 tile, same mul+add discipline, memcmp-identical.
//
// Every variant is memcmp-identical to scalar, so the choice never changes a
// result. Selection: TESSERACT_KERNEL=<name> forces a variant (an
// unavailable or unknown name falls back to scalar); with no override the
// widest variant the host supports is chosen from cpuid. The active variant is
// stamped into report envelopes (perf::stamp_envelope) and recorded as the
// `kernel.variant` gauge.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "tensor/cpu_features.hpp"

namespace tsr {

/// Register-tile height shared by every packed micro-kernel (panel layout
/// and zero-padding assume it; see gemm.cpp).
inline constexpr std::int64_t kMicroMR = 4;

/// The two rounding disciplines of the packed GEMM (docs/performance.md),
/// as applied by a micro-kernel to its C tile:
///   update — load the tile from C, add ap[kk][ii] * bp[kk][jj] for kk
///            ascending (alpha is already folded into the packed A), store;
///   dot    — start an accumulator at zero, add ap[kk][ii] * bp[kk][jj] for
///            kk ascending, then c += alpha * acc once.
enum class MicroForm { update, dot };

/// One kMicroMR x nr tile of C (row-major, row stride ldc) over the packed
/// [kk][kMicroMR] / [kk][nr] panels ap/bp of depth kc. The tile lives in
/// registers for the whole call; `alpha` is read by the dot form only.
using MicroKernelFn = void (*)(MicroForm form, std::int64_t kc,
                               const float* ap, const float* bp, float alpha,
                               float* c, std::int64_t ldc);

/// Elementwise y[i] += alpha * x[i] and x[i] *= alpha.
using AxpyFn = void (*)(float alpha, const float* x, float* y, std::int64_t n);
using ScaleFn = void (*)(float* x, float alpha, std::int64_t n);

struct KernelVariant {
  const char* name;
  std::int64_t nr;            ///< register tile width (micro-panel stride)
  MicroKernelFn micro;
  AxpyFn axpy;
  ScaleFn scale;
  bool (*available)(const CpuFeatures& f);
};

/// The full table, in fixed registry order (scalar first).
std::span<const KernelVariant> kernel_variants();

/// Table lookup by name; nullptr when unknown.
const KernelVariant* find_kernel_variant(std::string_view name);

/// Pure resolution rule (unit-testable without touching the host cpuid):
/// a non-empty `forced` name selects that variant if it exists and is
/// available under `f`, else scalar (graceful fallback — e.g. AVX absent);
/// an empty name selects the last available variant in table order
/// (avx512 > avx2 > scalar).
const KernelVariant& resolve_kernel_variant(std::string_view forced,
                                            const CpuFeatures& f);

/// The variant every gemm/axpy/scale dispatches through. First call resolves
/// TESSERACT_KERNEL against the host cpu_features() and caches the result.
const KernelVariant& active_kernel_variant();

/// Test/bench hook: forces the active variant by name (same fallback rule as
/// the env override); nullptr re-resolves from the environment. Returns the
/// variant actually activated. Not thread-safe against in-flight gemms —
/// call between kernels, as the dispatch sweep benches do.
const KernelVariant& force_kernel_variant(const char* name);

/// Index of the active variant in kernel_variants() — the value recorded as
/// the `kernel.variant` gauge (0 = scalar).
std::int64_t active_kernel_variant_index();

}  // namespace tsr
