// Kernel variant registry: table shape, the pure resolution rule (including
// graceful fallback when AVX is absent), the forced-variant dispatch matrix
// with every variant checked bit for bit against scalar, elementwise
// dispatch, and the aligned allocation contract.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "comm/buffer_pool.hpp"
#include "tensor/aligned.hpp"
#include "tensor/gemm.hpp"
#include "tensor/kernel_registry.hpp"
#include "tensor/kernels.hpp"

namespace tsr {
namespace {

// Restores default (env-driven) dispatch when a test that forced a variant
// ends, so test order never matters.
struct VariantGuard {
  ~VariantGuard() { force_kernel_variant(nullptr); }
};

// Scoped environment override (same idiom as test_fault.cpp).
class EnvGuard {
 public:
  explicit EnvGuard(const char* name) : name_(name) {
    if (const char* v = std::getenv(name)) {
      had_ = true;
      old_ = v;
    }
  }
  ~EnvGuard() {
    if (had_) {
      setenv(name_, old_.c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }
  void set(const std::string& value) { setenv(name_, value.c_str(), 1); }
  void clear() { unsetenv(name_); }

 private:
  const char* name_;
  bool had_ = false;
  std::string old_;
};

// Deterministic positive test data (no RNG dependency): values in [0.5, 1.5)
// so sums never cancel and relative tolerances stay meaningful.
Tensor filled(Shape shape, std::uint32_t salt) {
  Tensor t(std::move(shape));
  float* p = t.data();
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    const std::uint32_t h =
        (static_cast<std::uint32_t>(i) + salt) * 2654435761u;
    p[i] = 0.5f + static_cast<float>(h % 4096u) / 4096.0f;
  }
  return t;
}

bool bit_identical(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

// ---- table shape ------------------------------------------------------------

TEST(KernelRegistry, TableShapeAndInvariants) {
  const auto table = kernel_variants();
  ASSERT_GE(table.size(), 1u);
  EXPECT_STREQ(table[0].name, "scalar");
  for (const KernelVariant& v : table) {
    // Signature compatibility: every variant is fully populated.
    EXPECT_NE(v.micro, nullptr) << v.name;
    EXPECT_NE(v.axpy, nullptr) << v.name;
    EXPECT_NE(v.scale, nullptr) << v.name;
    EXPECT_NE(v.available, nullptr) << v.name;
  }
  EXPECT_NE(find_kernel_variant("scalar"), nullptr);
  EXPECT_EQ(find_kernel_variant("no_such_kernel"), nullptr);
}

// ---- pure resolution rule (synthetic feature sets, no host cpuid) ----------

TEST(KernelRegistry, ResolveFallsBackToScalarWhenAvxAbsent) {
  const CpuFeatures none{};  // a host with no AVX at all
  // Forcing a SIMD variant on a baseline host degrades gracefully to scalar.
  EXPECT_STREQ(resolve_kernel_variant("avx2", none).name, "scalar");
  EXPECT_STREQ(resolve_kernel_variant("avx512", none).name, "scalar");
  // Unknown names too.
  EXPECT_STREQ(resolve_kernel_variant("no_such_kernel", none).name, "scalar");
  // Auto dispatch on a baseline host is scalar.
  EXPECT_STREQ(resolve_kernel_variant("", none).name, "scalar");
}

TEST(KernelRegistry, ResolvePrefersWidestAvailableVariant) {
  if (find_kernel_variant("avx2") == nullptr) {
    GTEST_SKIP() << "non-x86 build: registry has no SIMD variants";
  }
  CpuFeatures avx2_only{};
  avx2_only.avx2 = true;
  EXPECT_STREQ(resolve_kernel_variant("", avx2_only).name, "avx2");
  EXPECT_STREQ(resolve_kernel_variant("avx2", avx2_only).name, "avx2");
  // avx512 requires avx512f; with only AVX2 it falls back to scalar.
  EXPECT_STREQ(resolve_kernel_variant("avx512", avx2_only).name, "scalar");

  CpuFeatures full{};
  full.avx2 = true;
  full.avx512f = true;
  EXPECT_STREQ(resolve_kernel_variant("", full).name, "avx512");
}

TEST(KernelRegistry, EnvOverrideDrivesActiveVariant) {
  EnvGuard env("TESSERACT_KERNEL");
  VariantGuard restore;
  env.set("scalar");
  EXPECT_STREQ(force_kernel_variant(nullptr).name, "scalar");
  env.set("no_such_kernel");
  EXPECT_STREQ(force_kernel_variant(nullptr).name, "scalar");
  env.clear();
  // Default dispatch: the widest variant the host supports.
  EXPECT_STREQ(force_kernel_variant(nullptr).name,
               resolve_kernel_variant("", cpu_features()).name);
}

TEST(KernelRegistry, ActiveIndexMatchesTablePosition) {
  VariantGuard restore;
  const auto table = kernel_variants();
  for (std::size_t i = 0; i < table.size(); ++i) {
    if (!table[i].available(cpu_features())) continue;
    force_kernel_variant(table[i].name);
    EXPECT_EQ(active_kernel_variant_index(), static_cast<std::int64_t>(i));
  }
}

// ---- forced-variant dispatch matrix ----------------------------------------

// Shapes exercise both rounding disciplines (update and dot forms), ragged
// register tiles for 8- and 16-wide variants, and the serial small-GEMM path.
struct GemmCase {
  Trans ta, tb;
  std::int64_t m, n, k;
};

const GemmCase kGemmCases[] = {
    {Trans::N, Trans::N, 37, 53, 41},  // update form, ragged everything
    {Trans::T, Trans::N, 24, 64, 32},  // update form, transposed A
    {Trans::N, Trans::T, 37, 53, 41},  // dot form
    {Trans::T, Trans::T, 16, 96, 80},  // dot form, transposed A
    {Trans::N, Trans::N, 3, 5, 300},   // deep k, sub-tile m and n
};

Tensor run_case(const GemmCase& gc, const Tensor& a, const Tensor& b) {
  return matmul(a, b, gc.ta, gc.tb);
}

Tensor case_a(const GemmCase& gc) {
  return gc.ta == Trans::N ? filled({gc.m, gc.k}, 1) : filled({gc.k, gc.m}, 1);
}
Tensor case_b(const GemmCase& gc) {
  return gc.tb == Trans::N ? filled({gc.k, gc.n}, 2) : filled({gc.n, gc.k}, 2);
}

TEST(KernelDispatch, EveryAvailableVariantIsBitIdenticalToScalar) {
  VariantGuard restore;
  for (const GemmCase& gc : kGemmCases) {
    const Tensor a = case_a(gc);
    const Tensor b = case_b(gc);
    force_kernel_variant("scalar");
    const Tensor ref = run_case(gc, a, b);
    for (const KernelVariant& v : kernel_variants()) {
      if (!v.available(cpu_features())) continue;
      ASSERT_STREQ(force_kernel_variant(v.name).name, v.name);
      const Tensor got = run_case(gc, a, b);
      EXPECT_TRUE(bit_identical(got, ref))
          << v.name << " must be bit-identical to scalar (case " << gc.m
          << "x" << gc.n << "x" << gc.k << ")";
    }
  }
}

TEST(KernelDispatch, ElementwiseOpsBitIdenticalAcrossVariants) {
  VariantGuard restore;
  const std::int64_t n = 103;  // forces the SIMD remainder path
  const Tensor x = filled({n}, 3);
  force_kernel_variant("scalar");
  Tensor y_ref = filled({n}, 4);
  axpy(0.37f, x, y_ref);
  Tensor s_ref = filled({n}, 5);
  scale(s_ref, -1.25f);
  for (const KernelVariant& v : kernel_variants()) {
    if (!v.available(cpu_features())) continue;
    force_kernel_variant(v.name);
    Tensor y = filled({n}, 4);
    axpy(0.37f, x, y);
    EXPECT_TRUE(bit_identical(y, y_ref)) << v.name;
    Tensor s = filled({n}, 5);
    scale(s, -1.25f);
    EXPECT_TRUE(bit_identical(s, s_ref)) << v.name;
  }
}

// ---- alignment contract -----------------------------------------------------

TEST(Alignment, TensorAndPayloadStorageIs64ByteAligned) {
  for (std::int64_t n : {1, 7, 31, 100, 4096}) {
    Tensor t({n});
    EXPECT_TRUE(is_tensor_aligned(t.data())) << n;
  }
  comm::BufferPool pool;
  auto buf = pool.acquire();
  buf->resize(129);
  EXPECT_TRUE(is_tensor_aligned(buf->data()));
  // Recycled buffers keep their aligned storage.
  pool.recycle(std::move(buf));
  auto again = pool.acquire();
  again->resize(7);
  EXPECT_TRUE(is_tensor_aligned(again->data()));
}

}  // namespace
}  // namespace tsr
