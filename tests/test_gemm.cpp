// GEMM correctness against a naive reference for all transpose combinations,
// alpha/beta handling, batched matmul, a parameterized size sweep, and a
// bit-exact oracle of the two rounding disciplines.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "tensor/gemm.hpp"
#include "tensor/init.hpp"
#include "tensor/kernel_registry.hpp"
#include "tensor/kernels.hpp"
#include "tensor/rng.hpp"

namespace tsr {
namespace {

// Naive reference: C = alpha * op(A) op(B) + beta * C.
Tensor naive(Trans ta, Trans tb, const Tensor& a, const Tensor& b) {
  const std::int64_t m = ta == Trans::N ? a.dim(0) : a.dim(1);
  const std::int64_t k = ta == Trans::N ? a.dim(1) : a.dim(0);
  const std::int64_t n = tb == Trans::N ? b.dim(1) : b.dim(0);
  Tensor c = Tensor::zeros({m, n});
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t t = 0; t < k; ++t) {
        const float av = ta == Trans::N ? a.at(i, t) : a.at(t, i);
        const float bv = tb == Trans::N ? b.at(t, j) : b.at(j, t);
        acc += static_cast<double>(av) * bv;
      }
      c.at(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

struct GemmCase {
  std::int64_t m, n, k;
};

class GemmSweep : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmSweep, AllTransposeCombinationsMatchNaive) {
  const auto [m, n, k] = GetParam();
  Rng rng(101);
  for (Trans ta : {Trans::N, Trans::T}) {
    for (Trans tb : {Trans::N, Trans::T}) {
      Tensor a = ta == Trans::N ? random_normal({m, k}, rng)
                                : random_normal({k, m}, rng);
      Tensor b = tb == Trans::N ? random_normal({k, n}, rng)
                                : random_normal({n, k}, rng);
      Tensor got = matmul(a, b, ta, tb);
      Tensor want = naive(ta, tb, a, b);
      EXPECT_LT(max_abs_diff(got, want), 1e-3f)
          << "m=" << m << " n=" << n << " k=" << k << " ta=" << (ta == Trans::T)
          << " tb=" << (tb == Trans::T);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, GemmSweep,
    ::testing::Values(GemmCase{1, 1, 1}, GemmCase{1, 5, 3}, GemmCase{7, 1, 2},
                      GemmCase{3, 3, 3}, GemmCase{8, 8, 8}, GemmCase{5, 9, 7},
                      GemmCase{64, 64, 64}, GemmCase{65, 63, 66},
                      GemmCase{128, 16, 96}, GemmCase{17, 129, 31}));

TEST(Gemm, BetaScalesExistingC) {
  Tensor a = Tensor::from({1, 0, 0, 1}, {2, 2});  // identity
  Tensor b = Tensor::from({1, 2, 3, 4}, {2, 2});
  Tensor c = Tensor::full({2, 2}, 10.0f);
  gemm(Trans::N, Trans::N, 2, 2, 2, 1.0f, a.data(), 2, b.data(), 2, 0.5f,
       c.data(), 2);
  EXPECT_FLOAT_EQ(c.at(0, 0), 6.0f);   // 0.5*10 + 1
  EXPECT_FLOAT_EQ(c.at(1, 1), 9.0f);   // 0.5*10 + 4
}

TEST(Gemm, AlphaScalesProduct) {
  Tensor a = Tensor::ones({2, 2});
  Tensor b = Tensor::ones({2, 2});
  Tensor c = Tensor::zeros({2, 2});
  gemm(Trans::N, Trans::N, 2, 2, 2, 3.0f, a.data(), 2, b.data(), 2, 0.0f,
       c.data(), 2);
  EXPECT_FLOAT_EQ(c.at(0, 0), 6.0f);
}

TEST(Gemm, ZeroAlphaLeavesBetaTerm) {
  Tensor a = Tensor::ones({2, 2});
  Tensor b = Tensor::ones({2, 2});
  Tensor c = Tensor::full({2, 2}, 4.0f);
  gemm(Trans::N, Trans::N, 2, 2, 2, 0.0f, a.data(), 2, b.data(), 2, 1.0f,
       c.data(), 2);
  EXPECT_FLOAT_EQ(c.at(0, 0), 4.0f);
}

TEST(Gemm, MatmulAccAccumulates) {
  Rng rng(5);
  Tensor a = random_normal({4, 3}, rng);
  Tensor b = random_normal({3, 5}, rng);
  Tensor c = Tensor::zeros({4, 5});
  matmul_acc(a, b, c);
  matmul_acc(a, b, c);
  Tensor twice = scaled(matmul(a, b), 2.0f);
  EXPECT_LT(max_abs_diff(c, twice), 1e-4f);
}

TEST(Gemm, MatmulRejectsMismatch) {
  Tensor a({2, 3});
  Tensor b({4, 5});
  // The message is built only on this failing path; it names both shapes.
  try {
    matmul(a, b);
    FAIL() << "matmul accepted [2, 3] x [4, 5]";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("[2, 3]"), std::string::npos) << what;
    EXPECT_NE(what.find("[4, 5]"), std::string::npos) << what;
  }
  EXPECT_THROW(matmul(a.reshape({6}), b), std::invalid_argument);
}

TEST(Gemm, BmmMatchesPerSliceMatmul) {
  Rng rng(9);
  Tensor a = random_normal({3, 4, 5}, rng);
  Tensor b = random_normal({3, 5, 2}, rng);
  Tensor c = bmm(a, b);
  ASSERT_EQ(c.dim(0), 3);
  for (std::int64_t s = 0; s < 3; ++s) {
    Tensor as = slice_block(a.reshape({12, 5}), s * 4, 0, 4, 5);
    Tensor bs = slice_block(b.reshape({15, 2}), s * 5, 0, 5, 2);
    Tensor cs = slice_block(c.reshape({12, 2}), s * 4, 0, 4, 2);
    EXPECT_LT(max_abs_diff(cs, matmul(as, bs)), 1e-4f);
  }
}

TEST(Gemm, BmmTransposeB) {
  Rng rng(11);
  Tensor a = random_normal({2, 3, 4}, rng);
  Tensor b = random_normal({2, 5, 4}, rng);
  Tensor c = bmm(a, b, Trans::N, Trans::T);
  EXPECT_EQ(c.dim(1), 3);
  EXPECT_EQ(c.dim(2), 5);
  Tensor a0 = slice_block(a.reshape({6, 4}), 0, 0, 3, 4);
  Tensor b0 = slice_block(b.reshape({10, 4}), 0, 0, 5, 4);
  Tensor c0 = slice_block(c.reshape({6, 5}), 0, 0, 3, 5);
  EXPECT_LT(max_abs_diff(c0, matmul(a0, b0, Trans::N, Trans::T)), 1e-4f);
}

TEST(Gemm, FlopCount) {
  EXPECT_EQ(gemm_flops(2, 3, 4), 48);
  EXPECT_EQ(gemm_flops(0, 3, 4), 0);
}

// ---- parallel dispatch ----------------------------------------------------

// Sizes above the parallel-dispatch flop threshold, both rounding forms
// (update: tb == N, dot: tb == T), must be byte-identical to the W=1 result:
// column striping never changes any element's FP sequence.
TEST(GemmParallel, BitIdenticalAcrossWorkerCounts) {
  const std::int64_t m = 96, n = 160, k = 80;  // 2*m*n*k ≈ 2.5M flops
  Rng rng(11);
  Tensor a = random_normal({m, k}, rng);
  Tensor b = random_normal({k, n}, rng);
  Tensor bt = random_normal({n, k}, rng);

  setenv("TESSERACT_WORKERS", "1", 1);
  Tensor c_upd_1 = matmul(a, b);
  Tensor c_dot_1 = matmul(a, bt, Trans::N, Trans::T);
  for (const char* w : {"2", "4"}) {
    setenv("TESSERACT_WORKERS", w, 1);
    Tensor c_upd = matmul(a, b);
    Tensor c_dot = matmul(a, bt, Trans::N, Trans::T);
    EXPECT_EQ(std::memcmp(c_upd.data(), c_upd_1.data(),
                          static_cast<std::size_t>(m * n) * sizeof(float)),
              0)
        << "update form differs at W=" << w;
    EXPECT_EQ(std::memcmp(c_dot.data(), c_dot_1.data(),
                          static_cast<std::size_t>(m * n) * sizeof(float)),
              0)
        << "dot form differs at W=" << w;
  }
  unsetenv("TESSERACT_WORKERS");
}

// ---- rounding-discipline oracle ---------------------------------------------

// Plain scalar statement of gemm's two rounding disciplines
// (docs/performance.md): C is beta-scaled first (beta == 0 clears it), then
//   update form (op(B) = B):   c += (alpha * a) * b for k ascending;
//   dot form    (op(B) = B^T): acc = 0, acc += a * b for k ascending, then
//                              c += alpha * acc.
// Every kernel variant must reproduce it bit for bit.
void oracle_gemm(Trans ta, Trans tb, std::int64_t m, std::int64_t n,
                 std::int64_t k, float alpha, const float* a, std::int64_t lda,
                 const float* b, std::int64_t ldb, float beta, float* c,
                 std::int64_t ldc) {
  const auto av = [&](std::int64_t i, std::int64_t t) {
    return ta == Trans::N ? a[i * lda + t] : a[t * lda + i];
  };
  const auto bv = [&](std::int64_t t, std::int64_t j) {
    return tb == Trans::N ? b[t * ldb + j] : b[j * ldb + t];
  };
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      float& cij = c[i * ldc + j];
      if (beta == 0.0f) {
        cij = 0.0f;
      } else if (beta != 1.0f) {
        cij *= beta;
      }
    }
  }
  // op(B) as a dense k x n copy, so both loops below run along rows.
  std::vector<float> bk(static_cast<std::size_t>(k * n));
  for (std::int64_t t = 0; t < k; ++t) {
    for (std::int64_t j = 0; j < n; ++j) bk[t * n + j] = bv(t, j);
  }
  std::vector<float> acc(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < m; ++i) {
    float* ci = c + i * ldc;
    if (tb == Trans::N) {
      for (std::int64_t t = 0; t < k; ++t) {
        const float s = alpha * av(i, t);
#pragma omp simd
        for (std::int64_t j = 0; j < n; ++j) ci[j] += s * bk[t * n + j];
      }
    } else {
      std::fill(acc.begin(), acc.end(), 0.0f);
      for (std::int64_t t = 0; t < k; ++t) {
        const float s = av(i, t);
#pragma omp simd
        for (std::int64_t j = 0; j < n; ++j) acc[j] += s * bk[t * n + j];
      }
      for (std::int64_t j = 0; j < n; ++j) ci[j] += alpha * acc[j];
    }
  }
}

// n normal values: a window of one shared random pool, at a pseudo-random
// offset, so the sweep does not spend its time in the generator.
std::vector<float> random_buffer(std::int64_t n, Rng& rng) {
  static const std::vector<float> pool = [] {
    Rng gen(30);
    std::vector<float> p(std::size_t{1} << 21);
    for (float& x : p) x = static_cast<float>(gen.normal());
    return p;
  }();
  const std::size_t len = static_cast<std::size_t>(n);
  const std::size_t off = rng.next_below(pool.size() - len + 1);
  return {pool.begin() + static_cast<std::ptrdiff_t>(off),
          pool.begin() + static_cast<std::ptrdiff_t>(off + len)};
}

// Every kernel variant available on the host, at W in {1, 2, 4},
// over all four transposes, alpha in {1, -0.75}, beta in {0, 1, 0.5} and
// ragged sizes that cross the register tile, the k panel, the column panel,
// the parallel threshold and the packed-A row slab, with leading dimensions
// wider than the logical ones (the padding must survive untouched). Shapes
// above 2^20 multiply-adds run one (alpha, beta) pair each, rotating
// through the six, and the one 257 x 1030 x 1025 corner is left out (its
// features — several row slabs, column stripes and k panels — all occur in
// smaller shapes), so the sweep stays short in sanitizer builds too.
TEST(GemmOracle, MemcmpVariantsFollowTheRoundingDisciplines) {
  std::vector<const KernelVariant*> variants;
  for (const KernelVariant& v : kernel_variants()) {
    if (v.available(cpu_features())) {
      variants.push_back(&v);
    }
  }
  const char* env_workers = std::getenv("TESSERACT_WORKERS");
  const std::string saved_workers = env_workers != nullptr ? env_workers : "";
  const float alphas[] = {1.0f, -0.75f};
  const float betas[] = {0.0f, 1.0f, 0.5f};
  Rng rng(31);
  int rotation = 0;
  int mismatches = 0;
  for (std::int64_t m : {1, 67, 257}) {
    for (std::int64_t n : {1, 17, 300, 1030}) {
      for (std::int64_t k : {1, 65, 300, 1025}) {
        for (Trans ta : {Trans::N, Trans::T}) {
          for (Trans tb : {Trans::N, Trans::T}) {
            if (m * n * k > (std::int64_t{1} << 27)) continue;
            const std::int64_t lda = (ta == Trans::N ? k : m) + 3;
            const std::int64_t ldb = (tb == Trans::N ? n : k) + 5;
            const std::int64_t ldc = n + 2;
            const std::vector<float> a =
                random_buffer((ta == Trans::N ? m : k) * lda, rng);
            const std::vector<float> b =
                random_buffer((tb == Trans::N ? k : n) * ldb, rng);
            const std::vector<float> c0 = random_buffer(m * ldc, rng);
            const bool all_pairs = m * n * k <= (std::int64_t{1} << 20);
            for (int ab = 0; ab < 6; ++ab) {
              if (!all_pairs && ab != rotation % 6) continue;
              const float alpha = alphas[ab / 3];
              const float beta = betas[ab % 3];
              std::vector<float> want = c0;
              oracle_gemm(ta, tb, m, n, k, alpha, a.data(), lda, b.data(),
                          ldb, beta, want.data(), ldc);
              for (const KernelVariant* v : variants) {
                force_kernel_variant(v->name);
                for (const char* w : {"1", "2", "4"}) {
                  setenv("TESSERACT_WORKERS", w, 1);
                  std::vector<float> got = c0;
                  gemm(ta, tb, m, n, k, alpha, a.data(), lda, b.data(), ldb,
                       beta, got.data(), ldc);
                  if (std::memcmp(got.data(), want.data(),
                                  got.size() * sizeof(float)) != 0 &&
                      ++mismatches <= 10) {
                    ADD_FAILURE()
                        << v->name << " W=" << w << " m=" << m << " n=" << n
                        << " k=" << k << " ta=" << (ta == Trans::T)
                        << " tb=" << (tb == Trans::T) << " alpha=" << alpha
                        << " beta=" << beta << " differs from the oracle";
                  }
                }
              }
            }
            ++rotation;
          }
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
  force_kernel_variant(nullptr);
  if (env_workers != nullptr) {
    setenv("TESSERACT_WORKERS", saved_workers.c_str(), 1);
  } else {
    unsetenv("TESSERACT_WORKERS");
  }
}

// A steady-state stream of same-shape GEMMs must hit the worker-local pack
// arenas, not the allocator: >99% of acquisitions are reuses. The second
// shape is wider than one column panel (n > kNC) and above the parallel
// threshold, so it covers the op(A) buffer its column stripes share.
TEST(GemmScratch, SteadyStateReusesArena) {
  for (const auto [m, n, k] :
       {std::array<std::int64_t, 3>{64, 64, 64}, {96, 600, 300}}) {
    Rng rng(12);
    Tensor a = random_normal({m, k}, rng);
    Tensor b = random_normal({k, n}, rng);
    Tensor c({m, n});
    // Warm the arenas, then measure a long stream.
    matmul_acc(a, b, c, Trans::N, Trans::N, 0.0f);
    const GemmScratchStats before = gemm_scratch_stats();
    const int kIters = 500;
    for (int i = 0; i < kIters; ++i) {
      matmul_acc(a, b, c, Trans::N, Trans::N, 0.0f);
    }
    const GemmScratchStats after = gemm_scratch_stats();
    const std::uint64_t allocs = after.allocations - before.allocations;
    const std::uint64_t reuses = after.reuses - before.reuses;
    EXPECT_GE(reuses + allocs, static_cast<std::uint64_t>(kIters)) << n;
    EXPECT_GT(static_cast<double>(reuses),
              0.99 * static_cast<double>(reuses + allocs))
        << n;
  }
}

}  // namespace
}  // namespace tsr
