#include "nn/softmax.hpp"

#include <algorithm>
#include <cmath>

#include "runtime/worker_pool.hpp"

namespace tsr::nn {
namespace {
// Rows per pool chunk: at least ~4K elements of exp/divide work. Each row
// is reduced on its own, so the row partition never changes a result bit.
std::int64_t row_grain(std::int64_t f) {
  return std::max<std::int64_t>(1, 4096 / std::max<std::int64_t>(1, f));
}
}  // namespace

Tensor softmax(const Tensor& x) {
  check(x.ndim() >= 1, "softmax: needs at least 1-D input");
  const std::int64_t f = x.dim(-1);
  if (x.is_shape_only()) return Tensor::shape_only(x.shape());
  const std::int64_t rows = x.numel() / f;
  Tensor y(x.shape());
  rt::parallel_chunks(rows, row_grain(f), [&](std::int64_t rb,
                                              std::int64_t re) {
    for (std::int64_t r = rb; r < re; ++r) {
      const float* row = x.data() + r * f;
      float* out = y.data() + r * f;
      float mx = row[0];
      for (std::int64_t i = 1; i < f; ++i) mx = std::max(mx, row[i]);
      double sum = 0.0;
      for (std::int64_t i = 0; i < f; ++i) {
        out[i] = std::exp(row[i] - mx);
        sum += out[i];
      }
      const float inv = static_cast<float>(1.0 / sum);
      for (std::int64_t i = 0; i < f; ++i) out[i] *= inv;
    }
  });
  return y;
}

Tensor softmax_backward(const Tensor& y, const Tensor& dy) {
  check(y.numel() == dy.numel(), "softmax_backward: size mismatch");
  const std::int64_t f = y.dim(-1);
  if (y.is_shape_only()) return Tensor::shape_only(y.shape());
  const std::int64_t rows = y.numel() / f;
  Tensor dx(y.shape());
  rt::parallel_chunks(rows, row_grain(f), [&](std::int64_t rb,
                                              std::int64_t re) {
    for (std::int64_t r = rb; r < re; ++r) {
      const float* yr = y.data() + r * f;
      const float* dyr = dy.data() + r * f;
      float* dxr = dx.data() + r * f;
      double dot = 0.0;
      for (std::int64_t i = 0; i < f; ++i) {
        dot += static_cast<double>(yr[i]) * dyr[i];
      }
      const float d = static_cast<float>(dot);
      for (std::int64_t i = 0; i < f; ++i) dxr[i] = yr[i] * (dyr[i] - d);
    }
  });
  return dx;
}

}  // namespace tsr::nn
