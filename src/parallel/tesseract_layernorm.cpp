#include "parallel/tesseract_layernorm.hpp"

#include <cmath>

#include "tensor/kernels.hpp"

namespace tsr::par {

namespace {

// The layer's local kernels. Each returns shape-only results for a
// shape-only input, so the layer replays its schedule without storage.

// Partial sums of x and x^2 per row, packed [sum | sumsq] so one all-reduce
// along the grid row (the full h is spread over the row) completes both.
Tensor row_moments(const Tensor& x, std::int64_t lf) {
  const std::int64_t rows = x.numel() / lf;
  Tensor stats = Tensor::zeros_as(x, {2 * rows});
  if (stats.is_shape_only()) return stats;
  const float* px = x.data();
  float* ps = stats.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    double s = 0.0;
    double s2 = 0.0;
    const float* row = px + r * lf;
    for (std::int64_t i = 0; i < lf; ++i) {
      s += row[i];
      s2 += static_cast<double>(row[i]) * row[i];
    }
    ps[r] = static_cast<float>(s);
    ps[rows + r] = static_cast<float>(s2);
  }
  return stats;
}

// Backward partial sums: per row [sum dxhat | sum dxhat*xhat] (eq. 14) into
// `stats`, and the local gamma/beta gradients [dgamma | dbeta] into `gb`.
// Fresh scratch per call, so repeated backward calls (gradient
// accumulation) never re-reduce prior sums.
void backward_sums(const Tensor& dy, const Tensor& xhat, const Tensor& gamma,
                   Tensor& stats, Tensor& gb) {
  const std::int64_t lf = gamma.dim(0);
  const std::int64_t rows = dy.numel() / lf;
  stats = Tensor::zeros_as(dy, {2 * rows});
  gb = Tensor::zeros_as(dy, {2 * lf});
  if (stats.is_shape_only()) return;
  const float* pdy = dy.data();
  const float* pxh = xhat.data();
  float* ps = stats.data();
  float* pgb = gb.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    double s = 0.0;
    double sx = 0.0;
    for (std::int64_t i = 0; i < lf; ++i) {
      const float dxh = pdy[r * lf + i] * gamma.at(i);
      s += dxh;
      sx += static_cast<double>(dxh) * pxh[r * lf + i];
      pgb[i] += pdy[r * lf + i] * pxh[r * lf + i];
      pgb[lf + i] += pdy[r * lf + i];
    }
    ps[r] = static_cast<float>(s);
    ps[rows + r] = static_cast<float>(sx);
  }
}

// y = gamma * xhat + beta from the row-reduced moments; fills the backward
// caches xhat and inv_std [rows].
Tensor normalize(const Tensor& x, const Tensor& stats, const Tensor& gamma,
                 const Tensor& beta, std::int64_t features, float eps,
                 Tensor& xhat, Tensor& inv_std) {
  const std::int64_t lf = gamma.dim(0);
  const std::int64_t rows = x.numel() / lf;
  xhat = Tensor::empty_as(x, x.shape());
  inv_std = Tensor::empty_as(x, {rows});
  Tensor y = Tensor::empty_as(x, x.shape());
  if (y.is_shape_only()) return y;
  const float* px = x.data();
  const float* ps = stats.data();
  const float inv_h = 1.0f / static_cast<float>(features);
  for (std::int64_t r = 0; r < rows; ++r) {
    const float m = ps[r] * inv_h;
    const float var = ps[rows + r] * inv_h - m * m;
    const float inv = 1.0f / std::sqrt(var + eps);
    inv_std.at(r) = inv;
    const float* row = px + r * lf;
    for (std::int64_t i = 0; i < lf; ++i) {
      const float xh = (row[i] - m) * inv;
      xhat.data()[r * lf + i] = xh;
      y.data()[r * lf + i] = gamma.at(i) * xh + beta.at(i);
    }
  }
  return y;
}

// Adds the reduced [dgamma | dbeta] into the two gradients, then returns dx
// from the row-reduced backward sums (eq. 14).
Tensor input_grad(const Tensor& dy, const Tensor& xhat, const Tensor& inv_std,
                  const Tensor& stats, const Tensor& gb, std::int64_t features,
                  nn::Param& gamma, nn::Param& beta) {
  const std::int64_t lf = gamma.value.dim(0);
  const std::int64_t rows = dy.numel() / lf;
  Tensor dx = Tensor::empty_as(dy, dy.shape());
  if (dx.is_shape_only()) return dx;
  for (std::int64_t i = 0; i < lf; ++i) {
    gamma.grad.at(i) += gb.at(i);
    beta.grad.at(i) += gb.at(lf + i);
  }
  const float* pdy = dy.data();
  const float* pxh = xhat.data();
  const float* ps = stats.data();
  const float inv_h = 1.0f / static_cast<float>(features);
  for (std::int64_t r = 0; r < rows; ++r) {
    const float mean_dxh = ps[r] * inv_h;
    const float mean_dxh_xh = ps[rows + r] * inv_h;
    const float inv = inv_std.at(r);
    for (std::int64_t i = 0; i < lf; ++i) {
      const float dxh = pdy[r * lf + i] * gamma.value.at(i);
      dx.data()[r * lf + i] =
          (dxh - mean_dxh - pxh[r * lf + i] * mean_dxh_xh) * inv;
    }
  }
  return dx;
}

}  // namespace

TesseractLayerNorm::TesseractLayerNorm(TesseractContext& ctx,
                                       std::int64_t features, float eps)
    : ctx_(&ctx), features_(features), eps_(eps) {
  check(features % ctx.q() == 0,
        "TesseractLayerNorm: features must be divisible by q");
  const std::int64_t local = features / ctx.q();
  gamma = nn::Param({local}, ctx.shape_only());
  gamma.value.fill(1.0f);
  beta = nn::Param({local}, ctx.shape_only());
}

Tensor TesseractLayerNorm::forward(const Tensor& x_local) {
  obs::ScopedTimer timer_ = ctx_->timer("layer.layernorm.forward.sim_seconds");
  const std::int64_t lf = gamma.value.dim(0);
  check(x_local.dim(-1) == lf, "TesseractLayerNorm::forward: shard mismatch");
  Tensor stats = row_moments(x_local, lf);
  ctx_->comms().row.all_reduce(stats);
  ctx_->charge_elementwise(x_local.numel());
  Cache cache;
  Tensor y = normalize(x_local, stats, gamma.value, beta.value, features_, eps_,
                       cache.xhat, cache.inv_std);
  cache_stack_.push_back(std::move(cache));
  return y;
}

Tensor TesseractLayerNorm::backward(const Tensor& dy_local) {
  obs::ScopedTimer timer_ = ctx_->timer("layer.layernorm.backward.sim_seconds");
  check(!cache_stack_.empty(),
        "TesseractLayerNorm::backward: forward() missing");
  Cache cache = std::move(cache_stack_.back());
  cache_stack_.pop_back();
  check(dy_local.numel() == cache.xhat.numel(),
        "TesseractLayerNorm::backward: size mismatch");

  Tensor stats;
  Tensor gb;
  backward_sums(dy_local, cache.xhat, gamma.value, stats, gb);
  ctx_->comms().row.all_reduce(stats);
  ctx_->charge_elementwise(dy_local.numel());

  // Keep the gamma/beta replicas consistent: their rows are spread over the
  // grid column and the depth line.
  ctx_->comms().col.all_reduce(gb);
  pdg::depth_all_reduce(ctx_->comms(), gb);
  return input_grad(dy_local, cache.xhat, cache.inv_std, stats, gb, features_,
                    gamma, beta);
}

std::int64_t TesseractLayerNorm::cached_bytes() const {
  std::int64_t n = 0;
  for (const Cache& c : cache_stack_) n += c.xhat.numel() + c.inv_std.numel();
  return n * static_cast<std::int64_t>(sizeof(float));
}

void TesseractLayerNorm::zero_grad() {
  gamma.zero_grad();
  beta.zero_grad();
}

std::vector<nn::Param*> TesseractLayerNorm::params() { return {&gamma, &beta}; }

}  // namespace tsr::par
