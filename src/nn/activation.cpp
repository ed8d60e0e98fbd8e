#include "nn/activation.hpp"

#include <cmath>

#include "runtime/worker_pool.hpp"
#include "tensor/kernels.hpp"

namespace tsr::nn {
namespace {
constexpr float kSqrt2OverPi = 0.7978845608028654f;
constexpr float kGeluCoef = 0.044715f;

// Elements per pool chunk: a GELU element costs one scalar tanh (~30 ns),
// so a grain is ~0.1 ms of work, far above the fan-out cost.
constexpr std::int64_t kGeluGrain = 4096;

// The one copy of the GELU formula (tanh approximation): y = gelu(x) and
// g = gelu'(x) from a single tanh per element; g may alias x. Each element
// is computed on its own, so no output depends on how the elements are
// chunked over the pool.
void gelu_pass(const float* x, float* y, float* g, std::int64_t n) {
  rt::parallel_chunks(n, kGeluGrain, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      const float v = x[i];
      const float u = kSqrt2OverPi * (v + kGeluCoef * v * v * v);
      const float t = std::tanh(u);
      const float du = kSqrt2OverPi * (1.0f + 3.0f * kGeluCoef * v * v);
      y[i] = 0.5f * v * (1.0f + t);
      g[i] = 0.5f * (1.0f + t) + 0.5f * v * (1.0f - t * t) * du;
    }
  });
}
}  // namespace

Tensor gelu_with_grad(const Tensor& x, Tensor& grad) {
  Tensor y(x.shape());
  grad = Tensor(x.shape());
  gelu_pass(x.data(), y.data(), grad.data(), x.numel());
  return y;
}

Tensor gelu(const Tensor& x) {
  Tensor grad;
  return gelu_with_grad(x, grad);
}

Tensor gelu_backward(const Tensor& x, const Tensor& dy) {
  check(x.numel() == dy.numel(), "gelu_backward: size mismatch");
  Tensor grad;
  gelu_with_grad(x, grad);
  return mul(grad, dy);
}

Tensor Gelu::forward(Tensor x) {
  if (x.is_shape_only()) {
    grad_stack_.push_back(x);
    return Tensor::shape_only(x.shape());
  }
  Tensor y(x.shape());
  Tensor grad = x.sole_owner() ? x : Tensor(x.shape());
  gelu_pass(x.data(), y.data(), grad.data(), x.numel());
  grad_stack_.push_back(std::move(grad));
  return y;
}

Tensor Gelu::backward(const Tensor& dy) {
  check(!grad_stack_.empty(), "Gelu::backward: no forward in flight");
  const Tensor grad = std::move(grad_stack_.back());
  grad_stack_.pop_back();
  return mul(grad, dy);
}

Tensor relu(const Tensor& x) {
  Tensor y(x.shape());
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    y.data()[i] = x.data()[i] > 0.0f ? x.data()[i] : 0.0f;
  }
  return y;
}

Tensor relu_backward(const Tensor& x, const Tensor& dy) {
  check(x.numel() == dy.numel(), "relu_backward: size mismatch");
  Tensor dx(x.shape());
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    dx.data()[i] = x.data()[i] > 0.0f ? dy.data()[i] : 0.0f;
  }
  return dx;
}

}  // namespace tsr::nn
