#include "nn/optimizer.hpp"

#include <cmath>

#include "runtime/worker_pool.hpp"

namespace tsr::nn {
namespace {
// Adam elements per pool chunk (~5 ns each: two divides and a sqrt).
constexpr std::int64_t kAdamGrain = 8192;

// The optimizer state of `p`, built by `make` (zero-filled tensors) on p's
// first step only: the lookup comes first, so later steps allocate nothing.
template <typename State, typename Make>
State& state_for(std::unordered_map<Param*, State>& states, Param* p,
                 const Make& make) {
  auto it = states.find(p);
  if (it == states.end()) it = states.emplace(p, make()).first;
  return it->second;
}

struct AdamCoeffs {
  float lr, beta1, beta2, eps, weight_decay, bc1, bc2;
};

// One Adam update of n elements. The coefficients are plain values and the
// arrays do not alias, so the loop vectorizes (sqrtps/divps round exactly
// like their scalar forms, and this file is built with -fno-math-errno so
// std::sqrt needs no library fallback): the result is bit-identical to the
// scalar loop.
void adam_update(float* __restrict w, const float* __restrict g,
                 float* __restrict m, float* __restrict v, std::int64_t n,
                 const AdamCoeffs c) {
  for (std::int64_t i = 0; i < n; ++i) {
    // Decoupled weight decay (AdamW-style), matching common ViT recipes.
    const float grad = g[i];
    m[i] = c.beta1 * m[i] + (1.0f - c.beta1) * grad;
    v[i] = c.beta2 * v[i] + (1.0f - c.beta2) * grad * grad;
    const float mhat = m[i] / c.bc1;
    const float vhat = v[i] / c.bc2;
    w[i] -= c.lr * (mhat / (std::sqrt(vhat) + c.eps) + c.weight_decay * w[i]);
  }
}
}  // namespace

SGD::SGD(float lr_in, float momentum, float weight_decay)
    : lr(lr_in), momentum_(momentum), weight_decay_(weight_decay) {}

void SGD::step(const std::vector<Param*>& params) {
  const float rate = lr, mom = momentum_, wd = weight_decay_;
  for (Param* p : params) {
    float* w = p->value.data();
    const float* g = p->grad.data();
    if (mom == 0.0f) {
      for (std::int64_t i = 0; i < p->numel(); ++i) {
        w[i] -= rate * (g[i] + wd * w[i]);
      }
      continue;
    }
    float* v = state_for(velocity_, p, [&] {
                 return Tensor::zeros(p->value.shape());
               }).data();
    for (std::int64_t i = 0; i < p->numel(); ++i) {
      v[i] = mom * v[i] + g[i] + wd * w[i];
      w[i] -= rate * v[i];
    }
  }
}

Lamb::Lamb(float lr_in, float beta1, float beta2, float eps, float weight_decay)
    : lr(lr_in), beta1_(beta1), beta2_(beta2), eps_(eps),
      weight_decay_(weight_decay) {}

void Lamb::step(const std::vector<Param*>& params) {
  ++t_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  const float rate = lr, b1 = beta1_, b2 = beta2_, eps = eps_,
              wd = weight_decay_;
  for (Param* p : params) {
    State& st = state_for(state_, p, [&] {
      return State{Tensor::zeros(p->value.shape()),
                   Tensor::zeros(p->value.shape())};
    });
    float* w = p->value.data();
    const float* g = p->grad.data();
    float* m = st.m.data();
    float* v = st.v.data();
    // Update direction r = m_hat / (sqrt(v_hat) + eps) + wd * w, then scale
    // by the layer-wise trust ratio phi(||w||) / ||r||.
    double w_norm2 = 0.0;
    double r_norm2 = 0.0;
    r_.resize(static_cast<std::size_t>(p->numel()));
    float* r = r_.data();
    for (std::int64_t i = 0; i < p->numel(); ++i) {
      m[i] = b1 * m[i] + (1.0f - b1) * g[i];
      v[i] = b2 * v[i] + (1.0f - b2) * g[i] * g[i];
      const float mhat = m[i] / bc1;
      const float vhat = v[i] / bc2;
      const float ri = mhat / (std::sqrt(vhat) + eps) + wd * w[i];
      r[i] = ri;
      w_norm2 += static_cast<double>(w[i]) * w[i];
      r_norm2 += static_cast<double>(ri) * ri;
    }
    const double w_norm = std::sqrt(w_norm2);
    const double r_norm = std::sqrt(r_norm2);
    // phi is the identity clamped away from degenerate norms, as in the
    // reference implementation.
    const float trust =
        (w_norm > 0.0 && r_norm > 0.0)
            ? static_cast<float>(w_norm / r_norm)
            : 1.0f;
    for (std::int64_t i = 0; i < p->numel(); ++i) {
      w[i] -= rate * trust * r[i];
    }
  }
}

Adam::Adam(float lr_in, float beta1, float beta2, float eps, float weight_decay)
    : lr(lr_in), beta1_(beta1), beta2_(beta2), eps_(eps),
      weight_decay_(weight_decay) {}

void Adam::step(const std::vector<Param*>& params) {
  ++t_;
  const AdamCoeffs c{lr,
                     beta1_,
                     beta2_,
                     eps_,
                     weight_decay_,
                     1.0f - std::pow(beta1_, static_cast<float>(t_)),
                     1.0f - std::pow(beta2_, static_cast<float>(t_))};
  for (Param* p : params) {
    State& st = state_for(state_, p, [&] {
      return State{Tensor::zeros(p->value.shape()),
                   Tensor::zeros(p->value.shape())};
    });
    float* w = p->value.data();
    const float* g = p->grad.data();
    float* m = st.m.data();
    float* v = st.v.data();
    // Every element's update is independent, so chunking it over the pool
    // leaves the result bit-identical at any worker count.
    rt::parallel_chunks(p->numel(), kAdamGrain,
                        [&](std::int64_t b, std::int64_t e) {
                          adam_update(w + b, g + b, m + b, v + b, e - b, c);
                        });
  }
}

std::pair<const Tensor*, const Tensor*> Adam::moments(Param* p) const {
  const auto it = state_.find(p);
  if (it == state_.end()) return {nullptr, nullptr};
  return {&it->second.m, &it->second.v};
}

}  // namespace tsr::nn
