#include "tensor/init.hpp"

#include <cmath>

namespace tsr {

void xavier_uniform(Tensor& t, Rng& rng) {
  check(t.ndim() == 2, "xavier_uniform: default fans require a 2-D tensor");
  xavier_uniform(t, rng, t.dim(0), t.dim(1));
}

Tensor xavier_weight(Shape shape, Rng& rng, bool shape_only) {
  Tensor t = shape_only ? Tensor::shape_only(std::move(shape))
                        : Tensor(std::move(shape));
  xavier_uniform(t, rng);
  return t;
}

void xavier_uniform(Tensor& t, Rng& rng, std::int64_t fan_in,
                    std::int64_t fan_out) {
  check(fan_in + fan_out > 0, "xavier_uniform: fans must be positive");
  if (t.is_shape_only()) return;  // no storage, so no draw
  const double a = std::sqrt(6.0 / static_cast<double>(fan_in + fan_out));
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(rng.uniform(-a, a));
  }
}

void normal_init(Tensor& t, Rng& rng, double mean, double stddev) {
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(mean + stddev * rng.normal());
  }
}

void uniform_init(Tensor& t, Rng& rng, double lo, double hi) {
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(rng.uniform(lo, hi));
  }
}

Tensor random_normal(Shape shape, Rng& rng) {
  Tensor t(std::move(shape));
  normal_init(t, rng);
  return t;
}

Tensor random_uniform(Shape shape, Rng& rng, double lo, double hi) {
  Tensor t(std::move(shape));
  uniform_init(t, rng, lo, hi);
  return t;
}

}  // namespace tsr
