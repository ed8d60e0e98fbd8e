// Trainable parameter: value + gradient accumulator.
#pragma once

#include "tensor/tensor.hpp"

namespace tsr::nn {

struct Param {
  Tensor value;
  Tensor grad;

  Param() = default;
  /// Zero value and grad of `shape`; both shape-only (tensor/tensor.hpp)
  /// when `shape_only` is set.
  explicit Param(Shape shape, bool shape_only = false)
      : value(shape_only ? Tensor::shape_only(shape) : Tensor::zeros(shape)),
        grad(Tensor::zeros_as(value, std::move(shape))) {}
  /// Takes `initial` as the value, with a zero grad of its shape.
  static Param with_value(Tensor initial) {
    Param p;
    p.grad = Tensor::zeros_as(initial, initial.shape());
    p.value = std::move(initial);
    return p;
  }

  void zero_grad() { grad.fill(0.0f); }
  std::int64_t numel() const { return value.numel(); }
};

}  // namespace tsr::nn
