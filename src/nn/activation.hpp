// Pointwise activations with explicit backward.
#pragma once

#include "tensor/tensor.hpp"

namespace tsr::nn {

/// GELU (tanh approximation, as used by BERT/GPT-2/ViT).
Tensor gelu(const Tensor& x);
/// Fused pass: returns gelu(x) and writes gelu'(x) into `grad` (x's shape),
/// evaluating tanh once per element. gelu() and gelu_backward() are built on
/// it, so all three agree bit for bit.
Tensor gelu_with_grad(const Tensor& x, Tensor& grad);
/// dL/dx given the forward input x and upstream dy.
Tensor gelu_backward(const Tensor& x, const Tensor& dy);

Tensor relu(const Tensor& x);
Tensor relu_backward(const Tensor& x, const Tensor& dy);

/// Stateful wrapper caching gelu'(x) of each forward input on a LIFO stack
/// (written by the fused forward pass, so backward is dy * gelu'(x) with no
/// second tanh), so several forward passes may be in flight before their
/// backwards run in reverse order — the pattern GPipe-style pipeline
/// micro-batching requires.
class Gelu {
 public:
  /// When x is the sole owner of its storage (the FFNs hand over fc1's
  /// fresh output), gelu'(x) overwrites it in place, so the cache costs no
  /// live tensor beyond x itself; otherwise x is left untouched.
  Tensor forward(Tensor x);
  Tensor backward(const Tensor& dy);
  /// Number of forwards awaiting their backward (pipeline depth).
  std::size_t in_flight() const { return grad_stack_.size(); }
  /// Drops all in-flight caches (activation-checkpointing support).
  void clear_caches() { grad_stack_.clear(); }
  /// Bytes currently held by in-flight caches (one input-sized tensor each).
  std::int64_t cached_bytes() const {
    std::int64_t n = 0;
    for (const Tensor& t : grad_stack_) n += t.numel();
    return n * static_cast<std::int64_t>(sizeof(float));
  }

 private:
  std::vector<Tensor> grad_stack_;
};

}  // namespace tsr::nn
