// Optimizers operating on Param lists. Adam is what the paper's Fig. 7
// training uses (lr 3e-3, weight decay 0.3 on ViT).
#pragma once

#include <unordered_map>
#include <utility>
#include <vector>

#include "nn/param.hpp"

namespace tsr::nn {

class Optimizer {
 public:
  virtual ~Optimizer() = default;
  /// Applies one update using each param's accumulated .grad.
  virtual void step(const std::vector<Param*>& params) = 0;
};

class SGD final : public Optimizer {
 public:
  explicit SGD(float lr, float momentum = 0.0f, float weight_decay = 0.0f);
  void step(const std::vector<Param*>& params) override;

  float lr;

 private:
  float momentum_;
  float weight_decay_;
  std::unordered_map<Param*, Tensor> velocity_;
};

/// LAMB (You et al. 2020, the paper's reference [26] for large-batch
/// training): Adam-style moments with a per-tensor trust ratio
/// ||w|| / ||update|| scaling the learning rate, which keeps very large
/// batch sizes (the regime Tesseract's weak scaling enables) converging.
class Lamb final : public Optimizer {
 public:
  explicit Lamb(float lr, float beta1 = 0.9f, float beta2 = 0.999f,
                float eps = 1e-6f, float weight_decay = 0.0f);
  void step(const std::vector<Param*>& params) override;

  float lr;

 private:
  struct State {
    Tensor m;
    Tensor v;
  };
  float beta1_;
  float beta2_;
  float eps_;
  float weight_decay_;
  std::int64_t t_ = 0;
  std::unordered_map<Param*, State> state_;
  // Update-direction scratch, reused across params and steps so the hot
  // training loop does not allocate per step.
  std::vector<float> r_;
};

class Adam final : public Optimizer {
 public:
  explicit Adam(float lr, float beta1 = 0.9f, float beta2 = 0.999f,
                float eps = 1e-8f, float weight_decay = 0.0f);
  void step(const std::vector<Param*>& params) override;
  /// The moment estimates {m, v} of `p`; both null before p's first step.
  std::pair<const Tensor*, const Tensor*> moments(Param* p) const;

  float lr;

 private:
  struct State {
    Tensor m;
    Tensor v;
  };
  float beta1_;
  float beta2_;
  float eps_;
  float weight_decay_;
  std::int64_t t_ = 0;
  std::unordered_map<Param*, State> state_;
};

}  // namespace tsr::nn
