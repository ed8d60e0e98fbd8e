// Parameter initialization schemes. The paper uses Xavier initialization for
// parameter matrices and random inputs for the algorithm-correctness checks
// (Section 4); both are provided here on top of the deterministic Rng.
#pragma once

#include "tensor/rng.hpp"
#include "tensor/tensor.hpp"

namespace tsr {

/// Fills `t` with U(-a, a) where a = sqrt(6 / (fan_in + fan_out)).
/// For a 2-D weight [in, out] the fans default to the tensor dimensions.
void xavier_uniform(Tensor& t, Rng& rng);
void xavier_uniform(Tensor& t, Rng& rng, std::int64_t fan_in,
                    std::int64_t fan_out);
/// A fresh 2-D weight of `shape` drawn by xavier_uniform — or, when
/// `shape_only`, a shape-only tensor: no storage and no RNG draw.
Tensor xavier_weight(Shape shape, Rng& rng, bool shape_only = false);

/// Fills `t` with N(mean, stddev^2).
void normal_init(Tensor& t, Rng& rng, double mean = 0.0, double stddev = 1.0);

/// Fills `t` with U(lo, hi).
void uniform_init(Tensor& t, Rng& rng, double lo = 0.0, double hi = 1.0);

/// Fresh tensor of the given shape filled with N(0, 1); the "randomly
/// generated input matrices" of the paper's validation protocol.
Tensor random_normal(Shape shape, Rng& rng);
Tensor random_uniform(Shape shape, Rng& rng, double lo = -1.0, double hi = 1.0);

}  // namespace tsr
