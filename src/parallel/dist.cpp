#include "parallel/dist.hpp"

#include <cstring>

#include "tensor/kernels.hpp"

namespace tsr::par {

void all_reduce_gradients(comm::Communicator& dp_group,
                          const std::vector<nn::Param*>& params,
                          bool average) {
  const float inv = 1.0f / static_cast<float>(dp_group.size());
  for (nn::Param* p : params) {
    dp_group.all_reduce(p->grad);
    if (average) scale(p->grad, inv);
  }
}

Tensor distribute_activation(const pdg::TesseractComms& tc, const Tensor& full) {
  check(full.ndim() == 3, "distribute_activation: expected [b, s, h]");
  const std::int64_t b = full.dim(0);
  const std::int64_t s = full.dim(1);
  const std::int64_t h = full.dim(2);
  const int dq = tc.d * tc.q;
  check(b % dq == 0, "distribute_activation: batch not divisible by d*q");
  check(h % tc.q == 0, "distribute_activation: hidden not divisible by q");
  // Flattening [b, s, h] to [(b*s), h] makes the batch split a contiguous
  // row-block split, i.e. exactly the A-layout of Fig. 4.
  Tensor block = pdg::distribute_a_layout(tc, full.reshape({b * s, h}));
  return block.reshape({b / dq, s, h / tc.q});
}

Tensor collect_activation(pdg::TesseractComms& tc, const Tensor& local,
                          std::int64_t b, std::int64_t s, std::int64_t h) {
  check(local.ndim() == 3, "collect_activation: expected local [b', s, h']");
  Tensor block = local.reshape({local.dim(0) * s, local.dim(2)});
  return pdg::collect_a_layout(tc, block, b * s, h).reshape({b, s, h});
}

Tensor qkv_blocked_layout(const Tensor& fused, int blocks, std::int64_t heads) {
  check(heads % blocks == 0, "qkv_blocked_layout: heads not divisible by blocks");
  const bool is_bias = fused.ndim() == 1;
  const std::int64_t cols = is_bias ? fused.dim(0) : fused.dim(1);
  check(cols % 3 == 0, "qkv_blocked_layout: trailing dim must be 3h");
  const std::int64_t h = cols / 3;
  check(h % heads == 0, "qkv_blocked_layout: h not divisible by heads");
  const std::int64_t hd = h / heads;
  const std::int64_t heads_per_block = heads / blocks;
  const std::int64_t block_cols = 3 * h / blocks;
  if (fused.is_shape_only()) return Tensor::shape_only(fused.shape());

  // Destination column for serial column `c`.
  auto dest = [&](std::int64_t c) {
    const std::int64_t which = c / h;  // 0=Q, 1=K, 2=V
    const std::int64_t within = c % h;
    const std::int64_t head = within / hd;
    const std::int64_t e = within % hd;
    const std::int64_t blk = head / heads_per_block;
    const std::int64_t m = head % heads_per_block;
    return blk * block_cols + which * (h / blocks) + m * hd + e;
  };

  Tensor out(fused.shape());
  if (is_bias) {
    for (std::int64_t c = 0; c < cols; ++c) out.at(dest(c)) = fused.at(c);
    return out;
  }
  const std::int64_t rows = fused.dim(0);
  for (std::int64_t c = 0; c < cols; ++c) {
    const std::int64_t dc = dest(c);
    for (std::int64_t r = 0; r < rows; ++r) out.at(r, dc) = fused.at(r, c);
  }
  return out;
}

}  // namespace tsr::par
