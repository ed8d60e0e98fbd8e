// Layer probes of the traced run: each layer's public entry points called at
// the language model's shapes, one span per call. The same probes run on
// every workload, so per-layer numbers can be compared across workloads and
// commits. Multi-rank probes run on a [2,2,2] grid (8 ranks) and line the
// ranks up with an untimed barrier before every timed call; run.py takes the
// slowest rank of each repetition.
#include <vector>

#include "bench.hpp"
#include "comm/communicator.hpp"
#include "nn/attention.hpp"
#include "nn/feedforward.hpp"
#include "nn/layernorm.hpp"
#include "nn/linear.hpp"
#include "parallel/context.hpp"
#include "parallel/dist.hpp"
#include "parallel/tesseract_attention.hpp"
#include "parallel/tesseract_feedforward.hpp"
#include "parallel/tesseract_layernorm.hpp"
#include "pdgemm/tesseract_mm.hpp"
#include "tensor/gemm.hpp"
#include "tensor/init.hpp"
#include "tensor/rng.hpp"

namespace stepbench {

using namespace tsr;

namespace {

// The language model's shapes (workloads.cpp): batch 8, seq 32, hidden 256,
// 8 heads, FFN 4x, vocab 256; [2,2,2] shards them to [2, 32, 128].
constexpr std::int64_t kB = 8, kS = 32, kH = 256, kHeads = 8, kVocab = 256;
constexpr int kQ = 2, kD = 2, kRanks = kQ * kQ * kD;
constexpr int kLayerReps = 10;
constexpr int kCommReps = 50;
constexpr int kBarrierReps = 200;

void probe_gemm(Tracer& tr, Result& res, const char* name, std::int64_t m,
                std::int64_t n, std::int64_t k, int reps, Rng& rng) {
  const Tensor a = random_normal({m, k}, rng);
  const Tensor b = random_normal({k, n}, rng);
  Tensor c = Tensor::zeros({m, n});
  for (int r = 0; r < reps; ++r) {
    ScopedSpan s(tr, 0, name, r);
    gemm(Trans::N, Trans::N, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
         c.data(), n);
  }
  res.raw[std::string(name) + ".flops"] = gemm_flops(m, n, k);
  tick();
}

// Forward and backward of one serial layer, `reps` times.
template <typename Layer>
void probe_layer(Tracer& tr, int rank, Layer& layer, const Tensor& x,
                 const char* fwd, const char* bwd, int reps) {
  for (int r = 0; r < reps; ++r) {
    Tensor y;
    {
      ScopedSpan s(tr, rank, fwd, r);
      y = layer.forward(x);
    }
    ScopedSpan s(tr, rank, bwd, r);
    layer.backward(y);
  }
  if (rank == 0) tick();
}

// Same for a distributed layer: ranks line up before each timed call.
template <typename Layer>
void probe_dist_layer(Tracer& tr, comm::Communicator& c, Layer& layer,
                      const Tensor& x, const char* fwd, const char* bwd) {
  for (int r = 0; r < kLayerReps; ++r) {
    Tensor y;
    c.barrier();
    {
      ScopedSpan s(tr, c.rank(), fwd, r);
      y = layer.forward(x);
    }
    c.barrier();
    ScopedSpan s(tr, c.rank(), bwd, r);
    layer.backward(y);
  }
  if (c.rank() == 0) tick();
}

template <typename Fn>
void probe_collective(Tracer& tr, comm::Communicator& c, const char* name,
                      int reps, Fn&& fn) {
  for (int r = 0; r < reps; ++r) {
    c.barrier();
    ScopedSpan s(tr, c.rank(), name, r);
    fn();
  }
  if (c.rank() == 0) tick();
}

}  // namespace

void run_probes(const Options& opt, Result& res, Tracer& tr) {
  Rng rng(opt.seed, 7);

  // tensor: one LM-sized GEMM and one [2,2,2]-local GEMM.
  probe_gemm(tr, res, "tensor.gemm", kH, 4 * kH, kH, 20, rng);
  probe_gemm(tr, res, "tensor.gemm_local", kH / (kQ * kD), 4 * kH / kQ, kH / kQ,
             200, rng);

  // nn: the serial layers at the LM's activation shape.
  {
    const Tensor x = random_normal({kB, kS, kH}, rng);
    nn::MultiHeadAttention attention(kH, kHeads, rng, /*causal=*/true);
    probe_layer(tr, 0, attention, x, "nn.attention.fwd", "nn.attention.bwd",
                kLayerReps);
    nn::FeedForward ffn(kH, rng);
    probe_layer(tr, 0, ffn, x, "nn.ffn.fwd", "nn.ffn.bwd", kLayerReps);
    nn::LayerNorm layernorm(kH);
    probe_layer(tr, 0, layernorm, x, "nn.layernorm.fwd", "nn.layernorm.bwd",
                kLayerReps);
    nn::Linear head(kH, kVocab, rng);
    probe_layer(tr, 0, head, x, "nn.head.fwd", "nn.head.bwd", kLayerReps);
  }

  // pdgemm, parallel, comm and an 8-rank barrier on the [2,2,2] grid.
  tr.ensure_ranks(64);
  {
    comm::World world(kRanks, topo::MachineSpec::meluxina());
    world.run([&](comm::Communicator& c) {
      par::TesseractContext ctx(c, kQ, kD);
      pdg::TesseractComms& tc = ctx.comms();
      Rng local(opt.seed, 11);  // identical draws on every rank
      // The FFN up-projection: activations [256, 256] x weight [256, 1024].
      const Tensor a = pdg::distribute_a_layout(tc, random_normal({kB * kS, kH}, local));
      const Tensor b = pdg::distribute_b_layout(tc, random_normal({kH, 4 * kH}, local));
      const Tensor g = pdg::distribute_a_layout(tc, random_normal({kB * kS, 4 * kH}, local));
      for (int r = 0; r < kLayerReps; ++r) {
        c.barrier();
        {
          ScopedSpan s(tr, c.rank(), "pdgemm.ab", r);
          pdg::tesseract_ab_local(tc, a, b);
        }
        c.barrier();
        ScopedSpan s(tr, c.rank(), "pdgemm.atb", r);
        pdg::tesseract_atb_local(tc, a, g);
      }
      if (c.rank() == 0) tick();

      const Tensor x = par::distribute_activation(tc, random_normal({kB, kS, kH}, local));
      par::TesseractAttention attention(ctx, kH, kHeads, local, /*causal=*/true);
      probe_dist_layer(tr, c, attention, x, "parallel.attention.fwd",
                       "parallel.attention.bwd");
      par::TesseractFeedForward ffn(ctx, kH, local);
      probe_dist_layer(tr, c, ffn, x, "parallel.ffn.fwd", "parallel.ffn.bwd");
      par::TesseractLayerNorm layernorm(ctx, kH);
      probe_dist_layer(tr, c, layernorm, x, "parallel.layernorm.fwd",
                       "parallel.layernorm.bwd");

      // Collectives at the activation block size (one rank's x shard).
      std::vector<float> block(static_cast<std::size_t>(x.numel()), 1.0f);
      std::vector<float> gathered(block.size() * kRanks);
      std::vector<float> chunk(block.size() / kRanks);
      probe_collective(tr, c, "comm.broadcast", kCommReps,
                       [&] { c.broadcast(block, 0); });
      probe_collective(tr, c, "comm.all_reduce", kCommReps,
                       [&] { c.all_reduce(block); });
      probe_collective(tr, c, "comm.all_gather", kCommReps,
                       [&] { c.all_gather(block, gathered); });
      probe_collective(tr, c, "comm.reduce_scatter", kCommReps,
                       [&] { c.reduce_scatter(block, chunk); });
      probe_collective(tr, c, "runtime.barrier_r8", kBarrierReps,
                       [&] { c.barrier(); });
    });
  }
  res.raw["pdgemm.ab.flops"] = gemm_flops(kB * kS, 4 * kH, kH);

  // runtime at 64 ranks: a barrier, and a whole World::run of an empty body.
  {
    comm::World world(64);
    world.run([&](comm::Communicator& c) {
      probe_collective(tr, c, "runtime.barrier_r64", kBarrierReps / 2,
                       [&] { c.barrier(); });
    });
    for (int r = 0; r < kLayerReps; ++r) {
      ScopedSpan s(tr, 0, "runtime.world_run_r64", r);
      world.run([](comm::Communicator&) {});
    }
  }
}

}  // namespace stepbench
