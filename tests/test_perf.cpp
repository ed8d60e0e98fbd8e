// Performance model: the shape-only replay of the real layers must match
// their real-payload run exactly (time and bytes) — this test is the
// contract that lets the table benchmarks run at paper scale; plus the
// paper's closed-form claims and the qualitative table shapes.
#include <gtest/gtest.h>

#include "comm/communicator.hpp"
#include "parallel/dist.hpp"
#include "parallel/megatron.hpp"
#include "parallel/tesseract_transformer.hpp"
#include "perf/cost_model.hpp"
#include "perf/formulas.hpp"
#include "perf/report.hpp"
#include "perf/trace.hpp"
#include "tensor/init.hpp"

namespace tsr::perf {
namespace {

struct GridCase {
  int q;
  int d;
};

class PhantomLayerEquivalence : public ::testing::TestWithParam<GridCase> {};

TEST_P(PhantomLayerEquivalence, TesseractForwardAndBackward) {
  const auto [q, d] = GetParam();
  const LayerDims dims{/*batch=*/2 * q * d, /*seq=*/3, /*hidden=*/8 * q,
                       /*heads=*/2 * q};
  const topo::MachineSpec spec = topo::MachineSpec::meluxina();

  Rng data_rng(1);
  Tensor x = random_normal({dims.batch, dims.seq, dims.hidden}, data_rng);
  Tensor dy = random_normal({dims.batch, dims.seq, dims.hidden}, data_rng);

  comm::World real(q * q * d, spec);
  Measurement mr = measure(real, [&](comm::Communicator& c) {
    par::TesseractContext ctx(c, q, d);
    Rng wrng(11);
    par::TesseractTransformerLayer layer(ctx, dims.hidden, dims.heads, wrng);
    Tensor xl = par::distribute_activation(ctx.comms(), x);
    Tensor dyl = par::distribute_activation(ctx.comms(), dy);
    // Clocks/stats are reset by measure() before this lambda runs, but layer
    // construction happens inside it; construction is communication-free and
    // charge-free, so the measurement is exactly fwd + bwd.
    Tensor yl = layer.forward(xl);
    (void)layer.backward(dyl);
    (void)yl;
  });

  comm::World phantom(q * q * d, spec);
  ScheduleReplay replay(
      {.scheme = Scheme::Tesseract, .q = q, .d = d, .dims = dims, .layers = 1},
      phantom);
  Measurement mp = measure(phantom, [&](comm::Communicator& c) {
    replay.run(c, /*backward=*/false);
    replay.run(c, /*backward=*/true);
  });

  EXPECT_DOUBLE_EQ(mr.sim_seconds, mp.sim_seconds)
      << "phantom replay diverged from the real layer schedule";
  EXPECT_EQ(mr.total_stats.bytes_sent, mp.total_stats.bytes_sent);
  EXPECT_EQ(mr.total_stats.msgs_sent, mp.total_stats.msgs_sent);
  EXPECT_EQ(mr.total_stats.bytes_inter_node, mp.total_stats.bytes_inter_node);
}

INSTANTIATE_TEST_SUITE_P(Grids, PhantomLayerEquivalence,
                         ::testing::Values(GridCase{1, 1}, GridCase{2, 1},
                                           GridCase{2, 2}, GridCase{3, 2},
                                           GridCase{4, 2}));

class PhantomMegatronEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(PhantomMegatronEquivalence, ForwardAndBackward) {
  const int p = GetParam();
  const LayerDims dims{/*batch=*/2, /*seq=*/3, /*hidden=*/8 * p,
                       /*heads=*/2 * p};
  const topo::MachineSpec spec = topo::MachineSpec::meluxina();

  Rng data_rng(2);
  Tensor x = random_normal({dims.batch, dims.seq, dims.hidden}, data_rng);
  Tensor dy = random_normal({dims.batch, dims.seq, dims.hidden}, data_rng);

  comm::World real(p, spec);
  Measurement mr = measure(real, [&](comm::Communicator& c) {
    par::MegatronContext ctx(c);
    Rng wrng(12);
    par::MegatronTransformerLayer layer(ctx, dims.hidden, dims.heads, wrng);
    (void)layer.forward(x);
    (void)layer.backward(dy);
  });

  comm::World phantom(p, spec);
  ScheduleReplay replay(
      {.scheme = Scheme::Megatron1D, .p = p, .dims = dims, .layers = 1},
      phantom);
  Measurement mp = measure(phantom, [&](comm::Communicator& c) {
    replay.run(c, /*backward=*/false);
    replay.run(c, /*backward=*/true);
  });

  EXPECT_DOUBLE_EQ(mr.sim_seconds, mp.sim_seconds);
  EXPECT_EQ(mr.total_stats.bytes_sent, mp.total_stats.bytes_sent);
  EXPECT_EQ(mr.total_stats.msgs_sent, mp.total_stats.msgs_sent);
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, PhantomMegatronEquivalence,
                         ::testing::Values(1, 2, 4, 8));

// ---- closed-form claims (Sections 1 and 3.1) --------------------------------

TEST(Formulas, IntroductionRatiosAt64Processors) {
  // "the communication needed for Cannon's Algorithm is 31.5 times the
  //  communication needed for Tesseract, and the communication needed for
  //  the 2.5D algorithm is 3.75 times" (p = 64).
  const double tess = tesseract_transmissions(64);
  EXPECT_NEAR(cannon_transmissions(64) / tess, 31.5, 1e-9);
  EXPECT_NEAR(d25_transmissions(64) / tess, 3.75, 1e-9);
}

TEST(Formulas, TransmissionCrossovers) {
  // Tesseract beats Cannon for q > 2 and 2.5-D for q > 4 (p = q^3), and the
  // advantage widens with q.
  auto p_of_q = [](int q) { return static_cast<double>(q) * q * q; };
  EXPECT_GT(cannon_transmissions(p_of_q(3)), tesseract_transmissions(p_of_q(3)));
  EXPECT_GT(d25_transmissions(p_of_q(5)), tesseract_transmissions(p_of_q(5)));
  const double ratio_q3 =
      cannon_transmissions(p_of_q(3)) / tesseract_transmissions(p_of_q(3));
  const double ratio_q6 =
      cannon_transmissions(p_of_q(6)) / tesseract_transmissions(p_of_q(6));
  EXPECT_GT(ratio_q6, ratio_q3);
}

TEST(Formulas, MemoryEquations) {
  // eqs. (7)-(10) with a=b=c=n: Tesseract stores (2 + d) n^2 / p, Megatron
  // n^2 (1 + 2/p); Megatron needs p times more for the activation term.
  const double n = 1024;
  const double p = 64;
  const double d = 4;
  const double tess = tesseract_memory(n, n, n, p, d);
  const double mega = megatron_memory(n, n, n, p);
  EXPECT_DOUBLE_EQ(tess, (2.0 + d) * n * n / p);
  EXPECT_DOUBLE_EQ(mega, n * n * (1.0 + 2.0 / p));
  EXPECT_LT(tess, mega);
}

TEST(Formulas, EfficiencyBounds) {
  EXPECT_DOUBLE_EQ(efficiency(100.0, 4, 0.0), 1.0);
  EXPECT_LT(efficiency(100.0, 4, 10.0), 1.0);
  EXPECT_GT(efficiency(100.0, 4, 10.0), 0.0);
  // More communication -> lower efficiency.
  EXPECT_GT(efficiency(100.0, 4, 1.0), efficiency(100.0, 4, 5.0));
}

TEST(Formulas, IsoefficiencyOrdering) {
  // Megatron's isoefficiency W ~ p^3 grows faster than Optimus's
  // (sqrt(p) log p)^3 for large p: worse scalability.
  EXPECT_GT(megatron_isoefficiency(256) / optimus_isoefficiency(256), 1.0);
  // Depth reduces the required problem growth for Tesseract.
  EXPECT_LT(tesseract_isoefficiency(256, 4), tesseract_isoefficiency(256, 1));
}

TEST(Formulas, LowerBounds) {
  // 2.5-D bounds improve on 2-D with depth (eqs. 1-5).
  EXPECT_LT(d25_bandwidth_lower_bound(1024, 64, 4),
            cannon_bandwidth_lower_bound(1024, 64));
  EXPECT_LT(d25_latency_lower_bound(64, 4), cannon_latency_lower_bound(64));
  EXPECT_DOUBLE_EQ(d25_bandwidth_lower_bound(1024, 64, 1),
                   cannon_bandwidth_lower_bound(1024, 64));
}

// ---- table-shape sanity ---------------------------------------------------------

LayerDims table1_dims(std::int64_t batch) {
  return LayerDims{batch, /*seq=*/512, /*hidden=*/3072, /*heads=*/64};
}

TEST(TableShape, DepthHelpsAtEqualProcessorCount) {
  // Table 1's headline: Tesseract [4,4,4] beats [8,8,1] at 64 GPUs.
  EvalConfig deep{.scheme = Scheme::Tesseract, .q = 4, .d = 4,
                  .dims = table1_dims(16), .layers = 4};
  EvalConfig flat{.scheme = Scheme::Tesseract, .q = 8, .d = 1,
                  .dims = table1_dims(16), .layers = 4};
  const EvalResult rd = evaluate(deep);
  const EvalResult rf = evaluate(flat);
  EXPECT_LT(rd.fwd_seconds, rf.fwd_seconds);
  EXPECT_LT(rd.bwd_seconds, rf.bwd_seconds);
  EXPECT_GT(rd.throughput, rf.throughput);
}

TEST(TableShape, TesseractBeatsBaselinesAt64) {
  EvalConfig tess{.scheme = Scheme::Tesseract, .q = 4, .d = 4,
                  .dims = table1_dims(16), .layers = 4};
  EvalConfig mega{.scheme = Scheme::Megatron1D, .p = 64,
                  .dims = table1_dims(16), .layers = 4};
  EvalConfig opti{.scheme = Scheme::Optimus2D, .q = 8,
                  .dims = table1_dims(16), .layers = 4};
  const double t_tess = evaluate(tess).fwd_seconds;
  const double t_mega = evaluate(mega).fwd_seconds;
  const double t_opti = evaluate(opti).fwd_seconds;
  EXPECT_LT(t_tess, t_mega);
  EXPECT_LT(t_tess, t_opti);
}

TEST(TableShape, GreaterDepthReducesTimeAtFixedQ) {
  // Table 1, q = 4 block: depth 1 -> 2 -> 4 monotonically improves.
  double prev = 1e30;
  for (int d : {1, 2, 4}) {
    EvalConfig cfg{.scheme = Scheme::Tesseract, .q = 4, .d = d,
                   .dims = table1_dims(16), .layers = 4};
    const double t = evaluate(cfg).fwd_seconds;
    EXPECT_LT(t, prev) << "depth " << d;
    prev = t;
  }
}

TEST(TableShape, OptimusEqualsTesseractDepthOne) {
  EvalConfig opti{.scheme = Scheme::Optimus2D, .q = 4,
                  .dims = table1_dims(16), .layers = 2};
  EvalConfig tess{.scheme = Scheme::Tesseract, .q = 4, .d = 1,
                  .dims = table1_dims(16), .layers = 2};
  EXPECT_DOUBLE_EQ(evaluate(opti).fwd_seconds, evaluate(tess).fwd_seconds);
}

TEST(TableShape, MetricsDefinitions) {
  EvalConfig cfg{.scheme = Scheme::Tesseract, .q = 2, .d = 2,
                 .dims = table1_dims(16), .layers = 2};
  const EvalResult r = evaluate(cfg);
  EXPECT_NEAR(r.throughput, 1.0 / (r.fwd_seconds + r.bwd_seconds), 1e-9);
  EXPECT_NEAR(r.inference, 1.0 / r.fwd_seconds, 1e-9);
  EXPECT_GT(r.bwd_seconds, r.fwd_seconds);  // backward does ~2x the work
}

TEST(TableShape, ShapeStrings) {
  EvalConfig mega{.scheme = Scheme::Megatron1D, .p = 16};
  EvalConfig opti{.scheme = Scheme::Optimus2D, .q = 8};
  EvalConfig tess{.scheme = Scheme::Tesseract, .q = 4, .d = 2};
  EXPECT_EQ(mega.shape_string(), "[16]");
  EXPECT_EQ(opti.shape_string(), "[8,8]");
  EXPECT_EQ(tess.shape_string(), "[4,4,2]");
  EXPECT_EQ(mega.total_ranks(), 16);
  EXPECT_EQ(opti.total_ranks(), 64);
  EXPECT_EQ(tess.total_ranks(), 32);
}

TEST(TableShape, HalfPrecisionShrinksCommBoundTimes) {
  // fp16 halves every wire byte; comm-dominated configs speed up by close
  // to 2x, compute-dominated ones by less.
  EvalConfig cfg{.scheme = Scheme::Megatron1D, .p = 64,
                 .dims = table1_dims(12), .layers = 2};
  const double fp32 = evaluate(cfg).fwd_seconds;
  cfg.dims.elem_bytes = 2;
  const double fp16 = evaluate(cfg).fwd_seconds;
  EXPECT_LT(fp16, 0.65 * fp32);  // Megatron-64 is comm-bound
  EXPECT_GT(fp16, 0.45 * fp32);  // cannot beat the 2x wire reduction
}

TEST(TableShape, OrderingStableUnderHalfPrecision) {
  auto fwd16 = [&](Scheme s, int pq, int d) {
    EvalConfig cfg{.scheme = s, .p = pq, .q = pq, .d = d,
                   .dims = table1_dims(16), .layers = 2};
    cfg.dims.elem_bytes = 2;
    return evaluate(cfg).fwd_seconds;
  };
  const double tess = fwd16(Scheme::Tesseract, 4, 4);
  EXPECT_LT(tess, fwd16(Scheme::Megatron1D, 64, 1));
  EXPECT_LT(tess, fwd16(Scheme::Tesseract, 8, 1));
}

TEST(Report, MakeRowAndPrint) {
  EvalConfig cfg{.scheme = Scheme::Tesseract, .q = 2, .d = 1,
                 .dims = LayerDims{12, 64, 128, 8}, .layers = 1};
  const EvalResult r = evaluate(cfg);
  const TableRow row = make_row(cfg, r);
  EXPECT_EQ(row.parallelization, "Tesseract");
  EXPECT_EQ(row.gpus, 4);
  EXPECT_EQ(row.batch, 12);
  std::ostringstream os;
  print_table(os, "Table X", {row});
  EXPECT_NE(os.str().find("Tesseract"), std::string::npos);
  EXPECT_NE(os.str().find("[2,2,1]"), std::string::npos);
}

}  // namespace
}  // namespace tsr::perf
