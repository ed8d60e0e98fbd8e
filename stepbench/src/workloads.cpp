// The two workloads, each a closed loop in one process (the next step starts
// when the previous one returned), and the phantom probe of the traced run:
//
//   lm_serial     single-rank causal LM training (tensor GEMM + nn kernels)
//   lm_tesseract  the same model and batches on a [2,2,2] Tesseract grid
//                 (adds pdgemm, real-payload comm and the fiber runtime)
//   phantom probe Table-1 phantom replay plus the 64-GPU planner search
//                 (runtime + phantom comm + perf; no real GEMM)
#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <numeric>
#include <string>

#include "bench.hpp"
#include "comm/communicator.hpp"
#include "nn/optimizer.hpp"
#include "parallel/context.hpp"
#include "perf/autotune.hpp"
#include "perf/cost_model.hpp"
#include "runtime/fiber.hpp"
#include "tensor/gemm.hpp"
#include "tensor/rng.hpp"
#include "train/lm.hpp"

namespace stepbench {

using namespace tsr;

namespace {

// ---- Language-model workloads ----------------------------------------------

constexpr std::int64_t kBatch = 8;
constexpr float kLr = 3e-3f;
constexpr int kCorpusSamples = 512;
constexpr std::int64_t kPeriod = 4;
constexpr int kWarmupSteps = 2;
constexpr int kSetupReps = 5;
// The p90 step time needs at least 10 samples beyond it.
constexpr std::size_t kMinTimedSteps = 100;
// loss_final is the mean loss of steps [kLossStep - kLossWindow, kLossStep):
// a fixed step count, so it does not depend on how fast the host ran.
constexpr std::size_t kLossStep = 100;
constexpr std::size_t kLossWindow = 8;
// Steps of lm_tesseract replayed serially after the timed loop; the losses
// must agree within the repository's serial-vs-parallel tolerance.
constexpr std::size_t kCheckPrefix = 8;
constexpr double kTol = 5e-3;

train::LmConfig lm_config() {
  return {.vocab = 256, .seq = 32, .hidden = 256, .heads = 8, .layers = 2,
          .ffn_expansion = 4};
}

// Epoch-wise shuffles of the corpus drawn from the seed: step s trains on
// samples perm_e[(s % nb) * batch ...] of epoch e = s / nb.
std::vector<int> batch_indices(std::uint64_t seed, std::int64_t step) {
  const std::int64_t nb = kCorpusSamples / kBatch;
  std::vector<int> perm(kCorpusSamples);
  std::iota(perm.begin(), perm.end(), 0);
  Rng rng(seed, 1 + static_cast<std::uint64_t>(step / nb));
  for (std::size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[static_cast<std::size_t>(rng.next_below(i))]);
  }
  const auto first = perm.begin() + (step % nb) * kBatch;
  return {first, first + kBatch};
}

Tracer& untraced() {
  static Tracer off(false);
  return off;
}

// One training step: forward, loss, backward, Adam. Returns the loss.
template <typename Model>
float lm_step(Model& model, nn::Adam& adam, const train::SyntheticCorpus& corpus,
              std::uint64_t seed, std::int64_t step, Tracer& tr, int rank) {
  const std::vector<int> idx = batch_indices(seed, step);
  const std::vector<int> in = corpus.inputs(idx);
  const std::vector<int> tg = corpus.targets(idx);
  Tensor logits;
  {
    ScopedSpan s(tr, rank, "train.forward", step);
    logits = model.forward(in, kBatch);
  }
  nn::LossResult loss;
  {
    ScopedSpan s(tr, rank, "train.loss", step);
    loss = train::next_token_loss(logits, tg);
  }
  {
    ScopedSpan s(tr, rank, "train.backward", step);
    model.zero_grad();
    model.backward(loss.dlogits);
  }
  {
    ScopedSpan s(tr, rank, "train.optimizer", step);
    adam.step(model.params());
  }
  if (rank == 0) tick();
  return loss.loss;
}

// Whether a segment that has run `steps` steps for `elapsed` seconds, with
// `losses` recorded in total, may stop.
bool segment_done(double elapsed, double seconds, std::size_t steps,
                  std::size_t min_steps, std::size_t losses) {
  return elapsed >= seconds && steps >= min_steps && losses >= kLossStep;
}

void check_losses(const std::vector<float>& losses, Result& res) {
  for (std::size_t s = 0; s < losses.size(); ++s) {
    res.check(std::isfinite(losses[s]),
              "non-finite loss at step " + std::to_string(s));
  }
  double sum = 0.0;
  for (std::size_t s = kLossStep - kLossWindow; s < kLossStep; ++s) {
    sum += losses[s];
  }
  const double loss_final = sum / static_cast<double>(kLossWindow);
  res.counters["train.loss_final"] = loss_final;
  res.check(loss_final < losses[0],
            "loss did not fall: step 0 " + std::to_string(losses[0]) +
                ", final " + std::to_string(loss_final));
}

// Scheduler counters (resumes, cross_wakes, parks) and per-worker resumes
// accumulated over pairs of scheduler_stats() readings. The library flushes
// them when a run ends, so readings are taken around World runs.
struct SchedDelta {
  double counts[3] = {0.0, 0.0, 0.0};
  std::vector<double> workers;

  void add(const rt::SchedulerStats& before, const rt::SchedulerStats& after,
           double weight) {
    counts[0] += weight * static_cast<double>(after.resumes - before.resumes);
    counts[1] +=
        weight * static_cast<double>(after.cross_wakes - before.cross_wakes);
    counts[2] += weight * static_cast<double>(after.parks - before.parks);
    workers.resize(std::max(workers.size(), after.worker_resumes.size()));
    for (std::size_t w = 0; w < after.worker_resumes.size(); ++w) {
      const std::uint64_t b =
          w < before.worker_resumes.size() ? before.worker_resumes[w] : 0;
      workers[w] += weight * static_cast<double>(after.worker_resumes[w] - b);
    }
  }
};

// Writes runtime.{resumes,cross_wakes,parks}_per_<unit>.
void record_scheduler(const SchedDelta& d, double units,
                      const std::string& unit, Result& res) {
  static const char* kFields[3] = {"resumes", "cross_wakes", "parks"};
  for (int f = 0; f < 3; ++f) {
    res.counters[std::string("runtime.") + kFields[f] + "_per_" + unit] =
        std::max(0.0, d.counts[f]) / units;
  }
}

void record_gemm_scratch(const GemmScratchStats& before,
                         const GemmScratchStats& after, Result& res) {
  res.raw["gemm_scratch_reuses"] =
      static_cast<std::int64_t>(after.reuses - before.reuses);
  res.raw["gemm_scratch_acquires"] = static_cast<std::int64_t>(
      after.reuses - before.reuses + after.allocations - before.allocations);
}

}  // namespace

std::int64_t lm_step_gemm_flops() {
  const train::LmConfig c = lm_config();
  const std::int64_t t = kBatch * c.seq;
  const std::int64_t hd = c.hidden / c.heads;
  const std::int64_t per_layer =
      gemm_flops(t, 3 * c.hidden, c.hidden) +                     // QKV
      2 * kBatch * c.heads * gemm_flops(c.seq, c.seq, hd) +       // QK^T, PV
      gemm_flops(t, c.hidden, c.hidden) +                         // out proj
      2 * gemm_flops(t, c.ffn_expansion * c.hidden, c.hidden);    // FFN
  const std::int64_t forward =
      c.layers * per_layer + gemm_flops(t, c.vocab, c.hidden);    // + head
  return 3 * forward;  // backward computes dX and dW: twice the forward
}

void run_lm_serial(const Options& opt, Result& res, Tracer& tracer) {
  const train::LmConfig cfg = lm_config();
  const train::SyntheticCorpus corpus(kCorpusSamples, cfg.seq, cfg.vocab,
                                      kPeriod, opt.seed);
  std::unique_ptr<train::LanguageModel> model;
  std::unique_ptr<nn::Adam> adam;
  std::vector<float> losses;

  phase(opt, "setup");
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::int64_t t0 = now_ns();
    Rng wrng(opt.seed);
    model = std::make_unique<train::LanguageModel>(cfg, wrng);
    adam = std::make_unique<nn::Adam>(kLr);
    losses.clear();
    for (int s = 0; s < kWarmupSteps; ++s) {
      losses.push_back(lm_step(*model, *adam, corpus, opt.seed,
                               static_cast<std::int64_t>(s), untraced(), 0));
    }
    res.setup_s.push_back(seconds_since(t0));
  }

  auto segment = [&](double seconds, std::size_t min_steps, Tracer& tr,
                     std::vector<double>& out) {
    const std::int64_t t_seg = now_ns();
    do {
      const auto step = static_cast<std::int64_t>(losses.size());
      const std::int64_t t0 = now_ns();
      {
        ScopedSpan s(tr, 0, "train.step", step);
        losses.push_back(lm_step(*model, *adam, corpus, opt.seed, step, tr, 0));
      }
      out.push_back(seconds_since(t0));
    } while (!segment_done(seconds_since(t_seg), seconds, out.size(),
                           min_steps, losses.size()));
  };

  phase(opt, "timed");
  const GemmScratchStats g0 = gemm_scratch_stats();
  segment(opt.trace ? opt.seconds / 2 : opt.seconds, kMinTimedSteps,
          untraced(), res.step_s);
  record_gemm_scratch(g0, gemm_scratch_stats(), res);
  res.tokens_per_step = static_cast<double>(kBatch * cfg.seq);
  if (opt.trace) {
    phase(opt, "traced");
    segment(opt.seconds / 2, 0, tracer, res.traced_step_s);
  }

  phase(opt, "check");
  check_losses(losses, res);
}

void run_lm_tesseract(const Options& opt, Result& res, Tracer& tracer) {
  constexpr int kQ = 2, kD = 2, kRanks = kQ * kQ * kD;
  const train::LmConfig cfg = lm_config();
  const train::SyntheticCorpus corpus(kCorpusSamples, cfg.seq, cfg.vocab,
                                      kPeriod, opt.seed);
  tracer.ensure_ranks(kRanks);

  std::vector<float> losses;  // rank 0's
  std::atomic<bool> stop{false};
  double sim_step_s = 0.0;
  struct RankCounters {
    std::int64_t msgs = 0, bytes = 0, steps = 0;
    std::uint64_t pool_reuses = 0, pool_acquires = 0;
  };
  std::vector<RankCounters> counters(kRanks);
  SchedDelta sched;
  GemmScratchStats g0, g1;

  phase(opt, "setup");
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const bool last = rep + 1 == kSetupReps;
    const std::int64_t t0 = now_ns();
    const rt::SchedulerStats before = rt::scheduler_stats();
    if (last) g0 = gemm_scratch_stats();
    comm::World world(kRanks, topo::MachineSpec::meluxina());
    world.run([&](comm::Communicator& c) {
      const int r = c.rank();
      par::TesseractContext ctx(c, kQ, kD);
      Rng wrng(opt.seed);
      train::TesseractLanguageModel model(ctx, cfg, wrng);
      nn::Adam adam(kLr);
      if (r == 0) losses.clear();
      for (int s = 0; s < kWarmupSteps; ++s) {
        const float l = lm_step(model, adam, corpus, opt.seed,
                                static_cast<std::int64_t>(s), untraced(), r);
        if (r == 0) losses.push_back(l);
      }
      c.barrier();
      if (r == 0) res.setup_s.push_back(seconds_since(t0));
      if (!last) return;
      if (r == 0) phase(opt, "timed");

      std::int64_t step = kWarmupSteps;
      // Rank 0 decides when a segment ends and publishes the decision before
      // entering the end-of-step barrier, so every rank reads it after that
      // barrier and all leave the loop on the same step.
      auto segment = [&](double seconds, std::size_t min_steps, Tracer& tr,
                         std::vector<double>* out, RankCounters* rc) {
        comm::CommStats& st = c.stats();
        comm::BufferPool& pool = c.world().pool(c.world_rank());
        const std::int64_t m0 = st.msgs_sent, b0 = st.bytes_sent;
        const std::uint64_t pr0 = pool.reuses(), pa0 = pool.allocations();
        const std::int64_t t_seg = now_ns();
        std::int64_t t_prev = t_seg;
        std::size_t n = 0;
        for (;;) {
          const double sim0 = c.clock().now();
          {
            ScopedSpan s(tr, r, "train.step", step);
            const float l = lm_step(model, adam, corpus, opt.seed, step, tr, r);
            if (r == 0) {
              losses.push_back(l);
              stop.store(segment_done(seconds_since(t_seg), seconds, n + 1,
                                      min_steps, losses.size()));
            }
            ScopedSpan b(tr, r, "train.barrier", step);
            c.barrier();
          }
          if (r == 0) {
            const std::int64_t t = now_ns();
            out->push_back(static_cast<double>(t - t_prev) * 1e-9);
            t_prev = t;
            if (step == kWarmupSteps) sim_step_s = c.clock().now() - sim0;
          }
          ++step;
          ++n;
          if (stop.load()) break;
        }
        if (rc != nullptr) {
          rc->msgs = st.msgs_sent - m0;
          rc->bytes = st.bytes_sent - b0;
          rc->steps = static_cast<std::int64_t>(n);
          rc->pool_reuses = pool.reuses() - pr0;
          rc->pool_acquires =
              pool.reuses() - pr0 + pool.allocations() - pa0;
        }
        c.barrier();  // every rank has read `stop` before rank 0 resets it
        if (r == 0) stop.store(false);
        c.barrier();
      };

      segment(opt.trace ? opt.seconds / 2 : opt.seconds, kMinTimedSteps,
              untraced(), &res.step_s, &counters[static_cast<std::size_t>(r)]);
      if (opt.trace) {
        if (r == 0) phase(opt, "traced");
        segment(opt.seconds / 2, 0, tracer, &res.traced_step_s, nullptr);
      }
    });
    // The last run holds a set-up plus the timed steps; the mean of the
    // set-up-only runs is subtracted so the per-step counts cover the timed
    // steps alone.
    sched.add(before, rt::scheduler_stats(),
              last ? 1.0 : -1.0 / (kSetupReps - 1));
    if (last) g1 = gemm_scratch_stats();
  }

  res.tokens_per_step = static_cast<double>(kBatch * cfg.seq);
  std::int64_t msgs = 0, bytes = 0;
  std::uint64_t reuses = 0, acquires = 0;
  for (const RankCounters& rc : counters) {
    msgs += rc.msgs;
    bytes += rc.bytes;
    reuses += rc.pool_reuses;
    acquires += rc.pool_acquires;
  }
  const double steps = static_cast<double>(counters[0].steps);
  res.counters["comm.msgs_per_step"] = static_cast<double>(msgs) / steps;
  res.counters["comm.bytes_per_step"] = static_cast<double>(bytes) / steps;
  res.counters["sim.step_s"] = sim_step_s;
  res.raw["pool_reuses"] = static_cast<std::int64_t>(reuses);
  res.raw["pool_acquires"] = static_cast<std::int64_t>(acquires);
  const double all_steps =
      static_cast<double>(res.step_s.size() + res.traced_step_s.size());
  record_scheduler(sched, all_steps, "step", res);
  obs::JsonValue workers = obs::JsonValue::array();
  for (double w : sched.workers) workers.push_back(std::max(0.0, w));
  res.raw["worker_resumes"] = std::move(workers);
  record_gemm_scratch(g0, g1, res);

  phase(opt, "check");
  check_losses(losses, res);
  // Serial replay of the first steps' batches: the Tesseract model is exact
  // up to float reassociation, so the losses must agree within kTol.
  Rng wrng(opt.seed);
  train::LanguageModel serial(cfg, wrng);
  nn::Adam adam(kLr);
  for (std::size_t s = 0; s < kCheckPrefix; ++s) {
    const float l = lm_step(serial, adam, corpus, opt.seed,
                            static_cast<std::int64_t>(s), untraced(), 0);
    res.check(std::abs(static_cast<double>(l) - losses[s]) <= kTol,
              "step " + std::to_string(s) + ": tesseract loss " +
                  std::to_string(losses[s]) + " vs serial " +
                  std::to_string(l));
  }
}

// ---- Phantom Table-1 replay and planner search (traced-run probe) ----------

namespace {

struct Table1Config {
  const char* name;  // span name: static storage
  perf::EvalConfig cfg;
};

// The 12 configurations and dims of bench_table1_strong_scaling.
std::vector<Table1Config> table1_configs() {
  using perf::Scheme;
  auto row = [](const char* name, Scheme scheme, int p, int q, int d,
                std::int64_t batch) {
    Table1Config t{name, {}};
    t.cfg.scheme = scheme;
    t.cfg.p = p;
    t.cfg.q = q;
    t.cfg.d = d;
    t.cfg.dims = perf::LayerDims{batch, 512, 3072, 64};
    t.cfg.layers = 24;
    return t;
  };
  return {
      row("perf.evaluate.megatron_4", Scheme::Megatron1D, 4, 0, 1, 12),
      row("perf.evaluate.megatron_16", Scheme::Megatron1D, 16, 0, 1, 12),
      row("perf.evaluate.megatron_64", Scheme::Megatron1D, 64, 0, 1, 12),
      row("perf.evaluate.optimus_2x2", Scheme::Optimus2D, 0, 2, 1, 12),
      row("perf.evaluate.optimus_4x4", Scheme::Optimus2D, 0, 4, 1, 12),
      row("perf.evaluate.optimus_8x8", Scheme::Optimus2D, 0, 8, 1, 12),
      row("perf.evaluate.tesseract_2x2x1", Scheme::Tesseract, 0, 2, 1, 12),
      row("perf.evaluate.tesseract_2x2x2", Scheme::Tesseract, 0, 2, 2, 12),
      row("perf.evaluate.tesseract_4x4x1", Scheme::Tesseract, 0, 4, 1, 12),
      row("perf.evaluate.tesseract_4x4x2", Scheme::Tesseract, 0, 4, 2, 12),
      // Batch 16 so it divides d*q = 16, as in the paper.
      row("perf.evaluate.tesseract_4x4x4", Scheme::Tesseract, 0, 4, 4, 16),
      row("perf.evaluate.tesseract_8x8x1", Scheme::Tesseract, 0, 8, 1, 12),
  };
}

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[static_cast<std::size_t>(rng.next_below(i))]);
  }
}

bool same_answer(const perf::EvalResult& a, const perf::EvalResult& b) {
  return a.fwd_seconds == b.fwd_seconds && a.bwd_seconds == b.bwd_seconds &&
         a.fwd_stats.msgs_sent == b.fwd_stats.msgs_sent &&
         a.bwd_stats.msgs_sent == b.bwd_stats.msgs_sent &&
         a.fwd_stats.bytes_sent == b.fwd_stats.bytes_sent &&
         a.bwd_stats.bytes_sent == b.bwd_stats.bytes_sent;
}

bool same_score(const perf::PlanScore& a, const perf::PlanScore& b) {
  return a.step_seconds == b.step_seconds && a.peak_bytes == b.peak_bytes &&
         a.straggler_inflation == b.straggler_inflation;
}

std::array<double, 3> objectives(const perf::PlanScore& s) {
  return {s.step_seconds, s.peak_bytes, s.straggler_inflation};
}

}  // namespace

void run_phantom_probes(const Options& opt, Result& res, Tracer& tr) {
  // A second round checks that every simulated answer repeats exactly.
  constexpr int kRounds = 2;
  // The planner problem of tsr_plan / bench_autotune at 64 GPUs.
  perf::AutotuneConfig plan_cfg;
  plan_cfg.gpus = 64;
  // The seed fixes the order configs and candidates are replayed in; the
  // simulated answers must not depend on it.
  Rng order(opt.seed, 3);
  std::vector<Table1Config> configs = table1_configs();
  shuffle(configs, order);
  std::vector<perf::PlanCandidate> cands = perf::enumerate_candidates(plan_cfg);
  shuffle(cands, order);

  std::vector<perf::EvalResult> first_sweep(configs.size());
  std::vector<perf::PlanScore> first_plan(cands.size());
  std::vector<bool> first_flags;
  SchedDelta sweep_sched;
  for (int round = 0; round < kRounds; ++round) {
    const rt::SchedulerStats s0 = rt::scheduler_stats();
    {
      ScopedSpan s(tr, 0, "perf.table1_sweep", round);
      for (std::size_t i = 0; i < configs.size(); ++i) {
        perf::EvalResult r;
        {
          ScopedSpan e(tr, 0, configs[i].name, round);
          r = perf::evaluate(configs[i].cfg);
        }
        tick();
        if (round == 0) {
          first_sweep[i] = r;
        } else {
          res.check(same_answer(r, first_sweep[i]),
                    std::string(configs[i].name) + " differs between sweeps");
        }
      }
    }
    sweep_sched.add(s0, rt::scheduler_stats(), 1.0);

    ScopedSpan s(tr, 0, "perf.plan64", round);
    std::vector<std::array<double, 3>> points;
    for (std::size_t i = 0; i < cands.size(); ++i) {
      perf::PlanScore score;
      {
        ScopedSpan c(tr, 0, "perf.score_candidate", round);
        score = perf::score_candidate(plan_cfg, cands[i]);
      }
      tick();
      points.push_back(objectives(score));
      if (round == 0) {
        first_plan[i] = score;
      } else {
        res.check(same_score(score, first_plan[i]),
                  cands[i].label() + " score differs between searches");
      }
    }
    const std::vector<bool> flags = perf::pareto_front(points);
    if (round == 0) first_flags = flags;
  }

  std::int64_t msgs = 0, bytes = 0;
  for (const perf::EvalResult& r : first_sweep) {
    msgs += r.fwd_stats.msgs_sent + r.bwd_stats.msgs_sent;
    bytes += r.fwd_stats.bytes_sent + r.bwd_stats.bytes_sent;
  }
  res.counters["comm.phantom_msgs_per_sweep"] = static_cast<double>(msgs);
  res.counters["comm.phantom_bytes_per_sweep"] = static_cast<double>(bytes);
  record_scheduler(sweep_sched, kRounds, "sweep", res);

  // The whole search through the library's own entry point must agree with
  // the candidate-by-candidate replay above, and its Pareto flags must be
  // exactly perf::pareto_front of its own objective table.
  const std::vector<perf::ScoredCandidate> full = perf::autotune(plan_cfg);
  tick();
  std::vector<std::array<double, 3>> points;
  for (const perf::ScoredCandidate& sc : full) points.push_back(objectives(sc.score));
  const std::vector<bool> front = perf::pareto_front(points);
  std::int64_t pareto_size = 0;
  res.check(full.size() == cands.size(), "autotune candidate count differs");
  for (std::size_t i = 0; i < full.size(); ++i) {
    res.check(full[i].pareto == front[i],
              full[i].cand.label() + ": Pareto flag disagrees with pareto_front");
    pareto_size += full[i].pareto ? 1 : 0;
    for (std::size_t j = 0; j < cands.size(); ++j) {
      if (cands[j].label() != full[i].cand.label()) continue;
      res.check(same_score(full[i].score, first_plan[j]) &&
                    full[i].pareto == first_flags[j],
                full[i].cand.label() + ": autotune disagrees with the replay");
    }
  }
  res.counters["perf.candidates"] = static_cast<double>(full.size());
  res.counters["perf.pareto_size"] = static_cast<double>(pareto_size);
}

}  // namespace stepbench
