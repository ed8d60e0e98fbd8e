// Configuration evaluator: produces the forward / backward / throughput /
// inference numbers of the paper's Tables 1 and 2 for any parallelization
// scheme and problem size, by replaying the real layers of parallel/ in
// shape-only mode (tensor/tensor.hpp) on a simulated MeluXina-like cluster.
// The replay issues the layers' own collectives and compute charges with
// payload-free messages, so paper-scale dimensions (h = 8192, s = 512) cost
// no tensor storage; there is no second copy of any layer's schedule.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/stats.hpp"
#include "fault/fault.hpp"
#include "obs/expect.hpp"
#include "topology/machine_spec.hpp"

namespace tsr::perf {

/// Problem dimensions of one encoder layer (paper notation: b, s, h, n).
struct LayerDims {
  std::int64_t batch = 0;
  std::int64_t seq = 0;
  std::int64_t hidden = 0;
  std::int64_t heads = 0;
  std::int64_t expansion = 4;
  /// Bytes per activation/weight element on the wire and in memory-bound
  /// charges: 4 = fp32 (what the real float layers move), 2 = fp16 mixed
  /// precision as in the paper's Megatron-style training setups.
  std::int64_t elem_bytes = 4;
};

enum class Scheme { Megatron1D, Optimus2D, Tesseract };

std::string scheme_name(Scheme s);

struct EvalConfig {
  Scheme scheme = Scheme::Tesseract;
  /// Grid shape. Megatron uses p ranks; Optimus uses q*q (d forced to 1);
  /// Tesseract uses q*q*d.
  int p = 0;  // Megatron only
  int q = 0;
  int d = 1;
  LayerDims dims;
  /// Encoder layers replayed per batch (the paper's N).
  int layers = 8;
  topo::MachineSpec spec = topo::MachineSpec::meluxina();
  /// Fault experiment to run the replay under (straggler / degraded-link
  /// sensitivity studies). The default empty plan changes nothing.
  fault::FaultPlan fault;

  int total_ranks() const;
  /// "[4,4,2]" / "[8,8]" / "[16]" — the GPU-shape notation of the tables.
  std::string shape_string() const;
};

struct EvalResult {
  double fwd_seconds = 0.0;   ///< forward time / batch
  double bwd_seconds = 0.0;   ///< backward time / batch
  double throughput = 0.0;    ///< iterations / s: 1 / (fwd + bwd)
  double inference = 0.0;     ///< iterations / s: 1 / fwd
  comm::CommStats fwd_stats;  ///< aggregate comm of one forward pass
  comm::CommStats bwd_stats;
};

/// Runs the shape-only replay and derives the table metrics the way the
/// paper's printed numbers do (1/(fwd+bwd) and 1/fwd — see the note in
/// cost_model.cpp on the text-vs-numbers discrepancy).
EvalResult evaluate(const EvalConfig& cfg);

/// cfg's real encoder layer (par::TesseractTransformerLayer on the
/// [q, q, d] grid — d = 1 for Optimus — or par::MegatronTransformerLayer on
/// p ranks), built shape-only on every rank of one World: the shared body of
/// evaluate(), expectation_from_cost_model() and the autotune search
/// (perf/autotune.hpp), which replays per-stage slices of a candidate and
/// appends its own optimizer phase.
class ScheduleReplay {
 public:
  /// Sets `world`'s wire element width to cfg.dims.elem_bytes. `world`
  /// must have exactly cfg.total_ranks() ranks and outlive the replay.
  ScheduleReplay(const EvalConfig& cfg, comm::World& world);
  ~ScheduleReplay();

  /// Replays cfg.layers layers forward (or backward) on the calling rank.
  /// A Tesseract batch that does not divide d*q is padded to the next
  /// multiple (Table 1 runs [4,4,2] at batch 12). Each rank's layer is built
  /// on its first call and kept: a backward pops the caches its forward
  /// pushed, also across separate World::run / measure() calls.
  void run(comm::Communicator& c, bool backward);

 private:
  struct Rank;
  EvalConfig cfg_;
  std::vector<std::unique_ptr<Rank>> ranks_;
};

/// Derives a live-telemetry expectation profile (obs/expect.hpp) from the
/// cost model: replays cfg's schedule (forward + backward per layer)
/// on a fresh metered World and condenses the result into predicted op rate
/// and busy/wait fractions. cfg.fault is deliberately IGNORED — the profile
/// is what a *healthy* cluster should do; drift from it is the signal the
/// ExpectationMonitor looks for.
obs::ExpectationProfile expectation_from_cost_model(const EvalConfig& cfg);

}  // namespace tsr::perf
