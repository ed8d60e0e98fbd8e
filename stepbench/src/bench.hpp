// Shared pieces of the step benchmark: the host clock, the span recorder of
// the traced run, and the raw result every workload fills in. Everything
// here lives on the benchmark side: spans wrap calls into the library's
// public functions and counters are read from its public stats, so the
// library itself is measured exactly as a user links it.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace stepbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// One bench-side span: a timed call into one layer's public function.
/// `parent` indexes the enclosing span of the same rank (-1 at top level);
/// `step` is the training step, sweep or probe repetition the call belongs to.
struct Span {
  const char* name;
  std::int64_t t0_ns;
  std::int64_t t1_ns;
  int parent;
  std::int64_t step;
};

/// Spans of the traced run, kept in memory and written out at exit. Each
/// rank owns one lane and only that rank's fiber touches it, so recording
/// needs no lock. A disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Grows the lane table; call from the main thread before a World run.
  void ensure_ranks(int ranks);
  /// Opens a span on `rank` nested in the rank's innermost open span and
  /// returns its handle for close().
  int open(int rank, const char* name, std::int64_t step);
  void close(int rank, int handle);
  /// [[name, t0_ns, t1_ns, parent_id, rank, step], ...] with ids global
  /// across lanes (lane-major order).
  tsr::obs::JsonValue to_json() const;

 private:
  struct Lane {
    std::vector<Span> spans;
    std::vector<int> open;  // stack of handles into spans
  };
  bool enabled_;
  std::vector<Lane> lanes_;
};

/// RAII span: a no-op when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, int rank, const char* name, std::int64_t step)
      : tracer_(tracer),
        rank_(rank),
        handle_(tracer.enabled() ? tracer.open(rank, name, step) : -1) {}
  ~ScopedSpan() {
    if (handle_ >= 0) tracer_.close(rank_, handle_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int rank_;
  int handle_;
};

/// What a workload hands back to run.py (written as JSON at exit). Timings
/// are raw samples; run.py turns them into the reported metrics.
struct Result {
  std::vector<double> setup_s;        ///< one per set-up repetition
  std::vector<double> step_s;         ///< untraced timed steps
  std::vector<double> traced_step_s;  ///< traced steps (traced run only)
  double tokens_per_step = 0.0;
  std::int64_t attempted = 0;         ///< checked operations
  std::int64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure descriptions
  /// Count metrics, reported under these names as they are.
  tsr::obs::JsonValue counters = tsr::obs::JsonValue::object();
  /// Raw numbers run.py combines with span times into metrics.
  tsr::obs::JsonValue raw = tsr::obs::JsonValue::object();

  /// Records one checked operation.
  void check(bool ok, const std::string& what);
};

/// Announces the phase a workload entered on stderr, so a run killed by the
/// wall-clock limit can say where it was.
void phase(const Options& opt, const char* name);

/// Reports progress on stderr after each operation; run.py treats a run that
/// stops reporting as hung and kills it.
void tick();

/// Model GEMM FLOPs of one training step (forward + backward) of the
/// benchmark's language model, counted from the layer shapes.
std::int64_t lm_step_gemm_flops();

void run_lm_serial(const Options& opt, Result& res, Tracer& tracer);
void run_lm_tesseract(const Options& opt, Result& res, Tracer& tracer);

/// Layer probes of the traced run (same set on every workload).
void run_probes(const Options& opt, Result& res, Tracer& tracer);
/// The phantom part of the probes: two rounds of the Table-1 replay and the
/// 64-GPU planner search, checked against each other and perf::autotune.
void run_phantom_probes(const Options& opt, Result& res, Tracer& tracer);

}  // namespace stepbench
