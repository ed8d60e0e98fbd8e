// Persistent host worker pool shared by the multi-core runtime.
//
// Two consumers drive it:
//   * rt::FiberScheduler parks one long-lived "worker loop" per scheduler
//     worker on a dedicated pool thread (run_exclusive), so paper-scale
//     replays spread their rank fibers over the host cores without paying a
//     thread spawn per World::run;
//   * data-parallel kernels (the packed GEMM's C column stripes, GELU,
//     softmax rows, batched GEMM items, the Adam update) fan disjoint index
//     ranges out with parallel_chunks over parallel_for, where the caller
//     always participates and idle pool threads opportunistically help.
//
// The pool grows on demand (never shrinks) up to the worker counts callers
// request, so TESSERACT_WORKERS=4 behaves identically on a 1-core and a
// 64-core host — only the wall-clock differs, never the results.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>

namespace tsr::rt {

/// Host workers requested via TESSERACT_WORKERS, defaulting to the hardware
/// concurrency. Re-read from the environment on every call so tests can
/// sweep worker counts inside one process. Clamped to [1, 64].
int configured_workers();

namespace detail {
/// Share of the host this thread may use for nested data parallelism:
/// configured_workers() / scheduler workers while driving rank fibers,
/// 0 (= "use the full budget") elsewhere. Managed by the fiber scheduler.
extern thread_local int t_host_share;
}  // namespace detail

/// How many workers a data-parallel kernel (GEMM, elementwise pass) issued
/// from the calling thread may use without oversubscribing the host: the
/// full configured worker count from serial code, the per-scheduler-worker
/// share from inside a rank fiber.
inline int gemm_parallelism() {
  return detail::t_host_share > 0 ? detail::t_host_share : configured_workers();
}

class WorkerPool {
 public:
  /// The process-wide pool. Threads are created lazily on first use.
  static WorkerPool& instance();

  /// Runs fn(0..n-1) to completion, fn(0) on the calling thread and each of
  /// fn(1..n-1) on a dedicated pool thread (the pool grows so that every
  /// concurrently outstanding exclusive task has a thread — required by the
  /// fiber scheduler, whose worker loops block on each other's progress).
  /// Rethrows the first exception after all n calls returned.
  void run_exclusive(int n, const std::function<void(int)>& fn);

  /// Runs fn(0..ntasks-1) with dynamic task claiming. The caller always
  /// participates, so completion never depends on pool threads being free;
  /// at most max_workers threads (caller included) claim tasks, which is how
  /// a GEMM inside a fiber keeps to its share of the host. Rethrows the
  /// first task exception after every task completed.
  void parallel_for(int ntasks, int max_workers,
                    const std::function<void(int)>& fn);

  /// Current pool thread count (grows on demand; for tests and telemetry).
  int threads() const;

 private:
  WorkerPool();
  ~WorkerPool();
  struct Impl;
  Impl* impl_;
};

/// Runs fn(begin, end) over disjoint chunks tiling [0, n), fanned out over
/// the worker pool with the gemm_parallelism() budget. Every chunk but the
/// last is a multiple of `grain` items, about n / (2 * budget) long (2x
/// oversplit for load balance) and at most max_chunk (rounded down to the
/// grain, never below it). Runs fn(0, n) inline when the budget is 1 or n is
/// under two grains. The partition depends on the budget, so callers keep
/// each item's floating-point sequence independent of it; then results are
/// bit-identical at every worker count.
template <typename Fn>
void parallel_chunks(std::int64_t n, std::int64_t grain, const Fn& fn,
                     std::int64_t max_chunk =
                         std::numeric_limits<std::int64_t>::max()) {
  const int budget = gemm_parallelism();
  if (budget <= 1 || n < 2 * grain) {
    if (n > 0) fn(std::int64_t{0}, n);
    return;
  }
  const std::int64_t target = (n + 2 * budget - 1) / (2 * budget);
  std::int64_t chunk = (target + grain - 1) / grain * grain;
  chunk = std::max(grain, std::min(chunk, max_chunk / grain * grain));
  const int nchunks = static_cast<int>((n + chunk - 1) / chunk);
  WorkerPool::instance().parallel_for(nchunks, budget, [&](int t) {
    const std::int64_t b = t * chunk;
    fn(b, std::min(n, b + chunk));
  });
}

}  // namespace tsr::rt
