"""Statistics and metric catalogue of the step benchmark.

Turns the raw document the stepbench binary writes (samples, counters,
spans) into the reported metrics. Kept free of I/O so test_stats.py can
check every rule on hand-made inputs.
"""

import statistics

# Unit suffixes a metric name may end in, and the unit each one means.
# `_per_s` precedes `_s`: "tokens_per_s" is a rate, not a time.
UNIT_SUFFIXES = (
    ("_per_s", "1/s"),
    ("_gflops", "GFLOP/s"),
    ("_mib", "MiB"),
    ("_ms", "ms"),
    ("_us", "us"),
    ("_s", "s"),
    ("_ratio", "ratio"),
    ("_frac", "frac"),
)

# Metrics whose names carry no unit suffix: counts (of events or bytes) and
# the training loss.
DECLARED_UNITS = {
    "train.loss_final": "nats",
    "comm.msgs_per_step": "count",
    "comm.bytes_per_step": "bytes",
    "comm.phantom_msgs_per_sweep": "count",
    "comm.phantom_bytes_per_sweep": "bytes",
    "runtime.resumes_per_step": "count",
    "runtime.cross_wakes_per_step": "count",
    "runtime.parks_per_step": "count",
    "runtime.resumes_per_sweep": "count",
    "runtime.cross_wakes_per_sweep": "count",
    "runtime.parks_per_sweep": "count",
    "perf.candidates": "count",
    "perf.pareto_size": "count",
}


def unit_of(name):
    """Unit of a metric, from its suffix or its declaration.

    Raises ValueError for a name that has neither, and for a declared name
    that also ends in a unit suffix (the two would disagree).
    """
    suffix_unit = next((u for s, u in UNIT_SUFFIXES if name.endswith(s)), None)
    if name in DECLARED_UNITS:
        if suffix_unit is not None:
            raise ValueError(f"{name}: declared unit and unit suffix both apply")
        return DECLARED_UNITS[name]
    if suffix_unit is None:
        raise ValueError(f"{name}: no unit suffix and not a declared count")
    return suffix_unit


def percentile(values, p):
    """p-th percentile with linear interpolation between closest ranks."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def highest_percentile(n, ladder=(50, 90, 99, 99.9)):
    """Highest percentile of `ladder` with at least 10 of n samples beyond it.

    None when even the lowest rung has fewer than 10 samples beyond it.
    """
    best = None
    for p in ladder:
        if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            best = p
    return best


def ratio(num, den):
    """num / den, and 0.0 when the denominator is 0 (nothing to divide)."""
    return num / den if den else 0.0


def _covered(intervals):
    """Total length of the union of [start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    covered by its children (overlapping children counted once).

    spans: rows [name, t0, t1, parent, rank, step]; parent indexes the row
    list or is -1. Returns a list aligned with `spans`.
    """
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out = []
    for i, s in enumerate(spans):
        t0, t1 = s[1], s[2]
        clipped = [
            (max(spans[c][1], t0), min(spans[c][2], t1))
            for c in children[i]
            if spans[c][2] > t0 and spans[c][1] < t1
        ]
        out.append((t1 - t0) - _covered(clipped))
    return out


def windowed_rate(step_s, units_per_step, window=10):
    """Units per second: the median over consecutive windows of `window`
    steps of the units the window processed over its wall time. Steps run
    back to back, so a window's wall time is the sum of its step times."""
    rates = [units_per_step * window / sum(step_s[i:i + window])
             for i in range(0, len(step_s) - window + 1, window)]
    if not rates:
        raise ValueError(f"{len(step_s)} steps are fewer than one window")
    return statistics.median(rates)


def span_metric(spans, selfs, name, use_self=True):
    """Median over steps of the slowest rank's time (ns) in spans `name`.

    None when no span of that name was recorded.
    """
    per_step = {}
    for s, self_ns in zip(spans, selfs):
        if s[0] == name:
            t = self_ns if use_self else s[2] - s[1]
            per_step[s[5]] = max(per_step.get(s[5], 0), t)
    if not per_step:
        return None
    return statistics.median(per_step.values())


# ---- Metric catalogue -------------------------------------------------------

END_TO_END = ("step_p50_ms", "tokens_per_s", "setup_s", "peak_rss_mib")

TESS = ("lm_tesseract",)

# Span metrics: name -> (span name, use self time, scale from ns, workloads
# that must have recorded it; None = a probe every traced run records).
_MS, _US, _S = 1e-6, 1e-3, 1e-9
SPAN_METRICS = {
    "train.forward_ms": ("train.forward", True, _MS, None),
    "train.loss_ms": ("train.loss", True, _MS, None),
    "train.backward_ms": ("train.backward", True, _MS, None),
    "train.optimizer_ms": ("train.optimizer", True, _MS, None),
    "train.step_barrier_wait_ms": ("train.barrier", True, _MS, TESS),
    "pdgemm.ab_ms": ("pdgemm.ab", True, _MS, None),
    "pdgemm.atb_ms": ("pdgemm.atb", True, _MS, None),
    "runtime.barrier_r8_us": ("runtime.barrier_r8", True, _US, None),
    "runtime.barrier_r64_us": ("runtime.barrier_r64", True, _US, None),
    "runtime.world_run_r64_ms": ("runtime.world_run_r64", True, _MS, None),
    "perf.table1_replay_s": ("perf.table1_sweep", False, _S, None),
    "perf.plan64_s": ("perf.plan64", False, _S, None),
}
for _layer in ("attention", "ffn", "layernorm", "head"):
    for _dir in ("fwd", "bwd"):
        SPAN_METRICS[f"nn.{_layer}.{_dir}_ms"] = (
            f"nn.{_layer}.{_dir}", True, _MS, None)
        if _layer != "head":
            SPAN_METRICS[f"parallel.{_layer}.{_dir}_ms"] = (
                f"parallel.{_layer}.{_dir}", True, _MS, None)
for _op in ("broadcast", "all_reduce", "all_gather", "reduce_scatter"):
    SPAN_METRICS[f"comm.{_op}_us"] = (f"comm.{_op}", True, _US, None)
TABLE1_CONFIGS = (
    "megatron_4", "megatron_16", "megatron_64",
    "optimus_2x2", "optimus_4x4", "optimus_8x8",
    "tesseract_2x2x1", "tesseract_2x2x2", "tesseract_4x4x1",
    "tesseract_4x4x2", "tesseract_4x4x4", "tesseract_8x8x1",
)
for _cfg in TABLE1_CONFIGS:
    SPAN_METRICS[f"perf.evaluate.{_cfg}_ms"] = (
        f"perf.evaluate.{_cfg}", True, _MS, None)

# Counters the binary reports under their metric names -> workloads that
# must report them.
COUNTER_METRICS = {
    "train.loss_final": None,
    "comm.msgs_per_step": TESS,
    "comm.bytes_per_step": TESS,
    "comm.phantom_msgs_per_sweep": None,
    "comm.phantom_bytes_per_sweep": None,
    "runtime.resumes_per_step": TESS,
    "runtime.cross_wakes_per_step": TESS,
    "runtime.parks_per_step": TESS,
    "runtime.resumes_per_sweep": None,
    "runtime.cross_wakes_per_sweep": None,
    "runtime.parks_per_sweep": None,
    "perf.candidates": None,
    "perf.pareto_size": None,
    "sim.step_s": TESS,
}

# Metrics computed from several sources below.
DERIVED_METRICS = (
    "step_p90_ms", "tensor.gemm_gflops", "tensor.gemm_local_gflops",
    "tensor.step_gflops", "tensor.gemm_efficiency_ratio",
    "tensor.scratch_reuse_ratio",
    "pdgemm.ab_gflops", "comm.pool_reuse_ratio",
    "runtime.worker_imbalance_ratio", "perf.score_candidate_p50_ms",
    "perf.score_candidate_max_ms", "bench.trace_overhead_frac",
)

PER_LAYER = tuple(SPAN_METRICS) + tuple(COUNTER_METRICS) + DERIVED_METRICS


def end_to_end(doc):
    """The end-to-end metrics of an untraced run."""
    steps = doc["step_s"]
    return {
        "step_p50_ms": percentile(steps, 50) * 1e3,
        "tokens_per_s": windowed_rate(steps, doc["tokens_per_step"]),
        "setup_s": statistics.median(doc["setup_s"]),
        "peak_rss_mib": doc["peak_rss_kib"] / 1024.0,
    }


def _required(workloads, workload):
    return workloads is None or workload in workloads


def step_p90_ms(steps):
    """p90 of the untraced step times, which needs 10 samples beyond it."""
    if (highest_percentile(len(steps)) or 0) < 90:
        raise ValueError(f"{len(steps)} timed steps are too few for a p90")
    return percentile(steps, 90) * 1e3


def per_layer(doc):
    """The per-layer metrics of a traced run.

    A workload-level metric of a layer the workload does not run (the
    messages and barrier wait of lm_serial) reads 0. A metric the
    workload does run but did not record raises KeyError.
    """
    workload = doc["workload"]
    spans = doc["spans"]
    selfs = self_times(spans)
    raw = doc["raw"]
    out = {}
    for name, (span, use_self, scale, workloads) in SPAN_METRICS.items():
        v = span_metric(spans, selfs, span, use_self)
        if v is None:
            if _required(workloads, workload):
                raise KeyError(f"{workload}: no '{span}' spans for {name}")
            v = 0.0
        out[name] = v * scale
    for name, workloads in COUNTER_METRICS.items():
        if name in doc["counters"]:
            out[name] = doc["counters"][name]
        elif _required(workloads, workload):
            raise KeyError(f"{workload}: counter {name} missing")
        else:
            out[name] = 0.0

    out["step_p90_ms"] = step_p90_ms(doc["step_s"])

    def gflops(flops, ns):
        return ratio(flops, ns)  # FLOP/ns == GFLOP/s

    out["tensor.gemm_gflops"] = gflops(
        raw["tensor.gemm.flops"], span_metric(spans, selfs, "tensor.gemm"))
    out["tensor.gemm_local_gflops"] = gflops(
        raw["tensor.gemm_local.flops"],
        span_metric(spans, selfs, "tensor.gemm_local"))
    out["pdgemm.ab_gflops"] = gflops(
        raw["pdgemm.ab.flops"], span_metric(spans, selfs, "pdgemm.ab"))
    step_ns = percentile(doc["step_s"], 50) * 1e9
    out["tensor.step_gflops"] = gflops(raw["lm_step_gemm_flops"], step_ns)
    out["tensor.gemm_efficiency_ratio"] = ratio(out["tensor.step_gflops"],
                                                out["tensor.gemm_gflops"])
    out["tensor.scratch_reuse_ratio"] = ratio(
        raw.get("gemm_scratch_reuses", 0), raw.get("gemm_scratch_acquires", 0))
    out["comm.pool_reuse_ratio"] = ratio(raw.get("pool_reuses", 0),
                                         raw.get("pool_acquires", 0))
    workers = raw.get("worker_resumes", [])
    out["runtime.worker_imbalance_ratio"] = ratio(
        max(workers, default=0), ratio(sum(workers), len(workers)))
    scores = [t for s, t in zip(spans, selfs) if s[0] == "perf.score_candidate"]
    out["perf.score_candidate_p50_ms"] = (
        statistics.median(scores) * _MS if scores else 0.0)
    out["perf.score_candidate_max_ms"] = max(scores, default=0) * _MS
    out["bench.trace_overhead_frac"] = (
        ratio(statistics.median(doc["traced_step_s"]),
              statistics.median(doc["step_s"])) - 1.0)
    return out
