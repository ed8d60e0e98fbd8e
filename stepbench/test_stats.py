"""Tests of the step benchmark's statistics helpers and metric catalogue.

    python3 stepbench/test_stats.py
"""

import json
import unittest
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent


def span(name, t0, t1, parent=-1, rank=0, step=0):
    return [name, t0, t1, parent, rank, step]


class PercentileTest(unittest.TestCase):
    def test_highest_percentile_needs_ten_samples_beyond(self):
        self.assertIsNone(stats.highest_percentile(19))
        self.assertEqual(stats.highest_percentile(20), 50)
        self.assertEqual(stats.highest_percentile(99), 50)
        self.assertEqual(stats.highest_percentile(100), 90)
        self.assertEqual(stats.highest_percentile(999), 90)
        self.assertEqual(stats.highest_percentile(1000), 99)
        self.assertEqual(stats.highest_percentile(10000), 99.9)

    def test_percentile_interpolates(self):
        xs = [float(i) for i in range(1, 101)]  # 1..100
        self.assertAlmostEqual(stats.percentile(xs, 50), 50.5)
        self.assertAlmostEqual(stats.percentile(xs, 90), 90.1)
        self.assertEqual(stats.percentile([3.0], 90), 3.0)
        self.assertEqual(stats.percentile([4.0, 1.0, 2.0], 0), 1.0)
        self.assertEqual(stats.percentile([4.0, 1.0, 2.0], 100), 4.0)

    def test_p90_needs_a_hundred_steps(self):
        with self.assertRaises(ValueError):
            stats.step_p90_ms([0.1] * 99)
        self.assertAlmostEqual(stats.step_p90_ms([0.1] * 100), 100.0)


class RateTest(unittest.TestCase):
    def test_windowed_rate_is_the_median_window(self):
        # Windows of 2 steps: 1.0 s, 4.0 s and 2.0 s for 10 units each.
        steps = [0.5, 0.5, 2.0, 2.0, 1.0, 1.0, 9.0]  # the partial window is dropped
        self.assertEqual(stats.windowed_rate(steps, 5.0, window=2), 5.0)
        with self.assertRaises(ValueError):
            stats.windowed_rate([1.0], 5.0, window=2)


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(stats.self_times([span("a", 10, 25)]), [15])

    def test_disjoint_children_are_subtracted(self):
        spans = [span("p", 0, 100), span("c1", 10, 20, 0), span("c2", 50, 80, 0)]
        self.assertEqual(stats.self_times(spans), [60, 10, 30])

    def test_overlapping_children_count_once(self):
        # Children on other workers may overlap: [10, 40) and [30, 60)
        # cover 50 ns of the parent, not 60.
        spans = [span("p", 0, 100), span("c1", 10, 40, 0), span("c2", 30, 60, 0),
                 span("c3", 35, 38, 0)]
        self.assertEqual(stats.self_times(spans)[0], 50)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span("p", 0, 100), span("c", 90, 130, 0)]
        self.assertEqual(stats.self_times(spans)[0], 90)

    def test_grandchildren_do_not_count_against_the_grandparent(self):
        spans = [span("g", 0, 100), span("p", 0, 50, 0), span("c", 0, 50, 1)]
        self.assertEqual(stats.self_times(spans), [50, 0, 50])

    def test_span_metric_takes_slowest_rank_then_median_step(self):
        spans = [span("x", 0, 10, rank=0, step=0), span("x", 0, 30, rank=1, step=0),
                 span("x", 0, 20, rank=0, step=1), span("x", 0, 5, rank=1, step=1),
                 span("x", 0, 90, rank=0, step=2)]
        selfs = stats.self_times(spans)
        self.assertEqual(stats.span_metric(spans, selfs, "x"), 30)
        self.assertIsNone(stats.span_metric(spans, selfs, "y"))


class RatioTest(unittest.TestCase):
    def test_zero_denominator_reads_zero(self):
        self.assertEqual(stats.ratio(5, 0), 0.0)
        self.assertEqual(stats.ratio(0, 0), 0.0)
        self.assertEqual(stats.ratio(3, 4), 0.75)

    def test_ratio_metrics_without_work_read_zero(self):
        # A traced run without pool traffic, GEMM scratch or scheduler
        # workers: every reuse/imbalance ratio has a 0 denominator.
        names = [("tensor.gemm", 0, 100), ("tensor.gemm_local", 0, 100),
                 ("pdgemm.ab", 0, 100)]
        doc = {
            "workload": "lm_serial",
            "spans": [span(n, t0, t1, step=0) for n, t0, t1 in names],
            "raw": {"tensor.gemm.flops": 100, "tensor.gemm_local.flops": 100,
                    "pdgemm.ab.flops": 100, "lm_step_gemm_flops": 10,
                    "gemm_scratch_reuses": 0, "gemm_scratch_acquires": 0,
                    "worker_resumes": []},
            "counters": {n: 1.0 for n, w in stats.COUNTER_METRICS.items()
                         if w is None},
            "step_s": [1.0] * 100, "traced_step_s": [1.0],
        }
        for s in stats.SPAN_METRICS.values():
            if s[3] is None and s[0] not in {n for n, _, _ in names}:
                doc["spans"].append(span(s[0], 0, 1))
        out = stats.per_layer(doc)
        self.assertEqual(out["tensor.scratch_reuse_ratio"], 0.0)
        self.assertEqual(out["comm.pool_reuse_ratio"], 0.0)
        self.assertEqual(out["runtime.worker_imbalance_ratio"], 0.0)
        self.assertEqual(out["comm.msgs_per_step"], 0.0)
        self.assertEqual(out["tensor.gemm_gflops"], 1.0)
        self.assertEqual(out["bench.trace_overhead_frac"], 0.0)
        self.assertEqual(set(out), set(stats.PER_LAYER))

    def test_imbalance_is_max_over_mean(self):
        self.assertEqual(stats.ratio(max([2, 4, 6]), stats.ratio(12, 3)), 1.5)


class UnitTest(unittest.TestCase):
    def test_suffixes(self):
        self.assertEqual(stats.unit_of("step_p50_ms"), "ms")
        self.assertEqual(stats.unit_of("comm.broadcast_us"), "us")
        self.assertEqual(stats.unit_of("setup_s"), "s")
        self.assertEqual(stats.unit_of("tokens_per_s"), "1/s")
        self.assertEqual(stats.unit_of("peak_rss_mib"), "MiB")
        self.assertEqual(stats.unit_of("tensor.gemm_gflops"), "GFLOP/s")
        self.assertEqual(stats.unit_of("comm.pool_reuse_ratio"), "ratio")
        self.assertEqual(stats.unit_of("bench.trace_overhead_frac"), "frac")
        self.assertEqual(stats.unit_of("perf.candidates"), "count")

    def test_mismatched_names_are_rejected(self):
        for bad in ("step_ms_p50", "runtime.barrier_us.r8",
                    "perf.evaluate_ms.megatron_4", "tensor.gemm_efficiency",
                    "fwd_time"):
            with self.assertRaises(ValueError, msg=bad):
                stats.unit_of(bad)

    def test_declared_names_carry_no_suffix(self):
        for name in stats.DECLARED_UNITS:
            self.assertIsNone(
                next((s for s, _ in stats.UNIT_SUFFIXES if name.endswith(s)),
                     None), name)

    def test_catalogue_matches_benchmark_json(self):
        bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
        self.assertEqual(set(e2e), set(stats.END_TO_END))
        self.assertEqual(set(layers), set(stats.PER_LAYER))
        for name, unit in {**e2e, **layers}.items():
            self.assertEqual(stats.unit_of(name), unit, name)


if __name__ == "__main__":
    unittest.main()
