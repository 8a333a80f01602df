"""Tests for the benchmark's own arithmetic (perfbench/metrics.py).

    python3 -m unittest discover -s perfbench -v
"""

import json
import statistics
import unittest
from pathlib import Path

import metrics


def op(**fields):
    base = {"kind": "algo2", "client": 0, "seq": 1, "traced": False,
            "wall_ms": 100.0, "returned": True, "error": "",
            "in_band_frac": 1.0, "eps": 0.15, "alive_ok": True, "nodes": 10,
            "rounds": 50, "messages": 1000, "digest": "ab", "counters": {},
            "spans": []}
    base.update(fields)
    return base


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        q1, med, q3 = metrics.quartiles(values)
        want = statistics.quantiles(values, n=4)
        self.assertEqual((q1, med, q3), (want[0], 4.0, want[2]))

    def test_even_count_median(self):
        self.assertEqual(metrics.quartiles([1.0, 2.0, 3.0, 4.0])[1], 2.5)

    def test_single_value(self):
        self.assertEqual(metrics.quartiles([3.0]), (3.0, 3.0, 3.0))

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            metrics.quartiles([])

    def test_spread_is_iqr_over_median(self):
        values = [10.0, 10.0, 10.0, 10.0]
        self.assertEqual(metrics.spread(values), 0.0)
        q1, med, q3 = metrics.quartiles([8.0, 9.0, 10.0, 11.0, 12.0])
        self.assertAlmostEqual(metrics.spread([8.0, 9.0, 10.0, 11.0, 12.0]),
                               (q3 - q1) / med)


class SelfTimeTest(unittest.TestCase):
    def test_children_subtracted(self):
        spans = [["op", -1, 0.0, 1000.0],
                 ["a", 0, 100.0, 400.0],
                 ["b", 0, 500.0, 900.0]]
        self.assertEqual(metrics.self_time_us(spans, 0), 300.0)
        self.assertEqual(metrics.unattributed_ms(spans), 0.3)

    def test_overlapping_children_counted_once(self):
        spans = [["op", -1, 0.0, 1000.0],
                 ["a", 0, 100.0, 600.0],
                 ["b", 0, 400.0, 700.0]]
        self.assertEqual(metrics.self_time_us(spans, 0), 400.0)

    def test_child_clipped_to_parent(self):
        spans = [["op", -1, 100.0, 200.0], ["a", 0, 50.0, 150.0]]
        self.assertEqual(metrics.self_time_us(spans, 0), 50.0)

    def test_grandchildren_do_not_count_twice(self):
        spans = [["op", -1, 0.0, 100.0],
                 ["a", 0, 0.0, 60.0],
                 ["a.inner", 1, 10.0, 50.0]]
        self.assertEqual(metrics.self_time_us(spans, 0), 40.0)
        self.assertEqual(metrics.self_time_us(spans, 1), 20.0)

    def test_layer_ms_sums_by_name(self):
        spans = [["op", -1, 0.0, 5000.0],
                 ["graph.g_pass", 0, 0.0, 1000.0],
                 ["graph.g_pass", 0, 2000.0, 2500.0]]
        self.assertEqual(metrics.layer_ms(spans), {"graph.g_pass": 1.5})


class ResidualTest(unittest.TestCase):
    def test_phases_is_run_minus_setup_and_verifier(self):
        layers = {"protocols.run": 50.0, "protocols.setup": 30.0,
                  "protocols.verifier": 5.0}
        self.assertEqual(metrics.phases_ms(layers), 15.0)

    def test_midrun_is_the_run_of_a_churn_epoch(self):
        layers = {"dynamics.midrun": 40.0, "protocols.setup": 10.0,
                  "protocols.verifier": 2.0}
        self.assertEqual(metrics.run_ms(layers), 40.0)
        self.assertEqual(metrics.phases_ms(layers), 28.0)

    def test_no_run_no_residual(self):
        self.assertIsNone(metrics.phases_ms({"protocols.brc_run": 9.0}))


class OutputCheckTest(unittest.TestCase):
    def test_declared_bound(self):
        self.assertTrue(metrics.op_passed(op(in_band_frac=0.85, eps=0.15)))
        self.assertTrue(metrics.op_passed(op(in_band_frac=0.93, eps=0.08)))
        self.assertFalse(metrics.op_passed(op(in_band_frac=0.84, eps=0.15)))
        self.assertFalse(metrics.op_passed(op(in_band_frac=0.91, eps=0.08)))

    def test_thrown_or_diverged_ops_fail(self):
        self.assertFalse(metrics.op_passed(op(returned=False)))
        self.assertFalse(metrics.op_passed(op(alive_ok=False)))

    def test_fail_accounting(self):
        ops = [op(), op(returned=False), op(in_band_frac=0.5), op()]
        self.assertEqual(metrics.fail_count(ops), 2)
        self.assertEqual(metrics.pass_frac(ops), 0.5)
        self.assertEqual(metrics.pass_frac([op(), op()]), 1.0)


def records(ops, batches=None, setups=None, prefix=2):
    return {"ops": ops, "prefix_ops": prefix, "loop_wall_s": 2.0,
            "peak_rss_kb": 2048,
            "setups": setups or [{"wall_s": s, "counters": {}, "spans": []}
                                 for s in (0.3, 0.1, 0.2)],
            "batches": batches or [{"wall_ms": o["wall_ms"], "jobs": 1,
                                    "traced": o["traced"], "ops": 1}
                                   for o in ops]}


class EndToEndTest(unittest.TestCase):
    def test_metrics(self):
        ops = [op(wall_ms=10.0, rounds=40, messages=100, in_band_frac=0.9),
               op(wall_ms=30.0, rounds=60, messages=300, in_band_frac=1.0),
               op(wall_ms=20.0, rounds=99, returned=False)]
        got = metrics.end_to_end(records(ops))
        self.assertEqual(set(got), set(metrics.END_TO_END))
        self.assertEqual(got["op_ms_p50"], 20.0)  # returned ops only
        self.assertEqual(got["ops_per_s"], 1.0)
        self.assertEqual(got["setup_s"], 0.2)
        self.assertEqual(got["peak_rss_mb"], 2.0)
        # Deterministic metrics cover the first prefix_ops ops only.
        self.assertEqual(got["rounds_per_op"], 50.0)
        self.assertEqual(got["msgs_per_node"], 20.0)
        self.assertAlmostEqual(got["in_band_frac"], 0.95)
        self.assertAlmostEqual(got["pass_frac"], 2.0 / 3.0)


class PerLayerTest(unittest.TestCase):
    def test_metrics(self):
        traced = op(traced=True, wall_ms=1.0, spans=[
            ["op", -1, 0.0, 1000.0],
            ["protocols.setup", 0, 0.0, 300.0],
            ["protocols.verifier", 0, 300.0, 400.0],
            ["protocols.run", 0, 400.0, 900.0],
            ["protocols.refine", 0, 900.0, 950.0]],
            counters={"protocols.crashes": 4.0})
        ops = [op(wall_ms=0.9, seq=0), traced, op(wall_ms=0.5, seq=2)]
        setups = [{"wall_s": 1.0, "counters": {"graph.overlay_mb": 7.0},
                   "spans": [["setup", -1, 0.0, 9.0],
                             ["graph.g_pass", 0, 0.0, 2000.0]]}]
        batches = [{"wall_ms": 2.5, "jobs": 1, "traced": True, "ops": 3}]
        got = metrics.per_layer(records(ops, batches=batches, setups=setups))
        self.assertEqual(set(got), set(metrics.PER_LAYER))
        self.assertEqual(got["protocols.setup_ms"], 0.3)
        self.assertEqual(got["protocols.run_ms"], 0.5)
        self.assertAlmostEqual(got["protocols.phases_ms"], 0.1)
        self.assertEqual(got["protocols.crashes"], 4.0)
        # Set-up-only layers report their set-up calls.
        self.assertEqual(got["graph.g_pass_ms"], 2.0)
        self.assertEqual(got["graph.overlay_mb"], 7.0)
        self.assertEqual(got["protocols.brc_run_ms"], 0.0)
        self.assertAlmostEqual(got["unattributed_ms"], 0.05)
        self.assertAlmostEqual(got["unattributed_frac"], 0.05)
        # Probes are subtracted; the warm-up op is not an untraced sample.
        self.assertAlmostEqual(got["trace_overhead_ms"], 0.6 - 0.5)
        self.assertAlmostEqual(got["bench_core.busy_frac"], 2.4 / 2.5)

    def test_busy_frac_counts_traced_batches_only(self):
        ops = [op(wall_ms=9.0), op(wall_ms=9.0)] + [
            op(traced=True, wall_ms=w) for w in (4.0, 2.0)]
        batches = [{"wall_ms": 9.0, "jobs": 2, "traced": False, "ops": 2},
                   {"wall_ms": 4.0, "jobs": 2, "traced": True, "ops": 2}]
        got = metrics.per_layer(records(ops, batches=batches))
        self.assertEqual(got["bench_core.busy_frac"], 0.75)


class ManifestTest(unittest.TestCase):
    def test_units_match_benchmark_json(self):
        path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
        bench = json.loads(path.read_text())
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         metrics.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         metrics.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
