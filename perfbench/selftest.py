"""Self-tests of the benchmark: span arithmetic, failure accounting and
agreement between BENCHMARK.json and the metrics the code reports.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import child  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402


def _span(id_, parent, op, start, end):
    return {"id": id_, "parent": parent, "op": op, "workload": "", "name": str(id_),
            "start": start, "end": end, "attrs": {}}


class SpanArithmetic(unittest.TestCase):
    def test_self_times_subtract_the_union_of_children(self):
        tree = [
            _span(0, None, 0, 0.0, 10.0),
            _span(1, 0, 0, 1.0, 4.0),
            _span(2, 1, 0, 2.0, 3.0),
            _span(3, 0, 0, 3.0, 6.0),  # overlaps span 1 by one second
            _span(4, 0, 0, 8.0, 9.5),
        ]
        got = spans.self_times(tree)
        self.assertEqual(got, {0: 3.5, 1: 2.0, 2: 1.0, 3: 3.0, 4: 1.5})
        self.assertEqual(spans.op_self_time_violations(tree), [])

    def test_a_child_outliving_its_op_is_a_violation(self):
        tree = [_span(0, None, 0, 0.0, 2.0), _span(1, 0, 0, 0.0, 5.0)]
        self.assertEqual(spans.self_times(tree)[0], 0.0)
        self.assertEqual(spans.op_self_time_violations(tree), [0])

    def test_tracer_links_parents_and_ops(self):
        tracer = spans.Tracer()
        with tracer.span("op"):
            with tracer.span("a"):
                with tracer.span("b"):
                    pass
        with tracer.span("op"):
            pass
        links = [(s["name"], s["parent"], s["op"]) for s in tracer.spans]
        self.assertEqual(links, [("op", None, 0), ("a", 0, 0), ("b", 1, 0), ("op", None, 3)])
        self.assertEqual(spans.op_self_time_violations(tracer.spans), [])


class FailureAccounting(unittest.TestCase):
    """A corrupted result must be counted as a failed operation."""

    @classmethod
    def setUpClass(cls):
        import photonstat

        cls.ps = photonstat
        cls.inp = wl.build_inputs(photonstat, wl.TA, seed=1)

    def setUp(self):
        (ROOT / ".bench_work").mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(dir=ROOT / ".bench_work"))
        self.ctx = wl.Ctx(self.ps, spans.NullTracer(), self.work)
        self.real_cycle_ops = wl.cycle_ops
        self.real_g2_tau = self.ps.g2_tau

    def tearDown(self):
        wl.cycle_ops = self.real_cycle_ops
        self.ps.g2_tau = self.real_g2_tau
        shutil.rmtree(self.work)

    def _run_small_thermal_op(self):
        n = 160_000
        arrivals = self.inp["arrivals"]
        head = arrivals[: arrivals.searchsorted(n * self.inp["dt"])]
        spec = self.inp["specs"][0]
        op = wl.Op("ta.small", lambda: wl.ta_op(self.ctx, self.inp, spec, 5, n, head))
        wl.cycle_ops = lambda *args: [op]
        _, ops = child.run_cycles(self.ctx, self.inp, wl.TA, 0, 1)
        return child._summary(ops)

    def test_correct_results_pass(self):
        summary = self._run_small_thermal_op()
        self.assertEqual((summary["attempted"], summary["failed"]), (1, 0), summary)

    def test_g2_scaled_by_1_5_is_counted_failed(self):
        real = self.real_g2_tau

        def corrupted(*args, **kwargs):
            est = real(*args, **kwargs)
            est.values = est.values * 1.5
            return est

        self.ps.g2_tau = corrupted
        summary = self._run_small_thermal_op()
        self.assertEqual((summary["attempted"], summary["failed"]), (1, 1))
        self.assertIn("g2(0)", summary["failures"][0])

    def test_an_exception_is_counted_failed(self):
        def broken(*args, **kwargs):
            raise ValueError("boom")

        self.ps.g2_tau = broken
        summary = self._run_small_thermal_op()
        self.assertEqual(summary["failed"], 1)
        self.assertIn("ValueError: boom", summary["failures"][0])


class BenchmarkFile(unittest.TestCase):
    def test_per_layer_metrics_match_the_code(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
        self.assertEqual(declared, [(n, u, b) for n, u, b, *_ in layers.METRICS])

    def test_workloads_match_the_code(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]), wl.WORKLOADS)
        self.assertEqual(
            [m["name"] for m in spec["end_to_end"]], ["setup_s", "wall_s", "peak_rss_mb"]
        )


if __name__ == "__main__":
    unittest.main()
