"""Self-test of the benchmark, run from the root of a checkout:

    python3 perfbench/selftest.py

Runs every workload at its smallest size (one block of cases, one set-up),
untraced and traced, and checks that each metric BENCHMARK.json names is
printed with its unit, and that a traced run writes out well-formed spans
that agree with its call counts.  Then it breaks an invariant, and separately raises an
unexpected error inside one case, and checks that those cases are counted as
failed, with what it takes to replay them, instead of being dropped.
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import qdlab.homology as H  # noqa: E402
import run as bench  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def smallest(workload, trace):
    return bench.run(workload, seed=1, seconds=0, trace=trace, setup_reps=1,
                     import_reps=1)


class MetricsTest(unittest.TestCase):
    def test_every_named_metric_is_printed_with_its_unit(self):
        wanted = {
            0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
            1: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
        }
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace, want in wanted.items():
                with self.subTest(workload=workload, trace=trace):
                    result, report = smallest(workload, trace)
                    self.assertTrue(result["correct"], report["failures"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, m in result["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)
                    json.dumps(result, allow_nan=False)


class SpansTest(unittest.TestCase):
    def test_traced_run_writes_its_spans(self):
        path = bench.SPANS_DIR / "selftest.jsonl"
        try:
            result, report = bench.run("deform_certify", seed=1, seconds=0,
                                       trace=1, setup_reps=1, import_reps=1,
                                       spans_out=path)
            spans = [json.loads(line) for line in path.read_text().splitlines()]
        finally:
            path.unlink(missing_ok=True)
        self.assertEqual(len(spans), result["metrics"]["trace.spans"]["value"])
        calls = {}
        for k, span in enumerate(spans):
            self.assertEqual(span["id"], k)
            self.assertLessEqual(span["start"], span["end"])
            if span["parent"] >= 0:
                parent = spans[span["parent"]]
                self.assertLess(span["parent"], k)
                self.assertEqual(parent["case"], span["case"])
                self.assertLessEqual(parent["start"], span["start"])
                self.assertLessEqual(span["end"], parent["end"])
            calls[span["name"]] = calls.get(span["name"], 0) + 1
        for name in ("homology.homology_data", "delaunay.is_delaunay"):
            self.assertGreater(calls[name], 0)
            self.assertEqual(calls[name],
                             result["metrics"][f"{name}.calls"]["value"])


class FailureTest(unittest.TestCase):
    def _with(self, attr, replacement, workload):
        real = getattr(H, attr)
        setattr(H, attr, replacement(real))
        try:
            return smallest(workload, 0)
        finally:
            setattr(H, attr, real)

    def _assert_replayable(self, failure, workload):
        self.assertEqual(failure["workload"], workload)
        self.assertEqual(failure["seed"], 1)
        self.assertIn(failure["label"], bench_labels())
        self.assertIn(f"--case {failure['case']}", failure["replay"])

    def test_broken_invariant_counts_as_failed(self):
        # i*wedge(u, conj u) = 4*area no longer holds on any surface
        result, report = self._with(
            "wedge", lambda real: lambda h, x, y: real(h, x, y) + 1,
            "homology_fresh")
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertEqual(report["failed_frac"], 1.0)
        for failure in report["failures"]:
            self._assert_replayable(failure, "homology_fresh")
            self.assertIn("4*area", failure["reason"])

    def test_unexpected_error_counts_as_failed(self):
        calls = []

        def flaky(real):
            def homology_data(cover):
                calls.append(cover)
                if len(calls) == 2:
                    raise RuntimeError("injected")
                return real(cover)
            return homology_data

        result, report = self._with("homology_data", flaky, "homology_fresh")
        self.assertFalse(result["correct"])
        self.assertEqual(result["attempted"], len(calls))
        self.assertEqual(result["failed"], 1)
        self.assertEqual(report["failed_frac"], 1 / len(calls))
        failure, = report["failures"]
        self._assert_replayable(failure, "homology_fresh")
        self.assertEqual(failure["case"], 1)
        self.assertIn("RuntimeError: injected", failure["reason"])


def bench_labels():
    from workloads import SCENARIO_LABEL, SURFACES
    return SURFACES + (SCENARIO_LABEL,)


if __name__ == "__main__":
    unittest.main()
