"""Self-test of the benchmark harness.

    python3 bench/selftest.py

Checks that call lists are a function of the seed, that BENCHMARK.json
names the metrics the harness prints, and that every workload runs once
at a tiny size, end to end and traced, with its outcomes judged.
"""

import json
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from check import Checker  # noqa: E402
from workloads import WORKLOADS, calls, calls_per_pass  # noqa: E402


class SeededCallLists(unittest.TestCase):
    def test_same_seed_same_argv(self):
        for workload in WORKLOADS:
            first = [c.argv for c in calls(workload, 11)]
            self.assertEqual(first, [c.argv for c in calls(workload, 11)])
            self.assertNotEqual(first, [c.argv for c in calls(workload, 12)])

    def test_pass_length_does_not_depend_on_seed(self):
        for workload in WORKLOADS:
            self.assertEqual(len(calls(workload, 3)), calls_per_pass(workload))

    def test_tail_has_ten_calls_beyond(self):
        for workload in WORKLOADS:
            self.assertGreaterEqual(calls_per_pass(workload), 2 * run.TAIL_BEYOND)


class Manifest(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        manifest = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in manifest["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in manifest["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual([w["name"] for w in manifest["workloads"]], list(WORKLOADS))


class TinyRuns(unittest.TestCase):
    def check_result(self, result, names):
        line = run.report("tiny", 0, result)
        self.assertEqual(set(line["metrics"]), set(names))
        self.assertGreaterEqual(line["attempted"], 1)
        self.assertEqual(line["failed"], 0, result["verdicts"])
        self.assertTrue(line["correct"])

    def test_end_to_end(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                tiny = calls(workload, 5, size="tiny")
                self.check_result(run.run_end_to_end(tiny, 0.0, Checker()), run.END_TO_END)

    def test_traced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                tiny = calls(workload, 5, size="tiny")
                dump = BENCH / "out" / f"selftest-{workload}.json"
                result = run.run_traced(tiny, Checker(), dump)
                self.check_result(result, run.PER_LAYER)
                self.assertGreater(result["metrics"]["trace.wall_s"], 0.0)
                self.assertGreaterEqual(result["metrics"]["trace.unattributed_s"], 0.0)


if __name__ == "__main__":
    unittest.main()
