"""Tests of run.py's result parsing and compare mode.

    python3 -m unittest discover -s e2e_bench -p 'test_*.py'
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def record(workload, trace, **metrics):
    return {
        "workload": workload, "trace": trace, "label": "t", "host_cpus": 2, "threads": 2,
        "rustc": "rustc", "git_rev": "r",
        "result": {"correct": True, "attempted": 1, "failed": 0,
                   "metrics": {k: {"value": v, "unit": "u"} for k, v in metrics.items()}},
    }


class VerdictTest(unittest.TestCase):
    def test_within_bound_is_unchanged(self):
        base = [100, 101, 99, 100, 102]
        self.assertEqual(run.verdict(base, [101, 100, 102, 99, 100], "higher", 0.1), "unchanged")

    def test_worse_beyond_bound(self):
        base = [100, 101, 99, 100, 102, 98]
        self.assertEqual(run.verdict(base, [80, 81, 79, 82, 80, 101], "higher", 0.1), "worse")
        self.assertEqual(run.verdict(base, [120, 121, 119, 122, 120, 99], "lower", 0.1), "worse")

    def test_every_run_better_is_better(self):
        self.assertEqual(run.verdict([100, 101, 99], [90, 91, 89], "lower", 0.05), "better")

    def test_wide_spread_is_unresolved(self):
        base = [50, 100, 150, 100, 60, 140]
        self.assertEqual(run.verdict(base, [60, 110, 150, 90, 55, 145], "lower", 0.1),
                         "unresolved")

    def test_no_bound_is_not_judged(self):
        self.assertEqual(run.verdict([1, 2], [3, 4], "lower", None), "n/a")


class CompareTest(unittest.TestCase):
    def test_rows_per_workload_and_metric(self):
        spec = {
            "workloads": [{"name": "a", "why": "."}, {"name": "b", "why": "."}],
            "end_to_end": [{"name": "ops_per_s", "unit": "1/s", "better": "higher",
                            "bound": 0.1}],
            "per_layer": [{"name": "x.ns", "unit": "ns", "better": "lower"}],
        }
        base = [record("a", 0, ops_per_s=v) for v in (100, 101, 99, 100)]
        base += [record("a", 1, **{"x.ns": 5})]
        change = [record("a", 0, ops_per_s=v) for v in (70, 71, 69, 70)]
        rows = run.compare_rows(spec, base, change)
        self.assertEqual([(r["workload"], r["metric"], r["verdict"]) for r in rows],
                         [("a", "ops_per_s", "worse"), ("a", "x.ns", "n/a")])


class ResultLineTest(unittest.TestCase):
    def test_exact_keys(self):
        ok = {"correct": True, "attempted": 3, "failed": 0, "metrics": {}}
        self.assertEqual(run.parse_result(json.dumps(ok)), ok)
        self.assertIsNone(run.parse_result(json.dumps(dict(ok, extra=1))))
        self.assertIsNone(run.parse_result("not json"))


if __name__ == "__main__":
    unittest.main()
