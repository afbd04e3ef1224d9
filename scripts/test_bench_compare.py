#!/usr/bin/env python3
"""Unit tests for bench_compare.py: per-unit comparison directions and the
pair gate's median and single-run paths.

Run with: python3 -m unittest discover -s scripts -p 'test_*.py'
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "bench_compare.py")


class BenchCompareDirectionTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def artifact(self, value, unit):
        """A one-entry BenchJsonLog artifact."""
        fd, path = tempfile.mkstemp(suffix=".json", dir=self.tmp.name)
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            json.dump({"bench": "t", "entries": [
                {"name": "row", "value": value, "unit": unit}]}, f)
        return path

    def compare(self, unit, base, fresh):
        """Exit status of comparing one entry `base` -> `fresh` at the
        default 15% threshold."""
        return subprocess.run(
            [sys.executable, SCRIPT, self.artifact(base, unit),
             self.artifact(fresh, unit)],
            capture_output=True, text=True).returncode

    def test_lower_is_better_units(self):
        for unit in ("mape", "ratio", "us", "ms"):
            with self.subTest(unit=unit):
                self.assertEqual(self.compare(unit, 10.0, 20.0), 1)
                self.assertEqual(self.compare(unit, 10.0, 5.0), 0)

    def test_higher_is_better_units(self):
        for unit in ("rho", "acc", "graphs/s", "cand/s"):
            with self.subTest(unit=unit):
                self.assertEqual(self.compare(unit, 0.8, 0.4), 1)
                self.assertEqual(self.compare(unit, 0.4, 0.8), 0)

    def test_unknown_unit_is_a_parse_error(self):
        self.assertEqual(self.compare("furlongs", 1.0, 1.0), 2)


class BenchComparePairTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def pair(self, records):
        """Exit status of the 5% pair gate over a google-benchmark artifact
        holding `records`."""
        path = os.path.join(self.tmp.name, "pair.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"benchmarks": records}, f)
        return subprocess.run(
            [sys.executable, SCRIPT, "--pair", path, "--pair-a", "BM_A/",
             "--pair-b", "BM_AObs/", "--threshold=0.05"],
            capture_output=True, text=True).returncode

    @staticmethod
    def repetitions(family, times, median):
        """One iteration record per repetition plus the median aggregate,
        as bench_micro --benchmark_repetitions writes them."""
        name = f"{family}/0/1/real_time"
        records = [{"name": name, "run_name": name, "run_type": "iteration",
                    "repetition_index": i, "cpu_time": t}
                   for i, t in enumerate(times)]
        records.append({"name": name + "_median", "run_name": name,
                        "run_type": "aggregate", "aggregate_name": "median",
                        "cpu_time": median})
        return records

    def test_median_aggregates_gate_the_pair(self):
        # The last B repetition doubles (a burst of host load); the
        # medians put the overhead at 3%, within the 5% bound.
        noisy = (self.repetitions("BM_A", [100.0, 101.0, 99.0], 100.0) +
                 self.repetitions("BM_AObs", [103.0, 102.0, 200.0], 103.0))
        self.assertEqual(self.pair(noisy), 0)
        # Medians 10% apart fail however the single runs fall.
        slow = (self.repetitions("BM_A", [100.0, 100.0, 120.0], 100.0) +
                self.repetitions("BM_AObs", [110.0, 110.0, 100.0], 110.0))
        self.assertEqual(self.pair(slow), 1)

    def test_single_runs_without_aggregates(self):
        runs = [{"name": "BM_A/0/1/real_time", "run_type": "iteration",
                 "cpu_time": 100.0},
                {"name": "BM_AObs/0/1/real_time", "run_type": "iteration",
                 "cpu_time": 104.0}]
        self.assertEqual(self.pair(runs), 0)
        runs[1]["cpu_time"] = 110.0
        self.assertEqual(self.pair(runs), 1)


if __name__ == "__main__":
    unittest.main()
