#!/usr/bin/env python3
"""Unit tests for bench_compare.py's per-unit comparison directions.

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


if __name__ == "__main__":
    unittest.main()
