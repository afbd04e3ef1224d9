"""Tests of the benchmark's own logic (no build needed).

    python3 -m unittest discover -s perfbench/tests
"""

import json
import math
import sys
import tempfile
import unittest
from pathlib import Path

PKG = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(PKG))
import benchlib  # noqa: E402
import compare  # noqa: E402
import summarize  # noqa: E402


class ScheduleTest(unittest.TestCase):
    def test_same_seed_same_schedule(self):
        a = benchlib.make_schedule(7, 2000, 3.0, 4, 256)
        b = benchlib.make_schedule(7, 2000, 3.0, 4, 256)
        self.assertEqual(a, b)

    def test_seeds_differ(self):
        a = benchlib.make_schedule(7, 2000, 3.0, 4, 256)
        b = benchlib.make_schedule(8, 2000, 3.0, 4, 256)
        self.assertNotEqual(a, b)

    def test_rate_is_absolute(self):
        s = benchlib.make_schedule(3, 2000, 5.0, 4, 256)
        self.assertAlmostEqual(len(s) / 5.0, 2000, delta=100)
        dues = [d for d, _, _ in s]
        self.assertEqual(dues, sorted(dues))
        self.assertLess(dues[-1], 5_000_000)
        self.assertTrue(all(0 <= m < 4 and 0 <= p < 256 for _, m, p in s))

    def test_written_format(self):
        s = benchlib.make_schedule(1, 100, 0.1, 4, 8)
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "s.txt"
            benchlib.write_schedule(path, s)
            lines = path.read_text().splitlines()
        self.assertEqual(lines[0], f"nominal {len(s)}")
        self.assertEqual(len(lines), len(s) + 1)
        self.assertEqual(lines[1], " ".join(str(x) for x in s[0]))


class RunnerFlagsTest(unittest.TestCase):
    def test_every_setting_passed_once(self):
        import run
        cfg = benchlib.load_json(PKG / "workloads.json")
        with tempfile.TemporaryDirectory() as d:
            for workload, _ in benchlib.WORKLOADS:
                flags = run.runner_flags(cfg, workload, 5, 20, Path(d))
                names = [f.split("=", 1)[0] for f in flags]
                self.assertEqual(len(names), len(set(names)))
                self.assertIn(
                    f"--corpus-seed={cfg[workload]['corpus_seed']}", flags)
                sv = cfg["serving"]
                self.assertIn(f"--pool-size={sv['pool_size']}", flags)
                self.assertIn(f"--pool-seed={sv['pool_seed']}", flags)
                self.assertIn(f"--limit-ms={sv['limit_ms']}", flags)
                schedule = Path(flags[names.index("--schedule")]
                                .split("=", 1)[1]).read_text().splitlines()
                picks = [int(line.split()[2]) for line in schedule[1:]]
                self.assertTrue(all(0 <= p < sv["pool_size"] for p in picks))

    def test_pool_seeds_disjoint_from_corpora(self):
        cfg = benchlib.load_json(PKG / "workloads.json")
        pool = cfg["serving"]["pool_seed"]
        for workload, _ in benchlib.WORKLOADS:
            # Corpora use seeds corpus_seed + i for far fewer than 10^5
            # graphs.
            self.assertGreater(abs(pool - cfg[workload]["corpus_seed"]),
                               100_000)


class PercentileRuleTest(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertAlmostEqual(benchlib.tail_percentile(10000), 99.9)
        self.assertAlmostEqual(benchlib.tail_percentile(1000), 99.0)
        self.assertAlmostEqual(benchlib.tail_percentile(100), 90.0)
        self.assertAlmostEqual(benchlib.tail_percentile(40), 75.0)
        self.assertAlmostEqual(benchlib.tail_percentile(20), 50.0)
        self.assertIsNone(benchlib.tail_percentile(19))

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(benchlib.percentile(values, 50), 50)
        self.assertEqual(benchlib.percentile(values, 99), 99)
        self.assertEqual(benchlib.percentile(values, 100), 100)
        self.assertEqual(benchlib.percentile([5], 99), 5)

    def test_tail_leaves_ten_samples_beyond(self):
        p, v = benchlib.tail(list(range(1, 101)))
        self.assertAlmostEqual(p, 90.0)
        self.assertEqual(v, 90)
        self.assertEqual(sum(x > v for x in range(1, 101)), 10)
        p, v = benchlib.tail(list(range(1000, 0, -1)))
        self.assertAlmostEqual(p, 99.0)
        self.assertEqual(v, 990)

    def test_tail_falls_back_to_median(self):
        self.assertEqual(benchlib.tail(list(range(1, 12))), (50.0, 6))

    def test_relative_spread(self):
        # statistics.quantiles (exclusive): quartiles 1.5 and 4.5.
        self.assertAlmostEqual(benchlib.relative_spread([1, 2, 3, 4, 5]), 1.0)
        self.assertEqual(benchlib.relative_spread([2.0, 2.0]), 0.0)


class AdrsTest(unittest.TestCase):
    def test_identical_fronts(self):
        front = [(1.0, 4.0), (2.0, 2.0), (4.0, 1.0)]
        self.assertEqual(benchlib.adrs(front, front), 0.0)

    def test_hand_computed(self):
        exact = [(1.0, 4.0), (2.0, 2.0), (4.0, 1.0)]
        approx = [(2.0, 4.0), (4.0, 1.0)]
        # (1,4): min(max(1, 0), max(3, 0)) = 1; (2,2): min(1, 1) = 1;
        # (4,1): 0.  Mean 2/3.
        self.assertAlmostEqual(benchlib.adrs(exact, approx), 2.0 / 3.0)

    def test_single_point(self):
        self.assertAlmostEqual(benchlib.adrs([(10.0, 20.0)], [(15.0, 22.0)]),
                               0.5)

    def test_dominating_approximation_costs_nothing(self):
        self.assertEqual(benchlib.adrs([(10.0, 20.0)], [(9.0, 19.0)]), 0.0)

    def test_zero_coordinate_divides_by_one(self):
        self.assertAlmostEqual(benchlib.adrs([(0.0, 1.0)], [(2.0, 1.0)]), 2.0)


class HistogramTest(unittest.TestCase):
    @staticmethod
    def lines(counts):
        bounds = ["1", "2", "4", "8", "+Inf"]
        return [f'gnnhls_sched_queue_wait_us_bucket{{sched="1",le="{b}"}} {c}'
                for b, c in zip(bounds, counts)]

    def test_interpolates_inside_bucket(self):
        after = self.lines([0, 0, 10, 20, 20])
        # 20 samples: p50 is the 10th, the top of the (2, 4] bucket.
        self.assertAlmostEqual(
            benchlib.histogram_percentile([], after, 50), 4.0)
        # p75 is the 15th: halfway through the (4, 8] bucket.
        self.assertAlmostEqual(
            benchlib.histogram_percentile([], after, 75), 6.0)

    def test_counts_only_between_scrapes(self):
        before = self.lines([5, 5, 5, 5, 5])
        after = self.lines([5, 5, 5, 15, 15])
        self.assertAlmostEqual(
            benchlib.histogram_percentile(before, after, 50), 6.0)

    def test_overflow_reports_last_bound(self):
        after = self.lines([0, 0, 0, 0, 4])
        self.assertEqual(benchlib.histogram_percentile([], after, 99), 8.0)


class NamesAndSchemaTest(unittest.TestCase):
    def test_names(self):
        names = ([n for n, _ in benchlib.WORKLOADS]
                 + [n for n, *_ in benchlib.END_TO_END]
                 + [n for n, *_ in benchlib.PER_LAYER])
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")
            self.assertRegex(name, benchlib.NAME_RE)
        self.assertEqual(len(names), len(set(names)))
        for _, unit, *_ in benchlib.END_TO_END + benchlib.PER_LAYER:
            self.assertRegex(unit, benchlib.UNIT_RE)

    def test_benchmark_json_is_generated_document(self):
        with open(PKG.parent / "BENCHMARK.json") as f:
            doc = json.load(f)
        self.assertEqual(doc, benchlib.benchmark_document())

    def test_benchmark_json_schema(self):
        doc = benchlib.benchmark_document()
        self.assertEqual(set(doc), {"command", "paths", "run_seconds",
                                    "workloads", "end_to_end", "per_layer"})
        self.assertLessEqual(len(doc["command"]), 32)
        for arg in doc["command"]:
            self.assertLessEqual(len(arg), 200)
            self.assertFalse(arg.startswith("/") or ".." in arg)
        self.assertTrue(1 <= len(doc["paths"]) <= 16)
        for p in doc["paths"]:
            self.assertRegex(p, r"^[A-Za-z0-9_./-]{1,200}$")
            self.assertTrue((PKG.parent / p).is_dir())
        self.assertIsInstance(doc["run_seconds"], int)
        self.assertTrue(1 <= doc["run_seconds"] <= 60)
        self.assertTrue(2 <= len(doc["workloads"]) <= 8)
        for w in doc["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        self.assertTrue(1 <= len(doc["end_to_end"]) <= 16)
        for m in doc["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertIn(m["better"], ("lower", "higher"))
            self.assertTrue(0 < m["bound"] <= 0.25)
        setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup, [{"name": "setup_s", "unit": "s",
                                  "better": "lower", "bound": max(
                                      m["bound"] for m in doc["end_to_end"])}])
        self.assertTrue(1 <= len(doc["per_layer"]) <= 128)
        for m in doc["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        self.assertLess(len(json.dumps(doc)), 64 * 1024)

    def test_every_workload_has_meanings(self):
        for name, _ in benchlib.WORKLOADS:
            self.assertIn(name, benchlib.METRIC_MEANING)


class CompareTest(unittest.TestCase):
    @staticmethod
    def result(value, **record):
        rec = {"nproc": 4, "cpu_model": "x", "build_type": "Release",
               "compiler": "g++", "cxx_flags": "-O3", "gnnhls_simd": "OFF",
               "git_commit": None, "source_digest": "d"}
        rec.update(record)
        return {"workload": "fit", "trace": 0, "record": rec,
                "end_to_end": {"quality_loss": 0.5},
                "metrics": {"latency_p50_ms": {"value": value, "unit": "ms"}}}

    def test_refuses_different_hosts(self):
        code, lines = compare.compare([self.result(1.0)],
                                      [self.result(1.0, nproc=8)])
        self.assertEqual(code, 2)
        self.assertIn("nproc", lines[0])

    def test_commit_may_differ(self):
        code, lines = compare.compare(
            [self.result(1.0)], [self.result(1.3, source_digest="e")])
        self.assertEqual(code, 0)
        self.assertIn("WORSE", lines[1])

    def test_same_sources_need_same_quality(self):
        other = self.result(1.0)
        other["end_to_end"] = {"quality_loss": 0.6}
        code, _ = compare.compare([self.result(1.0)], [other])
        self.assertEqual(code, 1)


class SummarizeTest(unittest.TestCase):
    def test_self_time_and_phase_rows(self):
        spans = [
            {"name": "dse.explore", "ts": 0.0, "dur": 100.0, "tid": 0, "n": 1},
            {"name": "dse.lower", "ts": 10.0, "dur": 20.0, "tid": 0, "n": 1},
            {"name": "dse.score", "ts": 40.0, "dur": 30.0, "tid": 0, "n": 8},
            {"name": "dse.score", "ts": 5.0, "dur": 50.0, "tid": 1, "n": 4},
        ]
        summarize.attach_children(spans)
        stats = summarize.span_stats(spans)
        self.assertEqual(stats["dse.explore"]["self_us"], 50.0)
        self.assertEqual(stats["dse.score"]["count"], 2)
        self.assertEqual(stats["dse.score"]["n"], 12)
        self.assertIsNone(stats["dse.score"]["p99_us"])
        self.assertEqual(summarize.phase_rows(spans)["dse.explore"],
                         (100.0, 50.0, 50.0))


if __name__ == "__main__":
    unittest.main()
