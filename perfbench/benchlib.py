"""Pure helpers of the repository benchmark: metric definitions, statistics,
traffic schedules, ADRS, histogram percentiles and host/build records.

Nothing here runs the program; run.py does. Everything here is covered by
tests/test_perfbench.py.
"""

import hashlib
import json
import math
import os
import random
import re
import statistics
import subprocess
from pathlib import Path

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# (name, unit, better, bound). The end-to-end metrics are defined for every
# workload; what "one unit of work" means per workload is in METRIC_MEANING.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("throughput_per_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_tail_ms", "ms", "lower", 0.25),
    ("quality_loss", "ratio", "lower", 0.1),
    ("ok_ratio", "ratio", "higher", 0.02),
]

# The issue-level name of each end-to-end metric on each workload.
METRIC_MEANING = {
    "fit": {
        "setup_s": "mean of the run's set-ups (corpus, features), each from "
                   "cold caches, spread over the run",
        "throughput_per_s": "train_graphs_per_s (graph-epochs of both "
                            "hierarchy stages per job wall second; 4 jobs "
                            "run at once)",
        "latency_p50_ms": "one -I fit job's wall time, median",
        "latency_tail_ms": "one -I fit job's wall time, tail by the "
                           "percentile rule",
        "quality_loss": "val_mape (mean over DSP/LUT/FF/CP)",
        "ok_ratio": "fits that finished with the reference val MAPE",
    },
    "dse": {
        "setup_s": "mean of the run's set-ups (corpus, front model fit, "
                   "reference sweep), each from cold caches, spread over "
                   "the run",
        "throughput_per_s": "dse_cand_per_s (kernel medians)",
        "latency_p50_ms": "one kernel exploration, median",
        "latency_tail_ms": "one kernel exploration, tail by the rule",
        "quality_loss": "dse_adrs (mean over kernels)",
        "ok_ratio": "explorations within budget and deterministic",
    },
}

# (name, unit, better). Span-timed layers are p50 of the benchmark's own spans
# around one call; the others are read from the run's counters.
PER_LAYER = [
    ("progen.program_us", "us", "lower"),
    ("frontend.lower_us", "us", "lower"),
    ("hls.flow_us", "us", "lower"),
    ("gnn.tensors_us", "us", "lower"),
    ("gnn.features_us", "us", "lower"),
    ("train.cache_hit_ratio", "ratio", "higher"),
    ("gnn.regressor_fwd_us", "us", "lower"),
    ("gnn.classifier_fwd_us", "us", "lower"),
    ("tensor.backward_us", "us", "lower"),
    ("nn.adam_step_us", "us", "lower"),
    ("core.evaluate_ms", "ms", "lower"),
    ("train.plan_build_ms", "ms", "lower"),
    ("dataset.payload_encode_us", "us", "lower"),
    ("dataset.payload_decode_us", "us", "lower"),
    ("serve.frame_us", "us", "lower"),
    ("serve.frame_bytes", "bytes", "lower"),
    ("core.predict_b1_us", "us", "lower"),
    ("core.predict_b8_us", "us", "lower"),
    ("serve.inproc_rtt_p50_us", "us", "lower"),
    ("serve.queue_wait_p50_us", "us", "lower"),
    ("serve.queue_wait_p99_us", "us", "lower"),
    ("serve.avg_batch", "graphs", "higher"),
    ("serve.shed_ratio", "ratio", "lower"),
    ("dse.lower_ms", "ms", "lower"),
    ("dse.score_ms", "ms", "lower"),
    ("core.predict_bulk_us", "us", "lower"),
    ("train.refit_ms", "ms", "lower"),
    ("dse.sched_avg_batch", "graphs", "higher"),
]

WORKLOADS = [
    ("fit", "-I RGCN fits: gnn forward, tensor backward, Adam, train loop and "
            "validation do the work; serve, wire and hls idle"),
    ("dse", "active halving: HLS, lowering, batched warm-start refits and "
            "bulk scoring bursts; no socket"),
]

RUN_SECONDS = 40

# ----- statistics -----

MIN_BEYOND = 10


def percentile(values, p):
    """Nearest-rank percentile of `values` (p in [0, 100])."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail_percentile(n):
    """The highest percentile with at least MIN_BEYOND of `n` samples beyond
    it, 100 * (1 - MIN_BEYOND / n); None when that is below the median."""
    if n < 2 * MIN_BEYOND:
        return None
    return 100.0 * (1.0 - MIN_BEYOND / n)


def tail(values):
    """(percentile, value) by the rule above: the (MIN_BEYOND + 1)-th largest
    value. Too few values for a tail give the median."""
    p = tail_percentile(len(values))
    if p is None:
        return 50.0, statistics.median(values)
    return p, sorted(values)[len(values) - MIN_BEYOND - 1]


def relative_spread(values):
    """Interquartile distance as a share of the median (statistics.quantiles
    with n=4)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


# ----- traffic -----


def make_schedule(seed, rate_per_s, seconds, n_models, pool_size):
    """Seeded open-loop traffic: Poisson arrivals at an absolute rate, as
    (due_us, model, pick) tuples. The same arguments always give the same
    schedule."""
    rng = random.Random(seed)
    arrivals = []
    t = 0.0
    while True:
        t += rng.expovariate(rate_per_s)
        if t >= seconds:
            break
        arrivals.append((int(t * 1e6), rng.randrange(n_models),
                         rng.randrange(pool_size)))
    return arrivals


def write_schedule(path, arrivals):
    with open(path, "w") as out:
        out.write(f"nominal {len(arrivals)}\n")
        out.writelines(f"{d} {m} {p}\n" for d, m, p in arrivals)


# ----- DSE quality -----


def adrs(exact, approx):
    """Average distance from the reference Pareto set (Ferretti et al.):
    mean over reference points g of min over approximate points w of
    max_j max(0, (w_j - g_j) / g_j). All axes are costs (lower is better);
    a zero reference coordinate divides by 1."""
    if not exact:
        raise ValueError("empty reference front")
    if not approx:
        return math.inf
    total = 0.0
    for g in exact:
        best = math.inf
        for w in approx:
            d = max(max(0.0, (wj - gj) / (abs(gj) if gj else 1.0))
                    for wj, gj in zip(w, g))
            best = min(best, d)
        total += best
    return total / len(exact)


def dse_throughput(kernels):
    """Candidates per second over one pass through every kernel, each
    kernel timed by the median of its explorations."""
    points = sum(k["points"] for k in kernels)
    ms = sum(statistics.median(k["explore_ms"]) for k in kernels)
    return points / (ms / 1e3)


# ----- registry histograms (STATS scrape text) -----

_BUCKET_RE = re.compile(r'le="([^"]+)"\}\s+(\d+)')


def parse_buckets(lines):
    """Cumulative (upper bound, count) pairs of one histogram series."""
    out = []
    for line in lines:
        m = _BUCKET_RE.search(line)
        if m:
            le = math.inf if m.group(1) == "+Inf" else float(m.group(1))
            out.append((le, int(m.group(2))))
    return sorted(out)


def histogram_percentile(before, after, p):
    """Percentile of the values recorded between two scrapes, interpolated
    linearly inside the log-scale bucket that holds it."""
    b = dict(parse_buckets(before))
    cum = [(le, n - b.get(le, 0)) for le, n in parse_buckets(after)]
    if not cum or cum[-1][1] == 0:
        return 0.0
    target = p / 100.0 * cum[-1][1]
    lo_le, lo_n = 0.0, 0
    for le, n in cum:
        if n >= target:
            if math.isinf(le):
                return lo_le
            if n == lo_n:
                return le
            return lo_le + (le - lo_le) * (target - lo_n) / (n - lo_n)
        lo_le, lo_n = le, n
    return lo_le


# ----- host and build record -----

RECORD_KEYS = ("nproc", "cpu_model", "build_type", "compiler", "cxx_flags",
               "gnnhls_simd")


def _cmake_cache(build_dir):
    cache = {}
    path = Path(build_dir) / "CMakeCache.txt"
    if path.exists():
        for line in path.read_text().splitlines():
            m = re.match(r"^([A-Za-z_0-9]+):[A-Z]+=(.*)$", line)
            if m:
                cache[m.group(1)] = m.group(2)
    return cache


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_digest(root):
    """sha256 over the library and benchmark sources, the commit identity of
    a checkout that is not a git repository."""
    h = hashlib.sha256()
    root = Path(root)
    files = [p for d in ("src", "perfbench") if (root / d).exists()
             for p in (root / d).rglob("*")
             if p.is_file() and "__pycache__" not in p.parts]
    for p in sorted(files):
        h.update(str(p.relative_to(root)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def host_build_record(root, build_dir):
    cache = _cmake_cache(build_dir)
    build_type = cache.get("CMAKE_BUILD_TYPE", "unknown")
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=30).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        version = compiler
    flags = " ".join(x for x in (
        cache.get("CMAKE_CXX_FLAGS", ""),
        cache.get("CMAKE_CXX_FLAGS_" + build_type.upper(), "")) if x)
    commit = None
    if (Path(root) / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(root), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "build_type": build_type,
        "compiler": version,
        "cxx_flags": flags,
        "gnnhls_simd": cache.get("GNNHLS_SIMD", "OFF"),
        "git_commit": commit,
        "source_digest": source_digest(root),
    }


def record_mismatches(a, b):
    """Host/build fields on which two records differ (the commit is what a
    comparison varies, so it is not one of them)."""
    return [k for k in RECORD_KEYS if a.get(k) != b.get(k)]


# ----- BENCHMARK.json -----


def benchmark_document():
    """The BENCHMARK.json this package defines."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


def load_json(path):
    with open(path) as f:
        return json.load(f)
