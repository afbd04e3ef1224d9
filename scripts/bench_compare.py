#!/usr/bin/env python3
"""Compare a fresh BENCH_*.json artifact against a checked-in baseline.

Understands both artifact dialects the repo produces:

  * google-benchmark JSON (bench_micro --json=...): one record per benchmark
    under "benchmarks"; items_per_second is used when present (higher is
    better), otherwise real_time (lower is better).
  * the bench_common BenchJsonLog format ({"bench": ..., "entries":
    [{name, value, unit}, ...]}): units ending in "/s" are higher-is-better,
    time units (ns/us/ms/s) lower-is-better. The quality units are absolute
    quantities with a fixed direction: "mape" (percent error) and "ratio"
    (e.g. a shed rate) lower-is-better, "rho" (rank correlation) and "acc"
    (accuracy) higher-is-better. Any other unit is a parse error (exit 2):
    a new unit must get its direction here before it can be compared.

A regression is a shared entry that got worse by more than --threshold
(default 0.15 = 15%). Entries present on only one side are reported but
never fail the comparison (benches grow; baselines age).

--normalize divides every *machine-speed-dependent* entry (times and rates)
by the geometric mean of its direction group, computed over the entries
shared by both files. That cancels the absolute speed difference between
the machine that produced the baseline and the machine running the check,
leaving only the *relative* shape of the bench suite — which is what a
cross-machine CI gate can meaningfully enforce. Absolute units (scores like
"rho" or "mape") are never normalized. Needs >= 2 shared entries per
direction group to be meaningful; with fewer, normalized comparison of that
group is vacuous and the script says so.

Pair mode (--pair ARTIFACT --pair-a REGEX --pair-b REGEX) compares two
bench families WITHIN one artifact instead of across two artifacts: each
entry matching --pair-b (the variant under test, e.g. the obs-instrumented
forward) is joined to the entry matching --pair-a whose name is identical
after stripping the regex match (BM_FooObs/0/1 joins BM_Foo/0/1), and the
check fails if the GEOMETRIC MEAN of the B/A time ratios exceeds
1 + --threshold. The gate is aggregate on purpose: the cost under test
(e.g. instrumentation) is uniform across the paired variants, so the
geomean is its estimator, while per-pair ratios carry the full run-to-run
jitter of single benchmark registrations (~10% on busy runners) and would
flake a tight per-pair gate. Per-pair overheads are still printed and
outliers flagged informationally. Same-machine, same-run pairs need no
normalization, so this is the one comparison tight thresholds (5%) can
gate reliably in CI. Times prefer cpu_time over real_time: the pair gate
measures added work, not scheduling. When the artifact holds "median"
aggregates (bench_micro --benchmark_repetitions=N), each variant's time is
its median over the repetitions; otherwise it is the variant's single run.
Every --pair-b entry must find a partner; A entries without a B are noted
but never fail.

Exit status: 0 = no regression, 1 = at least one regression, 2 = usage or
parse error.
"""

import argparse
import json
import math
import re
import sys

TIME_UNITS = {"ns", "us", "ms", "s"}
# Absolute (never normalized) units -> direction: +1 higher is better.
ABSOLUTE_UNITS = {"mape": -1, "ratio": -1, "rho": +1, "acc": +1}


def fail(msg):
    """Usage or parse error: exit status 2 (1 is reserved for regressions)."""
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def unit_direction(unit):
    """Returns (direction, normalizable) for a BenchJsonLog unit, or None
    for a unit whose direction is unknown."""
    if unit.endswith("/s"):
        return +1, True
    if unit in TIME_UNITS:
        return -1, True
    if unit in ABSOLUTE_UNITS:
        return ABSOLUTE_UNITS[unit], False
    return None


def load_entries(path):
    """Returns {name: (value, direction, normalizable)} where direction is
    +1 (higher is better) or -1 (lower is better)."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read {path}: {e}")

    entries = {}
    if isinstance(doc, dict) and "benchmarks" in doc:
        # google-benchmark dialect.
        for b in doc["benchmarks"]:
            if b.get("run_type") == "aggregate":
                continue
            name = b["name"]
            if "items_per_second" in b:
                entries[name] = (float(b["items_per_second"]), +1, True)
            elif "real_time" in b:
                entries[name] = (float(b["real_time"]), -1, True)
    elif isinstance(doc, dict) and "entries" in doc:
        # BenchJsonLog dialect.
        for e in doc["entries"]:
            unit = e.get("unit", "")
            kind = unit_direction(unit)
            if kind is None:
                fail(f"{path}: entry {e['name']!r} has unknown unit "
                     f"{unit!r}")
            entries[e["name"]] = (float(e["value"]), *kind)
    else:
        fail(f"{path} is not a recognized bench JSON artifact")
    if not entries:
        fail(f"{path} contains no comparable entries")
    return entries


def load_times(path):
    """Returns {name: time} for pair mode — per-iteration time in the
    artifact's own unit (consistent within one file, which is all a ratio
    needs). Prefers cpu_time for google-benchmark records, and their
    median aggregates when the artifact has them."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read {path}: {e}")
    times = {}
    if isinstance(doc, dict) and "benchmarks" in doc:
        medians = [b for b in doc["benchmarks"]
                   if b.get("run_type") == "aggregate"
                   and b.get("aggregate_name") == "median"]
        runs = medians or [b for b in doc["benchmarks"]
                           if b.get("run_type") != "aggregate"]
        for b in runs:
            # A median's run_name is its variant's name without the
            # "_median" suffix.
            name = b.get("run_name", b["name"])
            if "cpu_time" in b:
                times[name] = float(b["cpu_time"])
            elif "real_time" in b:
                times[name] = float(b["real_time"])
    elif isinstance(doc, dict) and "entries" in doc:
        for e in doc["entries"]:
            if e.get("unit", "") in TIME_UNITS:
                times[e["name"]] = float(e["value"])
    else:
        fail(f"{path} is not a recognized bench JSON artifact")
    if not times:
        fail(f"{path} contains no timed entries")
    return times


def run_pair(args):
    for flag in ("pair_a", "pair_b"):
        if getattr(args, flag) is None:
            fail(f"--pair requires --{flag.replace('_', '-')}")
    try:
        pat_a = re.compile(args.pair_a)
        pat_b = re.compile(args.pair_b)
    except re.error as e:
        fail(f"bad pair regex: {e}")
    times = load_times(args.pair)
    # Join key: the name with the family regex stripped, so the A and B
    # variants of the same arg tuple line up.
    side_a = {pat_a.sub("", n): (n, t) for n, t in times.items()
              if pat_a.search(n)}
    side_b = {pat_b.sub("", n): (n, t) for n, t in times.items()
              if pat_b.search(n)}
    if not side_a:
        fail(f"--pair-a matched no entries in {args.pair}")
    if not side_b:
        fail(f"--pair-b matched no entries in {args.pair}")
    missing = sorted(k for k in side_b if k not in side_a)
    if missing:
        fail("no --pair-a partner for: " +
                 ", ".join(side_b[k][0] for k in missing))

    shared = sorted(k for k in side_b if k in side_a)
    ratios = []
    width = max(len(side_b[k][0]) for k in shared)
    print(f"{'variant (B)':<{width}}  {'A time':>12}  {'B time':>12}  "
          f"{'overhead':>8}")
    for key in shared:
        name_a, ta = side_a[key]
        name_b, tb = side_b[key]
        overhead = (tb - ta) / ta if ta > 0.0 else 0.0
        if ta > 0.0 and tb > 0.0:
            ratios.append(tb / ta)
        # Per-pair outliers are informational: single registrations jitter
        # far beyond a tight threshold; only the geomean below gates.
        flag = "  (outlier)" if overhead > args.threshold else ""
        print(f"{name_b:<{width}}  {ta:>12.4g}  {tb:>12.4g}  "
              f"{overhead:>+7.1%}{flag}")
    for key in sorted(k for k in side_a if k not in side_b):
        print(f"note: A-only entry (not compared): {side_a[key][0]}")

    mean_overhead = geomean(ratios) - 1.0
    if mean_overhead > args.threshold:
        print(f"\nFAIL: mean B/A overhead {mean_overhead:+.1%} beyond "
              f"{args.threshold:.0%} across {len(shared)} pair(s)")
        return 1
    print(f"\nOK: mean B/A overhead {mean_overhead:+.1%} within "
          f"{args.threshold:.0%} across {len(shared)} pair(s)")
    return 0


def geomean(values):
    vals = [v for v in values if v > 0.0]
    if not vals:
        return 1.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", nargs="?", help="checked-in BENCH_*.json")
    ap.add_argument("fresh", nargs="?", help="freshly produced BENCH_*.json")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="worst tolerated relative regression "
                         "(default 0.15 = 15%%)")
    ap.add_argument("--pair", default=None, metavar="ARTIFACT",
                    help="pair mode: compare two bench families inside ONE "
                         "artifact (see module docstring)")
    ap.add_argument("--pair-a", default=None, metavar="REGEX",
                    help="pair mode: the baseline family (stripped from "
                         "names to form the join key)")
    ap.add_argument("--pair-b", default=None, metavar="REGEX",
                    help="pair mode: the variant family under test")
    ap.add_argument("--normalize", action="store_true",
                    help="self-normalize times/rates by their direction "
                         "group's geometric mean over shared entries "
                         "(cross-machine comparison)")
    ap.add_argument("--filter", default=None, metavar="REGEX",
                    help="compare only entries whose name matches REGEX. "
                         "With --normalize across machines of different "
                         "core counts, restrict to single-thread entries: "
                         "multi-thread entries scale with cores, not just "
                         "machine speed, and would skew the geomean")
    args = ap.parse_args()

    if args.pair is not None:
        return run_pair(args)
    if args.baseline is None or args.fresh is None:
        ap.error("baseline and fresh artifacts are required outside --pair "
                 "mode")

    base = load_entries(args.baseline)
    fresh = load_entries(args.fresh)
    if args.filter:
        try:
            pat = re.compile(args.filter)
        except re.error as e:
            fail(f"bad --filter regex: {e}")
        base = {n: v for n, v in base.items() if pat.search(n)}
        fresh = {n: v for n, v in fresh.items() if pat.search(n)}
        if not base or not fresh:
            fail("--filter matched no entries in one of the "
                     "artifacts")

    shared = sorted(set(base) & set(fresh))
    only_base = sorted(set(base) - set(fresh))
    only_fresh = sorted(set(fresh) - set(base))
    if not shared:
        fail("the two artifacts share no benchmark names")

    scale = {+1: (1.0, 1.0), -1: (1.0, 1.0)}  # direction -> (base, fresh)
    if args.normalize:
        for direction in (+1, -1):
            names = [n for n in shared
                     if base[n][1] == direction and base[n][2]]
            if len(names) < 2:
                if names:
                    print(f"note: only {len(names)} shared normalizable "
                          f"entr{'y' if len(names) == 1 else 'ies'} in "
                          f"direction {direction:+d}; normalized comparison "
                          "of that group is vacuous")
                continue
            scale[direction] = (geomean(base[n][0] for n in names),
                                geomean(fresh[n][0] for n in names))

    regressions = []
    width = max(len(n) for n in shared)
    print(f"{'benchmark':<{width}}  {'baseline':>14}  {'fresh':>14}  "
          f"{'delta':>8}")
    for name in shared:
        bval, direction, normalizable = base[name]
        fval = fresh[name][0]
        if args.normalize and normalizable:
            sb, sf = scale[direction]
            bcmp, fcmp = bval / sb, fval / sf
        else:
            bcmp, fcmp = bval, fval
        if bcmp == 0.0:
            delta = 0.0
        else:
            # Positive delta always means "better" regardless of direction.
            delta = direction * (fcmp - bcmp) / abs(bcmp)
        flag = ""
        if delta < -args.threshold:
            regressions.append((name, delta))
            flag = "  << REGRESSION"
        print(f"{name:<{width}}  {bval:>14.4g}  {fval:>14.4g}  "
              f"{delta:>+7.1%}{flag}")

    for name in only_base:
        print(f"note: baseline-only entry (not compared): {name}")
    for name in only_fresh:
        print(f"note: new entry (no baseline yet): {name}")

    if regressions:
        print(f"\nFAIL: {len(regressions)} regression(s) beyond "
              f"{args.threshold:.0%}:")
        for name, delta in regressions:
            print(f"  {name}: {delta:+.1%}")
        return 1
    print(f"\nOK: no regression beyond {args.threshold:.0%} across "
          f"{len(shared)} shared entries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
