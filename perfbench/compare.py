#!/usr/bin/env python3
"""Compares saved benchmark results (.bench_build/results/*.json).

    python3 perfbench/compare.py BASE.json [BASE.json ...] -- NEW.json [...]

Each side may hold several runs of one workload (e.g. ten seeds); the table
shows each side's median per metric, the relative change, and whether the
change stays within the metric's bound. Refuses (exit 2) when the runs'
host or build records differ: nproc, CPU model, build type, compiler and
flags, or GNNHLS_SIMD. When both sides come from the same sources, their
quality_loss must be identical (the determinism contract; exit 1 if not).
"""

import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402


def compare(base, new):
    """Returns (exit code, report lines)."""
    runs = base + new
    workloads = {r["workload"] for r in runs}
    traces = {r["trace"] for r in runs}
    if len(workloads) != 1 or len(traces) != 1:
        return 2, ["refusing to compare: runs mix workloads or trace modes"]
    for r in runs[1:]:
        diff = benchlib.record_mismatches(runs[0]["record"], r["record"])
        if diff:
            return 2, ["refusing to compare: host/build records differ in "
                       + ", ".join(diff)]
    lines = [f"{'metric':<28}{'base':>14}{'new':>14}{'change':>10}  verdict"]
    code = 0
    bounds = {n: (b, bound) for n, _, b, bound in benchlib.END_TO_END}
    for name, entry in new[0]["metrics"].items():
        va = [r["metrics"][name]["value"] for r in base]
        vb = [r["metrics"][name]["value"] for r in new]
        a, b = statistics.median(va), statistics.median(vb)
        rel = (b - a) / a if a else 0.0
        verdict = ""
        if name in bounds:
            better, bound = bounds[name]
            worse = -rel if better == "higher" else rel
            verdict = "within bound" if worse <= bound else "WORSE than bound"
            if len(va) > 1 and benchlib.relative_spread(va) > bound:
                verdict = "unresolved (base spread wider than the bound)"
        lines.append(f"{name:<28}{a:>14.6g}{b:>14.6g}{rel:>+10.1%}  "
                     f"{verdict} ({entry['unit']})")
    digests = {r["record"]["source_digest"] for r in runs}
    if len(digests) == 1 and not traces.pop():
        quality = {r["end_to_end"]["quality_loss"] for r in runs}
        if len(quality) != 1:
            lines.append("FAIL: quality_loss differs across runs of the same "
                         "sources")
            code = 1
    return code, lines


def main(argv):
    if "--" not in argv[1:]:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    cut = argv.index("--")
    base = [benchlib.load_json(p) for p in argv[1:cut]]
    new = [benchlib.load_json(p) for p in argv[cut + 1:]]
    if not base or not new:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    code, lines = compare(base, new)
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
