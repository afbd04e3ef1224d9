#!/usr/bin/env python3
"""Turns a benchmark Chrome trace (perfbench --trace-out) into the per-layer
table: count, total, p50, p99 and self time per span name, plus each
top-level phase next to the sum of the layer spans inside it and the
unexplained remainder.

    python3 perfbench/summarize.py TRACE.json
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402

# Spans that stand for a whole phase of a workload rather than one call
# into a layer.
PHASES = ("setup", "fit.job", "serve.inproc", "dse.explore", "probe")
EPS_US = 0.01


def load_spans(path):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    return [{"name": e["name"], "ts": float(e["ts"]), "dur": float(e["dur"]),
             "tid": e["tid"], "n": e.get("args", {}).get("n", 1)}
            for e in events if e.get("ph") == "X"]


def attach_children(spans):
    """Sets each span's `parent` (index) and `covered` (time its direct
    children cover). Spans nest per thread by time interval."""
    by_tid = {}
    for i, s in enumerate(spans):
        s["parent"] = None
        s["covered"] = 0.0
        by_tid.setdefault(s["tid"], []).append(i)
    for idx in by_tid.values():
        idx.sort(key=lambda i: (spans[i]["ts"], -spans[i]["dur"]))
        stack = []
        for i in idx:
            s = spans[i]
            while stack and (spans[stack[-1]]["ts"] + spans[stack[-1]]["dur"]
                             <= s["ts"] + EPS_US):
                stack.pop()
            if stack:
                s["parent"] = stack[-1]
                spans[stack[-1]]["covered"] += s["dur"]
            stack.append(i)
    return spans


def span_stats(spans):
    """name -> {count, total_us, p50_us, p99_us (None when fewer than ten
    samples lie beyond it), self_us, n}."""
    groups = {}
    for s in spans:
        groups.setdefault(s["name"], []).append(s)
    out = {}
    for name, group in groups.items():
        durs = [s["dur"] for s in group]
        p99 = (benchlib.percentile(durs, 99.0)
               if (benchlib.tail_percentile(len(durs)) or 0.0) >= 99.0
               else None)
        out[name] = {
            "count": len(group),
            "total_us": sum(durs),
            "p50_us": benchlib.percentile(durs, 50.0),
            "p99_us": p99,
            "self_us": sum(s["dur"] - min(s["covered"], s["dur"])
                           for s in group),
            "n": sum(s["n"] for s in group),
            "max_n": max(s["n"] for s in group),
            "durs": durs,
            "ns": [s["n"] for s in group],
        }
    return out


def phase_rows(spans):
    """Per phase name: total time, time its direct layer children cover,
    and the unexplained remainder."""
    rows = {}
    for s in spans:
        if s["name"] in PHASES:
            row = rows.setdefault(s["name"], [0.0, 0.0])
            row[0] += s["dur"]
            row[1] += min(s["covered"], s["dur"])
    return {k: (t, c, t - c) for k, (t, c) in rows.items()}


def fmt_us(v):
    if v is None:
        return "-"
    if v >= 1e6:
        return f"{v / 1e6:.2f}s"
    if v >= 1e3:
        return f"{v / 1e3:.2f}ms"
    return f"{v:.1f}us"


def format_tables(spans):
    stats = span_stats(spans)
    lines = ["per-layer spans (benchmark-side, around one call each):",
             f"  {'span':<24}{'count':>8}{'total':>11}{'p50':>11}"
             f"{'p99':>11}{'self':>11}"]
    for name in sorted(stats, key=lambda k: -stats[k]["total_us"]):
        st = stats[name]
        lines.append(f"  {name:<24}{st['count']:>8}{fmt_us(st['total_us']):>11}"
                     f"{fmt_us(st['p50_us']):>11}{fmt_us(st['p99_us']):>11}"
                     f"{fmt_us(st['self_us']):>11}")
    lines.append("phase rows vs the layer spans inside them:")
    lines.append(f"  {'phase':<24}{'total':>11}{'layers':>11}"
                 f"{'unexplained':>13}")
    for name, (total, covered, rest) in sorted(phase_rows(spans).items()):
        lines.append(f"  {name:<24}{fmt_us(total):>11}{fmt_us(covered):>11}"
                     f"{fmt_us(rest):>13}")
    return "\n".join(lines)


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    print(format_tables(attach_children(load_spans(argv[1]))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
