#!/usr/bin/env python3
"""The repository benchmark, one workload run per invocation.

    python3 perfbench/run.py --workload fit|dse --seed N \
        --seconds S --trace 0|1

Builds perfbench/ (the library sources plus the workload runner) with CMake
in Release mode under .bench_build/, generates the seeded inputs, runs the
workload, checks its outputs, and prints a report with every metric by name
and unit. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of a separate traced run with --trace 1.
A traced run also writes its spans as Chrome trace JSON under
.bench_build/traces/ and prints the per-layer table, each end-to-end row
next to the sum of its layer rows, and the tracing overhead against the
last untraced run of the same workload.

The traffic and seed settings (request rate, limit, payload pool, corpus
seeds) live in perfbench/workloads.json; model and workload shapes are
constants of perfbench.cpp. --seed drives the traffic schedule and the
order of jobs and kernels; corpora and models are fixed. Every
result is saved with its host and build record under .bench_build/results/
(compare two with compare.py). Exits non-zero when the build fails or any
correctness check fails.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

PKG = Path(__file__).resolve().parent
ROOT = PKG.parent
BUILD = ROOT / ".bench_build"
sys.path.insert(0, str(PKG))
import benchlib  # noqa: E402
import summarize  # noqa: E402

BINARY_TIMEOUT_S = 170
# The serving probe replays this many seconds of seeded open-loop traffic.
PROBE_SECONDS = 1.0


def build():
    """Configures and builds the runner; exits 1 on any failure."""
    cmake_dir = BUILD / "cmake"
    cmake_dir.mkdir(parents=True, exist_ok=True)
    simd = os.environ.get("GNNHLS_SIMD", "OFF")
    steps = [["cmake", "-S", str(PKG), "-B", str(cmake_dir),
              "-DCMAKE_BUILD_TYPE=Release", f"-DGNNHLS_SIMD={simd}"],
             ["cmake", "--build", str(cmake_dir), "-j", "4"]]
    log = BUILD / "build.log"
    with open(log, "w") as out:
        for cmd in steps:
            try:
                code = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                      timeout=840).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                code, out_msg = 1, str(e)
                print(out_msg, file=sys.stderr)
            if code != 0:
                tail = log.read_text().splitlines()[-30:]
                print("perfbench: build failed:\n" + "\n".join(tail),
                      file=sys.stderr)
                sys.exit(1)
    return cmake_dir / "perfbench", cmake_dir


def runner_flags(cfg, workload, seed, seconds, run_dir):
    """The runner's flags: the workload seed, the corpus seed, and the
    serving traffic. Writes the seeded open-loop schedule the serving probe
    replays (one model, picks over the payload pool)."""
    sv = cfg["serving"]
    arrivals = benchlib.make_schedule(seed, sv["rate_per_s"], PROBE_SECONDS,
                                      1, sv["pool_size"])
    schedule = run_dir / f"schedule-{seed}.txt"
    benchlib.write_schedule(schedule, arrivals)
    return [f"--workload={workload}", f"--seed={seed}",
            f"--seconds={seconds}",
            f"--corpus-seed={cfg[workload]['corpus_seed']}",
            f"--schedule={schedule}", f"--limit-ms={sv['limit_ms']}",
            f"--pool-size={sv['pool_size']}",
            f"--pool-seed={sv['pool_seed']}"]


def end_to_end(workload, res):
    """Reduces one raw runner result to the end-to-end metrics (plus notes
    for the report)."""
    raw = res["raw"]
    notes = []
    # The host alternates between a fast and a slow state every few
    # seconds, so a set-up's time is bimodal; the median of such a mixture
    # jumps between the modes from run to run, the mean does not.
    m = {"setup_s": statistics.mean(res["setup_s"]),
         "peak_rss_mb": res["peak_rss_mb"]}
    if workload == "dse":
        m["throughput_per_s"] = benchlib.dse_throughput(raw["fronts"])
    else:
        m["throughput_per_s"] = statistics.median(res["rate_per_s"])
    units = res["unit_ms"]
    p, value = benchlib.tail(units)
    m["latency_p50_ms"] = statistics.median(units)
    m["latency_tail_ms"] = value
    notes.append(f"{len(units)} units; tail = p{p:g} (percentile rule: "
                 f">= {benchlib.MIN_BEYOND} samples beyond it)")
    if workload == "fit":
        notes.append("fit job thread CPU time (blocking and steal excluded): "
                     f"median {statistics.median(raw['job_cpu_ms']):.0f} ms")
    if workload == "dse":
        per_kernel = [benchlib.adrs(f["exact"], f["approx"])
                      for f in raw["fronts"]]
        m["quality_loss"] = statistics.mean(per_kernel)
        notes.append("ADRS per kernel: " + ", ".join(
            f"{f['kernel']} {a:.4f}" for f, a in zip(raw["fronts"],
                                                      per_kernel)))
    else:
        m["quality_loss"] = res["quality"]
    m["ok_ratio"] = 1.0 - res["failed"] / max(res["attempted"], 1)
    return m, notes


def per_layer(res, stats):
    """The per-layer metrics of a traced run."""
    def p50(name, scale=1.0):
        if name not in stats:
            raise KeyError(f"no '{name}' spans in the trace")
        return stats[name]["p50_us"] * scale

    layers = res["layers"]
    raw = res["raw"]
    score = stats["dse.score"]
    full = [d for d, n in zip(score["durs"], score["ns"])
            if n == score["max_n"]]
    qb, qa = raw["queue_wait_before"], raw["queue_wait_after"]
    m = {
        "progen.program_us": p50("progen.program"),
        "frontend.lower_us": p50("frontend.lower"),
        "hls.flow_us": p50("hls.flow"),
        "gnn.tensors_us": p50("gnn.tensors"),
        "gnn.features_us": p50("gnn.features"),
        "train.cache_hit_ratio": layers["train.cache_hit_ratio"],
        "gnn.regressor_fwd_us": p50("gnn.regressor_fwd"),
        "gnn.classifier_fwd_us": p50("gnn.classifier_fwd"),
        "tensor.backward_us": p50("tensor.backward"),
        "nn.adam_step_us": p50("nn.adam_step"),
        "core.evaluate_ms": p50("core.evaluate", 1e-3),
        "train.plan_build_ms": p50("train.plan_build", 1e-3),
        "dataset.payload_encode_us": p50("dataset.payload_encode"),
        "dataset.payload_decode_us": p50("dataset.payload_decode"),
        "serve.frame_us": p50("serve.frame"),
        "serve.frame_bytes": layers["serve.frame_bytes"],
        "core.predict_b1_us": p50("core.predict_b1"),
        "core.predict_b8_us": p50("core.predict_b8") / 8.0,
        "serve.inproc_rtt_p50_us": layers["serve.inproc_rtt_p50_us"],
        "serve.queue_wait_p50_us": benchlib.histogram_percentile(qb, qa, 50),
        "serve.queue_wait_p99_us": benchlib.histogram_percentile(qb, qa, 99),
        "serve.avg_batch": layers["serve.avg_batch"],
        "serve.shed_ratio": layers["serve.shed_ratio"],
        "dse.lower_ms": p50("dse.lower", 1e-3),
        "dse.score_ms": statistics.median(full) / 1e3,
        "core.predict_bulk_us": score["total_us"] / score["n"],
        "train.refit_ms": p50("train.refit", 1e-3),
        "dse.sched_avg_batch": layers["dse.sched_avg_batch"],
    }
    missing = [n for n, _, _ in benchlib.PER_LAYER if n not in m]
    if missing:
        raise KeyError(f"per-layer metrics not measured: {missing}")
    return m


def explain(workload, e2e, layer, stats, raw):
    """(row, measured us, layer estimate us): each end-to-end latency next
    to the sum of the layer costs the workload pays per unit."""
    if workload == "fit":
        e, n, b = raw["epochs"], raw["n_train"], raw["batch_graphs"]
        est = (e * n * (layer["gnn.classifier_fwd_us"]
                        + layer["gnn.regressor_fwd_us"]
                        + 2 * layer["tensor.backward_us"])
               + 2 * e * math.ceil(n / b) * layer["nn.adam_step_us"]
               + e * layer["core.evaluate_ms"] * 1e3
               + 2 * layer["train.plan_build_ms"] * 1e3)
        row = "latency_p50_ms (one fit job)"
    else:
        explorations = stats["dse.explore"]["count"]
        est = (layer["dse.lower_ms"] * 1e3
               + raw["hls_runs_per_exploration"] * layer["hls.flow_us"]
               + raw["refits_per_exploration"] * layer["train.refit_ms"] * 1e3
               + stats["dse.score"]["total_us"] / explorations)
        row = "latency_p50_ms (one exploration)"
    return row, e2e["latency_p50_ms"] * 1e3, est


def check_determinism(workload, quality, digest):
    """The determinism contract: a workload's quality number is identical
    across runs of the same sources."""
    path = BUILD / "results" / "quality.json"
    known = benchlib.load_json(path) if path.exists() else {}
    key = f"{workload}:{digest}"
    if key in known:
        return known[key] == quality
    known[key] = quality
    path.write_text(json.dumps(known, indent=1) + "\n")
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[n for n, _ in benchlib.WORKLOADS])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=benchlib.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.monotonic()

    cfg = benchlib.load_json(PKG / "workloads.json")
    binary, cmake_dir = build()
    record = benchlib.host_build_record(ROOT, cmake_dir)
    for sub in ("runs", "traces", "results"):
        (BUILD / sub).mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    out_path = BUILD / "runs" / f"{tag}.json"
    trace_path = BUILD / "traces" / f"{tag}.json"

    flags = runner_flags(cfg, args.workload, args.seed, args.seconds,
                         BUILD / "runs")
    flags.append(f"--out={out_path}")
    if args.trace:
        flags.append(f"--trace-out={trace_path}")
    if out_path.exists():
        out_path.unlink()
    try:
        proc = subprocess.run([str(binary)] + flags, capture_output=True,
                              text=True, timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: workload timed out", file=sys.stderr)
        return 1
    if proc.returncode != 0 or not out_path.exists():
        print(proc.stderr[-4000:], file=sys.stderr)
        print(f"perfbench: runner exited {proc.returncode}", file=sys.stderr)
        return 1
    res = benchlib.load_json(out_path)

    e2e, notes = end_to_end(args.workload, res)
    checks = [(c["name"], c["ok"]) for c in res["checks"]]
    checks.append(("every end-to-end metric is a finite number",
                   all(math.isfinite(v) for v in e2e.values())))
    checks.append(("quality_loss identical to earlier runs of these sources",
                   check_determinism(args.workload, e2e["quality_loss"],
                                     record["source_digest"])))

    meaning = benchlib.METRIC_MEANING[args.workload]
    print(f"perfbench {args.workload}: seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}")
    print(f"host: {record['nproc']} cpus, {record['cpu_model']}; build: "
          f"{record['build_type']}, {record['compiler']}, flags "
          f"'{record['cxx_flags']}', GNNHLS_SIMD={record['gnnhls_simd']}, "
          f"commit {record['git_commit'] or 'n/a'}, sources "
          f"{record['source_digest'][:12]}")
    print("end-to-end" + (" (traced run)" if args.trace else "") + ":")
    for name, unit, better, bound in benchlib.END_TO_END:
        print(f"  {name:<18}{e2e[name]:>14.6g} {unit:<6} ({better} is "
              f"better; {meaning.get(name, name)})")
    for note in notes:
        print("  " + note)

    metrics = {n: {"value": e2e[n], "unit": u}
               for n, u, _, _ in benchlib.END_TO_END}
    if args.trace:
        spans = summarize.attach_children(summarize.load_spans(trace_path))
        stats = summarize.span_stats(spans)
        layer = per_layer(res, stats)
        print(summarize.format_tables(spans))
        print("per-layer metrics:")
        for name, unit, _ in benchlib.PER_LAYER:
            print(f"  {name:<28}{layer[name]:>14.6g} {unit}")
        print("  feature-cache hit ratio of the serving replay (one-shot "
              f"decoded requests): {res['raw']['serve_cache_hit_ratio']:.3f}")
        row, measured, est = explain(args.workload, e2e, layer, stats,
                                     res["raw"])
        print(f"end-to-end row vs layer sum: {row}: measured "
              f"{measured:.1f} us, layers {est:.1f} us, unexplained "
              f"{measured - est:.1f} us")
        last = BUILD / "results" / f"last-{args.workload}-t0.json"
        if last.exists():
            base = benchlib.load_json(last)["end_to_end"]
            print("tracing overhead (traced - untraced, last untraced run):")
            for name, unit, _, _ in benchlib.END_TO_END:
                delta = e2e[name] - base[name]
                rel = delta / base[name] if base[name] else 0.0
                print(f"  {name:<18}{delta:>+14.6g} {unit:<6}({rel:+.1%})")
        metrics = {n: {"value": layer[n], "unit": u}
                   for n, u, _ in benchlib.PER_LAYER}
        checks.append(("every per-layer metric is a finite number",
                       all(math.isfinite(v["value"])
                           for v in metrics.values())))
        print(f"trace: {trace_path}")

    correct = all(ok for _, ok in checks)
    for name, ok in checks:
        print(f"  [{'PASS' if ok else 'FAIL'}] {name}")
    saved = {"record": record, "workload": args.workload, "seed": args.seed,
             "seconds": args.seconds, "trace": args.trace,
             "end_to_end": e2e, "metrics": metrics, "correct": correct,
             "wall_s": time.monotonic() - started}
    text = json.dumps(saved, indent=1) + "\n"
    (BUILD / "results" / f"{tag}.json").write_text(text)
    if not args.trace:
        (BUILD / "results" / f"last-{args.workload}-t0.json").write_text(text)
    print(json.dumps({"correct": correct, "attempted": int(res["attempted"]),
                      "failed": int(res["failed"]), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
