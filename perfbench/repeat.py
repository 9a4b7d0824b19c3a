#!/usr/bin/env python3
"""Runs every workload repeatedly and reports each end-to-end metric's
median and quartiles against its bound in BENCHMARK.json.

    python3 perfbench/repeat.py [--runs 10] [--seed0 1] [--seconds s]
                                [--traced]

Run from the repository root. Run i uses seed seed0 + i and visits the
workloads forward on even i and backward on odd i, so no workload
always runs first. The spread of a metric is (Q3 - Q1) / median over
its runs, with quartiles from statistics.quantiles(values, n=4). With
--traced, each run is repeated with --trace 1 and the tracing overhead
(traced median / untraced median - 1) is printed per metric, from the
end-to-end figures the traced run writes into its trace file. Raw
results go to .bench_build/repeat-<time>.json.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # CPU time the hypervisor took during the run, as a share of the
    # machine (the binary prints it on stderr).
    steal = re.search(r"steal=([0-9.]+)%", proc.stderr)
    result["steal_pct"] = float(steal.group(1)) if steal else None
    if trace:
        path = ROOT / ".bench_build" / "traces" / f"{workload}-seed{seed}.json"
        result["end_to_end"] = json.loads(path.read_text())["end_to_end"]
    return result


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = {w: [] for w in workloads}
    traced = {w: [] for w in workloads}
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for w in order:
            seed = args.seed0 + i
            r = run_once(w, seed, args.seconds, 0)
            results[w].append(r)
            line = f"run {i} {w} seed {seed}: correct={r['correct']} " \
                   f"attempted={r['attempted']} failed={r['failed']} " \
                   f"steal={r['steal_pct']}% " + " ".join(
                       f"{k}={v['value']:.4g}" for k, v in r["metrics"].items())
            if args.traced:
                traced[w].append(run_once(w, seed, args.seconds, 1))
            print(line, flush=True)

    ok = True
    for w in workloads:
        runs = results[w]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"\n{w}: {len(runs)} runs, failed shares {shares}, "
              f"all correct: {all(r['correct'] for r in runs)}")
        print(f"  {'metric':<16}{'median':>12}{'Q1':>12}{'Q3':>12}"
              f"{'spread':>9}{'bound':>7}" +
              (f"{'traced':>12}{'overhead':>10}" if args.traced else ""))
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, spread = summarize(vals)
            flag = "" if spread < bound else "  OVER"
            ok = ok and not flag
            extra = ""
            if args.traced:
                tv = [r["end_to_end"][name]["value"] for r in traced[w]]
                tmed = statistics.median(tv)
                extra = f"{tmed:>12.6g}{tmed / med - 1:>+10.1%}"
            print(f"  {name:<16}{med:>12.6g}{q1:>12.6g}{q3:>12.6g}"
                  f"{spread:>9.1%}{bound:>7.0%}{extra}{flag}")

    out = ROOT / ".bench_build" / f"repeat-{int(time.time())}.json"
    out.write_text(json.dumps({"untraced": results, "traced": traced}))
    print(f"\nraw results: {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
