#!/usr/bin/env python3
"""Steadiness report: run the benchmark repeatedly and summarise it.

    python3 amrbench/steadiness.py

Run from the repository root. For each workload, runs `amrbench/run.py`
ten times untraced with seeds 1-10, then once traced with seed 1. Prints,
per end-to-end metric, the median and quartiles over the runs
(`statistics.quantiles(n=4)`), the spread (Q3 - Q1) / median against the
metric's bound from BENCHMARK.json, and for the traced run the tracing
overhead and untracked share.
"""

import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUNS = 10


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"run failed: {' '.join(cmd)}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    for w in [w["name"] for w in spec["workloads"]]:
        results = []
        for seed in range(1, RUNS + 1):
            r = run(w, seed, seconds, 0)
            results.append(r)
            values = " ".join(f"{m['name']}={r['metrics'][m['name']]['value']:.4g}"
                              for m in spec["end_to_end"])
            print(f"{w} seed={seed} correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']} {values}", flush=True)
        traced = run(w, 1, seconds, 1)
        print(f"\n{w}: {RUNS} runs, {seconds} s each")
        print(f"{'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread <= m["bound"] / 3 else ("  > bound/3" if spread <= m["bound"] else "  > BOUND")
            print(f"{m['name']:34s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} {m['bound']:6.2f}{flag}")
        tm = traced["metrics"]
        print(f"traced: obs.trace_overhead_pct={tm['obs.trace_overhead_pct']['value']:.2f} "
              f"obs.untracked_pct={tm['obs.untracked_pct']['value']:.2f} correct={traced['correct']} "
              f"attempted={traced['attempted']} failed={traced['failed']}")
        print(flush=True)


if __name__ == "__main__":
    main()
