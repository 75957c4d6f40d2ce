#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

    python3 amrbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `amrbench` package (into
$CARGO_TARGET_DIR, default `.bench_build`), runs the workload in its own
process and prints, as the last line of standard output, one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`. With
`--trace 0` the metrics are the `end_to_end` metrics of BENCHMARK.json,
with `--trace 1` its `per_layer` metrics; a traced run first measures the
machine's attainable bounds in a separate process. Lines before the last
one give every metric (a timing is its fastest unit) with its sample
count, median and tail, and the run's context. Exits non-zero without a result when the program cannot be
built or the workload process fails.
"""

import argparse
import json
import math
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
TIMEOUT_S = 170


def fail(msg):
    print(f"amrbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Build the benchmark binary; return its path."""
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        fail("program sources (crates/) not found next to the benchmark")
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(os.getcwd(), ".bench_build"))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(os.path.abspath(target), "release", "amrbench")


def run_json(cmd, timeout):
    """Run `cmd`, return the JSON object on its last stdout line."""
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout} s: {' '.join(cmd)}")
    sys.stderr.write(p.stderr)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        fail(f"exit code {p.returncode}: {' '.join(cmd)}")
    return json.loads(lines[-1])


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    p = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                       capture_output=True, text=True)
    return p.stdout.strip() or "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    exe = build()
    cmd = [exe, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    probe = None
    if args.trace:
        probe = run_json([exe, "probe"], 60)
        cmd += ["--peak-f64", str(probe["peak_gflops_f64"]),
                "--peak-f32", str(probe["peak_gflops_f32"])]
    out = run_json(cmd, TIMEOUT_S)

    all_metrics = out["metrics"]
    for name, m in sorted(all_metrics.items()):
        tail = f"  p{m['tail_pct']}={m['tail_value']:.6g}" if "tail_pct" in m else ""
        n = f"  n={m['n']} median={m['median']:.6g}" if "n" in m else ""
        value = "missing" if m["value"] is None else f"{m['value']:.6g}"
        print(f"# {name:36s} {value:>14s} {m['unit']:8s}{n}{tail}")
    context = dict(out["context"], git_rev=git_rev())
    if probe:
        context["probe"] = probe
    print(json.dumps({"context": context}))
    for f in out["failures"]:
        print(f"# FAILED: {f}")

    metrics, correct = {}, out["failed"] == 0
    for m in wanted:
        got = all_metrics.get(m["name"])
        if got is None or got["value"] is None or not math.isfinite(got["value"]):
            print(f"# MISSING metric: {m['name']}")
            correct = False
            continue
        if got["unit"] != m["unit"]:
            print(f"# UNIT MISMATCH: {m['name']} is {got['unit']}, BENCHMARK.json says {m['unit']}")
            correct = False
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
