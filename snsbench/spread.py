#!/usr/bin/env python3
"""Run one workload over several seeds and report each end-to-end metric's
median and spread (inter-quartile distance as a share of the median),
next to the bound BENCHMARK.json fixes for it.

    python3 snsbench/spread.py --workload lookup --runs 10 [--first-seed 1]
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        command = [sys.executable, os.path.join(ROOT, "snsbench", "run.py"), "--workload",
                   args.workload, "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", str(args.trace)]
        run = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            print("seed %d failed (exit %d): %s" % (seed, run.returncode, run.stderr[-500:]))
            continue
        result = json.loads(lines[-1])
        print("seed %d: attempted %d failed %d correct %s" %
              (seed, result["attempted"], result["failed"], result["correct"]), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print("%-34s %14s %8s %6s %s" % ("metric", "median", "spread", "bound", "values"))
    for name, vals in sorted(values.items()):
        med = statistics.median(vals)
        spread = 0.0
        if len(vals) >= 2 and med:
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / abs(med)
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- above bound/3"
        print("%-34s %14.4f %8.4f %6s %s%s" % (name, med, spread, bound if bound else "-",
                                               " ".join("%.4g" % v for v in vals), flag))


if __name__ == "__main__":
    main()
