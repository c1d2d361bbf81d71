#!/usr/bin/env python3
"""Smoke-sized self-test of the serving benchmark.

    python3 snsbench/selftest.py

For every workload in BENCHMARK.json it runs snsbench/run.py on the
smoke-sized data set, untraced and traced, and checks the result line
against BENCHMARK.json: exactly the keys correct/attempted/failed/metrics,
every end-to-end (untraced) or per-layer (traced) metric with its unit,
a correct run with no failures, a non-negative transport residual, and
the traced run's span and metric files. It then copies only
BENCHMARK.json and the benchmark's directories into an empty directory
and checks that the benchmark refuses to run there (non-zero exit, no
result line). Exits non-zero on the first failed check.
"""
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fail(message):
    print("selftest: FAIL: " + message)
    sys.exit(1)


def run(cwd, workload, trace, build_root):
    env = dict(os.environ, CARGO_TARGET_DIR=build_root)
    command = [sys.executable, "snsbench/run.py", "--workload", workload, "--seed", "7",
               "--seconds", "2", "--trace", str(trace), "--smoke"]
    return subprocess.run(command, cwd=cwd, env=env, capture_output=True, text=True, timeout=900)


def check_result(bench, workload, trace, proc, out_dir):
    if proc.returncode != 0:
        fail("%s trace=%d exited %d: %s" % (workload, trace, proc.returncode, proc.stderr[-400:]))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: result keys %s" % (workload, sorted(result)))
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail("%s trace=%d: correct=%s attempted=%s failed=%s" %
             (workload, trace, result["correct"], result["attempted"], result["failed"]))
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != units:
        fail("%s trace=%d: metrics/units differ: %s" %
             (workload, trace, sorted(set(got.items()) ^ set(units.items()))))
    for name, metric in result["metrics"].items():
        if not isinstance(metric["value"], (int, float)):
            fail("%s: %s is not a number" % (workload, name))
    if trace:
        if result["metrics"]["transport.residual_ns_per_q"]["value"] < 0:
            fail("%s: negative transport residual" % workload)
        for suffix in ("-spans.jsonl", "-layers.json"):
            path = os.path.join(out_dir, "%s-s7%s" % (workload, suffix))
            if not os.path.getsize(path):
                fail("%s: %s is empty" % (workload, path))
        with open(os.path.join(out_dir, "%s-s7-layers.json" % workload)) as f:
            layers = json.load(f)["metrics"]
        if any(not m.get("should_move") for m in layers.values()):
            fail("%s: a per-layer metric carries no should_move tag" % workload)
    print("selftest: %s trace=%d ok (%d metrics, %d attempted)" %
          (workload, trace, len(got), result["attempted"]))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    build_root = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            proc = run(ROOT, workload, trace, build_root)
            check_result(bench, workload, trace, proc, os.path.join(build_root, "out"))

    # Without the program's sources the benchmark must refuse to run.
    bare = os.path.join(build_root, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, bench["workloads"][0]["name"], 0, os.path.join(bare, ".bench_build"))
    shutil.rmtree(bare, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
        fail("the benchmark ran without the program's sources")
    print("selftest: refuses to run without sources ok")
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
