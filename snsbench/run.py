#!/usr/bin/env python3
"""Build and run the SNS serving benchmark.

    python3 snsbench/run.py --workload lookup|area_churn|fabric \
        --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout. The first run configures and
builds snsbench/ (which compiles ../src) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs only re-check the build.
Build output goes to stderr. The benchmark's stdout is passed through:
one line per metric with its unit, a run record, and as the last line
the result JSON. The exit code is the benchmark's (non-zero on any
wrong answer).
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "snsbench")
WORKLOADS = ("lookup", "area_churn", "fabric")


def fail(message):
    print("snsbench: " + message, file=sys.stderr)
    sys.exit(2)


def source_id():
    """A digest of src/ and snsbench/, so runs of different trees never
    share an id (a git commit alone does not tell dirty trees apart)."""
    digest = hashlib.sha256()
    for top in ("src", "snsbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree:" + digest.hexdigest()[:16]


def build(build_root):
    build_dir = os.path.join(build_root, "snsbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "snsbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny data set and short phases (self-test only)")
    args = parser.parse_args()

    for needed in ("src/runtime/runtime.hpp", "snsbench/CMakeLists.txt"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("not a source checkout: %s is missing" % needed)
    if args.seconds <= 0:
        fail("--seconds must be positive")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    binary = build(build_root)
    out_dir = os.path.join(build_root, "out")
    os.makedirs(out_dir, exist_ok=True)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", out_dir, "--source", source_id()]
    if args.smoke:
        command.append("--smoke")
    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, timeout=170)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out")
    sys.stdout.write(run.stdout.decode())
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
