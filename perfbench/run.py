#!/usr/bin/env python3
r"""Builds and runs the repository benchmark for one workload.

    python3 perfbench/run.py --workload fit-joblight --seed 1 --seconds 10 \
        --trace 0

Run from the repository root. The first run configures and builds the
program from source into .bench_build/perfbench (CMake, Release); later runs
rebuild incrementally. The benchmark binary prints human-readable lines and,
as its last line, one JSON object with the keys correct, attempted, failed
and metrics: every end-to-end metric of BENCHMARK.json with --trace 0, every
per-layer metric with --trace 1. This script checks that the metric names
match BENCHMARK.json, echoes the output, and exits with the binary's code
(non-zero when any output check failed). When the build fails it prints no
result and exits 2.

The benchmark's helper tests build as perfbench_helpers_test in the same
build directory.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "perfbench_helpers_test", "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail("build step failed: %s" % err)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build step failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as err:
        fail("cannot read BENCHMARK.json: %s" % err)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    expected = {m["name"] for m in
                spec["per_layer" if args.trace else "end_to_end"]}

    build()
    work_dir = os.path.join(BUILD_DIR, "run")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        fail("benchmark printed no result (exit code %d)" % proc.returncode)
    printed = set(result.get("metrics", {}))
    if printed != expected:
        sys.stdout.write(proc.stdout)
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s" %
             (sorted(expected - printed), sorted(printed - expected)))
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
