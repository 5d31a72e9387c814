#!/usr/bin/env python3
"""Replay benchmark entry point.

Builds the program and the benchmark from source (Release) under
.bench_build/ at the checkout root, then runs one measurement:

    python3 replaybench/run.py --workload bd-grr-tcp --seed 1 --seconds 10 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
(and writes a Chrome trace under .bench_build/traces/). The last stdout line
is the result JSON; the exit code is non-zero when the build fails or any
output missed the reference. `--self-test` builds and runs the benchmark's
own tests instead.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "replaybench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build(targets):
    """Configures once, then builds `targets`; progress goes to stderr."""
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            return False
    made = subprocess.run(
        ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target"] + targets,
        stdout=sys.stderr, stderr=sys.stderr)
    return made.returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    if args.self_test:
        if not build(["replaybench_test"]):
            print("replaybench: build failed", file=sys.stderr)
            return 2
        return subprocess.run(
            [os.path.join(BUILD_DIR, "replaybench_test")]).returncode

    if not build(["replay_bench"]):
        print("replaybench: build failed", file=sys.stderr)
        return 2
    cmd = [os.path.join(BUILD_DIR, "replay_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--trace-dir", TRACE_DIR]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=3 * args.seconds + 60)
    except subprocess.TimeoutExpired:
        print("replaybench: run timed out", file=sys.stderr)
        return 3
    lines = run.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        print("replaybench: no result (exit %d)" % run.returncode,
              file=sys.stderr)
        return run.returncode or 4
    print(json.dumps(result))
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
