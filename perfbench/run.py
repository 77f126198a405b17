#!/usr/bin/env python3
"""Builds the benchmark load generator from the checkout's sources and runs it.

    python3 perfbench/run.py --workload read_mostly --seed 1 --seconds 10 --trace 0

Run from the repository root. The build goes to .bench_build/
(incremental); build output goes to stderr. The load generator's last
stdout line is the JSON result. Exits non-zero without a result when the
sources are missing or the build fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
LOADGEN = os.path.join(BUILD, "perfbench_loadgen")
WORKLOADS = ("read_mostly", "resource_churn", "signed_mix")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "perfbench_loadgen", "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return os.path.exists(LOADGEN)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    command = [LOADGEN, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: load generator timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
