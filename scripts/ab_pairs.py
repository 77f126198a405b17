#!/usr/bin/env python3
"""A/B comparison of two built perfbench load generators in alternating pairs.

    python3 scripts/ab_pairs.py --parent A/.bench_build/perfbench_loadgen \\
        --change B/.bench_build/perfbench_loadgen \\
        --workload read_mostly --pairs 10 --seconds 10 [--seed 1] [--out FILE]

Build each load generator first from its own checkout (`python3
perfbench/run.py ...` builds `.bench_build/perfbench_loadgen`, or run its two
cmake steps). Pair i runs both binaries back to back, the parent first in
even pairs and the change first in odd ones, so drift of the host's speed
falls on both sides alike. Every run is untraced (`--trace 0`).

For each end-to-end metric named in BENCHMARK.json the script prints the
parent's and the change's medians, the parent's interquartile range, the
change's win count over the pairs and a verdict:

  gain       the change is better in at least 90% of the pairs and its
             median is better by more than the parent's IQR
  loss       the same, the other way
  over bound the change's median is worse than the parent's by more than
             the metric's bound (a fraction of the parent's median)
  unresolved the parent's IQR is wider than that bound, so the runs cannot
             show a regression of the bound's size, and not every change
             run beats every parent run
  no change  anything else

Raw results go to stderr as JSON lines ("<pair> <side> <result>"); the last
stdout line is one JSON summary record. --out also writes that record to a
file.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)["end_to_end"]


def quartiles(values):
    """First and third quartile (inclusive method)."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def run_once(binary, args):
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0"]
    out = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, timeout=args.seconds * 4 + 120, check=True)
    lines = [line for line in out.stdout.splitlines() if line.strip()]
    return json.loads(lines[-1])


def verdict(metric, parent, change):
    higher = metric["better"] == "higher"
    wins = sum(1 for p, c in zip(parent, change) if (c > p if higher else c < p))
    losses = sum(1 for p, c in zip(parent, change) if (c < p if higher else c > p))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    iqr = q3 - q1
    gap = (c_med - p_med) if higher else (p_med - c_med)  # > 0: change better
    needed = math.ceil(0.9 * len(parent))
    bound = metric["bound"] * abs(p_med)
    dominates = (min(change) > max(parent)) if higher else (max(change) < min(parent))
    if wins >= needed and gap > iqr:
        word = "gain"
    elif losses >= needed and -gap > iqr:
        word = "loss"
    elif p_med and -gap > bound:
        word = "over bound"
    elif iqr > bound and not dominates:
        word = "unresolved"
    else:
        word = "no change"
    return {"parent_median": p_med, "change_median": c_med, "parent_iqr": iqr,
            "change_pct": 100.0 * (c_med - p_med) / p_med if p_med else 0.0,
            "wins": wins, "pairs": len(parent), "verdict": word}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent's perfbench_loadgen")
    parser.add_argument("--change", required=True, help="change's perfbench_loadgen")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", help="also write the summary record here")
    args = parser.parse_args()

    metrics = load_metrics()
    results = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(getattr(args, side), args)
            results[side].append(result)
            print(pair + 1, side, json.dumps(result), file=sys.stderr, flush=True)

    summary = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "pairs": args.pairs, "metrics": {}}
    print(f"{args.workload}: {args.pairs} alternating pairs of {args.seconds} s")
    print(f"  {'metric':<18} {'parent':>12} {'change':>12} {'change%':>8} "
          f"{'parent IQR':>11} {'wins':>6}  verdict")
    for metric in metrics:
        name = metric["name"]
        parent = [r["metrics"][name]["value"] for r in results["parent"]]
        change = [r["metrics"][name]["value"] for r in results["change"]]
        row = verdict(metric, parent, change)
        summary["metrics"][name] = row
        print(f"  {name:<18} {row['parent_median']:>12.4g} {row['change_median']:>12.4g} "
              f"{row['change_pct']:>+7.1f}% {row['parent_iqr']:>11.4g} "
              f"{row['wins']:>3}/{row['pairs']:<2}  {row['verdict']}")
    record = json.dumps(summary)
    if args.out:
        with open(args.out, "w") as f:
            f.write(record + "\n")
    print(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
