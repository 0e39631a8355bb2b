#!/usr/bin/env python3
"""Steadiness runner: runs each workload N times and compares spreads with bounds.

Usage (from the repository root):

    python3 dpbench/steady.py [--runs 10] [--first-seed 1] [--seconds S]
        [--workloads a,b] [--trace 0|1] [--json PATH]

Each run uses its own seed (first-seed, first-seed + 1, ...). For every
metric the runner prints the median, the first and third quartiles (Python's
statistics.quantiles(values, n=4)), and the spread (Q3 - Q1) / median. With
--trace 0 it also prints each end-to-end metric's regression bound from
BENCHMARK.json and flags a spread above a third of it ("wide"); setup_s's
spread is reported but, like the acceptance check, not held to its bound.
Exits non-zero if any run fails or reports correct = false.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-4000:])
        raise SystemExit("run failed: %s (exit %d)" % (" ".join(cmd), done.returncode))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit("incorrect result: %s seed %d" % (workload, seed))
    return result


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="write every run's metrics here")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 to have quartiles")

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {}
    wide = []
    for workload in args.workloads.split(","):
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            runs.append(run_once(workload, seed, args.seconds, args.trace))
            print("%s seed %d done" % (workload, seed), file=sys.stderr)
        record[workload] = runs
        print("\n%s (%d runs, seeds %d..%d)" % (workload, args.runs,
              args.first_seed, args.first_seed + args.runs - 1))
        print("  %-44s %14s %14s %14s %8s %6s" %
              ("metric", "median", "q1", "q3", "spread", "bound"))
        for name in sorted(runs[0]["metrics"]):
            values = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, spread = summarize(values)
            bound = bounds.get(name) if args.trace == 0 else None
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "wide"
                wide.append((workload, name, spread, bound))
            print("  %-44s %14.6g %14.6g %14.6g %8.4f %6s %s" %
                  (name, med, q1, q3, spread,
                   "" if bound is None else "%.3f" % bound, flag))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(record, f, indent=1)
    if wide:
        print("\nspread above a third of the bound:")
        for workload, name, spread, bound in wide:
            print("  %s %s: %.4f > %.4f" % (workload, name, spread, bound / 3))
    return 0


if __name__ == "__main__":
    sys.exit(main())
