#!/usr/bin/env python3
"""Self-test of the benchmark itself.

Usage (from the repository root):

    python3 dpbench/selftest.py [--seconds 2]

1. Builds the package and runs dpbench_selftest: self time = span minus the
   covered child interval, with nested, overlapping and overhanging
   children, and the quantile helpers.
2. Runs every workload with two seeds and checks that the counts which must
   not depend on the seed repeat exactly: storage_overhead and
   wire_bytes_per_read_byte.

Exits non-zero on the first failed check.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the build step lives there)

DETERMINISTIC = ("storage_overhead", "wire_bytes_per_read_byte")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=2)
    args = parser.parse_args()

    run.build()
    done = subprocess.run([os.path.join(run.BUILD, "dpbench_selftest")])
    if done.returncode != 0:
        return 1

    ok = True
    for workload in run.WORKLOADS:
        values = []
        for seed in (11, 12):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            if out.returncode != 0:
                sys.stderr.write(out.stderr[-4000:])
                print("FAIL %s seed %d exited %d" % (workload, seed, out.returncode))
                return 1
            metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
            values.append({k: metrics[k]["value"] for k in DETERMINISTIC})
        same = values[0] == values[1]
        ok = ok and same
        print("%s %s: seed 11 %s, seed 12 %s" %
              ("ok  " if same else "FAIL", workload, values[0], values[1]))
    print("PASSED" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
