#!/usr/bin/env python3
"""Builds dpbench from source and runs one workload.

Usage (from the repository root):

    python3 dpbench/run.py --workload ingest_scan|small_reads|degraded_repair \
        --seed N --seconds S --trace 0|1

The build goes to .bench_build/dpbench (CMake, Release) and is incremental,
so only the first run in a checkout compiles. Build output goes to stderr;
stdout is the benchmark's, whose last line is the JSON result. Per-run detail
(metadata, every metric, and with --trace 1 the spans) is written under
.bench_build/dpbench/results. Exits non-zero if the build fails, the tree
has no library sources, or any read did not match its payload.
"""
import argparse
import fcntl
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "dpbench")
WORKLOADS = ("ingest_scan", "small_reads", "degraded_repair")


def fail(message):
    print("dpbench: " + message, file=sys.stderr)
    sys.exit(2)


def source_rev():
    """The git commit when there is one, else a digest of the sources."""
    try:
        rev = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return "git:" + rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base in ("src", "dpbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src:" + digest.hexdigest()[:12]


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no library sources next to the benchmark (need CMakeLists.txt "
             "and src/ at " + ROOT + ")")
    os.makedirs(BUILD, exist_ok=True)
    # One build at a time per checkout.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        # Configuring every time costs half a second and keeps an existing
        # build directory in step with the build files.
        steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", BUILD, "-j4", "--target", "dpbench",
                  "dpbench_selftest"]]
        # Compiler temporaries stay inside the checkout too.
        tmp = os.path.join(BUILD, "tmp")
        os.makedirs(tmp, exist_ok=True)
        env = dict(os.environ, TMPDIR=tmp)
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env)
            if done.returncode != 0:
                fail("build step failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    cmd = [os.path.join(BUILD, "dpbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", results, "--rev", source_rev()]
    sys.stdout.flush()
    done = subprocess.run(cmd)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
