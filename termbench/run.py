#!/usr/bin/env python3
"""Builds the termcheck benchmark from this checkout and runs one workload.

Usage (from the checkout root):

    python3 termbench/run.py --workload scaled|batch|ncsb --seed N \
        --seconds S --trace 0|1

The first run configures and builds termbench/ (the library sources, the
termcheckd daemon and the termbench driver) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs rebuild incrementally. Build
output goes to stderr. The driver's standard output is passed through: its
last line is the JSON result. See termbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    """Configures (once) and builds the benchmark; returns False on failure."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["scaled", "batch", "ncsb"])
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    build_dir = os.path.abspath(
        os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    if not build(build_dir):
        print("termbench: build failed", file=sys.stderr)
        return 3

    cmd = [os.path.join(build_dir, "termbench"),
           "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--root", ROOT, "--daemon", os.path.join(build_dir, "termcheckd")]
    if args.trace == "1":
        cmd += ["--spans", os.path.join(
            build_dir, "spans-%s-%s.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
