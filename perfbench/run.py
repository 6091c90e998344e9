#!/usr/bin/env python3
"""Build and run the MGFS benchmark (mgfsbench).

Run from the repository root:

    python3 perfbench/run.py --workload mpiio_stream --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (the simulator libraries
from src/ plus the benchmark program) into .bench_build/; later runs only
re-check the build. Build output goes to stderr; the benchmark's own
standard output is passed through, and its last line is the JSON result.
Extra arguments after the four standard ones (for example --small) are
handed to the benchmark binary unchanged.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "mgfsbench")
WORKLOADS = ("mpiio_stream", "smallfile_meta", "wan_mixed", "meta_failover")


def build():
    for needed in ("src/CMakeLists.txt", "bench/bench_util.hpp"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            sys.exit(f"run.py: {needed} is missing; the benchmark builds the "
                     "simulator from the repository sources")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "mgfsbench",
                  "-j", jobs])
    for cmd in steps:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            sys.exit(f"run.py: build step failed: {' '.join(cmd)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args, extra = parser.parse_known_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(BUILD, f"spans-{args.workload}.tsv")]
    sys.stdout.flush()
    return subprocess.run(cmd + extra).returncode


if __name__ == "__main__":
    sys.exit(main())
