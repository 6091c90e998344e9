#!/usr/bin/env python3
"""Determinism tests for mgfsbench at reduced size (--small).

Run from the repository root:

    python3 perfbench/selftest.py

For every workload it checks that
  * the same seed run twice gives identical sim-clock metrics and an
    identical sim.events count;
  * a traced run passes (mgfsbench itself fails a traced run whose
    sim-clock numbers differ from the untraced repetitions), and its
    sim-clock layer metrics match a second traced run;
  * a second seed also passes every correctness check;
  * the metrics printed are exactly those BENCHMARK.json declares, with
    the same units.
Exits 1 on the first failure.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mpiio_stream", "smallfile_meta", "wan_mixed", "meta_failover")
# Host-clock metrics: expected to vary between runs.
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    DECLARED = json.load(f)
HOST = {"host_s", "sim_events_per_s", "setup_s", "peak_rss_MB",
        "sim.host_ns_per_event", "gpfs.client.call_host_s",
        "auth.mount_host_s", "trace.overhead_frac"}


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "0", "--trace",
           str(trace), "--small"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} seed={seed} trace={trace} exited "
             f"{proc.returncode}:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        fail(f"{workload} seed={seed} trace={trace}: {lines[-1]}")
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    if printed != {m["name"]: m["unit"] for m in declared}:
        fail(f"{workload} trace={trace}: metrics differ from BENCHMARK.json")
    return {k: v["value"] for k, v in result["metrics"].items()
            if k not in HOST}


def fail(msg):
    print("FAIL:", msg)
    sys.exit(1)


def main():
    for w in WORKLOADS:
        a, b = run(w, 1, 0), run(w, 1, 0)
        if a != b:
            fail(f"{w}: same seed, different sim-clock metrics: {a} vs {b}")
        ta, tb = run(w, 1, 1), run(w, 1, 1)
        if ta != tb or ta["sim.events"] <= 0:
            fail(f"{w}: traced runs disagree on sim-clock layer metrics")
        other = run(w, 2, 0)
        if other == a:
            fail(f"{w}: the seed does not change the inputs")
        print(f"ok  {w}: deterministic, trace-invariant, seed 2 passes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
