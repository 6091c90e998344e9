#!/usr/bin/env bash
# Perf smoke gate: build the Fig. 11 MPI-IO scaling bench in Release and
# run a reduced-scale sweep (--smoke: 1/4/16 nodes, 128 MiB per task).
# Emits BENCH_fig11.json so CI can archive the numbers and diff them
# across commits; the run completing with sane throughput is the gate,
# paper-scale comparisons stay in the full (64-node) bench.
#
# Usage: ci/bench_smoke.sh [build-dir]   (default: build-bench)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-bench}"

cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
cmake --build "$build_dir" -j "$(nproc)" --target fig11_scaling chaos_soak scale_sweep shard_sweep

"$build_dir/bench/fig11_scaling" --smoke --json "$repo_root/BENCH_fig11.json"

# Chaos soak numbers ride along so CI can diff recovery behaviour
# (goodput under faults, retries, expels, fenced writes, manager
# takeovers) across commits.
"$build_dir/bench/chaos_soak" --json "$repo_root/BENCH_chaos.json"

# Manager-failover gate: takeover within 3 lease periods, in-flight I/O
# completes across the takeover, stale-manager grants fenced, fsck clean.
"$build_dir/bench/chaos_soak" --scenario manager_crash

# Recovery-latency SLO gate: the soak JSON must carry the recovery keys
# and the first post-takeover grant must land within 2 lease periods
# (lease_duration = 3.0 s in the soak => 6.0 s).
chaos_json="$repo_root/BENCH_chaos.json"
for key in takeover_to_first_grant_s rebuild_rpcs recovery_op_p50_s \
           recovery_op_p99_s overlap_writes_admitted early_expels \
           replica_reads replica_failovers replica_divergences \
           replicas_reconciled; do
  grep -q "\"$key\"" "$chaos_json" || {
    echo "bench_smoke: FAIL — $chaos_json missing key \"$key\"" >&2
    exit 1
  }
done
awk -F': ' '/"takeover_to_first_grant_s"/ {
  v = $2 + 0
  if (v < 0 || v > 6.0) { printf "bench_smoke: FAIL — takeover_to_first_grant_s %.4f outside [0, 6.0]\n", v; exit 1 }
  printf "bench_smoke: takeover_to_first_grant_s %.4f s (SLO: 2 lease periods = 6.0 s)\n", v
}' "$chaos_json"

# Event-core throughput gate: a reduced scale sweep (64/256 clients,
# fig11-shaped MPI-IO) must sustain a sim-events/sec floor. The floor is
# ~1/5 of what a developer laptop measures (≈1 M ev/s at the slowest
# smoke point), so it only trips on order-of-magnitude regressions —
# e.g. an O(n) scan creeping back into the timer wheel, token tables,
# allocator or journal — not on CI machine jitter. Wall-clock-derived,
# so the smoke JSON is not committed; the committed BENCH_scale.json
# comes from the full 1024-client sweep.
scale_json="$build_dir/bench_scale_smoke.json"
"$build_dir/bench/scale_sweep" --smoke --json "$scale_json"
awk -F': ' '/"min_events_per_s"/ {
  v = $2 + 0
  floor = 200000
  if (v < floor) { printf "bench_smoke: FAIL — min_events_per_s %.0f below floor %d\n", v, floor; exit 1 }
  printf "bench_smoke: min_events_per_s %.0f (floor %d)\n", v, floor
}' "$scale_json"

# Metadata-sharding gate: the shard sweep's 1- and 8-domain endpoints
# must show >= 3x aggregate small-file ops/s at 8 shards — the whole
# point of partitioning the token plane. Simulated-time-derived, so the
# ratio is byte-stable; the committed BENCH_shard.json comes from the
# full {1,2,4,8} x 256-client sweep, the smoke JSON stays in the build
# dir. The binary itself exits nonzero below the gate; the awk check
# keeps the failure message symmetrical with the other gates.
shard_json="$build_dir/bench_shard_smoke.json"
"$build_dir/bench/shard_sweep" --smoke --json "$shard_json"
awk -F': ' '/"ratio_8x"/ {
  v = $2 + 0
  if (v < 3.0) { printf "bench_smoke: FAIL — shard ratio_8x %.2f below 3.0\n", v; exit 1 }
  printf "bench_smoke: shard ratio_8x %.2fx (gate: >= 3.0x)\n", v
}' "$shard_json"

# Replica-locality gate: the DEISA-style site-outage drill darkens the
# home site for 12 s; the cold edge site must keep reading from its
# local replicas at >= 3x the WAN-window rate it gets when reaching
# across the (0.3 Gb/s, 25 ms) circuit. Catches regressions in
# nearest-replica selection (e.g. RTT ordering breaking and every read
# paying the WAN) without pinning absolute rates.
site_json="$build_dir/bench_site_outage.json"
"$build_dir/bench/chaos_soak" --scenario site_outage --json "$site_json"
awk -F': ' '
  /"read_MBps_wan"/           { wan = $2 + 0 }
  /"read_MBps_replica_local"/ { loc = $2 + 0 }
  END {
    if (wan <= 0 || loc <= 0) { printf "bench_smoke: FAIL — site_outage rates missing (wan %.1f, local %.1f)\n", wan, loc; exit 1 }
    if (loc < 3.0 * wan) { printf "bench_smoke: FAIL — replica-local read %.1f MB/s below 3x WAN-window %.1f MB/s\n", loc, wan; exit 1 }
    printf "bench_smoke: replica-local %.1f MB/s vs WAN-window %.1f MB/s (gate: >= 3x)\n", loc, wan
  }' "$site_json"

# MGFS benchmark determinism: every workload at --small, same seed twice
# and traced vs untraced must agree on every sim-clock metric, and the
# metric names must match BENCHMARK.json. The only check that a src/
# refactor still builds perfbench/ and keeps it deterministic.
python3 "$repo_root/perfbench/selftest.py"

echo "bench_smoke: wrote $repo_root/BENCH_fig11.json and $repo_root/BENCH_chaos.json"
