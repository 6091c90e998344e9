#!/usr/bin/env bash
# Same-behaviour gate for a change that claims to move no simulated
# result (a refactor): build <rev> and the working tree in Release and
# compare everything they print on the simulated clock.
#
#   * stdout of fig2/5/8, every tab_* and ablation_* bench, the five
#     examples, chaos_soak (the soak and each --scenario drill) and
#     shard_sweep, byte for byte;
#   * `perfbench/run.py --seconds 0` with `--trace 1` and `--trace 0` on
#     seeds 1..N of the four benchmark workloads: `correct`,
#     `attempted`, `failed` and every metric except the host-clock ones
#     listed below.
#
# Exits 1 on any difference, naming it (2 if a build fails). <rev> is exported with
# `git archive` into a temporary directory (removed on exit), so the
# working tree and the repository's worktree list stay as they are.
#
# Usage: ci/same_behaviour.sh <rev> [N]   (N seeds, default 10)
set -euo pipefail

rev="${1:?usage: ci/same_behaviour.sh <rev> [seeds]}"
seeds="${2:-10}"
repo_root="$(cd "$(dirname "$0")/.." && pwd)"
work="$(mktemp -d "${TMPDIR:-/tmp}/same_behaviour.XXXXXX")"
trap 'rm -rf "$work"' EXIT
jobs="$(nproc)"

mkdir "$work/base"
git -C "$repo_root" archive "$(git -C "$repo_root" rev-parse --verify "$rev^{commit}")" |
  tar -x -C "$work/base"

benches=(fig2_sc02_fcip fig5_sc03_native fig8_sc04_grid)
for f in "$repo_root"/bench/tab_*.cpp "$repo_root"/bench/ablation_*.cpp; do
  benches+=("$(basename "$f" .cpp)")
done
examples=(quickstart sc02_wan_san enzo_teragrid deisa_federation nvo_archive)
scenarios=(crash_dirty_writer manager_crash shard_crash site_outage nsd_loss)

# Build both trees, then run each one's binaries into its own out dir.
for side in base head; do
  src="$work/base"
  [[ "$side" == head ]] && src="$repo_root"
  if ! { cmake -S "$src" -B "$work/$side-build" -DCMAKE_BUILD_TYPE=Release &&
         cmake --build "$work/$side-build" -j "$jobs" --target \
           "${benches[@]}" "${examples[@]}" chaos_soak shard_sweep; } \
       >"$work/$side-build.log" 2>&1; then
    tail -n 40 "$work/$side-build.log"
    echo "same_behaviour: $side build failed" >&2
    exit 2
  fi
  out="$work/$side-out"
  mkdir "$out"
  bin="$work/$side-build"
  # stdout plus the exit status, which is part of the behaviour too
  run() {
    local name="$1"
    shift
    "$@" >"$out/$name.txt" 2>/dev/null || echo "[exit $?]" >>"$out/$name.txt"
  }
  for b in "${benches[@]}"; do run "$b" "$bin/bench/$b"; done
  for e in "${examples[@]}"; do run "$e" "$bin/examples/$e"; done
  run chaos_soak "$bin/bench/chaos_soak"
  for s in "${scenarios[@]}"; do
    run "chaos_soak.$s" "$bin/bench/chaos_soak" --scenario "$s"
  done
  run shard_sweep "$bin/bench/shard_sweep"
  # --trace 1 prints the per-layer metrics, --trace 0 the end-to-end ones.
  for w in mpiio_stream smallfile_meta wan_mixed meta_failover; do
    for seed in $(seq 1 "$seeds"); do
      for trace in 0 1; do
        (cd "$src" && python3 perfbench/run.py --workload "$w" --seed "$seed" \
           --seconds 0 --trace "$trace" 2>/dev/null | tail -n 1) \
          >"$out/perf.$w.$seed.trace$trace.json"
      done
    done
  done
  echo "same_behaviour: $side ran"
done

status=0
for f in "$work"/base-out/*.txt; do
  name="$(basename "$f")"
  if ! cmp -s "$f" "$work/head-out/$name"; then
    echo "same_behaviour: stdout differs: ${name%.txt}"
    diff "$f" "$work/head-out/$name" | head -n 20 || true
    status=1
  fi
done

python3 - "$work/base-out" "$work/head-out" <<'EOF' || status=1
import glob, json, os, sys

# Read off the host's clock: they differ between any two runs.
HOST = {"host_s", "sim_events_per_s", "setup_s", "peak_rss_MB",
        "sim.host_ns_per_event", "gpfs.client.call_host_s",
        "auth.mount_host_s", "trace.overhead_frac"}
base_dir, head_dir = sys.argv[1], sys.argv[2]
bad = 0
for path in sorted(glob.glob(os.path.join(base_dir, "perf.*.json"))):
    name = os.path.basename(path)[len("perf."):-len(".json")]
    with open(path) as f:
        base = json.load(f)
    with open(os.path.join(head_dir, os.path.basename(path))) as f:
        head = json.load(f)
    for key in ("correct", "attempted", "failed"):
        if base[key] != head[key]:
            print(f"same_behaviour: {name}: {key} {base[key]} -> {head[key]}")
            bad = 1
    bm, hm = base["metrics"], head["metrics"]
    for key in sorted(set(bm) | set(hm)):
        if key in HOST:
            continue
        b = bm.get(key, {}).get("value")
        h = hm.get(key, {}).get("value")
        if b != h:
            print(f"same_behaviour: {name}: {key} {b} -> {h}")
            bad = 1
sys.exit(bad)
EOF

if [[ "$status" -eq 0 ]]; then
  echo "same_behaviour: identical to $rev (seeds 1..$seeds)"
fi
exit "$status"
