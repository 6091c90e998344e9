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
# A change that moves some outputs on purpose lists them with --moves:
# each listed bench, example, chaos_soak run (`chaos_soak.<scenario>`)
# or perfbench workload is still diffed, but its differences are
# printed as expected moves and do not fail the gate. Any difference in
# an output that is not listed still exits 1.
#
# Usage: ci/same_behaviour.sh <rev> [N] [--moves <name,...>]
#        (N seeds, default 10)
set -euo pipefail

usage="usage: ci/same_behaviour.sh <rev> [seeds] [--moves <name,...>]"
moves=""
args=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --moves)
      moves="${2:?$usage}"
      shift 2
      ;;
    *)
      args+=("$1")
      shift
      ;;
  esac
done
rev="${args[0]:?$usage}"
seeds="${args[1]:-10}"
# Is output $1 on the --moves list?
listed() { [[ ",$moves," == *",$1,"* ]]; }
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
    if listed "${name%.txt}"; then
      echo "same_behaviour: expected move: stdout of ${name%.txt}"
    else
      echo "same_behaviour: stdout differs: ${name%.txt}"
      status=1
    fi
    diff "$f" "$work/head-out/$name" | head -n 20 || true
  elif listed "${name%.txt}"; then
    echo "same_behaviour: listed move did not move: ${name%.txt}"
  fi
done

python3 - "$work/base-out" "$work/head-out" "$moves" <<'EOF' || status=1
import glob, json, os, sys

# Read off the host's clock: they differ between any two runs.
HOST = {"host_s", "sim_events_per_s", "setup_s", "peak_rss_MB",
        "sim.host_ns_per_event", "gpfs.client.call_host_s",
        "auth.mount_host_s", "trace.overhead_frac"}
base_dir, head_dir = sys.argv[1], sys.argv[2]
moves = set(filter(None, sys.argv[3].split(",")))
bad = 0
for path in sorted(glob.glob(os.path.join(base_dir, "perf.*.json"))):
    name = os.path.basename(path)[len("perf."):-len(".json")]
    # name is <workload>.<seed>.trace<0|1>
    listed = name.split(".")[0] in moves
    tag = "expected move: " if listed else ""
    with open(path) as f:
        base = json.load(f)
    with open(os.path.join(head_dir, os.path.basename(path))) as f:
        head = json.load(f)
    diffs = []
    for key in ("correct", "attempted", "failed"):
        if base[key] != head[key]:
            diffs.append(f"{key} {base[key]} -> {head[key]}")
    if base["correct"] and not head["correct"]:
        print(f"same_behaviour: {name}: no longer correct")
        bad = 1
    bm, hm = base["metrics"], head["metrics"]
    for key in sorted(set(bm) | set(hm)):
        if key in HOST:
            continue
        b = bm.get(key, {}).get("value")
        h = hm.get(key, {}).get("value")
        if b != h:
            diffs.append(f"{key} {b} -> {h}")
    for d in diffs:
        print(f"same_behaviour: {tag}{name}: {d}")
    if diffs and not listed:
        bad = 1
sys.exit(bad)
EOF

if [[ "$status" -eq 0 ]]; then
  if [[ -n "$moves" ]]; then
    echo "same_behaviour: identical to $rev (seeds 1..$seeds) but for the listed moves: $moves"
  else
    echo "same_behaviour: identical to $rev (seeds 1..$seeds)"
  fi
fi
exit "$status"
