#!/usr/bin/env bash
# ASan+UBSan gate: configure a Debug build with MGFS_SANITIZE=ON and run
# the full test suite under the sanitizers. Intended for CI and for local
# use before merging anything that touches the event loop, the RPC layer,
# or connection lifetimes (where use-after-free is the classic failure).
#
# Usage: ci/sanitize.sh [build-dir]   (default: build-asan)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-asan}"

cmake -B "$build_dir" -S "$repo_root" \
  -DCMAKE_BUILD_TYPE=Debug \
  -DMGFS_SANITIZE=ON
cmake --build "$build_dir" -j "$(nproc)"

export ASAN_OPTIONS="detect_leaks=1:strict_string_checks=1:abort_on_error=1"
export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"

ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)"

echo "sanitize: all tests (chaos_soak drills included) passed clean"
