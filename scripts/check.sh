#!/usr/bin/env bash
# Single entry point for CI and the tier-1 verify:
#   configure -> build -> ctest -> one quick bench smoke.
# Usage: scripts/check.sh [build-dir]   (default: build)
# Extra configure flags (e.g. -DFL_WERROR=ON) can be passed via the
# FL_CMAKE_ARGS environment variable; FL_SIM_THREADS=N runs everything on
# the parallel round engine (results are bit-identical by contract).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

# Determinism-contract lint: first prove every violation class still fires
# (the self-test fixtures), then lint src/ against the tracked allowlist.
python3 scripts/fl_lint.py --self-test
python3 scripts/fl_lint.py

# shellcheck disable=SC2086  # FL_CMAKE_ARGS is intentionally word-split
cmake -B "$BUILD_DIR" -S . ${FL_CMAKE_ARGS:-}
cmake --build "$BUILD_DIR" -j
ctest --test-dir "$BUILD_DIR" --output-on-failure -j

# Bench smoke: the delivery-throughput sweep at quick sizes, JSON teed into
# the per-PR trajectory snapshot at the repo root. Exits nonzero if the
# sequential and parallel engines ever disagree on RunStats, so CI catches
# semantic drift, not just crashes. The committed BENCH_micro_perf.json is
# this same quick record, so bench_diff below has a matching baseline;
# FL_BENCH_FULL=1 additionally refreshes the tracked full-sweep record
# (adds the n=100k rows — a couple of minutes).
"$BUILD_DIR"/bench/bench_micro_perf --quick --json | tee BENCH_micro_perf.json
if [ -n "${FL_BENCH_FULL:-}" ]; then
  "$BUILD_DIR"/bench/bench_micro_perf --json | tee BENCH_micro_perf_full.json
fi
# FL_BENCH_CAPACITY=1 refreshes the tracked capacity record: the n=1M
# sparse flood with its peak-RSS ceiling (~half a minute, ~0.5 GiB). Run
# at one lane — the row meters the engine, not the scheduler, and peak RSS
# is a process high-water mark, so capacity must be its own process run.
if [ -n "${FL_BENCH_CAPACITY:-}" ]; then
  "$BUILD_DIR"/bench/bench_micro_perf --capacity --quick --threads=1 --json | tee BENCH_capacity.json
fi

# Trajectory snapshots: every experiment's --quick --json record lands in a
# tracked BENCH_e<N>.json at the repo root, then bench_diff.py compares the
# fresh snapshots against the committed ones and flags >10% drift. Model
# quantities (rounds, messages, sizes) are deterministic per seed, so any
# drift there is a genuine behaviour change; wall-clock fields are reported
# but marked as noisy. The diff warns by default (pass --strict to fail).
# E6 and E9 additionally run their --congest sections (the Sampler and the
# payload broadcasts under an enforced per-edge word budget), so the
# LOCAL-vs-budgeted round tables are part of the tracked trajectory.
for bench in e1_hierarchy e2_light_heavy e3_spanner_size e4_stretch \
             e5_rounds e6_messages e7_baselines e8_tlocal_broadcast \
             e9_message_reduction e10_two_stage; do
  id="${bench%%_*}"
  extra=""
  case "$bench" in
    e6_messages|e9_message_reduction) extra="--congest" ;;
  esac
  # shellcheck disable=SC2086  # $extra is intentionally word-split
  "$BUILD_DIR"/bench/"bench_$bench" --quick $extra --json > "BENCH_$id.json"
  echo "snapshot: BENCH_$id.json"
done
python3 scripts/bench_diff.py

echo "check.sh: all green"
