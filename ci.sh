#!/usr/bin/env bash
# Tiered CI entry point (see README "Testing"):
#   ./ci.sh          — warnings-as-errors build + fast test tier (every push)
#                      plus a one-seed slice of the shard determinism matrix
#   ./ci.sh full     — same build + the full suite including slow DES tests
#   ./ci.sh asan     — ASan+UBSan build (halt on first report) + fast tier
#   ./ci.sh ubsan    — UBSan-only build (halt on first report) + fast tier
#                      + one-seed shard slice + trace smoke; cheap enough to
#                      cover more ground than the asan tier per minute
#   ./ci.sh tsan     — ThreadSanitizer build + fast tier + the FULL
#                      shard×thread determinism matrix (the barrier and
#                      envelope hand-off run under the race detector)
#   ./ci.sh perf     — Release build, run bench_simcore (classic + sharded
#                      sections and the 10k→1M metro sweep), gate ns/event
#                      and solver us/solve against the committed
#                      BENCH_simcore.json (>15% fails), then gate the
#                      observability overhead (<2% hooks/steady-state),
#                      then run a short plan-cold scenario benchmark whose
#                      result must report "correct": true
#   ./ci.sh chaos    — distributed-control slice: the full ctrl suite, the
#                      distributed-plane shard bit-identity and fuzz
#                      scenarios, and a CLI convergence + failover smoke
#                      (coordinator crashes mid-run, audit log must export)
set -euo pipefail

TIER="${1:-fast}"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

DEFAULT_DIR=build-ci
EXTRA=()
if [[ "$TIER" == "asan" ]]; then
  DEFAULT_DIR=build-asan
  EXTRA=(-DSCALPEL_SANITIZE=ON)
elif [[ "$TIER" == "ubsan" ]]; then
  DEFAULT_DIR=build-ubsan
  EXTRA=(-DSCALPEL_SANITIZE=undefined)
elif [[ "$TIER" == "tsan" ]]; then
  DEFAULT_DIR=build-tsan
  EXTRA=(-DSCALPEL_SANITIZE=thread)
elif [[ "$TIER" == "perf" ]]; then
  # Timing numbers are only comparable to the committed baseline from a
  # pure-Release build (bench_common/build_info flag Debug and sanitizer
  # builds as unoptimized, and the gate would skip itself).
  DEFAULT_DIR=build-perf
  EXTRA=(-DCMAKE_BUILD_TYPE=Release)
fi
BUILD_DIR="${BUILD_DIR:-$DEFAULT_DIR}"

# The perf tier measures, it doesn't lint (the fast tier already builds with
# -Werror); GCC 12's -O3 also trips a known -Wrestrict false positive in
# libstdc++ string concatenation, so warnings stay non-fatal here.
WERROR=ON
[[ "$TIER" == "perf" ]] && WERROR=OFF

cmake -B "$BUILD_DIR" -S . -DSCALPEL_WERROR="$WERROR" "${EXTRA[@]}"
cmake --build "$BUILD_DIR" -j "$JOBS"

# Observability smoke: record a traced overload run through the CLI and
# check the exported JSON parses and its events reconcile exactly with the
# conservation counters (arrived == completed_all + failed_all + shed_all +
# in_flight_end). Exercises the tracer, audit log, and exporters end to end.
trace_smoke() {
  local cli="$BUILD_DIR/examples/scalpel_cli"
  local dir
  dir="$(mktemp -d)"
  "$cli" topology --preset small_lab --out "$dir/topo.json"
  "$cli" trace --topology "$dir/topo.json" --overload 2.0 --horizon 20 \
    --out "$dir/trace.json" --audit-out "$dir/audit.json" \
    --metrics-out "$dir/metrics.json"
  "$cli" validate-trace --trace "$dir/trace.json" --metrics "$dir/metrics.json"
  rm -rf "$dir"
}

# Observability pipeline smoke: a lossy-fabric failover run with causal
# span tracing, the windowed time-series recorder, and the SLO burn-rate
# monitor all enabled, exported through the CLI, then validate-trace checks
# that the merged Chrome trace parses, the ctrl.* metrics reconcile with the
# span stream (sent == dropped + delivered + dead-lettered + in-flight),
# and the time series is monotone on its cumulative columns.
obs_smoke() {
  local cli="$BUILD_DIR/examples/scalpel_cli"
  local dir
  dir="$(mktemp -d)"
  "$cli" obs-report --horizon 24 --drop 0.15 --coord-mtbf 6 \
    --trace-out "$dir/obs_trace.json" \
    --timeseries-out "$dir/obs_series.json" \
    --metrics-out "$dir/obs_metrics.json" \
    --audit-out "$dir/obs_audit.json"
  "$cli" validate-trace --trace "$dir/obs_trace.json" \
    --metrics "$dir/obs_metrics.json"
  rm -rf "$dir"
}

# One-seed slice of the shard×thread determinism matrix: every scenario
# shape and both plan unit tests, seed index 0 only. Fast enough for every
# push; the full four-seed matrix (label "shard") runs in full/tsan.
shard_slice() {
  "$BUILD_DIR/tests/test_shard" --gtest_filter='Seeds/ShardEquivalenceTest.*/0:ShardEquivalence.*:ShardPlan.*'
}

# Distributed-control slice: every src/ctrl unit/replay test, the
# distributed-plane bit-identity and shard-invariance checks, then a CLI
# run where the coordinator crashes on an MTBF process over a lossy fabric
# and the audit log must come out parseable.
chaos_slice() {
  "$BUILD_DIR/tests/test_ctrl"
  "$BUILD_DIR/tests/test_shard" \
    --gtest_filter='ShardEquivalence.DistributedControlPlaneBitIdentical:ShardFuzz.DistributedPlaneIsShardCountInvariant'
  local cli="$BUILD_DIR/examples/scalpel_cli"
  local dir
  dir="$(mktemp -d)"
  "$cli" topology --preset campus --devices 8 --servers 3 --seed 7 \
    --out "$dir/topo.json"
  "$cli" distributed --topology "$dir/topo.json" --drop 0.2 \
    --coord-mtbf 10 --horizon 40 --audit-out "$dir/audit.json"
  python3 -c "import json,sys; json.load(open(sys.argv[1]))" \
    "$dir/audit.json" 2>/dev/null \
    || grep -q '"cause"' "$dir/audit.json"
  rm -rf "$dir"
}

# Scenario-benchmark smoke: one short plan-cold run (cold joint solve,
# validate_plan() and the accuracy floor on the adopted plan, task
# conservation, bit-identical repetitions). run.py builds its own Release
# tree and runs its logic tests first; the last output line is the JSON
# result, which must say "correct": true.
plan_cold_smoke() {
  local result
  result="$(python3 scenariobench/run.py --workload plan-cold --seed 1 \
    --seconds 5 --trace 0 | tail -n 1)"
  echo "$result"
  python3 -c 'import json, sys; sys.exit(0 if json.loads(sys.argv[1]).get("correct") is True else 1)' \
    "$result" || { echo "plan-cold: result is not correct" >&2; return 1; }
}

case "$TIER" in
  fast|asan|ubsan)
    ctest --test-dir "$BUILD_DIR" -L fast --output-on-failure -j "$JOBS"
    shard_slice
    trace_smoke
    obs_smoke
    ;;
  tsan)
    # The sharded engine's only concurrency is inside the epoch barriers;
    # tsan gets the whole matrix, fuzzer included.
    ctest --test-dir "$BUILD_DIR" -L 'fast|shard' --output-on-failure -j "$JOBS"
    trace_smoke
    ;;
  full)
    ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"
    trace_smoke
    obs_smoke
    ;;
  chaos)
    chaos_slice
    ;;
  perf)
    # Produce a candidate report and gate it against the tracked baseline.
    # bench_simcore exits 1 when ns/event regresses past --tolerance; the
    # candidate JSON is left behind for artifact upload / re-baselining.
    # --shards/--sweep match how the committed baseline is produced, so the
    # sharded section gates too and the metro sweep stays fresh.
    CANDIDATE="${PERF_CANDIDATE:-$BUILD_DIR/BENCH_simcore.candidate.json}"
    "$BUILD_DIR/bench/bench_simcore" \
      --shards 4 --sweep 1000000 \
      --json "$CANDIDATE" \
      --check BENCH_simcore.json \
      --tolerance "${PERF_TOLERANCE:-0.15}"
    # Observability overhead gate: exits 1 if the disabled tracing hooks or
    # the steady-state time-series + SLO sampling cost exceed 2% of the
    # untraced wall time (or the end-to-end diff trips its regression
    # backstop).
    "$BUILD_DIR/bench/bench_obs_overhead"
    plan_cold_smoke
    ;;
  *)
    echo "usage: $0 [fast|full|asan|ubsan|tsan|perf|chaos]" >&2
    exit 2
    ;;
esac
