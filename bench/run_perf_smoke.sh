#!/usr/bin/env bash
# Perf-smoke driver: runs the gated benchmark rows — the single source of
# truth for what the CI perf-smoke job measures — and checks them against the
# checked-in bench/baseline.json (>25% normalized regression fails; see
# check_regression.py for the comparison model). Writes BENCH_ci.json (the CI
# artifact) into the current directory.
#
# Usage:
#   bench/run_perf_smoke.sh <bench-build-dir>          # gate against baseline
#   bench/run_perf_smoke.sh <bench-build-dir> --seed   # rewrite the baseline
#
# Env knobs: LWSNAP_PERF_REPS (default 5), LWSNAP_PERF_MAX_REGRESSION_PCT
# (default 25).
set -euo pipefail

BUILD_DIR=${1:?usage: bench/run_perf_smoke.sh <bench-build-dir> [--seed]}
MODE=${2:-gate}
HERE=$(cd "$(dirname "$0")" && pwd)
REPS=${LWSNAP_PERF_REPS:-5}
MAX_PCT=${LWSNAP_PERF_MAX_REGRESSION_PCT:-25}

# Gated rows. Small-but-representative: CoW + incremental primitive costs at
# a thin and a fat dirty set, the restore-heavy E13 rows (the
# coalesced-mprotect CoW path and the scan path), the E14 release-storm rows,
# the queens materialize fixture plus its spill-budgeted variant, and the E15
# fault-back microbenchmark at a thin and a fat spilled set. Fast enough to
# repeat $REPS times; medians gate.
SNAPSHOT_FILTER='^BM_CowSnapshot/(8|512)/16$|^BM_IncrementalSnapshot/(8|512)/16$|^BM_CowRestore/(64|512)/16$|^BM_IncrementalRestore/512/16$|^BM_(Cow|Incremental)ReleaseStorm/64/'
STORE_FILTER='^BM_QueensMaterialize(Spill)?$|^BM_SpillFaultback/(256|1024)$'

"$BUILD_DIR/bench_snapshot" \
  --benchmark_filter="$SNAPSHOT_FILTER" \
  --benchmark_repetitions="$REPS" \
  --benchmark_report_aggregates_only=true \
  --benchmark_format=json \
  --benchmark_out=BENCH_ci_snapshot.json

"$BUILD_DIR/bench_shared_store" \
  --benchmark_filter="$STORE_FILTER" \
  --benchmark_repetitions="$REPS" \
  --benchmark_report_aggregates_only=true \
  --benchmark_format=json \
  --benchmark_out=BENCH_ci_store.json

if [ "$MODE" = "--seed" ]; then
  python3 "$HERE/check_regression.py" \
    --write-baseline "$HERE/baseline.json" \
    BENCH_ci_snapshot.json BENCH_ci_store.json
else
  python3 "$HERE/check_regression.py" \
    --baseline "$HERE/baseline.json" \
    --output BENCH_ci.json \
    --max-regression-pct "$MAX_PCT" \
    BENCH_ci_snapshot.json BENCH_ci_store.json
fi
