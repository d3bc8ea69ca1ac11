#!/usr/bin/env bash
# perf_slo_check.sh — the perf-qualification gate CI runs on every PR.
#
# Regenerates the trend-tracked experiment tables, diffs them against the
# committed baseline (exit 2 past LEGION_BENCH_DRIFT_MAX), and checks the
# LEGION_PERF_* absolute ceilings (exit 3 on violation). The JSON tables
# land in $OUT for artifact upload either way.
#
# Environment:
#   BASELINE                      baseline -json file (default BENCH_PR8.json)
#   OUT                           output JSON path (default bench_current.json)
#   EXPERIMENTS                   IDs to run (default E6,E10,E13,E14,E15)
#   LEGION_BENCH_DRIFT_MAX        relative drift gate, e.g. 0.5 (unset = report only)
#   LEGION_PERF_QUERY_10K_US_MAX  ceiling for E8 indexed query over 10k hosts (µs)
#   LEGION_PERF_E13_BINARY_WALL_MS_MAX  ceiling for E13's codec-boundary campaign wall (ms)
#   (full ceiling list: cmd/legion-bench/slo.go)
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE="${BASELINE:-BENCH_PR8.json}"
OUT="${OUT:-bench_current.json}"
EXPERIMENTS="${EXPERIMENTS:-E6,E10,E13,E14,E15}"
BIN="$(mktemp -d)/legion-bench"

go build -o "${BIN}" ./cmd/legion-bench

echo "== perf gate: running ${EXPERIMENTS} =="
"${BIN}" -run "${EXPERIMENTS}" -json > "${OUT}"

status=0

echo "== drift vs ${BASELINE} (LEGION_BENCH_DRIFT_MAX=${LEGION_BENCH_DRIFT_MAX:-unset}) =="
"${BIN}" -input "${OUT}" -compare "${BASELINE}" || status=$?

echo "== absolute SLO ceilings =="
"${BIN}" -input "${OUT}" -slo || s=$?
if [ "${s:-0}" -ne 0 ]; then status=${s}; fi

echo "== perf gate exit ${status} (tables: ${OUT}) =="
exit "${status}"
