#!/usr/bin/env sh
# Trace-audit smoke: simulates every paper-figure scenario under every
# model (sfq, dvq, staggered), then re-validates each JSONL trace
# offline with `pfairtrace validate` (the online invariant auditor fed
# from the parsed stream).
# Any finding on these feasible PD2 schedules fails the run.
# Usage: scripts/trace_smoke.sh [build-dir]   (default build)
set -e
cd "$(dirname "$0")/.."
BUILD="${1:-build}"

cmake -B "$BUILD" >/dev/null
cmake --build "$BUILD" -j --target pfairsim pfairtrace >/dev/null

SIM="$BUILD/tools/pfairsim"
TRACE="$BUILD/tools/pfairtrace"
OUT="$BUILD/trace-smoke"
mkdir -p "$OUT"

for fig in fig1a fig1b fig1c fig2 fig3 fig6; do
  for model in sfq dvq stag; do
    f="$OUT/$fig-$model.jsonl"
    # pfairsim's exit code reflects raw tardiness, and fig2/fig3 are
    # *about* sub-quantum lateness under DVQ (legal per Theorem 3, which
    # covers staggered runs too) — the auditor's verdict below is the
    # one that gates this smoke.
    "$SIM" --demo="$fig" --model="$model" --quiet --trace="$f" \
      >/dev/null || true
    echo "trace_smoke: $fig $model"
    "$TRACE" validate --demo="$fig" "$f"
  done
done
echo "trace smoke complete — all figure traces validate clean"
