#!/usr/bin/env sh
# Sanitizer smoke: builds the tree with -fsanitize=address,undefined
# (PFAIR_SANITIZE) and runs the tasks/sched/analysis test subset — the
# suites that exercise the flyweight window tables, the shared
# WindowTableCache (its multi-threaded hammer test included), the
# simulator hot paths over them, cycle fast-forward, the profiler's
# thread-local state, the radix-sorted validity/recount analyses, the
# DVQ/staggered engine with its observers, and the hostile-input parsers.
# Any ASan/UBSan report aborts the run (-fno-sanitize-recover=all).
# Usage: scripts/san_smoke.sh [build-dir]   (default build-san)
set -e
cd "$(dirname "$0")/.."
BUILD="${1:-build-san}"

cmake -B "$BUILD" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DPFAIR_SANITIZE=address,undefined >/dev/null
TESTS="tasks_test window_table_test priority_test packed_key_test \
  sfq_test simulator_test ab_equivalence_test analysis_test cycle_test \
  prof_test analysis_linear_test dvq_test staggered_test obs_test io_test \
  parse_test"
# shellcheck disable=SC2086
cmake --build "$BUILD" -j --target $TESTS >/dev/null

for t in $TESTS; do
  echo "san_smoke: $t"
  "$BUILD/tests/$t" --gtest_brief=1
done
echo "san smoke complete — no sanitizer reports"
