#!/bin/sh
# Developer pre-submit check: static analysis (tools/lint.py, the Clang
# -Wthread-safety capability analysis, clang-tidy), Debug build with
# ASan+UBSan, full test suite, then a ThreadSanitizer pass over the
# concurrency-sensitive tests (thread pool, PPR cache, observability
# registry, parallel tester).
#
#   tools/check.sh [build-dir] [tsan-build-dir] [chaos-build-dir]
#
# Build directories default to build-asan/, build-tsan/, build-chaos/ and
# build-analyze/ next to the source tree and are reused across runs
# (delete to force a clean configure). Set EMIGRE_SKIP_TSAN=1 to skip the
# TSan stage, EMIGRE_SKIP_CHAOS=1 to skip the fault-injection stage, and
# EMIGRE_SKIP_ANALYZE=1 to skip the thread-safety analysis stage. The
# analyze stage needs a Clang frontend: point EMIGRE_CLANGXX at one, or it
# is found on PATH; without one the stage is skipped with a notice — or
# fails hard when $CI is set, so the analysis can never silently rot out
# of CI.
set -e

SRC_DIR=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
BUILD_DIR="${1:-$SRC_DIR/build-asan}"
TSAN_BUILD_DIR="${2:-$SRC_DIR/build-tsan}"
CHAOS_BUILD_DIR="${3:-$SRC_DIR/build-chaos}"
ANALYZE_BUILD_DIR="${EMIGRE_ANALYZE_BUILD_DIR:-$SRC_DIR/build-analyze}"
JOBS=$(nproc 2>/dev/null || echo 4)

# The concurrency-sensitive tests. This single list drives both the TSan
# build targets and the ctest selection below — keep it the only copy.
TSAN_TESTS="util_mutex_test util_thread_pool_test ppr_cache_test \
obs_metrics_test obs_trace_test explain_parallel_tester_test \
explain_emigre_test"

# Static analysis first: it is the cheapest stage and fails fastest.
python3 "$SRC_DIR/tools/lint.py"
echo "check.sh: tools/lint.py clean"

# Thread-safety capability analysis (docs/static_analysis.md): a Clang
# configure turns the GUARDED_BY/REQUIRES annotations into hard errors
# (-Werror=thread-safety, set by CMakeLists.txt for Clang) and registers
# the negative-compile tests that prove the analysis rejects seeded
# violations.
if [ "${EMIGRE_SKIP_ANALYZE:-0}" = "1" ]; then
  echo "check.sh: EMIGRE_SKIP_ANALYZE=1, skipping thread-safety analysis"
else
  CLANGXX="${EMIGRE_CLANGXX:-}"
  if [ -z "$CLANGXX" ]; then
    for candidate in clang++ clang++-18 clang++-17 clang++-16 clang++-15 \
        clang++-14; do
      if command -v "$candidate" >/dev/null 2>&1; then
        CLANGXX="$candidate"
        break
      fi
    done
  fi
  if [ -z "$CLANGXX" ]; then
    if [ -n "${CI:-}" ]; then
      echo "check.sh: FATAL: no clang++ found and CI is set —" \
           "the thread-safety analysis must run in CI" >&2
      exit 1
    fi
    echo "check.sh: notice: no clang++ found, skipping thread-safety" \
         "analysis (set EMIGRE_CLANGXX to enable)"
  else
    cmake -B "$ANALYZE_BUILD_DIR" -S "$SRC_DIR" \
      -DCMAKE_BUILD_TYPE=Release \
      -DCMAKE_CXX_COMPILER="$CLANGXX"
    cmake --build "$ANALYZE_BUILD_DIR" -j "$JOBS"
    ctest --test-dir "$ANALYZE_BUILD_DIR" --output-on-failure -j "$JOBS" \
      -R "^negcompile_"
    echo "check.sh: thread-safety analysis clean ($CLANGXX)"
  fi
fi

cmake -B "$BUILD_DIR" -S "$SRC_DIR" \
  -DCMAKE_BUILD_TYPE=Debug \
  -DEMIGRE_SANITIZE="address;undefined"
# The tidy target uses the compilation database of whichever build tree
# runs it; it degrades to a notice when clang-tidy is not installed.
cmake --build "$BUILD_DIR" --target tidy
cmake --build "$BUILD_DIR" -j "$JOBS"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"
echo "check.sh: all tests passed under ASan/UBSan"

if [ "${EMIGRE_SKIP_TSAN:-0}" = "1" ]; then
  echo "check.sh: EMIGRE_SKIP_TSAN=1, skipping ThreadSanitizer stage"
  exit 0
fi

# TSan is incompatible with ASan, so it gets its own build tree. Only the
# tests that exercise cross-thread state run here — the full suite under
# TSan is slow and the serial tests add no coverage.
TSAN_REGEX=$(echo "$TSAN_TESTS" | tr -s ' ' '|')

cmake -B "$TSAN_BUILD_DIR" -S "$SRC_DIR" \
  -DCMAKE_BUILD_TYPE=Debug \
  -DEMIGRE_SANITIZE="thread"
# shellcheck disable=SC2086  # word splitting is the point
cmake --build "$TSAN_BUILD_DIR" -j "$JOBS" --target $TSAN_TESTS
ctest --test-dir "$TSAN_BUILD_DIR" --output-on-failure -j "$JOBS" \
  -R "^($TSAN_REGEX)\$"
echo "check.sh: concurrency tests passed under TSan"

if [ "${EMIGRE_SKIP_CHAOS:-0}" = "1" ]; then
  echo "check.sh: EMIGRE_SKIP_CHAOS=1, skipping fault-injection stage"
  exit 0
fi

# Fault-injection stage (docs/robustness.md): compile every
# EMIGRE_FAULT_POINT site in, run the suite with the sites live, then
# replay the fixed-seed chaos soak through the CLI.
cmake -B "$CHAOS_BUILD_DIR" -S "$SRC_DIR" \
  -DCMAKE_BUILD_TYPE=Release \
  -DEMIGRE_FAULT_INJECTION=ON
cmake --build "$CHAOS_BUILD_DIR" -j "$JOBS"
ctest --test-dir "$CHAOS_BUILD_DIR" --output-on-failure -j "$JOBS"
"$CHAOS_BUILD_DIR/tools/emigre" chaos --seeds 20 --base-seed 20240416
echo "check.sh: chaos soak passed with fault injection live"
