#!/usr/bin/env bash
# Coverage gate with a ratcheted floor: builds the test suite with gcc
# --coverage, runs it, aggregates gcov line coverage over the library
# sources (src/ only — tests, tools and benches are drivers, not the
# surface being ratcheted), and fails if coverage dropped below the floor.
#
# The floor only moves UP: when a PR raises coverage meaningfully, raise
# COVERAGE_FLOOR here to just below the new figure so later PRs cannot
# silently shed tests.
#
# usage: scripts/coverage_floor.sh [build-dir]   (default build-cov)
set -euo pipefail

# Ratchet: measured 84.5% line coverage (gcc 12 gcov, 14384 src/ lines)
# when introduced; keep a small margin for compiler-version jitter in
# gcov accounting.
FLOOR="${COVERAGE_FLOOR:-82.5}"
BUILD_DIR="${1:-build-cov}"

command -v gcov >/dev/null || { echo "coverage: gcov required" >&2; exit 1; }
command -v python3 >/dev/null || { echo "coverage: python3 required" >&2; exit 1; }

if [ ! -f "$BUILD_DIR/CMakeCache.txt" ]; then
    cmake -B "$BUILD_DIR" -S "$(dirname "$0")/.." \
        -DCMAKE_BUILD_TYPE=Debug \
        -DCMAKE_CXX_FLAGS=--coverage \
        -DCMAKE_EXE_LINKER_FLAGS=--coverage
fi
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" -j "$(nproc)" --output-on-failure

# The gen2 MAC substrate must be exercised by the suite, not merely
# linked: require gcov data for the src/gen2 objects before aggregating.
find "$BUILD_DIR/src" -path '*gen2*' -name '*.gcda' | grep -q . ||
    { echo "coverage: no gcov data for src/gen2 — were the gen2 tests run?" >&2; exit 1; }

# Same for channel construction: the SIMD hash tiers, the dispatch cap and
# the radix sort are covered by tests/simd_parity_test (label `simd`) and
# tests/fastpath_test (label `fastpath`).
for unit in hash_simd simd radix; do
    find "$BUILD_DIR/src" -name "${unit}.cpp.gcda" -o -name "${unit}*.gcda" | grep -q . ||
        { echo "coverage: no gcov data for ${unit}.cpp — were the simd tests run?" >&2; exit 1; }
done

# And for the service observability plane: the flight recorder, the
# kMetrics document renderer, and the Prometheus exposition writer are
# covered by tests/service_test and tests/obs_test (labels service/obs).
for unit in flight metrics_export prom; do
    find "$BUILD_DIR/src" -name "${unit}.cpp.gcda" -o -name "${unit}*.gcda" | grep -q . ||
        { echo "coverage: no gcov data for ${unit}.cpp — were the service/obs tests run?" >&2; exit 1; }
done

# And for the sharded execution plane: the population-affine shard set and
# the deterministic result cache are covered by tests/service_test (the
# byte-identity, isolation, churn-race and eviction cases).
for unit in shard cache; do
    find "$BUILD_DIR/src" -name "${unit}.cpp.gcda" -o -name "${unit}*.gcda" | grep -q . ||
        { echo "coverage: no gcov data for ${unit}.cpp — were the sharding tests run?" >&2; exit 1; }
done

# Sum "Lines executed" over every instrumented object in src/.
find "$BUILD_DIR/src" -name '*.gcda' -print0 |
    xargs -0 gcov -n 2>/dev/null |
    python3 -c '
import re, sys

covered = total = 0.0
for line in sys.stdin:
    m = re.match(r"Lines executed:([0-9.]+)% of (\d+)", line)
    if m:
        total += int(m.group(2))
        covered += float(m.group(1)) / 100.0 * int(m.group(2))
if total == 0:
    sys.exit("coverage: no gcov data found — was the build instrumented?")
pct = 100.0 * covered / total
floor = float(sys.argv[1])
print(f"coverage: {pct:.1f}% of {int(total)} library lines (floor {floor:.1f}%)")
if pct < floor:
    sys.exit(f"coverage: {pct:.1f}% is below the ratcheted floor {floor:.1f}%")
' "$FLOOR"
