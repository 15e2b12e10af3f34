#!/usr/bin/env bash
# Tier-1 gate: full build + test suite, then the parallel-engine
# equivalence and thread-pool tests again under ThreadSanitizer.
# Run from the repository root: tools/tier1.sh
set -euo pipefail

cd "$(dirname "$0")/.."

echo "=== tier1: standard build ==="
cmake -B build -S . >/dev/null
cmake --build build -j
ctest --test-dir build --output-on-failure

echo "=== tier1: ThreadSanitizer build (parallel tests) ==="
cmake -B build-tsan -S . -DDMTL_SANITIZE=thread >/dev/null
cmake --build build-tsan -j --target dmtl_tests
ctest --test-dir build-tsan --output-on-failure -R "ThreadPool|Parallel|JoinPlan|PlannerFuzz|IntervalDelta|DeltaFuzz|Guard|FaultInjection|SymbolTable|Snapshot"

echo "tier1: OK"
