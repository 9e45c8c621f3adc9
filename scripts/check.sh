#!/usr/bin/env bash
# Full verification sweep: warning-free (-Werror) Release build + complete
# ctest, the release bench_sort_topn byte-identity gate and the
# bench_ablation join-arm and runtime-filter agreement gate, then ASan and
# TSan builds running the concurrency/fault/differential/trace/hash/
# optimizer/governor/serving/sort/MPP/executor/SQL/storage suites (ctest
# labels: parallel, fault, diff, trace, hash, expr, opt, govern, serve,
# share, sort, mpp, exec, sql, storage). This is the recipe the
# observability and parallelism PRs are gated on; run it from the repo root.
# Set JOBS to bound parallelism (defaults to nproc).
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"
LABELS='parallel|fault|diff|trace|hash|expr|opt|govern|serve|share|sort|mpp|exec|sql|storage'

echo "== Release build (-Werror) + full test suite =="
# Warning-free under the project's -Wall -Wextra, and kept so: a new
# warning fails the sweep.
cmake -B build -S . -DCMAKE_BUILD_TYPE=Release -DCMAKE_CXX_FLAGS=-Werror \
      >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "== Sort byte-identity gate: bench_sort_topn (1M rows) =="
# Its exit code says every arm's ordered checksum matched its baseline (the
# tests/sort_oracle.h stable_sort for full sorts). It writes BENCH_sort.json
# into its working directory, so it runs in a temporary one.
repo="$PWD"
bench_dir="$(mktemp -d)"
trap 'rm -rf "$bench_dir"' EXIT
(cd "$bench_dir" && "$repo/build/bench/bench_sort_topn")

echo "== Join index and runtime filter gate: bench_ablation =="
# Its exit code says the partitioned-hash and direct-address join arms
# (2M-row build) built the index each is meant to measure and agreed on
# their row count and checksum, and that the 1M-row scan's no-filter,
# Bloom and dense runtime-filter arms agreed on theirs, the dense arm
# having taken the dense filter.
(cd "$bench_dir" && "$repo/build/bench/bench_ablation")

echo "== ASan build: labels $LABELS =="
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DENABLE_ASAN=ON >/dev/null
cmake --build build-asan -j "$JOBS"
ctest --test-dir build-asan --output-on-failure -j "$JOBS" -L "$LABELS"

echo "== TSan build: labels $LABELS =="
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DENABLE_TSAN=ON >/dev/null
cmake --build build-tsan -j "$JOBS"
ctest --test-dir build-tsan --output-on-failure -j "$JOBS" -L "$LABELS"

echo "== all checks passed =="
