#!/usr/bin/env bash
# The equivalence suites over fresh property-test cases: each seed offset
# 1..N runs sharded_equivalence (pse-serve), tests/incremental_store.rs,
# tests/durability.rs, the pse-wal CommitQueue tests, the pse-obs sink's
# thread-count determinism suite (parallel_determinism) and pse-synthesis's
# properties (the fusion kernel against its Appendix A reference) in
# release mode with PROPTEST_SEED=seed and PROPTEST_CASES=CASES (the
# default run is offset 0 at 128 cases). Each seed also repeats the
# durable write path's tests (pse-serve's durable_server and its
# `durable::` unit tests: the fold a crossing commit runs, the poisons),
# which hold no property tests but show a timing flake when run often.
# Stops at the first failing suite and prints the seed that replays it.
# Not part of `cargo test`: at the defaults it takes about 6 minutes on
# a 2-CPU host.
#
# Usage: scripts/soak.sh [N=5] [CASES=1280]
set -euo pipefail
cd "$(dirname "$0")/.."

n="${1:-5}" cases="${2:-1280}"
suites=(
  "-p pse-serve --test sharded_equivalence"
  "-p product-synthesis --test incremental_store"
  "-p product-synthesis --test durability"
  "-p pse-wal --lib group::"
  "-p pse-obs --test parallel_determinism"
  "-p pse-synthesis --test properties"
  "-p pse-serve --test durable_server"
  "-p pse-serve --lib durable::"
)

# Build every suite once up front, so the seeds time only the tests.
for suite in "${suites[@]}"; do
  # shellcheck disable=SC2086
  cargo test --release --offline --quiet $suite --no-run
done

for seed in $(seq 1 "$n"); do
  for suite in "${suites[@]}"; do
    echo "soak.sh: PROPTEST_SEED=$seed PROPTEST_CASES=$cases cargo test $suite" >&2
    # shellcheck disable=SC2086
    if ! PROPTEST_SEED="$seed" PROPTEST_CASES="$cases" \
      cargo test --release --offline --quiet $suite; then
      echo "soak.sh: FAILED at PROPTEST_SEED=$seed PROPTEST_CASES=$cases: cargo test $suite" >&2
      exit 1
    fi
  done
done
echo "soak.sh: $n seeds x ${#suites[@]} suites at $cases cases: green" >&2
