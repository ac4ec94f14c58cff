#!/usr/bin/env bash
# The equivalence suites over fresh property-test cases: each seed offset
# 1..N runs sharded_equivalence (pse-serve), tests/incremental_store.rs,
# tests/durability.rs and the pse-wal CommitQueue tests in release mode
# with PROPTEST_SEED=seed and PROPTEST_CASES=CASES (the default run is
# offset 0 at 128 cases). Stops at the first failing suite and prints the
# seed that replays it. Not part of `cargo test`: at the defaults it
# takes about 6 minutes on a 2-CPU host.
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
