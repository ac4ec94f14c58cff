#!/usr/bin/env bash
# The full gate: everything that must be green before a change lands.
# Every behavioural check is a Rust test (`cargo test`); this script only
# adds the lints and the benchmark's own tests on top.
# Usage: scripts/check.sh  (run from anywhere; cd's to the repo root)
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --workspace
cargo test -q --workspace
# new_without_default stays named even though -D warnings already covers
# it: every `new()` constructor in the workspace API must keep a Default.
cargo clippy --workspace -- -D warnings -D clippy::new-without-default
cargo fmt --check
# Every intra-doc link resolves: a link to a renamed or deleted item
# fails here, not silently in the rendered docs.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

# The repo benchmark is its own [workspace], so nothing above compiles
# it: build and unit-test it against the crates as they are now, then run
# every workload once at ~1/50 size (checks invariants, measures nothing).
cargo test --offline -q --manifest-path benchmark/Cargo.toml
bash benchmark/run.sh --smoke

echo "gate: all green"
