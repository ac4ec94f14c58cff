#!/usr/bin/env bash
# Tier-1 gate: everything that must be green before a change lands.
# Usage: scripts/check.sh  (run from anywhere; cd's to the repo root)
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --workspace
cargo test -q --workspace
# new_without_default stays named even though -D warnings already covers
# it: every `new()` constructor in the workspace API must keep a Default.
cargo clippy --workspace -- -D warnings -D clippy::new-without-default
cargo fmt --check

# Observability smoke: one instrumented pipeline run must produce a
# target/OBS_REPORT.json that passes schema validation (required stage
# spans and counters present, no NaN/negative durations).
PSE_OBS=1 cargo run --release -q -p pse-bench --bin experiments -- \
    table2 --smoke --quiet --obs --out target/check-results
cargo run --release -q -p pse-bench --bin obs_check

# Incremental smoke: replay the Table-2 corpus through the persistent store
# in 4 batches. The subcommand exits non-zero if the store's products diverge
# from a one-shot RuntimePipeline::process over the same corpus, and the
# obs_check run validates the store.* spans and counters in the report.
PSE_OBS=1 cargo run --release -q -p pse-bench --bin experiments -- \
    incremental --smoke --quiet --obs --batches 4 --out target/check-results
cargo run --release -q -p pse-bench --bin obs_check

# Serving smoke: start the sharded HTTP server on an ephemeral port, drive
# it over real sockets (healthz, a second-half ingest, point lookups, then
# graceful shutdown), and validate the serve.* spans and counters in the
# observability report.
rm -f target/check-results/serve.port
PSE_OBS=1 cargo run --release -q -p pse-bench --bin experiments -- \
    serve --smoke --quiet --obs --shards 4 \
    --port-file target/check-results/serve.port --out target/check-results &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT
for _ in $(seq 1 150); do
    [ -s target/check-results/serve.port ] && break
    sleep 0.2
done
[ -s target/check-results/serve.port ] || {
    echo "serve smoke: server never wrote its port file" >&2
    exit 1
}
ADDR="$(cat target/check-results/serve.port)"
http_get() { cargo run --release -q -p pse-serve --bin http_get -- "$@"; }
http_get GET "http://$ADDR/healthz"
http_get POST "http://$ADDR/ingest" @target/check-results/serve_batch.json >/dev/null
head -3 target/check-results/serve_queries.txt | while read -r q; do
    http_get GET "http://$ADDR$q" >/dev/null
done
http_get GET "http://$ADDR/metrics" >/dev/null
# Structured search over a real socket: any query must come back as the
# typed envelope (interpretation + ranked hits), even when nothing matches.
http_get GET "http://$ADDR/search?q=usb&k=3" | grep -q '"hits":' || {
    echo "serve smoke: /search returned no typed envelope" >&2
    exit 1
}
# Flight recorder over real sockets: the requests above must be visible
# in /debug/requests, and one of their ids must resolve via /debug/trace.
DEBUG_JSON="$(http_get GET "http://$ADDR/debug/requests")"
printf '%s' "$DEBUG_JSON" | grep -q '"recorded":' || {
    echo "serve smoke: /debug/requests returned no recorder state" >&2
    exit 1
}
TRACE_ID="$(printf '%s' "$DEBUG_JSON" | sed -n 's/.*"id":"\([0-9a-f]\{1,16\}\)".*/\1/p' | head -1)"
[ -n "$TRACE_ID" ] || {
    echo "serve smoke: /debug/requests listed no trace ids" >&2
    exit 1
}
http_get GET "http://$ADDR/debug/trace/$TRACE_ID" | grep -q '"spans":' || {
    echo "serve smoke: /debug/trace/$TRACE_ID returned no span tree" >&2
    exit 1
}
http_get POST "http://$ADDR/shutdown" >/dev/null
wait "$SERVE_PID"
cargo run --release -q -p pse-bench --bin obs_check

# Crash drill: serve durably (WAL + segmented snapshots), ingest over the
# wire, then SIGKILL the server — no graceful shutdown, no final fold.
# The read-only wal-replay oracle rebuilds what the crashed directory
# proves was committed, the restarted server recovers from the same
# directory, and every /products/{category} response must be
# byte-identical to the oracle's.
rm -rf target/check-results/drill-wal target/check-results/drill_expected
rm -f target/check-results/drill.port target/check-results/drill-restart.port
cargo run --release -q -p pse-bench --bin experiments -- \
    serve --smoke --quiet --wal-dir target/check-results/drill-wal \
    --compact-bytes 65536 --shards 4 \
    --port-file target/check-results/drill.port --out target/check-results &
DRILL_PID=$!
trap 'kill -9 "$DRILL_PID" 2>/dev/null || true' EXIT
for _ in $(seq 1 150); do
    [ -s target/check-results/drill.port ] && break
    sleep 0.2
done
[ -s target/check-results/drill.port ] || {
    echo "crash drill: server never wrote its port file" >&2
    exit 1
}
ADDR="$(cat target/check-results/drill.port)"
http_get POST "http://$ADDR/ingest" @target/check-results/serve_batch.json >/dev/null
http_get GET "http://$ADDR/healthz" >/dev/null
kill -9 "$DRILL_PID"
wait "$DRILL_PID" 2>/dev/null || true

cargo run --release -q -p pse-bench --bin experiments -- \
    wal-replay --smoke --quiet --wal-dir target/check-results/drill-wal \
    --out target/check-results
test -s target/check-results/drill_expected/categories.txt

PSE_OBS=1 cargo run --release -q -p pse-bench --bin experiments -- \
    serve --smoke --quiet --obs --wal-dir target/check-results/drill-wal \
    --compact-bytes 65536 --shards 4 \
    --port-file target/check-results/drill-restart.port --out target/check-results &
DRILL_PID=$!
for _ in $(seq 1 150); do
    [ -s target/check-results/drill-restart.port ] && break
    sleep 0.2
done
[ -s target/check-results/drill-restart.port ] || {
    echo "crash drill: restarted server never wrote its port file" >&2
    exit 1
}
ADDR="$(cat target/check-results/drill-restart.port)"
while read -r c; do
    http_get GET "http://$ADDR/products/$c" > target/check-results/drill_got.json
    cmp -s target/check-results/drill_got.json \
        "target/check-results/drill_expected/cat_$c.json" || {
        echo "crash drill: /products/$c diverged from the wal-replay oracle" >&2
        exit 1
    }
done < target/check-results/drill_expected/categories.txt
http_get POST "http://$ADDR/shutdown" >/dev/null
wait "$DRILL_PID"
cargo run --release -q -p pse-bench --bin obs_check

# The repo benchmark is its own [workspace], so nothing above compiles
# it: build and unit-test it against the crates as they are now, then run
# every workload once at ~1/50 size (checks invariants, measures nothing).
cargo test --offline -q --manifest-path benchmark/Cargo.toml
bash benchmark/run.sh --smoke

echo "tier-1 gate: all green"
