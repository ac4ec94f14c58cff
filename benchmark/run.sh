#!/usr/bin/env bash
# The repo benchmark's one command. Builds the standalone package in
# benchmark/ and runs its workloads, each in its own process.
#
#   benchmark/run.sh                      all four workloads, untraced then traced
#   benchmark/run.sh --workload W --seed S --seconds N --trace 0|1
#                                         one run of one workload (the driver's form);
#                                         the last stdout line is the result object
#   benchmark/run.sh --trace [0|1]        all four workloads, only that kind of run
#   benchmark/run.sh --smoke              all four at ~1/50 size in under 30 s; not a measurement
#   benchmark/run.sh --repeat N --check   N full untraced sets on seeds S, S+1, …; prints each
#                                         end-to-end metric's median, quartiles and spread and
#                                         exits non-zero if a spread exceeds the metric's bound
#
# Results are stamped and written under $CARGO_TARGET_DIR/benchmark
# (default target/benchmark), never into a tracked file.
set -euo pipefail
cd "$(dirname "$0")/.."

workload="" seed=24301 seconds="" trace="" smoke="" repeat="" check=""
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace)
      case "${2:-}" in 0|1) trace="$2"; shift 2 ;; *) trace=1; shift ;; esac ;;
    --smoke) smoke=1; shift ;;
    --repeat) repeat="$2"; shift 2 ;;
    --check) check=1; shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

target="${CARGO_TARGET_DIR:-target}"
out="$target/benchmark"
# The load model: 2 pipeline threads, observability off.
export PSE_THREADS=2
unset PSE_OBS

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
bin="$target/release/pse-benchmark"

run() { # workload trace seed out-dir
  "$bin" --workload "$1" --trace "$2" --seed "$3" --out "$4" --spec BENCHMARK.json \
    ${seconds:+--seconds "$seconds"} ${smoke:+--smoke}
}

if [ -n "$smoke" ] && [ -z "$seconds" ]; then seconds=1; fi
workloads="${workload:-synth_batch read_mix search_mix ingest_churn}"

if [ -n "$repeat" ]; then
  sets=()
  mkdir -p "$out/repeat"
  for k in $(seq 1 "$repeat"); do
    dir="$out/repeat/$k"
    for w in $workloads; do
      echo "## set $k of $repeat: $w seed $((seed + k - 1))" >&2
      run "$w" 0 "$((seed + k - 1))" "$dir" >"$dir.$w.log" 2>&1 || { cat "$dir.$w.log" >&2; exit 1; }
    done
    sets+=("$dir")
  done
  if [ -n "$check" ]; then exec "$bin" --summarize BENCHMARK.json "${sets[@]}"; fi
  exit 0
fi

for w in $workloads; do
  for t in ${trace:-0 1}; do
    run "$w" "$t" "$seed" "$out"
  done
done
