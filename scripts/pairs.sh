#!/usr/bin/env bash
# The paired-runs rule, scripted: the working tree against PARENT_REF on
# one benchmark workload (or `all` four in turn), N alternating pairs on
# this host, then each end-to-end metric's median and quartiles per side,
# how many pairs the change won, and a verdict against the metric's
# BENCHMARK.json bound: `inside` (the change's median is not worse than
# the parent's by more than the bound), `outside`, or `unresolved` (the
# parent's own q3 - q1 is wider than the bound, so these runs cannot
# tell). Exits non-zero on any `outside` and when the change fails a
# larger share of its operations. A gain is claimed only when the change
# wins at least nine tenths of the pairs and the medians differ by more
# than the parent's q3 - q1, in the better direction: the `gain` column
# says `yes` or `no` by that rule (it does not change the exit status).
#
# Usage: scripts/pairs.sh PARENT_REF WORKLOAD|all [N=10]
#   PAIRS_DIR (default target/pairs) takes the parent's files, the two
#   CARGO_TARGET_DIRs and one result line per run; PAIRS_SEED (default
#   24301) is the first pair's seed, pair k runs both sides on seed + k.
set -euo pipefail
cd "$(dirname "$0")/.."

[ $# -ge 2 ] || { sed -n '2,18p' "$0" >&2; exit 2; }
parent_ref="$1" workloads="$2" n="${3:-10}" seed="${PAIRS_SEED:-24301}"
[ "$n" -ge 2 ] || { echo "pairs.sh: quartiles need at least two pairs" >&2; exit 2; }
if [ "$workloads" = all ]; then
  workloads="$(tr -d ' \n' <BENCHMARK.json | grep -o '"workloads":\[[^]]*\]' |
    grep -o '"name":"[^"]*"' | cut -d'"' -f4)"
fi
mkdir -p "${PAIRS_DIR:-target/pairs}"
dir="$(cd "${PAIRS_DIR:-target/pairs}" && pwd)"

# The parent's committed files in a directory of their own, as the driver
# measures them (an archive, not a worktree: nothing to unregister).
rm -rf "$dir/parent-src"
mkdir -p "$dir/parent-src"
git archive "$parent_ref" | tar -x -C "$dir/parent-src"

run() { # side pair-number
  local src=. out="$dir/$1.$workload.$2.json"
  [ "$1" = parent ] && src="$dir/parent-src"
  (cd "$src" && CARGO_TARGET_DIR="$dir/$1" bash benchmark/run.sh \
    --workload "$workload" --trace 0 --seed "$((seed + $2))") | tail -n 1 >"$out"
  grep -q '"correct":true' "$out" || { echo "pairs.sh: $1 run $2 failed its checks" >&2; exit 1; }
  echo "$workload pair $2 $1: $(grep -o '"failed":[0-9]*' "$out")" >&2
}

status=0
for workload in $workloads; do
  for k in $(seq 1 "$n"); do
    if [ $((k % 2)) -eq 1 ]; then run parent "$k"; run change "$k"; else run change "$k"; run parent "$k"; fi
  done

  # One "side pair metric value" row per reading (operation counts as
  # @attempted / @failed), behind one "metric better-direction bound" row
  # per end-to-end metric of BENCHMARK.json.
  {
    tr -d ' \n' <BENCHMARK.json | grep -o '"end_to_end":\[[^]]*\]' |
      grep -o '"name":"[^"]*","unit":"[^"]*","better":"[^"]*","bound":[0-9.]*' |
      sed 's/"name":"\([^"]*\)".*"better":"\([^"]*\)","bound":\(.*\)/\1 \2 \3/'
    for side in parent change; do
      for k in $(seq 1 "$n"); do
        grep -o '"\(attempted\|failed\)":[0-9]*' "$dir/$side.$workload.$k.json" |
          sed "s/\"\(.*\)\":\(.*\)/$side $k @\1 \2/"
        grep -o '"[a-z0-9_]*":{"value":[^,]*' "$dir/$side.$workload.$k.json" |
          sed "s/\"\(.*\)\":{\"value\":\(.*\)/$side $k \1 \2/"
      done
    done
  } | awk -v n="$n" -v w="$workload" -v ref="$parent_ref" '
    NF == 3 { better[$1] = $2; bound[$1] = $3; order[++metrics] = $1; next }
    $3 ~ /^@/ { ops[$1, $3] += $4; next }
    { v[$1, $3, $2] = $4 }
    # Python statistics.quantiles(n=4), the rule benchmark/src/stats.rs uses.
    function quartiles(side, m,    i, j, k, t, s, d) {
      for (i = 1; i <= n; i++) s[i] = v[side, m, i]
      for (i = 2; i <= n; i++) { t = s[i]; for (j = i - 1; j >= 1 && s[j] > t; j--) s[j + 1] = s[j]; s[j + 1] = t }
      for (k = 1; k <= 3; k++) {
        j = int(k * (n + 1) / 4); if (j < 1) j = 1; if (j > n - 1) j = n - 1
        d = k * (n + 1) - j * 4
        q[k] = (s[j] * (4 - d) + s[j + 1] * d) / 4
      }
    }
    END {
      printf "# %s: change vs %s, %d pairs\n", w, ref, n
      printf "%-24s %14s %14s %14s   %14s %14s %14s  %-12s %-10s %s\n", "metric", "parent median", "q1", "q3", "change median", "q1", "q3", "change wins", "verdict", "gain"
      for (o = 1; o <= metrics; o++) {
        m = order[o]; wins = 0; ties = 0
        for (i = 1; i <= n; i++) {
          p = v["parent", m, i]; c = v["change", m, i]
          if (c == p) ties++; else if ((better[m] == "lower") == (c < p)) wins++
        }
        quartiles("parent", m); pm = q[2]; p1 = q[1]; p3 = q[3]
        quartiles("change", m)
        limit = bound[m] * (pm < 0 ? -pm : pm)
        worse = better[m] == "lower" ? q[2] - pm : pm - q[2]
        verdict = (p3 - p1 > limit) ? "unresolved" : (worse > limit) ? "outside" : "inside"
        if (verdict == "outside") bad = 1
        gain = (wins * 10 >= n * 9 && -worse > p3 - p1) ? "yes" : "no"
        score = sprintf("%d/%d%s", wins, n, ties ? sprintf(" (%d ties)", ties) : "")
        printf "%-24s %14.4f %14.4f %14.4f   %14.4f %14.4f %14.4f  %-12s %-10s %s\n", m, pm, p1, p3, q[2], q[1], q[3], score, verdict, gain
      }
      pf = ops["parent", "@failed"] / ops["parent", "@attempted"]
      cf = ops["change", "@failed"] / ops["change", "@attempted"]
      larger = cf > pf
      printf "%-24s %14.6f %44s %14.6f  %43s %s\n", "failed share", pf, "", cf, "", larger ? "larger" : "no larger"
      exit (bad || larger)
    }' || status=1
done
exit "$status"
