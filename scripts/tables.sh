#!/usr/bin/env bash
# "Tables 2-4 and Figs. 6-9 must reproduce bit-for-bit", as one command:
# the working tree against PARENT_REF, `experiments all` and
# `experiments all-ablations` on both sides, every written file and the
# captured stdout compared byte for byte. Exits non-zero at the first
# difference. The experiments' timing chatter goes to stderr and --quiet
# silences it, so nothing that is compared depends on the clock.
#
# Usage: scripts/tables.sh PARENT_REF [--smoke]
#   TABLES_DIR (default target/tables) takes the parent's files, the two
#   CARGO_TARGET_DIRs and each side's outputs; --smoke runs the experiments
#   at their smoke scale (seconds) instead of the default 60,000 offers.
set -euo pipefail
cd "$(dirname "$0")/.."

[ $# -ge 1 ] || { sed -n '2,12p' "$0" >&2; exit 2; }
parent_ref="$1" scale="${2:-}"
[ -z "$scale" ] || [ "$scale" = --smoke ] || { echo "tables.sh: unknown argument $scale" >&2; exit 2; }
mkdir -p "${TABLES_DIR:-target/tables}"
dir="$(cd "${TABLES_DIR:-target/tables}" && pwd)"

# The parent's committed files in a directory of their own (an archive,
# not a worktree: nothing to unregister).
rm -rf "$dir/parent-src" "$dir/parent-out" "$dir/change-out"
mkdir -p "$dir/parent-src"
git archive "$parent_ref" | tar -x -C "$dir/parent-src"

for side in parent change; do
  src=.
  [ "$side" = parent ] && src="$dir/parent-src"
  (cd "$src" && CARGO_TARGET_DIR="$dir/$side" cargo build --release --offline --quiet -p pse-bench --bin experiments)
  for cmd in all all-ablations; do
    mkdir -p "$dir/$side-out/$cmd"
    echo "tables.sh: $side: experiments $cmd $scale" >&2
    "$dir/$side/release/experiments" "$cmd" --quiet $scale --out "$dir/$side-out/$cmd" \
      >"$dir/$side-out/$cmd.stdout"
  done
done

# Both directions: a file only one side wrote is a difference too.
(cd "$dir/parent-out" && find . -type f | sort) >"$dir/parent.files"
(cd "$dir/change-out" && find . -type f | sort) >"$dir/change.files"
cmp "$dir/parent.files" "$dir/change.files"
while read -r file; do
  cmp "$dir/parent-out/$file" "$dir/change-out/$file"
done <"$dir/parent.files"
echo "tables.sh: $(wc -l <"$dir/parent.files") files identical to $parent_ref"
