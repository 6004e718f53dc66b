#!/usr/bin/env bash
# Non-test lines per production crate: each source file counts every line
# outside its `#[cfg(test)]` items, each skipped from the attribute to the
# brace that closes it (scripts/nontest.awk, the rule dead_api.sh reads
# code by); binaries under src/bin are excluded.
#
#   ./scripts/loc.sh         # the working tree
#   ./scripts/loc.sh REV     # REV (any git revision) beside the working
#                            # tree, with the change per crate
#
# REV is read with `git archive` into a temporary directory, so the
# working tree is never touched; both trees are counted by this tree's
# rule. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

crates=(simnet provider media webrtc crypto detector core)

# Prints one count per crate, in `crates` order, for the tree at $1.
count_tree() {
  local root="$1" crate
  for crate in "${crates[@]}"; do
    find "${root}/crates/${crate}/src" -name '*.rs' -not -path '*/src/bin/*' -print0 \
      | sort -z \
      | xargs -0 awk -f scripts/nontest.awk \
      | wc -l
  done
}

mapfile -t after < <(count_tree .)

if (($# == 0)); then
  total=0
  for i in "${!crates[@]}"; do
    printf '%-10s %6d\n' "${crates[i]}" "${after[i]}"
    total=$((total + after[i]))
  done
  printf '%-10s %6d\n' total "${total}"
  exit 0
fi

rev="$1"
tmp=$(mktemp -d)
trap 'rm -rf "${tmp}"' EXIT
git archive "${rev}" crates | tar -x -C "${tmp}"
mapfile -t before < <(count_tree "${tmp}")

printf '%-10s %8s %8s %7s\n' crate "${rev:0:8}" current change
total_before=0
total_after=0
for i in "${!crates[@]}"; do
  printf '%-10s %8d %8d %+7d\n' "${crates[i]}" "${before[i]}" "${after[i]}" \
    $((after[i] - before[i]))
  total_before=$((total_before + before[i]))
  total_after=$((total_after + after[i]))
done
printf '%-10s %8d %8d %+7d\n' total "${total_before}" "${total_after}" \
  $((total_after - total_before))
