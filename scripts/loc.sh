#!/usr/bin/env bash
# Non-test lines per production crate: each source file counts its lines
# up to its first `#[cfg(test)]` (the unit-test module sits at the end of
# a file by convention); binaries under src/bin are excluded.
# Run from anywhere: ./scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for crate in simnet provider media webrtc crypto detector core; do
  n=$(find "crates/${crate}/src" -name '*.rs' -not -path '*/src/bin/*' -print0 \
    | sort -z \
    | xargs -0 awk '
        FNR == 1 { counting = 1 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
        counting { n++ }
        END { print n + 0 }
      ')
  printf '%-10s %6d\n' "${crate}" "${n}"
  total=$((total + n))
done
printf '%-10s %6d\n' total "${total}"
