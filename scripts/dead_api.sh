#!/usr/bin/env bash
# Dead-API gate: every `pub` fn, struct, enum, const, type and trait in the
# production crates must have a caller outside tests and pdn-oracle, or an
# entry in scripts/dead_api.allow that says why it stays.
#
#   ./scripts/dead_api.sh          # the gate: exit 1 on a dead item missing
#                                  # from the allowlist, or a stale entry
#   ./scripts/dead_api.sh --list   # print every dead item, allowed or not
#
# Callers are counted by name in the non-test code (scripts/nontest.awk,
# the rule loc.sh counts by) of the production crates, pdn-bench (library
# and binaries), examples/ and perfbench/src. `use` statements and the
# self type of an `impl` header are not callers, nor is the declaration
# itself. The scan matches names, so a dead item whose name something else
# uses (`new`, `seal`) is missed; to check one, make it `pub(crate)` in a
# scratch copy and read rustc's `dead_code` warning.
#
# An allowlist line is `FILE ITEM REASON`, where ITEM is `Type::name` for
# an item in an `impl` block and `name` otherwise, and REASON starts with
# its kind: `test-hook:` (an integration test needs it), `oracle-hook:`
# (pdn-oracle needs it) or `paper-item-3:` (a paper experiment ROADMAP
# item 3 renders). An entry whose item has a caller now, or no longer
# exists, is stale and fails the gate, so the list only shrinks.
set -euo pipefail
cd "$(dirname "$0")/.."

allow=scripts/dead_api.allow
crates='simnet|provider|media|webrtc|crypto|detector|core'

# Prints `FILE<TAB>ITEM<TAB>STATE` for every production pub item, STATE
# being `dead` or `live`.
scan() {
  local sources
  mapfile -d '' sources < <(
    find crates/{simnet,provider,media,webrtc,crypto,detector,core}/src \
      crates/bench/src examples perfbench/src \
      -name '*.rs' -not -path 'crates/*/src/bin/*' -print0
    find crates/bench/src/bin -name '*.rs' -print0
  )
  awk -v code=1 -f scripts/nontest.awk "${sources[@]}" | awk -v prod="^crates/(${crates})/src/" '
    BEGIN { FS = "\t" }
    $1 != file { file = $1; depth = 0; frames = 0; pending = ""; in_use = 0 }
    {
      line = substr($0, length(file) + 2)
      counted = line
      # An import or re-export names an item without calling it.
      if (in_use || line ~ /^[ \t]*(pub(\([a-z ]+\))?[ \t]+)?use[ \t]/) {
        in_use = (index(line, ";") == 0)
        counted = ""
      }
      # The self type of an impl header is the item being implemented.
      if (line ~ /^[ \t]*(unsafe[ \t]+)?impl([ \t<]|$)/) {
        head = line
        sub(/^[ \t]*(unsafe[ \t]+)?impl/, "", head)
        if (substr(head, 1, 1) == "<") head = skip_generics(head)
        if (match(head, /[ \t]for[ \t]/)) head = substr(head, RSTART + RLENGTH)
        sub(/^[ \t&]*(mut[ \t]+)?/, "", head)
        if (match(head, /^([A-Za-z_][A-Za-z0-9_]*::)*[A-Za-z_][A-Za-z0-9_]*/)) {
          pending = substr(head, RSTART, RLENGTH)
          sub(/.*::/, "", pending)
          drop[pending]++
        }
      }
      rest = counted
      while (match(rest, /[A-Za-z_][A-Za-z0-9_]*/)) {
        uses[substr(rest, RSTART, RLENGTH)]++
        rest = substr(rest, RSTART + RLENGTH)
      }
      for (name in drop) { uses[name] -= drop[name]; delete drop[name] }
      if (file ~ prod && match(line, /(^|[^A-Za-z0-9_])pub[ \t]+((const|unsafe|async)[ \t]+)*(fn|struct|enum|const|type|trait)[ \t]+[A-Za-z_][A-Za-z0-9_]*/)) {
        name = substr(line, RSTART, RLENGTH)
        sub(/.*[ \t]/, "", name)
        uses[name]--
        n_items++
        item_file[n_items] = file
        item_name[n_items] = name
        item_qual[n_items] = (frames > 0 ? frame_type[frames] "::" : "") name
      }
      # Brace depth, to know which impl block a declaration sits in.
      for (i = 1; i <= length(line); i++) {
        c = substr(line, i, 1)
        if (c == "{") {
          depth++
          if (pending != "") { frames++; frame_type[frames] = pending; frame_depth[frames] = depth; pending = "" }
        } else if (c == "}") {
          if (frames > 0 && frame_depth[frames] == depth) frames--
          depth--
        } else if (c == ";" && pending != "" && depth == 0) pending = ""
      }
    }
    END {
      for (k = 1; k <= n_items; k++)
        print item_file[k] "\t" item_qual[k] "\t" (uses[item_name[k]] > 0 ? "live" : "dead")
    }
    function skip_generics(s,    i, d, c) {
      d = 0
      for (i = 1; i <= length(s); i++) {
        c = substr(s, i, 1)
        if (c == "<") d++
        else if (c == ">" && --d == 0) return substr(s, i + 1)
      }
      return ""
    }
  ' | sort -u
}

items=$(scan)
dead=$(awk -F'\t' '$3 == "dead" { print $1 "\t" $2 }' <<<"${items}")

if [[ "${1:-}" == "--list" ]]; then
  [[ -n "${dead}" ]] && printf '%s\n' "${dead}"
  exit 0
fi

awk -F'\t' '
  FILENAME == "-" { state[$1 " " $2] = $3; next }
  /^[ \t]*(#|$)/ { next }
  {
    split($0, field, /[ \t]+/)
    key = field[1] " " field[2]
    reason = $0
    sub(/^[^ \t]+[ \t]+[^ \t]+[ \t]*/, "", reason)
    if (reason !~ /^(test-hook|oracle-hook|paper-item-3): [^ ]/) {
      print "dead_api.allow:" FNR ": " key ": reason must start with test-hook:, oracle-hook: or paper-item-3:" > "/dev/stderr"
      bad = 1
    }
    if (key in listed) {
      print "dead_api.allow:" FNR ": " key " is listed twice" > "/dev/stderr"
      bad = 1
    }
    listed[key] = 1
    if (!(key in state)) {
      print "stale allowlist entry (no such pub item): " key > "/dev/stderr"
      bad = 1
    } else if (state[key] == "live") {
      print "stale allowlist entry (it has a caller now; delete the entry): " key > "/dev/stderr"
      bad = 1
    }
  }
  END {
    for (key in state) if (state[key] == "dead" && !(key in listed)) {
      print "dead pub item (no caller outside tests and pdn-oracle; delete it, or allowlist it with a reason): " key > "/dev/stderr"
      bad = 1
    }
    exit bad
  }
' - "${allow}" <<<"${items}"
