#!/bin/bash
# Non-test lines of every source file under crates/*/src — the lines up to
# the file's test module, i.e. its first `#[cfg(test)]` that a `mod` follows
# (all of them when it has none; a `#[cfg(test)]` on a lone function or
# import does not end the count) — next to its total, with one subtotal per
# crate: the number a simplicity PR reports. `scripts/loc.sh <rev>` counts
# the files of a git revision instead of the working tree.
set -euo pipefail
cd "$(dirname "$0")/.."

REV="${1:-}"
if [[ -n "$REV" ]]; then
  list() { git ls-tree -r --name-only "$REV" -- crates | grep -E '^crates/[^/]+/src/.*\.rs$'; }
  show() { git show "$REV:$1"; }
else
  list() { find crates/*/src -name '*.rs' | sort; }
  show() { cat "$1"; }
fi

list | while read -r file; do
  show "$file" | awk -v file="$file" '
    gated && !cut && /^[[:space:]]*(pub(\([a-z]+\))? +)?mod[[:space:]]/ { cut = gated - 1 }
    { gated = /^[[:space:]]*#\[cfg\(test\)\]/ ? NR : (gated && /^[[:space:]]*#\[/ ? gated : 0) }
    END { print file, (cut ? cut : NR), NR }'
done | awk '
  {
    split($1, parts, "/"); crate = parts[2]
    printf "%-44s %6d %6d\n", $1, $2, $3
    code[crate] += $2; all[crate] += $3
  }
  END {
    print ""
    for (crate in code)
      printf "%-44s %6d %6d\n", "crates/" crate "/src", code[crate], all[crate] | "sort"
  }'
