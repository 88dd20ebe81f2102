#!/usr/bin/env bash
# Non-test Rust lines outside benchmark/: what precedes a file's first
# `#[cfg(test)]`, over crates/*/src and src. "code" leaves out blank and
# comment-only lines, so a deleted comment does not read as deleted code.
#   tools/lines.sh          totals of the working tree
#   tools/lines.sh REF      the same, then every file that differs from REF
# Exits 1 when the total exceeds tools/lines.max (the ratchet CI holds;
# lower it when a PR removes code), or when a counted file has an item at
# column 0 below its first `#[cfg(test)]` other than the one that
# attribute gates: code the count cannot see.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

sources() { grep -E '^(crates/[^/]+/)?src/.*\.rs$'; }
count() { # a Rust file on stdin -> "lines code"
  awk '/#\[cfg\(test\)\]/ { exit }
       { n++; if ($0 !~ /^[[:space:]]*(\/\/.*)?$/) c++ }
       END { print n + 0, c + 0 }'
}
hidden() { # a Rust file -> "hidden file:line: item" per uncounted item
  awk '/#\[cfg\(test\)\]/ { seen = 1; gated = /^#\[cfg\(test\)\]/; next }
       seen && /^(pub(\([^)]*\))? )?(fn|struct|enum|impl|const|static|mod|use)[ <]/ {
         if (gated) gated = 0
         else if ($0 !~ /^(pub(\([^)]*\))? )?(mod|use) /) print "hidden " FILENAME ":" FNR ": " $0
       }' "$1"
}

{
  git ls-files | sources | while read -r f; do
    if [ -f "$f" ]; then echo "now $f $(count < "$f")"; hidden "$f"; fi
  done
  if [ $# -gt 0 ]; then
    git ls-tree -r --name-only "$1" | sources | while read -r f; do
      echo "ref $f $(git show "$1:$f" | count)"
    done
  fi
} | awk -v ref="${1:-}" -v max="$(cat tools/lines.max)" '
  $1 == "now" { now[$2] = $3; nowc[$2] = $4; seen[$2] = 1; total += $3; code += $4 }
  $1 == "ref" { was[$2] = $3; wasc[$2] = $4; seen[$2] = 1; rtotal += $3; rcode += $4 }
  $1 == "hidden" { sub(/^hidden /, ""); print "not counted, below #[cfg(test)]: " $0; bad = 1 }
  END {
    printf "non-test lines: %d (code %d); tools/lines.max %d\n", total, code, max
    if (total > max) bad = 1
    if (ref != "") {
      printf "at %s: %d (code %d); change %+d (code %+d)\n", ref, rtotal, rcode, total - rtotal, code - rcode
      for (f in seen) if (now[f] != was[f] || nowc[f] != wasc[f])
        printf "%+6d  (code %+5d)  %5d -> %5d  %s\n", now[f] - was[f], nowc[f] - wasc[f], was[f], now[f], f | "sort -k6"
    }
    exit bad
  }'
