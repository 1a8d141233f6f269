#!/usr/bin/env bash
# Non-test Rust lines under crates/*/src: each file counts up to (and
# including) its first `#[cfg(test)]` line at column 0 (the test module; an
# indented one gates a field or a statement), or whole if it has none.
# Prints one line per file, then one per crate, then the total — the number
# every simplicity PR compares between parent and change.
#
#   scripts/loc.sh [--crates] [checkout]
#
# --crates drops the per-file lines; `checkout` is another copy of the
# repository to count (default: the one this script lives in).
set -euo pipefail

files=1
if [ "${1:-}" = "--crates" ]; then
    files=0
    shift
fi
cd "${1:-$(dirname "$0")/..}"

per_file="$(find crates -path 'crates/*/src/*' -name '*.rs' | LC_ALL=C sort | while read -r f; do
    awk -v f="$f" '/^#\[cfg\(test\)\]/ { n = NR; exit } END { printf "%7d  %s\n", (n ? n : NR), f }' "$f"
done)"

[ "$files" -eq 1 ] && echo "$per_file"
awk '{ split($2, part, "/"); crate[part[2]] += $1 }
     END { for (c in crate) printf "%7d  crates/%s\n", crate[c], c }' <<<"$per_file" | LC_ALL=C sort -k2
awk '{ total += $1 } END { printf "%7d  total\n", total }' <<<"$per_file"
