#!/usr/bin/env bash
# Non-test Rust lines under crates/*/src: each file counts up to (and
# including) its first `#[cfg(test)]` line at column 0 (the test module; an
# indented one gates a field or a statement), or whole if it has none.
# Prints one line per file, then one per crate, then one for examples/
# (counted the same way), then the total of crates/*/src alone — the number
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

# One "<lines>  <path>" line per .rs file that `find` prints for "$@".
count_files() {
    find "$@" -name '*.rs' | LC_ALL=C sort | while read -r f; do
        awk -v f="$f" '/^#\[cfg\(test\)\]/ { n = NR; exit } END { printf "%7d  %s\n", (n ? n : NR), f }' "$f"
    done
}
per_file="$(count_files crates -path 'crates/*/src/*')"
examples="$(count_files examples)"

[ "$files" -eq 1 ] && echo "$per_file" && echo "$examples"
awk '{ split($2, part, "/"); crate[part[2]] += $1 }
     END { for (c in crate) printf "%7d  crates/%s\n", crate[c], c }' <<<"$per_file" | LC_ALL=C sort -k2
awk '{ total += $1 } END { printf "%7d  examples\n", total }' <<<"$examples"
awk '{ total += $1 } END { printf "%7d  total\n", total }' <<<"$per_file"
