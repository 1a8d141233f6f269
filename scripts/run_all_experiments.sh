#!/usr/bin/env bash
# Run every experiment row (the full EXPERIMENTS.md sweep), one output file
# per row. The rows are the golden files' names: pass crates/bench/expected
# as the output directory to regenerate them.
# Usage: scripts/run_all_experiments.sh [output-dir]
set -euo pipefail
cd "$(dirname "$0")/.."
out="${1:-experiment-results}"
mkdir -p "$out"
cargo build --release -q -p extmem-bench --bin experiments
for golden in crates/bench/expected/*.txt; do
  name="$(basename "$golden" .txt)"
  "${CARGO_TARGET_DIR:-target}/release/experiments" "$name" | tee "$out/$name.txt"
  echo
done
echo "all outputs in $out/"
