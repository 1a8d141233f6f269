#!/usr/bin/env bash
# The repo benchmark's one command (see README.md beside this file).
#
#   crates/benchmark/run.sh                     all five workloads: R rounds, one traced
#                                               repetition each, every check, every metric
#   crates/benchmark/run.sh --seed N            the same on another seed (recorded in the output)
#   crates/benchmark/run.sh --repeat-check      two sets of rounds, compared against the bounds
#   crates/benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                               one workload, as BENCHMARK.json's driver runs it;
#                                               the last line of stdout is one JSON object
#
# Builds the benchmark binary (release, into $CARGO_TARGET_DIR or target/)
# and runs it from the repo root. Exits non-zero if the build or any check
# fails.
set -euo pipefail
cd "$(dirname "$0")/../.."
cargo build --release --offline --quiet \
    --manifest-path crates/benchmark/Cargo.toml --bin extmem-benchmark >&2
exec "${CARGO_TARGET_DIR:-target}/release/extmem-benchmark" "$@"
