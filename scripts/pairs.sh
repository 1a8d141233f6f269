#!/usr/bin/env bash
# Paired benchmark runs of two checkouts of this repository: N alternating
# pairs of one workload through each checkout's own crates/benchmark/run.sh,
# then one line per end-to-end metric of BENCHMARK.json: the parent's median
# and q1-q3, the change's median, in how many of the N pairs the change did
# better (by the metric's `better` direction; a tie is no win), and whether
# the two medians lie further apart than the parent's interquartile range.
#
#   scripts/pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD N [SEED [LOG]]
#
# Each checkout builds into its own target directory, DIR/target: two
# checkouts of this workspace that share one overwrite each other's
# binaries, and then both sides run the same code. Pair i runs the parent
# first when i is even and the change first when it is odd; every run is
# `run.sh --workload WORKLOAD --seed SEED --seconds 20 --trace 0` (20 s is
# BENCHMARK.json's `run_seconds`). SEED defaults to 7. Each run's JSON line
# is appended to LOG (default: bench/runs/pairs.jsonl in the repository
# this script lives in), tagged with workload, seed, pair and side.
set -euo pipefail

if [ $# -lt 4 ] || [ $# -gt 6 ]; then
    echo "usage: $0 PARENT_DIR CHANGE_DIR WORKLOAD N [SEED [LOG]]" >&2
    exit 2
fi
repo="$(cd "$(dirname "$0")/.." && pwd)"
parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
workload=$3
n=$4
seed=${5:-7}
log=${6:-$repo/bench/runs/pairs.jsonl}
if [ "$parent" = "$change" ]; then
    echo "pairs.sh: PARENT_DIR and CHANGE_DIR are the same checkout" >&2
    exit 2
fi
mkdir -p "$(dirname "$log")"
runs="$(mktemp)"
trap 'rm -f "$runs"' EXIT

for dir in "$parent" "$change"; do
    echo "pairs.sh: building $dir" >&2
    CARGO_TARGET_DIR="$dir/target" cargo build --release --offline --quiet \
        --manifest-path "$dir/crates/benchmark/Cargo.toml" --bin extmem-benchmark
done

# One run of `side` (parent|change) in checkout `dir` as pair `i`: its JSON
# line, tagged, appended to the log and to this invocation's runs.
run() {
    local side=$1 dir=$2 i=$3 line
    echo "pairs.sh: $workload pair $((i + 1))/$n $side" >&2
    line="$(CARGO_TARGET_DIR="$dir/target" "$dir/crates/benchmark/run.sh" \
        --workload "$workload" --seed "$seed" --seconds 20 --trace 0 | tail -n 1)"
    printf '{"workload": "%s", "seed": %s, "pair": %d, "side": "%s", "run": %s}\n' \
        "$workload" "$seed" "$i" "$side" "$line" | tee -a "$log" >>"$runs"
}
for ((i = 0; i < n; i++)); do
    if ((i % 2 == 0)); then
        run parent "$parent" "$i"
        run change "$change" "$i"
    else
        run change "$change" "$i"
        run parent "$parent" "$i"
    fi
done

# "name better" for each end-to-end metric, in BENCHMARK.json's order.
metrics="$(awk '/"end_to_end"/ { on = 1 }
    on && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
    on && /"better"/ { gsub(/[",]/, "", $2); print name, $2 }
    on && /\]/ { exit }' "$change/BENCHMARK.json")"

awk -v metrics="$metrics" -v n="$n" '
function value(line, name,   m) {
    if (!match(line, "\"" name "\": \\{\"value\": [^,}]+")) return ""
    m = substr(line, RSTART, RLENGTH)
    sub(/.*: /, "", m)
    return m + 0
}
function sorted(src, dst,   i, j, t) {
    for (i = 1; i <= n; i++) dst[i] = src[i]
    for (i = 2; i <= n; i++)
        for (j = i; j > 1 && dst[j - 1] > dst[j]; j--) { t = dst[j]; dst[j] = dst[j - 1]; dst[j - 1] = t }
}
# Linear interpolation between closest ranks of sorted s[1..n].
function quantile(s, q,   pos, lo) {
    pos = 1 + q * (n - 1)
    lo = int(pos)
    return lo >= n ? s[n] : s[lo] + (pos - lo) * (s[lo + 1] - s[lo])
}
{
    match($0, /"pair": [0-9]+/)
    pair = substr($0, RSTART + 8, RLENGTH - 8) + 1
    side = $0 ~ /"side": "parent"/ ? "p" : "c"
    line[side, pair] = $0
    if ($0 !~ /"correct": true/ || $0 !~ /"failed": 0[,}]/)
        printf "pairs.sh: %s run of pair %d failed a check or an op\n", side == "p" ? "parent" : "change", pair
}
END {
    printf "%-20s %-6s %14s %29s %14s %6s %s\n", "metric", "better", "parent median", "parent q1-q3", "change median", "wins", "apart"
    count = split(metrics, m, "\n")
    for (k = 1; k <= count; k++) {
        split(m[k], f, " ")
        name = f[1]; better = f[2]; wins = 0
        for (i = 1; i <= n; i++) {
            p[i] = value(line["p", i], name)
            c[i] = value(line["c", i], name)
            if ((better == "lower" && c[i] < p[i]) || (better == "higher" && c[i] > p[i])) wins++
        }
        sorted(p, ps)
        sorted(c, cs)
        q1 = quantile(ps, 0.25); med = quantile(ps, 0.5); q3 = quantile(ps, 0.75)
        cmed = quantile(cs, 0.5)
        d = cmed - med
        apart = (d < 0 ? -d : d) > q3 - q1 ? "yes" : "no"
        printf "%-20s %-6s %14.6g %14.6g-%-14.6g %14.6g %3d/%-2d %s\n", name, better, med, q1, q3, cmed, wins, n, apart
    }
}' "$runs"
