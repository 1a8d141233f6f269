#!/usr/bin/env bash
# The full local CI gate: release build, tests, lints, release re-runs of
# the timing-sensitive suites, allocation ceilings on the repo benchmark's
# workloads. Host-time performance is not gated here; it is measured by the
# repo benchmark (BENCHMARK.json, crates/benchmark).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --release

echo "== cargo test =="
# --no-fail-fast: one red suite must not hide the ones after it. Quiet goes
# to the test harness (`-- -q`), not to cargo: cargo's own -q would drop
# the "Running <suite>" lines the per-suite summary is keyed on.
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
test_log="$tmp/test.log"
test_rc=0
cargo test --no-fail-fast -- -q 2>&1 | tee "$test_log" || test_rc=$?
echo "-- per-suite summary --"
awk '
    $1 == "Running"   { suite = ($2 == "unittests" ? $3 " " $4 : $2 " " $3) }
    $1 == "Doc-tests" { suite = "doc-tests " $2 }
    /^test result:/   { printf "%-6s %s: %d passed, %d failed\n", ($3 == "ok." ? "ok" : "FAILED"), suite, $4, $6 }
' "$test_log"
if [ "$test_rc" -ne 0 ]; then
    echo "FAIL: cargo test (FAILED suites above)" >&2
    exit "$test_rc"
fi

echo "== cargo clippy (deny warnings) =="
cargo clippy --all-targets -- -D warnings

echo "== rustfmt (sim, wire, types, switch, apps) =="
# The crates that are rustfmt-clean stay clean; the others are not
# formatted yet and are left out until they are.
cargo fmt -p extmem-sim -p extmem-wire -p extmem-types -p extmem-switch -p extmem-apps -- --check

echo "== no hand-placed buffer returns =="
# A frame buffer goes back to the pool when its payload's last owner drops
# it (wire::bytes::Frame); the call that used to do it by hand, and the
# accessor under it, must not come back.
if grep -rn 'pool::recycle\|recover_vec' crates tests examples; then
    echo "FAIL: pool::recycle / recover_vec are gone; drop the payload instead" >&2
    exit 1
fi

echo "== fault-matrix smoke (worst cell, release) =="
# The full loss x outage x reorder grid already ran under `cargo test`;
# this re-runs just the harshest cell per primitive under the release
# profile, where timing-sensitive reliability bugs shake out differently.
cargo test -q --release --test fault_matrix smoke_

echo "== crash/failover cells (release) =="
# The replicated-pool crash, failover, and rejoin cells re-run under the
# release profile: failure detection races on timer ordering and PSN
# resync, which optimization can reshuffle. This includes the cuckoo
# relocation-crash cell (crash_lookup_mid_relocation_*): a primary dying
# with displacement WRITEs in flight is the sharpest ordering race in the
# tree, its remote-op twin (crash_remote_ops_lookup_*), where failover
# must reissue in-flight hash-probe ops verbatim against the promoted
# mirror without re-planning them, the parallel-backend replay of the
# harshest state-store cell
# (crash_state_store_rejoin_under_parallel_backend), where the crashed
# server lives in a different partition than the switch driving it, and
# the sharded store's cell (crash_fabric_shard_*), where one shard's
# primary dies and rejoins while consistent-hash routing keeps the other
# shards counting.
cargo test -q --release --test fault_matrix crash_

echo "== allocation budget (release) =="
# Steady-state heap allocations per frame for the four primitives, under
# the profile the repo benchmark measures (`allocs_per_pkt`).
cargo test -q --release --test alloc_budget

echo "== scheduler equivalence proptests (release) =="
# The timing wheel against the binary-heap oracle and a sorted-list model
# (across the ring's far boundary), plus the parallel engine's
# lookahead-safety and digest-equivalence properties, under the optimized
# profile (overflow/ordering bugs can be profile-dependent).
cargo test -q --release --test structure_proptests

echo "== engine, timing-wheel, frame-pool and encoder tests (release) =="
# The engine's own tests (partitioner, promise cadence against a scripted
# peer, parallel == wheel fingerprints), the wheel's tests (a parked
# retransmission timer is the only far key while near events churn; keys
# at the ring's far boundary pop in exact order),
# the wire crate's per-thread pool and counter tests (a payload's last drop
# on another thread, and from a thread-local destructor after the pool is
# gone) and the one frame encoder's byte-equality properties (any split of
# a body, a WRITE's inline head and shared tail against their
# concatenation, every request kind against the slow reference, the filler
# ramp against its byte-at-a-time definition) ran in debug above; races,
# atomics orderings, destructor order and overflow shake out differently
# under the profile the benchmark measures.
cargo test -q --release -p extmem-sim -p extmem-wire
cargo test -q --release --test wire_proptests

echo "== backend equivalence and scenario pins (release) =="
# Every library scenario on wheel, heap and parallel(1/2/4), each asserted
# equal in-process, plus the pinned digests.
cargo test -q --release --test sched_equivalence --test wire_pin

echo "== experiments: same bytes in two processes, and the golden files =="
# Every row of the experiments binary, twice. In-process digests are pinned
# above; comparing two processes is the check that nothing process-specific
# (a randomly seeded hasher's iteration order: a2_atomics_ablation's FaA-ops
# column used to move by a few ops) leaks into simulated output. The reports
# are on stdout and the `== name ==` headers, in table order, on stderr, so
# the first run must also equal the golden files concatenated in that order.
experiments="${CARGO_TARGET_DIR:-target}/release/experiments"
"$experiments" >"$tmp/experiments.1" 2>"$tmp/experiments.names"
"$experiments" >"$tmp/experiments.2" 2>/dev/null
if ! cmp "$tmp/experiments.1" "$tmp/experiments.2"; then
    echo "FAIL: experiments printed different bytes in two processes" >&2
    exit 1
fi
sed -n 's/^== \(.*\) ==$/\1/p' "$tmp/experiments.names" | while read -r name; do
    cat "crates/bench/expected/$name.txt"
done >"$tmp/experiments.golden"
if ! cmp "$tmp/experiments.1" "$tmp/experiments.golden"; then
    echo "FAIL: experiments no longer prints crates/bench/expected/*.txt:" >&2
    diff "$tmp/experiments.golden" "$tmp/experiments.1" | head -n 40 >&2
    exit 1
fi
echo "ok     experiments: $(grep -c '^== ' "$tmp/experiments.names") rows, two processes, identical to the golden files"

echo "== no std-hashed maps in library crates =="
# `std`'s HashMap/HashSet hash under a per-process random seed, so anything
# that iterates one can differ between two runs of the same seed. Library
# code uses extmem_types::{IntMap, IntSet} (types/src/hash.rs defines them
# over the std containers); test modules, which start at a `#[cfg(test)]` in
# column 0 (an indented one gates a field or a statement of library code),
# may use either. Not a clippy `disallowed-types` entry: that would also
# cover crates/benchmark, which is frozen and uses HashMap.
std_hashed="$(find crates/{types,wire,sim,rnic,switch,core,apps}/src -name '*.rs' ! -path crates/types/src/hash.rs |
    LC_ALL=C sort | while read -r f; do
        awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit }
            /collections::(\{[^}]*)?Hash(Map|Set)/ { printf "%s:%d: %s\n", f, NR, $0 }' "$f"
    done)"
if [ -n "$std_hashed" ]; then
    echo "$std_hashed"
    echo "FAIL: use extmem_types::IntMap / IntSet in library code" >&2
    exit 1
fi

echo "== benchmark allocation ceilings (release) =="
# Allocation counts repeat exactly per seed, so unlike host time they can
# be gated on any machine: one short untraced run of each benchmark
# workload must pass its own checks and stay under the committed
# allocs-per-frame ceiling (payloads constructed per frame, see
# tests/alloc_budget.rs; the two lookups cost the same three, a detoured
# frame five — a little under, now that the frames the lossy link eats
# return to the pool — and nothing on the fabric allocates per flush any
# more).
while read -r workload ceiling; do
    # A failed check exits non-zero and says so in the JSON; report that.
    result="$(crates/benchmark/run.sh --workload "$workload" --seed 7 --seconds 3 --trace 0 </dev/null | tail -n 1)" || true
    allocs="$(sed -n 's/.*"allocs_per_pkt": {"value": \([0-9.eE+-]*\).*/\1/p' <<<"$result")"
    if [[ "$result" != *'"correct": true'* ]]; then
        echo "FAIL: $workload did not pass its checks: $result" >&2
        exit 1
    fi
    if [ -z "$allocs" ] || ! awk -v a="$allocs" -v c="$ceiling" 'BEGIN { exit !(a <= c) }'; then
        echo "FAIL: $workload allocs_per_pkt ${allocs:-missing} exceeds ceiling $ceiling" >&2
        exit 1
    fi
    echo "ok     $workload: allocs_per_pkt $allocs <= $ceiling"
done <<'CEILINGS'
lookup_verbs 3.01
lookup_ops 3.01
pktbuf_lossy 5.025
fabric_shard 2.74
fabric_shard_p2 2.74
CEILINGS

echo "== non-test lines per crate =="
# Not a gate: the table a simplicity PR quotes for parent and change.
scripts/loc.sh --crates

echo "== ci.sh: all gates passed =="
