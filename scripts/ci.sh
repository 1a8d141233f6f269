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

echo "== rustfmt (sim, wire, types, switch, apps, core, rnic, bench, root tests) =="
# The crates that are rustfmt-clean stay clean. The benchmark is frozen and
# never formatted.
cargo fmt -p extmem-sim -p extmem-wire -p extmem-types -p extmem-switch -p extmem-apps \
    -p extmem-core -p extmem-rnic -p extmem-bench -p extmem-integration -- --check

echo "== the replicated pool is the FaA engine's alone =="
# The packet buffer and the table programs hold their ReliableChannel; only
# the FaA engine builds a pool (one server or several, one code path). A
# single-server passthrough must not come back into pool.rs, and no other
# core module may reach for the pool.
if grep -n 'len() == 1' crates/core/src/pool.rs; then
    echo "FAIL: pool.rs has no single-server branch; a lone server takes the general path" >&2
    exit 1
fi
pool_users="$(grep -ln 'ReplicatedPool' crates/core/src/*.rs \
    | grep -v -e '/pool\.rs$' -e '/faa\.rs$' -e '/shard\.rs$' -e '/lib\.rs$' || true)"
if [ -n "$pool_users" ]; then
    echo "$pool_users" >&2
    echo "FAIL: only pool.rs, faa.rs, shard.rs and lib.rs may name ReplicatedPool" >&2
    exit 1
fi

echo "== a server is written off by its channel's retry cap alone =="
# The pool runs no failure detector of its own and forces no give-up on a
# channel: a server is Down from its channel's failure (at the retry cap
# the pool sets, or at a refusal NAK) until a reconnect is answered, and a
# lone FaA engine keeps the channel's default cap as a plain value. The
# non-test part of pool.rs and faa.rs (up to the first column-0
# `#[cfg(test)]`, as scripts/loc.sh counts) names no HealthDetector and no
# seen_timeouts watermark and calls no `.abort(`, and faa.rs sets no
# u32::MAX threshold.
detector="$(for f in crates/core/src/pool.rs crates/core/src/faa.rs; do
    awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit }
        /HealthDetector|seen_timeouts|\.abort\(/ || (f ~ /faa\.rs$/ && /u32::MAX/) {
            printf "%s:%d: %s\n", f, NR, $0 }' "$f"
done)"
if [ -n "$detector" ]; then
    echo "$detector" >&2
    echo "FAIL: a pool server is written off by its channel's retry cap alone" >&2
    exit 1
fi

echo "== no hand-placed buffer returns =="
# A frame buffer goes back to the pool when its payload's last owner drops
# it (wire::bytes::Frame); the call that used to do it by hand, and the
# accessor under it, must not come back.
if grep -rn 'pool::recycle\|recover_vec' crates tests examples; then
    echo "FAIL: pool::recycle / recover_vec are gone; drop the payload instead" >&2
    exit 1
fi

echo "== no unwrap/expect in the wire codecs, the RNIC, the switch's hashes and filter and its channel, ring, pool and cuckoo table =="
# A parser answers any bytes with a value or a WireError, and a writer any
# buffer; the RNIC's responder answers any request with a response, a NAK or
# a counted drop, its node counts what it cannot serve and hands back an
# unknown region or QP as an error or None, and its requester encodes a
# request or returns the WireError; the switch's hash units and counting
# filter take any key; the switch's reliable channel, the packet buffer's ring,
# the replicated pool, the FaA engine and the cuckoo lookup table (whose
# ActionEntry::from_bytes decodes the slots a bucket READ brings back)
# answer any response frame and any READ's bytes with an event, a decoded
# value or a counted skip. The non-test part of each wire file, of the
# RNIC's responder.rs, mr.rs, nic.rs and requester.rs, of the switch's
# hash.rs and filter.rs and of core's channel.rs, packet_buffer.rs,
# pool.rs, faa.rs, lookup.rs and cuckoo.rs (up to its first column-0
# `#[cfg(test)]`, as scripts/loc.sh counts; doc-comment lines aside) holds
# no `.unwrap()` or `.expect(`. wire's bytes.rs and packet.rs are exempt:
# their three sites check invariants of buffers they own, not input.
unwraps="$(for f in crates/wire/src/*.rs crates/rnic/src/responder.rs crates/rnic/src/mr.rs \
    crates/rnic/src/nic.rs crates/rnic/src/requester.rs crates/switch/src/hash.rs crates/switch/src/filter.rs \
    crates/core/src/channel.rs crates/core/src/packet_buffer.rs crates/core/src/pool.rs \
    crates/core/src/faa.rs crates/core/src/lookup.rs crates/core/src/cuckoo.rs; do
    case "$f" in */bytes.rs | */packet.rs) continue ;; esac
    awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit }
        !/^[[:space:]]*\/\/[\/!]/ && /\.unwrap\(\)|\.expect\(/ { printf "%s:%d: %s\n", f, NR, $0 }' "$f"
done)"
if [ -n "$unwraps" ]; then
    echo "$unwraps" >&2
    echo "FAIL: wire codecs, the RNIC, the switch's hashes and filter, the channel, the ring, the pool and the cuckoo table return errors or count; no unwrap/expect outside tests" >&2
    exit 1
fi

# Re-run the fault_matrix cells whose names contain $1 under the release
# profile. `cargo test` passes when a filter matches nothing, so a deleted
# or renamed cell would silently empty the step: fail unless one ran.
release_cells() {
    cargo test -q --release --test fault_matrix "$1" 2>&1 | tee "$tmp/cells.log"
    if ! grep -Eq '^test result: ok\. [1-9][0-9]* passed' "$tmp/cells.log"; then
        echo "FAIL: fault_matrix filter '$1' ran no test" >&2
        exit 1
    fi
}

echo "== fault-matrix smoke (worst cell, release) =="
# The full loss x outage x reorder grid already ran under `cargo test`;
# this re-runs just the harshest cell per primitive under the release
# profile, where timing-sensitive reliability bugs shake out differently.
release_cells smoke_

echo "== crash/failover cells (release) =="
# The replicated state store's crash, failover, and rejoin cells re-run
# under the release profile: a write-off races on timer ordering and
# on a restarted server's disconnect notice and in-band reconnect, which
# optimization can reshuffle. They are the primary and
# the mirror dying mid-count, with and without a restart that must
# reconcile bit-for-bit (crash_state_store_*), the same replayed on the
# parallel backend, where the crashed server lives in a different
# partition than the switch driving it
# (crash_state_store_rejoin_under_parallel_backend), the cold-rejoin cell
# (crash_state_store_cold_rejoin_*), where a pool built with nothing but
# its two knobs (down_threshold, probe_interval) must rebuild each
# restarted server on its own, the
# lossy rejoin (crash_state_store_mirror_rejoins_by_value_writes_under_loss),
# where atomic acknowledgements are lost and the mirror must still be
# rebuilt by value WRITEs alone, and
# the sharded store's cell (crash_fabric_shard_*), where one shard's
# primary dies and rejoins while consistent-hash routing keeps the other
# shards counting, and the packet buffer's cell
# (crash_packet_buffer_server_back_leaves_it_degraded), where a
# single-server primitive's channel fails at its server's restart.
release_cells crash_

echo "== retry-cap failover cells (release) =="
# The single-server failover cells reach failover through the RTO alone
# (the retry cap and the backoff cap are fixed), so when a channel gives up
# mid-burst is decided by timer order too.
release_cells failover_

echo "== channel schedule enumerator (release) =="
# Every schedule of up to four ops and two faults on one channel, driven
# through the test fake of its I/O seam (core's channel::tests; three ops
# in the debug run above). `cargo test` passes when a filter matches
# nothing, so a renamed test would silently empty the step: fail unless
# it ran.
enumerator=channel::tests::every_small_schedule_ends_each_op_once_and_resends_alone_only_behind_a_later_answer
cargo test -q --release -p extmem-core --lib "$enumerator" -- --exact --nocapture 2>&1 | tee "$tmp/enumerator.log"
if ! grep -Eq '^test result: ok\. 1 passed' "$tmp/enumerator.log"; then
    echo "FAIL: the channel schedule enumerator ($enumerator) did not run" >&2
    exit 1
fi

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

echo "== examples (release) =="
# Clippy compiles examples/ but nothing else runs them. Each one ends in a
# self-check of its own (an assert or an OK line), so a non-zero exit is a
# failure.
cargo build --release --examples
for example in examples/*.rs; do
    name="$(basename "$example" .rs)"
    if ! "${CARGO_TARGET_DIR:-target}/release/examples/$name" >"$tmp/example.out"; then
        tail -n 20 "$tmp/example.out" >&2
        echo "FAIL: example $name exited non-zero" >&2
        exit 1
    fi
    echo "ok     example $name"
done

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

echo "== benchmark allocation, memory-link and latency ceilings (release) =="
# Allocation counts repeat exactly per seed, so unlike host time they can
# be gated on any machine: one short untraced run of each benchmark
# workload must pass its own checks and stay under the committed
# allocs-per-frame ceiling (payloads constructed per frame, see
# tests/alloc_budget.rs; the two lookups cost the same three, a detoured
# frame four, plus an ACK for the stores that ask for one — a little under,
# now that the frames the lossy link eats return to the pool — and nothing
# on the fabric allocates per flush any more) and heap-bytes-per-frame
# ceiling (within 0.5 % of this invocation's values: the sinks' latency
# samples are four bytes each in fixed blocks).
# Memory-link bytes per application byte (`sim_rdma_overhead`, the paper's §5
# cost of external memory) and the sinks' simulated latency (`sim_lat_p50_ns`,
# `sim_lat_p99_ns`) are simulated outcomes, exact per seed: each ceiling is
# the seed-7 value plus 0.1 %, so a moved value means the traffic or its
# timing changed.
# Fail unless the last run's metric $2 is present and at most $3.
under_ceiling() {
    local value
    value="$(sed -n "s/.*\"$2\": {\"value\": \([0-9.eE+-]*\).*/\1/p" <<<"$result")"
    if [ -z "$value" ] || ! awk -v a="$value" -v c="$3" 'BEGIN { exit !(a <= c) }'; then
        echo "FAIL: $1 $2 ${value:-missing} exceeds ceiling $3" >&2
        exit 1
    fi
    echo "ok     $1: $2 $value <= $3"
}
while read -r workload allocs bytes overhead p50 p99; do
    # A failed check exits non-zero and says so in the JSON; report that.
    result="$(crates/benchmark/run.sh --workload "$workload" --seed 7 --seconds 3 --trace 0 </dev/null | tail -n 1)" || true
    if [[ "$result" != *'"correct": true'* ]]; then
        echo "FAIL: $workload did not pass its checks: $result" >&2
        exit 1
    fi
    under_ceiling "$workload" allocs_per_pkt "$allocs"
    under_ceiling "$workload" alloc_bytes_per_pkt "$bytes"
    under_ceiling "$workload" sim_rdma_overhead "$overhead"
    under_ceiling "$workload" sim_lat_p50_ns "$p50"
    under_ceiling "$workload" sim_lat_p99_ns "$p99"
done <<'CEILINGS'
lookup_verbs 3.01 125.2 0.6597 2443.096 2755.215
lookup_ops 3.01 125.2 0.7273 2447.500 2759.460
pktbuf_lossy 4.024 173.5 2.2835 22384235.157 44349376.318
fabric_shard 2.252 94.9 0.3731 2968.032 3311.595
fabric_shard_p2 2.251 95.4 0.3731 2968.032 3311.595
CEILINGS

echo "== non-test lines per crate =="
# Not a gate: the table a simplicity PR quotes for parent and change.
scripts/loc.sh --crates

echo "== ci.sh: all gates passed =="
