//! Wire-format pin for the direct-hash lookup ablation.
//!
//! The paper's direct-hash table (`core::direct_table`) is the ablation
//! baseline of the one-RTT cuckoo table, and its wire behavior must not
//! drift while the cuckoo path evolves: same slot arithmetic, same READ
//! geometry, same packet trace. The trace digest is backend- and platform-independent
//! (the sched_equivalence suite proves the former), so a single pinned
//! constant holds the whole run — any change to the direct-hash wire
//! format, op sizing, or event ordering shows up as a digest mismatch here
//! before it can silently redefine the ablation.

use extmem_bench::simperf::{
    e1_write_read_loop, faa_storm, fabric_fanout, fabric_shard, incast_scenario, insert_churn,
    lookup_miss_storm, lookup_miss_storm_direct, loss_sweep, remote_ops, server_failover,
    ScenarioResult,
};

/// Digest of `lookup_miss_storm_direct(500)` at the current wire format.
/// If an intentional protocol change moves it, re-run and update — but an
/// unintentional move means the ablation baseline no longer measures what
/// the paper comparison says it measures.
///
/// Re-pinned when the engine moved to per-direction trace folds and
/// per-node/per-direction RNG streams for the parallel backend: the trace
/// content is unchanged in structure but the digest composition and fault
/// draw order differ, so the old constant no longer applies.
const DIRECT_HASH_DIGEST: u64 = 0x1c433c88e1fd224c;

#[test]
fn direct_hash_ablation_wire_format_is_pinned() {
    let r = lookup_miss_storm_direct(500);
    assert_eq!(
        r.digest, DIRECT_HASH_DIGEST,
        "direct-hash ablation trace drifted: got {:016x}, pinned {:016x}",
        r.digest, DIRECT_HASH_DIGEST
    );
}

/// Digest of `lookup_miss_storm(500)` — the verb-mode cuckoo baseline that
/// the remote-op ISA A/Bs against. With the `RemoteOps` knob off, the miss
/// path must keep issuing the filter-directed one-READ-per-miss verb
/// exchange bit-for-bit: the ablation is only meaningful if the baseline
/// it measures stands still.
const VERB_CUCKOO_DIGEST: u64 = 0xb0e1d8e2bc67d629;

/// Digest of `remote_ops(500)` — the remote-op format itself: opcodes,
/// extension headers, op-engine service times and completion ordering.
const REMOTE_OPS_DIGEST: u64 = 0x5156481ab8e4bd97;

#[test]
fn verb_cuckoo_ablation_wire_format_is_pinned() {
    let r = lookup_miss_storm(500);
    assert_eq!(
        r.digest, VERB_CUCKOO_DIGEST,
        "verb-mode cuckoo ablation trace drifted: got {:016x}, pinned {:016x}",
        r.digest, VERB_CUCKOO_DIGEST
    );
}

#[test]
fn remote_ops_wire_format_is_pinned() {
    let r = remote_ops(500);
    assert_eq!(
        r.digest, REMOTE_OPS_DIGEST,
        "remote-op trace drifted: got {:016x}, pinned {:016x}",
        r.digest, REMOTE_OPS_DIGEST
    );
}

/// Every library scenario at the `sched_equivalence` scales: digest, events
/// and per-hop packets. Topology construction (node, port and link order,
/// RNG stream assignment) is part of what these pin — a scenario rebuilt on
/// different plumbing must land on the same row.
#[test]
fn scenario_library_is_pinned() {
    let pin = |name, digest, events, packets| ScenarioResult {
        name,
        events,
        packets,
        digest,
    };
    let table: [(fn() -> ScenarioResult, ScenarioResult); 11] = [
        (
            || e1_write_read_loop(400),
            pin("e1_write_read_loop", 0xb1fd078a864d3f73, 7201, 2400),
        ),
        (
            incast_scenario,
            pin("incast", 0xcd754ef4f7d00a02, 45029, 15892),
        ),
        (
            || lookup_miss_storm(250),
            pin("lookup_miss_storm", 0x961cbf6e8838611e, 3001, 1000),
        ),
        (
            || lookup_miss_storm_direct(250),
            pin("lookup_miss_storm_direct", 0x7437e1c2ee0f4f47, 3751, 1250),
        ),
        (
            || remote_ops(250),
            pin("remote_ops", 0x8c7eba58ecfcbd6c, 3001, 1000),
        ),
        (
            || insert_churn(600),
            pin("insert_churn", 0x65945893db23143b, 8606, 2804),
        ),
        (
            || faa_storm(1_500),
            pin("faa_storm", 0x21839ba8f98c58c1, 12508, 4080),
        ),
        (
            || loss_sweep(2_000),
            pin("loss_sweep", 0x16f8b0d548f9c643, 77132, 25658),
        ),
        (
            || server_failover(1_200),
            pin("server_failover", 0x9b1b31740261228b, 14581, 4728),
        ),
        (
            || fabric_fanout(150, 2),
            pin("fabric_fanout", 0x6aa04480e46a2128, 25408, 7792),
        ),
        (
            || fabric_shard(300, 2),
            pin("fabric_shard", 0x95621375f92ac9c9, 56004, 20456),
        ),
    ];
    for (run, pinned) in table {
        let got = run();
        assert_eq!(
            got, pinned,
            "{} drifted: got digest {:016x}",
            pinned.name, got.digest
        );
    }
}
