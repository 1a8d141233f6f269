//! Wire-format pins: every library scenario's trace digest, event count
//! and per-hop packet count, in one table.
//!
//! The trace digest is backend- and platform-independent (the
//! sched_equivalence suite proves the former), so one pinned row holds a
//! whole run — any change to a wire format, op sizing, event ordering or
//! topology construction (node, port and link order, RNG stream assignment)
//! shows up as a mismatch here, and a scenario rebuilt on different
//! plumbing must land on the same row.
//!
//! Re-pinning after an intentional change is one run: `cargo test --release
//! -p extmem-bench --test wire_pin scenario_library` runs every row and
//! fails once, printing each drifted row ready to paste over its line in
//! [`pins`] and marked "digest only" (the hash or what it covers changed,
//! the simulation did not) or "events/packets moved" (the simulation did).
//! An unintentional move of either kind means a baseline no longer measures
//! what the paper comparison says it measures.

use extmem_bench::simperf::{
    e1_write_read_loop, faa_storm, fabric_fanout, fabric_shard, incast_scenario, insert_churn,
    lookup_miss_storm, lookup_miss_storm_direct, loss_sweep, remote_ops, server_failover,
    ScenarioResult,
};
use std::fmt::Write;

/// One pinned run: the call as written, the call, and what it must return.
struct Pin {
    call: &'static str,
    run: fn() -> ScenarioResult,
    digest: u64,
    events: u64,
    packets: u64,
}

macro_rules! pin {
    ($call:expr, $digest:expr, $events:expr, $packets:expr) => {
        Pin {
            call: stringify!($call),
            run: || $call,
            digest: $digest,
            events: $events,
            packets: $packets,
        }
    };
}

/// The fourteen pins: the eleven scenarios at the `sched_equivalence`
/// scales, then the three ablation baselines at scale 500.
#[rustfmt::skip]
fn pins() -> [Pin; 14] {
    [
        pin!(e1_write_read_loop(400), 0x2da5a43f1cd26a1c, 4058, 2025),
        pin!(incast_scenario(), 0x971a0036b0876299, 33637, 13330),
        pin!(lookup_miss_storm(250), 0x4b9af4b393105a16, 2001, 1000),
        pin!(lookup_miss_storm_direct(250), 0x7437e1c2ee0f4f47, 2751, 1250),
        pin!(remote_ops(250), 0x0c4b9b308def1b44, 2001, 1000),
        pin!(insert_churn(600), 0xb1540ba92576a67d, 5818, 2804),
        pin!(faa_storm(1_500), 0x21839ba8f98c58c1, 8428, 4080),
        pin!(loss_sweep(2_000), 0x07ec219219282a58, 54518, 21580),
        pin!(server_failover(1_200), 0xd7484415596f4660, 9868, 4726),
        pin!(fabric_fanout(150, 2), 0x6aa04480e46a2128, 18832, 7792),
        pin!(fabric_shard(300, 2), 0xf5ca868846f41588, 24106, 10737),
        pin!(lookup_miss_storm_direct(500), 0x1c433c88e1fd224c, 5502, 2500),
        pin!(lookup_miss_storm(500), 0xff61a362d3ea4521, 4002, 2000),
        pin!(remote_ops(500), 0x199b034cac4b0d4c, 4002, 2000),
    ]
}

/// Run every pin whose call `pick`s and fail once, listing each drifted row
/// as the line to paste over it.
fn check(pick: impl Fn(&str) -> bool) {
    let mut drifted = String::new();
    let mut ran = 0;
    for p in pins().iter().filter(|p| pick(p.call)) {
        ran += 1;
        let got = (p.run)();
        if (got.digest, got.events, got.packets) == (p.digest, p.events, p.packets) {
            continue;
        }
        let what = if (got.events, got.packets) == (p.events, p.packets) {
            "digest only"
        } else {
            "events/packets moved"
        };
        writeln!(
            drifted,
            "        pin!({}, {:#018x}, {}, {}), // {what}: was {:#018x}, {}, {}",
            p.call, got.digest, got.events, got.packets, p.digest, p.events, p.packets
        )
        .expect("write to a String");
    }
    assert!(ran > 0, "no pin picked: a call text here is misspelt");
    assert!(
        drifted.is_empty(),
        "pinned rows drifted; if intended, paste over their lines in pins():\n{drifted}"
    );
}

#[test]
fn scenario_library_is_pinned() {
    check(|_| true);
}

/// The paper's direct-hash table (`core::direct_table`) is the ablation
/// baseline of the one-RTT cuckoo table, and its wire behavior must not
/// drift while the cuckoo path evolves: same slot arithmetic, same READ
/// geometry, same packet trace.
#[test]
fn direct_hash_ablation_wire_format_is_pinned() {
    check(|call| call == "lookup_miss_storm_direct(500)");
}

/// The verb-mode cuckoo baseline that the remote-op ISA A/Bs against. With
/// the `RemoteOps` knob off, the miss path must keep issuing the
/// filter-directed one-READ-per-miss verb exchange bit-for-bit: the
/// ablation is only meaningful if the baseline it measures stands still.
#[test]
fn verb_cuckoo_ablation_wire_format_is_pinned() {
    check(|call| call == "lookup_miss_storm(500)");
}

/// The remote-op format itself: opcodes, extension headers, op-engine
/// service times and completion ordering.
#[test]
fn remote_ops_wire_format_is_pinned() {
    check(|call| call == "remote_ops(500)");
}
