//! A10 — replicated pools under server failure (the §8 "fault tolerance"
//! follow-through).
//!
//! The paper's primitives each talk to *one* memory server; a crash there
//! is terminal. The replicated pool layer turns the server into a pool:
//! WRITEs fan out to mirrors, FaA deltas are accumulated and replayed,
//! and a health detector drives failover, probing, and rejoin
//! reconciliation. This bin prices that machinery: what replication costs
//! when nothing fails, and what a crash costs when it does — in failovers,
//! probe/reseed traffic, and replayed deltas — while exactness (settled
//! counters equal to ground truth on every live replica) holds at every
//! point.

use extmem_apps::scenario::{host_ip, host_mac, Built, Testbed};
use extmem_apps::workload::{SinkNode, WorkloadSpec};
use extmem_bench::table::print_table;
use extmem_core::faa::{FaaConfig, FaaEngine};
use extmem_core::state_store::{read_remote_counters, StateStoreProgram};
use extmem_core::{PoolConfig, PoolStats};
use extmem_rnic::{RnicConfig, RnicNode};
use extmem_sim::LinkSpec;
use extmem_switch::{SwitchConfig, SwitchNode};
use extmem_types::{ByteSize, FiveTuple, Rate, Time, TimeDelta};

/// What failure to inject into the two-server pool.
#[derive(Clone, Copy)]
enum Fault {
    None,
    MirrorCrash,
    PrimaryCrash,
    PrimaryCrashAndRejoin,
}

struct Out {
    pool: PoolStats,
    ops_issued: u64,
    delivered: u64,
    count: u64,
    exact: bool,
    replicas_equal: bool,
}

/// A replicated state store (primary + mirror), one FaA per packet, with
/// the chosen fault injected mid-run. Exactness is judged against the
/// switch-side oracle after the pool settles.
fn probe(fault: Fault, count: u64) -> Out {
    let counters = 256u64;
    let region = ByteSize::from_bytes(counters * 8);
    let link = LinkSpec::testbed_40g();
    let mut tb = Testbed::new(191);
    tb.gen(
        WorkloadSpec::simple(
            host_mac(0),
            host_mac(1),
            FiveTuple::new(host_ip(0), host_ip(1), 5000, 9000, 17),
            256,
            Rate::from_gbps(2),
            count,
        ),
        link,
    );
    tb.sink(link);
    let (_, ch_a) = tb.server(RnicConfig::default(), region, link);
    let (_, ch_b) = tb.server(RnicConfig::default(), region, link);
    let (rkey, base_va) = (ch_a.rkey, ch_a.base_va);
    let engine = FaaEngine::replicated(
        vec![ch_a, ch_b],
        FaaConfig {
            reliable: true,
            rto: TimeDelta::from_micros(30),
            ..Default::default()
        },
        PoolConfig {
            down_threshold: 2,
            probe_interval: TimeDelta::from_micros(100),
            reseed_atomics: true,
            ..Default::default()
        },
    );
    let prog = StateStoreProgram::new(tb.fib(), engine, TimeDelta::from_micros(30));
    let Built {
        mut sim,
        switch,
        hosts,
        servers,
        ..
    } = tb.build(SwitchConfig::default(), Box::new(prog));
    let (server_a, server_b) = (servers[0], servers[1]);
    // ~1us of traffic per update: the crash lands a quarter into the run,
    // the restart (rejoin case) at the halfway mark.
    let crash_at = TimeDelta::from_micros(count / 4);
    let restart_at = TimeDelta::from_micros(count / 2);
    match fault {
        Fault::None => {}
        Fault::MirrorCrash => sim.schedule_crash(server_b, crash_at),
        Fault::PrimaryCrash => sim.schedule_crash(server_a, crash_at),
        Fault::PrimaryCrashAndRejoin => {
            sim.schedule_crash(server_a, crash_at);
            sim.schedule_restart(server_a, restart_at);
        }
    }
    sim.run_until(Time::from_micros(count) + TimeDelta::from_millis(10));

    let sw: &SwitchNode = sim.node(switch);
    let prog = sw.program::<StateStoreProgram>();
    let stats = prog.faa_stats();
    let truth: u64 = prog.oracle.values().sum();
    let dump_a = read_remote_counters(sim.node::<RnicNode>(server_a), rkey, base_va, counters);
    let dump_b = read_remote_counters(sim.node::<RnicNode>(server_b), rkey, base_va, counters);
    // The live replica set depends on the fault: compare against whichever
    // replica is authoritative, and check replica agreement when both live.
    let (live, both_live) = match fault {
        Fault::None | Fault::PrimaryCrashAndRejoin => (&dump_b, true),
        Fault::MirrorCrash => (&dump_a, false),
        Fault::PrimaryCrash => (&dump_b, false),
    };
    let live_sum: u64 = live.iter().sum();
    let sink = sim.node::<SinkNode>(hosts[1]);
    Out {
        pool: stats.pool,
        ops_issued: stats.channel.ops_issued,
        delivered: sink.received,
        count,
        exact: prog.is_quiescent() && live_sum == truth && sink.received == count,
        replicas_equal: !both_live || dump_a == dump_b,
    }
}

fn main() {
    println!("A10: replicated state store (primary + mirror) under server failure");
    println!();
    let count = 2_000u64;
    let cases: &[(&str, Fault)] = &[
        ("no fault", Fault::None),
        ("mirror crash", Fault::MirrorCrash),
        ("primary crash", Fault::PrimaryCrash),
        ("crash + rejoin", Fault::PrimaryCrashAndRejoin),
    ];
    let rows: Vec<Vec<String>> = cases
        .iter()
        .map(|&(name, fault)| {
            let o = probe(fault, count);
            let p = &o.pool;
            vec![
                name.to_string(),
                o.ops_issued.to_string(),
                p.mirror_writes.to_string(),
                p.failovers.to_string(),
                p.probes.to_string(),
                format!("{}+{}", p.delta_replayed, p.reseed_ops),
                p.rejoins.to_string(),
                format!("{}/{}", o.delivered, o.count),
                if o.exact { "yes" } else { "NO" }.to_string(),
                if o.replicas_equal { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    print_table(
        "failover cost per fault case (2000 FaA updates, 2-server pool)",
        &[
            "fault",
            "ops",
            "mirror wr",
            "failovers",
            "probes",
            "replay+reseed",
            "rejoins",
            "delivered",
            "exact",
            "replicas ==",
        ],
        &rows,
    );
    println!();
    println!("expectation: an atomics primitive replicates by delta replay, not WRITE");
    println!("fan-out (mirror wr stays 0), so the no-fault overhead is only the");
    println!("background anti-entropy FaAs. A mirror crash costs nothing on the data");
    println!("path; a primary crash costs one failover plus replayed deltas, and the");
    println!("survivor still settles exactly. Without a restart the pool keeps probing");
    println!("until its probe budget runs out; with one, a probe detects the returning");
    println!("server and reseed copies rebuild it bit-for-bit — failure is bandwidth");
    println!("and latency, never lost or diverged state.");
}
