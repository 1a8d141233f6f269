//! The testbeds the experiment rows and the pinned scenario library share,
//! each written once: seed, scale and the knobs a caller sweeps are
//! arguments, everything else is the rig.
//!
//! All of them are the §5 single-ToR shape (`extmem_apps::scenario::Testbed`):
//! a traffic generator on port 0, a sink on port 1, memory servers from
//! port 2 on. Topology construction is part of every pinned digest, so the
//! call order in [`testbed`] and [`testbed_with_server`] is fixed.

use extmem_apps::scenario::{host_ip, host_mac, Built, Testbed};
use extmem_apps::workload::{Arrival, FlowPick, FlowSet, SinkNode, WorkloadSpec};
use extmem_core::faa::{FaaConfig, FaaEngine};
use extmem_core::lookup::{install_cuckoo_image, ActionEntry, LookupTableProgram};
use extmem_core::packet_buffer::{Mode, PacketBufferProgram};
use extmem_core::state_store::read_remote_counters;
use extmem_core::{
    CuckooConfig, CuckooDirectory, PoolConfig, RdmaChannel, ReliableConfig,
    ShardedStateStoreProgram,
};
use extmem_rnic::{RnicConfig, RnicNode};
use extmem_sim::{FaultSpec, LinkSpec};
use extmem_switch::{PipelineProgram, SwitchConfig, SwitchNode};
use extmem_types::{ByteSize, FiveTuple, PortId, Rate, Rkey, Time, TimeDelta};

/// One UDP flow of `len`-byte frames from host 0 to host 1, paced at `offered`.
pub fn one_flow(sport: u16, dport: u16, len: usize, offered: Rate, count: u64) -> WorkloadSpec {
    let flow = FiveTuple::new(host_ip(0), host_ip(1), sport, dport, 17);
    WorkloadSpec::simple(host_mac(0), host_mac(1), flow, len, offered, count)
}

/// `n` UDP flows from host 0 to host 1, source ports `sport..sport + n`.
pub fn flows(n: u16, sport: u16, dport: u16) -> Vec<FiveTuple> {
    (0..n)
        .map(|i| FiveTuple::new(host_ip(0), host_ip(1), sport + i, dport, 17))
        .collect()
}

/// Paced traffic from host 0 to host 1 over `flows`.
pub fn paced(
    flows: impl Into<FlowSet>,
    pick: FlowPick,
    frame_len: usize,
    offered: Rate,
    count: u64,
    seed: u64,
) -> WorkloadSpec {
    WorkloadSpec {
        src_mac: host_mac(0),
        dst_mac: host_mac(1),
        flows: flows.into(),
        pick,
        frame_len,
        offered: Some(offered),
        arrival: Arrival::Paced,
        count,
        seed,
        flow_id_base: 0,
    }
}

/// The two hosts every rig starts with: a generator running `spec` on
/// port 0 (40 G link) and `sink` on port 1 behind `sink_link`.
pub fn testbed(seed: u64, spec: WorkloadSpec, sink: SinkNode, sink_link: LinkSpec) -> Testbed {
    let mut tb = Testbed::new(seed);
    tb.gen(spec, LinkSpec::testbed_40g());
    tb.host(sink, sink_link);
    tb
}

/// [`testbed`] with a plain sink, plus one default memory server of `region`
/// bytes on port 2 whose 40 G link drops `loss` of its frames.
pub fn testbed_with_server(
    seed: u64,
    spec: WorkloadSpec,
    sink_link: LinkSpec,
    region: ByteSize,
    loss: f64,
) -> (Testbed, RdmaChannel) {
    let mut tb = testbed(seed, spec, SinkNode::new("sink1"), sink_link);
    let mut lossy = LinkSpec::testbed_40g();
    lossy.faults = FaultSpec::drop(loss);
    let (_, channel) = tb.server(RnicConfig::default(), region, lossy);
    (tb, channel)
}

/// A Fetch-and-Add engine in reliable mode, retransmitting after `rto_us`.
pub fn reliable_faa(rto_us: u64) -> FaaConfig {
    FaaConfig {
        reliable: true,
        rto: TimeDelta::from_micros(rto_us),
        ..Default::default()
    }
}

/// The 10 G drain port that keeps a 20–30 G burst detouring.
pub fn drain_10g() -> LinkSpec {
    LinkSpec::new(Rate::from_gbps(10), TimeDelta::from_nanos(300))
}

/// The pipeline program running on `t`'s switch.
pub fn program<P: PipelineProgram>(t: &Built) -> &P {
    t.sim.node::<SwitchNode>(t.switch).program::<P>()
}

/// The sink on port 1 of `t`.
pub fn sink(t: &Built) -> &SinkNode {
    t.sim.node::<SinkNode>(t.hosts[1])
}

/// The `counters` 64-bit words at `at` (`rkey`, `base_va`) in the region of
/// `t`'s server `server`.
fn counters_at(t: &Built, server: usize, at: (Rkey, u64), counters: u64) -> Vec<u64> {
    read_remote_counters(
        t.sim.node::<RnicNode>(t.servers[server]),
        at.0,
        at.1,
        counters,
    )
}

/// The packet-buffer detour behind a lossy memory-server link, reliable
/// mode: `count` 800 B frames at 30 G into a 10 G drain port, so every frame
/// past the first few takes the WRITE + chained-READ round trip through a
/// ring of `entry`-byte slots, one per frame (the ring never wraps). Runs
/// until the drain time plus `settle`.
pub fn lossy_detour(seed: u64, count: u64, entry: u64, loss: f64, settle: TimeDelta) -> Built {
    let spec = one_flow(5000, 9000, 800, Rate::from_gbps(30), count);
    let region = ByteSize::from_bytes((count + 8) * entry);
    let (tb, channel) = testbed_with_server(seed, spec, drain_10g(), region, loss);
    let prog = PacketBufferProgram::new(
        tb.fib(),
        vec![channel],
        PortId(1),
        entry,
        Mode::Auto {
            start_store_qbytes: 4096,
            resume_load_qbytes: 2048,
        },
        8,
        TimeDelta::from_micros(50),
    )
    .with_reliability(ReliableConfig {
        rto: TimeDelta::from_micros(50),
        ..Default::default()
    });
    let mut t = tb.build(SwitchConfig::default(), Box::new(prog));
    let drain = TimeDelta::from_secs_f64(count as f64 * 800.0 * 8.0 / 10e9);
    t.sim.run_until(Time::ZERO + drain + settle);
    t
}

/// The single-server state store: every frame of `spec` is one
/// Fetch-and-Add into `counters` remote words over a link dropping `loss`,
/// flushed every `flush`. The flush tick re-arms forever, so the run is
/// driven to the fixed deadline `until`; returns the settled remote counters
/// with the run.
pub fn faa_store(
    seed: u64,
    spec: WorkloadSpec,
    counters: u64,
    loss: f64,
    faa: FaaConfig,
    flush: TimeDelta,
    until: Time,
) -> (Built, Vec<u64>) {
    let region = ByteSize::from_bytes(counters * 8);
    let (tb, channel) = testbed_with_server(seed, spec, LinkSpec::testbed_40g(), region, loss);
    let at = (channel.rkey, channel.base_va);
    let shards = vec![(0, FaaEngine::new(channel, faa), true)];
    let prog = ShardedStateStoreProgram::new(tb.fib(), shards, 1, flush);
    let mut t = tb.build(SwitchConfig::default(), Box::new(prog));
    t.sim.run_until(until);
    let remote = counters_at(&t, 0, at, counters);
    (t, remote)
}

/// The replicated state store (primary + mirror): one Fetch-and-Add per
/// 256 B frame at 2 G, ~1 us of traffic per update. Server `crash` (0 the
/// primary, 1 the mirror) dies a quarter into the run and, with `rejoin`,
/// restarts at the halfway mark so reseed and delta replay overlap live
/// load. Runs 10 ms past the last send; returns each replica's settled
/// counters with the run.
pub fn failover_store(
    seed: u64,
    counters: u64,
    count: u64,
    crash: Option<usize>,
    rejoin: bool,
) -> (Built, [Vec<u64>; 2]) {
    let region = ByteSize::from_bytes(counters * 8);
    let link = LinkSpec::testbed_40g();
    let spec = one_flow(5000, 9000, 256, Rate::from_gbps(2), count);
    let (mut tb, ch_a) = testbed_with_server(seed, spec, link, region, 0.0);
    let (_, ch_b) = tb.server(RnicConfig::default(), region, link);
    let at = (ch_a.rkey, ch_a.base_va);
    let engine = FaaEngine::replicated(
        vec![ch_a, ch_b],
        reliable_faa(30),
        PoolConfig {
            down_threshold: 2,
            probe_interval: TimeDelta::from_micros(100),
        },
    );
    let shards = vec![(0, engine, true)];
    let prog = ShardedStateStoreProgram::new(tb.fib(), shards, 1, TimeDelta::from_micros(30));
    let mut t = tb.build(SwitchConfig::default(), Box::new(prog));
    if let Some(server) = crash {
        t.sim
            .schedule_crash(t.servers[server], TimeDelta::from_micros(count / 4));
        if rejoin {
            t.sim
                .schedule_restart(t.servers[server], TimeDelta::from_micros(count / 2));
        }
    }
    t.sim
        .run_until(Time::from_micros(count) + TimeDelta::from_millis(10));
    let dumps = [0, 1].map(|s| counters_at(&t, s, at, counters));
    (t, dumps)
}

/// The cacheless cuckoo miss storm: `n_flows` resident flows in a directory
/// of `cfg`, `count` round-robin 256 B frames at `offered`, every one a
/// remote lookup on the verb or the remote-op miss path. Runs to quiescence
/// and asserts exact delivery; also returns the relocations the installs
/// paid to keep the switch-side filter truthful.
pub fn cuckoo_storm(
    seed: u64,
    cfg: CuckooConfig,
    n_flows: u16,
    offered: Rate,
    count: u64,
    remote_ops: bool,
) -> (Built, u32) {
    let resident = flows(n_flows, 40_000, 80);
    let mut dir = CuckooDirectory::new(cfg);
    let mut fp_moves = 0;
    for f in &resident {
        let plan = dir
            .plan_insert(*f, ActionEntry::set_dscp(46))
            .expect("pre-population fits");
        fp_moves += plan.fp_moves;
    }
    let spec = paced(resident, FlowPick::RoundRobin, 256, offered, count, 9);
    let region = ByteSize::from_bytes(dir.region_bytes());
    let (mut tb, channel) = testbed_with_server(seed, spec, LinkSpec::testbed_40g(), region, 0.0);
    install_cuckoo_image(tb.nic_mut(0), &channel, &dir);
    let prog = LookupTableProgram::cuckoo(tb.fib(), channel, dir, None).with_remote_ops(remote_ops);
    let mut t = tb.build(SwitchConfig::default(), Box::new(prog));
    t.sim.run_to_quiescence();
    assert_eq!(sink(&t).received, count, "forward path lost frames");
    (t, fp_moves)
}
