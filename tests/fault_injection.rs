//! Fault-injection integration tests: the §7 "RDMA packet drops"
//! discussion, exercised end to end.
//!
//! * reliable packet buffer: lost RDMA packets are retransmitted — exact
//!   recovery, no duplicates, no reordering, no wedge,
//! * best-effort state store: drops cause undercount,
//! * reliable state store (§7 extension): exact counts despite loss,
//! * corruption: bad ICRC frames die at the NIC, never reach memory.

use extmem_apps::scenario::{host_ip, host_mac, Built, Testbed};
use extmem_apps::workload::{SinkNode, WorkloadSpec};
use extmem_core::faa::{FaaConfig, FaaEngine};
use extmem_core::packet_buffer::{Mode, PacketBufferProgram};
use extmem_core::state_store::read_remote_counters;
use extmem_core::RdmaChannel;
use extmem_core::ShardedStateStoreProgram;
use extmem_rnic::{RnicConfig, RnicNode};
use extmem_sim::{FaultSpec, LinkSpec};
use extmem_switch::{SwitchConfig, SwitchNode};
use extmem_types::{ByteSize, FiveTuple, PortId, Rate, Rkey, Time, TimeDelta};

/// One paced flow (host 0 → host 1) into a sink behind `sink_link`, and a
/// memory server of `region` bytes that goes dark for `outage` and whose
/// link carries `faults`.
fn faulty_rig(
    seed: u64,
    (frame_len, gbps, count): (usize, u64, u64),
    sink_link: LinkSpec,
    region: ByteSize,
    outage: Option<(Time, Time)>,
    faults: FaultSpec,
) -> (Testbed, RdmaChannel) {
    let mut tb = Testbed::new(seed);
    tb.gen(
        WorkloadSpec::simple(
            host_mac(0),
            host_mac(1),
            FiveTuple::new(host_ip(0), host_ip(1), 5000, 9000, 17),
            frame_len,
            Rate::from_gbps(gbps),
            count,
        ),
        LinkSpec::testbed_40g(),
    );
    tb.sink(sink_link);
    let mut server_link = LinkSpec::testbed_40g();
    server_link.faults = faults;
    let config = RnicConfig {
        outage,
        ..Default::default()
    };
    let (_, channel) = tb.server(config, region, server_link);
    (tb, channel)
}

/// 600 × 256 B at 10 G through a 256-counter state store over a faulty
/// server link. Returns the built testbed and the region's `(rkey, base)`.
fn lossy_counting_rig(faa: FaaConfig, faults: FaultSpec, seed: u64) -> (Built, Rkey, u64) {
    let (tb, channel) = faulty_rig(
        seed,
        (256, 10, 600),
        LinkSpec::testbed_40g(),
        ByteSize::from_bytes(256 * 8),
        None,
        faults,
    );
    let (rkey, base) = (channel.rkey, channel.base_va);
    let engine = FaaEngine::new(channel, faa);
    let shards = vec![(0, engine, true)];
    let prog = ShardedStateStoreProgram::new(tb.fib(), shards, 1, TimeDelta::from_micros(30));
    (
        tb.build(SwitchConfig::default(), Box::new(prog)),
        rkey,
        base,
    )
}

/// `count` × 800 B at 30 G into a 10 G drain through the packet-buffer
/// detour, with the memory server going dark for `outage` and its link
/// carrying `faults`.
fn detour_rig(seed: u64, count: u64, outage: Option<(Time, Time)>, faults: FaultSpec) -> Built {
    let (tb, channel) = faulty_rig(
        seed,
        (800, 30, count),
        LinkSpec::new(Rate::from_gbps(10), TimeDelta::from_nanos(300)),
        ByteSize::from_mb(2),
        outage,
        faults,
    );
    let prog = PacketBufferProgram::new(
        tb.fib(),
        vec![channel],
        PortId(1),
        2048,
        Mode::Auto {
            start_store_qbytes: 4096,
            resume_load_qbytes: 2048,
        },
        8,
        TimeDelta::from_micros(50),
    );
    tb.build(SwitchConfig::default(), Box::new(prog))
}

/// Sum of the server's first `counters` remote counters.
fn remote_total(t: &Built, rkey: Rkey, base: u64, counters: u64) -> u64 {
    let nic = t.sim.node::<RnicNode>(t.servers[0]);
    read_remote_counters(nic, rkey, base, counters).iter().sum()
}

#[test]
fn reliable_statestore_is_exact_under_drops() {
    let (mut rig, rkey, base) = lossy_counting_rig(
        FaaConfig {
            reliable: true,
            rto: TimeDelta::from_micros(40),
            ..Default::default()
        },
        FaultSpec {
            drop_prob: 0.05,
            corrupt_prob: 0.0,
            ..FaultSpec::NONE
        },
        404,
    );
    rig.sim.run_until(Time::from_millis(30));
    let sw: &SwitchNode = rig.sim.node(rig.switch);
    let prog = sw.program::<ShardedStateStoreProgram>();
    let s = prog.engine(0).stats();
    assert!(
        s.channel.retransmits > 0,
        "expected recovery activity: {s:?}"
    );
    assert!(prog.is_quiescent(), "must settle: {s:?}");
    let remote = remote_total(&rig, rkey, base, 256);
    let truth: u64 = prog.oracle.values().sum();
    assert_eq!(remote, truth, "reliable mode must be exact");
    // Forwarding untouched by the telemetry channel loss.
    assert_eq!(rig.sim.node::<SinkNode>(rig.hosts[1]).received, 600);
}

#[test]
fn best_effort_statestore_undercounts_under_drops() {
    let (mut rig, rkey, base) = lossy_counting_rig(
        FaaConfig::default(),
        FaultSpec {
            drop_prob: 0.08,
            corrupt_prob: 0.0,
            ..FaultSpec::NONE
        },
        405,
    );
    rig.sim.run_until(Time::from_millis(30));
    let sw: &SwitchNode = rig.sim.node(rig.switch);
    let prog = sw.program::<ShardedStateStoreProgram>();
    let remote = remote_total(&rig, rkey, base, 256);
    let truth: u64 = prog.oracle.values().sum();
    assert!(
        remote < truth,
        "8% loss must undercount (remote {remote} vs truth {truth})"
    );
    let s = prog.engine(0).stats();
    assert!(s.lost_updates > 0 || s.channel.naks > 0);
}

#[test]
fn best_effort_statestore_never_wedges_under_heavy_loss() {
    // Regression: lost AtomicAcks used to pin the outstanding window shut.
    // The RTO-based aging must keep the engine flowing and eventually
    // quiescent even at 20% loss.
    let (mut rig, _rkey, _base) = lossy_counting_rig(
        FaaConfig {
            rto: TimeDelta::from_micros(60),
            ..Default::default()
        },
        FaultSpec {
            drop_prob: 0.2,
            corrupt_prob: 0.0,
            ..FaultSpec::NONE
        },
        407,
    );
    rig.sim.run_until(Time::from_millis(40));
    let sw: &SwitchNode = rig.sim.node(rig.switch);
    let prog = sw.program::<ShardedStateStoreProgram>();
    let s = prog.engine(0).stats();
    assert!(
        prog.is_quiescent(),
        "engine wedged: in_transit={} stats={s:?}",
        prog.engine(0).in_transit()
    );
    assert!(s.lost_updates > 0, "20% loss must lose something: {s:?}");
    // Forwarding untouched.
    assert_eq!(rig.sim.node::<SinkNode>(rig.hosts[1]).received, 600);
}

#[test]
fn corruption_dies_at_the_nic() {
    let (mut rig, rkey, base) = lossy_counting_rig(
        FaaConfig {
            reliable: true,
            rto: TimeDelta::from_micros(40),
            ..Default::default()
        },
        FaultSpec {
            drop_prob: 0.0,
            corrupt_prob: 0.05,
            ..FaultSpec::NONE
        },
        406,
    );
    rig.sim.run_until(Time::from_millis(30));
    let nic = rig.sim.node::<RnicNode>(rig.servers[0]);
    assert!(
        nic.stats().malformed_drops > 0,
        "corruption should hit the ICRC"
    );
    assert_eq!(
        nic.stats().cpu_packets,
        0,
        "corrupt frames must not punt to the CPU"
    );
    // Reliability recovers the corrupted requests too.
    let sw: &SwitchNode = rig.sim.node(rig.switch);
    let prog = sw.program::<ShardedStateStoreProgram>();
    let remote = remote_total(&rig, rkey, base, 256);
    let truth: u64 = prog.oracle.values().sum();
    assert_eq!(remote, truth, "reliable mode must absorb corruption");
}

#[test]
fn packet_buffer_never_duplicates_or_reorders_under_loss() {
    for seed in [1u64, 77, 901] {
        let faults = FaultSpec {
            drop_prob: 0.04,
            corrupt_prob: 0.02,
            ..FaultSpec::NONE
        };
        let Built {
            mut sim,
            switch,
            hosts,
            ..
        } = detour_rig(seed, 400, None, faults);
        sim.run_until(Time::from_millis(50));

        let sink = sim.node::<SinkNode>(hosts[1]);
        assert_eq!(
            sink.corrupt, 0,
            "seed {seed}: corrupted payload leaked through"
        );
        assert_eq!(sink.total_reorders(), 0, "seed {seed}: order violated");
        assert!(
            sink.received > 200,
            "seed {seed}: channel collapsed ({})",
            sink.received
        );
        let sw: &SwitchNode = sim.node(switch);
        let s = sw.program::<PacketBufferProgram>().stats();
        assert_eq!(
            s.lost_entries, 0,
            "seed {seed}: reliable channel must lose nothing: {s:?}"
        );
        assert_eq!(
            s.loaded, s.stored,
            "seed {seed}: entries unaccounted: {s:?}"
        );
    }
}

#[test]
fn server_outage_and_recovery_with_reliable_statestore() {
    // §7 "handling switch and server failures": the memory server goes dark
    // for 2ms mid-run. Reliable mode keeps retransmitting; once the server
    // recovers, every count lands and the store is exact again.
    let counters = 128u64;
    let (tb, channel) = faulty_rig(
        777,
        (256, 2, 2_000), // spans the outage: 2000 * 256B @ 2G = ~2ms of traffic
        LinkSpec::testbed_40g(),
        ByteSize::from_bytes(counters * 8),
        Some((Time::from_millis(1), Time::from_millis(3))),
        FaultSpec::NONE,
    );
    let rkey = channel.rkey;
    let base = channel.base_va;
    let engine = FaaEngine::new(
        channel,
        FaaConfig {
            reliable: true,
            rto: TimeDelta::from_micros(100),
            ..Default::default()
        },
    );
    let shards = vec![(0, engine, true)];
    let prog = ShardedStateStoreProgram::new(tb.fib(), shards, 1, TimeDelta::from_micros(50));
    let Built {
        mut sim,
        switch,
        hosts,
        servers,
        ..
    } = tb.build(SwitchConfig::default(), Box::new(prog));
    let (sink, server) = (hosts[1], servers[0]);

    // During the outage, the remote store is frozen while truth advances.
    sim.run_until(Time::from_micros(2_500));
    {
        let sw: &SwitchNode = sim.node(switch);
        let prog = sw.program::<ShardedStateStoreProgram>();
        let nic = sim.node::<RnicNode>(server);
        assert!(nic.stats().outage_drops > 0, "outage never bit");
        let remote: u64 = read_remote_counters(nic, rkey, base, counters).iter().sum();
        let truth: u64 = prog.oracle.values().sum();
        assert!(remote < truth, "store should lag during the outage");
    }

    // After recovery + retransmissions, exactness is restored.
    sim.run_until(Time::from_millis(30));
    let sw: &SwitchNode = sim.node(switch);
    let prog = sw.program::<ShardedStateStoreProgram>();
    let s = prog.engine(0).stats();
    assert!(s.channel.retransmits > 0, "recovery must retransmit: {s:?}");
    assert!(prog.is_quiescent(), "must settle after recovery: {s:?}");
    let nic = sim.node::<RnicNode>(server);
    let remote: u64 = read_remote_counters(nic, rkey, base, counters).iter().sum();
    let truth: u64 = prog.oracle.values().sum();
    assert_eq!(
        remote, truth,
        "counts must converge after the server returns"
    );
    // Forwarding was never disturbed by the telemetry outage.
    assert_eq!(sim.node::<SinkNode>(sink).received, 2_000);
}

#[test]
fn server_outage_packet_buffer_recovers_exactly() {
    // A short outage (well inside the retry budget) is invisible to the
    // payload stream: the reliable channel retransmits what was in flight
    // and every detoured packet is eventually released in order.
    let Built {
        mut sim,
        switch,
        hosts,
        servers,
        ..
    } = detour_rig(
        778,
        600,
        Some((Time::from_micros(200), Time::from_micros(600))),
        FaultSpec::NONE,
    );
    sim.run_until(Time::from_millis(60));

    let sink = sim.node::<SinkNode>(hosts[1]);
    let sw: &SwitchNode = sim.node(switch);
    let s = sw.program::<PacketBufferProgram>().stats();
    let nic = sim.node::<RnicNode>(servers[0]);
    assert!(nic.stats().outage_drops > 0, "outage never bit");
    assert!(s.channel.retransmits > 0, "recovery must retransmit: {s:?}");
    assert!(
        !s.channel.failed_over,
        "short outage must not fail over: {s:?}"
    );
    assert_eq!(
        s.lost_entries, 0,
        "reliable channel must lose nothing: {s:?}"
    );
    assert_eq!(s.loaded, s.stored, "entries unaccounted: {s:?}");
    assert_eq!(sink.total_reorders(), 0);
    assert_eq!(sink.received, 600, "every packet must be delivered");
}
