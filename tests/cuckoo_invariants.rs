//! One-RTT cuckoo lookup invariants at simulation level.
//!
//! The cuckoo rework's central promise is *no transient miss*: a key that is
//! resident when a lookup is issued resolves in exactly one filter-steered
//! bucket READ, even while the relocation machinery is displacing entries
//! on the same wire. These tests drive the full switch + RNIC topology:
//!
//! * a relocation storm — scripted inserts/deletes churn the table under
//!   live traffic; every packet must resolve in one READ with zero
//!   slow-path punts, and the remote region must converge bit-for-bit to
//!   the control-plane directory,
//! * the collision cell on both table programs — the exact flow pair the
//!   direct table aliases to one slot gets two distinct actions from the
//!   cuckoo table, demonstrated end to end by steering the packets to
//!   different egress ports.

use extmem_apps::scenario::{host_ip, host_mac, Built, Testbed};
use extmem_apps::workload::{Arrival, FlowPick, SinkNode, WorkloadSpec};
use extmem_core::cuckoo::{CuckooConfig, CuckooDirectory};
use extmem_core::direct_table::{install_remote_action, DirectTableProgram};
use extmem_core::lookup::{
    install_cuckoo_image, ActionEntry, ChurnScript, ControlOp, LookupTableProgram, TOKEN_CHURN,
    TOKEN_CONTROL,
};
use extmem_core::RdmaChannel;
use extmem_rnic::{RnicConfig, RnicNode};
use extmem_sim::LinkSpec;
use extmem_switch::switch::program_token;
use extmem_switch::{SwitchConfig, SwitchNode};
use extmem_types::{ByteSize, FiveTuple, PortId, Rate, Time, TimeDelta};

/// Paced 256 B traffic over `flows` from host 0 to host 1.
fn traffic(
    flows: Vec<FiveTuple>,
    pick: FlowPick,
    gbps: u64,
    count: u64,
    seed: u64,
) -> WorkloadSpec {
    WorkloadSpec {
        src_mac: host_mac(0),
        dst_mac: host_mac(1),
        flows: flows.into(),
        pick,
        frame_len: 256,
        offered: Some(Rate::from_gbps(gbps)),
        arrival: Arrival::Paced,
        count,
        seed,
        flow_id_base: 0,
    }
}

/// A sink that checks every delivered frame carries `dscp`.
fn dscp_sink(dscp: u8) -> SinkNode {
    let mut sink = SinkNode::new("server");
    sink.expect_dscp = Some(dscp);
    sink
}

/// Client on port 0, DSCP-checking server on port 1, table server of
/// `region_bytes` on port 2.
fn lookup_rig(
    seed: u64,
    spec: WorkloadSpec,
    dscp: u8,
    region_bytes: u64,
) -> (Testbed, usize, RdmaChannel) {
    let link = LinkSpec::testbed_40g();
    let mut tb = Testbed::new(seed);
    tb.gen(spec, link);
    tb.host(dscp_sink(dscp), link);
    let (table, channel) = tb.server(
        RnicConfig::default(),
        ByteSize::from_bytes(region_bytes),
        link,
    );
    (tb, table, channel)
}

/// The table server's bytes must equal the program's directory image.
fn assert_region_matches_directory(t: &Built, rkey: extmem_types::Rkey, base_va: u64) {
    let sw: &SwitchNode = t.sim.node(t.switch);
    let image = sw
        .program::<LookupTableProgram>()
        .directory()
        .encode_region();
    let remote = t
        .sim
        .node::<RnicNode>(t.servers[0])
        .region(rkey)
        .read(base_va, image.len() as u64)
        .unwrap();
    assert_eq!(remote, &image[..], "remote region diverged from directory");
}

/// Live churn under traffic: every lookup issued while relocations are in
/// flight still resolves in exactly one READ — the event-interleaved
/// no-transient-miss invariant, asserted over 1500 packets and 192 table
/// operations sharing one wire. Runs in both wire modes: verb (filter-
/// steered bucket READs) and remote-op (hash-probe-and-fetch lookups of the
/// same filter-steered bucket); relocations are READ-verify + WRITE in
/// both.
fn relocation_storm(remote_ops: bool) {
    const COUNT: u64 = 1_500;
    const DSCP: u8 = 46;
    const TRAFFIC_KEYS: u16 = 140;
    const CHURN_KEYS: u16 = 96;
    const WINDOW: usize = 8;
    let cfg = CuckooConfig {
        buckets: 64,
        filter_cells: 2048,
        filter_hashes: 2,
        max_plan_steps: 64,
    };
    let mut dir = CuckooDirectory::new(cfg);
    let flows: Vec<FiveTuple> = (0..TRAFFIC_KEYS)
        .map(|i| FiveTuple::new(host_ip(0), host_ip(1), 40_000 + i, 80, 17))
        .collect();
    for f in &flows {
        dir.install(*f, ActionEntry::set_dscp(DSCP)).unwrap();
    }
    let churn_keys: Vec<FiveTuple> = (0..CHURN_KEYS)
        .map(|i| FiveTuple::new(host_ip(0), host_ip(1), 50_000 + i, 80, 17))
        .collect();
    let mut ops = Vec::new();
    for (i, k) in churn_keys.iter().enumerate() {
        ops.push(ControlOp::Insert(*k, ActionEntry::set_dscp(12)));
        if i >= WINDOW {
            ops.push(ControlOp::Remove(churn_keys[i - WINDOW]));
        }
    }
    for k in &churn_keys[CHURN_KEYS as usize - WINDOW..] {
        ops.push(ControlOp::Remove(*k));
    }
    let script = ChurnScript {
        ops,
        period: TimeDelta::from_micros(1),
    };

    let spec = traffic(flows, FlowPick::Zipf(1.1), 5, COUNT, 17);
    let (mut tb, table, channel) = lookup_rig(83, spec, DSCP, dir.region_bytes());
    let (rkey, base_va) = (channel.rkey, channel.base_va);
    install_cuckoo_image(tb.nic_mut(table), &channel, &dir);
    let prog = LookupTableProgram::cuckoo(tb.fib(), channel, dir, None)
        .with_remote_ops(remote_ops)
        .with_churn(script);
    let mut t = tb.build(SwitchConfig::default(), Box::new(prog));
    t.sim.schedule_timer(
        t.switch,
        TimeDelta::from_micros(2),
        program_token(TOKEN_CHURN),
    );
    t.sim.run_to_quiescence();

    let sim = &t.sim;
    let (switch, server, table) = (t.switch, t.hosts[1], t.servers[0]);
    let sink = sim.node::<SinkNode>(server);
    let sw: &SwitchNode = sim.node(switch);
    let prog = sw.program::<LookupTableProgram>();
    let s = prog.stats();
    assert_eq!(sink.received, COUNT, "packets lost: {s:?}");
    assert_eq!(sink.dscp_mismatch, 0, "a punted packet kept its old DSCP");
    assert_eq!(s.remote_lookups, COUNT, "cacheless: all remote: {s:?}");
    assert_eq!(s.slow_path, 0, "transient miss punted: {s:?}");
    assert_eq!(s.bucket_misses, 0, "filter misdirected a probe: {s:?}");
    assert_eq!(
        s.rtts_per_miss(),
        Some(1.0),
        "one round trip per miss: {s:?}"
    );
    assert_eq!(
        s.reads_per_lookup(),
        Some(1.0),
        "more than one READ per miss: {s:?}"
    );
    assert!(
        s.relocation_moves > 0,
        "storm never displaced anyone: {s:?}"
    );
    assert_eq!(s.inserts_applied, CHURN_KEYS as u64, "{s:?}");
    assert_eq!(s.removes_applied, CHURN_KEYS as u64, "{s:?}");
    assert_eq!(s.inserts_rejected, 0, "{s:?}");
    assert_eq!(s.verify_mismatches, 0, "directory drifted: {s:?}");
    assert!(prog.relocation_idle(), "relocation work leaked: {s:?}");

    // The remote bytes and the data plane's filter both converge to the
    // control-plane directory exactly.
    assert_region_matches_directory(&t, rkey, base_va);
    assert_eq!(
        prog.live_filter().raw_counts(),
        prog.directory().filter().raw_counts(),
        "live filter diverged from planned filter"
    );
    let nic = sim.node::<RnicNode>(table).stats();
    assert_eq!(nic.cpu_packets, 0, "remote memory must stay one-sided");
    if remote_ops {
        // Every lookup, and nothing else, rode the remote-op engine.
        assert_eq!(nic.ext_ops, COUNT, "one probe per lookup: {nic:?}");
    } else {
        assert_eq!(nic.ext_ops, 0, "verb baseline must not use remote ops");
    }
}

#[test]
fn no_transient_miss_under_relocation_storm() {
    relocation_storm(false);
}

#[test]
fn no_transient_miss_under_relocation_storm_remote_ops() {
    relocation_storm(true);
}

fn table_prog(t: &mut Built) -> &mut LookupTableProgram {
    t.sim
        .node_mut::<SwitchNode>(t.switch)
        .program_mut::<LookupTableProgram>()
}

/// The table's direct control-plane entry: `queue_insert` then
/// `queue_remove` from the driver while resident keys carry traffic. After
/// each op settles the remote bytes equal the directory image, and no
/// lookup is punted at any point.
#[test]
fn queued_insert_then_remove_under_traffic() {
    const COUNT: u64 = 400;
    const DSCP: u8 = 46;
    let flows: Vec<FiveTuple> = (0..32)
        .map(|i| FiveTuple::new(host_ip(0), host_ip(1), 40_000 + i, 80, 17))
        .collect();
    let mut dir = CuckooDirectory::new(CuckooConfig::for_capacity(64));
    for f in &flows {
        dir.install(*f, ActionEntry::set_dscp(DSCP)).unwrap();
    }
    // ~400us of traffic at 2 Gbps.
    let spec = traffic(flows, FlowPick::RoundRobin, 2, COUNT, 5);
    let (mut tb, table, channel) = lookup_rig(101, spec, DSCP, dir.region_bytes());
    let (rkey, base_va) = (channel.rkey, channel.base_va);
    install_cuckoo_image(tb.nic_mut(table), &channel, &dir);
    let prog = LookupTableProgram::cuckoo(tb.fib(), channel, dir, None);
    let mut t = tb.build(SwitchConfig::default(), Box::new(prog));

    let key = FiveTuple::new(host_ip(0), host_ip(1), 50_000, 80, 17);
    t.sim.run_until(Time::from_micros(50));
    table_prog(&mut t).queue_insert(key, ActionEntry::set_dscp(12));
    t.sim
        .schedule_timer(t.switch, TimeDelta::ZERO, program_token(TOKEN_CONTROL));
    t.sim.run_until(Time::from_micros(150));
    let prog = table_prog(&mut t);
    assert!(prog.relocation_idle(), "insert still in flight");
    assert_eq!(
        prog.directory().lookup(&key),
        Some(ActionEntry::set_dscp(12))
    );
    assert_region_matches_directory(&t, rkey, base_va);

    table_prog(&mut t).queue_remove(key);
    t.sim
        .schedule_timer(t.switch, TimeDelta::ZERO, program_token(TOKEN_CONTROL));
    t.sim.run_to_quiescence();
    let prog = table_prog(&mut t);
    assert!(prog.relocation_idle(), "remove still in flight");
    assert_eq!(prog.directory().lookup(&key), None);
    let s = prog.stats();
    assert_eq!((s.inserts_applied, s.removes_applied), (1, 1), "{s:?}");
    assert_eq!(s.slow_path, 0, "control op punted a lookup: {s:?}");
    assert_eq!(s.reads_per_lookup(), Some(1.0), "{s:?}");
    assert_region_matches_directory(&t, rkey, base_va);
    let sink = t.sim.node::<SinkNode>(t.hosts[1]);
    assert_eq!(sink.received, COUNT, "packets lost: {s:?}");
    assert_eq!(sink.dscp_mismatch, 0);
}

/// A pair of distinct flows that alias under the direct-hash slot
/// arithmetic over `entries` slots.
fn colliding_pair(entries: u64) -> (FiveTuple, FiveTuple) {
    use extmem_switch::hash::flow_index;
    for a in 0..500u16 {
        for b in (a + 1)..500 {
            let fa = FiveTuple::new(host_ip(0), host_ip(1), 1000 + a, 80, 17);
            let fb = FiveTuple::new(host_ip(0), host_ip(1), 1000 + b, 80, 17);
            if flow_index(&fa, entries) == flow_index(&fb, entries) {
                return (fa, fb);
            }
        }
    }
    panic!("a collision must exist in 500 flows over {entries} slots");
}

/// The direct table: the aliasing pair shares one slot, so the uninstalled
/// flow silently receives the installed flow's action — the defect the
/// cuckoo table exists to remove (and the ablation must keep exhibiting).
#[test]
fn collision_cell_direct_hash_aliases_the_pair() {
    const ENTRIES: u64 = 64;
    const DSCP: u8 = 46;
    let (fa, fb) = colliding_pair(ENTRIES);
    let spec = traffic(vec![fa, fb], FlowPick::RoundRobin, 2, 2, 1);
    let (mut tb, table, channel) = lookup_rig(89, spec, DSCP, ENTRIES * 2048);
    // Only `fa` is installed; `fb` hashes to the same slot.
    install_remote_action(
        tb.nic_mut(table),
        &channel,
        2048,
        &fa,
        ActionEntry::set_dscp(DSCP),
    );
    let prog = DirectTableProgram::new(tb.fib(), channel, 2048, None);
    let Built {
        mut sim,
        switch,
        hosts,
        ..
    } = tb.build(SwitchConfig::default(), Box::new(prog));
    sim.run_to_quiescence();
    let server = hosts[1];

    let sink = sim.node::<SinkNode>(server);
    let sw: &SwitchNode = sim.node(switch);
    let s = sw.program::<DirectTableProgram>().stats();
    assert_eq!(sink.received, 2);
    // The alias: BOTH packets carry fa's DSCP, including fb's.
    assert_eq!(sink.dscp_mismatch, 0, "fb must receive fa's action: {s:?}");
    assert_eq!(s.actions_applied, 2, "{s:?}");
}

/// The direct table bounces every missing packet through its slot: the
/// WRITE is a length in front of the arrival frame itself (the frame is the
/// WRITE's tail, not copied into a payload of its own), and the READ behind
/// it brings back `[action][len][packet]`. Every frame must come back
/// whole, the slot must hold what was bounced, and the arrival frame's
/// buffer must return to the frame pool once the pair completes.
#[test]
fn direct_hash_bounce_round_trips_the_arrival_frame() {
    const ENTRIES: u64 = 64;
    const COUNT: u64 = 400;
    const DSCP: u8 = 46;
    let flows: Vec<FiveTuple> = (0..8)
        .map(|i| FiveTuple::new(host_ip(0), host_ip(1), 30_000 + i, 80, 17))
        .collect();
    let spec = traffic(flows.clone(), FlowPick::RoundRobin, 2, COUNT, 3);
    let (mut tb, table, channel) = lookup_rig(91, spec, DSCP, ENTRIES * 2048);
    let (rkey, base_va) = (channel.rkey, channel.base_va);
    for flow in &flows {
        let action = ActionEntry::set_dscp(DSCP);
        install_remote_action(tb.nic_mut(table), &channel, 2048, flow, action);
    }
    let prog = DirectTableProgram::new(tb.fib(), channel, 2048, None);
    let mut t = tb.build(SwitchConfig::default(), Box::new(prog));
    // A quarter of the run warms the frame pool; from then on every build
    // finds a buffer some consumer gave back.
    t.sim.run_until(Time::from_micros(100));
    let misses = extmem_wire::pool::miss_count();
    t.sim.run_to_quiescence();
    assert_eq!(
        extmem_wire::pool::miss_count(),
        misses,
        "a buffer left the pool"
    );

    let sink = t.sim.node::<SinkNode>(t.hosts[1]);
    assert_eq!(
        (sink.received, sink.corrupt, sink.dscp_mismatch),
        (COUNT, 0, 0)
    );
    let sw: &SwitchNode = t.sim.node(t.switch);
    let prog = sw.program::<DirectTableProgram>();
    let s = prog.stats();
    assert_eq!(
        (s.remote_lookups, s.responses, s.actions_applied),
        (COUNT, COUNT, COUNT),
        "{s:?}"
    );
    assert_eq!(s.channel.retransmits, 0, "{s:?}");
    // Each slot's scratch area: the length, then the last frame bounced
    // through it, as it arrived (the action is applied on the way out).
    let region = t.sim.node::<RnicNode>(t.servers[0]).region(rkey);
    for flow in &flows {
        let va = base_va + prog.slot_of(flow) * 2048 + 16;
        let scratch = region.read(va, 2 + 256).unwrap();
        assert_eq!(scratch[..2], 256u16.to_be_bytes());
        let frame = extmem_wire::Packet::from_vec(scratch[2..].to_vec());
        let info = extmem_wire::payload::parse_data_packet(&frame)
            .expect("bounced bytes are an intact frame")
            .expect("a workload frame");
        assert_eq!(info.ipv4.dscp, 0, "stored before the action applied");
        assert_eq!(prog.slot_of(&info.five_tuple()), prog.slot_of(flow));
    }
}

/// The cuckoo table: the same colliding pair resolves to two distinct actions,
/// one READ each — proven end to end by steering `fb` out a different
/// egress port while `fa` keeps its DSCP mark.
#[test]
fn collision_cell_cuckoo_resolves_the_pair() {
    const DSCP_A: u8 = 46;
    const DSCP_B: u8 = 12;
    let (fa, fb) = colliding_pair(64);
    let mut dir = CuckooDirectory::new(CuckooConfig::for_capacity(64));
    dir.install(fa, ActionEntry::set_dscp(DSCP_A)).unwrap();
    dir.install(
        fb,
        ActionEntry {
            port_override: Some(PortId(3)),
            ..ActionEntry::set_dscp(DSCP_B)
        },
    )
    .unwrap();
    // Ports: client 0, server A 1, table server 2, server B 3.
    let spec = traffic(vec![fa, fb], FlowPick::RoundRobin, 2, 2, 1);
    let (mut tb, table, channel) = lookup_rig(97, spec, DSCP_A, dir.region_bytes());
    assert_eq!(
        tb.host(dscp_sink(DSCP_B), LinkSpec::testbed_40g()),
        PortId(3)
    );
    install_cuckoo_image(tb.nic_mut(table), &channel, &dir);
    let prog = LookupTableProgram::cuckoo(tb.fib(), channel, dir, None);
    let Built {
        mut sim,
        switch,
        hosts,
        ..
    } = tb.build(SwitchConfig::default(), Box::new(prog));
    sim.run_to_quiescence();
    let (server_a, server_b) = (hosts[1], hosts[2]);

    let sw: &SwitchNode = sim.node(switch);
    let s = sw.program::<LookupTableProgram>().stats();
    let sink_a = sim.node::<SinkNode>(server_a);
    let sink_b = sim.node::<SinkNode>(server_b);
    assert_eq!(sink_a.received, 1, "fa's packet by FIB: {s:?}");
    assert_eq!(sink_a.dscp_mismatch, 0, "fa got the wrong action: {s:?}");
    assert_eq!(sink_b.received, 1, "fb's packet steered to port 3: {s:?}");
    assert_eq!(sink_b.dscp_mismatch, 0, "fb got the wrong action: {s:?}");
    assert_eq!(s.responses, 2, "one READ each: {s:?}");
    assert_eq!(s.bucket_misses, 0, "{s:?}");
    assert_eq!(s.slow_path, 0, "{s:?}");
    assert_eq!(s.reads_per_lookup(), Some(1.0), "{s:?}");
}
