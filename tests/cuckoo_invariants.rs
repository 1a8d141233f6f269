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
        .unwrap()
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
    let region = t.sim.node::<RnicNode>(t.servers[0]).region(rkey).unwrap();
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

/// What the switch's lookup program shows the memory server in the
/// checker below, refreshed after every event it handles: its live
/// fingerprints and the slots a WRITE it issued is still in the channel for.
#[derive(Default)]
struct LiveView {
    fingerprints: Vec<u8>,
    writing: Vec<u64>,
}

type Shared = std::sync::Arc<std::sync::Mutex<LiveView>>;

/// One step of a relocation storm, run when program timer `i` fires.
#[derive(Clone, Copy, Debug)]
enum StormStep {
    /// A packet of a resident flow arrives: a verb-path miss.
    Lookup(FiveTuple),
    /// A control op is queued and the relocation pump runs.
    Control(ControlOp),
}

/// The lookup program under a scripted storm: timer `i` runs step `i`, and
/// every other timer and frame is the program's own.
struct Storm {
    prog: LookupTableProgram,
    steps: Vec<StormStep>,
    view: Shared,
}

impl Storm {
    fn publish(&self) {
        let mut view = self.view.lock().unwrap();
        view.fingerprints = self.prog.live_fingerprints().to_vec();
        view.writing = (self.prog.pool().ops())
            .filter_map(|(_, op)| match op {
                extmem_core::Op::Write { va, .. } => Some(*va),
                _ => None,
            })
            .collect();
    }
}

impl extmem_switch::PipelineProgram for Storm {
    fn ingress(
        &mut self,
        ctx: &mut extmem_switch::SwitchCtx<'_, '_, '_>,
        port: PortId,
        pkt: extmem_wire::Packet,
    ) {
        self.prog.ingress(ctx, port, pkt);
        self.publish();
    }

    fn on_timer(&mut self, ctx: &mut extmem_switch::SwitchCtx<'_, '_, '_>, token: u64) {
        match self.steps.get(token as usize) {
            Some(&StormStep::Lookup(flow)) => {
                let (src, dst) = (host_mac(0), host_mac(1));
                let pkt =
                    extmem_wire::payload::build_data_packet(src, dst, flow, 0, 0, Time::ZERO, 128)
                        .unwrap();
                self.prog.ingress(ctx, PortId(2), pkt);
            }
            Some(&StormStep::Control(op)) => {
                match op {
                    ControlOp::Insert(key, action) => self.prog.queue_insert(key, action),
                    ControlOp::Remove(key) => self.prog.queue_remove(key),
                }
                self.prog.on_timer(ctx, TOKEN_CONTROL);
            }
            None => self.prog.on_timer(ctx, token),
        }
        self.publish();
    }
}

/// The table server, checking after everything it does that each slot of
/// its region holding a key has that key's fingerprint as the switch's live
/// fingerprint, or has a WRITE in the channel that overwrites it.
struct Covered {
    nic: RnicNode,
    rkey: extmem_types::Rkey,
    base: u64,
    view: Shared,
    uncovered: Option<String>,
}

impl Covered {
    fn check(&mut self, ctx: &extmem_sim::NodeCtx<'_>) {
        use extmem_core::cuckoo::{decode_slot, SlotRef, SLOTS_PER_BUCKET, SLOT_BYTES};
        use extmem_switch::hash::slot_fingerprint;
        let view = self.view.lock().unwrap();
        let len = (view.fingerprints.len() * SLOT_BYTES) as u64;
        let region = self
            .nic
            .region(self.rkey)
            .unwrap()
            .read(self.base, len)
            .unwrap();
        let slots = region.chunks_exact(SLOT_BYTES).zip(&view.fingerprints);
        for (i, (bytes, &live)) in slots.enumerate() {
            let Some((key, _)) = decode_slot(bytes) else {
                continue;
            };
            let at = SlotRef {
                bucket: (i / SLOTS_PER_BUCKET) as u64,
                slot: i % SLOTS_PER_BUCKET,
            };
            let va = extmem_core::cuckoo::slot_va(self.base, at);
            let covered = live == slot_fingerprint(&key) || view.writing.contains(&va);
            if !covered && self.uncovered.is_none() {
                self.uncovered = Some(format!("{at:?} at {:?}", ctx.now()));
            }
        }
    }
}

impl extmem_sim::Node for Covered {
    fn on_packet(
        &mut self,
        ctx: &mut extmem_sim::NodeCtx<'_>,
        port: PortId,
        packet: extmem_wire::Packet,
    ) {
        self.nic.on_packet(ctx, port, packet);
        self.check(ctx);
    }
    fn on_timer(&mut self, ctx: &mut extmem_sim::NodeCtx<'_>, token: u64) {
        self.nic.on_timer(ctx, token);
        self.check(ctx);
    }
    fn on_tx_done(&mut self, ctx: &mut extmem_sim::NodeCtx<'_>, port: PortId) {
        self.nic.on_tx_done(ctx, port);
        self.check(ctx);
    }
    fn name(&self) -> &str {
        "covered"
    }
}

/// A wire between the switch (port 0) and the table server (port 1) that
/// drops, or holds back a microsecond so the frame behind it passes, the
/// `k`-th frame from port `from`, if `fault` names one.
struct OneFault {
    fault: Option<(usize, usize, bool)>,
    seen: [usize; 2],
    held: Vec<(usize, extmem_wire::Packet)>,
    tx: [extmem_sim::TxQueue; 2],
}

impl extmem_sim::Node for OneFault {
    fn on_packet(
        &mut self,
        ctx: &mut extmem_sim::NodeCtx<'_>,
        port: PortId,
        packet: extmem_wire::Packet,
    ) {
        let from = port.0 as usize;
        let k = self.seen[from];
        self.seen[from] += 1;
        match self.fault {
            Some((f, n, drop)) if (f, n) == (from, k) => {
                if !drop {
                    ctx.schedule(TimeDelta::from_micros(1), self.held.len() as u64);
                    self.held.push((1 - from, packet));
                }
            }
            _ => {
                self.tx[1 - from].send(ctx, packet);
            }
        }
    }
    fn on_timer(&mut self, ctx: &mut extmem_sim::NodeCtx<'_>, token: u64) {
        let (to, packet) = self.held[token as usize].clone();
        self.tx[to].send(ctx, packet);
    }
    fn on_tx_done(&mut self, ctx: &mut extmem_sim::NodeCtx<'_>, port: PortId) {
        self.tx[port.0 as usize].on_tx_done(ctx);
    }
    fn name(&self) -> &str {
        "one-fault"
    }
}

/// Where the looked-up packets leave the switch.
struct Drain;

impl extmem_sim::Node for Drain {
    fn on_packet(&mut self, _: &mut extmem_sim::NodeCtx<'_>, _: PortId, _: extmem_wire::Packet) {}
    fn name(&self) -> &str {
        "drain"
    }
}

/// Seeded relocation storms over tables of 2-8 buckets in verb mode:
/// resident flows looked up between inserts and removes of others that
/// relocate them, and at most one frame lost or reordered on the table
/// server's link. After everything the server does, every key in its
/// region has its own fingerprint as the switch's live fingerprint for its
/// slot (or a WRITE overwriting the slot is in the channel), so each bucket
/// READ, which covers the slots whose fingerprint matches the flow's,
/// covers the slot the responder holds the flow's key in when it runs. A
/// resident flow misses only behind a READ the responder re-executed (its
/// answer was lost), and such cases are counted; once settled the region,
/// the live fingerprints and the live filter equal the directory's.
#[test]
fn live_fingerprints_cover_every_key_through_relocation_storms() {
    use extmem_core::ReliableConfig;
    use extmem_sim::SimBuilder;
    use extmem_wire::roce::RoceEndpoint;
    use extmem_wire::MacAddr;
    use proptest::strategy::Strategy;
    use proptest::test_runner::TestRng;

    const CASES: u32 = 2_000;
    let endpoint = |i: u32| RoceEndpoint {
        mac: MacAddr::local(i),
        ip: 0x0a00_0000 + i,
    };
    let flow = |i: u16| FiveTuple::new(host_ip(0), host_ip(1), 40_000 + i, 80, 17);
    let schedule = (
        2u64..9,
        8usize..65,
        1usize..4,
        proptest::collection::vec((0u8..3, 0u16..64, 0u64..4), 4..40),
        (0u8..3, 0usize..2, 0usize..40),
    );
    // The seed keeps the name the checker had when its storms were first
    // numbered, so a case number names the same storm as before.
    let mut rng = TestRng::for_test("live_mask_covers_every_key_through_relocation_storms");
    let (mut lookups, mut moves, mut faulted, mut stale) = (0, 0, 0, 0);
    for case in 0..CASES {
        let (buckets, filter_cells, per_bucket, script, (fault, from, k)) =
            schedule.new_value(&mut rng);
        // No fault, or the `k`-th frame from one end dropped or reordered.
        let fault = (fault > 0).then_some((from, k, fault == 1));
        let cfg = CuckooConfig {
            buckets,
            filter_cells,
            filter_hashes: 2,
            max_plan_steps: 16,
        };
        let mut dir = CuckooDirectory::new(cfg);
        // Resident flows 0.., about `per_bucket` a bucket, never removed;
        // the churn inserts and removes flows 1000.. around them.
        let resident: Vec<FiveTuple> = (0..(buckets as usize * per_bucket) as u16)
            .map(flow)
            .filter(|&f| dir.install(f, ActionEntry::set_dscp(46)).is_ok())
            .collect();
        let mut at = 0;
        let mut timed = Vec::new();
        for &(kind, i, gap) in &script {
            at += 100 * gap;
            let step = match kind {
                0 => StormStep::Lookup(resident[i as usize % resident.len()]),
                1 => {
                    StormStep::Control(ControlOp::Insert(flow(1000 + i), ActionEntry::set_dscp(12)))
                }
                _ => StormStep::Control(ControlOp::Remove(flow(1000 + i))),
            };
            timed.push((at, step));
        }

        let mut nic = RnicNode::new("table", RnicConfig::at(endpoint(9)));
        let region = ByteSize::from_bytes(dir.region_bytes());
        let channel = RdmaChannel::setup(endpoint(1), PortId(1), &mut nic, region);
        let (rkey, base) = (channel.rkey, channel.base_va);
        install_cuckoo_image(&mut nic, &channel, &dir);
        let mut fib = extmem_core::Fib::new(8);
        fib.install(host_mac(1), PortId(0));
        let prog =
            LookupTableProgram::cuckoo(fib, channel, dir, None).with_reliability(ReliableConfig {
                rto: TimeDelta::from_micros(10),
                ..ReliableConfig::default()
            });
        let view = Shared::default();
        let storm = Storm {
            prog,
            steps: timed.iter().map(|&(_, s)| s).collect(),
            view: view.clone(),
        };
        storm.publish();
        let mut b = SimBuilder::new(case as u64);
        let sw = b.add_node(Box::new(SwitchNode::new(
            "tor",
            SwitchConfig::default(),
            Box::new(storm),
        )));
        let drain = b.add_node(Box::new(Drain));
        let wire = b.add_node(Box::new(OneFault {
            fault,
            seen: [0; 2],
            held: Vec::new(),
            tx: [
                extmem_sim::TxQueue::new(PortId(0)),
                extmem_sim::TxQueue::new(PortId(1)),
            ],
        }));
        let server = b.add_node(Box::new(Covered {
            nic,
            rkey,
            base,
            view,
            uncovered: None,
        }));
        let link = LinkSpec::testbed_40g();
        b.connect(sw, PortId(0), drain, PortId(0), link);
        b.connect(sw, PortId(1), wire, PortId(0), link);
        b.connect(wire, PortId(1), server, PortId(0), link);
        let mut sim = b.build();
        for (i, &(t, _)) in timed.iter().enumerate() {
            let delay = TimeDelta::from_nanos(t);
            sim.schedule_timer(sw, delay, program_token(i as u64));
        }
        sim.run_until(Time::from_millis(2));

        let what = format!("case {case}: {cfg:?}, fault {fault:?}, {timed:?}");
        let covered = sim.node::<Covered>(server);
        assert_eq!(covered.uncovered, None, "{what}");
        let storm = sim.node::<SwitchNode>(sw).program::<Storm>();
        let prog = &storm.prog;
        let s = prog.stats();
        let issued = (timed.iter())
            .filter(|(_, step)| matches!(step, StormStep::Lookup(_)))
            .count() as u64;
        assert_eq!(
            (s.remote_lookups, s.responses),
            (issued, issued),
            "{what}: {s:?}"
        );
        assert_eq!(s.actions_applied + s.bucket_misses, issued, "{what}: {s:?}");
        assert_eq!(s.slow_path, s.bucket_misses, "{what}: {s:?}");
        if s.bucket_misses > 0 {
            // A READ whose answer was lost is re-executed when re-sent, and
            // a relocation issued in between may have moved its key away:
            // the one way a resident flow misses here (DESIGN.md §4d).
            let nic = covered.nic.stats();
            assert!(nic.duplicates >= s.bucket_misses, "{what}: {s:?} {nic:?}");
            stale += 1;
        }
        assert!(prog.relocation_idle() && !prog.is_degraded(), "{what}");
        let image = prog.directory().encode_region();
        let remote = covered
            .nic
            .region(rkey)
            .unwrap()
            .read(base, image.len() as u64);
        assert_eq!(remote.unwrap(), &image[..], "{what}");
        assert_eq!(
            prog.live_fingerprints(),
            prog.directory().fingerprints(),
            "{what}"
        );
        assert_eq!(
            prog.live_filter().raw_counts(),
            prog.directory().filter().raw_counts(),
            "{what}"
        );
        lookups += issued;
        moves += s.relocation_moves;
        faulted += (s.channel.retransmits > 0) as u32;
    }
    println!(
        "live_fingerprints_cover_every_key_through_relocation_storms: {CASES} cases explored, \
         {lookups} lookups, {moves} relocation moves, {faulted} cases with a re-send, \
         {stale} with a resident flow missed behind a re-executed READ"
    );
}
