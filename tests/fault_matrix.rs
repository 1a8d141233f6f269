//! The fault matrix: every remote-memory primitive driven through
//! {0, 0.1%, 1% loss} × {no outage, mid-run outage} × {in-order, reordered}
//! and held to *exact* settled invariants — counters exact, ring released
//! strictly in order, no stuck windows, no leaked outstanding ops. The
//! reliability layer (`ReliableChannel`) must make loss invisible, not
//! merely survivable.
//!
//! Also here:
//! * failover: past the retry cap each primitive degrades to local-only
//!   operation without deadlock (§7 graceful degradation),
//! * PSN wrap-around: reliability bookkeeping stays correct across the
//!   24-bit wrap, including retransmissions spanning the wrap,
//! * a source guard that the old copy-pasted `npsn = roce.bth.psn` resync
//!   hack never reappears in `crates/core`, and that no PSN hatch
//!   (`resync_next`, `mark_resync`, `PSN_JUMP`, `probe_psn`) reappears in
//!   `crates/core` or `crates/rnic`: a QP reconnects only in-band.

use extmem_apps::scenario::{host_ip, host_mac, Built, Testbed};
use extmem_apps::workload::{Arrival, FlowPick, FlowSet, SinkNode, WorkloadSpec};
use extmem_core::cuckoo::{CuckooConfig, CuckooDirectory};
use extmem_core::direct_table::{install_remote_action, DirectTableProgram};
use extmem_core::faa::{FaaConfig, FaaEngine};
use extmem_core::lookup::{
    install_cuckoo_image, ActionEntry, ChurnScript, ControlOp, LookupTableProgram, TOKEN_CHURN,
};
use extmem_core::lpm::{install_remote_route, slots_per_level, RemoteLpmProgram};
use extmem_core::packet_buffer::{Mode, PacketBufferProgram};
use extmem_core::shard::ShardedStateStoreProgram;
use extmem_core::state_store::read_remote_counters;
use extmem_core::ReliableConfig;
use extmem_rnic::{RnicConfig, RnicNode};
use extmem_sim::{FaultSpec, LinkSpec};
use extmem_switch::{SwitchConfig, SwitchNode};
use extmem_types::{ByteSize, FiveTuple, Rate, Time, TimeDelta};

/// One cell of the fault matrix.
#[derive(Clone, Copy, Debug)]
struct Cell {
    /// Per-packet drop probability on the memory-server link.
    loss: f64,
    /// Whether the memory server goes dark for a mid-run window (shorter
    /// than the retry budget, so the channel must recover, not fail over).
    outage: bool,
    /// Whether packets on the memory-server link are randomly held back so
    /// later ones overtake them.
    reorder: bool,
}

/// The full {loss} × {outage} × {reorder} grid.
fn grid() -> Vec<Cell> {
    let mut cells = Vec::new();
    for &loss in &[0.0, 0.001, 0.01] {
        for &outage in &[false, true] {
            for &reorder in &[false, true] {
                cells.push(Cell {
                    loss,
                    outage,
                    reorder,
                });
            }
        }
    }
    cells
}

/// The harshest cell, used by the CI smoke tests.
fn worst_cell() -> Cell {
    Cell {
        loss: 0.01,
        outage: true,
        reorder: true,
    }
}

fn cell_faults(cell: &Cell) -> FaultSpec {
    FaultSpec {
        drop_prob: cell.loss,
        corrupt_prob: 0.0,
        duplicate_prob: 0.0,
        reorder_prob: if cell.reorder { 0.03 } else { 0.0 },
        // Several serialization times: genuinely permutes the stream.
        reorder_delay: TimeDelta::from_micros(3),
    }
}

fn cell_outage(cell: &Cell, from_us: u64, to_us: u64) -> Option<(Time, Time)> {
    cell.outage
        .then(|| (Time::from_micros(from_us), Time::from_micros(to_us)))
}

/// The flow most cells send: host 0 → host 1, UDP 5000 → 9000, paced.
fn probe_spec(frame_len: usize, gbps: u64, count: u64) -> WorkloadSpec {
    WorkloadSpec::simple(
        host_mac(0),
        host_mac(1),
        FiveTuple::new(host_ip(0), host_ip(1), 5000, 9000, 17),
        frame_len,
        Rate::from_gbps(gbps),
        count,
    )
}

/// The testbed's 40 G link carrying `faults`.
fn faulty(faults: FaultSpec) -> LinkSpec {
    let mut link = LinkSpec::testbed_40g();
    link.faults = faults;
    link
}

/// The 10 G drain port that keeps a packet-buffer detour engaged.
fn drain_10g() -> LinkSpec {
    LinkSpec::new(Rate::from_gbps(10), TimeDelta::from_nanos(300))
}

/// A memory-server NIC that goes dark for `outage`.
fn dark(outage: Option<(Time, Time)>) -> RnicConfig {
    RnicConfig {
        outage,
        ..Default::default()
    }
}

/// A sink that checks every delivered frame carries `dscp`.
fn dscp_sink(dscp: u8) -> SinkNode {
    let mut sink = SinkNode::new("sink");
    sink.expect_dscp = Some(dscp);
    sink
}

/// A cell is faulty if any injection is enabled; the clean cell must ride
/// the fast path with zero reliability activity.
fn is_clean(cell: &Cell) -> bool {
    cell.loss == 0.0 && !cell.outage && !cell.reorder
}

// ---------------------------------------------------------------------------
// State store (FAA counters): remote total must equal ground truth exactly.
// ---------------------------------------------------------------------------

fn run_state_store_cell(cell: &Cell, seed: u64) {
    const COUNT: u64 = 600;
    let counters = 256u64;
    let mut tb = Testbed::new(seed);
    tb.gen(probe_spec(256, 2, COUNT), LinkSpec::testbed_40g());
    tb.sink(LinkSpec::testbed_40g());
    let (_, channel) = tb.server(
        // Traffic spans ~600us; the outage bites mid-run and is far
        // shorter than the ~3ms retry budget at rto=40us.
        dark(cell_outage(cell, 200, 500)),
        ByteSize::from_bytes(counters * 8),
        faulty(cell_faults(cell)),
    );
    let rkey = channel.rkey;
    let base = channel.base_va;
    let engine = FaaEngine::new(
        channel,
        FaaConfig {
            reliable: true,
            rto: TimeDelta::from_micros(40),
            ..Default::default()
        },
    );
    let shards = vec![(0, engine, true)];
    let prog = ShardedStateStoreProgram::new(tb.fib(), shards, 1, TimeDelta::from_micros(30));
    let Built {
        mut sim,
        switch,
        hosts,
        servers,
        ..
    } = tb.build(SwitchConfig::default(), Box::new(prog));
    sim.run_until(Time::from_millis(50));

    let sw: &SwitchNode = sim.node(switch);
    let prog = sw.program::<ShardedStateStoreProgram>();
    let s = prog.engine(0).stats();
    assert!(
        prog.is_quiescent(),
        "{cell:?}: stuck window (in_transit={}): {s:?}",
        prog.engine(0).in_transit()
    );
    assert!(
        !s.channel.failed_over,
        "{cell:?}: must not fail over: {s:?}"
    );
    let nic = sim.node::<RnicNode>(servers[0]);
    if cell.outage {
        assert!(nic.stats().outage_drops > 0, "{cell:?}: outage never bit");
    }
    let remote: u64 = read_remote_counters(nic, rkey, base, counters).iter().sum();
    let truth: u64 = prog.oracle.values().sum();
    assert_eq!(remote, truth, "{cell:?}: counters must settle exactly");
    if is_clean(cell) {
        assert_eq!(
            s.channel.retransmits, 0,
            "clean cell must not retransmit: {s:?}"
        );
    }
    assert_eq!(sim.node::<SinkNode>(hosts[1]).received, COUNT);
}

#[test]
fn matrix_state_store_settles_exactly() {
    for (i, cell) in grid().iter().enumerate() {
        run_state_store_cell(cell, 9000 + i as u64);
    }
}

#[test]
fn smoke_state_store_worst_cell() {
    run_state_store_cell(&worst_cell(), 9100);
}

// ---------------------------------------------------------------------------
// Packet buffer: every detoured packet released, strictly in order.
// ---------------------------------------------------------------------------

fn run_packet_buffer_cell(cell: &Cell, seed: u64) {
    const COUNT: u64 = 400;
    let mut tb = Testbed::new(seed);
    tb.gen(probe_spec(800, 30, COUNT), LinkSpec::testbed_40g());
    let drain = tb.sink(drain_10g());
    let (_, channel) = tb.server(
        // Detour activity spans ~0-250us (85us of 30G arrivals draining
        // through a 10G sink); the outage lands inside it.
        dark(cell_outage(cell, 50, 150)),
        ByteSize::from_mb(2),
        faulty(cell_faults(cell)),
    );
    let prog = PacketBufferProgram::new(
        tb.fib(),
        vec![channel],
        drain,
        2048,
        Mode::Auto {
            start_store_qbytes: 4096,
            resume_load_qbytes: 2048,
        },
        8,
        TimeDelta::from_micros(50),
    );
    let Built {
        mut sim,
        switch,
        hosts,
        servers,
        ..
    } = tb.build(SwitchConfig::default(), Box::new(prog));
    sim.run_until(Time::from_millis(60));

    let sink = sim.node::<SinkNode>(hosts[1]);
    let sw: &SwitchNode = sim.node(switch);
    let s = sw.program::<PacketBufferProgram>().stats();
    assert!(s.stored > 0, "{cell:?}: the detour was never exercised");
    assert!(
        !s.channel.failed_over,
        "{cell:?}: must not fail over: {s:?}"
    );
    if cell.outage {
        let nic = sim.node::<RnicNode>(servers[0]);
        assert!(nic.stats().outage_drops > 0, "{cell:?}: outage never bit");
    }
    assert_eq!(s.lost_entries, 0, "{cell:?}: entries lost: {s:?}");
    assert_eq!(
        s.loaded, s.stored,
        "{cell:?}: ring left entries behind: {s:?}"
    );
    assert_eq!(sink.received, COUNT, "{cell:?}: packets lost: {s:?}");
    assert_eq!(sink.total_reorders(), 0, "{cell:?}: ring order violated");
    assert_eq!(sink.corrupt, 0, "{cell:?}: payload corrupted");
    if is_clean(cell) {
        assert_eq!(s.channel.retransmits, 0, "clean cell must not retransmit");
    }
    if cell.reorder && cell.loss == 0.0 && !cell.outage {
        // Nothing is lost, so every op re-sent because an answer overtook
        // its own was re-sent spuriously: its own answer completes it, and
        // the re-send's is dropped as a duplicate (the entries above came
        // back once each).
        let c = s.channel;
        assert!(c.implicit_resends > 0, "{cell:?}: nothing overtaken: {c:?}");
        assert!(c.duplicate_drops >= c.implicit_resends, "{cell:?}: {c:?}");
    }
}

#[test]
fn matrix_packet_buffer_releases_in_order() {
    for (i, cell) in grid().iter().enumerate() {
        run_packet_buffer_cell(cell, 9200 + i as u64);
    }
}

#[test]
fn smoke_packet_buffer_worst_cell() {
    run_packet_buffer_cell(&worst_cell(), 9300);
}

// ---------------------------------------------------------------------------
// The paper's lookup table, bouncing: every packet comes back with its action.
// ---------------------------------------------------------------------------

fn run_lookup_cell(cell: &Cell, seed: u64) {
    const COUNT: u64 = 300;
    const DSCP: u8 = 46;
    let flow = FiveTuple::new(host_ip(0), host_ip(1), 40_000, 80, 17);
    let mut tb = Testbed::new(seed);
    tb.gen(
        WorkloadSpec::simple(
            host_mac(0),
            host_mac(1),
            flow,
            256,
            Rate::from_gbps(2),
            COUNT,
        ),
        LinkSpec::testbed_40g(),
    );
    tb.host(dscp_sink(DSCP), LinkSpec::testbed_40g());
    let (table, channel) = tb.server(
        // ~300us of traffic; outage inside it, shorter than the ~3ms
        // retry budget at rto=40us.
        dark(cell_outage(cell, 100, 350)),
        ByteSize::from_bytes(4096 * 2048),
        faulty(cell_faults(cell)),
    );
    install_remote_action(
        tb.nic_mut(table),
        &channel,
        2048,
        &flow,
        ActionEntry::set_dscp(DSCP),
    );
    // No cache: every packet must do a full remote bounce.
    let prog =
        DirectTableProgram::new(tb.fib(), channel, 2048, None).with_reliability(ReliableConfig {
            rto: TimeDelta::from_micros(40),
            ..Default::default()
        });
    let Built {
        mut sim,
        switch,
        hosts,
        servers,
        ..
    } = tb.build(SwitchConfig::default(), Box::new(prog));
    sim.run_until(Time::from_millis(50));

    let sink = sim.node::<SinkNode>(hosts[1]);
    let sw: &SwitchNode = sim.node(switch);
    let prog = sw.program::<DirectTableProgram>();
    let s = prog.stats();
    assert!(!prog.is_degraded(), "{cell:?}: must not fail over: {s:?}");
    assert_eq!(s.failed_ops, 0, "{cell:?}: leaked outstanding ops: {s:?}");
    assert_eq!(sink.received, COUNT, "{cell:?}: packets lost: {s:?}");
    assert_eq!(sink.dscp_mismatch, 0, "{cell:?}: action not applied");
    assert_eq!(s.actions_applied, COUNT, "{cell:?}: {s:?}");
    assert_eq!(s.slow_path, 0, "{cell:?}: {s:?}");
    if cell.outage {
        let nic = sim.node::<RnicNode>(servers[0]);
        assert!(nic.stats().outage_drops > 0, "{cell:?}: outage never bit");
    }
    if is_clean(cell) {
        assert_eq!(s.channel.retransmits, 0, "clean cell must not retransmit");
    }
}

#[test]
fn matrix_lookup_applies_every_action() {
    for (i, cell) in grid().iter().enumerate() {
        run_lookup_cell(cell, 9400 + i as u64);
    }
}

#[test]
fn smoke_lookup_worst_cell() {
    run_lookup_cell(&worst_cell(), 9500);
}

// ---------------------------------------------------------------------------
// LPM: every packet routed by its longest matching prefix.
// ---------------------------------------------------------------------------

fn run_lpm_cell(cell: &Cell, seed: u64, remote_ops: bool) {
    const COUNT: u64 = 250;
    let levels = vec![32u8, 24, 16];
    let dst_ip = 0x0a010203u32;
    let flow = FiveTuple::new(host_ip(0), dst_ip, 5000, 9000, 17);
    let mut tb = Testbed::new(seed);
    tb.gen(
        WorkloadSpec::simple(
            host_mac(0),
            host_mac(1),
            flow,
            256,
            Rate::from_gbps(2),
            COUNT,
        ),
        LinkSpec::testbed_40g(),
    );
    let sink_port = tb.host(dscp_sink(32), LinkSpec::testbed_40g());
    let region = ByteSize::from_mb(1);
    let (srv, channel) = tb.server(
        dark(cell_outage(cell, 80, 300)),
        region,
        faulty(cell_faults(cell)),
    );
    let spl = slots_per_level(region.bytes(), &levels);
    let route = |dscp: u8| {
        let mut a = ActionEntry::set_dscp(dscp);
        a.port_override = Some(sink_port);
        a
    };
    // A /16 shadow route plus the /32 winner: resolution must pick /32.
    install_remote_route(
        tb.nic_mut(srv),
        &channel,
        &levels,
        spl,
        0x0a010000,
        16,
        route(10),
    );
    install_remote_route(
        tb.nic_mut(srv),
        &channel,
        &levels,
        spl,
        dst_ip,
        32,
        route(32),
    );
    // No cache: every packet costs a full 3-rung remote lookup (one
    // gather/walk op per packet when remote ops are on).
    let prog = RemoteLpmProgram::new(tb.fib(), channel, levels, None)
        .with_remote_ops(remote_ops)
        .with_reliability(ReliableConfig {
            rto: TimeDelta::from_micros(40),
            ..Default::default()
        });
    let Built {
        mut sim,
        switch,
        hosts,
        servers,
        ..
    } = tb.build(SwitchConfig::default(), Box::new(prog));
    sim.run_until(Time::from_millis(50));

    let sink = sim.node::<SinkNode>(hosts[1]);
    let sw: &SwitchNode = sim.node(switch);
    let prog = sw.program::<RemoteLpmProgram>();
    let s = prog.stats();
    assert!(!prog.is_degraded(), "{cell:?}: must not fail over: {s:?}");
    assert_eq!(s.failed_ops, 0, "{cell:?}: lookups abandoned: {s:?}");
    assert_eq!(sink.received, COUNT, "{cell:?}: packets lost: {s:?}");
    assert_eq!(sink.dscp_mismatch, 0, "{cell:?}: wrong rung won");
    assert_eq!(s.actions_applied, COUNT, "{cell:?}: {s:?}");
    assert_eq!(s.slow_path, 0, "{cell:?}: no route or degraded: {s:?}");
    // Exactly one completion per issued request — duplicates were deduped
    // and nothing leaked. Verb mode settles 3 rung READs per miss; the
    // gather/walk op settles the whole ladder in one exchange even when the
    // request or the response was lost and had to be retransmitted.
    let per_miss: u64 = if remote_ops { 1 } else { 3 };
    assert_eq!(s.responses, per_miss * COUNT, "{cell:?}: {s:?}");
    assert_eq!(s.rtts_per_miss(), Some(per_miss as f64), "{cell:?}: {s:?}");
    if cell.outage {
        let nic = sim.node::<RnicNode>(servers[0]);
        assert!(nic.stats().outage_drops > 0, "{cell:?}: outage never bit");
    }
    if is_clean(cell) {
        assert_eq!(s.channel.retransmits, 0, "clean cell must not retransmit");
    }
}

#[test]
fn matrix_lpm_routes_every_packet() {
    for (i, cell) in grid().iter().enumerate() {
        run_lpm_cell(cell, 9600 + i as u64, false);
    }
}

#[test]
fn smoke_lpm_worst_cell() {
    run_lpm_cell(&worst_cell(), 9700, false);
}

#[test]
fn matrix_remote_ops_lpm_gather_settles_exactly() {
    for (i, cell) in grid().iter().enumerate() {
        run_lpm_cell(cell, 9800 + i as u64, true);
    }
}

#[test]
fn smoke_remote_ops_lpm_worst_cell() {
    run_lpm_cell(&worst_cell(), 9900, true);
}

// ---------------------------------------------------------------------------
// Cuckoo remote ops under faults: hash-probe-and-fetch lookups and
// READ-verify + WRITE relocations ride retransmission and still settle
// oracle-exact — zero punts and the table byte image bit-for-bit equal to
// the control-plane directory.
// ---------------------------------------------------------------------------

fn run_cuckoo_probe_cell(cell: &Cell, seed: u64) {
    const COUNT: u64 = 300;
    const DSCP: u8 = 46;
    const TRAFFIC_KEYS: u16 = 96;
    const CHURN_KEYS: u16 = 48;
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
        period: TimeDelta::from_micros(3),
    };

    let spec = WorkloadSpec {
        src_mac: host_mac(0),
        dst_mac: host_mac(1),
        flows: flows.into(),
        pick: FlowPick::Zipf(1.1),
        frame_len: 256,
        offered: Some(Rate::from_gbps(2)),
        arrival: Arrival::Paced,
        count: COUNT,
        seed: 23,
        flow_id_base: 0,
    };
    let mut tb = Testbed::new(seed);
    tb.gen(spec, LinkSpec::testbed_40g());
    tb.host(dscp_sink(DSCP), LinkSpec::testbed_40g());
    let (table, channel) = tb.server(
        dark(cell_outage(cell, 100, 350)),
        ByteSize::from_bytes(dir.region_bytes()),
        faulty(cell_faults(cell)),
    );
    let rkey = channel.rkey;
    let base = channel.base_va;
    install_cuckoo_image(tb.nic_mut(table), &channel, &dir);
    // No cache: every packet costs one hash-probe-and-fetch op; every
    // relocation step is a verify READ and a WRITE.
    let prog = LookupTableProgram::cuckoo(tb.fib(), channel, dir, None)
        .with_remote_ops(true)
        .with_reliability(ReliableConfig {
            rto: TimeDelta::from_micros(40),
            ..Default::default()
        })
        .with_churn(script);
    let Built {
        mut sim,
        switch,
        hosts,
        servers,
        ..
    } = tb.build(SwitchConfig::default(), Box::new(prog));
    sim.schedule_timer(
        switch,
        TimeDelta::from_micros(2),
        extmem_switch::switch::program_token(TOKEN_CHURN),
    );
    sim.run_until(Time::from_millis(50));

    let sink = sim.node::<SinkNode>(hosts[1]);
    let sw: &SwitchNode = sim.node(switch);
    let prog = sw.program::<LookupTableProgram>();
    let s = prog.stats();
    assert!(!prog.is_degraded(), "{cell:?}: must not fail over: {s:?}");
    assert_eq!(sink.received, COUNT, "{cell:?}: packets lost: {s:?}");
    assert_eq!(sink.dscp_mismatch, 0, "{cell:?}: action not applied");
    assert_eq!(s.slow_path, 0, "{cell:?}: probe punted: {s:?}");
    assert_eq!(
        s.bucket_misses, 0,
        "{cell:?}: probe missed a resident key: {s:?}"
    );
    assert_eq!(s.inserts_applied, CHURN_KEYS as u64, "{cell:?}: {s:?}");
    assert_eq!(s.removes_applied, CHURN_KEYS as u64, "{cell:?}: {s:?}");
    assert!(
        prog.relocation_idle(),
        "{cell:?}: relocation work leaked: {s:?}"
    );
    // One hash-probe exchange per miss, loss or not: retransmission must
    // not double-issue ops or leave any without a completion.
    assert_eq!(s.rtts_per_miss(), Some(1.0), "{cell:?}: {s:?}");
    assert_eq!(s.reads_per_lookup(), Some(1.0), "{cell:?}: {s:?}");
    // Bit-for-bit: the settled table equals the directory's byte image, so
    // every relocation WRITE landed despite drops.
    let image = prog.directory().encode_region();
    let remote = sim
        .node::<RnicNode>(servers[0])
        .region(rkey)
        .unwrap()
        .read(base, image.len() as u64)
        .unwrap();
    assert_eq!(
        remote,
        &image[..],
        "{cell:?}: table diverges from directory: {s:?}"
    );
    if cell.outage {
        let nic = sim.node::<RnicNode>(servers[0]);
        assert!(nic.stats().outage_drops > 0, "{cell:?}: outage never bit");
    }
    if is_clean(cell) {
        assert_eq!(s.channel.retransmits, 0, "clean cell must not retransmit");
    }
}

#[test]
fn matrix_remote_ops_cuckoo_probe_settles_exactly() {
    for (i, cell) in grid().iter().enumerate() {
        run_cuckoo_probe_cell(cell, 10_000 + i as u64);
    }
}

#[test]
fn smoke_remote_ops_cuckoo_worst_cell() {
    run_cuckoo_probe_cell(&worst_cell(), 10_100);
}

// ---------------------------------------------------------------------------
// Failover: past the retry cap, degrade to local-only without deadlock.
// ---------------------------------------------------------------------------

/// A retry policy that gives up after ~210us of silence: the channel's
/// retry budget is 95 RTOs (eight retransmissions, backoff capped at 16
/// RTOs).
fn fast_failover() -> ReliableConfig {
    ReliableConfig {
        rto: TimeDelta::from_nanos(2_200),
        ..Default::default()
    }
}

#[test]
fn state_store_failover_accumulates_locally() {
    // The server never comes back within the run: the channel must fail
    // over and the store keep exact *local* truth (remote + pending).
    let counters = 128u64;
    let mut tb = Testbed::new(4242);
    tb.gen(probe_spec(256, 2, 600), LinkSpec::testbed_40g());
    tb.sink(LinkSpec::testbed_40g());
    let (_, channel) = tb.server(
        dark(Some((Time::from_micros(150), Time::from_millis(40)))),
        ByteSize::from_bytes(counters * 8),
        LinkSpec::testbed_40g(),
    );
    let rkey = channel.rkey;
    let base = channel.base_va;
    let engine = FaaEngine::new(
        channel,
        FaaConfig {
            reliable: true,
            rto: TimeDelta::from_micros(30),
            ..Default::default()
        },
    );
    let shards = vec![(0, engine, true)];
    let prog = ShardedStateStoreProgram::new(tb.fib(), shards, 1, TimeDelta::from_micros(30));
    let Built {
        mut sim,
        switch,
        hosts,
        servers,
        ..
    } = tb.build(SwitchConfig::default(), Box::new(prog));
    sim.run_until(Time::from_millis(30));

    let sw: &SwitchNode = sim.node(switch);
    let prog = sw.program::<ShardedStateStoreProgram>();
    let s = prog.engine(0).stats();
    assert!(prog.is_degraded(), "retry cap must trip failover: {s:?}");
    assert!(s.channel.failed_over, "{s:?}");
    // No op left outstanding: everything sent-but-unacked was returned to
    // the local accumulator (in_transit = pending + outstanding).
    assert_eq!(
        prog.engine(0).in_transit(),
        prog.engine(0).pending_sum(),
        "outstanding ops leaked: {s:?}"
    );
    // Conservation holds locally: what landed remotely plus what degraded
    // mode accumulated is exactly the ground truth. Nothing double-counted
    // (a failed op's value moves back to pending exactly once).
    let nic = sim.node::<RnicNode>(servers[0]);
    let remote: u64 = read_remote_counters(nic, rkey, base, counters).iter().sum();
    let truth: u64 = prog.oracle.values().sum();
    assert_eq!(
        remote + prog.engine(0).pending_sum(),
        truth,
        "local accumulation must preserve every update"
    );
    assert!(
        prog.engine(0).pending_sum() > 0,
        "failover must strand updates locally"
    );
    // Forwarding is never disturbed.
    assert_eq!(sim.node::<SinkNode>(hosts[1]).received, 600);
}

#[test]
fn packet_buffer_failover_stops_detouring_and_drains() {
    // Server gone for good: entries in flight at failover are lost (they
    // lived only in remote memory), but the ring drains, accounting stays
    // exact, and post-failover traffic flows untouched — no deadlock.
    const COUNT: u64 = 2000;
    let mut tb = Testbed::new(4243);
    tb.gen(probe_spec(800, 30, COUNT), LinkSpec::testbed_40g());
    let drain = tb.sink(drain_10g());
    let (_, channel) = tb.server(
        // Dark from 30us on: the ~210us retry budget expires inside the
        // ~430us burst, so post-failover arrivals must flow directly.
        dark(Some((Time::from_micros(30), Time::from_millis(50)))),
        ByteSize::from_mb(2),
        LinkSpec::testbed_40g(),
    );
    let prog = PacketBufferProgram::new(
        tb.fib(),
        vec![channel],
        drain,
        2048,
        Mode::Auto {
            start_store_qbytes: 4096,
            resume_load_qbytes: 2048,
        },
        8,
        TimeDelta::from_micros(30),
    )
    .with_reliability(fast_failover());
    let Built {
        mut sim,
        switch,
        hosts,
        ..
    } = tb.build(SwitchConfig::default(), Box::new(prog));
    sim.run_until(Time::from_millis(60));

    let sink = sim.node::<SinkNode>(hosts[1]);
    let sw: &SwitchNode = sim.node(switch);
    let prog = sw.program::<PacketBufferProgram>();
    let s = prog.stats();
    assert!(prog.is_degraded(), "retry cap must trip failover: {s:?}");
    assert!(s.channel.failed_over, "{s:?}");
    assert!(s.lost_entries > 0, "in-flight entries are gone: {s:?}");
    assert_eq!(
        s.loaded + s.lost_entries,
        s.stored,
        "ring accounting must stay exact: {s:?}"
    );
    assert_eq!(sink.total_reorders(), 0, "order must hold through failover");
    // Every packet is delivered, accounted as a lost ring entry, or (the
    // direct path is congested once detouring stops) dropped by the TM —
    // nothing vanishes silently.
    assert_eq!(
        sink.received + s.lost_entries + sw.tm().total_drops(),
        COUNT,
        "unaccounted packets: {s:?}"
    );
    // Degraded mode keeps forwarding: the tail of the burst (sent after
    // failover) must have arrived.
    assert!(sink.received > 500, "post-failover traffic wedged: {s:?}");
}

/// A single-server primitive does not survive a restart of its memory
/// server. The server crashes at 200 us and is back at 300 us; its
/// restarted QP's disconnect NAK fails the packet buffer's channel, which
/// nothing reconnects (only the FaA engine's pool does), so the buffer
/// stops detouring for the rest of the run, though the server is up.
#[test]
fn crash_packet_buffer_server_back_leaves_it_degraded() {
    const COUNT: u64 = 4000;
    let mut tb = Testbed::new(4244);
    tb.gen(probe_spec(800, 30, COUNT), LinkSpec::testbed_40g());
    let drain = tb.sink(drain_10g());
    let (_, channel) = tb.server(
        RnicConfig::default(),
        ByteSize::from_mb(2),
        LinkSpec::testbed_40g(),
    );
    let prog = PacketBufferProgram::new(
        tb.fib(),
        vec![channel],
        drain,
        2048,
        Mode::Auto {
            start_store_qbytes: 4096,
            resume_load_qbytes: 2048,
        },
        8,
        TimeDelta::from_micros(30),
    );
    let Built {
        mut sim,
        switch,
        hosts,
        servers,
        ..
    } = tb.build(SwitchConfig::default(), Box::new(prog));
    sim.schedule_crash(servers[0], TimeDelta::from_micros(200));
    sim.schedule_restart(servers[0], TimeDelta::from_micros(300));
    // A hundred microseconds after the restart, far inside the retry cap
    // (95 RTOs of 100 us): the NAK failed the channel.
    sim.run_until(Time::from_micros(400));
    let stored = {
        let prog = sim
            .node::<SwitchNode>(switch)
            .program::<PacketBufferProgram>();
        let s = prog.stats();
        assert!(prog.is_degraded() && s.channel.failed_over, "{s:?}");
        s.stored
    };
    sim.run_until(Time::from_millis(10));

    let nic = sim.node::<RnicNode>(servers[0]).stats();
    assert_eq!((nic.crashes, nic.restarts), (1, 1), "{nic:?}");
    let sw: &SwitchNode = sim.node(switch);
    let prog = sw.program::<PacketBufferProgram>();
    let s = prog.stats();
    assert!(prog.is_degraded(), "{s:?}");
    assert_eq!(
        s.stored, stored,
        "nothing is stored after the restart: {s:?}"
    );
    let sink = sim.node::<SinkNode>(hosts[1]);
    assert_eq!(
        sink.received + s.lost_entries + sw.tm().total_drops(),
        COUNT,
        "unaccounted packets: {s:?}"
    );
    assert!(sink.received > COUNT / 2, "{s:?}");
}

#[test]
fn lookup_failover_punts_to_slow_path() {
    const COUNT: u64 = 300;
    let flow = FiveTuple::new(host_ip(0), host_ip(1), 40_000, 80, 17);
    let mut tb = Testbed::new(4244);
    tb.gen(
        WorkloadSpec::simple(
            host_mac(0),
            host_mac(1),
            flow,
            256,
            Rate::from_gbps(2),
            COUNT,
        ),
        LinkSpec::testbed_40g(),
    );
    tb.sink(LinkSpec::testbed_40g());
    let (table, channel) = tb.server(
        // Dark from 30us on: the ~210us retry budget expires mid-burst
        // (~300us of traffic), so post-failover arrivals exist.
        dark(Some((Time::from_micros(30), Time::from_millis(40)))),
        ByteSize::from_bytes(4096 * 2048),
        LinkSpec::testbed_40g(),
    );
    install_remote_action(
        tb.nic_mut(table),
        &channel,
        2048,
        &flow,
        ActionEntry::set_dscp(46),
    );
    let prog =
        DirectTableProgram::new(tb.fib(), channel, 2048, None).with_reliability(fast_failover());
    let Built {
        mut sim,
        switch,
        hosts,
        ..
    } = tb.build(SwitchConfig::default(), Box::new(prog));
    sim.run_until(Time::from_millis(30));

    let sink = sim.node::<SinkNode>(hosts[1]);
    let sw: &SwitchNode = sim.node(switch);
    let prog = sw.program::<DirectTableProgram>();
    let s = prog.stats();
    assert!(prog.is_degraded(), "retry cap must trip failover: {s:?}");
    assert!(s.channel.failed_over, "{s:?}");
    assert!(
        s.slow_path > 0,
        "degraded misses must punt, not stall: {s:?}"
    );
    assert!(
        s.failed_ops > 0,
        "in-flight bounces must be accounted: {s:?}"
    );
    // A bounced packet lost to failover lived only in remote memory; each
    // failed op covers at most one such packet, so delivery plus failures
    // bounds the burst. No silent loss, no deadlock.
    assert!(
        sink.received + s.failed_ops >= COUNT,
        "unaccounted loss: received={} {s:?}",
        sink.received
    );
    assert!(
        sink.received < COUNT,
        "in-flight bounces at failover must be lost: {s:?}"
    );
    // The slow path actually carries traffic: everything punted after
    // failover reached the sink (pre-failover bounces into the dead server
    // are the only losses).
    assert!(
        sink.received >= s.slow_path,
        "slow-path packets vanished: received={} {s:?}",
        sink.received
    );
}

#[test]
fn lpm_failover_forwards_fib_only() {
    const COUNT: u64 = 300;
    let levels = vec![32u8, 24, 16];
    let dst_ip = 0x0a010203u32;
    let flow = FiveTuple::new(host_ip(0), dst_ip, 5000, 9000, 17);
    let mut tb = Testbed::new(4245);
    tb.gen(
        WorkloadSpec::simple(
            host_mac(0),
            host_mac(1),
            flow,
            256,
            Rate::from_gbps(2),
            COUNT,
        ),
        LinkSpec::testbed_40g(),
    );
    let sink_port = tb.sink(LinkSpec::testbed_40g());
    let region = ByteSize::from_mb(1);
    let (srv, channel) = tb.server(
        // Dark from 30us on: failover (~240us) lands inside the
        // ~300us burst.
        dark(Some((Time::from_micros(30), Time::from_millis(40)))),
        region,
        LinkSpec::testbed_40g(),
    );
    let spl = slots_per_level(region.bytes(), &levels);
    let mut a = ActionEntry::set_dscp(32);
    a.port_override = Some(sink_port);
    install_remote_route(tb.nic_mut(srv), &channel, &levels, spl, dst_ip, 32, a);
    let prog =
        RemoteLpmProgram::new(tb.fib(), channel, levels, None).with_reliability(fast_failover());
    let Built {
        mut sim,
        switch,
        hosts,
        ..
    } = tb.build(SwitchConfig::default(), Box::new(prog));
    sim.run_until(Time::from_millis(30));

    let sink = sim.node::<SinkNode>(hosts[1]);
    let sw: &SwitchNode = sim.node(switch);
    let prog = sw.program::<RemoteLpmProgram>();
    let s = prog.stats();
    assert!(prog.is_degraded(), "retry cap must trip failover: {s:?}");
    assert!(s.channel.failed_over, "{s:?}");
    assert!(
        s.slow_path > 0,
        "degraded misses must forward FIB-only: {s:?}"
    );
    // Packets waiting on abandoned rung READs are dropped (and counted);
    // everything else flows. No wedge, full accounting.
    assert_eq!(
        sink.received + s.failed_ops,
        COUNT,
        "every packet delivered or accounted: {s:?}"
    );
    // The FIB-only path actually carries traffic: every degraded fallback
    // reached the sink.
    assert!(
        sink.received >= s.slow_path,
        "fallback packets vanished: received={} {s:?}",
        sink.received
    );
}

// ---------------------------------------------------------------------------
// PSN wrap-around: reliability bookkeeping across the 24-bit boundary.
// ---------------------------------------------------------------------------

#[test]
fn packet_buffer_exact_across_psn_wrap_with_loss() {
    // ~800 request PSNs per run starting 384 short of 2^24: the sequence
    // wraps mid-run while 5% loss keeps retransmissions in flight around
    // the boundary (wrap mid-retransmit).
    for seed in [11u64, 12, 13] {
        let mut tb = Testbed::new(seed);
        tb.gen(probe_spec(800, 30, 400), LinkSpec::testbed_40g());
        let drain = tb.sink(drain_10g());
        let (_, channel) = tb.server_at_psn(
            RnicConfig::default(),
            ByteSize::from_mb(2),
            faulty(FaultSpec::drop(0.05)),
            0x00ff_fe80,
        );
        let prog = PacketBufferProgram::new(
            tb.fib(),
            vec![channel],
            drain,
            2048,
            Mode::Auto {
                start_store_qbytes: 4096,
                resume_load_qbytes: 2048,
            },
            8,
            TimeDelta::from_micros(50),
        );
        let Built {
            mut sim,
            switch,
            hosts,
            ..
        } = tb.build(SwitchConfig::default(), Box::new(prog));
        sim.run_until(Time::from_millis(60));

        let sink = sim.node::<SinkNode>(hosts[1]);
        let sw: &SwitchNode = sim.node(switch);
        let s = sw.program::<PacketBufferProgram>().stats();
        assert!(
            s.channel.retransmits > 0,
            "seed {seed}: loss never bit: {s:?}"
        );
        assert!(!s.channel.failed_over, "seed {seed}: {s:?}");
        assert_eq!(s.lost_entries, 0, "seed {seed}: {s:?}");
        assert_eq!(s.loaded, s.stored, "seed {seed}: {s:?}");
        assert_eq!(sink.received, 400, "seed {seed}: packets lost: {s:?}");
        assert_eq!(sink.total_reorders(), 0, "seed {seed}: order violated");
    }
}

#[test]
fn state_store_exact_across_psn_wrap_with_loss() {
    // FAA traffic starting 16 PSNs short of the wrap under 5% loss: the
    // retransmission window itself straddles the boundary.
    let counters = 128u64;
    let mut tb = Testbed::new(321);
    tb.gen(probe_spec(256, 2, 600), LinkSpec::testbed_40g());
    tb.sink(LinkSpec::testbed_40g());
    let (_, channel) = tb.server_at_psn(
        RnicConfig::default(),
        ByteSize::from_bytes(counters * 8),
        faulty(FaultSpec::drop(0.05)),
        0x00ff_fff0,
    );
    let rkey = channel.rkey;
    let base = channel.base_va;
    let engine = FaaEngine::new(
        channel,
        FaaConfig {
            reliable: true,
            rto: TimeDelta::from_micros(40),
            ..Default::default()
        },
    );
    let shards = vec![(0, engine, true)];
    let prog = ShardedStateStoreProgram::new(tb.fib(), shards, 1, TimeDelta::from_micros(30));
    let Built {
        mut sim,
        switch,
        servers,
        ..
    } = tb.build(SwitchConfig::default(), Box::new(prog));
    sim.run_until(Time::from_millis(50));

    let sw: &SwitchNode = sim.node(switch);
    let prog = sw.program::<ShardedStateStoreProgram>();
    let s = prog.engine(0).stats();
    assert!(s.channel.retransmits > 0, "loss never bit: {s:?}");
    assert!(prog.is_quiescent(), "stuck across the wrap: {s:?}");
    let nic = sim.node::<RnicNode>(servers[0]);
    let remote: u64 = read_remote_counters(nic, rkey, base, counters).iter().sum();
    let truth: u64 = prog.oracle.values().sum();
    assert_eq!(remote, truth, "wrap must not corrupt the count");
}

// ---------------------------------------------------------------------------
// Whole-server crashes: a replicated state store must lose nothing. A
// two-replica pool sees one server die mid-workload (optionally coming back
// and being reconciled) and the settled invariants must stay *exact*.
// ---------------------------------------------------------------------------

use extmem_core::{Health, PoolConfig};

/// Aggressive pool knobs so failover and rejoin land inside short test
/// runs: a server's channel fails on its second silent timeout round,
/// probes fire every 100us.
fn crash_pool_config() -> PoolConfig {
    PoolConfig {
        down_threshold: 2,
        probe_interval: TimeDelta::from_micros(100),
    }
}

/// Replicated state store under a whole-node crash at 200us. With
/// `crash_primary` the primary dies (FaA must fail over); otherwise the
/// mirror dies (the primary keeps counting). With `rejoin` the dead server
/// restarts at 500us with wiped DRAM and must be reconciled bit-for-bit
/// (every counted word written to it, then the words counted since).
fn run_state_store_crash_cell(crash_primary: bool, rejoin: bool, seed: u64) {
    const COUNT: u64 = 600;
    let counters = 256u64;
    let region = ByteSize::from_bytes(counters * 8);
    let link = LinkSpec::testbed_40g();
    let mut tb = Testbed::new(seed);
    tb.gen(probe_spec(256, 2, COUNT), link);
    tb.sink(link);
    let (_, ch_a) = tb.server(RnicConfig::default(), region, link);
    let (_, ch_b) = tb.server(RnicConfig::default(), region, link);
    let rkey = ch_a.rkey;
    let base = ch_a.base_va;
    let engine = FaaEngine::replicated(
        vec![ch_a, ch_b],
        FaaConfig {
            reliable: true,
            rto: TimeDelta::from_micros(30),
            ..Default::default()
        },
        crash_pool_config(),
    );
    let shards = vec![(0, engine, true)];
    let prog = ShardedStateStoreProgram::new(tb.fib(), shards, 1, TimeDelta::from_micros(30));
    let Built {
        mut sim,
        switch,
        hosts,
        servers,
        ..
    } = tb.build(SwitchConfig::default(), Box::new(prog));
    let (server_a, server_b) = (servers[0], servers[1]);
    let victim = if crash_primary { server_a } else { server_b };
    let survivor = if crash_primary { server_b } else { server_a };
    // On a parallel backend the switch and the server it is about to lose
    // must not share a partition: crash and restart admin, failover
    // probes, catch-up WRITEs and go-back-N replay all cross the boundary.
    assert_eq!(
        sim.partition_of(switch) != sim.partition_of(victim),
        sim.par_stats().partitions > 1,
        "the crash cell's premise"
    );
    // Mid-workload (traffic spans ~600us).
    sim.schedule_crash(victim, TimeDelta::from_micros(200));
    if rejoin {
        sim.schedule_restart(victim, TimeDelta::from_micros(500));
        // The restart's NAK refuses the reconnect the pool has in flight,
        // which proves the server up: the pool reconnects at once, and the
        // server is back at 502.0us, not at the next probe (590.7us).
        sim.run_until(Time::from_micros(503));
        let prog = sim
            .node::<SwitchNode>(switch)
            .program::<ShardedStateStoreProgram>();
        let pool = prog.engine(0).stats().pool;
        assert_eq!(pool.rejoins, 1, "{pool:?}");
    }
    sim.run_until(Time::from_millis(50));

    let cell = (crash_primary, rejoin);
    assert!(sim.crash_drops(victim) > 0, "{cell:?}: crash never bit");
    let sw: &SwitchNode = sim.node(switch);
    let prog = sw.program::<ShardedStateStoreProgram>();
    let s = prog.engine(0).stats();
    assert!(prog.is_quiescent(), "{cell:?}: stuck window: {s:?}");
    assert!(
        !prog.is_degraded(),
        "{cell:?}: one replica must keep the pool alive: {s:?}"
    );
    if crash_primary {
        assert!(s.pool.failovers >= 1, "{cell:?}: no failover: {s:?}");
    } else {
        assert_eq!(s.pool.failovers, 0, "{cell:?}: spurious failover: {s:?}");
    }
    // Zero lost counts: whichever replica now serves reads holds the exact
    // ground truth.
    let truth: u64 = prog.oracle.values().sum();
    let surv_dump = read_remote_counters(sim.node::<RnicNode>(survivor), rkey, base, counters);
    let surv_total: u64 = surv_dump.iter().sum();
    assert_eq!(surv_total, truth, "{cell:?}: counts lost: {s:?}");
    if rejoin {
        assert!(
            s.pool.rejoins >= 1,
            "{cell:?}: server never rejoined: {s:?}"
        );
        assert!(s.pool.probes >= 1, "{cell:?}: no probe issued: {s:?}");
        // Bit-for-bit reconciliation: the restarted server's counter
        // array equals the survivor's, slot by slot.
        let back = read_remote_counters(sim.node::<RnicNode>(victim), rkey, base, counters);
        assert_eq!(
            back, surv_dump,
            "{cell:?}: rejoined replica diverges from survivor: {s:?}"
        );
        let pool = prog.engine(0).pool();
        assert_eq!(pool.health(0), Health::Healthy, "{cell:?}: {s:?}");
        assert_eq!(pool.health(1), Health::Healthy, "{cell:?}: {s:?}");
    } else {
        assert_eq!(s.pool.unavailable, 1, "{cell:?}: {s:?}");
        assert_eq!(s.pool.rejoins, 0, "{cell:?}: {s:?}");
    }
    assert_eq!(sim.node::<SinkNode>(hosts[1]).received, COUNT);
}

#[test]
fn crash_state_store_primary_loses_nothing() {
    run_state_store_crash_cell(true, false, 9800);
}

#[test]
fn crash_state_store_mirror_loses_nothing() {
    run_state_store_crash_cell(false, false, 9801);
}

#[test]
fn crash_state_store_rejoin_reconciles_bit_for_bit() {
    run_state_store_crash_cell(true, true, 9802);
}

#[test]
fn crash_state_store_rejoin_under_parallel_backend() {
    // The harshest crash cell (primary dies mid-workload, restarts with
    // wiped DRAM, must reconcile bit-for-bit) replayed on the parallel
    // engine with two partitions. A star has no pod to keep whole, so the
    // 5-node topology splits as {switch | gen, sink, server_a, server_b}
    // and the crashed node lives in a *different* partition than the
    // switch driving it (the cell checks that): the crash and restart
    // admin events, failover probes, and catch-up WRITEs all
    // cross the partition boundary under lookahead bounds.
    extmem_sim::with_sched_backend(extmem_sim::SchedBackend::Parallel(2), || {
        run_state_store_crash_cell(true, true, 9802);
    });
}

/// A replicated state store whose pool names only its two knobs. A
/// restarted server comes back with wiped DRAM while counting goes on, and
/// the pool must rebuild it from the survivor without being told to: the
/// mirror crashes and rejoins first, then the primary. Once settled, both
/// replicas hold the oracle's counters exactly.
#[test]
fn crash_state_store_cold_rejoin_reseeds_both_replicas() {
    const COUNT: u64 = 1500;
    let counters = 256u64;
    let region = ByteSize::from_bytes(counters * 8);
    let link = LinkSpec::testbed_40g();
    let mut tb = Testbed::new(9803);
    tb.gen(probe_spec(256, 2, COUNT), link);
    tb.sink(link);
    let (_, ch_a) = tb.server(RnicConfig::default(), region, link);
    let (_, ch_b) = tb.server(RnicConfig::default(), region, link);
    let (rkey, base) = (ch_a.rkey, ch_a.base_va);
    let engine = FaaEngine::replicated(
        vec![ch_a, ch_b],
        FaaConfig {
            reliable: true,
            rto: TimeDelta::from_micros(30),
            ..Default::default()
        },
        crash_pool_config(),
    );
    let shards = vec![(0, engine, true)];
    let prog = ShardedStateStoreProgram::new(tb.fib(), shards, 1, TimeDelta::from_micros(30));
    let Built {
        mut sim,
        switch,
        hosts,
        servers,
        ..
    } = tb.build(SwitchConfig::default(), Box::new(prog));
    // Traffic spans ~1.6ms: the mirror is down 200-400us, the primary
    // 800-1000us, each rejoin well before the next crash.
    let (primary, mirror) = (servers[0], servers[1]);
    sim.schedule_crash(mirror, TimeDelta::from_micros(200));
    sim.schedule_restart(mirror, TimeDelta::from_micros(400));
    sim.schedule_crash(primary, TimeDelta::from_micros(800));
    sim.schedule_restart(primary, TimeDelta::from_micros(1000));
    let pool = |sim: &extmem_sim::Simulator| {
        let sw: &SwitchNode = sim.node(switch);
        let prog = sw.program::<ShardedStateStoreProgram>();
        let pool = prog.engine(0).pool();
        (pool.stats(), [pool.health(0), pool.health(1)])
    };
    sim.run_until(Time::from_micros(750));
    let (s, health) = pool(&sim);
    assert_eq!(
        (s.rejoins, s.failovers),
        (1, 0),
        "mirror never rejoined: {s}"
    );
    assert_eq!(health, [Health::Healthy; 2], "{s}");
    sim.run_until(Time::from_millis(50));

    assert!(sim.crash_drops(mirror) > 0 && sim.crash_drops(primary) > 0);
    let (s, health) = pool(&sim);
    assert!(s.rejoins >= 2 && s.failovers >= 1, "{s}");
    assert_eq!(health, [Health::Healthy; 2], "{s}");
    let sw: &SwitchNode = sim.node(switch);
    let prog = sw.program::<ShardedStateStoreProgram>();
    assert!(prog.is_settled() && !prog.is_degraded(), "{s}");
    let mut oracle = vec![0u64; counters as usize];
    for (&(_, slot), &v) in &prog.oracle {
        oracle[slot as usize] += v;
    }
    for (name, node) in [("primary", primary), ("mirror", mirror)] {
        let dump = read_remote_counters(sim.node::<RnicNode>(node), rkey, base, counters);
        assert_eq!(dump, oracle, "{name} diverges from the oracle: {s}");
    }
    assert_eq!(sim.node::<SinkNode>(hosts[1]).received, COUNT);
}

/// Two replicas under loss and a crash: the primary's link drops 1 % of its
/// frames each way, atomic acknowledgements among them, and the mirror dies
/// mid-run and restarts with wiped DRAM. Every Fetch-and-Add completes with
/// its own value, so the mirror is only ever written values — while live,
/// and all of them again when its reconnect is answered — and neither
/// replica is ever read. Once settled, both replicas hold the oracle's counters and
/// the pool is synced. (`scripts/ci.sh` re-runs this cell in release via
/// the `crash_` glob.)
#[test]
fn crash_state_store_mirror_rejoins_by_value_writes_under_loss() {
    const COUNT: u64 = 1500;
    let counters = 256u64;
    let region = ByteSize::from_bytes(counters * 8);
    let link = LinkSpec::testbed_40g();
    let mut tb = Testbed::new(9804);
    tb.gen(probe_spec(256, 2, COUNT), link);
    tb.sink(link);
    let (_, ch_a) = tb.server(RnicConfig::default(), region, faulty(FaultSpec::drop(0.01)));
    let (_, ch_b) = tb.server(RnicConfig::default(), region, link);
    let (rkey, base) = (ch_a.rkey, ch_a.base_va);
    let engine = FaaEngine::replicated(
        vec![ch_a, ch_b],
        FaaConfig {
            reliable: true,
            rto: TimeDelta::from_micros(30),
            ..Default::default()
        },
        crash_pool_config(),
    );
    let shards = vec![(0, engine, true)];
    let prog = ShardedStateStoreProgram::new(tb.fib(), shards, 1, TimeDelta::from_micros(30));
    let Built {
        mut sim,
        switch,
        hosts,
        servers,
        links,
    } = tb.build(SwitchConfig::default(), Box::new(prog));
    let (primary, mirror) = (servers[0], servers[1]);
    sim.schedule_crash(mirror, TimeDelta::from_micros(200));
    sim.schedule_restart(mirror, TimeDelta::from_micros(500));
    sim.run_until(Time::from_millis(50));

    let lost =
        sim.link_stats(links[2], 0).dropped_packets + sim.link_stats(links[2], 1).dropped_packets;
    assert!(
        lost > 0 && sim.crash_drops(mirror) > 0,
        "the faults never bit"
    );
    let sw: &SwitchNode = sim.node(switch);
    let prog = sw.program::<ShardedStateStoreProgram>();
    let s = prog.engine(0).stats();
    assert!(prog.is_settled() && !prog.is_degraded(), "{s:?}");
    assert!(prog.engine(0).pool().is_synced(), "{s:?}");
    assert_eq!((s.pool.failovers, s.pool.rejoins), (0, 1), "{s:?}");
    let mut oracle = vec![0u64; counters as usize];
    for (&(_, slot), &v) in &prog.oracle {
        oracle[slot as usize] += v;
    }
    for (name, node) in [("primary", primary), ("mirror", mirror)] {
        let dump = read_remote_counters(sim.node::<RnicNode>(node), rkey, base, counters);
        assert_eq!(dump, oracle, "{name} diverges from the oracle: {s:?}");
    }
    // The primary was never read, and answered re-sent Fetch-and-Adds
    // from its saved results; the mirror was written and never read (the
    // probe that found it back is a connect).
    let p = sim.node::<RnicNode>(primary).stats();
    assert_eq!((p.reads, p.ext_ops), (0, 0), "{p:?}");
    let m = sim.node::<RnicNode>(mirror).stats();
    assert_eq!((m.atomics, m.ext_ops, m.reads), (0, 0, 0), "{m:?}");
    assert!(m.writes > 0, "{m:?}");
    assert!(p.duplicates > 0, "no Fetch-and-Add was re-sent: {p:?}");
    assert_eq!(sim.node::<SinkNode>(hosts[1]).received, COUNT);
}

/// The sharded state store through a whole-node crash: shard 0's primary
/// dies mid-workload and restarts with wiped DRAM. The blast radius must
/// stay inside the shard — only shard 0's pool fails over, shard 1 never
/// notices — while consistent-hash routing keeps counting on both shards.
/// The restarted replica is rebuilt from its survivor, and every shard's
/// settled counters equal the `(shard, slot)` routing oracle exactly on
/// *both* replicas, rejoiner included. (`scripts/ci.sh` re-runs this cell
/// in release via the `crash_` glob.)
#[test]
fn crash_fabric_shard_primary_mid_run_rejoins_exact() {
    const COUNT: u64 = 600;
    const SHARDS: u32 = 2;
    const REPLICAS: usize = 2;
    const COUNTERS: u64 = 256;
    let region = ByteSize::from_bytes(COUNTERS * 8);
    let link = LinkSpec::testbed_40g();
    let mut tb = Testbed::new(9820);
    // A synthesized multi-flow population so both shards own keys.
    tb.gen(
        WorkloadSpec {
            src_mac: host_mac(0),
            dst_mac: host_mac(1),
            flows: FlowSet::synth(512, 0x0a90_0000, host_ip(1), 9_000),
            pick: FlowPick::Zipf(1.1),
            frame_len: 256,
            offered: Some(Rate::from_gbps(2)),
            arrival: Arrival::Paced,
            count: COUNT,
            seed: 31,
            flow_id_base: 0,
        },
        link,
    );
    tb.sink(link);
    // Servers sit on switch ports 2..6: shard s replica r at 2 + s*2 + r.
    let mut keys = Vec::new(); // [shard][replica] -> (rkey, base_va)
    let mut shards = Vec::new();
    for shard in 0..SHARDS {
        let channels: Vec<_> = (0..REPLICAS)
            .map(|_| tb.server(RnicConfig::default(), region, link).1)
            .collect();
        keys.push(
            channels
                .iter()
                .map(|ch| (ch.rkey, ch.base_va))
                .collect::<Vec<_>>(),
        );
        let engine = FaaEngine::replicated(
            channels,
            FaaConfig {
                reliable: true,
                rto: TimeDelta::from_micros(30),
                ..Default::default()
            },
            crash_pool_config(),
        );
        shards.push((shard, engine, true));
    }
    let prog = ShardedStateStoreProgram::new(tb.fib(), shards, 64, TimeDelta::from_micros(30));
    let Built {
        mut sim,
        switch,
        hosts,
        servers,
        ..
    } = tb.build(SwitchConfig::default(), Box::new(prog));
    // Shard 0's primary dies mid-workload (traffic spans ~600us) and comes
    // back with wiped DRAM half-way through.
    let victim = servers[0];
    sim.schedule_crash(victim, TimeDelta::from_micros(200));
    sim.schedule_restart(victim, TimeDelta::from_micros(500));
    sim.run_until(Time::from_millis(50));

    assert!(sim.crash_drops(victim) > 0, "crash never bit");
    let sw: &SwitchNode = sim.node(switch);
    let prog = sw.program::<ShardedStateStoreProgram>();
    assert!(prog.is_quiescent(), "stuck window");
    assert!(!prog.is_degraded(), "the mirror must keep shard 0 alive");
    let stats = prog.shard_stats();
    for s in &stats {
        assert!(s.routed > 0, "shard {}: ring starved it of traffic", s.id);
    }
    let hit = stats.iter().find(|s| s.id == 0).expect("shard 0 exists");
    let s = &hit.faa;
    assert!(s.pool.failovers >= 1, "shard 0 never failed over: {s:?}");
    assert!(s.pool.rejoins >= 1, "shard 0 never rejoined: {s:?}");
    assert!(s.pool.probes >= 1, "shard 0 issued no probe: {s:?}");
    // Blast radius: the untouched shard must see no pool activity at all.
    let calm = stats.iter().find(|s| s.id == 1).expect("shard 1 exists");
    assert_eq!(calm.faa.pool.failovers, 0, "crash leaked into shard 1");
    assert_eq!(calm.faa.pool.rejoins, 0, "crash leaked into shard 1");
    for rep in 0..REPLICAS {
        assert_eq!(
            prog.engine(0).pool().health(rep),
            Health::Healthy,
            "shard 0 replica {rep} not healthy after rejoin: {s:?}"
        );
    }
    // Exactness: every shard's counters equal the routing oracle on both
    // replicas — the survivor through mirror fan-out, the rejoiner through
    // the catch-up WRITEs of every counted word.
    for shard in 0..SHARDS {
        let mut expected = vec![0u64; COUNTERS as usize];
        for (&(sh, slot), &v) in &prog.oracle {
            if sh == shard {
                expected[slot as usize] += v;
            }
        }
        for rep in 0..REPLICAS {
            let node = servers[shard as usize * REPLICAS + rep];
            let (rkey, base_va) = keys[shard as usize][rep];
            let dump = read_remote_counters(sim.node::<RnicNode>(node), rkey, base_va, COUNTERS);
            assert_eq!(
                dump, expected,
                "shard {shard} replica {rep}: counters must be exact"
            );
        }
    }
    assert_eq!(sim.node::<SinkNode>(hosts[1]).received, COUNT);
}

// ---------------------------------------------------------------------------
// Duplicate injection: the responder's PSN discipline must deduplicate.
// ---------------------------------------------------------------------------

#[test]
fn duplicate_storm_state_store_settles_exactly() {
    // 20% of packets on the memory-server link are delivered twice (in
    // both directions: duplicated FaA requests and duplicated ACKs), on
    // top of reordering. Responder-side PSN dedup must keep the settled
    // counters exact — a re-executed FaA would double-count.
    const COUNT: u64 = 600;
    let counters = 256u64;
    let mut tb = Testbed::new(9900);
    tb.gen(probe_spec(256, 2, COUNT), LinkSpec::testbed_40g());
    tb.sink(LinkSpec::testbed_40g());
    let (_, channel) = tb.server(
        RnicConfig::default(),
        ByteSize::from_bytes(counters * 8),
        faulty(FaultSpec {
            drop_prob: 0.0,
            corrupt_prob: 0.0,
            duplicate_prob: 0.2,
            reorder_prob: 0.03,
            reorder_delay: TimeDelta::from_micros(3),
        }),
    );
    let rkey = channel.rkey;
    let base = channel.base_va;
    let engine = FaaEngine::new(
        channel,
        FaaConfig {
            reliable: true,
            rto: TimeDelta::from_micros(40),
            ..Default::default()
        },
    );
    let shards = vec![(0, engine, true)];
    let prog = ShardedStateStoreProgram::new(tb.fib(), shards, 1, TimeDelta::from_micros(30));
    let Built {
        mut sim,
        switch,
        hosts,
        servers,
        links,
    } = tb.build(SwitchConfig::default(), Box::new(prog));
    sim.run_until(Time::from_millis(50));

    let dups = sim.link_stats(links[2], 0).duplicated_packets
        + sim.link_stats(links[2], 1).duplicated_packets;
    assert!(dups > 0, "duplicate injection never bit");
    let sw: &SwitchNode = sim.node(switch);
    let prog = sw.program::<ShardedStateStoreProgram>();
    let s = prog.engine(0).stats();
    assert!(prog.is_quiescent(), "stuck window: {s:?}");
    assert!(!s.channel.failed_over, "{s:?}");
    let nic = sim.node::<RnicNode>(servers[0]);
    let remote: u64 = read_remote_counters(nic, rkey, base, counters).iter().sum();
    let truth: u64 = prog.oracle.values().sum();
    assert_eq!(remote, truth, "duplicates double-counted");
    assert_eq!(sim.node::<SinkNode>(hosts[1]).received, COUNT);
}

// ---------------------------------------------------------------------------
// Source guard: neither the copy-pasted resync hack nor the QP hatches may
// reappear.
// ---------------------------------------------------------------------------

#[test]
fn no_ad_hoc_psn_resync_in_core() {
    // PR 3 replaced four copies of the same ad-hoc requester-side PSN
    // resync (and a save/restore dance around retransmits) with the shared
    // ReliableChannel: primitives must never touch `qp.npsn` directly. And
    // a QP is a contract, RC or UC, reconnected only by an in-band connect:
    // no responder QP adopts whatever PSN comes first after a restart, and
    // no requester jumps its PSN to recover, in core or in the RNIC.
    let hatches: &[&str] = &["resync_next", "mark_resync", "PSN_JUMP", "probe_psn"];
    let mut scanned = 0;
    for (crate_src, resync) in [("core", true), ("rnic", false)] {
        let src = format!("{}/../{crate_src}/src", env!("CARGO_MANIFEST_DIR"));
        for entry in std::fs::read_dir(&src).expect("crate sources readable") {
            let path = entry.expect("dir entry").path();
            if path.extension().and_then(|e| e.to_str()) != Some("rs") {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("source readable");
            for pat in hatches {
                assert!(
                    !text.contains(pat),
                    "{} brings back the PSN hatch {pat:?}; a QP reconnects only \
                     by an in-band connect",
                    path.display()
                );
            }
            // The reliability layer itself is the one legitimate owner of
            // the requester QP's PSN state.
            if !resync || path.file_name().and_then(|n| n.to_str()) == Some("channel.rs") {
                scanned += 1;
                continue;
            }
            for pat in ["npsn = roce.bth.psn", "saved_npsn"] {
                assert!(
                    !text.contains(pat),
                    "{} reintroduces the ad-hoc PSN resync pattern {pat:?}; \
                     route recovery through ReliableChannel instead",
                    path.display()
                );
            }
            scanned += 1;
        }
    }
    assert!(scanned >= 10, "guard scanned too few files ({scanned})");
}
