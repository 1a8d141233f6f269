//! A13 — remote-op ISA A/B: dependent-access chains in one RTT.
//!
//! The responder's op engine (indexed/indirect READ, hash-probe-and-fetch,
//! conditional WRITE, bounded gather/walk) collapses every dependent-access
//! chain the switch primitives issue into a single request/response
//! exchange. Two sweeps measure the claim against the verb baseline (the
//! `RemoteOps` knob off):
//!
//! * **LPM walk depth 1–4** — verb mode issues one rung READ per level
//!   (pipelined on the QP, so RTTs-per-miss equals the ladder depth and
//!   each extra rung costs a full `per_op_overhead` in the server NIC's
//!   service pipeline plus request wire bytes); the gather/walk op reads
//!   every rung inside the responder for one `ext_op_step` each, so it
//!   pays exactly 1.0 RTTs-per-miss and its p99 pulls ahead of the verb
//!   ladder from depth 2 on.
//! * **Cuckoo lookups under filter pressure** — verb mode stays exact only
//!   because installs keep the switch-side counting filter truthful: every
//!   would-be false positive forcibly relocates its victim key to the
//!   secondary bucket (`fp_moves`). Shrinking the filter makes that
//!   maintenance bill explode and packs the table's secondary buckets. The
//!   hash-probe-and-fetch op never consults the filter — the responder
//!   checks both candidate buckets in the same exchange — so lookups stay
//!   exact at 1.0 RTTs-per-miss with zero punts at any filter size, and
//!   the filter plus its relocation machinery can come off the miss path
//!   entirely.

use extmem_apps::scenario::{host_ip, host_mac, Built, Testbed};
use extmem_apps::workload::{Arrival, FlowPick, SinkNode, WorkloadSpec};
use extmem_apps::LatencySummary;
use extmem_bench::table::{f2, print_table};
use extmem_core::lookup::{install_cuckoo_image, ActionEntry, LookupTableProgram, LookupStats};
use extmem_core::lpm::{install_remote_route, slots_per_level, LpmStats, RemoteLpmProgram};
use extmem_core::{CuckooConfig, CuckooDirectory};
use extmem_rnic::{RnicConfig, RnicNode, RnicStats};
use extmem_sim::LinkSpec;
use extmem_switch::{SwitchConfig, SwitchNode};
use extmem_types::{ByteSize, FiveTuple, Rate};

const COUNT: u64 = 2_000;

/// One LPM leg: a depth-`levels.len()` ladder with no route cache, every
/// packet a full remote walk. Returns the program stats, the sink's
/// latency summary, and the table server's NIC stats.
fn run_lpm(levels: &[u8], remote_ops: bool) -> (LpmStats, LatencySummary, RnicStats) {
    let dst_ip = 0x0a010203u32;
    let flow = FiveTuple::new(host_ip(0), dst_ip, 5000, 9000, 17);
    let link = LinkSpec::testbed_40g();
    let mut tb = Testbed::new(71);
    tb.gen(
        WorkloadSpec::simple(host_mac(0), host_mac(1), flow, 256, Rate::from_gbps(2), COUNT),
        link,
    );
    let mut sink = SinkNode::new("sink");
    sink.expect_dscp = Some(32);
    let sink_port = tb.host(sink, link);
    let region = ByteSize::from_mb(1);
    let (srv, channel) = tb.server(RnicConfig::default(), region, link);
    let spl = slots_per_level(region.bytes(), levels);
    let mut action = ActionEntry::set_dscp(32);
    action.port_override = Some(sink_port);
    install_remote_route(
        tb.nic_mut(srv),
        &channel,
        levels,
        spl,
        dst_ip,
        levels[0],
        action,
    );
    let prog = RemoteLpmProgram::new(tb.fib(), channel, levels.to_vec(), None)
        .with_remote_ops(remote_ops);
    let Built {
        mut sim,
        switch,
        hosts,
        servers,
        ..
    } = tb.build(SwitchConfig::default(), Box::new(prog));
    sim.run_to_quiescence();

    let sink = sim.node::<SinkNode>(hosts[1]);
    assert_eq!(sink.received, COUNT, "packets lost");
    assert_eq!(sink.dscp_mismatch, 0, "wrong rung won");
    let lat = sink.latency.summarize().expect("traffic flowed");
    let sw: &SwitchNode = sim.node(switch);
    let stats = sw.program::<RemoteLpmProgram>().stats();
    (stats, lat, sim.node::<RnicNode>(servers[0]).stats())
}

/// One cuckoo leg: 160 resident flows (62% load), round-robin traffic, no
/// cache, filter sized by `filter_cells`. Also returns the FP-avoidance
/// relocations the installs had to pay to keep the filter truthful.
fn run_cuckoo(filter_cells: usize, remote_ops: bool) -> (LookupStats, LatencySummary, u32) {
    const DSCP: u8 = 46;
    const FLOWS: u16 = 160;
    let cfg = CuckooConfig {
        buckets: 64,
        filter_cells,
        filter_hashes: 2,
        max_plan_steps: 64,
    };
    let mut dir = CuckooDirectory::new(cfg);
    let flows: Vec<FiveTuple> = (0..FLOWS)
        .map(|i| FiveTuple::new(host_ip(0), host_ip(1), 40_000 + i, 80, 17))
        .collect();
    let mut fp_moves = 0u32;
    for f in &flows {
        let plan = dir.plan_insert(*f, ActionEntry::set_dscp(DSCP)).expect("fits");
        fp_moves += plan.fp_moves;
    }
    let spec = WorkloadSpec {
        src_mac: host_mac(0),
        dst_mac: host_mac(1),
        flows: flows.into(),
        pick: FlowPick::RoundRobin,
        frame_len: 256,
        offered: Some(Rate::from_gbps(2)),
        arrival: Arrival::Paced,
        count: COUNT,
        seed: 9,
        flow_id_base: 0,
    };
    let link = LinkSpec::testbed_40g();
    let mut tb = Testbed::new(71);
    tb.gen(spec, link);
    tb.sink(link);
    let (table, channel) = tb.server(
        RnicConfig::default(),
        ByteSize::from_bytes(dir.region_bytes()),
        link,
    );
    install_cuckoo_image(tb.nic_mut(table), &channel, &dir);
    let prog = LookupTableProgram::cuckoo(tb.fib(), channel, dir, None).with_remote_ops(remote_ops);
    let Built {
        mut sim,
        switch,
        hosts,
        ..
    } = tb.build(SwitchConfig::default(), Box::new(prog));
    sim.run_to_quiescence();

    let sink = sim.node::<SinkNode>(hosts[1]);
    assert_eq!(sink.received, COUNT, "packets lost");
    let lat = sink.latency.summarize().expect("traffic flowed");
    let sw: &SwitchNode = sim.node(switch);
    (sw.program::<LookupTableProgram>().stats(), lat, fp_moves)
}

fn main() {
    println!("A13: remote-op ISA A/B — one RTT per dependent-access chain ({COUNT} packets/leg)");

    // --- LPM ladder depth sweep ------------------------------------------
    let ladders: [&[u8]; 4] = [&[32], &[32, 24], &[32, 24, 16], &[32, 24, 16, 8]];
    let mut rows = Vec::new();
    for levels in ladders {
        let depth = levels.len();
        let (vs, vlat, vnic) = run_lpm(levels, false);
        let (rs, rlat, rnic) = run_lpm(levels, true);
        assert_eq!(
            vs.rtts_per_miss(),
            Some(depth as f64),
            "verb mode must pay one READ per rung: {vs:?}"
        );
        assert_eq!(
            rs.rtts_per_miss(),
            Some(1.0),
            "gather/walk must be one RTT at depth {depth}: {rs:?}"
        );
        assert_eq!(rnic.ext_ops, COUNT, "every miss must run in the op engine");
        assert_eq!(
            rnic.ext_op_steps,
            COUNT * depth as u64,
            "the op engine must still perform one rung access per level"
        );
        assert_eq!(vnic.ext_ops, 0, "verb leg must not touch the op engine");
        if depth >= 2 {
            assert!(
                rlat.p99 < vlat.p99,
                "one-RTT walk must beat {depth} serialized RTTs at p99: \
                 remote {:?} vs verb {:?}",
                rlat.p99,
                vlat.p99
            );
        }
        rows.push(vec![
            depth.to_string(),
            format!("{:.1}", vs.rtts_per_miss().unwrap()),
            f2(vlat.median.as_micros_f64()),
            f2(vlat.p99.as_micros_f64()),
            format!("{:.1}", rs.rtts_per_miss().unwrap()),
            f2(rlat.median.as_micros_f64()),
            f2(rlat.p99.as_micros_f64()),
            f2(vlat.p99.as_micros_f64() - rlat.p99.as_micros_f64()),
        ]);
    }
    print_table(
        "LPM walk: verb rungs vs one gather/walk op",
        &[
            "depth",
            "verb RTT/miss",
            "verb med us",
            "verb p99 us",
            "ops RTT/miss",
            "ops med us",
            "ops p99 us",
            "p99 saved us",
        ],
        &rows,
    );

    // --- cuckoo filter-pressure sweep ------------------------------------
    let mut rows = Vec::new();
    let mut fp_by_cells = Vec::new();
    for cells in [4096usize, 512, 96] {
        let (vs, vlat, vfp) = run_cuckoo(cells, false);
        let (rs, rlat, rfp) = run_cuckoo(cells, true);
        assert_eq!(vfp, rfp, "both legs install into the same directory");
        fp_by_cells.push(vfp);
        assert_eq!(
            rs.rtts_per_miss(),
            Some(1.0),
            "hash-probe must be one RTT with {cells} filter cells: {rs:?}"
        );
        assert_eq!(
            rs.slow_path, 0,
            "remote-op lookups must not punt resident keys: {rs:?}"
        );
        assert_eq!(
            vs.slow_path, 0,
            "fp-avoidance relocations keep verb lookups exact: {vs:?}"
        );
        rows.push(vec![
            cells.to_string(),
            vfp.to_string(),
            format!("{:.2}", vs.rtts_per_miss().unwrap()),
            vs.filter_secondary_probes.to_string(),
            f2(vlat.p99.as_micros_f64()),
            format!("{:.2}", rs.rtts_per_miss().unwrap()),
            rs.filter_secondary_probes.to_string(),
            f2(rlat.p99.as_micros_f64()),
        ]);
    }
    assert!(
        fp_by_cells.last() > fp_by_cells.first(),
        "shrinking the filter must raise the install-time relocation bill: {fp_by_cells:?}"
    );
    print_table(
        "cuckoo lookup: filter-steered READ vs hash-probe-and-fetch (punts 0 in both modes)",
        &[
            "filter cells",
            "install fp-moves",
            "verb RTT/miss",
            "verb 2nd-bkt",
            "verb p99 us",
            "ops RTT/miss",
            "ops 2nd-bkt",
            "ops p99 us",
        ],
        &rows,
    );

    println!(
        "\nverb mode's exactness is bought at install time: {} fp-avoidance",
        fp_by_cells.last().unwrap()
    );
    println!(
        "relocations at 96 filter cells vs {} at 4096. The hash-probe op needs",
        fp_by_cells.first().unwrap()
    );
    println!("none of that machinery — the responder scans both buckets in one RTT.");

    println!("\nexpectation: the ops legs hold 1.0 RTTs-per-miss at every depth and");
    println!("every filter size, with zero punts; verb p99 grows with ladder depth.");
}
