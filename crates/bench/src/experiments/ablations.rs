//! A1–A13: ablations over the design knobs the paper calls out (§4, §7)
//! and the studies that go beyond its prototype.

use super::paper::line_rate_counting;
use crate::rigs::{
    cuckoo_storm, drain_10g, faa_store, failover_store, flows, lossy_detour, one_flow, paced,
    program, reliable_faa, sink, testbed, testbed_with_server,
};
use crate::table::{f1, f2, f3, human, table};
use extmem_apps::baremetal::{run_gateway, GatewayConfig};
use extmem_apps::kvcache::run_kv;
use extmem_apps::scenario::{host_ip, host_mac};
use extmem_apps::telemetry::{run_counting, CountingConfig};
use extmem_apps::workload::{FlowPick, FlowSet, SinkNode, WorkloadSpec};
use extmem_apps::LatencySummary;
use extmem_core::channel::{ChannelStats, ReliableConfig};
use extmem_core::faa::{FaaConfig, FaaEngine};
use extmem_core::lookup::{ActionEntry, LookupStats, LookupTableProgram};
use extmem_core::lpm::{install_remote_route, slots_per_level, RemoteLpmProgram};
use extmem_core::packet_buffer::{Mode, PacketBufferProgram};
use extmem_core::shard::ShardedStateStoreProgram;
use extmem_core::slow_path::CpuSlowPathProgram;
use extmem_core::state_store::read_remote_counters;
use extmem_core::trace_store::{read_remote_trace, TraceStoreProgram};
use extmem_core::{CuckooConfig, PoolConfig};
use extmem_rnic::{RnicConfig, RnicNode, RnicStats};
use extmem_sim::LinkSpec;
use extmem_switch::{SwitchConfig, SwitchNode};
use extmem_types::{ByteSize, FiveTuple, PortId, Rate, Time, TimeDelta};
use extmem_wire::MacAddr;

fn yes_no(ok: bool) -> String {
    if ok { "yes" } else { "NO" }.to_string()
}

/// A1 — ablation: the lookup primitive's optional local SRAM cache
/// (§4: "the switch can (optionally) cache the table entry in local SRAM").
///
/// Sweeps cache capacity against traffic skew and reports hit rate, remote
/// lookups and median latency. The design point: with realistic Zipf skew a
/// tiny cache absorbs most lookups, so the remote table only serves the
/// long tail — the memory-hierarchy argument of the paper in miniature.
pub fn a1_cache_ablation(out: &mut String) {
    out.push_str("A1: lookup-table local-cache ablation (64 VIP flows, 4000 packets)\n");

    for &skew in &[0.0f64, 0.9, 1.3] {
        let mut rows = Vec::new();
        for cache in [None, Some(4usize), Some(16), Some(64)] {
            let r = run_gateway(GatewayConfig {
                n_vips: 64,
                pick: if skew == 0.0 {
                    FlowPick::Uniform
                } else {
                    FlowPick::Zipf(skew)
                },
                count: 4_000,
                frame_len: 256,
                offered: Rate::from_gbps(5),
                cache,
                seed: 51,
                ..Default::default()
            });
            rows.push(vec![
                cache.map_or("off".into(), |c| c.to_string()),
                f3(r.cache_hit_rate),
                r.lookup.remote_lookups.to_string(),
                f2(r.latency.median.as_micros_f64()),
                f2(r.latency.p99.as_micros_f64()),
            ]);
            assert_eq!(r.delivered, r.sent);
            assert_eq!(r.server_cpu_packets, 0);
        }
        table(
            out,
            &format!(
                "skew = {} ({})",
                skew,
                if skew == 0.0 { "uniform" } else { "zipf" }
            ),
            &[
                "cache entries",
                "hit rate",
                "remote lookups",
                "median us",
                "p99 us",
            ],
            &rows,
        );
    }
    out.push_str(
        "\nexpectation: hit rate and latency improve with cache size; gains grow with skew\n",
    );
}

/// A2 — ablation: the state-store primitive's issuing discipline.
///
/// Two knobs from §4/§7:
/// * `max_outstanding` — the switch-side bound that protects the RNIC's
///   limited atomic resources (§4),
/// * `min_batch` — the §7 extension: "combine multiple counter updates
///   into a single operation, at the cost of some delay in updates".
///
/// Reports FaA packets sent, link bandwidth, merge behaviour and final
/// accuracy at near-line-rate load.
pub fn a2_atomics_ablation(out: &mut String) {
    out.push_str("A2: state-store issuing-discipline ablation (256B @ 38G, 20000 packets)\n");

    let mut rows = Vec::new();
    for (window, batch) in [
        (1usize, 1u64),
        (4, 1),
        (8, 1),
        (16, 1),
        (8, 4),
        (8, 16),
        (8, 64),
    ] {
        let r = run_counting(CountingConfig {
            faa: FaaConfig {
                max_outstanding: window,
                min_batch: batch,
                ..Default::default()
            },
            ..line_rate_counting(256, 61)
        });
        rows.push(vec![
            window.to_string(),
            batch.to_string(),
            r.faa.faa_sent.to_string(),
            f2(r.faa.merged as f64 / r.faa.updates as f64),
            f2(r.faa_request_bw.gbps_f64() + r.faa_response_bw.gbps_f64()),
            if r.remote_total == r.truth_total {
                "exact".into()
            } else {
                "INEXACT".into()
            },
        ]);
        assert_eq!(
            r.remote_total, r.truth_total,
            "accuracy must hold after settling"
        );
    }
    table(
        out,
        "issuing discipline vs FaA traffic",
        &[
            "outstanding",
            "min batch",
            "FaA sent",
            "merge frac",
            "FaA Gbps",
            "accuracy",
        ],
        &rows,
    );
    out.push_str(
        "\nexpectations:\n  \
         bigger outstanding window -> more FaA throughput until the RNIC cap binds\n  \
         bigger min_batch -> fewer FaA packets and less bandwidth, same final counts\n",
    );
}

/// One A3 sweep point: 2000 × 1000 B at 30 G into the 10 G drain with a
/// 256 KB local queue budget, as a table row.
fn a3_probe(start_store: u64, resume_load: u64) -> Vec<String> {
    let spec = one_flow(40_000, 9_000, 1000, Rate::from_gbps(30), 2_000);
    let (tb, channel) = testbed_with_server(71, spec, drain_10g(), ByteSize::from_mb(8), 0.0);
    let prog = PacketBufferProgram::new(
        tb.fib(),
        vec![channel],
        PortId(1),
        2048,
        Mode::Auto {
            start_store_qbytes: start_store,
            resume_load_qbytes: resume_load,
        },
        8,
        TimeDelta::from_micros(100),
    );
    let mut t = tb.build(
        // Small local budget so thresholds matter.
        SwitchConfig {
            buffer: ByteSize::from_bytes(256 * 1024),
            ..Default::default()
        },
        Box::new(prog),
    );
    t.sim.run_to_quiescence();

    let sink = sink(&t);
    let s = program::<PacketBufferProgram>(&t).stats();
    let lat = sink.latency.summarize().expect("sink received no packets");
    vec![
        if start_store == u64::MAX {
            "off".into()
        } else {
            (start_store / 1000).to_string()
        },
        s.direct.to_string(),
        s.stored.to_string(),
        sink.received.to_string(),
        t.sim
            .node::<SwitchNode>(t.switch)
            .tm()
            .total_drops()
            .to_string(),
        s.lost_entries.to_string(),
        sink.total_reorders().to_string(),
        f2(lat.median.as_micros_f64()),
        f2(lat.p99.as_micros_f64()),
    ]
}

/// A3 — ablation: the packet-buffer detour thresholds.
///
/// §4: "packet storing and loading starts or ends based on a pre-defined
/// condition (e.g., the current egress queue length). Depending on the
/// condition, end-to-end performance may be affected (e.g., latency
/// increases due to a packet loaded too late). Finding a right condition to
/// start loading packets from remote buffer is our ongoing work."
///
/// This ablation does that sweep: a 30G burst drains into a 10G port with
/// a small local queue budget; we vary the store threshold and report how
/// much traffic detours, delivery, ordering and latency.
pub fn a3_threshold_ablation(out: &mut String) {
    out.push_str("A3: detour-threshold ablation (2000 x 1000B @ 30G into a 10G port)\n");
    let rows: Vec<Vec<String>> = [
        (8_000u64, 4_000u64),
        (16_000, 8_000),
        (32_000, 16_000),
        (64_000, 32_000),
        (128_000, 64_000),
        (u64::MAX, u64::MAX / 2), // detour disabled: local queue only
    ]
    .iter()
    .map(|&(start, resume)| a3_probe(start, resume))
    .collect();
    table(
        out,
        "store-threshold sweep",
        &[
            "start KB",
            "direct",
            "detoured",
            "delivered",
            "drops",
            "lost",
            "reorders",
            "median us",
            "p99 us",
        ],
        &rows,
    );
    out.push_str(
        "\nexpectations: lower thresholds detour more and protect the local buffer;\n\
         the detour adds latency (remote round trips) but prevents drops; with the\n\
         detour off, the 256KB local budget tail-drops most of the burst.\n",
    );
}

/// A4 — ablation: packet bouncing (§4) vs local recirculation (§7) for
/// lookup-table misses.
///
/// §7: "one may recirculate the original packet locally and wait for the
/// pulled entry, instead of depositing the original packet. This can save
/// the bandwidth overhead to the remote memory."
///
/// Both modes run the same skewed workload with a small cache (so misses
/// keep happening); we compare remote-link bytes, recirculation work and
/// latency.
pub fn a4_recirculation(out: &mut String) {
    out.push_str("A4: lookup miss handling — bounce (deposit packet) vs recirculate\n");

    let mut rows = Vec::new();
    for &frame in &[128usize, 512, 1024] {
        for recirculate in [false, true] {
            let mode = if recirculate { "recirculate" } else { "bounce" };
            let r = run_gateway(GatewayConfig {
                n_vips: 256,
                pick: FlowPick::Zipf(0.8), // mild skew: plenty of misses
                count: 4_000,
                frame_len: frame,
                offered: Rate::from_gbps(4),
                cache: Some(32),
                recirculate,
                seed: 81,
                ..Default::default()
            });
            assert_eq!(r.delivered, r.sent, "lost packets in {mode} mode");
            rows.push(vec![
                frame.to_string(),
                mode.into(),
                r.lookup.remote_lookups.to_string(),
                r.lookup.recirc_passes.to_string(),
                (r.to_server_bytes + r.from_server_bytes).to_string(),
                f2(r.latency.median.as_micros_f64()),
                f2(r.latency.p99.as_micros_f64()),
            ]);
        }
    }
    table(
        out,
        "miss handling vs remote-memory bandwidth",
        &[
            "frame B",
            "mode",
            "remote lookups",
            "recirc passes",
            "remote-link bytes",
            "median us",
            "p99 us",
        ],
        &rows,
    );
    out.push_str(
        "\nexpectation: recirculation cuts remote-link bytes (no packet deposit,\n\
         16B action reads) at the cost of recirculation passes through the pipeline;\n\
         the saving grows with packet size.\n",
    );
}

/// One A5 leg as a table row. Ports: 0 = burst sender, 1 = victim receiver
/// (10G), 2 = memory server (shared with bulk), 3 = bulk sender.
fn a5_probe(high_priority: bool) -> Vec<String> {
    let count = 1_500u64;
    // Burst: 20G of 1000B frames toward the 10G victim port.
    let burst = one_flow(40_000, 9_000, 1000, Rate::from_gbps(20), count);
    let (mut tb, channel) = testbed_with_server(91, burst, drain_10g(), ByteSize::from_mb(8), 0.0);
    // Bulk: 39G of 1500B frames toward the memory server's host side —
    // together with the ~20G of detour WRITEs this oversubscribes the 40G
    // server link, building a standing queue the RDMA packets either wait
    // behind (best effort) or jump (strict priority).
    tb.gen(
        WorkloadSpec {
            flow_id_base: 1000,
            ..WorkloadSpec::simple(
                host_mac(3),
                host_mac(2),
                FiveTuple::new(host_ip(3), host_ip(2), 41_000, 9_100, 17),
                1500,
                Rate::from_gbps(39),
                4_000,
            )
        },
        LinkSpec::testbed_40g(),
    );
    let mut fib = tb.fib();
    fib.install(host_mac(2), channel.server_port); // bulk data to the server's host side
    let rto = TimeDelta::from_micros(100);
    let prog = PacketBufferProgram::new(
        fib,
        vec![channel],
        PortId(1),
        2048,
        Mode::Auto {
            start_store_qbytes: 8_000,
            resume_load_qbytes: 4_000,
        },
        8,
        rto,
    )
    .with_reliability(ReliableConfig {
        rto,
        high_priority,
        ..Default::default()
    });
    // Default 12MB buffer: contention delays, it does not drop.
    let mut t = tb.build(SwitchConfig::default(), Box::new(prog));
    t.sim.run_to_quiescence();

    let s = program::<PacketBufferProgram>(&t).stats();
    let victim = sink(&t);
    let lat = victim
        .latency
        .summarize()
        .expect("victim received no packets");
    let bulk_to_host = t.sim.node::<RnicNode>(t.servers[0]).stats().cpu_packets;
    vec![
        if high_priority {
            "high (strict)"
        } else {
            "best effort"
        }
        .into(),
        s.stored.to_string(),
        s.lost_entries.to_string(),
        format!("{}/{}", victim.received, count),
        victim.total_reorders().to_string(),
        format!("{:.0}", victim.last_rx.picos() as f64 / 1e6),
        format!("{:.0}", lat.p99.as_micros_f64()),
        bulk_to_host.to_string(),
    ]
}

/// A5 — ablation: prioritizing RDMA packets on shared links (§7).
///
/// §7: "one may prioritize these RDMA packets so that they are less likely
/// to be dropped". In a rack, the remote-buffer servers are ordinary
/// servers that also receive bulk data, so detour WRITEs/READs share the
/// server-facing egress with that data. This ablation runs a burst through
/// the packet-buffer detour while bulk traffic hammers the same server
/// port, with and without strict priority for the RDMA packets.
pub fn a5_rdma_priority(out: &mut String) {
    out.push_str("A5: RDMA priority on a server link shared with 39G of bulk data\n");
    table(
        out,
        "RDMA priority vs detour health",
        &[
            "rdma priority",
            "detoured",
            "lost entries",
            "burst delivered",
            "reorders",
            "completion us",
            "p99 us",
            "bulk to host",
        ],
        &[a5_probe(false), a5_probe(true)],
    );
    out.push_str(
        "\nexpectation: the detour's WRITEs/READs wait behind the bulk standing queue\n\
         without priority (late completion, fat tail); strict priority lets them jump\n\
         it, at no cost in delivery for either flow (12MB absorbs the bulk queue).\n",
    );
}

/// A6 — application study: in-network key-value serving (the §2.2 NetCache
/// aside) over the remote lookup table.
///
/// GETs for cached keys are answered by the switch in one RTT to the ToR;
/// misses cost one more round trip — to the server's *RNIC*, not its CPU.
/// The paper's pitch is that this second tier replaces NetCache's software
/// slow path; the table quantifies it across skews and cache sizes.
pub fn a6_kvcache(out: &mut String) {
    out.push_str("A6: in-network KV over remote memory (1024 keys, 5000 GETs, closed loop)\n");

    for &skew in &[0.6f64, 0.99, 1.3] {
        let mut rows = Vec::new();
        for cache in [None, Some(16usize), Some(64), Some(256)] {
            let r = run_kv(1024, skew, 5_000, cache, 17);
            assert_eq!(r.wrong, 0, "wrong values served");
            assert_eq!(r.server_cpu_packets, 0, "server CPU touched");
            let hit = r.lookup.cache_hits as f64
                / (r.lookup.cache_hits + r.lookup.remote_lookups).max(1) as f64;
            rows.push(vec![
                cache.map_or("off".into(), |c| c.to_string()),
                f3(hit),
                r.lookup.remote_lookups.to_string(),
                f2(r.latency.median.as_micros_f64()),
                f2(r.latency.p99.as_micros_f64()),
            ]);
        }
        table(
            out,
            &format!("zipf skew = {skew}"),
            &[
                "cache entries",
                "switch-served frac",
                "remote GETs",
                "median RTT us",
                "p99 RTT us",
            ],
            &rows,
        );
    }
    out.push_str(
        "\nevery GET is answered with the correct value; the server CPU handles zero\n\
         packets in all configurations — the remote tier replaces the software\n\
         slow path NetCache-class systems fall back to.\n",
    );
}

/// One A7 point as a table row: 20000 × 256 B at 30 G, `batch` records per
/// WRITE, capture bandwidth measured on the switch→server link.
fn a7_probe(batch: usize) -> Vec<String> {
    let count = 20_000u64;
    let frame = 256usize;
    let offered = Rate::from_gbps(30);
    let spec = paced(
        flows(8, 20_000, 9_000),
        FlowPick::Uniform,
        frame,
        offered,
        count,
        42,
    );
    let link = LinkSpec::testbed_40g();
    let (tb, channel) = testbed_with_server(41, spec, link, ByteSize::from_mb(4), 0.0);
    let (rkey, base) = (channel.rkey, channel.base_va);
    let prog = TraceStoreProgram::new(tb.fib(), channel, batch, TimeDelta::from_micros(20));
    let mut t = tb.build(SwitchConfig::default(), Box::new(prog));
    let workload =
        TimeDelta::from_secs_f64(count as f64 * frame as f64 * 8.0 / offered.bps() as f64);
    t.sim
        .run_until(Time::ZERO + workload + TimeDelta::from_millis(2));

    let prog = program::<TraceStoreProgram>(&t);
    let stats = prog.stats();
    let to_server = t.sim.link_stats(t.links[2], 0).delivered_bytes;
    let bw = extmem_apps::metrics::throughput(to_server, workload);
    // How much of the trace actually landed? Per-packet WRITEs can exceed
    // the NIC's message rate; lost WRITEs leave zeroed records.
    let nic = t.sim.node::<RnicNode>(t.servers[0]);
    assert_eq!(nic.stats().cpu_packets, 0);
    let trace = read_remote_trace(nic, rkey, base, prog.ring_records(), prog.captured());
    let landed = trace
        .iter()
        .enumerate()
        .filter(|(i, r)| r.seq == *i as u64 && r.frame_len != 0)
        .count() as f64
        / count as f64;
    if batch >= 4 {
        assert!(landed > 0.999, "batch {batch} should capture everything");
    }
    vec![
        batch.to_string(),
        stats.captured.to_string(),
        stats.writes.to_string(),
        f2(bw.gbps_f64()),
        format!("{:.1}%", landed * 100.0),
    ]
}

/// A7 — the WRITE-based telemetry path (§2.3) and its batching knob.
///
/// §2.3: "the switch can extract fields from original packets and perform
/// RDMA WRITE into certain remote memory address. This eliminates the CPU
/// cycles required for capturing and parsing packets in previous systems."
///
/// Every forwarded packet becomes a 32-byte record in a remote ring. A
/// record-per-WRITE costs a 74-byte RoCE envelope per packet; batching k
/// records per WRITE amortizes it. This row measures the capture bandwidth
/// on the switch↔server link across batch sizes at ~line rate.
pub fn a7_trace_capture(out: &mut String) {
    out.push_str("A7: remote trace capture at 30G of 256B frames (20000 packets)\n");
    let rows = [1usize, 4, 16, 64].map(a7_probe);
    table(
        out,
        "capture bandwidth vs batch size",
        &[
            "records/WRITE",
            "captured",
            "WRITEs",
            "capture Gbps",
            "records landed",
        ],
        &rows,
    );
    out.push_str(
        "\nper-packet WRITEs (batch 1) exceed the RNIC's ~9.5 M msg/s at this packet\n\
         rate (14.6 Mpps), so part of the trace is lost at the NIC — §2.3's design\n\
         needs §7's batching. Batched capture lands 100% and approaches the 32 B/\n\
         record bandwidth floor, with zero server-CPU cost throughout.\n",
    );
}

const A8_FLOWS: usize = 256;
const A8_COUNT: u64 = 4_000;
const A8_CACHE: usize = 16;

fn a8_flows() -> Vec<FiveTuple> {
    (0..A8_FLOWS)
        .map(|v| {
            FiveTuple::new(
                host_ip(0),
                0x0a01_0000 + v as u32,
                40_000 + v as u16,
                80,
                17,
            )
        })
        .collect()
}

/// The CPU-slow-path baseline as a table row.
fn a8_slowpath(skew: f64, cpu_us: u64, seed: u64) -> Vec<String> {
    let spec = WorkloadSpec {
        dst_mac: MacAddr::local(200),
        ..paced(
            a8_flows(),
            FlowPick::Zipf(skew),
            256,
            Rate::from_gbps(2),
            A8_COUNT,
            seed ^ 0x51,
        )
    };
    let mut server = SinkNode::new("server");
    server.expect_dscp = Some(46);
    let tb = testbed(seed, spec, server, LinkSpec::testbed_40g());
    let mut prog = CpuSlowPathProgram::new(
        tb.fib(),
        Some(A8_CACHE),
        TimeDelta::from_micros(cpu_us),
        1024,
    );
    for f in a8_flows() {
        let mut act = ActionEntry::set_dscp(46);
        act.port_override = Some(PortId(1));
        prog.install(f, act);
    }
    let mut t = tb.build(SwitchConfig::default(), Box::new(prog));
    t.sim.run_until(Time::from_millis(50));
    let sink = sink(&t);
    assert_eq!(sink.dscp_mismatch, 0);
    let lat = sink.latency.summarize().expect("sink received no packets");
    let s = program::<CpuSlowPathProgram>(&t).stats();
    vec![
        format!("CPU slow path ({cpu_us}us)"),
        f2(lat.median.as_micros_f64()),
        f2(lat.p99.as_micros_f64()),
        format!("{}/{A8_COUNT}", sink.received),
        s.punts.to_string(),
        s.punt_drops.to_string(),
    ]
}

/// The remote-lookup pipeline on the same workload as a table row.
fn a8_remote(skew: f64, seed: u64) -> Vec<String> {
    let r = run_gateway(GatewayConfig {
        n_vips: A8_FLOWS,
        pick: FlowPick::Zipf(skew),
        count: A8_COUNT,
        frame_len: 256,
        offered: Rate::from_gbps(2),
        cache: Some(A8_CACHE),
        table_entries: 8192,
        entry_size: 2048,
        recirculate: false,
        seed,
    });
    vec![
        "remote memory (RDMA)".into(),
        f2(r.latency.median.as_micros_f64()),
        f2(r.latency.p99.as_micros_f64()),
        format!("{}/{A8_COUNT}", r.delivered),
        r.lookup.remote_lookups.to_string(),
        "0".into(),
    ]
}

/// A8 — the paper's central §2.2 comparison: CPU slow path vs remote
/// memory for table misses.
///
/// "even if the traffic pattern leads to frequent cache misses and remote
/// fetching, there is no CPU overhead or software latency."
///
/// Both pipelines run the same DSCP workload with the same 16-entry SRAM
/// cache; only the miss path differs: punt to a CPU (25/50/100 µs software
/// round trip, bounded punt queue) vs WRITE+READ to server DRAM (~2 µs,
/// no CPU). The skew sweep varies how often misses happen.
pub fn a8_slowpath_vs_remote(out: &mut String) {
    out.push_str(
        "A8: table-miss handling — CPU slow path vs remote memory\n\
         (256 flows, 16-entry cache, 4000 packets @ 2G, DSCP action)\n",
    );
    for &skew in &[0.8f64, 1.2] {
        let mut rows = [25u64, 50, 100]
            .map(|cpu_us| a8_slowpath(skew, cpu_us, 91))
            .to_vec();
        rows.push(a8_remote(skew, 91));
        table(
            out,
            &format!("zipf skew = {skew}"),
            &[
                "miss path",
                "median us",
                "p99 us",
                "delivered",
                "misses",
                "miss drops",
            ],
            &rows,
        );
    }
    out.push_str(
        "\nexpectation: identical medians (the cache serves both), but the slow path's\n\
         p99 carries the software latency — 10-50x the remote-memory tail — and its\n\
         punt queue can drop under miss bursts. The remote path needs no CPU at all.\n",
    );
}

/// The packet-buffer detour: 30G in, 10G drain, every frame takes the
/// WRITE + chained-READ round trip through the lossy server link. Returns
/// the channel's counters, frames delivered, and whether recovery was exact.
fn a9_packet_buffer(loss: f64, count: u64) -> (ChannelStats, u64, bool) {
    let t = lossy_detour(171, count, 2048, loss, TimeDelta::from_millis(40));
    let s = program::<PacketBufferProgram>(&t).stats();
    let sink = sink(&t);
    let exact = s.lost_entries == 0
        && s.loaded == s.stored
        && sink.total_reorders() == 0
        && sink.received == count;
    (s.channel, sink.received, exact)
}

/// The state store: one Fetch-and-Add per packet against the lossy link;
/// exactness is `remote counters == ground truth`.
fn a9_state_store(loss: f64, count: u64) -> (ChannelStats, u64, bool) {
    let (t, remote) = faa_store(
        173,
        one_flow(5000, 9000, 256, Rate::from_gbps(2), count),
        256,
        loss,
        reliable_faa(40),
        TimeDelta::from_micros(30),
        Time::from_millis(50),
    );
    let prog = program::<ShardedStateStoreProgram>(&t);
    let truth: u64 = prog.oracle.values().sum();
    let delivered = sink(&t).received;
    let exact = prog.is_quiescent() && remote.iter().sum::<u64>() == truth && delivered == count;
    (prog.engine(0).stats().channel, delivered, exact)
}

/// A9 — the reliability layer under a loss sweep (§7 "handling packet
/// losses").
///
/// §7 requires the switch itself to recover lost RDMA packets. The shared
/// `ReliableChannel` must make loss *invisible*: under 0.1% and 1% drop on
/// the memory-server link, the packet-buffer ring still releases every
/// entry in order and the state store still settles to exact counters —
/// at the price of retransmissions, not correctness. This row prints the
/// price: retransmit volleys, NAK suppression, duplicate drops per loss
/// rate, for both a WRITE/READ-heavy primitive (packet buffer) and an
/// atomics-heavy one (state store).
pub fn a9_loss_sweep(out: &mut String) {
    const COUNT: u64 = 2_000;
    out.push_str(
        "A9: reliability layer under loss (packet buffer 30G detour, state store 2G FaA)\n\n",
    );
    let row = |name: &str, loss: f64, (c, delivered, exact): (ChannelStats, u64, bool)| {
        vec![
            format!("{name} @ {:.1}%", loss * 100.0),
            c.ops_issued.to_string(),
            c.retransmits.to_string(),
            c.naks.to_string(),
            c.naks_suppressed.to_string(),
            c.duplicate_drops.to_string(),
            format!("{delivered}/{COUNT}"),
            yes_no(exact),
        ]
    };
    let losses = [0.0, 0.001, 0.01];
    let mut rows = losses
        .map(|l| row("pkt buffer", l, a9_packet_buffer(l, COUNT)))
        .to_vec();
    rows.extend(losses.map(|l| row("state store", l, a9_state_store(l, COUNT))));
    table(
        out,
        "reliability cost vs loss rate",
        &[
            "primitive @ loss",
            "ops",
            "retx",
            "naks",
            "suppressed",
            "dup drops",
            "delivered",
            "exact",
        ],
        &rows,
    );
    out.push_str(
        "\nexpectation: retransmissions scale with the loss rate while delivery and\n\
         settled state stay exact at every point — the reliability layer turns loss\n\
         into bandwidth, never into wrong answers. NAK suppression keeps one\n\
         go-back-N volley per loss event no matter how many packets were behind it.\n",
    );
}

/// A10 — replicated pools under server failure (the §8 "fault tolerance"
/// follow-through).
///
/// The paper's primitives each talk to *one* memory server; a crash there
/// is terminal. The replicated pool layer turns the state store's server
/// into a pool: each Fetch-and-Add completes with the primary's value of
/// its word, which is written to the mirror, and a health detector drives
/// failover, probing and rejoin. This row prices that machinery: what
/// replication costs when nothing fails (`mirror B/word`, the bytes on the
/// mirror's link per written word, is checked against its closed form, one
/// WRITE per run of dirty words and one ACK per flush, and below one
/// Fetch-and-Add round trip, 86 + 70 B; one flow counts on one word, the
/// dense case's 16 flows on a 16-counter region), and what a crash costs
/// when it does — in failovers, probes and written words — while exactness
/// (settled counters equal to ground truth on every live replica) holds at
/// every point.
pub fn a10_failover(out: &mut String) {
    const COUNT: u64 = 2_000;
    out.push_str("A10: replicated state store (primary + mirror) under server failure\n\n");
    // (case, server crashed mid-run, whether it restarts, one flow per
    // counter of a 16-counter region: the fabric's shard shape)
    let cases = [
        ("no fault", None, false, false),
        ("mirror crash", Some(1), false, false),
        ("primary crash", Some(0), false, false),
        ("crash + rejoin", Some(0), true, false),
        ("dense no fault", None, false, true),
    ];
    let rows: Vec<Vec<String>> = cases
        .iter()
        .map(|&(name, crash, rejoin, dense)| {
            let counters = if dense { 16 } else { 256 };
            let (t, [dump_a, dump_b]) = failover_store(191, counters, COUNT, crash, rejoin, dense);
            let prog = program::<ShardedStateStoreProgram>(&t);
            let stats = prog.engine(0).stats();
            let truth: u64 = prog.oracle.values().sum();
            // The live replica set depends on the fault: compare against
            // whichever replica is authoritative, and check replica
            // agreement when both live.
            let live = if crash == Some(1) { &dump_a } else { &dump_b };
            let both_live = crash.is_none() || rejoin;
            let delivered = sink(&t).received;
            let exact =
                prog.is_quiescent() && live.iter().sum::<u64>() == truth && delivered == COUNT;
            let p = &stats.pool;
            // Without a fault, the mirror's link (links follow the
            // generator, the sink and the primary) carries replays only.
            let per_word = crash.is_none().then(|| {
                let bytes: u64 = (0..2)
                    .map(|end| t.sim.link_stats(t.links[3], end).delivered_bytes)
                    .sum();
                let per_word = bytes as f64 / p.delta_replayed as f64;
                assert!(
                    per_word < 156.0,
                    "{per_word} B per word: no cheaper than a FaA"
                );
                // Each flush is one WRITE of its n dirty words (74 B of
                // headers, 8 B a word) and the ACK it asks for (62 B):
                // (74 + 8n + 62) / n a word.
                let writes = t.sim.node::<RnicNode>(t.servers[1]).stats().writes;
                let closed = (74 + 62) * writes + 8 * p.delta_replayed;
                assert_eq!(
                    bytes, closed,
                    "{writes} WRITEs of {} words",
                    p.delta_replayed
                );
                per_word
            });
            vec![
                name.to_string(),
                stats.faa_sent.to_string(),
                p.mirror_writes.to_string(),
                p.failovers.to_string(),
                p.probes.to_string(),
                p.delta_replayed.to_string(),
                per_word.map_or("-".into(), f1),
                p.rejoins.to_string(),
                format!("{delivered}/{COUNT}"),
                yes_no(exact),
                yes_no(!both_live || dump_a == dump_b),
            ]
        })
        .collect();
    table(
        out,
        "failover cost per fault case (2000 FaA updates, 2-server pool)",
        &[
            "fault",
            "faa sent",
            "mirror wr",
            "failovers",
            "probes",
            "value wr",
            "mirror B/word",
            "rejoins",
            "delivered",
            "exact",
            "replicas ==",
        ],
        &rows,
    );
    out.push_str(
        "\nexpectation: an atomics primitive replicates by writing each counted\n\
         word's value, not by WRITE fan-out of its ops (mirror wr stays 0), so\n\
         the no-fault overhead is only the background anti-entropy: one WRITE\n\
         of the primary's values per run of dirty words at consecutive\n\
         addresses and one ACK per flush, (74 + 8n + 62) / n B a word for a\n\
         run of n (checked), below the 156 B of a Fetch-and-Add and its atomic\n\
         ACK: 144 B for one flow's lone word, near 16.5 B when 16 flows keep a\n\
         16-counter region dirty. A mirror crash costs nothing on the data\n\
         path; a primary crash costs one failover plus written words, and the\n\
         survivor still settles exactly. Without a restart the pool keeps\n\
         probing until its probe budget runs out; with one, a probe detects the\n\
         returning server and the same value WRITEs, one per run of counted\n\
         words, rebuild it bit-for-bit — failure is bandwidth and latency,\n\
         never lost or diverged state.\n",
    );
}

/// Counter slots per shard (64-bit words; 512 KiB of server DRAM each).
const A12_COUNTERS_PER_SHARD: u64 = 65_536;
/// Replicas per shard pool.
const A12_REPLICAS: usize = 2;
/// Distinct five-tuples in the synthesized population.
const A12_FLOWS: usize = (1 << 20) + 200_000;
/// Packets sent per sweep point.
const A12_COUNT: u64 = 1 << 20;
/// Zipf exponent: the skew that makes slot occupancy interesting.
const A12_ZIPF_S: f64 = 1.05;

/// One sweep point: a ToR sharded over `k` pools, the million-flow Zipf
/// workload pushed through it, settled state audited replica by replica.
/// Returns the capacity in counter slots and the table row.
fn a12_probe(k: u32) -> (u64, Vec<String>) {
    let region = ByteSize::from_bytes(A12_COUNTERS_PER_SHARD * 8);
    let link = LinkSpec::testbed_40g();
    let spec = paced(
        FlowSet::synth(A12_FLOWS, 0x0ac0_0000, host_ip(1), 9_000),
        FlowPick::Zipf(A12_ZIPF_S),
        256,
        Rate::from_gbps(10),
        A12_COUNT,
        77,
    );
    // The coarse sink keeps aggregate counters and the latency recorder
    // but no per-flow map — O(1) memory against a 2^20-flow stream.
    let mut tb = testbed(1200 + k as u64, spec, SinkNode::coarse("sink"), link);
    let mut keys = Vec::new(); // (rkey, base_va) of each server, in `t.servers` order
    let mut shards = Vec::new();
    for shard in 0..k {
        let channels: Vec<_> = (0..A12_REPLICAS)
            .map(|_| tb.server(RnicConfig::default(), region, link).1)
            .collect();
        keys.extend(channels.iter().map(|ch| (ch.rkey, ch.base_va)));
        let engine = FaaEngine::replicated(
            channels,
            FaaConfig {
                // 10 Gbps of 256 B frames is ~4.9M updates/s; a 32-deep
                // window at ~1us of server RTT drains well past that, so
                // the pending backlog stays bounded even at one shard.
                max_outstanding: 32,
                ..reliable_faa(50)
            },
            PoolConfig::default(),
        );
        shards.push((shard, engine, true));
    }
    let prog = ShardedStateStoreProgram::new(tb.fib(), shards, 64, TimeDelta::from_micros(20));
    let mut t = tb.build(SwitchConfig::default(), Box::new(prog));
    // ~215ms of paced traffic, then drain adaptively: at one shard the
    // pending backlog (up to 64K merged slots) plus the mirror delta
    // replay takes tens of ms to flush through the FaA window, and the
    // replica audit below is only meaningful once everything settled.
    let send_time = TimeDelta::from_secs_f64(A12_COUNT as f64 * 256.0 * 8.0 / 10e9);
    let mut deadline = Time::ZERO + send_time + TimeDelta::from_millis(5);
    for _ in 0..60 {
        t.sim.run_until(deadline);
        if program::<ShardedStateStoreProgram>(&t).is_settled() {
            break;
        }
        deadline += TimeDelta::from_millis(5);
    }

    let prog = program::<ShardedStateStoreProgram>(&t);
    let mut exact = true;
    if !prog.is_settled() {
        eprintln!("k={k}: not settled at the drain cap");
        exact = false;
    }
    if prog.is_degraded() {
        eprintln!("k={k}: a shard pool degraded");
        exact = false;
    }
    for shard in 0..k {
        let mut expected = vec![0u64; A12_COUNTERS_PER_SHARD as usize];
        for (&(sh, slot), &v) in &prog.oracle {
            if sh == shard {
                expected[slot as usize] += v;
            }
        }
        for rep in 0..A12_REPLICAS {
            let server = shard as usize * A12_REPLICAS + rep;
            let nic = t.sim.node::<RnicNode>(t.servers[server]);
            let (rkey, base_va) = keys[server];
            let dump = read_remote_counters(nic, rkey, base_va, A12_COUNTERS_PER_SHARD);
            if dump != expected {
                let bad = dump.iter().zip(&expected).filter(|(a, b)| a != b).count();
                let (ds, es) = (dump.iter().sum::<u64>(), expected.iter().sum::<u64>());
                eprintln!(
                    "k={k} shard {shard} replica {rep}: {bad} slots diverge (sum {ds} vs oracle {es})"
                );
                exact = false;
            }
        }
    }
    let sink = sink(&t);
    if sink.received != A12_COUNT {
        eprintln!("k={k}: sink received {} of {A12_COUNT}", sink.received);
        exact = false;
    }
    let lat = sink.latency.summarize().expect("sink saw traffic");

    // Rebalance cost of the *next* scale-out step, measured on the ring:
    // fraction of the key space that moves when shard k joins.
    let mut grown = prog.ring().clone();
    grown.add_shard(k);
    let moved_next = prog.ring().remap_fraction(&grown, 1 << 16);

    let slots = prog.capacity_slots();
    let slots_used = prog.oracle.len() as u64;
    let row = vec![
        k.to_string(),
        (k as usize * A12_REPLICAS).to_string(),
        human(slots),
        format!(
            "{} ({:.0}%)",
            human(slots_used),
            100.0 * slots_used as f64 / slots as f64
        ),
        format!("{}", lat.median),
        format!("{}", lat.p99),
        format!("{}", lat.max),
        yes_no(exact),
        format!("{:.3} (ideal {:.3})", moved_next, 1.0 / (k as f64 + 1.0)),
    ];
    (slots, row)
}

/// A12 — sharded counter capacity: scale the state store horizontally.
///
/// The paper's capacity argument (§1, §2) is that external memory grows a
/// switch resource by adding servers. E6 prices that claim from byte
/// layouts; this row *runs* it: a ToR whose counter store is sharded over
/// a consistent-hash ring of replicated pools, swept across shard counts
/// under the same million-flow Zipf workload. For each sweep point it
/// reports
///
/// * capacity: counter slots vs servers (must scale linearly — the ring
///   adds capacity, it never re-partitions a fixed region),
/// * occupancy: distinct slots actually touched by the skewed traffic,
/// * delivery latency at the sink (median / p99 / max) — scaling out must
///   not cost the data path anything,
/// * exactness: settled counters equal the routing oracle on every
///   replica of every shard,
/// * rebalance cost: the measured key fraction that moves when one more
///   shard joins the ring, against the consistent-hash ideal 1/(K+1).
///
/// The workload synthesizes its flow population (`FlowSet::synth`), so
/// the generator holds O(1) state for the 2^20+ distinct five-tuples it
/// streams — the scale this sweep exists to exercise.
pub fn a12_capacity(out: &mut String) {
    out.push_str(&format!(
            "A12: sharded counter capacity — {A12_FLOWS} Zipf({A12_ZIPF_S}) flows, {A12_COUNT} updates per point\n\n"
        ));
    let sweep = [1u32, 2, 4, 8];
    let (slots, rows): (Vec<u64>, Vec<Vec<String>>) = sweep.iter().map(|&k| a12_probe(k)).unzip();
    table(
        out,
        "capacity, latency, and rebalance cost vs shard count",
        &[
            "shards",
            "servers",
            "slots",
            "slots used",
            "p50",
            "p99",
            "max",
            "exact",
            "moved on +1",
        ],
        &rows,
    );
    // The linearity claim, stated as data: slots per sweep point are
    // exactly shard-count multiples of the single-shard capacity.
    assert!(
        sweep
            .iter()
            .zip(&slots)
            .all(|(&k, &s)| s == slots[0] * k as u64),
        "capacity must scale linearly with shards"
    );
    out.push_str(&format!(
        "\nexpectation: slots grow linearly with servers while the data path is\n\
             untouched — p50/p99 stay flat across the sweep because routing is a hash\n\
             plus a binary search, not an extra hop. Zipf({A12_ZIPF_S}) traffic touches only\n\
             a fraction of the slots (the head dominates), settled counters are exact\n\
             on every replica, and the measured key movement for the next scale-out\n\
             step tracks the consistent-hash ideal 1/(K+1) — the property that makes\n\
             live rebalancing affordable at this capacity.\n"
    ));
}

const A13_COUNT: u64 = 2_000;

/// One LPM leg: a depth-`levels.len()` ladder with no route cache, every
/// packet a full remote walk. Returns the program stats, the sink's
/// latency summary, and the table server's NIC stats.
fn a13_lpm(levels: &[u8], remote_ops: bool) -> (LookupStats, LatencySummary, RnicStats) {
    let dst_ip = 0x0a010203u32;
    let flow = FiveTuple::new(host_ip(0), dst_ip, 5000, 9000, 17);
    let link = LinkSpec::testbed_40g();
    let spec = WorkloadSpec::simple(
        host_mac(0),
        host_mac(1),
        flow,
        256,
        Rate::from_gbps(2),
        A13_COUNT,
    );
    let mut expect = SinkNode::new("sink");
    expect.expect_dscp = Some(32);
    let mut tb = testbed(71, spec, expect, link);
    let region = ByteSize::from_mb(1);
    let (srv, channel) = tb.server(RnicConfig::default(), region, link);
    let spl = slots_per_level(region.bytes(), levels);
    let mut action = ActionEntry::set_dscp(32);
    action.port_override = Some(PortId(1));
    install_remote_route(
        tb.nic_mut(srv),
        &channel,
        levels,
        spl,
        dst_ip,
        levels[0],
        action,
    );
    let prog =
        RemoteLpmProgram::new(tb.fib(), channel, levels.to_vec(), None).with_remote_ops(remote_ops);
    let mut t = tb.build(SwitchConfig::default(), Box::new(prog));
    t.sim.run_to_quiescence();

    let sink = sink(&t);
    assert_eq!(sink.received, A13_COUNT, "packets lost");
    assert_eq!(sink.dscp_mismatch, 0, "wrong rung won");
    let lat = sink.latency.summarize().expect("traffic flowed");
    let stats = program::<RemoteLpmProgram>(&t).stats();
    (stats, lat, t.sim.node::<RnicNode>(t.servers[0]).stats())
}

/// Buckets of A13's cuckoo table.
const A13_BUCKETS: u64 = 64;

/// One cuckoo leg: 160 resident flows (62% load), round-robin traffic, no
/// cache, filter sized by `filter_cells`. Also returns the FP-avoidance
/// relocations the installs had to pay to keep the filter truthful, the
/// bytes on the memory server's link, both directions, and the bytes of
/// lookup state the switch holds: the live filter's counters and the live
/// slot fingerprints.
fn a13_cuckoo(
    filter_cells: usize,
    remote_ops: bool,
) -> (LookupStats, LatencySummary, u32, u64, usize) {
    let cfg = CuckooConfig {
        buckets: A13_BUCKETS,
        filter_cells,
        filter_hashes: 2,
        max_plan_steps: 64,
    };
    let (t, fp_moves) = cuckoo_storm(71, cfg, 160, Rate::from_gbps(2), A13_COUNT, remote_ops);
    let lat = sink(&t).latency.summarize().expect("traffic flowed");
    let prog = program::<LookupTableProgram>(&t);
    let switch_bytes =
        std::mem::size_of_val(prog.live_filter().raw_counts()) + prog.live_fingerprints().len();
    let server_link = t.links[2];
    let bytes: u64 = (0..2)
        .map(|end| t.sim.link_stats(server_link, end).delivered_bytes)
        .sum();
    (prog.stats(), lat, fp_moves, bytes, switch_bytes)
}

/// A13 — remote-op ISA A/B: dependent-access chains in one RTT.
///
/// The responder's op engine (hash-probe-and-fetch, bounded gather/walk)
/// collapses every dependent-read chain the switch primitives issue into a
/// single request/response exchange, answered like a READ. Two sweeps
/// measure the claim against the verb baseline (the `RemoteOps` knob off):
///
/// * **LPM walk depth 1–4** — verb mode issues one rung READ per level
///   (pipelined on the QP, so RTTs-per-miss equals the ladder depth and
///   each extra rung costs a full `nic::PER_OP_OVERHEAD` in the server NIC's
///   service pipeline plus request wire bytes); the gather/walk op reads
///   every rung inside the responder for one `nic::EXT_OP_STEP` each, so it
///   pays exactly 1.0 RTTs-per-miss and its p99 pulls ahead of the verb
///   ladder from depth 2 on.
/// * **Cuckoo lookups under filter pressure** — both modes stay exact
///   because installs keep the switch-side counting filter truthful: every
///   would-be false positive forcibly relocates its victim key to the
///   secondary bucket (`fp_moves`). Shrinking the filter makes that
///   maintenance bill explode and packs the table's secondary buckets. The
///   one filter steers both modes to the same bucket (`2nd-bkt` is equal):
///   verb mode READs the slots of it whose switch-side fingerprint matches
///   the key's, and the hash-probe-and-fetch op names it, so the responder
///   scans it in one access. Both modes pay the same install-time fp-moves
///   and hold 1.0 RTTs-per-miss with zero punts at any filter size, and
///   hold the same switch state (`switch B`, checked: two bytes per filter
///   cell and one fingerprint byte per slot). A verb miss moves exactly a
///   READ request (74 B), its response's headers (62 B) and 32 B per slot
///   READ on the memory link (`B/miss`, both directions, checked). Both
///   answers carry one slot, but the READ request is shorter than a probe
///   carrying its key, so the READ moves fewer bytes, and its p99 is no
///   worse.
pub fn a13_remote_ops(out: &mut String) {
    out.push_str(&format!(
        "A13: remote-op ISA A/B — one RTT per dependent-access chain ({A13_COUNT} packets/leg)\n"
    ));

    // --- LPM ladder depth sweep ------------------------------------------
    let ladders: [&[u8]; 4] = [&[32], &[32, 24], &[32, 24, 16], &[32, 24, 16, 8]];
    let mut rows = Vec::new();
    for levels in ladders {
        let depth = levels.len();
        let (vs, vlat, vnic) = a13_lpm(levels, false);
        let (rs, rlat, rnic) = a13_lpm(levels, true);
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
        assert_eq!(
            rnic.ext_ops, A13_COUNT,
            "every miss must run in the op engine"
        );
        assert_eq!(
            rnic.ext_op_steps,
            A13_COUNT * depth as u64,
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
    table(
        out,
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
    let mut bytes_saved = 0.0;
    for cells in [4096usize, 512, 96] {
        let (vs, vlat, vfp, vtotal, vswitch) = a13_cuckoo(cells, false);
        let (rs, rlat, rfp, rtotal, rswitch) = a13_cuckoo(cells, true);
        assert_eq!(
            [vswitch, rswitch],
            [2 * cells + 4 * A13_BUCKETS as usize; 2],
            "the switch holds a u16 per filter cell and a fingerprint byte per slot"
        );
        // A verb miss is one READ request (74 B) and one response: 62 B of
        // headers and the slots whose live fingerprint matched, 32 B each.
        let slots: u64 = (1..).zip(vs.verb_read_slots).map(|(n, k)| n * k).sum();
        assert_eq!(
            vtotal,
            (74 + 62) * vs.remote_lookups + 32 * slots,
            "verb B/miss is the READ's headers plus its slots: {vs:?}"
        );
        let [vbytes, rbytes] =
            [(vtotal, &vs), (rtotal, &rs)].map(|(bytes, s)| bytes as f64 / s.remote_lookups as f64);
        assert_eq!(vfp, rfp, "both legs install into the same directory");
        assert_eq!(
            vs.filter_secondary_probes, rs.filter_secondary_probes,
            "one filter steers both legs to the same buckets"
        );
        assert!(
            vlat.p99 <= rlat.p99,
            "a READ of the one slot whose fingerprint matches must be no slower at p99 \
             than a probe the responder scans the bucket for: verb {:?} vs ops {:?}",
            vlat.p99,
            rlat.p99
        );
        assert!(
            vbytes < rbytes,
            "both answers carry one slot and a READ request is shorter than a probe \
             carrying its key, so the READ must move fewer memory-link bytes per miss: \
             verb {vbytes} vs ops {rbytes}"
        );
        fp_by_cells.push(vfp);
        bytes_saved = rbytes - vbytes;
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
            vswitch.to_string(),
            vfp.to_string(),
            format!("{:.2}", vs.rtts_per_miss().unwrap()),
            vs.filter_secondary_probes.to_string(),
            f2(vlat.p99.as_micros_f64()),
            format!("{vbytes:.0}"),
            format!("{:.2}", rs.rtts_per_miss().unwrap()),
            rs.filter_secondary_probes.to_string(),
            f2(rlat.p99.as_micros_f64()),
            format!("{rbytes:.0}"),
        ]);
    }
    assert!(
        fp_by_cells.last() > fp_by_cells.first(),
        "shrinking the filter must raise the install-time relocation bill: {fp_by_cells:?}"
    );
    table(
        out,
        "cuckoo lookup: filter-steered READ vs hash-probe-and-fetch (punts 0 in both modes)",
        &[
            "filter cells",
            "switch B",
            "install fp-moves",
            "verb RTT/miss",
            "verb 2nd-bkt",
            "verb p99 us",
            "verb B/miss",
            "ops RTT/miss",
            "ops 2nd-bkt",
            "ops p99 us",
            "ops B/miss",
        ],
        &rows,
    );

    out.push_str(&format!(
        "\nboth modes' exactness is bought at install time: {} fp-avoidance\n\
             relocations at 96 filter cells vs {} at 4096. The filter steers the\n\
             hash probe to the same one bucket the verb READ fetches, so it is one\n\
             access; the verb READ covers only the slots whose fingerprint, one\n\
             byte per slot in the switch, matches the key's (verb B/miss = 74 +\n\
             62 + 32 per slot READ, checked), and moves {:.0} B less per miss than\n\
             the probe, whose request carries the key.\n\
             \nexpectation: the ops legs hold 1.0 RTTs-per-miss at every depth and\n\
             every filter size, with zero punts; the verb READ moves fewer\n\
             memory-link bytes per miss than the hash probe at no worse p99; verb\n\
             p99 grows with ladder depth.\n",
        fp_by_cells.last().unwrap(),
        fp_by_cells.first().unwrap(),
        bytes_saved
    ));
}
