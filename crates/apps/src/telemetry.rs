//! The §2.3 / Fig 1c telemetry scenario: per-flow counting and sketches in
//! remote memory (experiments E3, A2).
//!
//! Traffic between two hosts crosses a ToR running the state-store (or
//! sketch) program; every packet updates a remote counter via Fetch-and-Add
//! while being forwarded normally. [`run_counting`] reports counter
//! accuracy, the FaA bandwidth overhead on the switch↔server link (the
//! Fig 3b metric), and end-to-end goodput (to verify "no end-to-end
//! throughput degradation").

use crate::metrics::throughput;
use crate::scenario::{host_ip, host_mac, Built, Testbed};
use crate::workload::{FlowPick, SinkNode, WorkloadSpec};
use extmem_core::faa::{FaaConfig, FaaEngine, FaaStats};
use extmem_core::sketch::{SketchGeometry, SketchKind, SketchProgram};
use extmem_core::state_store::{read_remote_counters, StateStoreProgram};
use extmem_core::RdmaChannel;
use extmem_rnic::{RnicConfig, RnicNode};
use extmem_sim::LinkSpec;
use extmem_switch::{SwitchConfig, SwitchNode};
use extmem_types::{ByteSize, FiveTuple, Rate, Time, TimeDelta};

/// Counting-scenario parameters.
#[derive(Clone, Debug)]
pub struct CountingConfig {
    /// Number of flows between the two hosts.
    pub n_flows: usize,
    /// Flow selection.
    pub pick: FlowPick,
    /// Frames to send.
    pub count: u64,
    /// Frame size (the Fig 3b x-axis).
    pub frame_len: usize,
    /// Offered rate.
    pub offered: Rate,
    /// Remote counter slots.
    pub counters: u64,
    /// FaA engine configuration (outstanding bound, batching, reliability).
    pub faa: FaaConfig,
    /// Extra settle time after the last frame before reading counters.
    pub settle: TimeDelta,
    /// Simulation seed.
    pub seed: u64,
}

impl Default for CountingConfig {
    fn default() -> Self {
        CountingConfig {
            n_flows: 16,
            pick: FlowPick::Uniform,
            count: 2000,
            frame_len: 256,
            offered: Rate::from_gbps(10),
            counters: 4096,
            faa: FaaConfig::default(),
            settle: TimeDelta::from_millis(5),
            seed: 11,
        }
    }
}

/// Results of a counting run.
#[derive(Clone, Debug)]
pub struct CountingResult {
    /// Frames sent / forwarded end-to-end.
    pub sent: u64,
    /// Frames delivered.
    pub delivered: u64,
    /// Sum of remote counters after settling.
    pub remote_total: u64,
    /// Ground-truth total.
    pub truth_total: u64,
    /// Slots where remote == truth.
    pub exact_slots: usize,
    /// Slots with any count in truth.
    pub truth_slots: usize,
    /// FaA engine counters.
    pub faa: FaaStats,
    /// Bandwidth consumed on the switch→server direction (requests).
    pub faa_request_bw: Rate,
    /// Bandwidth consumed on the server→switch direction (responses).
    pub faa_response_bw: Rate,
    /// End-to-end goodput achieved.
    pub goodput: Rate,
    /// Server-NIC CPU packets (must be 0).
    pub server_cpu_packets: u64,
}

/// Sender (port 0) → receiver (port 1) with a telemetry server of
/// `region_bytes` on port 2: the shape both telemetry scenarios share.
/// Returns the testbed and the server's channel.
fn telemetry_rig(seed: u64, spec: WorkloadSpec, region_bytes: u64) -> (Testbed, RdmaChannel) {
    let link = LinkSpec::testbed_40g();
    let mut tb = Testbed::new(seed);
    tb.gen(spec, link);
    tb.sink(link);
    let (_, channel) = tb.server(
        RnicConfig::default(),
        ByteSize::from_bytes(region_bytes),
        link,
    );
    (tb, channel)
}

/// The `n` flows between the two hosts.
fn telemetry_flows(n: usize) -> Vec<FiveTuple> {
    (0..n)
        .map(|i| FiveTuple::new(host_ip(0), host_ip(1), 30_000 + i as u16, 9_000, 17))
        .collect()
}

/// Build and run the counting scenario.
pub fn run_counting(cfg: CountingConfig) -> CountingResult {
    let spec = WorkloadSpec {
        src_mac: host_mac(0),
        dst_mac: host_mac(1),
        flows: telemetry_flows(cfg.n_flows).into(),
        pick: cfg.pick.clone(),
        frame_len: cfg.frame_len,
        offered: Some(cfg.offered),
        count: cfg.count,
        seed: cfg.seed ^ 0x77,
        arrival: crate::workload::Arrival::Paced,
        flow_id_base: 0,
    };
    let (tb, channel) = telemetry_rig(cfg.seed, spec, cfg.counters * 8);
    let rkey = channel.rkey;
    let base_va = channel.base_va;
    let engine = FaaEngine::new(channel, cfg.faa);
    let prog = StateStoreProgram::new(tb.fib(), engine, TimeDelta::from_micros(50));
    let Built {
        mut sim,
        switch,
        hosts,
        servers,
        links,
    } = tb.build(SwitchConfig::default(), Box::new(prog));
    // Run the workload plus settle time (the flush tick re-arms forever, so
    // quiescence never arrives by design).
    let workload_time = TimeDelta::from_secs_f64(
        cfg.count as f64 * cfg.frame_len as f64 * 8.0 / cfg.offered.bps() as f64,
    );
    let deadline = Time::ZERO + workload_time + cfg.settle;
    sim.run_until(deadline);

    let sink = sim.node::<SinkNode>(hosts[1]);
    let sw: &SwitchNode = sim.node::<SwitchNode>(switch);
    let prog = sw.program::<StateStoreProgram>();
    let nic = sim.node::<RnicNode>(servers[0]);
    let remote = read_remote_counters(nic, rkey, base_va, cfg.counters);

    let truth_total: u64 = prog.oracle.values().sum();
    let exact_slots = prog
        .oracle
        .iter()
        .filter(|(slot, &v)| remote[**slot as usize] == v)
        .count();

    // Fig 3b metric: FaA traffic on the switch↔server link, averaged over
    // the window in which the workload offered packets (the settle tail
    // only drains the merged residue of at most one op per flow, which is
    // negligible but keeps the counters exact).
    let to_server = sim.link_stats(links[2], 0);
    let from_server = sim.link_stats(links[2], 1);
    let active = workload_time;
    let elapsed = sink
        .last_rx
        .saturating_since(sink.first_rx.unwrap_or(Time::ZERO));

    CountingResult {
        sent: cfg.count,
        delivered: sink.received,
        remote_total: remote.iter().sum(),
        truth_total,
        exact_slots,
        truth_slots: prog.oracle.len(),
        faa: prog.faa_stats(),
        faa_request_bw: throughput(to_server.delivered_bytes, active),
        faa_response_bw: throughput(from_server.delivered_bytes, active),
        goodput: if elapsed > TimeDelta::ZERO {
            throughput(sink.bytes, elapsed)
        } else {
            Rate::ZERO
        },
        server_cpu_packets: nic.stats().cpu_packets,
    }
}

/// Sketch-scenario result.
#[derive(Clone, Debug)]
pub struct SketchResult {
    /// Per-candidate `(truth, estimate)` pairs.
    pub estimates: Vec<(u64, i64)>,
    /// FaA engine counters.
    pub faa: FaaStats,
    /// Heavy hitters found at the given threshold (flow indexes).
    pub heavy_hitters: Vec<usize>,
}

/// Run Zipf traffic through a remote sketch and estimate every flow.
pub fn run_sketch(
    kind: SketchKind,
    geometry: SketchGeometry,
    n_flows: usize,
    count: u64,
    hh_threshold: i64,
    seed: u64,
) -> SketchResult {
    let flows = telemetry_flows(n_flows);
    let spec = WorkloadSpec {
        src_mac: host_mac(0),
        dst_mac: host_mac(1),
        flows: flows.clone().into(),
        pick: FlowPick::Zipf(1.2),
        frame_len: 128,
        offered: Some(Rate::from_gbps(5)),
        count,
        seed: seed ^ 0x5e,
        arrival: crate::workload::Arrival::Paced,
        flow_id_base: 0,
    };
    let (tb, channel) = telemetry_rig(seed, spec, geometry.region_bytes());
    let rkey = channel.rkey;
    let base_va = channel.base_va;
    let engine = FaaEngine::new(channel, FaaConfig::default());
    let prog = SketchProgram::new(tb.fib(), engine, kind, geometry, TimeDelta::from_micros(50));
    let Built {
        mut sim,
        switch,
        servers,
        ..
    } = tb.build(SwitchConfig::default(), Box::new(prog));
    let workload = TimeDelta::from_secs_f64(count as f64 * 128.0 * 8.0 / 5e9);
    sim.run_until(Time::ZERO + workload + TimeDelta::from_millis(20));

    let sw: &SwitchNode = sim.node::<SwitchNode>(switch);
    let prog = sw.program::<SketchProgram>();
    let nic = sim.node::<RnicNode>(servers[0]);
    let counters = read_remote_counters(nic, rkey, base_va, geometry.rows as u64 * geometry.cols);

    let estimates: Vec<(u64, i64)> = flows
        .iter()
        .map(|f| {
            let truth = prog.oracle.get(f).copied().unwrap_or(0);
            let est = extmem_core::sketch::estimate(kind, &geometry, &counters, f);
            (truth, est)
        })
        .collect();
    let hh = extmem_core::sketch::heavy_hitters(kind, &geometry, &counters, &flows, hh_threshold);
    let heavy_hitters = hh
        .iter()
        .filter_map(|(f, _)| flows.iter().position(|x| x == f))
        .collect();
    SketchResult {
        estimates,
        faa: prog.faa_stats(),
        heavy_hitters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_is_exact_and_forwarding_unharmed() {
        let r = run_counting(CountingConfig {
            count: 1000,
            ..Default::default()
        });
        assert_eq!(r.delivered, 1000, "{r:?}");
        assert_eq!(r.remote_total, r.truth_total, "{r:?}");
        assert_eq!(r.exact_slots, r.truth_slots);
        assert_eq!(r.server_cpu_packets, 0);
        assert_eq!(r.faa.lost_updates, 0);
    }

    #[test]
    fn faa_bandwidth_is_bounded_by_nic_atomic_rate() {
        // Line-rate 256B traffic: update demand far exceeds the NIC atomic
        // rate; the request bandwidth must plateau near the calibrated cap
        // (86B requests x ~1.7Mops ≈ 1.2 Gbps; with responses ≈ 2.1 Gbps
        // combined — the Fig 3b number).
        let r = run_counting(CountingConfig {
            count: 20_000,
            offered: Rate::from_gbps(38),
            frame_len: 256,
            settle: TimeDelta::from_millis(2),
            ..Default::default()
        });
        let combined = r.faa_request_bw.gbps_f64() + r.faa_response_bw.gbps_f64();
        assert!(
            combined < 3.0,
            "FaA traffic should be capped: {combined} Gbps"
        );
        assert!(
            combined > 0.5,
            "FaA traffic should be substantial: {combined} Gbps"
        );
        // Accuracy still exact after settling.
        assert_eq!(r.remote_total, r.truth_total, "{r:?}");
        // Forwarding throughput unharmed (goodput ≈ offered).
        assert!(
            r.goodput.gbps_f64() > 35.0,
            "goodput degraded: {}",
            r.goodput
        );
    }

    #[test]
    fn sketch_end_to_end_estimates_track_truth() {
        let g = SketchGeometry { rows: 4, cols: 512 };
        let r = run_sketch(SketchKind::CountMin, g, 32, 3000, 200, 5);
        // CMS never underestimates (after settle, all updates landed).
        for &(truth, est) in &r.estimates {
            assert!(est >= truth as i64, "CMS underestimated: {est} < {truth}");
        }
        // The Zipf head must be detected as a heavy hitter.
        assert!(r.heavy_hitters.contains(&0), "{:?}", r.heavy_hitters);
    }
}
