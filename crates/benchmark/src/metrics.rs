//! The metric catalogue and how each value is computed from a [`Run`].
//!
//! Names and units here are the ones `BENCHMARK.json` lists; a test holds
//! the two in step. End-to-end values come from an untraced repetition,
//! per-layer values from a traced one plus the replay kernels. Four
//! per-layer metrics relate a traced repetition to untraced ones
//! (`trace.overhead_frac`, `sim.events_per_s`, `sim.par_speedup`,
//! `wire.est_share`) and are filled in by the runner, which has both.

use crate::replay::ReplayCosts;
use crate::trace::{Kind, Layer, TraceReport};
use crate::workloads::Run;
use std::collections::BTreeMap;

/// A metric's name and unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricDef {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// The end-to-end metrics, reported for every workload by an untraced run.
pub const END_TO_END: [MetricDef; 10] = [
    m("setup_s", "s"),
    m("host_ns_per_pkt", "ns"),
    m("peak_rss_mb", "MB"),
    m("allocs_per_pkt", "1/pkt"),
    m("alloc_bytes_per_pkt", "B/pkt"),
    m("sim_lat_p50_ns", "ns"),
    m("sim_lat_p99_ns", "ns"),
    m("sim_goodput_gbps", "Gbit/s"),
    m("sim_rdma_overhead", "B/B"),
    m("ops_ok_frac", "frac"),
];

/// The simulated end-to-end metrics: they must repeat exactly between
/// rounds of one seed, on every workload and every scheduler backend.
pub const SIMULATED: [&str; 5] = [
    "sim_lat_p50_ns",
    "sim_lat_p99_ns",
    "sim_goodput_gbps",
    "sim_rdma_overhead",
    "ops_ok_frac",
];

/// The allocation metrics. On a sequential workload they repeat between
/// rounds to within [`ALLOC_REPEAT_TOLERANCE`], not exactly: `std`'s
/// `HashMap` seeds its hasher per process, and when a table that has seen
/// removals rehashes in place or grows depends on where its tombstones
/// fell, so the library's own maps allocate a handful of times more or
/// fewer per few million calls. On the parallel backend the counts also
/// depend on thread interleaving and are not compared.
pub const ALLOCATION: [&str; 2] = ["allocs_per_pkt", "alloc_bytes_per_pkt"];

/// Relative difference allowed between rounds on [`ALLOCATION`] metrics of a
/// sequential workload (observed: 1e-7 on calls, 2e-5 on bytes).
pub const ALLOC_REPEAT_TOLERANCE: f64 = 1e-3;

/// The per-layer metrics, reported for every workload by a traced run.
pub const PER_LAYER: [MetricDef; 55] = [
    m("sim.events_per_pkt", "1/pkt"),
    m("sim.self_ns_per_event", "ns"),
    m("sim.self_share", "frac"),
    m("sim.events_per_s", "1/s"),
    m("sim.peak_queue_depth", "count"),
    m("sim.wheel_cascades_per_kevent", "1/kevent"),
    m("sim.lane_parks_per_kevent", "1/kevent"),
    m("sim.dead_timer_frac", "frac"),
    m("sim.slab_hit_rate", "frac"),
    m("sim.link_drops", "count"),
    m("sim.par_cross_msgs_per_event", "1/event"),
    m("sim.par_stalls_per_iter", "1/iter"),
    m("sim.par_speedup", "x"),
    m("wire.build_ns_per_pkt", "ns"),
    m("wire.parse_ns_per_pkt", "ns"),
    m("wire.roce_pkts_per_pkt", "1/pkt"),
    m("wire.est_share", "frac"),
    m("wire.icrc_ns_per_kb", "ns/KB"),
    m("wire.payload_allocs_per_pkt", "1/pkt"),
    m("wire.cow_copies_per_pkt", "1/pkt"),
    m("wire.frame_pool_hit_rate", "frac"),
    m("wire.parse_errors", "count"),
    m("rnic.busy_ns_per_req", "ns"),
    m("rnic.share", "frac"),
    m("rnic.reqs_per_pkt", "1/pkt"),
    m("rnic.ext_op_steps_per_op", "1/op"),
    m("rnic.sim_turnaround_p50_ns", "ns"),
    m("rnic.sim_turnaround_p99_ns", "ns"),
    m("rnic.dup_frac", "frac"),
    m("rnic.nak_frac", "frac"),
    m("rnic.drop_frac", "frac"),
    m("rnic.cpu_packets", "count"),
    m("switch.self_ns_per_pkt", "ns"),
    m("switch.share", "frac"),
    m("switch.pipeline_passes_per_pkt", "1/pkt"),
    m("switch.recirc_per_pkt", "1/pkt"),
    m("switch.tm_drop_frac", "frac"),
    m("core.busy_ns_per_pkt", "ns"),
    m("core.share", "frac"),
    m("core.remote_ops_per_pkt", "1/pkt"),
    m("core.rtts_per_miss", "1/miss"),
    m("core.slow_path_frac", "frac"),
    m("core.retransmit_frac", "frac"),
    m("core.timeouts", "count"),
    m("core.max_ring_occupancy", "entries"),
    m("core.faa_merge_frac", "frac"),
    m("core.mirror_writes_per_update", "1/update"),
    m("core.shard_lookup_ns", "ns"),
    m("apps.busy_ns_per_pkt", "ns"),
    m("apps.share", "frac"),
    m("apps.latency_summary_ms", "ms"),
    m("apps.sim_lat_p9999_ns", "ns"),
    m("apps.reorders", "count"),
    m("trace.overhead_frac", "frac"),
    m("trace.spans_sampled", "count"),
];

/// Metric values keyed by name.
pub type Values = BTreeMap<&'static str, f64>;

/// `a / b`, or 0 when there was nothing to divide by.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The `q`-quantile (nearest rank) of an ascending slice; 0 if empty.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() as f64 - 1.0) * q).round() as usize]
}

/// Median of a sample (mean of the middle two for an even count); the
/// statistic every repeated host-timed metric is reported as.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// First quartile, median, third quartile, by linear interpolation between
/// order statistics. Zeros for an empty sample.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

/// This process's peak resident set, MB, from `VmHWM` in
/// `/proc/self/status`; 0 where that file does not exist.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The ten end-to-end metrics of one untraced repetition. `peak_rss_mb` is
/// the caller's reading, taken after the run.
pub fn end_to_end(run: &Run, peak_rss_mb: f64) -> Values {
    let pkts = run.frames_offered as f64;
    let sim_s = run.last_delivery.as_secs_f64();
    Values::from([
        ("setup_s", run.setup_s),
        ("host_ns_per_pkt", ratio(run.timed.wall_ns as f64, pkts)),
        ("peak_rss_mb", peak_rss_mb),
        ("allocs_per_pkt", ratio(run.timed.alloc.calls as f64, pkts)),
        (
            "alloc_bytes_per_pkt",
            ratio(run.timed.alloc.bytes as f64, pkts),
        ),
        (
            "sim_lat_p50_ns",
            run.latency.map_or(0.0, |l| l.median.picos() as f64 / 1e3),
        ),
        (
            "sim_lat_p99_ns",
            run.latency.map_or(0.0, |l| l.p99.picos() as f64 / 1e3),
        ),
        (
            "sim_goodput_gbps",
            ratio(run.app_bytes as f64 * 8.0 / 1e9, sim_s),
        ),
        (
            "sim_rdma_overhead",
            ratio(run.mem_link_bytes as f64, run.app_bytes as f64),
        ),
        ("ops_ok_frac", ratio(run.frames_ok as f64, pkts)),
    ])
}

/// The per-layer metrics of one traced repetition, except the four the
/// runner fills in (present here as 0).
///
/// Self time: `sim` = timed wall × partitions − Σ node callbacks; `switch` =
/// switch-node callbacks − program callbacks; `core` = program callbacks;
/// `rnic`, `apps` = their node callbacks. The five shares sum to 1. `wire`
/// runs inside `core` and `rnic` spans, so its share is an estimate reported
/// beside the others, not added to them.
pub fn per_layer(run: &Run, trace: &TraceReport, replay: &ReplayCosts) -> Values {
    let c = &run.counters;
    let pkts = run.frames_offered as f64;
    let events = run.events as f64;
    let kevents = events / 1e3;

    // On the parallel backend each partition has its own thread, so the
    // wall covers `partitions` threads' worth of host time.
    let capacity_ns = run.timed.wall_ns as f64 * run.par.partitions as f64;
    let switch_nodes = trace.layer_host_ns(Layer::Switch) as f64;
    let core_ns = trace.layer_host_ns(Layer::Core) as f64;
    let rnic_ns = trace.layer_host_ns(Layer::Rnic) as f64;
    let apps_ns = trace.layer_host_ns(Layer::Apps) as f64;
    let switch_ns = (switch_nodes - core_ns).max(0.0);
    let sim_ns = (capacity_ns - switch_nodes - rnic_ns - apps_ns).max(0.0);

    let turnaround = trace.turnaround_ps();
    let data_latency = trace.data_latency_sorted_ps();
    // Requests are counted where they cross into the layer: frames handed
    // to the NIC wrappers.
    let requests = trace.layer_agg(Layer::Rnic)[Kind::Packet as usize].pkts as f64;
    let roce_pkts = run.mem_link_packets as f64;

    let mut v = Values::from([
        ("sim.events_per_pkt", ratio(events, pkts)),
        ("sim.self_ns_per_event", ratio(sim_ns, events)),
        ("sim.self_share", ratio(sim_ns, capacity_ns)),
        ("sim.peak_queue_depth", run.sched.peak_depth as f64),
        (
            "sim.wheel_cascades_per_kevent",
            ratio(run.sched.cascades as f64, kevents),
        ),
        (
            "sim.lane_parks_per_kevent",
            ratio(run.sched.lane_parks as f64, kevents),
        ),
        (
            "sim.dead_timer_frac",
            ratio(run.sched.dead_dispatches as f64, events),
        ),
        (
            "sim.slab_hit_rate",
            ratio(
                run.sched.slab_hits as f64,
                (run.sched.slab_hits + run.sched.slab_misses) as f64,
            ),
        ),
        ("sim.link_drops", run.link_drops as f64),
        (
            "sim.par_cross_msgs_per_event",
            ratio(run.par.cross_messages as f64, events),
        ),
        (
            "sim.par_stalls_per_iter",
            ratio(run.par.channel_stalls as f64, run.par.iterations as f64),
        ),
        ("wire.build_ns_per_pkt", replay.build_ns),
        ("wire.parse_ns_per_pkt", replay.parse_ns),
        ("wire.roce_pkts_per_pkt", ratio(roce_pkts, pkts)),
        ("wire.icrc_ns_per_kb", replay.icrc_ns_per_kb),
        (
            "wire.payload_allocs_per_pkt",
            ratio(run.timed.wire.payload_allocs as f64, pkts),
        ),
        (
            "wire.cow_copies_per_pkt",
            ratio(run.timed.wire.cow_copies as f64, pkts),
        ),
        (
            "wire.frame_pool_hit_rate",
            ratio(
                run.timed.wire.pool_hits as f64,
                (run.timed.wire.pool_hits + run.timed.wire.pool_misses) as f64,
            ),
        ),
        ("wire.parse_errors", c.parse_errors as f64),
        ("rnic.busy_ns_per_req", ratio(rnic_ns, requests)),
        ("rnic.share", ratio(rnic_ns, capacity_ns)),
        ("rnic.reqs_per_pkt", ratio(requests, pkts)),
        (
            "rnic.ext_op_steps_per_op",
            ratio(c.rnic.ext_op_steps as f64, c.rnic.ext_ops as f64),
        ),
        (
            "rnic.sim_turnaround_p50_ns",
            quantile_sorted(&turnaround, 0.5) as f64 / 1e3,
        ),
        (
            "rnic.sim_turnaround_p99_ns",
            quantile_sorted(&turnaround, 0.99) as f64 / 1e3,
        ),
        ("rnic.dup_frac", ratio(c.rnic.duplicates as f64, requests)),
        ("rnic.nak_frac", ratio(c.rnic.naks as f64, requests)),
        ("rnic.drop_frac", ratio(c.rnic_drops() as f64, requests)),
        ("rnic.cpu_packets", c.rnic.cpu_packets as f64),
        ("switch.self_ns_per_pkt", ratio(switch_ns, pkts)),
        ("switch.share", ratio(switch_ns, capacity_ns)),
        (
            "switch.pipeline_passes_per_pkt",
            ratio(c.switch.pipeline_passes as f64, pkts),
        ),
        (
            "switch.recirc_per_pkt",
            ratio(c.switch.recirculated as f64, pkts),
        ),
        (
            "switch.tm_drop_frac",
            ratio(c.switch.tm_drops as f64, c.switch.rx_packets as f64),
        ),
        ("core.busy_ns_per_pkt", ratio(core_ns, pkts)),
        ("core.share", ratio(core_ns, capacity_ns)),
        ("core.remote_ops_per_pkt", ratio(c.ops_issued as f64, pkts)),
        (
            "core.rtts_per_miss",
            ratio(c.lookup_rtts as f64, c.lookup_misses as f64),
        ),
        ("core.slow_path_frac", ratio(c.slow_path as f64, pkts)),
        (
            "core.retransmit_frac",
            ratio(c.retransmits as f64, c.ops_issued as f64),
        ),
        ("core.timeouts", c.timeouts as f64),
        ("core.max_ring_occupancy", c.max_ring_occupancy as f64),
        (
            "core.faa_merge_frac",
            ratio(c.faa_merged as f64, c.faa_updates as f64),
        ),
        (
            "core.mirror_writes_per_update",
            ratio(c.mirror_writes as f64, c.faa_updates as f64),
        ),
        ("core.shard_lookup_ns", replay.shard_lookup_ns),
        ("apps.busy_ns_per_pkt", ratio(apps_ns, pkts)),
        ("apps.share", ratio(apps_ns, capacity_ns)),
        ("apps.latency_summary_ms", run.latency_summary_ms),
        (
            "apps.sim_lat_p9999_ns",
            quantile_sorted(&data_latency, 0.9999) as f64 / 1e3,
        ),
        ("apps.reorders", c.reorders as f64),
        ("trace.spans_sampled", trace.spans_sampled() as f64),
    ]);
    for name in [
        "sim.events_per_s",
        "sim.par_speedup",
        "wire.est_share",
        "trace.overhead_frac",
    ] {
        v.insert(name, 0.0);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate_like_the_usual_definition() {
        assert_eq!(quartiles(&[]), (0.0, 0.0, 0.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]), (2.0, 3.0, 4.0));
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 51);
        assert_eq!(quantile_sorted(&v, 0.99), 99);
        assert_eq!(quantile_sorted(&[], 0.5), 0);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(!d.name.is_empty() && d.name.len() <= 64);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(!d.unit.is_empty() && d.unit.len() <= 16);
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for name in SIMULATED.iter().chain(&ALLOCATION) {
            assert!(END_TO_END.iter().any(|d| d.name == *name));
        }
    }

    #[test]
    fn peak_rss_reads_something_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
