//! The five workloads and what one repetition of any of them returns.
//!
//! Each workload owns its topology (built from the public API of the
//! library crates only), derives every random input from the run's seed,
//! drives the simulation to a completion predicate ([`crate::drive`]), and
//! checks its own oracle. Simulated traffic is open-loop: generators send on
//! schedule regardless of the switch, and latency is timed from the send
//! timestamp in the frame. Host-side a repetition is closed: a fixed amount
//! of simulated work run to completion.

mod fabric;
mod lookup;
mod pktbuf;

use crate::alloc::AllocReading;
use crate::trace::TraceReport;
use extmem_apps::LatencySummary;
use extmem_rnic::RnicStats;
use extmem_sim::{ParStats, SchedStats, Simulator};
use extmem_switch::SwitchStats;
use extmem_types::{LinkId, Time};
use std::time::Instant;

/// A workload of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Lookup table, every frame one bucket READ over the verb path.
    LookupVerbs,
    /// The same traffic and table, every miss one hash-probe remote op.
    LookupOps,
    /// Packet buffer over a lossy memory-server link, reliable mode.
    PktbufLossy,
    /// Sharded leaf–spine fabric, sequential backend.
    FabricShard,
    /// The same inputs under `SchedBackend::Parallel(2)`.
    FabricShardP2,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 5] = [
        Workload::LookupVerbs,
        Workload::LookupOps,
        Workload::PktbufLossy,
        Workload::FabricShard,
        Workload::FabricShardP2,
    ];

    /// The name used in `BENCHMARK.json` and on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LookupVerbs => "lookup_verbs",
            Workload::LookupOps => "lookup_ops",
            Workload::PktbufLossy => "pktbuf_lossy",
            Workload::FabricShard => "fabric_shard",
            Workload::FabricShardP2 => "fabric_shard_p2",
        }
    }

    /// Parse a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Scheduler worker threads the workload runs with.
    pub fn threads(self) -> usize {
        match self {
            Workload::FabricShardP2 => 2,
            _ => 1,
        }
    }

    /// Whether count and simulated metrics must repeat exactly between
    /// rounds of one seed (the parallel backend's allocation counts depend
    /// on thread interleaving; everything simulated still repeats).
    pub fn sequential(self) -> bool {
        self.threads() == 1
    }

    /// Frames offered at `scale` (1.0 = the benchmark size).
    pub fn frames(self, scale: f64) -> u64 {
        match self {
            Workload::LookupVerbs | Workload::LookupOps => scaled(lookup::FRAMES, scale),
            Workload::PktbufLossy => pktbuf::frames(scale),
            Workload::FabricShard | Workload::FabricShardP2 => {
                scaled(fabric::FRAMES_PER_GEN, scale) * fabric::LEAVES as u64
            }
        }
    }

    /// Run one repetition: warm up, build the inputs and the topology, then
    /// drive it to completion. `started` is when the repetition's process
    /// began; `setup_s` is the time from then to the start of the timed
    /// section.
    ///
    /// The warm-up is the same workload at [`WARM_UP_SCALE`], untraced, run to
    /// completion and dropped: the allocator's arenas, the wire crate's frame
    /// pool and the instruction caches are in steady state when the timed
    /// section starts, and set-up is tens of milliseconds of the host doing
    /// what the timed section does. (Without it `pktbuf_lossy` and the
    /// fabric set up in 70–300 µs of `mmap` and thread start, which moved
    /// 18 % between two sets of ten runs of the same code. The contract
    /// gates `setup_s` on relative change alone, so that is not measurable.)
    pub fn run(self, seed: u64, scale: f64, traced: bool, started: Instant) -> Run {
        drop(self.build_and_run(seed, scale * WARM_UP_SCALE, false));
        let mut run = self.build_and_run(seed, scale, traced);
        run.setup_s = run.timed.start.duration_since(started).as_secs_f64();
        run
    }

    fn build_and_run(self, seed: u64, scale: f64, traced: bool) -> Run {
        match self {
            Workload::LookupVerbs | Workload::LookupOps => {
                lookup::build(seed, scale, traced, self == Workload::LookupOps).run(self, seed)
            }
            Workload::PktbufLossy => pktbuf::build(seed, scale, traced).run(self, seed),
            Workload::FabricShard | Workload::FabricShardP2 => {
                fabric::build(seed, scale, traced, self.threads()).run(self, seed)
            }
        }
    }
}

/// Size of a repetition's warm-up relative to its timed run.
const WARM_UP_SCALE: f64 = 1.0 / 32.0;

/// `full * scale`, at least 64 so the smallest smoke run still exercises
/// every path.
fn scaled(full: u64, scale: f64) -> u64 {
    assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
    ((full as f64 * scale).round() as u64).max(64)
}

/// An independent 64-bit stream seed for `(seed, purpose)`: one splitmix64
/// step, so flows, Zipf draws, arrival gaps and link faults never share a
/// stream however the run's seed is chosen.
pub fn derive_seed(seed: u64, purpose: u64) -> u64 {
    let mut z = seed
        .wrapping_add(purpose.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Library-global wire counters, read around the timed section. Exact per
/// run because a repetition is one process running one simulation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireCounters {
    /// `extmem_wire::bytes::alloc_count()`.
    pub payload_allocs: u64,
    /// `extmem_wire::bytes::cow_count()`.
    pub cow_copies: u64,
    /// `extmem_wire::pool::hit_count()`.
    pub pool_hits: u64,
    /// `extmem_wire::pool::miss_count()`.
    pub pool_misses: u64,
}

impl WireCounters {
    fn now() -> WireCounters {
        WireCounters {
            payload_allocs: extmem_wire::bytes::alloc_count(),
            cow_copies: extmem_wire::bytes::cow_count(),
            pool_hits: extmem_wire::pool::hit_count(),
            pool_misses: extmem_wire::pool::miss_count(),
        }
    }

    fn since(self, e: WireCounters) -> WireCounters {
        WireCounters {
            payload_allocs: self.payload_allocs - e.payload_allocs,
            cow_copies: self.cow_copies - e.cow_copies,
            pool_hits: self.pool_hits - e.pool_hits,
            pool_misses: self.pool_misses - e.pool_misses,
        }
    }
}

/// What the timed section cost the host.
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    /// When it started.
    pub start: Instant,
    /// Wall-clock nanoseconds.
    pub wall_ns: u64,
    /// Heap allocation calls and bytes (zero unless the process installed
    /// [`crate::alloc::CountingAlloc`]).
    pub alloc: AllocReading,
    /// Wire-crate counter deltas.
    pub wire: WireCounters,
}

/// Time `f`, reading the allocation and wire counters around it.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Timed) {
    let wire0 = WireCounters::now();
    let alloc0 = AllocReading::now();
    let start = Instant::now();
    let out = f();
    let wall_ns = start.elapsed().as_nanos() as u64;
    let alloc = AllocReading::now().since(alloc0);
    let wire = WireCounters::now().since(wire0);
    (
        out,
        Timed {
            start,
            wall_ns,
            alloc,
            wire,
        },
    )
}

/// Counters read through the public `stats()` accessors after the run,
/// summed over the nodes of a layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    /// Switch-node counters, all switches.
    pub switch: SwitchStats,
    /// NIC counters, all memory servers.
    pub rnic: RnicStats,
    /// RDMA ops issued by the programs' channels (first transmissions).
    pub ops_issued: u64,
    /// Request packets retransmitted.
    pub retransmits: u64,
    /// Retransmission-timeout rounds.
    pub timeouts: u64,
    /// Lookup misses (frames that went to remote memory); 0 elsewhere.
    pub lookup_misses: u64,
    /// Request round trips the lookup miss path issued.
    pub lookup_rtts: u64,
    /// Frames punted to the slow path.
    pub slow_path: u64,
    /// Packet-buffer ring high-water mark, entries.
    pub max_ring_occupancy: u64,
    /// State-store updates.
    pub faa_updates: u64,
    /// Updates merged into a pending local accumulator instead of sent.
    pub faa_merged: u64,
    /// Ops the replicated pools sent to mirrors (fan-out WRITE copies plus
    /// replayed FaA deltas).
    pub mirror_writes: u64,
    /// Per-flow sequence inversions seen by the sinks.
    pub reorders: u64,
    /// Frames the sinks or NICs could not parse.
    pub parse_errors: u64,
}

impl Counters {
    fn add_switch(&mut self, s: SwitchStats) {
        let t = &mut self.switch;
        t.rx_packets += s.rx_packets;
        t.rx_bytes += s.rx_bytes;
        t.pipeline_passes += s.pipeline_passes;
        t.recirculated += s.recirculated;
        t.tm_drops += s.tm_drops;
        t.unconnected_drops += s.unconnected_drops;
        t.unknown_timer_tokens += s.unknown_timer_tokens;
    }

    fn add_rnic(&mut self, s: RnicStats) {
        let t = &mut self.rnic;
        t.writes += s.writes;
        t.write_bytes += s.write_bytes;
        t.reads += s.reads;
        t.read_bytes += s.read_bytes;
        t.atomics += s.atomics;
        t.ext_ops += s.ext_ops;
        t.ext_op_steps += s.ext_op_steps;
        t.ext_op_bytes += s.ext_op_bytes;
        t.duplicates += s.duplicates;
        t.naks += s.naks;
        t.rx_overflow_drops += s.rx_overflow_drops;
        t.atomic_overflow_drops += s.atomic_overflow_drops;
        t.malformed_drops += s.malformed_drops;
        t.out_of_sequence_drops += s.out_of_sequence_drops;
        t.cpu_packets += s.cpu_packets;
        t.outage_drops += s.outage_drops;
        t.unknown_timer_tokens += s.unknown_timer_tokens;
        self.parse_errors += s.malformed_drops;
    }

    fn add_channel(&mut self, c: extmem_core::ChannelStats) {
        self.ops_issued += c.ops_issued;
        self.retransmits += c.retransmits;
        self.timeouts += c.timeouts;
    }

    /// Requests the NICs dropped.
    pub fn rnic_drops(&self) -> u64 {
        let s = &self.rnic;
        s.rx_overflow_drops + s.atomic_overflow_drops + s.out_of_sequence_drops
    }
}

/// Inputs of the replay kernels that are not captured frames.
#[derive(Debug, Default)]
pub struct ReplayContext {
    /// Size of a memory server's registered region.
    pub region_bytes: u64,
    /// The region's initial image (the cuckoo table), if it has one.
    pub region_image: Option<Vec<u8>>,
    /// The server whose captured requests are replayed.
    pub server_mac: Option<extmem_wire::MacAddr>,
    /// The consistent-hash ring the fabric leaves route with.
    pub shard_ring: Option<extmem_core::ShardRing>,
}

/// Everything one repetition measured.
#[derive(Debug)]
pub struct Run {
    /// Which workload.
    pub workload: Workload,
    /// The seed it ran with.
    pub seed: u64,
    /// Frames the generators offered.
    pub frames_offered: u64,
    /// Frames delivered valid (and in order where the primitive promises
    /// it), with the workload's oracle exact.
    pub frames_ok: u64,
    /// Host cost of the timed section.
    pub timed: Timed,
    /// Host seconds from the start of the repetition's process to the start
    /// of the timed section: flow synthesis, table image, NIC regions,
    /// programs, simulator.
    pub setup_s: f64,
    /// Worst (highest-p99) sink's latency summary; `None` if nothing was
    /// delivered anywhere.
    pub latency: Option<LatencySummary>,
    /// Host milliseconds `LatencyRecorder::summarize` took (outside the
    /// timed section).
    pub latency_summary_ms: f64,
    /// Simulated time of the last delivery at any sink.
    pub last_delivery: Time,
    /// Application bytes delivered to sinks.
    pub app_bytes: u64,
    /// Bytes on memory-server links, both directions.
    pub mem_link_bytes: u64,
    /// Packets on memory-server links, both directions.
    pub mem_link_packets: u64,
    /// Packets dropped by link fault injection.
    pub link_drops: u64,
    /// Trace digest (backend-invariant determinism fingerprint).
    pub digest: u64,
    /// Simulator events processed.
    pub events: u64,
    /// Scheduler counters.
    pub sched: SchedStats,
    /// Parallel-backend counters.
    pub par: ParStats,
    /// Per-layer counters from the `stats()` accessors.
    pub counters: Counters,
    /// Oracle checks that failed (empty = correct).
    pub failures: Vec<String>,
    /// The probes, for a traced run.
    pub trace: Option<TraceReport>,
    /// Replay-kernel inputs.
    pub replay: ReplayContext,
}

impl Run {
    /// Record a failed oracle check.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Set `frames_ok` from the sinks' valid count; a failed oracle check
    /// makes at least one frame count as failed even if all were delivered.
    fn settle_frames_ok(&mut self, valid: u64) {
        self.frames_ok = if self.failures.is_empty() {
            valid.min(self.frames_offered)
        } else {
            valid.min(self.frames_offered.saturating_sub(1))
        };
    }

    /// Frames offered and not delivered valid.
    pub fn frames_failed(&self) -> u64 {
        self.frames_offered - self.frames_ok
    }
}

/// Bytes, packets and fault-injected drops on `links`, both directions.
fn link_totals(sim: &Simulator, links: &[LinkId]) -> (u64, u64, u64) {
    let (mut bytes, mut packets, mut drops) = (0, 0, 0);
    for &l in links {
        for end in 0..2 {
            let s = sim.link_stats(l, end);
            bytes += s.delivered_bytes;
            packets += s.delivered_packets;
            drops += s.dropped_packets;
        }
    }
    (bytes, packets, drops)
}

/// The fields every workload fills the same way once its simulation is done.
#[allow(clippy::too_many_arguments)]
fn finish(
    workload: Workload,
    seed: u64,
    frames_offered: u64,
    timed: Timed,
    sim: &Simulator,
    mem_links: &[LinkId],
    all_links: usize,
) -> Run {
    let (mem_link_bytes, mem_link_packets, _) = link_totals(sim, mem_links);
    let every: Vec<LinkId> = (0..all_links as u32).map(LinkId).collect();
    let (_, _, link_drops) = link_totals(sim, &every);
    Run {
        workload,
        seed,
        frames_offered,
        frames_ok: 0,
        timed,
        setup_s: 0.0,
        latency: None,
        latency_summary_ms: 0.0,
        last_delivery: Time::ZERO,
        app_bytes: 0,
        mem_link_bytes,
        mem_link_packets,
        link_drops,
        digest: sim.trace_digest(),
        events: sim.events_processed(),
        sched: sim.sched_stats(),
        par: sim.par_stats(),
        counters: Counters::default(),
        failures: Vec::new(),
        trace: None,
        replay: ReplayContext::default(),
    }
}

/// Fold one sink into the run: counts, bytes, last delivery, and the worst
/// (highest-p99) latency summary. Returns the frames it received valid.
fn fold_sink(run: &mut Run, sink: &extmem_apps::SinkNode) -> u64 {
    let t0 = Instant::now();
    let summary = sink.latency.summarize();
    run.latency_summary_ms += t0.elapsed().as_secs_f64() * 1e3;
    if let Some(s) = summary {
        if run.latency.is_none_or(|worst| s.p99 > worst.p99) {
            run.latency = Some(s);
        }
    }
    run.app_bytes += sink.bytes;
    run.last_delivery = run.last_delivery.max(sink.last_rx);
    run.counters.reorders += sink.total_reorders();
    run.counters.parse_errors += sink.corrupt;
    sink.received - sink.dscp_mismatch.min(sink.received)
}
