//! Traffic generation and collection nodes.
//!
//! [`TrafficGenNode`] is the simulated `raw_ethernet_bw`: it emits workload
//! frames of a fixed size at a configured offered rate (or as a back-to-back
//! burst), choosing flows uniformly, round-robin, or Zipf-distributed.
//! [`SinkNode`] is the measurement endpoint: it validates every received
//! frame (headers, checksums, deterministic filler), records one-way
//! latency from the embedded send timestamp, and checks per-flow ordering.

use crate::metrics::LatencyRecorder;
use extmem_sim::{Node, NodeCtx, TxQueue};
use extmem_types::{FiveTuple, IntMap, PortId, Rate, Time, TimeDelta};
use extmem_wire::payload::{build_data_packet, parse_data_packet, MIN_DATA_FRAME};
use extmem_wire::{MacAddr, Packet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How the generator picks the flow of each packet.
#[derive(Clone, Debug)]
pub enum FlowPick {
    /// Cycle through the flows in order.
    RoundRobin,
    /// Uniformly at random.
    Uniform,
    /// Zipf-distributed with exponent `s` (flow 0 hottest). This is the
    /// skew that makes the lookup primitive's local cache effective (A1).
    Zipf(f64),
}

/// Inter-packet arrival process.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum Arrival {
    /// Constant spacing at the offered rate (the `raw_ethernet_bw` shape).
    #[default]
    Paced,
    /// Exponentially distributed gaps with the offered rate as the mean —
    /// the classic Poisson process, for scenarios where burstiness at a
    /// given average load matters.
    Poisson,
}

/// The flow population a generator draws from.
///
/// [`FlowSet::List`] is the original materialized mode; [`FlowSet::Synth`]
/// derives flow `i` from the index on demand, so a million-flow population
/// costs the generator O(1) memory instead of tens of MB of `FiveTuple`s.
#[derive(Clone, Debug)]
pub enum FlowSet {
    /// An explicit flow list (O(n) memory; fine for small populations).
    List(Vec<FiveTuple>),
    /// `count` flows synthesized from the index: flow `i` has
    /// `src_ip = src_ip_base + (i >> 16)`, `src_port = i & 0xffff`, and a
    /// fixed destination — distinct for every `i < 2^48`.
    Synth {
        /// Number of distinct flows.
        count: usize,
        /// Base source IP; the index's upper bits offset it.
        src_ip_base: u32,
        /// Destination IP shared by all flows.
        dst_ip: u32,
        /// Destination port shared by all flows.
        dst_port: u16,
        /// IP protocol (17 = UDP for workload frames).
        proto: u8,
    },
}

impl FlowSet {
    /// A synthesized population of `count` UDP flows to `dst_ip:dst_port`.
    pub fn synth(count: usize, src_ip_base: u32, dst_ip: u32, dst_port: u16) -> FlowSet {
        FlowSet::Synth {
            count,
            src_ip_base,
            dst_ip,
            dst_port,
            proto: 17,
        }
    }

    /// Number of distinct flows.
    pub fn len(&self) -> usize {
        match self {
            FlowSet::List(v) => v.len(),
            FlowSet::Synth { count, .. } => *count,
        }
    }

    /// True when the population is empty (rejected at generator build).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th flow. Panics if `i` is out of range.
    pub fn get(&self, i: usize) -> FiveTuple {
        match self {
            FlowSet::List(v) => v[i],
            FlowSet::Synth {
                count,
                src_ip_base,
                dst_ip,
                dst_port,
                proto,
            } => {
                assert!(i < *count, "flow index {i} out of range ({count} flows)");
                FiveTuple::new(
                    src_ip_base.wrapping_add((i >> 16) as u32),
                    *dst_ip,
                    (i & 0xffff) as u16,
                    *dst_port,
                    *proto,
                )
            }
        }
    }
}

impl From<Vec<FiveTuple>> for FlowSet {
    fn from(v: Vec<FiveTuple>) -> FlowSet {
        FlowSet::List(v)
    }
}

impl FromIterator<FiveTuple> for FlowSet {
    fn from_iter<I: IntoIterator<Item = FiveTuple>>(iter: I) -> FlowSet {
        FlowSet::List(iter.into_iter().collect())
    }
}

/// Generator configuration.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Source MAC (this host).
    pub src_mac: MacAddr,
    /// Destination MAC (the receiver, pre-translation).
    pub dst_mac: MacAddr,
    /// The flows to emit.
    pub flows: FlowSet,
    /// Flow selection policy.
    pub pick: FlowPick,
    /// Frame size in bytes (≥ [`MIN_DATA_FRAME`]).
    pub frame_len: usize,
    /// Offered rate. `None` = back-to-back at line rate (a burst).
    pub offered: Option<Rate>,
    /// Arrival process when `offered` is set.
    pub arrival: Arrival,
    /// Total frames to send.
    pub count: u64,
    /// RNG seed for flow selection.
    pub seed: u64,
    /// Offset added to the per-packet flow id (index into `flows`). Give
    /// each generator in a scenario a distinct base so sinks can tell
    /// their flows apart.
    pub flow_id_base: u32,
}

impl WorkloadSpec {
    /// A single-flow constant-rate spec (the common case).
    pub fn simple(
        src_mac: MacAddr,
        dst_mac: MacAddr,
        flow: FiveTuple,
        frame_len: usize,
        offered: Rate,
        count: u64,
    ) -> WorkloadSpec {
        WorkloadSpec {
            src_mac,
            dst_mac,
            flows: FlowSet::List(vec![flow]),
            pick: FlowPick::RoundRobin,
            frame_len,
            offered: Some(offered),
            arrival: Arrival::Paced,
            count,
            seed: 1,
            flow_id_base: 0,
        }
    }
}

const TOKEN_SEND: u64 = 1;

/// Above this population size a Zipf generator switches from the exact
/// materialized CDF (O(n) memory) to the constant-space rejection sampler.
/// Every committed scenario sits below the threshold, so their pinned
/// digests are untouched; the exact CDF doubles as the sampler's test
/// oracle at small n.
const ZIPF_EXACT_MAX: usize = 4096;

/// How Zipf ranks are drawn.
#[derive(Clone, Debug)]
enum ZipfPicker {
    /// Materialized CDF + binary search — exact, O(n) memory.
    Cdf(Vec<f64>),
    /// Rejection-inversion — exact, O(1) memory (million-flow scale).
    Sampler(ZipfSampler),
}

/// Constant-space exact Zipf(s) sampler over ranks `0..n` (rank 0 hottest).
///
/// Rejection from the continuous envelope density `t^(-s)` on `[1, n+1]`
/// (Devroye's rejection-inversion): invert the envelope CDF in closed
/// form, floor the draw to a rank `k`, and accept with probability
/// proportional to the ratio of the discrete mass `k^(-s)` to the
/// envelope's mass over `[k, k+1]`. That ratio is largest at `k = 1` and
/// tends to 1 as `k` grows, so normalizing by the `k = 1` ratio keeps the
/// acceptance probability in `(0, 1]` — the result is *exactly*
/// Zipf-distributed with O(1) setup and memory for any population size.
#[derive(Clone, Debug)]
struct ZipfSampler {
    n: usize,
    s: f64,
    /// `(n+1)^(1-s) - 1` (s ≠ 1) or `ln(n+1)` (s = 1): envelope CDF scale.
    scale: f64,
    /// Envelope mass over `[1, 2]` — the bucket with the largest
    /// target/envelope ratio; normalizes the acceptance test.
    mass_1: f64,
}

impl ZipfSampler {
    fn new(n: usize, s: f64) -> ZipfSampler {
        assert!(n > 0 && s >= 0.0, "invalid zipf parameters");
        let scale = if (s - 1.0).abs() < 1e-12 {
            ((n + 1) as f64).ln()
        } else {
            ((n + 1) as f64).powf(1.0 - s) - 1.0
        };
        let mass_1 = Self::envelope_mass(1, s);
        ZipfSampler {
            n,
            s,
            scale,
            mass_1,
        }
    }

    /// `∫_k^{k+1} t^(-s) dt` — the envelope's mass over rank `k`'s bucket.
    fn envelope_mass(k: usize, s: f64) -> f64 {
        let k = k as f64;
        if (s - 1.0).abs() < 1e-12 {
            ((k + 1.0) / k).ln()
        } else {
            ((k + 1.0).powf(1.0 - s) - k.powf(1.0 - s)) / (1.0 - s)
        }
    }

    /// Draw a rank in `0..n` (0 = hottest).
    fn sample(&self, rng: &mut StdRng) -> usize {
        loop {
            let u: f64 = rng.gen();
            let t = if (self.s - 1.0).abs() < 1e-12 {
                (u * self.scale).exp()
            } else {
                (u * self.scale + 1.0).powf(1.0 / (1.0 - self.s))
            };
            let k = (t as usize).clamp(1, self.n);
            let accept = (k as f64).powf(-self.s) * self.mass_1 / Self::envelope_mass(k, self.s);
            if rng.gen::<f64>() < accept {
                return k - 1;
            }
        }
    }
}

/// The traffic generator node (attach its port 0 to the switch).
pub struct TrafficGenNode {
    name: String,
    spec: WorkloadSpec,
    zipf: Option<ZipfPicker>,
    rng: StdRng,
    next_flow_rr: usize,
    /// Per-flow sequence numbers (List mode only — O(flows) memory).
    per_flow_seq: Vec<u32>,
    /// Global send counter used as the sequence number in Synth mode:
    /// monotone per flow (every later frame of a flow has a larger seq),
    /// which is all the sink's reorder check needs, at O(1) memory.
    synth_seq: u32,
    interval: TimeDelta,
    tx: TxQueue,
    /// Frames handed to the wire.
    pub sent: u64,
}

impl TrafficGenNode {
    /// Create a generator from `spec`.
    ///
    /// Panics with a labeled message if the spec is unusable (empty flow
    /// population, undersized frame, zero count) — an empty `flows` would
    /// otherwise underflow `pick_flow` or panic deep inside the RNG.
    pub fn new(name: impl Into<String>, spec: WorkloadSpec) -> TrafficGenNode {
        let name = name.into();
        assert!(
            !spec.flows.is_empty(),
            "workload generator '{name}': WorkloadSpec::flows is empty — \
             every generator needs at least one flow"
        );
        assert!(
            spec.frame_len >= MIN_DATA_FRAME,
            "workload generator '{name}': frame_len {} below minimum {MIN_DATA_FRAME}",
            spec.frame_len
        );
        assert!(
            spec.count > 0,
            "workload generator '{name}': zero packets requested"
        );
        let zipf = match spec.pick {
            FlowPick::Zipf(s) if spec.flows.len() <= ZIPF_EXACT_MAX => {
                Some(ZipfPicker::Cdf(zipf_cdf(spec.flows.len(), s)))
            }
            FlowPick::Zipf(s) => Some(ZipfPicker::Sampler(ZipfSampler::new(spec.flows.len(), s))),
            _ => None,
        };
        let per_flow_seq = match &spec.flows {
            FlowSet::List(v) => vec![0; v.len()],
            FlowSet::Synth { .. } => Vec::new(),
        };
        let interval = spec
            .offered
            .map(|r| r.time_to_send(spec.frame_len))
            .unwrap_or(TimeDelta::ZERO);
        TrafficGenNode {
            name,
            rng: StdRng::seed_from_u64(spec.seed),
            next_flow_rr: 0,
            per_flow_seq,
            synth_seq: 0,
            interval,
            tx: TxQueue::new(PortId(0)),
            sent: 0,
            zipf,
            spec,
        }
    }

    /// Kick the generator: schedule its first send at `delay` after now.
    /// (Call through `Simulator::schedule_timer(node, delay, 0)`.)
    pub const KICK_TOKEN: u64 = TOKEN_SEND;

    fn pick_flow(&mut self) -> usize {
        match self.spec.pick {
            FlowPick::RoundRobin => {
                let i = self.next_flow_rr;
                self.next_flow_rr = (self.next_flow_rr + 1) % self.spec.flows.len();
                i
            }
            FlowPick::Uniform => self.rng.gen_range(0..self.spec.flows.len()),
            FlowPick::Zipf(_) => match &self.zipf {
                Some(ZipfPicker::Cdf(cdf)) => {
                    let u: f64 = self.rng.gen();
                    cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
                }
                Some(ZipfPicker::Sampler(z)) => z.sample(&mut self.rng),
                None => unreachable!("zipf pick without a picker"),
            },
        }
    }

    fn emit(&mut self, ctx: &mut NodeCtx<'_>) {
        if self.sent >= self.spec.count {
            return;
        }
        let fi = self.pick_flow();
        let flow = self.spec.flows.get(fi);
        let seq = if self.per_flow_seq.is_empty() {
            let s = self.synth_seq;
            self.synth_seq = self.synth_seq.wrapping_add(1);
            s
        } else {
            let s = self.per_flow_seq[fi];
            self.per_flow_seq[fi] += 1;
            s
        };
        let pkt = build_data_packet(
            self.spec.src_mac,
            self.spec.dst_mac,
            flow,
            self.spec.flow_id_base + fi as u32,
            seq,
            ctx.now(),
            self.spec.frame_len,
        )
        .expect("workload frame encodes");
        self.sent += 1;
        self.tx.send(ctx, pkt);
        if self.sent == self.spec.count {
            return;
        }
        if self.spec.offered.is_none() {
            // Burst mode: the next send happens from on_tx_done.
            ctx.watch_tx_done(PortId(0));
            return;
        }
        let gap = match self.spec.arrival {
            Arrival::Paced => self.interval,
            Arrival::Poisson => {
                // Exponential with mean `interval`: -mean * ln(U).
                let u: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
                TimeDelta::from_picos((-(self.interval.picos() as f64) * u.ln()).round() as u64)
            }
        };
        ctx.schedule(gap, TOKEN_SEND);
    }
}

impl Node for TrafficGenNode {
    fn on_packet(&mut self, _ctx: &mut NodeCtx<'_>, _port: PortId, _packet: Packet) {
        // Generators ignore inbound traffic.
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _token: u64) {
        self.emit(ctx);
    }

    fn on_tx_done(&mut self, ctx: &mut NodeCtx<'_>, _port: PortId) {
        self.tx.on_tx_done(ctx);
        if self.spec.offered.is_none() {
            self.emit(ctx);
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Per-flow reception state kept by the sink.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FlowRx {
    /// Frames received.
    pub received: u64,
    /// Highest sequence seen.
    pub max_seq: u32,
    /// Frames that arrived with a sequence lower than one already seen.
    pub reorders: u64,
}

/// The measurement sink.
pub struct SinkNode {
    name: String,
    /// When false (coarse mode), skip the per-flow map — O(1) memory for
    /// million-flow populations; aggregate counters and latency still work.
    track_flows: bool,
    /// Per-flow-id reception state (empty in coarse mode).
    pub flows: IntMap<u32, FlowRx>,
    /// One-way latency samples (send timestamp → delivery).
    pub latency: LatencyRecorder,
    /// Total frames received.
    pub received: u64,
    /// Total payload bytes received.
    pub bytes: u64,
    /// Frames that failed validation.
    pub corrupt: u64,
    /// Frames that were not workload frames at all.
    pub foreign: u64,
    /// Time of first delivery.
    pub first_rx: Option<Time>,
    /// Time of last delivery.
    pub last_rx: Time,
    /// Expected DSCP value, if the scenario applies a DSCP action (E2):
    /// frames with a different DSCP are counted in `dscp_mismatch`.
    pub expect_dscp: Option<u8>,
    /// Frames whose DSCP did not match `expect_dscp`.
    pub dscp_mismatch: u64,
}

impl SinkNode {
    /// An empty sink.
    pub fn new(name: impl Into<String>) -> SinkNode {
        SinkNode {
            name: name.into(),
            track_flows: true,
            flows: IntMap::default(),
            latency: LatencyRecorder::new(),
            received: 0,
            bytes: 0,
            corrupt: 0,
            foreign: 0,
            first_rx: None,
            last_rx: Time::ZERO,
            expect_dscp: None,
            dscp_mismatch: 0,
        }
    }

    /// A sink that keeps no per-flow state — O(1) memory at any flow
    /// population. Use for million-flow fabric runs where the per-flow
    /// map would dwarf the workload itself.
    pub fn coarse(name: impl Into<String>) -> SinkNode {
        let mut s = SinkNode::new(name);
        s.track_flows = false;
        s
    }

    /// Total sequence-order violations across flows.
    pub fn total_reorders(&self) -> u64 {
        self.flows.values().map(|f| f.reorders).sum()
    }

    /// Time of the first delivery. Panics with a message naming the sink
    /// when nothing ever arrived — a misrouted fabric (bad FIB entry,
    /// wrong port wiring) then fails with "sink 'X' received no frames"
    /// instead of an anonymous `Option::unwrap` backtrace.
    pub fn first_rx_time(&self) -> Time {
        match self.first_rx {
            Some(t) => t,
            None => panic!(
                "sink '{}' received no frames — check the scenario's topology/FIB wiring",
                self.name
            ),
        }
    }
}

impl Node for SinkNode {
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, _port: PortId, packet: Packet) {
        match parse_data_packet(&packet) {
            Ok(Some(info)) => {
                self.received += 1;
                self.bytes += packet.len() as u64;
                self.first_rx.get_or_insert(ctx.now());
                self.last_rx = ctx.now();
                self.latency
                    .record(ctx.now().saturating_since(info.data.sent_at));
                if self.track_flows {
                    let f = self.flows.entry(info.data.flow_id).or_default();
                    if f.received > 0 && info.data.seq <= f.max_seq {
                        f.reorders += 1;
                    }
                    f.max_seq = f.max_seq.max(info.data.seq);
                    f.received += 1;
                }
                if let Some(d) = self.expect_dscp {
                    if info.ipv4.dscp != d {
                        self.dscp_mismatch += 1;
                    }
                }
            }
            Ok(None) => self.foreign += 1,
            Err(_) => self.corrupt += 1,
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// A host that reflects every workload frame back to its sender with the
/// L2/L3/L4 endpoints swapped — one half of the NPtcp-style RTT probe the
/// paper uses for Fig 3a. Swapping addresses keeps both the IPv4 checksum
/// (sum-preserving) and the payload filler valid.
pub struct EchoNode {
    name: String,
    tx: TxQueue,
    /// Frames reflected.
    pub echoed: u64,
}

impl EchoNode {
    /// An echo host.
    pub fn new(name: impl Into<String>) -> EchoNode {
        EchoNode {
            name: name.into(),
            tx: TxQueue::new(PortId(0)),
            echoed: 0,
        }
    }
}

impl Node for EchoNode {
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, _port: PortId, packet: Packet) {
        if parse_data_packet(&packet).ok().flatten().is_none() {
            return;
        }
        let mut b = packet.into_vec();
        // Swap MACs.
        for i in 0..6 {
            b.swap(i, 6 + i);
        }
        // Swap IPs (checksum is order-invariant under the swap).
        for i in 0..4 {
            b.swap(26 + i, 30 + i);
        }
        // Swap UDP ports.
        b.swap(34, 36);
        b.swap(35, 37);
        self.echoed += 1;
        self.tx.send(ctx, Packet::from_vec(b));
    }

    fn on_tx_done(&mut self, ctx: &mut NodeCtx<'_>, _port: PortId) {
        self.tx.on_tx_done(ctx);
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// A closed-loop RTT prober (the simulated `NPtcp`): sends one probe frame,
/// waits for its echo, records the round trip, sends the next.
pub struct RttProbeNode {
    name: String,
    src_mac: MacAddr,
    dst_mac: MacAddr,
    flow: FiveTuple,
    frame_len: usize,
    remaining: u64,
    seq: u32,
    tx: TxQueue,
    /// Round-trip samples.
    pub rtt: LatencyRecorder,
    /// Echo frames that failed validation.
    pub corrupt: u64,
}

impl RttProbeNode {
    /// A prober that will measure `count` round trips of `frame_len`-byte
    /// probes along `flow`.
    pub fn new(
        name: impl Into<String>,
        src_mac: MacAddr,
        dst_mac: MacAddr,
        flow: FiveTuple,
        frame_len: usize,
        count: u64,
    ) -> RttProbeNode {
        assert!(count > 0, "need at least one probe");
        RttProbeNode {
            name: name.into(),
            src_mac,
            dst_mac,
            flow,
            frame_len,
            remaining: count,
            seq: 0,
            tx: TxQueue::new(PortId(0)),
            rtt: LatencyRecorder::new(),
            corrupt: 0,
        }
    }

    fn send_probe(&mut self, ctx: &mut NodeCtx<'_>) {
        if self.remaining == 0 {
            return;
        }
        self.remaining -= 1;
        let pkt = build_data_packet(
            self.src_mac,
            self.dst_mac,
            self.flow,
            0,
            self.seq,
            ctx.now(),
            self.frame_len,
        )
        .expect("probe encodes");
        self.seq += 1;
        self.tx.send(ctx, pkt);
    }
}

impl Node for RttProbeNode {
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, _port: PortId, packet: Packet) {
        match parse_data_packet(&packet) {
            Ok(Some(info)) => {
                self.rtt
                    .record(ctx.now().saturating_since(info.data.sent_at));
                self.send_probe(ctx);
            }
            _ => self.corrupt += 1,
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _token: u64) {
        self.send_probe(ctx);
    }

    fn on_tx_done(&mut self, ctx: &mut NodeCtx<'_>, _port: PortId) {
        self.tx.on_tx_done(ctx);
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// The CDF of a Zipf(s) distribution over `n` ranks.
pub(crate) fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    assert!(n > 0 && s >= 0.0, "invalid zipf parameters");
    let weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use extmem_sim::{LinkSpec, SimBuilder};
    use extmem_types::NodeId;

    fn flow(i: u32) -> FiveTuple {
        FiveTuple::new(0x0a000001, 0x0a000002, 4000 + i as u16, 9000, 17)
    }

    fn direct_rig(spec: WorkloadSpec) -> (extmem_sim::Simulator, NodeId, NodeId) {
        let mut b = SimBuilder::new(3);
        let g = b.add_node(Box::new(TrafficGenNode::new("gen", spec)));
        let s = b.add_node(Box::new(SinkNode::new("sink")));
        b.connect(g, PortId(0), s, PortId(0), LinkSpec::testbed_40g());
        let mut sim = b.build();
        sim.schedule_timer(g, TimeDelta::ZERO, TrafficGenNode::KICK_TOKEN);
        (sim, g, s)
    }

    #[test]
    fn paced_generator_hits_offered_rate() {
        let spec = WorkloadSpec::simple(
            MacAddr::local(1),
            MacAddr::local(2),
            flow(0),
            1000,
            Rate::from_gbps(8),
            100,
        );
        let (mut sim, _g, s) = direct_rig(spec);
        sim.run_to_quiescence();
        let sink = sim.node::<SinkNode>(s);
        assert_eq!(sink.received, 100);
        assert_eq!(sink.corrupt, 0);
        assert_eq!(sink.total_reorders(), 0);
        // 100 x 1000B at 8G: 1us apart → last delivery ≈ 99us + transit.
        let elapsed = sink.last_rx.saturating_since(sink.first_rx_time());
        let measured = crate::metrics::throughput(99 * 1000, elapsed);
        let err = (measured.gbps_f64() - 8.0).abs() / 8.0;
        assert!(err < 0.02, "measured {measured} vs offered 8Gbps");
    }

    #[test]
    fn burst_mode_sends_back_to_back() {
        let mut spec = WorkloadSpec::simple(
            MacAddr::local(1),
            MacAddr::local(2),
            flow(0),
            1500,
            Rate::from_gbps(40),
            50,
        );
        spec.offered = None; // burst
        let (mut sim, _g, s) = direct_rig(spec);
        sim.run_to_quiescence();
        let sink = sim.node::<SinkNode>(s);
        assert_eq!(sink.received, 50);
        // Back-to-back at 40G: 300ns per frame; total ≈ 50*300ns.
        let elapsed = sink.last_rx.saturating_since(sink.first_rx_time());
        assert_eq!(elapsed, TimeDelta::from_nanos(49 * 300));
    }

    #[test]
    fn zipf_pick_skews_to_rank_zero() {
        let spec = WorkloadSpec {
            src_mac: MacAddr::local(1),
            dst_mac: MacAddr::local(2),
            flows: (0..50).map(flow).collect(),
            pick: FlowPick::Zipf(1.2),
            frame_len: 128,
            offered: Some(Rate::from_gbps(10)),
            count: 5000,
            seed: 9,
            arrival: Arrival::Paced,
            flow_id_base: 0,
        };
        let (mut sim, _g, s) = direct_rig(spec);
        sim.run_to_quiescence();
        let sink = sim.node::<SinkNode>(s);
        assert_eq!(sink.received, 5000);
        let hot = sink.flows.get(&0).map_or(0, |f| f.received);
        let cold = sink.flows.get(&49).map_or(0, |f| f.received);
        assert!(hot > 1000, "rank 0 should dominate, got {hot}");
        assert!(cold < hot / 10, "rank 49 got {cold} vs hot {hot}");
    }

    #[test]
    fn round_robin_is_even() {
        let spec = WorkloadSpec {
            src_mac: MacAddr::local(1),
            dst_mac: MacAddr::local(2),
            flows: (0..4).map(flow).collect(),
            pick: FlowPick::RoundRobin,
            frame_len: 128,
            offered: Some(Rate::from_gbps(10)),
            count: 400,
            seed: 9,
            arrival: Arrival::Paced,
            flow_id_base: 0,
        };
        let (mut sim, _g, s) = direct_rig(spec);
        sim.run_to_quiescence();
        let sink = sim.node::<SinkNode>(s);
        for id in 0..4 {
            assert_eq!(sink.flows[&id].received, 100);
        }
    }

    #[test]
    fn latency_is_wire_time() {
        let spec = WorkloadSpec::simple(
            MacAddr::local(1),
            MacAddr::local(2),
            flow(0),
            1500,
            Rate::from_gbps(1),
            5,
        );
        let (mut sim, _g, s) = direct_rig(spec);
        sim.run_to_quiescence();
        let sum = sim.node::<SinkNode>(s).latency.summarize().unwrap();
        // 1500B at 40G link = 300ns ser + 300ns prop.
        assert_eq!(sum.median, TimeDelta::from_nanos(600));
        assert_eq!(sum.min, sum.max);
    }

    #[test]
    fn poisson_arrivals_hit_the_mean_rate_with_variance() {
        let mut spec = WorkloadSpec::simple(
            MacAddr::local(1),
            MacAddr::local(2),
            flow(0),
            500,
            Rate::from_gbps(4),
            2000,
        );
        spec.arrival = Arrival::Poisson;
        let (mut sim, _g, s) = direct_rig(spec);
        sim.run_to_quiescence();
        let sink = sim.node::<SinkNode>(s);
        assert_eq!(sink.received, 2000);
        // Average rate within 10% of offered.
        let elapsed = sink.last_rx.saturating_since(sink.first_rx_time());
        let measured = crate::metrics::throughput(1999 * 500, elapsed);
        let err = (measured.gbps_f64() - 4.0).abs() / 4.0;
        assert!(err < 0.1, "poisson mean rate off: {measured}");
        // And latency variance exists: queueing at the generator's own
        // 40G NIC under bursts makes max > min.
        let sum = sink.latency.summarize().unwrap();
        assert!(sum.max > sum.min, "no burstiness observed");
    }

    #[test]
    fn rtt_probe_measures_round_trips() {
        let mut b = SimBuilder::new(4);
        let prober = b.add_node(Box::new(RttProbeNode::new(
            "probe",
            MacAddr::local(1),
            MacAddr::local(2),
            flow(0),
            1000,
            10,
        )));
        let echo = b.add_node(Box::new(EchoNode::new("echo")));
        b.connect(prober, PortId(0), echo, PortId(0), LinkSpec::testbed_40g());
        let mut sim = b.build();
        sim.schedule_timer(prober, TimeDelta::ZERO, 0);
        sim.run_to_quiescence();
        let p = sim.node::<RttProbeNode>(prober);
        assert_eq!(p.rtt.len(), 10);
        assert_eq!(p.corrupt, 0);
        // 1000B at 40G: 200ns ser + 300ns prop each way = 1us RTT.
        assert_eq!(
            p.rtt.summarize().unwrap().median,
            TimeDelta::from_nanos(1000)
        );
        assert_eq!(sim.node::<EchoNode>(echo).echoed, 10);
    }

    #[test]
    fn echo_preserves_packet_validity() {
        // An echoed frame must still parse (checksum + filler intact) with
        // the five-tuple reversed.
        let mut b = SimBuilder::new(4);
        let prober = b.add_node(Box::new(RttProbeNode::new(
            "probe",
            MacAddr::local(1),
            MacAddr::local(2),
            flow(3),
            400,
            1,
        )));
        let echo = b.add_node(Box::new(EchoNode::new("echo")));
        b.connect(prober, PortId(0), echo, PortId(0), LinkSpec::testbed_40g());
        let mut sim = b.build();
        sim.schedule_timer(prober, TimeDelta::ZERO, 0);
        sim.run_to_quiescence();
        assert_eq!(sim.node::<RttProbeNode>(prober).corrupt, 0);
        assert_eq!(sim.node::<RttProbeNode>(prober).rtt.len(), 1);
    }

    #[test]
    fn zipf_cdf_is_monotone_and_normalized() {
        let cdf = zipf_cdf(10, 1.0);
        assert!(cdf.windows(2).all(|w| w[0] < w[1]));
        assert!((cdf.last().unwrap() - 1.0).abs() < 1e-12);
    }

    /// The constant-space rejection sampler against the exact CDF oracle:
    /// empirical rank frequencies must match the materialized Zipf pmf.
    #[test]
    fn zipf_sampler_matches_exact_cdf_oracle() {
        for &s in &[0.0, 0.8, 1.0, 1.2] {
            let n = 64;
            let cdf = zipf_cdf(n, s);
            let sampler = ZipfSampler::new(n, s);
            let mut rng = StdRng::seed_from_u64(42);
            let draws = 200_000usize;
            let mut counts = vec![0u64; n];
            for _ in 0..draws {
                counts[sampler.sample(&mut rng)] += 1;
            }
            for k in 0..n {
                let pmf = cdf[k] - if k == 0 { 0.0 } else { cdf[k - 1] };
                let emp = counts[k] as f64 / draws as f64;
                // Absolute tolerance: generous for cold ranks, tight
                // relative to the hot ranks that carry the mass.
                assert!(
                    (emp - pmf).abs() < 0.01 + 0.05 * pmf,
                    "s={s} rank {k}: empirical {emp:.4} vs exact {pmf:.4}"
                );
            }
        }
    }

    /// The sampler is usable at populations where the CDF would be tens
    /// of MB: setup is O(1) and draws stay in range and hit rank 0 most.
    #[test]
    fn zipf_sampler_handles_million_rank_population() {
        let n = 1 << 20;
        let sampler = ZipfSampler::new(n, 1.1);
        let mut rng = StdRng::seed_from_u64(7);
        let mut hot = 0u64;
        for _ in 0..10_000 {
            let k = sampler.sample(&mut rng);
            assert!(k < n);
            if k == 0 {
                hot += 1;
            }
        }
        // Zipf(1.1) over 2^20 ranks gives rank 0 ≈ 7% of the mass.
        assert!(hot > 300, "rank 0 drawn only {hot}/10000 times");
    }

    #[test]
    fn synth_flows_are_distinct_across_the_port_boundary() {
        let fs = FlowSet::synth(1 << 20, 0x0a10_0000, 0x0a00_00fe, 9000);
        assert_eq!(fs.len(), 1 << 20);
        // Indices straddling the 2^16 wrap must still differ.
        let a = fs.get(0xffff);
        let b = fs.get(0x10000);
        assert_ne!(a, b);
        assert_eq!(a.src_ip, 0x0a10_0000);
        assert_eq!(b.src_ip, 0x0a10_0001);
        assert_eq!(b.src_port, 0);
        // Spot-check global uniqueness over a sample of the population.
        let mut seen = std::collections::HashSet::new();
        for i in (0..(1 << 20)).step_by(4093) {
            assert!(seen.insert(fs.get(i)), "duplicate flow at index {i}");
        }
    }

    #[test]
    #[should_panic(expected = "WorkloadSpec::flows is empty")]
    fn empty_flow_population_is_rejected_with_a_label() {
        let spec = WorkloadSpec {
            src_mac: MacAddr::local(1),
            dst_mac: MacAddr::local(2),
            flows: FlowSet::List(Vec::new()),
            pick: FlowPick::Uniform,
            frame_len: 128,
            offered: None,
            arrival: Arrival::Paced,
            count: 1,
            seed: 1,
            flow_id_base: 0,
        };
        let _ = TrafficGenNode::new("empty-gen", spec);
    }

    #[test]
    #[should_panic(expected = "sink 'starved' received no frames")]
    fn starved_sink_panics_with_its_name() {
        let sink = SinkNode::new("starved");
        let _ = sink.first_rx_time();
    }

    /// A generator over a >1M-flow synthesized population: no materialized
    /// vector, every emitted flow lands intact at a coarse sink.
    #[test]
    fn synth_generator_streams_from_a_million_flow_population() {
        let spec = WorkloadSpec {
            src_mac: MacAddr::local(1),
            dst_mac: MacAddr::local(2),
            flows: FlowSet::synth(1_200_000, 0x0a20_0000, 0x0a00_00fe, 9000),
            pick: FlowPick::Zipf(1.05),
            frame_len: 128,
            offered: Some(Rate::from_gbps(10)),
            count: 3000,
            seed: 11,
            arrival: Arrival::Paced,
            flow_id_base: 0,
        };
        let mut b = SimBuilder::new(3);
        let g = b.add_node(Box::new(TrafficGenNode::new("gen", spec)));
        let s = b.add_node(Box::new(SinkNode::coarse("sink")));
        b.connect(g, PortId(0), s, PortId(0), LinkSpec::testbed_40g());
        let mut sim = b.build();
        sim.schedule_timer(g, TimeDelta::ZERO, TrafficGenNode::KICK_TOKEN);
        sim.run_to_quiescence();
        let sink = sim.node::<SinkNode>(s);
        assert_eq!(sink.received, 3000);
        assert_eq!(sink.corrupt, 0);
        assert_eq!(sink.foreign, 0);
        assert!(sink.flows.is_empty(), "coarse sink must not track flows");
    }
}
