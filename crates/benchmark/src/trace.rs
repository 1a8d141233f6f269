//! Tracing from outside the library.
//!
//! Every node of a benchmark topology is boxed in a [`Traced`] wrapper and
//! every pipeline program in a [`TracedProgram`]. With no probe attached a
//! wrapper is one predictable branch in front of the inner callback; that is
//! how the untraced rounds run. With a [`Probe`] attached the wrapper
//!
//! * times each callback with the host clock and stamps it with simulated
//!   time,
//! * counts frames at the boundary,
//! * keeps per-(layer, callback kind) aggregates, always,
//! * keeps a full span — name, host start/end, simulated time, parent span,
//!   frame identifier — for a 1-in-[`SAMPLE_ONE_IN`] sample of frames,
//! * logs RoCE arrivals (1 in [`TURNAROUND_ONE_IN`] PSNs) so memory-side
//!   turnaround can be matched request → response after the run,
//! * captures the first [`CAPTURE_MAX`] RoCE and data frames it sees, the
//!   inputs of the replay kernels in [`crate::replay`].
//!
//! Probes are owned by their wrapper, so the parallel backend needs no
//! synchronisation; the parent/child link between a switch node's span and
//! its program's span goes through a thread-local, which is exact because a
//! program callback always runs inside its switch's callback on the same
//! thread.

use extmem_sim::{Node, NodeCtx};
use extmem_switch::{PipelineProgram, SwitchCtx};
use extmem_types::{PortId, Time};
use extmem_wire::bth::Opcode;
use extmem_wire::payload::DATA_MAGIC;
use extmem_wire::roce::looks_like_rocev2;
use extmem_wire::Packet;
use std::cell::Cell;
use std::io::Write;
use std::sync::OnceLock;
use std::time::Instant;

/// Spans are kept for frames whose identifier hashes to 0 mod this.
pub const SAMPLE_ONE_IN: u64 = 1024;
/// RoCE arrivals are logged for PSNs that are 0 mod this.
pub const TURNAROUND_ONE_IN: u32 = 16;
/// Frames captured per probe for the replay kernels.
pub const CAPTURE_MAX: usize = 4096;

/// Ethernet + IPv4 (no options) + UDP: where the BTH or the workload header
/// starts in every frame this workspace builds.
const L4_PAYLOAD_AT: usize = 14 + 20 + 8;

/// The crate a span's host time is charged to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// `extmem-rnic`: memory-server NIC nodes.
    Rnic,
    /// `extmem-switch`: switch nodes (self time excludes the program).
    Switch,
    /// `extmem-core`: pipeline programs.
    Core,
    /// `extmem-apps`: traffic generators and sinks.
    Apps,
}

impl Layer {
    /// Lower-case crate suffix, the metric-name prefix.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Rnic => "rnic",
            Layer::Switch => "switch",
            Layer::Core => "core",
            Layer::Apps => "apps",
        }
    }
}

/// Which callback a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `Node::on_packet` / `PipelineProgram::ingress`.
    Packet = 0,
    /// `on_timer`.
    Timer = 1,
    /// `Node::on_tx_done` / `PipelineProgram::on_dequeue`.
    TxDone = 2,
}

const KINDS: usize = 3;
const NODE_KIND_NAMES: [&str; KINDS] = ["on_packet", "on_timer", "on_tx_done"];
const PROGRAM_KIND_NAMES: [&str; KINDS] = ["ingress", "on_timer", "on_dequeue"];

/// What identifies the frame a span worked on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameKey {
    /// A callback with no frame (timer, tx-done).
    None,
    /// A workload frame: `(flow_id, seq)`.
    Data(u32, u32),
    /// A RoCE packet: `(dest qpn, psn)`.
    Roce(u32, u32),
}

impl FrameKey {
    fn of(pkt: &Packet) -> FrameKey {
        let b = pkt.as_slice();
        if looks_like_rocev2(pkt) {
            let bth = &b[L4_PAYLOAD_AT..];
            let qpn = u32::from_be_bytes([0, bth[5], bth[6], bth[7]]);
            let psn = u32::from_be_bytes([0, bth[9], bth[10], bth[11]]);
            return FrameKey::Roce(qpn, psn);
        }
        match data_header(b) {
            Some((flow_id, seq, _)) => FrameKey::Data(flow_id, seq),
            None => FrameKey::None,
        }
    }

    /// splitmix64 finaliser over the identifier: frames are sampled by
    /// identity, so every span of a sampled frame is kept, at every node.
    fn sampled(self) -> bool {
        let x = match self {
            FrameKey::None => return false,
            FrameKey::Data(a, b) => ((a as u64) << 32) | b as u64,
            FrameKey::Roce(a, b) => (1 << 63) | ((a as u64) << 32) | b as u64,
        };
        let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % SAMPLE_ONE_IN == 0
    }
}

/// `(flow_id, seq, sent_at picos)` if `b` is a workload frame.
fn data_header(b: &[u8]) -> Option<(u32, u32, u64)> {
    let h = b.get(L4_PAYLOAD_AT..L4_PAYLOAD_AT + 18)?;
    if u16::from_be_bytes([h[0], h[1]]) != DATA_MAGIC {
        return None;
    }
    Some((
        u32::from_be_bytes([h[2], h[3], h[4], h[5]]),
        u32::from_be_bytes([h[6], h[7], h[8], h[9]]),
        u64::from_be_bytes([h[10], h[11], h[12], h[13], h[14], h[15], h[16], h[17]]),
    ))
}

/// One recorded callback.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Unique over the run: `(probe track << 32) | per-probe counter`.
    pub id: u64,
    /// The enclosing callback's span, 0 at top level.
    pub parent: u64,
    /// Callback kind.
    pub kind: Kind,
    /// Host clock at entry, ns since the trace epoch.
    pub host_start_ns: u64,
    /// Host clock at exit.
    pub host_end_ns: u64,
    /// Simulated time of the callback.
    pub sim: Time,
    /// The frame worked on.
    pub key: FrameKey,
}

/// Totals of one callback kind at one wrapper.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Agg {
    /// Callbacks.
    pub calls: u64,
    /// Host time inside them, children included.
    pub host_ns: u64,
    /// Frames handed in (packet callbacks only).
    pub pkts: u64,
}

impl Agg {
    fn add(&mut self, o: &Agg) {
        self.calls += o.calls;
        self.host_ns += o.host_ns;
        self.pkts += o.pkts;
    }
}

/// A RoCE arrival, for request → response matching: the memory server's MAC
/// (destination of a request, source of a response), the PSN, and when.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoceArrival {
    /// Server MAC, big-endian in the low 48 bits.
    pub server_mac: u64,
    /// Packet sequence number.
    pub psn: u32,
    /// Simulated arrival time.
    pub at: Time,
}

fn mac48(b: &[u8]) -> u64 {
    u64::from_be_bytes([0, 0, b[0], b[1], b[2], b[3], b[4], b[5]])
}

/// Everything one wrapper records.
#[derive(Debug)]
pub struct Probe {
    /// Charged crate.
    pub layer: Layer,
    /// Node (or node/program) name, the Chrome-trace thread name.
    pub name: String,
    /// Dense index over the run's probes, the Chrome-trace thread id.
    pub track: u32,
    /// Per callback kind, indexed by `Kind as usize`.
    pub agg: [Agg; KINDS],
    /// Sampled spans.
    pub spans: Vec<Span>,
    /// RoCE requests that arrived here (NIC probes).
    pub roce_requests: Vec<RoceArrival>,
    /// RoCE responses that arrived here (switch probes).
    pub roce_responses: Vec<RoceArrival>,
    /// Generator → here one-way latency of every workload frame, picoseconds
    /// (sink probes; the tail percentile is computed from these).
    pub data_latency_ps: Vec<u64>,
    /// First [`CAPTURE_MAX`] RoCE frames seen.
    pub captured_roce: Vec<Packet>,
    /// First [`CAPTURE_MAX`] workload frames seen.
    pub captured_data: Vec<Packet>,
    next_span: u32,
    frameless_calls: u64,
}

thread_local! {
    /// The span id of the wrapper callback currently running on this thread.
    static CURRENT: Cell<u64> = const { Cell::new(0) };
    /// Whether any span nested in the current one was kept (so the parent is
    /// kept too, and a sampled frame's chain is complete).
    static CHILD_KEPT: Cell<bool> = const { Cell::new(false) };
}

fn host_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// State carried from callback entry to exit.
struct Scope {
    kind: Kind,
    key: FrameKey,
    sim: Time,
    id: u64,
    parent: u64,
    outer_child_kept: bool,
    start_ns: u64,
}

impl Probe {
    /// A probe charging `layer`, drawn as thread `track` named `name`.
    pub fn new(layer: Layer, name: impl Into<String>, track: u32) -> Box<Probe> {
        Box::new(Probe {
            layer,
            name: name.into(),
            track,
            agg: [Agg::default(); KINDS],
            spans: Vec::new(),
            roce_requests: Vec::new(),
            roce_responses: Vec::new(),
            data_latency_ps: Vec::new(),
            captured_roce: Vec::new(),
            captured_data: Vec::new(),
            next_span: 0,
            frameless_calls: 0,
        })
    }

    /// Count a frame at the boundary and pick up everything that is read off
    /// it: identifier, turnaround log entry, latency sample, capture.
    fn observe(&mut self, now: Time, pkt: &Packet) -> FrameKey {
        self.agg[Kind::Packet as usize].pkts += 1;
        let key = FrameKey::of(pkt);
        if self.layer == Layer::Core {
            // The owning switch node's probe already logged and captured
            // this frame when it arrived.
            return key;
        }
        let b = pkt.as_slice();
        match key {
            FrameKey::Roce(_, psn) => {
                if psn % TURNAROUND_ONE_IN == 0 {
                    let is_request =
                        Opcode::from_u8(b[L4_PAYLOAD_AT]).is_ok_and(|op| op.is_request());
                    if is_request {
                        self.roce_requests.push(RoceArrival {
                            server_mac: mac48(&b[0..6]),
                            psn,
                            at: now,
                        });
                    } else {
                        self.roce_responses.push(RoceArrival {
                            server_mac: mac48(&b[6..12]),
                            psn,
                            at: now,
                        });
                    }
                }
                if self.captured_roce.len() < CAPTURE_MAX {
                    // A deep copy: holding a clone would keep the frame's
                    // buffer shared and change what the pool can recycle.
                    self.captured_roce.push(Packet::from_vec(b.to_vec()));
                }
            }
            FrameKey::Data(..) => {
                if self.layer == Layer::Apps {
                    if let Some((_, _, sent_at)) = data_header(b) {
                        self.data_latency_ps
                            .push(now.picos().saturating_sub(sent_at));
                    }
                }
                if self.captured_data.len() < CAPTURE_MAX {
                    self.captured_data.push(Packet::from_vec(b.to_vec()));
                }
            }
            FrameKey::None => {}
        }
        key
    }

    fn enter(&mut self, kind: Kind, key: FrameKey, sim: Time) -> Scope {
        self.next_span = self.next_span.wrapping_add(1);
        let id = ((self.track as u64) << 32) | self.next_span as u64;
        Scope {
            kind,
            key,
            sim,
            id,
            parent: CURRENT.with(|c| c.replace(id)),
            outer_child_kept: CHILD_KEPT.with(|c| c.replace(false)),
            start_ns: host_ns(),
        }
    }

    fn exit(&mut self, s: Scope) {
        let end_ns = host_ns();
        let a = &mut self.agg[s.kind as usize];
        a.calls += 1;
        a.host_ns += end_ns - s.start_ns;
        let own = match s.key {
            FrameKey::None => {
                self.frameless_calls += 1;
                self.frameless_calls.is_multiple_of(SAMPLE_ONE_IN)
            }
            key => key.sampled(),
        };
        let keep = own || CHILD_KEPT.with(|c| c.get());
        if keep {
            self.spans.push(Span {
                id: s.id,
                parent: s.parent,
                kind: s.kind,
                host_start_ns: s.start_ns,
                host_end_ns: end_ns,
                sim: s.sim,
                key: s.key,
            });
        }
        CURRENT.with(|c| c.set(s.parent));
        CHILD_KEPT.with(|c| c.set(s.outer_child_kept || keep));
    }
}

/// A node boxed for the benchmark: forwards every callback to `inner`, and
/// records it when a probe is attached.
pub struct Traced<N> {
    /// The wrapped node (read its stats through this).
    pub inner: N,
    probe: Option<Box<Probe>>,
}

impl<N: Node> Traced<N> {
    /// Wrap `inner`; `probe` is `None` for an untraced run.
    pub fn new(inner: N, probe: Option<Box<Probe>>) -> Traced<N> {
        Traced { inner, probe }
    }

    /// Detach the probe after the run.
    pub fn take_probe(&mut self) -> Option<Box<Probe>> {
        self.probe.take()
    }
}

impl<N: Node> Node for Traced<N> {
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, port: PortId, packet: Packet) {
        let Some(p) = self.probe.as_deref_mut() else {
            return self.inner.on_packet(ctx, port, packet);
        };
        let key = p.observe(ctx.now(), &packet);
        let scope = p.enter(Kind::Packet, key, ctx.now());
        self.inner.on_packet(ctx, port, packet);
        p.exit(scope);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
        let Some(p) = self.probe.as_deref_mut() else {
            return self.inner.on_timer(ctx, token);
        };
        let scope = p.enter(Kind::Timer, FrameKey::None, ctx.now());
        self.inner.on_timer(ctx, token);
        p.exit(scope);
    }

    fn on_tx_done(&mut self, ctx: &mut NodeCtx<'_>, port: PortId) {
        let Some(p) = self.probe.as_deref_mut() else {
            return self.inner.on_tx_done(ctx, port);
        };
        let scope = p.enter(Kind::TxDone, FrameKey::None, ctx.now());
        self.inner.on_tx_done(ctx, port);
        p.exit(scope);
    }

    fn on_crash(&mut self, ctx: &mut NodeCtx<'_>) {
        self.inner.on_crash(ctx);
    }

    fn on_restart(&mut self, ctx: &mut NodeCtx<'_>) {
        self.inner.on_restart(ctx);
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// A pipeline program boxed for the benchmark; the program-side twin of
/// [`Traced`]. Its spans nest inside the owning switch node's.
pub struct TracedProgram<P> {
    /// The wrapped program (read its stats through this).
    pub inner: P,
    probe: Option<Box<Probe>>,
}

impl<P: PipelineProgram> TracedProgram<P> {
    /// Wrap `inner`; `probe` is `None` for an untraced run.
    pub fn new(inner: P, probe: Option<Box<Probe>>) -> TracedProgram<P> {
        TracedProgram { inner, probe }
    }

    /// Detach the probe after the run.
    pub fn take_probe(&mut self) -> Option<Box<Probe>> {
        self.probe.take()
    }
}

impl<P: PipelineProgram> PipelineProgram for TracedProgram<P> {
    fn ingress(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, in_port: PortId, pkt: Packet) {
        let Some(p) = self.probe.as_deref_mut() else {
            return self.inner.ingress(ctx, in_port, pkt);
        };
        let key = p.observe(ctx.now(), &pkt);
        let scope = p.enter(Kind::Packet, key, ctx.now());
        self.inner.ingress(ctx, in_port, pkt);
        p.exit(scope);
    }

    fn on_dequeue(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, port: PortId) {
        let Some(p) = self.probe.as_deref_mut() else {
            return self.inner.on_dequeue(ctx, port);
        };
        let scope = p.enter(Kind::TxDone, FrameKey::None, ctx.now());
        self.inner.on_dequeue(ctx, port);
        p.exit(scope);
    }

    fn on_timer(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, token: u64) {
        let Some(p) = self.probe.as_deref_mut() else {
            return self.inner.on_timer(ctx, token);
        };
        let scope = p.enter(Kind::Timer, FrameKey::None, ctx.now());
        self.inner.on_timer(ctx, token);
        p.exit(scope);
    }

    fn program_name(&self) -> &str {
        self.inner.program_name()
    }
}

/// Hands out probes while a topology is built: `Some` with consecutive
/// tracks for a traced run, `None` throughout for an untraced one.
pub struct ProbeFactory {
    traced: bool,
    next_track: u32,
}

impl ProbeFactory {
    /// A factory for one run.
    pub fn new(traced: bool) -> ProbeFactory {
        ProbeFactory {
            traced,
            next_track: 0,
        }
    }

    /// The next probe, or `None` when untraced.
    pub fn probe(&mut self, layer: Layer, name: &str) -> Option<Box<Probe>> {
        if !self.traced {
            return None;
        }
        self.next_track += 1;
        Some(Probe::new(layer, name, self.next_track))
    }

    /// Box `node` as a traced simulator node.
    pub fn node<N: Node>(&mut self, layer: Layer, node: N) -> Box<dyn Node> {
        let probe = self.probe(layer, node.name());
        Box::new(Traced::new(node, probe))
    }
}

/// The probes of a finished run, detached from their wrappers.
#[derive(Debug, Default)]
pub struct TraceReport {
    /// Every probe, in track order.
    pub probes: Vec<Box<Probe>>,
}

impl TraceReport {
    /// Add a detached probe (ignores `None`, so callers can pass
    /// `take_probe()` straight through).
    pub fn push(&mut self, probe: Option<Box<Probe>>) {
        if let Some(p) = probe {
            self.probes.push(p);
        }
    }

    /// Totals of one layer, per callback kind.
    pub fn layer_agg(&self, layer: Layer) -> [Agg; KINDS] {
        let mut out = [Agg::default(); KINDS];
        for p in self.probes.iter().filter(|p| p.layer == layer) {
            for (o, a) in out.iter_mut().zip(&p.agg) {
                o.add(a);
            }
        }
        out
    }

    /// Host ns inside a layer's callbacks (children included).
    pub fn layer_host_ns(&self, layer: Layer) -> u64 {
        self.layer_agg(layer).iter().map(|a| a.host_ns).sum()
    }

    /// Spans kept over all probes.
    pub fn spans_sampled(&self) -> usize {
        self.probes.iter().map(|p| p.spans.len()).sum()
    }

    /// Memory-side turnaround samples, picoseconds: for each logged request
    /// arrival at a NIC, the time until the first response with the same
    /// `(server, psn)` reached a switch. Retransmitted requests keep their
    /// first arrival; requests whose response was coalesced away or lost
    /// contribute nothing.
    pub fn turnaround_ps(&self) -> Vec<u64> {
        use std::collections::HashMap;
        let mut first_response: HashMap<(u64, u32), Time> = HashMap::new();
        for r in self.probes.iter().flat_map(|p| &p.roce_responses) {
            let e = first_response.entry((r.server_mac, r.psn)).or_insert(r.at);
            *e = (*e).min(r.at);
        }
        let mut first_request: HashMap<(u64, u32), Time> = HashMap::new();
        for r in self.probes.iter().flat_map(|p| &p.roce_requests) {
            let e = first_request.entry((r.server_mac, r.psn)).or_insert(r.at);
            *e = (*e).min(r.at);
        }
        let mut out: Vec<u64> = first_request
            .iter()
            .filter_map(|(k, &req)| {
                let resp = *first_response.get(k)?;
                (resp >= req).then(|| (resp - req).picos())
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// Pooled sink-side latency samples, picoseconds, sorted.
    pub fn data_latency_sorted_ps(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .probes
            .iter()
            .flat_map(|p| p.data_latency_ps.iter().copied())
            .collect();
        out.sort_unstable();
        out
    }

    /// Write the sampled spans as Chrome trace-event JSON (load in
    /// `chrome://tracing` or <https://ui.perfetto.dev>): one process, one
    /// thread per probe, complete (`"ph":"X"`) events on the host clock with
    /// the simulated time, frame identifier, span and parent ids in `args`.
    pub fn write_chrome_trace(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
        let mut first = true;
        let mut sep = |out: &mut dyn Write| -> std::io::Result<()> {
            if !first {
                writeln!(out, ",")?;
            }
            first = false;
            Ok(())
        };
        for p in &self.probes {
            sep(out)?;
            write!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":{}}}}}",
                p.track,
                crate::json::quote(&format!("{}:{}", p.layer.name(), p.name))
            )?;
            let kind_names = if p.layer == Layer::Core {
                &PROGRAM_KIND_NAMES
            } else {
                &NODE_KIND_NAMES
            };
            for s in &p.spans {
                sep(out)?;
                let frame = match s.key {
                    FrameKey::None => String::new(),
                    FrameKey::Data(f, q) => format!("flow {f} seq {q}"),
                    FrameKey::Roce(q, n) => format!("qpn {q:#x} psn {n}"),
                };
                write!(
                    out,
                    "{{\"name\":\"{}.{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"sim_ns\":{:.3},\"frame\":\"{}\",\"span\":{},\"parent\":{}}}}}",
                    p.layer.name(),
                    kind_names[s.kind as usize],
                    p.layer.name(),
                    p.track,
                    s.host_start_ns as f64 / 1e3,
                    (s.host_end_ns - s.host_start_ns) as f64 / 1e3,
                    s.sim.picos() as f64 / 1e3,
                    frame,
                    s.id,
                    s.parent
                )?;
            }
        }
        writeln!(out, "\n]}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use extmem_types::{FiveTuple, TimeDelta};
    use extmem_wire::payload::build_data_packet;
    use extmem_wire::MacAddr;

    fn frame(flow_id: u32, seq: u32, sent_at: Time) -> Packet {
        build_data_packet(
            MacAddr::local(1),
            MacAddr::local(2),
            FiveTuple::new(1, 2, 3, 4, 17),
            flow_id,
            seq,
            sent_at,
            128,
        )
        .expect("frame encodes")
    }

    #[test]
    fn frame_keys_read_the_workload_header() {
        let p = frame(7, 99, Time::from_nanos(5));
        assert_eq!(FrameKey::of(&p), FrameKey::Data(7, 99));
        assert_eq!(data_header(p.as_slice()), Some((7, 99, 5_000)));
        assert_eq!(FrameKey::of(&Packet::zeroed(64)), FrameKey::None);
    }

    #[test]
    fn sampling_is_by_identity_and_about_one_in_1024() {
        let kept = (0..200_000u32)
            .filter(|&s| FrameKey::Data(3, s).sampled())
            .count();
        assert!((120..=280).contains(&kept), "kept {kept} of 200000");
        // The same frame gives the same answer everywhere it is seen.
        let k = FrameKey::Roce(0x7700, 4242);
        assert_eq!(k.sampled(), k.sampled());
    }

    #[test]
    fn a_kept_child_keeps_its_parent_and_links_to_it() {
        let mut node = Probe::new(Layer::Switch, "tor", 1);
        let mut prog = Probe::new(Layer::Core, "tor/prog", 2);
        // Find a frame that is sampled, run it through a program callback
        // nested in a frameless node callback.
        let seq = (0..).find(|&s| FrameKey::Data(1, s).sampled()).unwrap();
        let pkt = frame(1, seq, Time::ZERO);
        let outer = node.enter(Kind::Timer, FrameKey::None, Time::from_nanos(10));
        let key = prog.observe(Time::from_nanos(10), &pkt);
        let inner = prog.enter(Kind::Packet, key, Time::from_nanos(10));
        prog.exit(inner);
        node.exit(outer);
        assert_eq!(prog.spans.len(), 1);
        assert_eq!(node.spans.len(), 1, "parent of a kept span is kept");
        assert_eq!(prog.spans[0].parent, node.spans[0].id);
        assert_eq!(node.spans[0].parent, 0);
        assert_eq!(prog.agg[Kind::Packet as usize].pkts, 1);
        // An unsampled frame leaves only aggregates behind.
        let seq = (0..).find(|&s| !FrameKey::Data(1, s).sampled()).unwrap();
        let pkt = frame(1, seq, Time::ZERO);
        let key = prog.observe(Time::ZERO, &pkt);
        let s = prog.enter(Kind::Packet, key, Time::ZERO);
        prog.exit(s);
        assert_eq!(prog.spans.len(), 1);
        assert_eq!(prog.agg[Kind::Packet as usize].calls, 2);
    }

    #[test]
    fn turnaround_matches_first_request_to_first_response() {
        let mut nic = Probe::new(Layer::Rnic, "mem", 1);
        let mut sw = Probe::new(Layer::Switch, "tor", 2);
        let at = |ns| Time::from_nanos(ns);
        let arr = |psn, ns| RoceArrival {
            server_mac: 9,
            psn,
            at: at(ns),
        };
        nic.roce_requests
            .extend([arr(16, 100), arr(16, 900), arr(32, 200)]);
        sw.roce_responses.extend([arr(16, 450), arr(48, 500)]);
        let mut r = TraceReport::default();
        r.push(Some(nic));
        r.push(Some(sw));
        r.push(None);
        assert_eq!(r.turnaround_ps(), vec![TimeDelta::from_nanos(350).picos()]);
    }

    #[test]
    fn chrome_trace_is_well_formed_enough_to_load() {
        let mut p = Probe::new(Layer::Apps, "sink \"a\"", 1);
        let s = p.enter(Kind::Packet, FrameKey::Data(1, 2), Time::from_nanos(3));
        p.exit(s);
        p.spans.push(Span {
            id: 1,
            parent: 0,
            kind: Kind::Packet,
            host_start_ns: 10,
            host_end_ns: 30,
            sim: Time::from_nanos(3),
            key: FrameKey::Data(1, 2),
        });
        let mut r = TraceReport::default();
        r.push(Some(p));
        let mut buf = Vec::new();
        r.write_chrome_trace(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("{\"displayTimeUnit\""));
        assert!(text.trim_end().ends_with("]}"));
        assert!(text.contains("\"name\":\"apps.on_packet\""));
        assert!(text.contains("\"apps:sink \\\"a\\\"\""));
        assert_eq!(text.matches('{').count(), text.matches('}').count());
    }
}
