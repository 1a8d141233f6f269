//! The programmable switch node.
//!
//! A [`SwitchNode`] is: RX → fixed-latency ingress pipeline (running a user
//! [`PipelineProgram`]) → traffic-manager egress queues → per-port
//! serialization. The program sees arriving packets, can consult/modify its
//! own tables and registers (plain Rust fields of the program type), emit
//! packets to any egress port (including clones), recirculate packets, set
//! timers, and is notified on every egress dequeue — the hook the
//! packet-buffer primitive uses to detect queue drain (§4 "the egress queue
//! length … drains").

use crate::tm::TrafficManager;
use extmem_sim::{Node, NodeCtx, TimerHandle};
use extmem_types::{ByteSize, PortId, Time, TimeDelta};
use extmem_wire::Packet;
use std::any::Any;
use std::collections::VecDeque;

/// The in-port value a recirculated packet appears on.
pub const RECIRC_PORT: PortId = PortId(u16::MAX);

const TOKEN_PIPELINE: u64 = 0;
const TOKEN_RECIRC: u64 = 1;
/// Program-owned timer tokens have this bit set on the wire.
pub(crate) const PROGRAM_TOKEN_BIT: u64 = 1 << 63;

/// Map a program timer token to the node-level token the switch expects.
///
/// Scenario drivers use this with [`extmem_sim::Simulator::schedule_timer`]
/// to poke a program from the control plane — the simulated equivalent of a
/// control-plane API call that triggers data-plane behaviour (the paper's §5
/// "we manually start the two steps" in the packet-buffer microbenchmark).
pub fn program_token(token: u64) -> u64 {
    assert_eq!(
        token & PROGRAM_TOKEN_BIT,
        0,
        "program token uses reserved bit"
    );
    token | PROGRAM_TOKEN_BIT
}

/// Static switch configuration.
#[derive(Clone, Copy, Debug)]
pub struct SwitchConfig {
    /// Number of front-panel ports.
    pub ports: u16,
    /// Shared packet-buffer size (12 MB on the paper's ToR).
    pub buffer: ByteSize,
    /// Fixed ingress-pipeline latency (parse + match-action stages).
    /// Tofino-class ASICs sit in the 400–800 ns range.
    pub pipeline_latency: TimeDelta,
    /// Extra latency for one recirculation pass.
    pub recirc_latency: TimeDelta,
    /// ECN CE-marking threshold per egress queue (None = no marking).
    pub ecn_threshold: Option<ByteSize>,
}

impl Default for SwitchConfig {
    fn default() -> Self {
        SwitchConfig {
            ports: 32,
            buffer: ByteSize::from_mb(12),
            pipeline_latency: TimeDelta::from_nanos(500),
            recirc_latency: TimeDelta::from_nanos(800),
            ecn_threshold: None,
        }
    }
}

/// Switch-level counters (per-queue stats live in the TM).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SwitchStats {
    /// Packets received on any port.
    pub rx_packets: u64,
    /// Bytes received.
    pub rx_bytes: u64,
    /// Packets the pipeline processed (incl. recirculated).
    pub pipeline_passes: u64,
    /// Packets recirculated.
    pub recirculated: u64,
    /// Packets dropped at enqueue (duplicated from TM for convenience).
    pub tm_drops: u64,
    /// Packets a program sent to a port with no link attached (a
    /// forwarding-table misconfiguration); admitting them would leak
    /// shared-buffer bytes forever, so they are dropped and counted here.
    pub unconnected_drops: u64,
    /// Timer firings with a token this switch never armed (e.g. scheduled
    /// by a driver against the wrong node). Ignored, counted, and logged
    /// once rather than crashing the whole simulation.
    pub unknown_timer_tokens: u64,
}

/// A data-plane program running on the switch. Implementations own their
/// match-action tables ([`crate::ExactMatchTable`]) and register arrays
/// ([`crate::RegisterArray`]) as ordinary fields.
///
/// `Send` because the switch node (and the program inside it) may be moved
/// onto a worker thread by the simulator's parallel scheduler backend.
pub trait PipelineProgram: Any + Send {
    /// Process a packet arriving on `in_port` (or [`RECIRC_PORT`]).
    fn ingress(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, in_port: PortId, pkt: Packet);

    /// A packet was dequeued from `port`'s egress queue (transmission
    /// started): once per dequeued packet, whether it went straight onto an
    /// idle port or waited for the previous transmit to complete.
    /// `ctx.queue_bytes(port)` reflects the post-dequeue depth, so the
    /// dequeue that leaves it at 0 is the drain edge. A completion with
    /// nothing queued behind it is no event and does not reach the program.
    fn on_dequeue(&mut self, _ctx: &mut SwitchCtx<'_, '_, '_>, _port: PortId) {}

    /// A timer set via [`SwitchCtx::schedule`] fired.
    fn on_timer(&mut self, _ctx: &mut SwitchCtx<'_, '_, '_>, _token: u64) {}

    /// Name for diagnostics.
    fn program_name(&self) -> &str {
        "pipeline"
    }
}

/// Everything a pipeline program can do, bundled for one callback.
pub struct SwitchCtx<'a, 'b, 'c> {
    tm: &'a mut TrafficManager,
    node: &'a mut NodeCtx<'c>,
    stats: &'a mut SwitchStats,
    staged_recirc: &'a mut Vec<Packet>,
    dequeue_notify: &'b mut VecDeque<PortId>,
}

impl SwitchCtx<'_, '_, '_> {
    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.node.now()
    }

    /// Enqueue `pkt` for egress on `port`. Returns `false` if the TM
    /// tail-dropped it. If the port is idle the packet starts serializing
    /// immediately.
    pub fn enqueue(&mut self, port: PortId, pkt: Packet) -> bool {
        self.enqueue_prio(port, pkt, crate::tm::Priority::Normal)
    }

    /// [`SwitchCtx::enqueue`] into the strict-high-priority level — the §7
    /// "prioritize these RDMA packets" knob.
    pub fn enqueue_high(&mut self, port: PortId, pkt: Packet) -> bool {
        self.enqueue_prio(port, pkt, crate::tm::Priority::High)
    }

    fn enqueue_prio(&mut self, port: PortId, pkt: Packet, prio: crate::tm::Priority) -> bool {
        assert!(port != RECIRC_PORT, "use recirculate() for the recirc port");
        if !self.node.port_connected(port) {
            self.stats.unconnected_drops += 1;
            return false;
        }
        if !self.tm.enqueue_with_priority(port, pkt, prio) {
            self.stats.tm_drops += 1;
            return false;
        }
        if self.node.tx_busy(port) {
            // The packet waits for the one on the wire to complete.
            self.node.watch_tx_done(port);
        } else if let Some(pkt) = self.tm.dequeue(port) {
            start_egress(self.tm, self.node, port, pkt);
            self.dequeue_notify.push_back(port);
        }
        true
    }

    /// Queue depth (bytes) of `port`'s egress queue. Excludes the packet
    /// currently on the wire.
    pub fn queue_bytes(&self, port: PortId) -> u64 {
        self.tm.queue_bytes(port)
    }

    /// Queue depth in packets.
    pub fn queue_packets(&self, port: PortId) -> usize {
        self.tm.queue_packets(port)
    }

    /// Send `pkt` through the recirculation path: it re-enters the pipeline
    /// as if received on [`RECIRC_PORT`] after the configured recirculation
    /// latency.
    pub fn recirculate(&mut self, pkt: Packet) {
        self.stats.recirculated += 1;
        self.staged_recirc.push(pkt);
    }

    /// Schedule [`PipelineProgram::on_timer`] with `token` after `delay`.
    /// `token` must not use the top bit.
    pub fn schedule(&mut self, delay: TimeDelta, token: u64) {
        assert_eq!(
            token & PROGRAM_TOKEN_BIT,
            0,
            "program token uses reserved bit"
        );
        self.node.schedule(delay, token | PROGRAM_TOKEN_BIT);
    }

    /// Like [`SwitchCtx::schedule`], but returns a handle for
    /// [`SwitchCtx::cancel_timer`].
    pub fn schedule_cancellable(&mut self, delay: TimeDelta, token: u64) -> TimerHandle {
        assert_eq!(
            token & PROGRAM_TOKEN_BIT,
            0,
            "program token uses reserved bit"
        );
        self.node
            .schedule_cancellable(delay, token | PROGRAM_TOKEN_BIT)
    }

    /// Cancel a timer from [`SwitchCtx::schedule_cancellable`]. Returns
    /// `false` if it already fired or was cancelled.
    pub fn cancel_timer(&mut self, handle: TimerHandle) -> bool {
        self.node.cancel_timer(handle)
    }
}

/// Put `pkt`, just dequeued for `port`, on the wire. Its completion is
/// watched only if a packet is queued behind it.
fn start_egress(tm: &TrafficManager, node: &mut NodeCtx<'_>, port: PortId, pkt: Packet) {
    if tm.queue_packets(port) > 0 {
        node.start_tx(port, pkt);
    } else {
        node.start_tx_unwatched(port, pkt);
    }
}

/// The switch node.
pub struct SwitchNode {
    name: String,
    config: SwitchConfig,
    tm: TrafficManager,
    program: Option<Box<dyn PipelineProgram>>,
    pending_ingress: VecDeque<(PortId, Packet)>,
    pending_recirc: VecDeque<Packet>,
    /// Scratch behind [`SwitchCtx`]'s staged recirculations and dequeue
    /// notifications: empty between callbacks, capacity kept.
    staged_recirc: Vec<Packet>,
    dequeue_notify: VecDeque<PortId>,
    stats: SwitchStats,
}

impl SwitchNode {
    /// Create a switch running `program`.
    pub fn new(
        name: impl Into<String>,
        config: SwitchConfig,
        program: Box<dyn PipelineProgram>,
    ) -> SwitchNode {
        let mut tm = TrafficManager::new(config.ports as usize, config.buffer);
        if let Some(t) = config.ecn_threshold {
            tm = tm.with_ecn_threshold(t);
        }
        SwitchNode {
            name: name.into(),
            tm,
            config,
            program: Some(program),
            pending_ingress: VecDeque::new(),
            pending_recirc: VecDeque::new(),
            staged_recirc: Vec::new(),
            dequeue_notify: VecDeque::new(),
            stats: SwitchStats::default(),
        }
    }

    /// Switch-level counters.
    pub fn stats(&self) -> SwitchStats {
        self.stats
    }

    /// The traffic manager (queue stats, drops).
    pub fn tm(&self) -> &TrafficManager {
        &self.tm
    }

    /// Control-plane access to the program, downcast to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if the program is not a `T`.
    pub fn program<T: PipelineProgram>(&self) -> &T {
        let p = self.program.as_deref().expect("program detached");
        let any: &dyn Any = p;
        any.downcast_ref::<T>().expect("program type mismatch")
    }

    /// Mutable control-plane access to the program.
    pub fn program_mut<T: PipelineProgram>(&mut self) -> &mut T {
        let p = self.program.as_deref_mut().expect("program detached");
        let any: &mut dyn Any = p;
        any.downcast_mut::<T>().expect("program type mismatch")
    }

    /// Run `f` with the program detached and a fully-wired [`SwitchCtx`],
    /// then deliver any dequeue notifications and staged recirculations.
    fn with_program(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        f: impl FnOnce(&mut dyn PipelineProgram, &mut SwitchCtx<'_, '_, '_>),
    ) {
        let mut program = self.program.take().expect("program re-entered");
        {
            let mut sctx = SwitchCtx {
                tm: &mut self.tm,
                node: ctx,
                stats: &mut self.stats,
                staged_recirc: &mut self.staged_recirc,
                dequeue_notify: &mut self.dequeue_notify,
            };
            f(program.as_mut(), &mut sctx);
            // Deliver dequeue notifications generated by this callback (and
            // any cascading ones the handler itself causes).
            while let Some(port) = sctx.dequeue_notify.pop_front() {
                program.on_dequeue(&mut sctx, port);
            }
        }
        for pkt in self.staged_recirc.drain(..) {
            self.pending_recirc.push_back(pkt);
            ctx.schedule(self.config.recirc_latency, TOKEN_RECIRC);
        }
        self.program = Some(program);
    }

    fn run_ingress(&mut self, ctx: &mut NodeCtx<'_>, port: PortId, pkt: Packet) {
        self.stats.pipeline_passes += 1;
        self.with_program(ctx, |p, sctx| p.ingress(sctx, port, pkt));
    }
}

impl Node for SwitchNode {
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, port: PortId, packet: Packet) {
        self.stats.rx_packets += 1;
        self.stats.rx_bytes += packet.len() as u64;
        self.pending_ingress.push_back((port, packet));
        ctx.schedule(self.config.pipeline_latency, TOKEN_PIPELINE);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
        if token & PROGRAM_TOKEN_BIT != 0 {
            let user = token & !PROGRAM_TOKEN_BIT;
            self.with_program(ctx, |p, sctx| p.on_timer(sctx, user));
            return;
        }
        match token {
            TOKEN_PIPELINE => {
                let (port, pkt) = self
                    .pending_ingress
                    .pop_front()
                    .expect("pipeline underflow");
                self.run_ingress(ctx, port, pkt);
            }
            TOKEN_RECIRC => {
                let pkt = self.pending_recirc.pop_front().expect("recirc underflow");
                self.run_ingress(ctx, RECIRC_PORT, pkt);
            }
            other => {
                if self.stats.unknown_timer_tokens == 0 {
                    eprintln!(
                        "switch {}: ignoring unknown timer token {other:#x}",
                        self.name
                    );
                }
                self.stats.unknown_timer_tokens += 1;
            }
        }
    }

    fn on_tx_done(&mut self, ctx: &mut NodeCtx<'_>, port: PortId) {
        // The wire is free: pull the next packet and tell the program about
        // the dequeue so it can observe drain. Only a completion with a
        // packet queued behind it is watched.
        if let Some(pkt) = self.tm.dequeue(port) {
            start_egress(&self.tm, ctx, port, pkt);
            self.with_program(ctx, |p, sctx| p.on_dequeue(sctx, port));
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{ExactMatchTable, Replacement};
    use extmem_sim::{LinkSpec, SimBuilder, TxQueue};
    use extmem_types::{NodeId, Time};
    use extmem_wire::ethernet::EthernetHeader;
    use extmem_wire::{MacAddr, Packet};

    /// A minimal L2 learning-free forwarder: dst MAC → port table, flood
    /// drops (strict).
    struct L2 {
        fib: ExactMatchTable<MacAddr, PortId>,
        dropped_unknown: u64,
    }

    impl PipelineProgram for L2 {
        fn ingress(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, _in_port: PortId, pkt: Packet) {
            let Ok(eth) = EthernetHeader::parse(pkt.as_slice()) else {
                return;
            };
            match self.fib.lookup(&eth.dst).copied() {
                Some(port) => {
                    ctx.enqueue(port, pkt);
                }
                None => self.dropped_unknown += 1,
            }
        }
        fn program_name(&self) -> &str {
            "l2-test"
        }
    }

    /// Host that sends `n` frames to a MAC and records receptions.
    struct Host {
        mac: MacAddr,
        dst: MacAddr,
        n: usize,
        size: usize,
        tx: TxQueue,
        rx: Vec<Packet>,
        rx_times: Vec<Time>,
    }

    impl Host {
        fn new(mac: MacAddr, dst: MacAddr, n: usize, size: usize) -> Host {
            Host {
                mac,
                dst,
                n,
                size,
                tx: TxQueue::new(PortId(0)),
                rx: vec![],
                rx_times: vec![],
            }
        }
        fn frame(&self, seq: usize) -> Packet {
            let mut buf = vec![0u8; self.size];
            EthernetHeader {
                dst: self.dst,
                src: self.mac,
                ethertype: extmem_wire::EtherType::Other(0x88b5),
            }
            .write(&mut buf)
            .unwrap();
            buf[14..18].copy_from_slice(&(seq as u32).to_be_bytes());
            Packet::from_vec(buf)
        }
    }

    impl Node for Host {
        fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, _port: PortId, packet: Packet) {
            self.rx.push(packet);
            self.rx_times.push(ctx.now());
        }
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _token: u64) {
            for seq in 0..self.n {
                let f = self.frame(seq);
                self.tx.send(ctx, f);
            }
        }
        fn on_tx_done(&mut self, ctx: &mut NodeCtx<'_>, _port: PortId) {
            self.tx.on_tx_done(ctx);
        }
        fn name(&self) -> &str {
            "host"
        }
    }

    fn build_l2_sim(
        n: usize,
        size: usize,
        buffer: ByteSize,
    ) -> (extmem_sim::Simulator, NodeId, NodeId, NodeId) {
        build_l2_sim_rates(n, size, buffer, 40)
    }

    fn build_l2_sim_rates(
        n: usize,
        size: usize,
        buffer: ByteSize,
        out_gbps: u64,
    ) -> (extmem_sim::Simulator, NodeId, NodeId, NodeId) {
        let mut fib = ExactMatchTable::new(16, Replacement::Deny);
        fib.insert(MacAddr::local(1), PortId(0));
        fib.insert(MacAddr::local(2), PortId(1));
        let program = L2 {
            fib,
            dropped_unknown: 0,
        };
        let mut b = SimBuilder::new(11);
        let h1 = b.add_node(Box::new(Host::new(
            MacAddr::local(1),
            MacAddr::local(2),
            n,
            size,
        )));
        let h2 = b.add_node(Box::new(Host::new(
            MacAddr::local(2),
            MacAddr::local(1),
            0,
            size,
        )));
        let sw = b.add_node(Box::new(SwitchNode::new(
            "tor",
            SwitchConfig {
                buffer,
                ..Default::default()
            },
            Box::new(program),
        )));
        b.connect(sw, PortId(0), h1, PortId(0), LinkSpec::testbed_40g());
        b.connect(
            sw,
            PortId(1),
            h2,
            PortId(0),
            LinkSpec::new(
                extmem_types::Rate::from_gbps(out_gbps),
                TimeDelta::from_nanos(300),
            ),
        );
        let mut sim = b.build();
        sim.schedule_timer(h1, TimeDelta::ZERO, 0);
        (sim, h1, h2, sw)
    }

    #[test]
    fn forwards_by_mac_in_order() {
        let (mut sim, _h1, h2, sw) = build_l2_sim(20, 200, ByteSize::from_mb(12));
        sim.run_to_quiescence();
        let rx = &sim.node::<Host>(h2).rx;
        assert_eq!(rx.len(), 20);
        for (i, pkt) in rx.iter().enumerate() {
            let seq = u32::from_be_bytes(pkt.as_slice()[14..18].try_into().unwrap());
            assert_eq!(seq as usize, i, "out of order delivery");
        }
        let stats = sim.node::<SwitchNode>(sw).stats();
        assert_eq!(stats.rx_packets, 20);
        assert_eq!(stats.pipeline_passes, 20);
        assert_eq!(stats.tm_drops, 0);
    }

    #[test]
    fn latency_includes_pipeline_delay() {
        let (mut sim, _h1, h2, _sw) = build_l2_sim(1, 1500, ByteSize::from_mb(12));
        sim.run_to_quiescence();
        // host ser 300ns + prop 300ns + pipeline 500ns + switch ser 300ns +
        // prop 300ns = 1700ns.
        assert_eq!(sim.node::<Host>(h2).rx_times[0], Time::from_nanos(1700));
    }

    #[test]
    fn tiny_buffer_tail_drops() {
        // 20 x 1500B arriving at 40G but draining at 10G into a 3000B
        // buffer: the backlog exceeds two packets quickly and tail-drops.
        let (mut sim, _h1, h2, sw) = build_l2_sim_rates(20, 1500, ByteSize::from_bytes(3000), 10);
        sim.run_to_quiescence();
        let delivered = sim.node::<Host>(h2).rx.len();
        let drops = sim.node::<SwitchNode>(sw).tm().total_drops();
        assert_eq!(delivered as u64 + drops, 20);
        assert!(drops > 0, "expected TM drops with a 2-packet buffer");
    }

    #[test]
    fn unknown_mac_counted_by_program() {
        let mut fib = ExactMatchTable::new(16, Replacement::Deny);
        fib.insert(MacAddr::local(1), PortId(0)); // only h1 known
        let program = L2 {
            fib,
            dropped_unknown: 0,
        };
        let mut b = SimBuilder::new(3);
        let h1 = b.add_node(Box::new(Host::new(
            MacAddr::local(1),
            MacAddr::local(2),
            5,
            100,
        )));
        let h2 = b.add_node(Box::new(Host::new(
            MacAddr::local(2),
            MacAddr::local(1),
            0,
            100,
        )));
        let sw = b.add_node(Box::new(SwitchNode::new(
            "tor",
            SwitchConfig::default(),
            Box::new(program),
        )));
        b.connect(sw, PortId(0), h1, PortId(0), LinkSpec::testbed_40g());
        b.connect(sw, PortId(1), h2, PortId(0), LinkSpec::testbed_40g());
        let mut sim = b.build();
        sim.schedule_timer(h1, TimeDelta::ZERO, 0);
        sim.run_to_quiescence();
        assert_eq!(sim.node::<Host>(h2).rx.len(), 0);
        let sw_ref: &SwitchNode = sim.node::<SwitchNode>(sw);
        assert_eq!(sw_ref.program::<L2>().dropped_unknown, 5);
    }

    /// Program that recirculates every fresh packet once, then forwards.
    struct Recirc {
        out: PortId,
        recirc_seen: u64,
    }
    impl PipelineProgram for Recirc {
        fn ingress(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, in_port: PortId, pkt: Packet) {
            if in_port == RECIRC_PORT {
                self.recirc_seen += 1;
                ctx.enqueue(self.out, pkt);
            } else {
                ctx.recirculate(pkt);
            }
        }
    }

    #[test]
    fn recirculation_reenters_pipeline() {
        let mut b = SimBuilder::new(5);
        let h1 = b.add_node(Box::new(Host::new(
            MacAddr::local(1),
            MacAddr::local(2),
            3,
            100,
        )));
        let h2 = b.add_node(Box::new(Host::new(
            MacAddr::local(2),
            MacAddr::local(1),
            0,
            100,
        )));
        let sw = b.add_node(Box::new(SwitchNode::new(
            "tor",
            SwitchConfig::default(),
            Box::new(Recirc {
                out: PortId(1),
                recirc_seen: 0,
            }),
        )));
        b.connect(sw, PortId(0), h1, PortId(0), LinkSpec::testbed_40g());
        b.connect(sw, PortId(1), h2, PortId(0), LinkSpec::testbed_40g());
        let mut sim = b.build();
        sim.schedule_timer(h1, TimeDelta::ZERO, 0);
        sim.run_to_quiescence();
        assert_eq!(sim.node::<Host>(h2).rx.len(), 3);
        let sw_ref: &SwitchNode = sim.node::<SwitchNode>(sw);
        assert_eq!(sw_ref.program::<Recirc>().recirc_seen, 3);
        assert_eq!(sw_ref.stats().recirculated, 3);
        // Each packet passes the pipeline twice.
        assert_eq!(sw_ref.stats().pipeline_passes, 6);
    }

    /// Program that forwards to a port with no link attached.
    struct Misconfigured;
    impl PipelineProgram for Misconfigured {
        fn ingress(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, _in: PortId, pkt: Packet) {
            assert!(
                !ctx.enqueue(PortId(9), pkt),
                "unconnected enqueue must fail"
            );
        }
    }

    #[test]
    fn unconnected_port_drops_instead_of_leaking_buffer() {
        let mut b = SimBuilder::new(5);
        let h1 = b.add_node(Box::new(Host::new(
            MacAddr::local(1),
            MacAddr::local(2),
            5,
            100,
        )));
        let sw = b.add_node(Box::new(SwitchNode::new(
            "tor",
            SwitchConfig::default(),
            Box::new(Misconfigured),
        )));
        b.connect(sw, PortId(0), h1, PortId(0), LinkSpec::testbed_40g());
        let mut sim = b.build();
        sim.schedule_timer(h1, TimeDelta::ZERO, 0);
        sim.run_to_quiescence();
        let sw_ref: &SwitchNode = sim.node::<SwitchNode>(sw);
        assert_eq!(sw_ref.stats().unconnected_drops, 5);
        assert_eq!(
            sw_ref.tm().total_bytes(),
            0,
            "nothing may linger in the pool"
        );
    }

    /// Program that clones each packet to two ports.
    struct Cloner;
    impl PipelineProgram for Cloner {
        fn ingress(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, _in: PortId, pkt: Packet) {
            ctx.enqueue(PortId(1), pkt.clone());
            ctx.enqueue(PortId(2), pkt);
        }
    }

    #[test]
    fn cloning_to_multiple_ports() {
        let mut b = SimBuilder::new(5);
        let h1 = b.add_node(Box::new(Host::new(
            MacAddr::local(1),
            MacAddr::local(2),
            4,
            100,
        )));
        let h2 = b.add_node(Box::new(Host::new(
            MacAddr::local(2),
            MacAddr::local(1),
            0,
            100,
        )));
        let h3 = b.add_node(Box::new(Host::new(
            MacAddr::local(3),
            MacAddr::local(1),
            0,
            100,
        )));
        let sw = b.add_node(Box::new(SwitchNode::new(
            "tor",
            SwitchConfig::default(),
            Box::new(Cloner),
        )));
        b.connect(sw, PortId(0), h1, PortId(0), LinkSpec::testbed_40g());
        b.connect(sw, PortId(1), h2, PortId(0), LinkSpec::testbed_40g());
        b.connect(sw, PortId(2), h3, PortId(0), LinkSpec::testbed_40g());
        let mut sim = b.build();
        sim.schedule_timer(h1, TimeDelta::ZERO, 0);
        sim.run_to_quiescence();
        assert_eq!(sim.node::<Host>(h2).rx.len(), 4);
        assert_eq!(sim.node::<Host>(h3).rx.len(), 4);
    }

    /// Program that forwards everything to port 1 and counts dequeues.
    struct CountDequeues {
        dequeues: u64,
    }
    impl PipelineProgram for CountDequeues {
        fn ingress(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, _in: PortId, pkt: Packet) {
            ctx.enqueue(PortId(1), pkt);
        }
        fn on_dequeue(&mut self, _ctx: &mut SwitchCtx<'_, '_, '_>, port: PortId) {
            assert_eq!(port, PortId(1));
            self.dequeues += 1;
        }
    }

    #[test]
    fn on_dequeue_fires_once_per_dequeue() {
        // In at 40G, out at 10G: a backlog builds, so most packets leave
        // the queue at a transmit completion, and the last completion
        // finds it empty.
        let mut b = SimBuilder::new(5);
        let h1 = b.add_node(Box::new(Host::new(
            MacAddr::local(1),
            MacAddr::local(2),
            20,
            1500,
        )));
        let h2 = b.add_node(Box::new(Host::new(
            MacAddr::local(2),
            MacAddr::local(1),
            0,
            1500,
        )));
        let sw = b.add_node(Box::new(SwitchNode::new(
            "tor",
            SwitchConfig::default(),
            Box::new(CountDequeues { dequeues: 0 }),
        )));
        b.connect(sw, PortId(0), h1, PortId(0), LinkSpec::testbed_40g());
        b.connect(
            sw,
            PortId(1),
            h2,
            PortId(0),
            LinkSpec::new(
                extmem_types::Rate::from_gbps(10),
                TimeDelta::from_nanos(300),
            ),
        );
        let mut sim = b.build();
        sim.schedule_timer(h1, TimeDelta::ZERO, 0);
        sim.run_to_quiescence();
        assert_eq!(sim.node::<Host>(h2).rx.len(), 20);
        let sw_ref: &SwitchNode = sim.node::<SwitchNode>(sw);
        assert_eq!(sw_ref.tm().stats(PortId(1)).dequeued, 20);
        assert_eq!(sw_ref.program::<CountDequeues>().dequeues, 20);
    }

    /// Program that uses a timer to emit a packet later.
    struct TimerProg {
        emitted: bool,
    }
    impl PipelineProgram for TimerProg {
        fn ingress(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, _in: PortId, _pkt: Packet) {
            ctx.schedule(TimeDelta::from_micros(5), 42);
        }
        fn on_timer(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, token: u64) {
            assert_eq!(token, 42);
            self.emitted = true;
            let mut buf = vec![0u8; 100];
            EthernetHeader {
                dst: MacAddr::local(2),
                src: MacAddr::local(99),
                ethertype: extmem_wire::EtherType::Other(0x88b5),
            }
            .write(&mut buf)
            .unwrap();
            ctx.enqueue(PortId(1), Packet::from_vec(buf));
        }
    }

    #[test]
    fn program_timers_round_trip() {
        let mut b = SimBuilder::new(5);
        let h1 = b.add_node(Box::new(Host::new(
            MacAddr::local(1),
            MacAddr::local(2),
            1,
            100,
        )));
        let h2 = b.add_node(Box::new(Host::new(
            MacAddr::local(2),
            MacAddr::local(1),
            0,
            100,
        )));
        let sw = b.add_node(Box::new(SwitchNode::new(
            "tor",
            SwitchConfig::default(),
            Box::new(TimerProg { emitted: false }),
        )));
        b.connect(sw, PortId(0), h1, PortId(0), LinkSpec::testbed_40g());
        b.connect(sw, PortId(1), h2, PortId(0), LinkSpec::testbed_40g());
        let mut sim = b.build();
        sim.schedule_timer(h1, TimeDelta::ZERO, 0);
        sim.run_to_quiescence();
        let sw_ref: &SwitchNode = sim.node::<SwitchNode>(sw);
        assert!(sw_ref.program::<TimerProg>().emitted);
        assert_eq!(sim.node::<Host>(h2).rx.len(), 1);
    }
}
