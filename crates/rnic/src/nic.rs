//! The RNIC simulator node: protocol responder plus performance model.
//!
//! ## Performance model
//!
//! The NIC is a single service pipeline fed by a bounded RX queue:
//!
//! * Every inbound request occupies the pipeline for a **service time**
//!   that depends on the operation: WRITEs are limited by the DMA-write
//!   bandwidth, READs by the response-generation bandwidth, and atomics by
//!   a fixed operations-per-second rate ([`ATOMIC_OPS_PER_SEC`]), which
//!   produces the paper's Fig 3b "capped by RNIC Fetch-and-Add throughput"
//!   plateau.
//! * Requests that arrive while the RX queue is full are **dropped**; this
//!   is the mechanism behind the paper's §5 observation that "beyond these
//!   rates … RDMA requests were occasionally dropped at the NIC", and it
//!   is what defines the maximum *lossless* rates of experiment E1.
//! * Atomics additionally respect a [`MAX_OUTSTANDING_ATOMICS`] bound
//!   (real RNICs have a small responder-resource pool for atomics); excess
//!   atomics are dropped, which is precisely why the paper's state-store
//!   primitive tracks outstanding requests on the switch.
//!
//! The host CPU appears nowhere in this pipeline: the `cpu_packets` counter
//! increments only if a packet that *isn't* a valid one-sided RoCE request
//! shows up (it would be punted to the kernel on real hardware). Tests for
//! every primitive assert that the counter stays zero.

use crate::mr::{AccessError, MemoryRegion, MrTable};
use crate::qp::{QueuePair, Transport};
use crate::responder::{nak, process_request, Outcome};
use extmem_sim::{Node, NodeCtx, TimerHandle, TxQueue};
use extmem_types::{ByteSize, IntMap, PortId, QpNum, Rate, Rkey, TimeDelta};
use extmem_wire::aeth::NakCode;
use extmem_wire::bth::Opcode;
use extmem_wire::roce::{RoceEndpoint, RocePacket};
use extmem_wire::Packet;
use std::collections::VecDeque;

/// The RoCE MTU: the most payload one packet carries. CX-3 class NICs
/// support 2048 B, which lets a full-sized Ethernet frame stored in a
/// ring-buffer entry go out in one WRITE and come back in one READ
/// response. Every message is one packet: primitives check their entry
/// sizes against this at construction, and the responder NAKs a WRITE or
/// READ longer than it with `InvalidRequest`.
pub const MTU: usize = 2048;

/// DMA-write bandwidth (payload bytes/s through the WRITE path, PCIe-side —
/// it may exceed the link rate). Together with [`PER_OP_OVERHEAD`] this caps
/// 1500 B WRITE intake at `1500 B / (100 ns + 12 kb / 48 Gbps) ≈ 34.3 Gbps`
/// of payload, matching the §5 store ceiling of 34.1 Gbps.
pub const WRITE_BW: Rate = Rate::from_gbps(48);

/// READ-response generation bandwidth (PCIe-side). Caps 1516 B entry reads
/// at ≈37.5 Gbps of payload, matching the §5 forward ceiling of 37.4 Gbps.
pub const READ_BW: Rate = Rate::from_gbps(55);

/// Atomic operations per second. Calibrated so FaA request+response wire
/// traffic plateaus near 2.1 Gbps (Fig 3b).
pub const ATOMIC_OPS_PER_SEC: u64 = 1_700_000;

/// Fixed per-request pipeline overhead (parse, rkey check, PCIe round trip),
/// bounding the small-packet message rate.
pub const PER_OP_OVERHEAD: TimeDelta = TimeDelta::from_nanos(100);

/// Per-dependent-access cost of the remote-op engine. The *first* memory
/// access a remote op performs is covered by [`PER_OP_OVERHEAD`], exactly as
/// a plain READ's single access is; each additional access (the chased
/// pointer, the second probed bucket, each further gathered rung) adds this
/// on top, so the one-RTT collapse is honestly priced — an N-step gather is
/// cheaper than N pipelined READs (which pay [`PER_OP_OVERHEAD`] each) but
/// not free.
pub const EXT_OP_STEP: TimeDelta = TimeDelta::from_nanos(60);

/// RX queue capacity in packets; arrivals beyond it are dropped.
pub const RX_QUEUE_CAP: usize = 256;

/// Maximum atomics admitted into the pipeline at once.
pub const MAX_OUTSTANDING_ATOMICS: usize = 16;

/// Static configuration of an RNIC: who it is and when it is down. The
/// performance model is the constants above.
#[derive(Clone, Copy, Debug)]
pub struct RnicConfig {
    /// L2/L3 identity of this NIC.
    pub endpoint: RoceEndpoint,
    /// Simulated outage window `[from, until)`: the NIC silently drops
    /// everything that arrives inside it — the §7 "handling switch and
    /// server failures" scenario. `None` = always up.
    pub outage: Option<(extmem_types::Time, extmem_types::Time)>,
}

impl Default for RnicConfig {
    fn default() -> Self {
        RnicConfig {
            endpoint: RoceEndpoint {
                mac: extmem_wire::MacAddr::ZERO,
                ip: 0,
            },
            outage: None,
        }
    }
}

impl RnicConfig {
    /// Default config with the given identity.
    pub fn at(endpoint: RoceEndpoint) -> RnicConfig {
        RnicConfig {
            endpoint,
            ..Default::default()
        }
    }
}

/// Operation counters exposed by the NIC.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RnicStats {
    /// WRITE request packets executed.
    pub writes: u64,
    /// Payload bytes written.
    pub write_bytes: u64,
    /// READ requests served.
    pub reads: u64,
    /// Payload bytes returned by READs.
    pub read_bytes: u64,
    /// Atomics executed.
    pub atomics: u64,
    /// Remote ops executed by the NIC op engine.
    pub ext_ops: u64,
    /// Dependent memory accesses performed on behalf of remote ops.
    pub ext_op_steps: u64,
    /// Payload bytes returned by remote-op responses.
    pub ext_op_bytes: u64,
    /// Duplicate requests re-acknowledged.
    pub duplicates: u64,
    /// NAKs sent.
    pub naks: u64,
    /// Packets dropped because the RX queue was full.
    pub rx_overflow_drops: u64,
    /// Atomics dropped by the outstanding-atomics bound.
    pub atomic_overflow_drops: u64,
    /// Malformed / corrupt packets dropped (bad ICRC, bad checksum…).
    pub malformed_drops: u64,
    /// Out-of-sequence packets silently dropped.
    pub out_of_sequence_drops: u64,
    /// Requests handled whose response failed to encode and was dropped.
    pub response_drops: u64,
    /// Packets that would have been punted to the host CPU. The paper's
    /// zero-CPU-involvement claim is the invariant `cpu_packets == 0`.
    pub cpu_packets: u64,
    /// Packets dropped during a configured outage or at an unconnected QP.
    pub outage_drops: u64,
    /// Timer firings with a token this NIC never armed (logged once) or
    /// with nothing in service: ignored and counted, not a crash.
    pub unknown_timer_tokens: u64,
    /// Whole-node crashes suffered (scheduled via `Simulator::schedule_crash`).
    pub crashes: u64,
    /// Restarts after a crash.
    pub restarts: u64,
}

/// Timer token: the packet at the head of the service pipeline completed.
const TOKEN_SERVICE_DONE: u64 = 1;

/// An RDMA NIC attached to the topology (always port 0).
pub struct RnicNode {
    name: String,
    config: RnicConfig,
    mrs: MrTable,
    qps: IntMap<QpNum, QueuePair>,
    next_qpn: u32,
    /// Parsed requests waiting for the pipeline, with their atomic flag.
    rx_queue: VecDeque<RocePacket>,
    /// Atomics currently admitted (queued or in service).
    atomics_in_flight: usize,
    /// Whether the pipeline is servicing a request.
    busy: bool,
    /// The armed service-completion timer, cancellable on crash so a stale
    /// completion can't fire into the post-restart pipeline.
    service_timer: Option<TimerHandle>,
    tx: TxQueue,
    stats: RnicStats,
}

impl RnicNode {
    /// Create an RNIC with `name` and `config`.
    pub fn new(name: impl Into<String>, config: RnicConfig) -> RnicNode {
        RnicNode {
            name: name.into(),
            config,
            mrs: MrTable::new(),
            qps: IntMap::default(),
            next_qpn: 0x100,
            rx_queue: VecDeque::new(),
            atomics_in_flight: 0,
            busy: false,
            service_timer: None,
            tx: TxQueue::new(PortId(0)),
            stats: RnicStats::default(),
        }
    }

    /// This NIC's identity.
    pub fn endpoint(&self) -> RoceEndpoint {
        self.config.endpoint
    }

    /// Control plane: register a memory region (zero-initialized). Returns
    /// `(rkey, base_va)` — two thirds of the channel triple the paper's
    /// controller passes to the switch.
    pub fn register_region(&mut self, size: ByteSize) -> (Rkey, u64) {
        self.mrs.register(size)
    }

    /// Control plane: create a responder QP for a peer. Returns the QPN the
    /// peer must put in its request BTHs, and the QP's [`Transport`].
    pub fn create_qp(
        &mut self,
        peer: RoceEndpoint,
        peer_qpn: QpNum,
        start_psn: u32,
    ) -> (QpNum, Transport) {
        let qpn = QpNum(self.next_qpn);
        self.next_qpn += 1;
        let qp = QueuePair::new(qpn, peer, peer_qpn, start_psn);
        let transport = qp.transport.clone();
        self.qps.insert(qpn, qp);
        (qpn, transport)
    }

    /// Direct access to a registered region (tests and control-plane reads,
    /// e.g. the operator running heavy-hitter estimation over the remote
    /// counters in §2.3).
    pub fn region(&self, rkey: Rkey) -> Result<&MemoryRegion, AccessError> {
        self.mrs.get(rkey)
    }

    /// Mutable region access (control plane populating a remote lookup
    /// table).
    pub fn region_mut(&mut self, rkey: Rkey) -> Result<&mut MemoryRegion, AccessError> {
        self.mrs.get_mut(rkey)
    }

    /// Operation statistics.
    pub fn stats(&self) -> RnicStats {
        self.stats
    }

    /// Responder state for a QP, if this NIC has one numbered `qpn`.
    pub fn qp(&self, qpn: QpNum) -> Option<&QueuePair> {
        self.qps.get(&qpn)
    }

    fn service_time(&self, req: &RocePacket) -> TimeDelta {
        let base = PER_OP_OVERHEAD;
        match req.bth.opcode {
            Opcode::FetchAdd => {
                TimeDelta::from_picos(1_000_000_000_000u64.div_ceil(ATOMIC_OPS_PER_SEC))
            }
            Opcode::ReadRequest => {
                // Price a not-yet-validated length at most one MTU: a READ
                // longer than that is NAK'd at execution, and must not
                // stall the pipeline for its nominal transfer time.
                let len = match req.ext {
                    extmem_wire::roce::RoceExt::Reth(r) => (r.dma_len as usize).min(MTU),
                    _ => 0,
                };
                base + READ_BW.time_to_send(len)
            }
            // Remote ops: `PER_OP_OVERHEAD` covers the first memory access
            // (exactly like a plain READ's single access); each *additional*
            // dependent access the engine will perform (derivable from the
            // request alone) charges `EXT_OP_STEP`, plus `READ_BW` on the
            // bytes the accesses read: the bytes a probe scans (though it
            // answers with one slot), every word a gather returns. A probe
            // is one access, priced as a READ of the bytes it scans, so a
            // probe over a one-slot span costs what a one-slot READ does.
            Opcode::HashProbe | Opcode::GatherWalk => {
                let (steps, read_bytes) = match req.ext {
                    extmem_wire::roce::RoceExt::HashProbe(h) => (1, h.len as usize),
                    extmem_wire::roce::RoceExt::Gather(h) => (
                        (h.count as usize).min(crate::responder::MAX_GATHER),
                        h.count as usize * h.word_len as usize,
                    ),
                    _ => (1, 0),
                };
                base + EXT_OP_STEP * (steps as u64).saturating_sub(1)
                    + READ_BW.time_to_send(read_bytes.min(MTU))
            }
            // WRITE variants: cost scales with payload.
            _ => base + WRITE_BW.time_to_send(req.payload.len()),
        }
    }

    fn maybe_start_service(&mut self, ctx: &mut NodeCtx<'_>) {
        if self.busy {
            return;
        }
        let Some(front) = self.rx_queue.front() else {
            return;
        };
        let dt = self.service_time(front);
        self.busy = true;
        self.service_timer = Some(ctx.schedule_cancellable(dt, TOKEN_SERVICE_DONE));
    }

    fn complete_service(&mut self, ctx: &mut NodeCtx<'_>) {
        self.service_timer = None;
        self.busy = false;
        let Some(req) = self.rx_queue.pop_front() else {
            self.stats.unknown_timer_tokens += 1;
            return;
        };
        if req.bth.opcode == Opcode::FetchAdd {
            self.atomics_in_flight -= 1;
        }
        let Some(qp) = self.qps.get_mut(&req.bth.dest_qp) else {
            // Unknown QP: real NICs drop (or ICMP); never reaches the CPU.
            self.stats.malformed_drops += 1;
            self.maybe_start_service(ctx);
            return;
        };
        let result = process_request(self.config.endpoint, qp, &mut self.mrs, &req, MTU);
        match result.outcome {
            Outcome::WriteExecuted { bytes } => {
                self.stats.writes += 1;
                self.stats.write_bytes += bytes;
            }
            Outcome::ReadServed { bytes } => {
                self.stats.reads += 1;
                self.stats.read_bytes += bytes;
            }
            Outcome::AtomicExecuted => self.stats.atomics += 1,
            Outcome::ExtOpExecuted { steps, bytes, .. } => {
                self.stats.ext_ops += 1;
                self.stats.ext_op_steps += steps as u64;
                self.stats.ext_op_bytes += bytes;
            }
            Outcome::Duplicate => self.stats.duplicates += 1,
            Outcome::Nak(_) => self.stats.naks += 1,
            Outcome::OutOfSequenceDropped => self.stats.out_of_sequence_drops += 1,
            Outcome::ResponseDropped => self.stats.response_drops += 1,
            Outcome::Unconnected => self.stats.outage_drops += 1,
            Outcome::Connected => {}
        }
        // The response arrives encoded, in a pooled buffer, and only needs
        // queueing.
        if let Some(resp) = result.response {
            self.tx.send(ctx, resp);
        }
        self.maybe_start_service(ctx);
    }
}

impl Node for RnicNode {
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, _port: PortId, packet: Packet) {
        if let Some((from, until)) = self.config.outage {
            let now = ctx.now();
            if now >= from && now < until {
                self.stats.outage_drops += 1;
                return;
            }
        }
        let parsed = match RocePacket::parse(&packet) {
            Ok(Some(p)) => p,
            Ok(None) => {
                // Not RoCE: would be delivered to the host network stack.
                self.stats.cpu_packets += 1;
                return;
            }
            Err(_) => {
                self.stats.malformed_drops += 1;
                return;
            }
        };
        if !parsed.bth.opcode.is_request() {
            // Responses arriving at a responder-only NIC (e.g. misrouted):
            // drop silently like real hardware.
            self.stats.malformed_drops += 1;
            return;
        }
        if self.rx_queue.len() >= RX_QUEUE_CAP {
            self.stats.rx_overflow_drops += 1;
            return;
        }
        if parsed.bth.opcode == Opcode::FetchAdd {
            if self.atomics_in_flight >= MAX_OUTSTANDING_ATOMICS {
                self.stats.atomic_overflow_drops += 1;
                return;
            }
            self.atomics_in_flight += 1;
        }
        self.rx_queue.push_back(parsed);
        self.maybe_start_service(ctx);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
        match token {
            TOKEN_SERVICE_DONE => self.complete_service(ctx),
            other => {
                if self.stats.unknown_timer_tokens == 0 {
                    eprintln!(
                        "rnic {}: ignoring unknown timer token {other:#x}",
                        self.name
                    );
                }
                self.stats.unknown_timer_tokens += 1;
            }
        }
    }

    fn on_tx_done(&mut self, ctx: &mut NodeCtx<'_>, _port: PortId) {
        self.tx.on_tx_done(ctx);
    }

    fn on_crash(&mut self, ctx: &mut NodeCtx<'_>) {
        // Power gone: everything volatile dies — the service pipeline, the
        // RX and TX queues, and the DRAM behind every registered region.
        if let Some(h) = self.service_timer.take() {
            ctx.cancel_timer(h);
        }
        self.busy = false;
        self.rx_queue.clear();
        self.atomics_in_flight = 0;
        self.tx.clear();
        self.mrs.wipe();
        // The QPs keep their numbers, the regions their rkeys and VAs. An RC
        // QP is left unconnected; a UC one resyncs at the next request.
        for qp in self.qps.values_mut() {
            qp.connected = qp.transport.is_uc();
        }
        self.stats.crashes += 1;
    }

    fn on_restart(&mut self, ctx: &mut NodeCtx<'_>) {
        // Each unconnected QP tells its peer once that its connection is
        // gone: a NAK an RC requester takes as its QP's error state.
        for qp in self.qps.values().filter(|qp| !qp.connected) {
            let notice = nak(self.config.endpoint, qp, NakCode::RemoteOperationalError);
            if let Some(frame) = notice.response {
                self.stats.naks += 1;
                self.tx.send(ctx, frame);
            }
        }
        self.stats.restarts += 1;
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use extmem_sim::{LinkSpec, SimBuilder, Simulator};
    use extmem_types::{NodeId, Time};
    use extmem_wire::aeth::{NakCode, Syndrome};
    use extmem_wire::bth::Bth;
    use extmem_wire::reth::Reth;
    use extmem_wire::roce::RoceExt;
    use extmem_wire::MacAddr;

    /// A driver node that transmits pre-built packets back-to-back and
    /// records everything it receives.
    struct Driver {
        to_send: VecDeque<Packet>,
        tx: TxQueue,
        pub received: Vec<RocePacket>,
    }

    impl Driver {
        fn new(pkts: Vec<Packet>) -> Driver {
            Driver {
                to_send: pkts.into(),
                tx: TxQueue::new(PortId(0)),
                received: Vec::new(),
            }
        }
    }

    impl Node for Driver {
        fn on_packet(&mut self, _ctx: &mut NodeCtx<'_>, _port: PortId, packet: Packet) {
            if let Ok(Some(p)) = RocePacket::parse(&packet) {
                self.received.push(p);
            }
        }
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _token: u64) {
            while let Some(pkt) = self.to_send.pop_front() {
                self.tx.send(ctx, pkt);
            }
        }
        fn on_tx_done(&mut self, ctx: &mut NodeCtx<'_>, _port: PortId) {
            self.tx.on_tx_done(ctx);
        }
        fn name(&self) -> &str {
            "driver"
        }
    }

    fn client_endpoint() -> RoceEndpoint {
        RoceEndpoint {
            mac: MacAddr::local(1),
            ip: 0x0a000001,
        }
    }

    fn server_endpoint() -> RoceEndpoint {
        RoceEndpoint {
            mac: MacAddr::local(2),
            ip: 0x0a000002,
        }
    }

    /// Build a sim: driver —40G— RNIC with one region and one QP.
    fn rig(pkts: impl FnOnce(QpNum, Rkey, u64) -> Vec<Packet>) -> (Simulator, NodeId, NodeId) {
        let mut nic = RnicNode::new("rnic", RnicConfig::at(server_endpoint()));
        let (rkey, base) = nic.register_region(ByteSize::from_kb(64));
        let (qpn, _) = nic.create_qp(client_endpoint(), QpNum(0x55), 0);
        let packets = pkts(qpn, rkey, base);

        let mut b = SimBuilder::new(1);
        let driver = b.add_node(Box::new(Driver::new(packets)));
        let rnic = b.add_node(Box::new(nic));
        b.connect(driver, PortId(0), rnic, PortId(0), LinkSpec::testbed_40g());
        let mut sim = b.build();
        sim.schedule_timer(driver, TimeDelta::ZERO, 0);
        (sim, driver, rnic)
    }

    fn build_write(qpn: QpNum, rkey: Rkey, va: u64, psn: u32, payload: Vec<u8>) -> Packet {
        let len = payload.len() as u32;
        RocePacket::new(
            client_endpoint(),
            server_endpoint(),
            0x9000,
            Bth::new(Opcode::WriteOnly, qpn, psn),
            RoceExt::Reth(Reth {
                va,
                rkey,
                dma_len: len,
            }),
            payload,
        )
        .build()
        .unwrap()
    }

    fn build_read(qpn: QpNum, rkey: Rkey, va: u64, psn: u32, len: u32) -> Packet {
        RocePacket::new(
            client_endpoint(),
            server_endpoint(),
            0x9000,
            Bth::new(Opcode::ReadRequest, qpn, psn),
            RoceExt::Reth(Reth {
                va,
                rkey,
                dma_len: len,
            }),
            vec![],
        )
        .build()
        .unwrap()
    }

    fn build_fadd(qpn: QpNum, rkey: Rkey, va: u64, psn: u32, add: u64) -> Packet {
        RocePacket::new(
            client_endpoint(),
            server_endpoint(),
            0x9000,
            Bth::new(Opcode::FetchAdd, qpn, psn),
            RoceExt::AtomicEth(extmem_wire::atomic::AtomicEth {
                va,
                rkey,
                swap_add: add,
                compare: 0,
            }),
            vec![],
        )
        .build()
        .unwrap()
    }

    #[test]
    fn write_then_read_roundtrip_through_wire() {
        let payload: Vec<u8> = (0..200u32).map(|i| i as u8).collect();
        let pl = payload.clone();
        let (mut sim, driver, rnic) = rig(move |qpn, rkey, base| {
            vec![
                build_write(qpn, rkey, base + 8, 0, pl),
                build_read(qpn, rkey, base + 8, 1, 200),
            ]
        });
        sim.run_to_quiescence();
        let stats = sim.node::<RnicNode>(rnic).stats();
        assert_eq!(stats.writes, 1);
        assert_eq!(stats.write_bytes, 200);
        assert_eq!(stats.reads, 1);
        assert_eq!(stats.read_bytes, 200);
        assert_eq!(stats.cpu_packets, 0, "one-sided ops must not touch the CPU");
        let recv = &sim.node::<Driver>(driver).received;
        assert_eq!(recv.len(), 1);
        assert_eq!(recv[0].bth.opcode, Opcode::ReadRespOnly);
        assert_eq!(recv[0].payload, payload);
    }

    #[test]
    fn fetch_add_accumulates_and_acks() {
        let (mut sim, driver, rnic) =
            rig(|qpn, rkey, base| (0..5).map(|i| build_fadd(qpn, rkey, base, i, 10)).collect());
        sim.run_to_quiescence();
        let nic = sim.node::<RnicNode>(rnic);
        assert_eq!(nic.stats().atomics, 5);
        let (rkey, base) = (Rkey(1), nic.region(Rkey(1)).unwrap().base_va());
        let word = nic.region(rkey).and_then(|r| r.read(base, 8)).unwrap();
        assert_eq!(u64::from_be_bytes(word.try_into().unwrap()), 50);
        let acks = &sim.node::<Driver>(driver).received;
        assert_eq!(acks.len(), 5);
        // Original values 0,10,20,30,40 in order.
        for (i, a) in acks.iter().enumerate() {
            assert!(matches!(a.ext, RoceExt::AtomicAck(_, v) if v.original_value == 10 * i as u64));
        }
    }

    /// A crash leaves the QP unconnected: on restart it tells its peer its
    /// connection is gone, drops a request, and takes a connect at any PSN,
    /// after which the request just past it runs.
    #[test]
    fn a_restarted_qp_notifies_its_peer_and_runs_only_behind_a_connect() {
        let (mut sim, driver, rnic) = rig(|qpn, rkey, base| {
            let connect = RocePacket::new(
                client_endpoint(),
                server_endpoint(),
                0x9000,
                Bth::new(Opcode::Connect, qpn, 3),
                RoceExt::None,
                vec![],
            );
            vec![
                build_fadd(qpn, rkey, base, 0, 10),
                connect.build().unwrap(),
                build_fadd(qpn, rkey, base, 4, 10),
            ]
        });
        sim.schedule_crash(rnic, TimeDelta::ZERO);
        sim.schedule_restart(rnic, TimeDelta::from_nanos(100));
        sim.run_to_quiescence();
        let stats = sim.node::<RnicNode>(rnic).stats();
        let seen = (stats.outage_drops, stats.atomics, stats.naks);
        assert_eq!(seen, (1, 1, 1), "{stats:?}");
        let recv = &sim.node::<Driver>(driver).received;
        let answers: Vec<(Opcode, u32)> = recv.iter().map(|p| (p.bth.opcode, p.bth.psn)).collect();
        let want = [
            (Opcode::Acknowledge, 0),
            (Opcode::Acknowledge, 3),
            (Opcode::AtomicAcknowledge, 4),
        ];
        assert_eq!(answers, want);
        let nak = Syndrome::Nak(NakCode::RemoteOperationalError);
        assert!(matches!(recv[0].ext, RoceExt::Aeth(a) if a.syndrome == nak));
        assert!(matches!(recv[1].ext, RoceExt::Aeth(a) if a.is_ack()));
    }

    #[test]
    fn atomic_rate_is_capped() {
        // 5 atomics at 1.7 Mops/s take ~2.94us of service; the last ACK
        // cannot arrive earlier than that.
        let (mut sim, driver, _) =
            rig(|qpn, rkey, base| (0..5).map(|i| build_fadd(qpn, rkey, base, i, 1)).collect());
        sim.run_to_quiescence();
        assert_eq!(sim.node::<Driver>(driver).received.len(), 5);
        let per_op = 1_000_000_000_000u64.div_ceil(1_700_000);
        assert!(
            sim.now() >= Time::from_picos(5 * per_op),
            "finished at {} but 5 atomics need {}ps",
            sim.now(),
            5 * per_op
        );
    }

    #[test]
    fn rx_queue_overflow_drops() {
        // 1000 B WRITEs arrive every 214.8 ns at 40G but take 266.7 ns of
        // service (100 ns + 8 kb at 48 Gbps): the queue gains one entry per
        // ~5 arrivals and overflows its 256 entries after ~1300.
        const N: u32 = 2000;
        let (mut sim, _, rnic) = rig(|qpn, rkey, base| {
            (0..N)
                .map(|i| build_write(qpn, rkey, base, i, vec![0; 1000]))
                .collect()
        });
        sim.run_to_quiescence();
        let stats = sim.node::<RnicNode>(rnic).stats();
        assert!(stats.rx_overflow_drops > 0, "expected overflow drops");
        // NB: dropped WRITEs create PSN gaps, so some accepted packets are
        // NAK'd/dropped as out-of-sequence — exactly the §7 failure mode.
        assert_eq!(
            stats.writes
                + stats.rx_overflow_drops
                + stats.naks
                + stats.out_of_sequence_drops
                + stats.duplicates,
            N as u64
        );
    }

    #[test]
    fn outstanding_atomics_bound_enforced() {
        // Ten more atomics than the bound arrive back-to-back at 40G (86B
        // each ≈ 17ns apart), all before the first ~588ns service ends:
        // everything past the bound is dropped.
        let n = MAX_OUTSTANDING_ATOMICS as u32 + 10;
        let (mut sim, _, rnic) =
            rig(|qpn, rkey, base| (0..n).map(|i| build_fadd(qpn, rkey, base, i, 1)).collect());
        sim.run_to_quiescence();
        let stats = sim.node::<RnicNode>(rnic).stats();
        assert!(
            stats.atomic_overflow_drops >= 7,
            "got {}",
            stats.atomic_overflow_drops
        );
        assert!(
            stats.atomics + stats.atomic_overflow_drops + stats.naks + stats.out_of_sequence_drops
                >= n as u64
        );
    }

    #[test]
    fn corrupt_packet_is_dropped_not_punted() {
        let (mut sim, _, rnic) = rig(|qpn, rkey, base| {
            let mut bytes = build_write(qpn, rkey, base, 0, vec![1; 64]).into_vec();
            let n = bytes.len();
            bytes[n - 7] ^= 0x10; // corrupt payload → bad ICRC
            vec![Packet::from_vec(bytes)]
        });
        sim.run_to_quiescence();
        let stats = sim.node::<RnicNode>(rnic).stats();
        assert_eq!(stats.malformed_drops, 1);
        assert_eq!(stats.writes, 0);
        assert_eq!(stats.cpu_packets, 0);
    }

    #[test]
    fn unassigned_opcode_is_dropped_not_executed() {
        // A READ request relabelled with an opcode the NIC does not
        // implement and sealed with a fresh ICRC: intact on the wire, but
        // no request the NIC knows. The first six are the multi-packet
        // WRITE (first/middle/last) and READ-response (first/middle/last)
        // opcodes: every message is one packet, so none is spoken. 0xc0 is
        // from the manufacturer range, below the remote ops; four bytes
        // after the RETH make the twenty that its header took while it
        // named an indirect READ, so only the opcode can refuse the frame.
        // 0xc2 and 0xc4 sit between the two remote ops, which are
        // answered as READs and need no response opcode of their own.
        const IP_AT: usize = extmem_wire::EthernetHeader::LEN;
        const BTH_AT: usize = IP_AT + extmem_wire::Ipv4Header::LEN + extmem_wire::UdpHeader::LEN;
        for opcode in [0x06, 0x07, 0x08, 0x0d, 0x0e, 0x0f, 0xc0, 0xc2, 0xc4] {
            let frame = |qpn, rkey, va| {
                let mut bytes = RocePacket::new(
                    client_endpoint(),
                    server_endpoint(),
                    0x9000,
                    Bth::new(Opcode::ReadRequest, qpn, 0),
                    RoceExt::Reth(Reth {
                        va,
                        rkey,
                        dma_len: 8,
                    }),
                    vec![0, 0, 0, 8],
                )
                .build()
                .unwrap()
                .into_vec();
                bytes[BTH_AT] = opcode;
                let icrc_at = bytes.len() - extmem_wire::icrc::ICRC_LEN;
                let icrc = extmem_wire::icrc::icrc_rocev2(&bytes[IP_AT..icrc_at]);
                bytes[icrc_at..].copy_from_slice(&icrc.to_le_bytes());
                Packet::from_vec(bytes)
            };
            let (mut sim, driver, rnic) = rig(|qpn, rkey, base| {
                let pkt = frame(qpn, rkey, base);
                assert_eq!(
                    RocePacket::parse(&pkt),
                    Err(extmem_wire::WireError::UnsupportedOpcode(opcode))
                );
                vec![pkt]
            });
            sim.run_to_quiescence();
            let stats = sim.node::<RnicNode>(rnic).stats();
            assert_eq!(stats.malformed_drops, 1, "{opcode:#04x}");
            assert_eq!(
                (stats.writes, stats.reads, stats.ext_ops, stats.cpu_packets),
                (0, 0, 0, 0),
                "{opcode:#04x}"
            );
            assert!(sim.node::<Driver>(driver).received.is_empty());
        }
    }

    #[test]
    fn datagram_shorter_than_its_headers_is_dropped_not_panicked() {
        // A 64-byte frame to the RoCEv2 port with an intact IPv4 checksum
        // whose `total_len` (20) ends the datagram before the BTH.
        let (mut sim, driver, rnic) = rig(|qpn, _, _| {
            let h = extmem_wire::roce::RoceHeaders::new(
                client_endpoint(),
                server_endpoint(),
                0x9000,
                Bth::new(Opcode::Acknowledge, qpn, 0),
                RoceExt::Aeth(extmem_wire::aeth::Aeth::ack(0)),
            );
            let mut bytes = vec![0u8; 64];
            h.eth.write(&mut bytes).unwrap();
            let ipv4 = extmem_wire::Ipv4Header {
                total_len: 20,
                ..h.ipv4
            };
            ipv4.write(&mut bytes[14..]).unwrap();
            h.udp.write(&mut bytes[34..]).unwrap();
            vec![Packet::from_vec(bytes)]
        });
        sim.run_to_quiescence();
        let stats = sim.node::<RnicNode>(rnic).stats();
        assert_eq!(stats.malformed_drops, 1);
        assert_eq!(stats.cpu_packets, 0);
        assert!(sim.node::<Driver>(driver).received.is_empty());
    }

    #[test]
    fn non_roce_traffic_counts_as_cpu() {
        let (mut sim, _, rnic) = rig(|_, _, _| {
            vec![extmem_wire::payload::build_data_packet(
                MacAddr::local(1),
                MacAddr::local(2),
                extmem_types::FiveTuple::new(1, 2, 3, 4, 17),
                0,
                0,
                Time::ZERO,
                extmem_wire::payload::MIN_DATA_FRAME,
            )
            .unwrap()]
        });
        sim.run_to_quiescence();
        assert_eq!(sim.node::<RnicNode>(rnic).stats().cpu_packets, 1);
    }

    #[test]
    fn unknown_qp_dropped() {
        let (mut sim, driver, rnic) =
            rig(|_qpn, rkey, base| vec![build_write(QpNum(0xdead), rkey, base, 0, vec![1; 8])]);
        sim.run_to_quiescence();
        assert_eq!(sim.node::<RnicNode>(rnic).stats().malformed_drops, 1);
        assert!(sim.node::<Driver>(driver).received.is_empty());
    }

    #[test]
    fn read_over_the_mtu_is_naked() {
        // A READ one byte over the MTU is refused whole: one InvalidRequest
        // NAK, no data, and the next request is in sequence.
        let (mut sim, driver, rnic) = rig(|qpn, rkey, base| {
            vec![
                build_read(qpn, rkey, base, 0, MTU as u32 + 1),
                build_read(qpn, rkey, base, 1, MTU as u32),
            ]
        });
        sim.run_to_quiescence();
        let stats = sim.node::<RnicNode>(rnic).stats();
        assert_eq!(
            (stats.naks, stats.reads, stats.read_bytes),
            (1, 1, MTU as u64)
        );
        let recv = &sim.node::<Driver>(driver).received;
        assert_eq!(recv.len(), 2);
        assert!(matches!(
            recv[0].ext,
            RoceExt::Aeth(a) if a.syndrome == Syndrome::Nak(NakCode::InvalidRequest)
        ));
        assert_eq!(recv[1].bth.opcode, Opcode::ReadRespOnly);
        assert_eq!(recv[1].payload.len(), MTU);
    }

    #[test]
    fn remote_op_service_times_are_pinned() {
        // The op engine prices the bytes its accesses read, not the bytes
        // the response returns: a probe reads every slot it scans though
        // it answers with one. What a response carries must not move
        // these picoseconds. A probe is one access, priced as the READ of
        // the same span the verb path sends in its place: a whole bucket,
        // or the one slot the cuckoo lookup's probe usually names.
        use extmem_wire::extop::{GatherEth, HashProbeEth};
        let nic = RnicNode::new("rnic", RnicConfig::at(server_endpoint()));
        let op = |opcode, ext, payload: Vec<u8>| {
            let bth = Bth::new(opcode, QpNum(0x55), 0);
            RocePacket::new(
                client_endpoint(),
                server_endpoint(),
                0x9000,
                bth,
                ext,
                payload,
            )
        };
        let probe = |va, len| {
            let ext = RoceExt::HashProbe(HashProbeEth {
                va,
                rkey: Rkey(1),
                len,
                slot_bytes: 32,
                key_off: 0,
                key_len: 13,
            });
            nic.service_time(&op(Opcode::HashProbe, ext, vec![7; 13]))
        };
        let read = |va, dma_len| {
            let ext = RoceExt::Reth(Reth {
                va,
                rkey: Rkey(1),
                dma_len,
            });
            nic.service_time(&op(Opcode::ReadRequest, ext, vec![]))
        };
        let gather = RoceExt::Gather(GatherEth {
            rkey: Rkey(1),
            word_len: 16,
            count: 4,
        });
        let gather = nic.service_time(&op(Opcode::GatherWalk, gather, vec![0; 32]));
        let (bucket, slot) = (probe(0x1000_0180, 128), probe(0x1000_0000, 32));
        let picos = [bucket, slot, gather].map(|t| t.picos());
        assert_eq!(picos, [118_619, 104_655, 289_310]);
        assert_eq!(bucket, read(0x1000_0180, 128));
        assert_eq!(slot, read(0x1000_0040, 32));
    }
}
