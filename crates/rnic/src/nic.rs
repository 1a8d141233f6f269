//! The RNIC simulator node: protocol responder plus performance model.
//!
//! ## Performance model
//!
//! The NIC is a single service pipeline fed by a bounded RX queue:
//!
//! * Every inbound request occupies the pipeline for a **service time**
//!   that depends on the operation: WRITEs are limited by the DMA-write
//!   bandwidth, READs by the response-generation bandwidth, and atomics by
//!   a fixed operations-per-second rate — the knob that produces the
//!   paper's Fig 3b "capped by RNIC Fetch-and-Add throughput" plateau.
//! * Requests that arrive while the RX queue is full are **dropped**; this
//!   is the mechanism behind the paper's §5 observation that "beyond these
//!   rates … RDMA requests were occasionally dropped at the NIC", and it
//!   is what defines the maximum *lossless* rates of experiment E1.
//! * Atomics additionally respect a `max_outstanding_atomics` bound
//!   (real RNICs have a small responder-resource pool for atomics); excess
//!   atomics are dropped, which is precisely why the paper's state-store
//!   primitive tracks outstanding requests on the switch.
//!
//! The host CPU appears nowhere in this pipeline: the `cpu_packets` counter
//! increments only if a packet that *isn't* a valid one-sided RoCE request
//! shows up (it would be punted to the kernel on real hardware). Tests for
//! every primitive assert that the counter stays zero.

use crate::mr::MrTable;
use crate::qp::QueuePair;
use crate::responder::{process_request, Outcome};
use extmem_sim::{Node, NodeCtx, TimerHandle, TxQueue};
use extmem_types::{ByteSize, IntMap, PortId, QpNum, Rate, Rkey, TimeDelta};
use extmem_wire::bth::Opcode;
use extmem_wire::roce::{RoceEndpoint, RocePacket};
use extmem_wire::Packet;
use std::collections::VecDeque;

/// Static configuration of an RNIC.
#[derive(Clone, Copy, Debug)]
pub struct RnicConfig {
    /// L2/L3 identity of this NIC.
    pub endpoint: RoceEndpoint,
    /// Maximum READ-response payload per packet. CX-3 class NICs support a
    /// 2048 B RoCE MTU, which lets a full-sized Ethernet frame stored in a
    /// ring-buffer entry come back in a single response packet.
    pub mtu: usize,
    /// DMA-write bandwidth (payload bytes/s through the WRITE path,
    /// PCIe-side — it may exceed the link rate). Together with
    /// `per_op_overhead` this caps 1500 B WRITE intake at
    /// `1500 B / (100 ns + 12 kb / 48 Gbps) ≈ 34.3 Gbps` of payload,
    /// matching the §5 store ceiling of 34.1 Gbps.
    pub write_bw: Rate,
    /// READ-response generation bandwidth (PCIe-side). Caps 1516 B entry
    /// reads at ≈37.5 Gbps of payload, matching the §5 forward ceiling of
    /// 37.4 Gbps.
    pub read_bw: Rate,
    /// Atomic operations per second. Calibrated so FaA request+response
    /// wire traffic plateaus near 2.1 Gbps (Fig 3b).
    pub atomic_ops_per_sec: u64,
    /// Fixed per-request pipeline overhead (parse, rkey check, PCIe round
    /// trip), bounding the small-packet message rate.
    pub per_op_overhead: TimeDelta,
    /// Per-dependent-access cost of the remote-op engine. The *first*
    /// memory access a remote op performs is covered by `per_op_overhead`,
    /// exactly as a plain READ's single access is; each additional access
    /// (the chased pointer, the second probed bucket, each further gathered
    /// rung) adds this on top, so the one-RTT collapse is honestly priced —
    /// an N-step gather is cheaper than N pipelined READs (which pay
    /// `per_op_overhead` each) but not free.
    pub ext_op_step: TimeDelta,
    /// RX queue capacity in packets; arrivals beyond it are dropped.
    pub rx_queue_cap: usize,
    /// Maximum atomics admitted into the pipeline at once.
    pub max_outstanding_atomics: usize,
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
            mtu: 2048,
            write_bw: Rate::from_gbps_f64(48.0),
            read_bw: Rate::from_gbps_f64(55.0),
            atomic_ops_per_sec: 1_700_000,
            per_op_overhead: TimeDelta::from_nanos(100),
            ext_op_step: TimeDelta::from_nanos(60),
            rx_queue_cap: 256,
            max_outstanding_atomics: 16,
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
    /// Packets that would have been punted to the host CPU. The paper's
    /// zero-CPU-involvement claim is the invariant `cpu_packets == 0`.
    pub cpu_packets: u64,
    /// Packets dropped because they arrived during a configured outage.
    pub outage_drops: u64,
    /// Timer firings with a token this NIC never armed. Ignored, counted,
    /// and logged once rather than crashing the whole simulation.
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
        assert!(config.mtu > 0, "MTU must be positive");
        assert!(
            config.atomic_ops_per_sec > 0,
            "atomic rate must be positive"
        );
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

    /// The configured RoCE MTU.
    pub fn mtu(&self) -> usize {
        self.config.mtu
    }

    /// Control plane: register a memory region (zero-initialized). Returns
    /// `(rkey, base_va)` — two thirds of the channel triple the paper's
    /// controller passes to the switch.
    pub fn register_region(&mut self, size: ByteSize) -> (Rkey, u64) {
        self.mrs.register(size)
    }

    /// Control plane: create a responder QP for a peer. Returns the QPN the
    /// peer must put in its request BTHs.
    pub fn create_qp(&mut self, peer: RoceEndpoint, peer_qpn: QpNum, start_psn: u32) -> QpNum {
        let qpn = QpNum(self.next_qpn);
        self.next_qpn += 1;
        self.qps
            .insert(qpn, QueuePair::new(qpn, peer, peer_qpn, start_psn));
        qpn
    }

    /// Direct access to a registered region (tests and control-plane reads,
    /// e.g. the operator running heavy-hitter estimation over the remote
    /// counters in §2.3).
    pub fn region(&self, rkey: Rkey) -> &crate::mr::MemoryRegion {
        self.mrs.get(rkey).expect("unknown rkey")
    }

    /// Mutable region access (control plane populating a remote lookup
    /// table).
    pub fn region_mut(&mut self, rkey: Rkey) -> &mut crate::mr::MemoryRegion {
        self.mrs.get_mut(rkey).expect("unknown rkey")
    }

    /// Operation statistics.
    pub fn stats(&self) -> RnicStats {
        self.stats
    }

    /// Responder state for a QP (tests).
    pub fn qp(&self, qpn: QpNum) -> &QueuePair {
        self.qps.get(&qpn).expect("unknown QPN")
    }

    fn service_time(&self, req: &RocePacket) -> TimeDelta {
        let base = self.config.per_op_overhead;
        match req.bth.opcode {
            Opcode::FetchAdd => {
                TimeDelta::from_picos(1_000_000_000_000u64.div_ceil(self.config.atomic_ops_per_sec))
            }
            Opcode::ReadRequest => {
                // Cap the service cost of a not-yet-validated length: real
                // NICs bounds-check the RETH before streaming DMA, so a
                // malformed multi-gigabyte dma_len must not stall the
                // pipeline for its nominal transfer time (it will be NAK'd
                // at execution).
                const MAX_READ_SERVICE_BYTES: usize = 1 << 20;
                let len = match req.ext {
                    extmem_wire::roce::RoceExt::Reth(r) => {
                        (r.dma_len as usize).min(MAX_READ_SERVICE_BYTES)
                    }
                    _ => 0,
                };
                base + self.config.read_bw.time_to_send(len)
            }
            // Remote ops: `per_op_overhead` covers the first memory access
            // (exactly like a plain READ's single access); each *additional*
            // dependent access the engine will perform (worst case,
            // derivable from the request alone) charges `ext_op_step`, plus
            // response-generation bandwidth on the returned bytes.
            Opcode::IndirectRead | Opcode::HashProbe | Opcode::CondWrite | Opcode::GatherWalk => {
                let (steps, resp_bytes) = match req.ext {
                    extmem_wire::roce::RoceExt::Indirect(h) => {
                        (2usize, (h.hdr_len as usize + h.max_len as usize).min(self.config.mtu))
                    }
                    extmem_wire::roce::RoceExt::HashProbe(h) => {
                        let probes = if h.b2 == h.b1 { 1 } else { 2 };
                        (probes, (h.bucket_bytes as usize).min(self.config.mtu))
                    }
                    extmem_wire::roce::RoceExt::CondWrite(h) => {
                        (2usize, (h.cmp_len as usize).min(self.config.mtu))
                    }
                    extmem_wire::roce::RoceExt::Gather(h) => (
                        (h.count as usize).min(crate::responder::MAX_GATHER),
                        (h.count as usize * h.word_len as usize).min(self.config.mtu),
                    ),
                    _ => (1usize, 0usize),
                };
                base + self.config.ext_op_step * (steps as u64).saturating_sub(1)
                    + self.config.read_bw.time_to_send(resp_bytes)
            }
            // WRITE variants: cost scales with payload.
            _ => base + self.config.write_bw.time_to_send(req.payload.len()),
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
        let req = self
            .rx_queue
            .pop_front()
            .expect("service completion without request");
        self.busy = false;
        if req.bth.opcode == Opcode::FetchAdd {
            self.atomics_in_flight -= 1;
        }
        let Some(qp) = self.qps.get_mut(&req.bth.dest_qp) else {
            // Unknown QP: real NICs drop (or ICMP); never reaches the CPU.
            self.stats.malformed_drops += 1;
            self.maybe_start_service(ctx);
            return;
        };
        let result = process_request(
            self.config.endpoint,
            qp,
            &mut self.mrs,
            &req,
            self.config.mtu,
        );
        match result.outcome {
            Outcome::WriteExecuted { bytes } => {
                self.stats.writes += 1;
                self.stats.write_bytes += bytes;
            }
            Outcome::ReadServed { bytes, .. } => {
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
        }
        // The responses arrive encoded, one pooled buffer each, and only
        // need queueing.
        for resp in result.responses {
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
        if self.rx_queue.len() >= self.config.rx_queue_cap {
            self.stats.rx_overflow_drops += 1;
            return;
        }
        if parsed.bth.opcode == Opcode::FetchAdd {
            if self.atomics_in_flight >= self.config.max_outstanding_atomics {
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
                    eprintln!("rnic {}: ignoring unknown timer token {other:#x}", self.name);
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
        for qp in self.qps.values_mut() {
            qp.write_cursor = None;
            qp.last_atomic = None;
            qp.cond_replay.clear();
            qp.nak_outstanding = false;
        }
        self.stats.crashes += 1;
    }

    fn on_restart(&mut self, _ctx: &mut NodeCtx<'_>) {
        // The controller re-creates the QPs with the same numbers and
        // region layout (the rkey/VA triples the switch holds stay valid);
        // each QP accepts whatever PSN its requester resumes at.
        for qp in self.qps.values_mut() {
            qp.mark_resync();
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
        let qpn = nic.create_qp(client_endpoint(), QpNum(0x55), 0);
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
        let (rkey, base) = (Rkey(1), nic.region(Rkey(1)).base_va());
        let word = nic.region(rkey).read(base, 8).unwrap();
        assert_eq!(u64::from_be_bytes(word.try_into().unwrap()), 50);
        let acks = &sim.node::<Driver>(driver).received;
        assert_eq!(acks.len(), 5);
        // Original values 0,10,20,30,40 in order.
        for (i, a) in acks.iter().enumerate() {
            assert!(matches!(a.ext, RoceExt::AtomicAck(_, v) if v.original_value == 10 * i as u64));
        }
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
        // Tiny queue + slow write bandwidth → overflow.
        let mut nic = RnicNode::new(
            "rnic",
            RnicConfig {
                rx_queue_cap: 4,
                write_bw: Rate::from_gbps(1),
                ..RnicConfig::at(server_endpoint())
            },
        );
        let (rkey, base) = nic.register_region(ByteSize::from_kb(64));
        let qpn = nic.create_qp(client_endpoint(), QpNum(0x55), 0);
        let packets: Vec<Packet> = (0..20)
            .map(|i| build_write(qpn, rkey, base, i, vec![0; 1000]))
            .collect();

        let mut b = SimBuilder::new(1);
        let driver = b.add_node(Box::new(Driver::new(packets)));
        let rnic = b.add_node(Box::new(nic));
        b.connect(driver, PortId(0), rnic, PortId(0), LinkSpec::testbed_40g());
        let mut sim = b.build();
        sim.schedule_timer(driver, TimeDelta::ZERO, 0);
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
            20
        );
    }

    #[test]
    fn outstanding_atomics_bound_enforced() {
        let mut nic = RnicNode::new(
            "rnic",
            RnicConfig {
                max_outstanding_atomics: 2,
                ..RnicConfig::at(server_endpoint())
            },
        );
        let (rkey, base) = nic.register_region(ByteSize::from_kb(4));
        let qpn = nic.create_qp(client_endpoint(), QpNum(0x55), 0);
        // 10 atomics arrive back-to-back at 40G (86B each ≈ 17ns apart) while
        // each takes ~588ns to service: most exceed the bound of 2.
        let packets: Vec<Packet> = (0..10).map(|i| build_fadd(qpn, rkey, base, i, 1)).collect();

        let mut b = SimBuilder::new(1);
        let driver = b.add_node(Box::new(Driver::new(packets)));
        let rnic = b.add_node(Box::new(nic));
        b.connect(driver, PortId(0), rnic, PortId(0), LinkSpec::testbed_40g());
        let mut sim = b.build();
        sim.schedule_timer(driver, TimeDelta::ZERO, 0);
        sim.run_to_quiescence();
        let stats = sim.node::<RnicNode>(rnic).stats();
        assert!(
            stats.atomic_overflow_drops >= 7,
            "got {}",
            stats.atomic_overflow_drops
        );
        assert!(
            stats.atomics + stats.atomic_overflow_drops + stats.naks + stats.out_of_sequence_drops
                >= 10
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
    fn large_read_fragments_across_mtu() {
        let (mut sim, driver, _) = rig(|qpn, rkey, base| {
            vec![
                build_write(qpn, rkey, base, 0, vec![0xab; 1500]),
                build_write(qpn, rkey, base + 1500, 1, vec![0xcd; 1500]),
                build_read(qpn, rkey, base, 2, 3000),
            ]
        });
        sim.run_to_quiescence();
        let recv = &sim.node::<Driver>(driver).received;
        assert_eq!(recv.len(), 2, "3000B read at 2048 MTU = 2 packets");
        assert_eq!(recv[0].bth.opcode, Opcode::ReadRespFirst);
        assert_eq!(recv[1].bth.opcode, Opcode::ReadRespLast);
        let mut data = recv[0].payload.to_vec();
        data.extend_from_slice(&recv[1].payload);
        assert_eq!(&data[..1500], &[0xab; 1500][..]);
        assert_eq!(&data[1500..], &[0xcd; 1500][..]);
    }
}
