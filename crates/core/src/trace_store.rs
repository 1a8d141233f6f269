//! Remote packet-event capture — the WRITE half of the state-store story.
//!
//! §2.3: "the switch can extract fields from original packets and perform
//! RDMA WRITE into certain remote memory address. This eliminates the CPU
//! cycles required for capturing and parsing packets in previous systems."
//! §7 lists "designing a general streaming packet trace analysis system
//! with our primitives" as future work — this module is that system's
//! capture plane.
//!
//! For every forwarded packet the switch emits a compact 32-byte event
//! record into a remote ring via RDMA WRITE (batching several records per
//! WRITE to amortize header overhead). The operator later reads the ring
//! straight out of server DRAM and runs whatever analysis they like; the
//! server CPU never touches a packet.
//!
//! Record layout (32 B):
//!
//! ```text
//! [ seq: u64 ][ timestamp: u64 ps ][ 5-tuple: 13 B ][ frame len: u16 ][ pad: 1 B ]
//! ```

use crate::channel::RdmaChannel;
use crate::fib::Fib;
use crate::lookup::flow_of;
use extmem_rnic::nic::MTU;
use extmem_rnic::{Request, RnicNode};
use extmem_switch::{PipelineProgram, SwitchCtx};
use extmem_types::{FiveTuple, PortId, Rkey, Time, TimeDelta};
use extmem_wire::Packet;

/// Encoded size of one event record.
pub const RECORD_LEN: usize = 32;

/// One captured packet event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Capture sequence number (dense, per switch).
    pub seq: u64,
    /// Capture time.
    pub at: Time,
    /// The packet's flow.
    pub flow: FiveTuple,
    /// Frame length in bytes.
    pub frame_len: u16,
}

impl TraceRecord {
    /// Encode to the 32-byte wire/DRAM layout.
    pub fn to_bytes(&self) -> [u8; RECORD_LEN] {
        let mut b = [0u8; RECORD_LEN];
        b[0..8].copy_from_slice(&self.seq.to_be_bytes());
        b[8..16].copy_from_slice(&self.at.picos().to_be_bytes());
        b[16..29].copy_from_slice(&self.flow.to_bytes());
        b[29..31].copy_from_slice(&self.frame_len.to_be_bytes());
        b
    }

    /// Decode from the 32-byte layout.
    pub fn from_bytes(b: &[u8; RECORD_LEN]) -> TraceRecord {
        TraceRecord {
            seq: u64::from_be_bytes(b[0..8].try_into().unwrap()),
            at: Time::from_picos(u64::from_be_bytes(b[8..16].try_into().unwrap())),
            flow: FiveTuple::from_bytes(b[16..29].try_into().unwrap()),
            frame_len: u16::from_be_bytes(b[29..31].try_into().unwrap()),
        }
    }
}

/// Capture statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceStoreStats {
    /// Events captured (records generated).
    pub captured: u64,
    /// RDMA WRITEs issued.
    pub writes: u64,
    /// Events dropped because the ring wrapped before the operator drained
    /// it (ring capacity is the retention window).
    pub overwritten: u64,
}

/// The trace-capture pipeline program: plain L2 forwarding, with every
/// forwarded flow packet mirrored as a record into the remote ring.
pub struct TraceStoreProgram {
    /// L2 forwarding.
    pub fib: Fib,
    channel: RdmaChannel,
    /// Records per RDMA WRITE (batching amortizes the 74-byte RoCE
    /// envelope; 1 = a WRITE per packet, as §2.3 describes).
    batch: usize,
    ring_records: u64,
    next_seq: u64,
    staged: Vec<TraceRecord>,
    stats: TraceStoreStats,
    /// Flush staged records after this long even if the batch is short.
    flush_after: TimeDelta,
    flush_armed: bool,
}

const TOKEN_FLUSH: u64 = 0x30;

impl TraceStoreProgram {
    /// Create the program. The channel's region is the ring; it holds
    /// `region_len / 32` records.
    pub fn new(fib: Fib, channel: RdmaChannel, batch: usize, flush_after: TimeDelta) -> Self {
        assert!(batch > 0, "batch must be positive");
        assert!(
            batch * RECORD_LEN <= MTU,
            "{batch}-record batch exceeds the {MTU} B MTU"
        );
        let ring_records = channel.region_len / RECORD_LEN as u64;
        assert!(ring_records >= batch as u64, "ring smaller than one batch");
        TraceStoreProgram {
            fib,
            channel,
            batch,
            ring_records,
            next_seq: 0,
            staged: Vec::new(),
            stats: TraceStoreStats::default(),
            flush_after,
            flush_armed: false,
        }
    }

    /// Counters.
    pub fn stats(&self) -> TraceStoreStats {
        self.stats
    }

    /// Ring capacity in records.
    pub fn ring_records(&self) -> u64 {
        self.ring_records
    }

    /// Events captured so far (== next sequence number).
    pub fn captured(&self) -> u64 {
        self.next_seq
    }

    fn flush(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>) {
        if self.staged.is_empty() {
            return;
        }
        let first_seq = self.staged[0].seq;
        let mut payload = Vec::with_capacity(self.staged.len() * RECORD_LEN);
        for r in self.staged.drain(..) {
            payload.extend_from_slice(&r.to_bytes());
        }
        // Contiguous batch: staging is flushed whenever it would cross the
        // ring end, so a batch never wraps mid-WRITE.
        let slot = first_seq % self.ring_records;
        let va = self.channel.base_va + slot * RECORD_LEN as u64;
        let write = Request::Write {
            va,
            body: [&payload, &[]],
            ack_req: false,
        };
        if let Ok(frame) = self.channel.qp.issue(self.channel.rkey, &write) {
            ctx.enqueue(self.channel.server_port, frame);
        }
        self.stats.writes += 1;
    }

    fn capture(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, flow: FiveTuple, frame_len: u16) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stats.captured += 1;
        if seq >= self.ring_records {
            self.stats.overwritten += 1;
        }
        self.staged.push(TraceRecord {
            seq,
            at: ctx.now(),
            flow,
            frame_len,
        });
        let next_slot = self.next_seq % self.ring_records;
        if self.staged.len() >= self.batch || next_slot == 0 {
            self.flush(ctx);
        } else if !self.flush_armed {
            self.flush_armed = true;
            ctx.schedule(self.flush_after, TOKEN_FLUSH);
        }
    }
}

impl PipelineProgram for TraceStoreProgram {
    fn ingress(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, in_port: PortId, pkt: Packet) {
        if in_port == self.channel.server_port {
            return; // ACKs/NAKs from the trace server (none requested)
        }
        let flow = flow_of(&pkt);
        let len = pkt.len() as u16;
        if let Some(port) = self.fib.egress_for(&pkt) {
            ctx.enqueue(port, pkt);
        }
        if let Some(flow) = flow {
            self.capture(ctx, flow, len);
        }
    }

    fn on_timer(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, token: u64) {
        if token == TOKEN_FLUSH {
            self.flush_armed = false;
            self.flush(ctx);
        }
    }

    fn program_name(&self) -> &str {
        "trace-store-primitive"
    }
}

/// Control plane: read the captured trace back out of server DRAM, in
/// capture order. Returns up to the last `ring_records` events (the ring's
/// retention window); `captured` is the program's total capture count.
pub fn read_remote_trace(
    nic: &RnicNode,
    rkey: Rkey,
    base_va: u64,
    ring_records: u64,
    captured: u64,
) -> Vec<TraceRecord> {
    let region = nic.region(rkey).expect("the trace ring's region");
    let start = captured.saturating_sub(ring_records);
    (start..captured)
        .map(|seq| {
            let slot = seq % ring_records;
            let b = region
                .read(base_va + slot * RECORD_LEN as u64, RECORD_LEN as u64)
                .unwrap();
            TraceRecord::from_bytes(b.try_into().unwrap())
        })
        .collect()
}

/// Operator-side analysis over a captured trace — the consumer half of the
/// §7 "general streaming packet trace analysis system". All functions take
/// the records returned by [`read_remote_trace`]; nothing here runs on the
/// data plane.
pub mod analysis {
    use super::TraceRecord;
    use extmem_types::{FiveTuple, IntMap, TimeDelta};

    /// Per-flow aggregate.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct FlowAgg {
        /// Packets observed.
        pub packets: u64,
        /// Bytes observed.
        pub bytes: u64,
    }

    /// Aggregate the trace per flow.
    pub fn per_flow(trace: &[TraceRecord]) -> IntMap<FiveTuple, FlowAgg> {
        let mut m: IntMap<FiveTuple, FlowAgg> = IntMap::default();
        for r in trace {
            let e = m.entry(r.flow).or_default();
            e.packets += 1;
            e.bytes += r.frame_len as u64;
        }
        m
    }

    /// The `k` largest flows by bytes, descending.
    pub fn top_k_by_bytes(trace: &[TraceRecord], k: usize) -> Vec<(FiveTuple, FlowAgg)> {
        let mut v: Vec<(FiveTuple, FlowAgg)> = per_flow(trace).into_iter().collect();
        v.sort_by_key(|&(_, a)| std::cmp::Reverse((a.bytes, a.packets)));
        v.truncate(k);
        v
    }

    /// The maximum bytes observed inside any sliding window of `window`
    /// duration — the microburst detector (cf. the §2.1 motivation and the
    /// high-resolution measurement literature the paper cites).
    pub fn max_burst_bytes(trace: &[TraceRecord], window: TimeDelta) -> u64 {
        let mut best = 0u64;
        let mut sum = 0u64;
        let mut lo = 0usize;
        for hi in 0..trace.len() {
            sum += trace[hi].frame_len as u64;
            while trace[hi].at.saturating_since(trace[lo].at) > window {
                sum -= trace[lo].frame_len as u64;
                lo += 1;
            }
            best = best.max(sum);
        }
        best
    }

    /// Median inter-arrival gap of one flow, if it has at least two packets.
    pub fn median_interarrival(trace: &[TraceRecord], flow: &FiveTuple) -> Option<TimeDelta> {
        let mut times: Vec<_> = trace
            .iter()
            .filter(|r| &r.flow == flow)
            .map(|r| r.at)
            .collect();
        if times.len() < 2 {
            return None;
        }
        times.sort_unstable();
        let mut gaps: Vec<u64> = times
            .windows(2)
            .map(|w| w[1].saturating_since(w[0]).picos())
            .collect();
        gaps.sort_unstable();
        Some(TimeDelta::from_picos(gaps[gaps.len() / 2]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use extmem_rnic::RnicConfig;
    use extmem_sim::{LinkSpec, Node, NodeCtx, SimBuilder, TxQueue};
    use extmem_switch::{SwitchConfig, SwitchNode};
    use extmem_types::{ByteSize, NodeId};
    use extmem_wire::payload::build_data_packet;
    use extmem_wire::MacAddr;

    #[test]
    fn record_roundtrip() {
        let r = TraceRecord {
            seq: 0x0102030405060708,
            at: Time::from_nanos(987654321),
            flow: FiveTuple::new(1, 2, 3, 4, 17),
            frame_len: 1500,
        };
        assert_eq!(TraceRecord::from_bytes(&r.to_bytes()), r);
    }

    /// Paced source of distinguishable flow packets.
    struct Src {
        n: u32,
        sent: u32,
        tx: TxQueue,
    }
    impl Node for Src {
        fn on_packet(&mut self, _: &mut NodeCtx<'_>, _: PortId, _: Packet) {}
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _: u64) {
            if self.sent >= self.n {
                return;
            }
            let flow = FiveTuple::new(
                0x0a000001,
                0x0a000002,
                5000 + (self.sent % 7) as u16,
                9000,
                17,
            );
            let pkt = build_data_packet(
                MacAddr::local(1),
                MacAddr::local(2),
                flow,
                self.sent % 7,
                self.sent / 7,
                ctx.now(),
                100 + (self.sent as usize % 3) * 100,
            )
            .unwrap();
            self.sent += 1;
            self.tx.send(ctx, pkt);
            if self.sent < self.n {
                ctx.schedule(extmem_types::TimeDelta::from_nanos(500), 0);
            }
        }
        fn on_tx_done(&mut self, ctx: &mut NodeCtx<'_>, _: PortId) {
            self.tx.on_tx_done(ctx);
        }
        fn name(&self) -> &str {
            "src"
        }
    }

    struct Sink;
    impl Node for Sink {
        fn on_packet(&mut self, _: &mut NodeCtx<'_>, _: PortId, _: Packet) {}
        fn name(&self) -> &str {
            "sink"
        }
    }

    fn rig(
        n: u32,
        batch: usize,
        ring_bytes: u64,
    ) -> (extmem_sim::Simulator, NodeId, NodeId, Rkey, u64) {
        let server_ep = extmem_wire::roce::RoceEndpoint {
            mac: MacAddr::local(3),
            ip: 0x0a000003,
        };
        let switch_ep = extmem_wire::roce::RoceEndpoint {
            mac: MacAddr::local(100),
            ip: 0x0a0000fe,
        };
        let mut nic = RnicNode::new("tracesrv", RnicConfig::at(server_ep));
        let channel = RdmaChannel::setup(
            switch_ep,
            PortId(2),
            &mut nic,
            ByteSize::from_bytes(ring_bytes),
        );
        let rkey = channel.rkey;
        let base = channel.base_va;
        let mut fib = Fib::new(8);
        fib.install(MacAddr::local(1), PortId(0));
        fib.install(MacAddr::local(2), PortId(1));
        let prog = TraceStoreProgram::new(
            fib,
            channel,
            batch,
            extmem_types::TimeDelta::from_micros(20),
        );
        let mut b = SimBuilder::new(5);
        let src = b.add_node(Box::new(Src {
            n,
            sent: 0,
            tx: TxQueue::new(PortId(0)),
        }));
        let sink = b.add_node(Box::new(Sink));
        let switch = b.add_node(Box::new(SwitchNode::new(
            "tor",
            SwitchConfig::default(),
            Box::new(prog),
        )));
        let srv = b.add_node(Box::new(nic));
        b.connect(switch, PortId(0), src, PortId(0), LinkSpec::testbed_40g());
        b.connect(switch, PortId(1), sink, PortId(0), LinkSpec::testbed_40g());
        b.connect(switch, PortId(2), srv, PortId(0), LinkSpec::testbed_40g());
        let mut sim = b.build();
        sim.schedule_timer(src, extmem_types::TimeDelta::ZERO, 0);
        (sim, switch, srv, rkey, base)
    }

    #[test]
    fn trace_lands_in_server_dram_in_order() {
        let (mut sim, switch, srv, rkey, base) = rig(50, 4, 4096 * 32);
        sim.run_to_quiescence();
        let sw: &SwitchNode = sim.node(switch);
        let prog = sw.program::<TraceStoreProgram>();
        assert_eq!(prog.captured(), 50);
        assert_eq!(prog.stats().overwritten, 0);
        let nic = sim.node::<RnicNode>(srv);
        assert_eq!(nic.stats().cpu_packets, 0, "capture must not touch the CPU");
        let trace = read_remote_trace(nic, rkey, base, prog.ring_records(), prog.captured());
        assert_eq!(trace.len(), 50);
        for (i, r) in trace.iter().enumerate() {
            assert_eq!(r.seq, i as u64, "sequence gap");
            assert_eq!(
                r.flow.src_port,
                5000 + (i % 7) as u16,
                "wrong flow captured"
            );
            assert_eq!(
                r.frame_len as usize,
                100 + (i % 3) * 100,
                "wrong length captured"
            );
        }
        // Timestamps are monotone.
        assert!(trace.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn analysis_recovers_flow_structure() {
        use super::analysis::*;
        use extmem_types::TimeDelta;
        // Synthesize a trace: flow A = 10 x 1000B every 1us, flow B = one
        // 64B packet, all inside 10us.
        let fa = FiveTuple::new(1, 2, 10, 20, 17);
        let fb = FiveTuple::new(3, 4, 30, 40, 17);
        let mut trace: Vec<TraceRecord> = (0..10)
            .map(|i| TraceRecord {
                seq: i,
                at: Time::from_micros(i),
                flow: fa,
                frame_len: 1000,
            })
            .collect();
        trace.push(TraceRecord {
            seq: 10,
            at: Time::from_micros(5),
            flow: fb,
            frame_len: 64,
        });
        trace.sort_by_key(|r| r.at);

        let agg = per_flow(&trace);
        assert_eq!(
            agg[&fa],
            FlowAgg {
                packets: 10,
                bytes: 10_000
            }
        );
        assert_eq!(
            agg[&fb],
            FlowAgg {
                packets: 1,
                bytes: 64
            }
        );

        let top = top_k_by_bytes(&trace, 1);
        assert_eq!(top[0].0, fa);

        // 3us window holds 4 of A's packets (t, t+1, t+2, t+3) + maybe B.
        let burst = max_burst_bytes(&trace, TimeDelta::from_micros(3));
        assert_eq!(burst, 4 * 1000 + 64);

        assert_eq!(
            median_interarrival(&trace, &fa),
            Some(TimeDelta::from_micros(1))
        );
        assert_eq!(median_interarrival(&trace, &fb), None);
    }

    #[test]
    fn analysis_end_to_end_from_server_dram() {
        // Capture through the real pipeline, then analyze what the server
        // holds: per-flow counts must match what the source sent.
        let (mut sim, switch, srv, rkey, base) = rig(70, 4, 4096 * 32);
        sim.run_to_quiescence();
        let sw: &SwitchNode = sim.node(switch);
        let prog = sw.program::<TraceStoreProgram>();
        let nic = sim.node::<RnicNode>(srv);
        let trace = read_remote_trace(nic, rkey, base, prog.ring_records(), prog.captured());
        let agg = super::analysis::per_flow(&trace);
        assert_eq!(agg.len(), 7, "seven flows were sent");
        let total: u64 = agg.values().map(|a| a.packets).sum();
        assert_eq!(total, 70);
    }

    #[test]
    fn batching_amortizes_writes() {
        let (mut sim, switch, _, _, _) = rig(60, 10, 4096 * 32);
        sim.run_to_quiescence();
        let sw: &SwitchNode = sim.node(switch);
        let s = sw.program::<TraceStoreProgram>().stats();
        assert_eq!(s.captured, 60);
        assert!(
            s.writes <= 7,
            "10-record batches should need ~6 writes, got {}",
            s.writes
        );
    }

    #[test]
    fn ring_wrap_keeps_the_newest_window() {
        // Ring of 16 records, 40 events: the last 16 must be readable.
        let (mut sim, switch, srv, rkey, base) = rig(40, 4, 16 * 32);
        sim.run_to_quiescence();
        let sw: &SwitchNode = sim.node(switch);
        let prog = sw.program::<TraceStoreProgram>();
        assert_eq!(prog.stats().overwritten, 40 - 16);
        let nic = sim.node::<RnicNode>(srv);
        let trace = read_remote_trace(nic, rkey, base, prog.ring_records(), prog.captured());
        assert_eq!(trace.len(), 16);
        assert_eq!(trace[0].seq, 24);
        assert_eq!(trace[15].seq, 39);
    }

    #[test]
    #[should_panic(expected = "65-record batch exceeds the 2048 B MTU")]
    fn batches_over_the_mtu_are_refused() {
        let endpoint = |i| extmem_wire::roce::RoceEndpoint {
            mac: MacAddr::local(i),
            ip: 0x0a00_0000 + i,
        };
        let mut nic = RnicNode::new("tracesrv", RnicConfig::at(endpoint(3)));
        let ring = ByteSize::from_bytes(1 << 16);
        let channel = RdmaChannel::setup(endpoint(100), PortId(2), &mut nic, ring);
        let batch = MTU / RECORD_LEN + 1;
        TraceStoreProgram::new(Fib::new(8), channel, batch, TimeDelta::from_micros(20));
    }
}
