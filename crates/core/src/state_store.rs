//! The **state-store primitive** (§4): per-flow counters in remote DRAM,
//! updated with RDMA atomic Fetch-and-Add.
//!
//! "While an original packet is processed through the regular pipeline, the
//! primitive clones the original packet and truncates the entire headers
//! and payload of cloned packet to generate a packet for an RDMA
//! Fetch-and-Add request" — here the forwarding happens first and the FaA
//! request is generated alongside; the original packet's latency is
//! unaffected (verified by experiment E3's no-throughput-degradation
//! check).
//!
//! The remote region is an array of 64-bit counters, one per flow hash
//! slot. The issuing discipline (outstanding bound + local accumulation)
//! lives in [`crate::faa::FaaEngine`].

use crate::faa::{FaaEngine, FaaStats};
use crate::fib::Fib;
use crate::lookup::flow_of;
use extmem_rnic::RnicNode;
use extmem_switch::hash::flow_index;
use extmem_switch::{PipelineProgram, SwitchCtx};
use extmem_types::{IntMap, PortId, Rkey, TimeDelta};
use extmem_wire::roce::RocePacket;
use extmem_wire::Packet;

/// Timer token for the periodic flush/retransmit tick.
const TOKEN_TICK: u64 = 0x21;

/// The state-store pipeline program: forwards traffic normally and counts
/// every UDP flow packet into a remote counter.
pub struct StateStoreProgram {
    /// L2 forwarding.
    pub fib: Fib,
    engine: FaaEngine,
    counters: u64,
    tick_interval: TimeDelta,
    tick_armed: bool,
    /// Ground-truth per-slot counts maintained by the test oracle (the
    /// simulated equivalent of §5's "verify the accuracy of the value in
    /// the counter"). Not consulted by the data path.
    pub oracle: IntMap<u64, u64>,
    /// Packets forwarded.
    pub forwarded: u64,
}

impl StateStoreProgram {
    /// Create the program. The engine's channel region defines the counter
    /// count (`region_len / 8`).
    pub fn new(fib: Fib, engine: FaaEngine, tick_interval: TimeDelta) -> StateStoreProgram {
        let counters = engine.slots();
        StateStoreProgram {
            fib,
            engine,
            counters,
            tick_interval,
            tick_armed: false,
            oracle: IntMap::default(),
            forwarded: 0,
        }
    }

    /// Engine counters.
    pub fn faa_stats(&self) -> FaaStats {
        self.engine.stats()
    }

    /// The engine's replication pool (health/failover inspection).
    pub fn pool(&self) -> &crate::pool::ReplicatedPool {
        self.engine.pool()
    }

    /// Values not yet settled on the remote counters.
    pub fn in_transit(&self) -> u64 {
        self.engine.in_transit()
    }

    /// Values accumulated locally and not yet sent.
    pub fn pending_sum(&self) -> u64 {
        self.engine.pending_sum()
    }

    /// Whether every update has been flushed and acknowledged.
    pub fn is_quiescent(&self) -> bool {
        self.engine.is_quiescent()
    }

    /// Whether the reliability layer gave up and updates accumulate
    /// locally.
    pub fn is_degraded(&self) -> bool {
        self.engine.is_degraded()
    }

    /// The counter slot a flow maps to.
    pub fn slot_of(&self, flow: &extmem_types::FiveTuple) -> u64 {
        flow_index(flow, self.counters)
    }
}

impl PipelineProgram for StateStoreProgram {
    fn ingress(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, in_port: PortId, pkt: Packet) {
        if !self.tick_armed {
            self.tick_armed = true;
            ctx.schedule(self.tick_interval, TOKEN_TICK);
        }
        if self.engine.owns_port(in_port) {
            if let Ok(Some(roce)) = RocePacket::parse(&pkt) {
                self.engine.on_roce(ctx, in_port, &roce);
                return;
            }
        }
        // Forward through the regular pipeline first (the original packet
        // is never delayed by the telemetry path).
        let flow = flow_of(&pkt);
        if let Some(port) = self.fib.egress_for(&pkt) {
            self.forwarded += 1;
            ctx.enqueue(port, pkt);
        }
        // Then update the remote counter from the (conceptual) clone.
        if let Some(flow) = flow {
            let slot = flow_index(&flow, self.counters);
            *self.oracle.entry(slot).or_insert(0) += 1;
            self.engine.add(ctx, slot, 1);
        }
    }

    fn on_timer(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, token: u64) {
        if token == TOKEN_TICK {
            self.engine.flush(ctx);
            self.engine.tick(ctx);
            ctx.schedule(self.tick_interval, TOKEN_TICK);
        } else {
            self.engine.on_timer(ctx, token);
        }
    }

    fn program_name(&self) -> &str {
        "state-store-primitive"
    }
}

/// Control plane: read all remote counters from the memory server (the
/// operator running estimation jobs over the state store, §2.3).
pub fn read_remote_counters(nic: &RnicNode, rkey: Rkey, base_va: u64, counters: u64) -> Vec<u64> {
    let region = nic.region(rkey);
    (0..counters)
        .map(|i| {
            let b = region.read(base_va + i * 8, 8).expect("counter in bounds");
            u64::from_be_bytes(b.try_into().unwrap())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::RdmaChannel;
    use crate::faa::FaaConfig;
    use extmem_rnic::{RnicConfig, RnicNode};
    use extmem_sim::{LinkSpec, Node, NodeCtx, SimBuilder, Simulator, TxQueue};
    use extmem_switch::{SwitchConfig, SwitchNode};
    use extmem_types::{ByteSize, FiveTuple, NodeId, Time};
    use extmem_wire::payload::build_data_packet;
    use extmem_wire::MacAddr;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Sends packets from a set of flows in a deterministic random order.
    struct MultiFlowSource {
        flows: Vec<FiveTuple>,
        n: u32,
        sent: u32,
        interval: TimeDelta,
        rng: StdRng,
        tx: TxQueue,
    }

    impl Node for MultiFlowSource {
        fn on_packet(&mut self, _: &mut NodeCtx<'_>, _: PortId, _: Packet) {}
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _: u64) {
            if self.sent >= self.n {
                return;
            }
            let f = self.flows[self.rng.gen_range(0..self.flows.len())];
            let pkt = build_data_packet(
                MacAddr::local(1),
                MacAddr::local(2),
                f,
                0,
                self.sent,
                ctx.now(),
                256,
            )
            .unwrap();
            self.sent += 1;
            self.tx.send(ctx, pkt);
            if self.sent < self.n {
                ctx.schedule(self.interval, 0);
            }
        }
        fn on_tx_done(&mut self, ctx: &mut NodeCtx<'_>, _: PortId) {
            self.tx.on_tx_done(ctx);
        }
        fn name(&self) -> &str {
            "multiflow"
        }
    }

    struct Sink {
        rx: u64,
    }
    impl Node for Sink {
        fn on_packet(&mut self, _: &mut NodeCtx<'_>, _: PortId, _: Packet) {
            self.rx += 1;
        }
        fn name(&self) -> &str {
            "sink"
        }
    }

    struct Rig {
        sim: Simulator,
        switch: NodeId,
        memsrv: NodeId,
        sink: NodeId,
        rkey: Rkey,
        base_va: u64,
        counters: u64,
    }

    fn rig(config: FaaConfig, n_packets: u32, n_flows: usize, gap_ns: u64, seed: u64) -> Rig {
        let switch_ep = extmem_wire::roce::RoceEndpoint {
            mac: MacAddr::local(100),
            ip: 0x0a0000fe,
        };
        let server_ep = extmem_wire::roce::RoceEndpoint {
            mac: MacAddr::local(3),
            ip: 0x0a000003,
        };
        let mut nic = RnicNode::new("memsrv", RnicConfig::at(server_ep));
        let counters = 1024u64;
        let channel = RdmaChannel::setup(
            switch_ep,
            PortId(2),
            &mut nic,
            ByteSize::from_bytes(counters * 8),
        );
        let rkey = channel.rkey;
        let base_va = channel.base_va;

        let mut fib = Fib::new(8);
        fib.install(MacAddr::local(1), PortId(0));
        fib.install(MacAddr::local(2), PortId(1));
        let engine = FaaEngine::new(channel, config);
        let prog = StateStoreProgram::new(fib, engine, TimeDelta::from_micros(20));

        let flows: Vec<FiveTuple> = (0..n_flows)
            .map(|i| FiveTuple::new(0x0a000001, 0x0a000002, 5000 + i as u16, 9000, 17))
            .collect();

        let mut b = SimBuilder::new(seed);
        let source = b.add_node(Box::new(MultiFlowSource {
            flows,
            n: n_packets,
            sent: 0,
            interval: TimeDelta::from_nanos(gap_ns),
            rng: StdRng::seed_from_u64(seed ^ 0x5eed),
            tx: TxQueue::new(PortId(0)),
        }));
        let sink = b.add_node(Box::new(Sink { rx: 0 }));
        let switch = b.add_node(Box::new(SwitchNode::new(
            "tor",
            SwitchConfig::default(),
            Box::new(prog),
        )));
        let memsrv = b.add_node(Box::new(nic));
        b.connect(
            switch,
            PortId(0),
            source,
            PortId(0),
            LinkSpec::testbed_40g(),
        );
        b.connect(switch, PortId(1), sink, PortId(0), LinkSpec::testbed_40g());
        b.connect(
            switch,
            PortId(2),
            memsrv,
            PortId(0),
            LinkSpec::testbed_40g(),
        );
        let mut sim = b.build();
        sim.schedule_timer(source, TimeDelta::ZERO, 0);
        Rig {
            sim,
            switch,
            memsrv,
            sink,
            rkey,
            base_va,
            counters,
        }
    }

    fn run_and_settle(r: &mut Rig) {
        // Run the workload and several flush ticks; the tick timer re-arms
        // forever, so run until a far deadline instead of quiescence.
        r.sim.run_until(Time::from_millis(50));
    }

    fn remote_plus_transit_equals_oracle(r: &Rig) {
        let sw: &SwitchNode = r.sim.node::<SwitchNode>(r.switch);
        let prog = sw.program::<StateStoreProgram>();
        let nic = r.sim.node::<RnicNode>(r.memsrv);
        let remote = read_remote_counters(nic, r.rkey, r.base_va, r.counters);
        let oracle_total: u64 = prog.oracle.values().sum();
        let remote_total: u64 = remote.iter().sum();
        assert_eq!(
            remote_total + prog.in_transit(),
            oracle_total,
            "conservation violated"
        );
    }

    #[test]
    fn counters_are_exactly_accurate_after_settling() {
        let mut r = rig(FaaConfig::default(), 500, 10, 500, 42);
        run_and_settle(&mut r);
        let sw: &SwitchNode = r.sim.node::<SwitchNode>(r.switch);
        let prog = sw.program::<StateStoreProgram>();
        assert!(prog.is_quiescent(), "updates still pending after settle");
        assert_eq!(prog.forwarded, 500);
        assert_eq!(r.sim.node::<Sink>(r.sink).rx, 500);

        // §5: "the updated value is 100% accurate".
        let nic = r.sim.node::<RnicNode>(r.memsrv);
        let remote = read_remote_counters(nic, r.rkey, r.base_va, r.counters);
        for (slot, &expect) in &prog.oracle {
            assert_eq!(remote[*slot as usize], expect, "slot {slot} wrong");
        }
        assert_eq!(remote.iter().sum::<u64>(), 500);
        assert_eq!(nic.stats().cpu_packets, 0);
        assert_eq!(
            nic.stats().atomic_overflow_drops,
            0,
            "switch bound must protect the NIC"
        );
    }

    #[test]
    fn accumulation_kicks_in_at_line_rate() {
        // 256B packets every ~60ns (faster than the NIC's atomic rate):
        // the outstanding bound forces accumulation; total FaA packets sent
        // must be far fewer than updates, yet the final counts exact.
        let mut r = rig(FaaConfig::default(), 2000, 4, 60, 7);
        run_and_settle(&mut r);
        let sw: &SwitchNode = r.sim.node::<SwitchNode>(r.switch);
        let prog = sw.program::<StateStoreProgram>();
        let s = prog.faa_stats();
        assert_eq!(s.updates, 2000);
        assert!(
            s.merged > 0,
            "line-rate traffic must trigger accumulation: {s:?}"
        );
        assert!(s.faa_sent < 2000, "batching must reduce FaA count: {s:?}");
        assert!(prog.is_quiescent());
        remote_plus_transit_equals_oracle(&r);
        let nic = r.sim.node::<RnicNode>(r.memsrv);
        let remote = read_remote_counters(nic, r.rkey, r.base_va, r.counters);
        assert_eq!(
            remote.iter().sum::<u64>(),
            2000,
            "accuracy must survive accumulation"
        );
    }

    #[test]
    fn batching_reduces_faa_traffic_further() {
        let mut r1 = rig(
            FaaConfig {
                min_batch: 1,
                ..Default::default()
            },
            1000,
            4,
            60,
            9,
        );
        run_and_settle(&mut r1);
        let mut r8 = rig(
            FaaConfig {
                min_batch: 8,
                ..Default::default()
            },
            1000,
            4,
            60,
            9,
        );
        run_and_settle(&mut r8);
        let faa1 = {
            let sw: &SwitchNode = r1.sim.node::<SwitchNode>(r1.switch);
            sw.program::<StateStoreProgram>().faa_stats().faa_sent
        };
        let faa8 = {
            let sw: &SwitchNode = r8.sim.node::<SwitchNode>(r8.switch);
            sw.program::<StateStoreProgram>().faa_stats().faa_sent
        };
        assert!(
            faa8 < faa1,
            "min_batch=8 sent {faa8}, min_batch=1 sent {faa1}"
        );
        // Accuracy unaffected after flush.
        remote_plus_transit_equals_oracle(&r8);
        let sw: &SwitchNode = r8.sim.node::<SwitchNode>(r8.switch);
        assert!(sw.program::<StateStoreProgram>().is_quiescent());
    }

    #[test]
    fn conservation_holds_mid_flight() {
        // Stop the clock mid-run and check the two conservation bounds at
        // arbitrary instants: `remote + pending <= truth` (executed plus
        // never-sent can't exceed ground truth) and `truth <= remote +
        // in_transit` (nothing vanishes; an outstanding value may overlap
        // `remote` during its execute→ACK window, hence the inequality).
        let mut r = rig(FaaConfig::default(), 300, 3, 100, 3);
        for deadline_us in [50, 120, 300, 1000] {
            r.sim.run_until(Time::from_micros(deadline_us));
            let sw: &SwitchNode = r.sim.node::<SwitchNode>(r.switch);
            let prog = sw.program::<StateStoreProgram>();
            let nic = r.sim.node::<RnicNode>(r.memsrv);
            let remote: u64 = read_remote_counters(nic, r.rkey, r.base_va, r.counters)
                .iter()
                .sum();
            let oracle: u64 = prog.oracle.values().sum();
            assert!(remote + prog.pending_sum() <= oracle, "overcount!");
            assert!(oracle <= remote + prog.in_transit(), "updates vanished!");
        }
        run_and_settle(&mut r);
        remote_plus_transit_equals_oracle(&r);
    }

    #[test]
    fn reliable_mode_survives_a_lossy_channel() {
        // Build a rig with 2% drop on the server link, reliable mode on:
        // the remote counters must still be exact.
        let switch_ep = extmem_wire::roce::RoceEndpoint {
            mac: MacAddr::local(100),
            ip: 0x0a0000fe,
        };
        let server_ep = extmem_wire::roce::RoceEndpoint {
            mac: MacAddr::local(3),
            ip: 0x0a000003,
        };
        let mut nic = RnicNode::new("memsrv", RnicConfig::at(server_ep));
        let counters = 64u64;
        let channel = RdmaChannel::setup(
            switch_ep,
            PortId(2),
            &mut nic,
            ByteSize::from_bytes(counters * 8),
        );
        let rkey = channel.rkey;
        let base_va = channel.base_va;
        let mut fib = Fib::new(8);
        fib.install(MacAddr::local(1), PortId(0));
        fib.install(MacAddr::local(2), PortId(1));
        let engine = FaaEngine::new(
            channel,
            FaaConfig {
                reliable: true,
                rto: TimeDelta::from_micros(50),
                ..Default::default()
            },
        );
        let prog = StateStoreProgram::new(fib, engine, TimeDelta::from_micros(20));

        let mut b = SimBuilder::new(77);
        let source = b.add_node(Box::new(MultiFlowSource {
            flows: vec![FiveTuple::new(0x0a000001, 0x0a000002, 5000, 9000, 17)],
            n: 400,
            sent: 0,
            interval: TimeDelta::from_nanos(400),
            rng: StdRng::seed_from_u64(1),
            tx: TxQueue::new(PortId(0)),
        }));
        let sink = b.add_node(Box::new(Sink { rx: 0 }));
        let switch = b.add_node(Box::new(SwitchNode::new(
            "tor",
            SwitchConfig::default(),
            Box::new(prog),
        )));
        let memsrv = b.add_node(Box::new(nic));
        b.connect(
            switch,
            PortId(0),
            source,
            PortId(0),
            LinkSpec::testbed_40g(),
        );
        b.connect(switch, PortId(1), sink, PortId(0), LinkSpec::testbed_40g());
        let mut lossy = LinkSpec::testbed_40g();
        lossy.faults = extmem_sim::FaultSpec::drop(0.02);
        b.connect(switch, PortId(2), memsrv, PortId(0), lossy);
        let mut sim = b.build();
        sim.schedule_timer(source, TimeDelta::ZERO, 0);
        sim.run_until(Time::from_millis(20));

        let sw: &SwitchNode = sim.node::<SwitchNode>(switch);
        let prog = sw.program::<StateStoreProgram>();
        let s = prog.faa_stats();
        assert!(
            s.retransmits > 0 || s.naks > 0,
            "loss should have triggered recovery: {s:?}"
        );
        assert!(
            prog.is_quiescent(),
            "reliable mode must eventually settle: {s:?}"
        );
        let nic = sim.node::<RnicNode>(memsrv);
        let remote: u64 = read_remote_counters(nic, rkey, base_va, counters)
            .iter()
            .sum();
        let oracle: u64 = prog.oracle.values().sum();
        assert_eq!(remote, oracle, "reliable mode must deliver exact counts");
    }

    #[test]
    fn best_effort_mode_undercounts_on_loss() {
        // Same loss, reliability off: the §7 observation that "an RDMA
        // packet drop would affect the accuracy of the state".
        let switch_ep = extmem_wire::roce::RoceEndpoint {
            mac: MacAddr::local(100),
            ip: 0x0a0000fe,
        };
        let server_ep = extmem_wire::roce::RoceEndpoint {
            mac: MacAddr::local(3),
            ip: 0x0a000003,
        };
        let mut nic = RnicNode::new("memsrv", RnicConfig::at(server_ep));
        let counters = 64u64;
        let channel = RdmaChannel::setup(
            switch_ep,
            PortId(2),
            &mut nic,
            ByteSize::from_bytes(counters * 8),
        );
        let rkey = channel.rkey;
        let base_va = channel.base_va;
        let mut fib = Fib::new(8);
        fib.install(MacAddr::local(1), PortId(0));
        fib.install(MacAddr::local(2), PortId(1));
        let engine = FaaEngine::new(channel, FaaConfig::default());
        let prog = StateStoreProgram::new(fib, engine, TimeDelta::from_micros(20));

        // Seed picked so the drop pattern undercounts without tripping the
        // pool's failure detector — a burst of consecutive timeouts would
        // declare the sole server down and freeze the remote counter, which
        // is a different scenario than the one this test pins.
        let mut b = SimBuilder::new(81);
        let source = b.add_node(Box::new(MultiFlowSource {
            flows: vec![FiveTuple::new(0x0a000001, 0x0a000002, 5000, 9000, 17)],
            n: 400,
            sent: 0,
            interval: TimeDelta::from_nanos(400),
            rng: StdRng::seed_from_u64(1),
            tx: TxQueue::new(PortId(0)),
        }));
        let sink = b.add_node(Box::new(Sink { rx: 0 }));
        let switch = b.add_node(Box::new(SwitchNode::new(
            "tor",
            SwitchConfig::default(),
            Box::new(prog),
        )));
        let memsrv = b.add_node(Box::new(nic));
        b.connect(
            switch,
            PortId(0),
            source,
            PortId(0),
            LinkSpec::testbed_40g(),
        );
        b.connect(switch, PortId(1), sink, PortId(0), LinkSpec::testbed_40g());
        let mut lossy = LinkSpec::testbed_40g();
        lossy.faults = extmem_sim::FaultSpec::drop(0.05);
        b.connect(switch, PortId(2), memsrv, PortId(0), lossy);
        let mut sim = b.build();
        sim.schedule_timer(source, TimeDelta::ZERO, 0);
        sim.run_until(Time::from_millis(20));

        let nic = sim.node::<RnicNode>(memsrv);
        let remote: u64 = read_remote_counters(nic, rkey, base_va, counters)
            .iter()
            .sum();
        let sw: &SwitchNode = sim.node::<SwitchNode>(switch);
        let prog = sw.program::<StateStoreProgram>();
        let oracle: u64 = prog.oracle.values().sum();
        assert!(
            remote < oracle,
            "5% loss without reliability must undercount"
        );
        assert!(
            remote > oracle / 2,
            "but most updates should land: remote={remote} oracle={oracle}"
        );
    }
}
