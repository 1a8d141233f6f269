//! The **state-store primitive**'s control plane (§4): per-flow counters
//! in remote DRAM, read back by the operator.
//!
//! The data plane is [`crate::shard::ShardedStateStoreProgram`]: one shard
//! over one memory server is the paper's store, more shards spread the
//! counters over more servers. The remote region is an array of 64-bit
//! counters, one per flow hash slot.

use extmem_rnic::RnicNode;
use extmem_types::Rkey;

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
    use crate::faa::{FaaConfig, FaaEngine};
    use crate::fib::Fib;
    use crate::shard::ShardedStateStoreProgram;
    use extmem_rnic::RnicConfig;
    use extmem_sim::{LinkSpec, Node, NodeCtx, SimBuilder, Simulator, TxQueue};
    use extmem_switch::{SwitchConfig, SwitchNode};
    use extmem_types::{ByteSize, FiveTuple, NodeId, PortId, Time, TimeDelta};
    use extmem_wire::payload::build_data_packet;
    use extmem_wire::{MacAddr, Packet};
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

    impl Rig {
        /// The store: one shard over the one memory server.
        fn prog(&self) -> &ShardedStateStoreProgram {
            self.sim.node::<SwitchNode>(self.switch).program()
        }

        /// Every remote counter, read back by the control plane.
        fn remote(&self) -> Vec<u64> {
            let nic = self.sim.node::<RnicNode>(self.memsrv);
            read_remote_counters(nic, self.rkey, self.base_va, self.counters)
        }
    }

    /// source -> [p0 SWITCH p1] -> sink, the memory server on port 2
    /// behind a link dropping `drop` of its frames; `n_packets` over
    /// `n_flows` flows, one every `gap_ns`, counted into `counters` slots.
    fn rig_on(
        config: FaaConfig,
        counters: u64,
        n_packets: u32,
        n_flows: usize,
        gap_ns: u64,
        seed: u64,
        drop: f64,
    ) -> Rig {
        let switch_ep = extmem_wire::roce::RoceEndpoint {
            mac: MacAddr::local(100),
            ip: 0x0a0000fe,
        };
        let server_ep = extmem_wire::roce::RoceEndpoint {
            mac: MacAddr::local(3),
            ip: 0x0a000003,
        };
        let mut nic = RnicNode::new("memsrv", RnicConfig::at(server_ep));
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
        let shards = vec![(0, FaaEngine::new(channel, config), true)];
        let prog = ShardedStateStoreProgram::new(fib, shards, 1, TimeDelta::from_micros(20));

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
        let mut server_link = LinkSpec::testbed_40g();
        if drop > 0.0 {
            server_link.faults = extmem_sim::FaultSpec::drop(drop);
        }
        b.connect(switch, PortId(2), memsrv, PortId(0), server_link);
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

    /// A loss-free rig over 1024 counters.
    fn rig(config: FaaConfig, n_packets: u32, n_flows: usize, gap_ns: u64, seed: u64) -> Rig {
        rig_on(config, 1024, n_packets, n_flows, gap_ns, seed, 0.0)
    }

    /// One flow's 400 packets, one every 400 ns, counted into 64 slots
    /// over a server link dropping `drop`; run for 20 ms.
    fn lossy(config: FaaConfig, seed: u64, drop: f64) -> Rig {
        let mut r = rig_on(config, 64, 400, 1, 400, seed, drop);
        r.sim.run_until(Time::from_millis(20));
        r
    }

    fn run_and_settle(r: &mut Rig) {
        // Run the workload and several flush ticks; the tick timer re-arms
        // forever, so run until a far deadline instead of quiescence.
        r.sim.run_until(Time::from_millis(50));
    }

    fn remote_plus_transit_equals_oracle(r: &Rig) {
        let prog = r.prog();
        let oracle_total: u64 = prog.oracle.values().sum();
        let remote_total: u64 = r.remote().iter().sum();
        assert_eq!(
            remote_total + prog.engine(0).in_transit(),
            oracle_total,
            "conservation violated"
        );
    }

    #[test]
    fn counters_are_exactly_accurate_after_settling() {
        let mut r = rig(FaaConfig::default(), 500, 10, 500, 42);
        run_and_settle(&mut r);
        let prog = r.prog();
        assert!(prog.is_quiescent(), "updates still pending after settle");
        assert_eq!(prog.forwarded, 500);
        assert_eq!(r.sim.node::<Sink>(r.sink).rx, 500);

        // §5: "the updated value is 100% accurate".
        let remote = r.remote();
        for (&(shard, slot), &expect) in &prog.oracle {
            assert_eq!(shard, 0);
            assert_eq!(remote[slot as usize], expect, "slot {slot} wrong");
        }
        assert_eq!(remote.iter().sum::<u64>(), 500);
        let nic = r.sim.node::<RnicNode>(r.memsrv);
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
        let prog = r.prog();
        let s = prog.engine(0).stats();
        assert_eq!(s.updates, 2000);
        assert!(
            s.merged > 0,
            "line-rate traffic must trigger accumulation: {s:?}"
        );
        assert!(s.faa_sent < 2000, "batching must reduce FaA count: {s:?}");
        assert!(prog.is_quiescent());
        remote_plus_transit_equals_oracle(&r);
        assert_eq!(
            r.remote().iter().sum::<u64>(),
            2000,
            "accuracy must survive accumulation"
        );
    }

    #[test]
    fn batching_reduces_faa_traffic_further() {
        let batched = |min_batch| {
            let config = FaaConfig {
                min_batch,
                ..Default::default()
            };
            let mut r = rig(config, 1000, 4, 60, 9);
            run_and_settle(&mut r);
            r
        };
        let (r1, r8) = (batched(1), batched(8));
        let faa1 = r1.prog().engine(0).stats().faa_sent;
        let faa8 = r8.prog().engine(0).stats().faa_sent;
        assert!(
            faa8 < faa1,
            "min_batch=8 sent {faa8}, min_batch=1 sent {faa1}"
        );
        // Accuracy unaffected after flush.
        remote_plus_transit_equals_oracle(&r8);
        assert!(r8.prog().is_quiescent());
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
            let engine = r.prog().engine(0);
            let remote: u64 = r.remote().iter().sum();
            let oracle: u64 = r.prog().oracle.values().sum();
            assert!(remote + engine.pending_sum() <= oracle, "overcount!");
            assert!(oracle <= remote + engine.in_transit(), "updates vanished!");
        }
        run_and_settle(&mut r);
        remote_plus_transit_equals_oracle(&r);
    }

    #[test]
    fn reliable_mode_survives_a_lossy_channel() {
        // 2% drop on the server link, reliable mode on: the remote
        // counters must still be exact.
        let config = FaaConfig {
            reliable: true,
            rto: TimeDelta::from_micros(50),
            ..Default::default()
        };
        let r = lossy(config, 77, 0.02);
        let prog = r.prog();
        let s = prog.engine(0).stats();
        assert!(
            s.channel.retransmits > 0 || s.channel.naks > 0,
            "loss should have triggered recovery: {s:?}"
        );
        assert!(
            prog.is_quiescent(),
            "reliable mode must eventually settle: {s:?}"
        );
        let remote: u64 = r.remote().iter().sum();
        let oracle: u64 = prog.oracle.values().sum();
        assert_eq!(remote, oracle, "reliable mode must deliver exact counts");
    }

    #[test]
    fn best_effort_mode_undercounts_on_loss() {
        // Same loss, reliability off: the §7 observation that "an RDMA
        // packet drop would affect the accuracy of the state".
        // Seed picked so the drop pattern undercounts without tripping the
        // pool's failure detector — a burst of consecutive timeouts would
        // declare the sole server down and freeze the remote counter, which
        // is a different scenario than the one this test pins.
        let r = lossy(FaaConfig::default(), 81, 0.05);
        let remote: u64 = r.remote().iter().sum();
        let oracle: u64 = r.prog().oracle.values().sum();
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
