//! The CPU slow-path baseline the paper's lookup primitive replaces.
//!
//! §2.2: applications like NetCache and SilkRoad "typically fall back to
//! the software (i.e., either on server or switch's CPU) whenever the
//! memory in the data plane is insufficient … With the remote lookup table,
//! however, such slow-path forwarding through the software can be
//! eliminated or minimized."
//!
//! [`CpuSlowPathProgram`] models that fallback: the full table lives in
//! software; a cache miss punts the packet to a CPU that answers after a
//! configurable software latency (tens of microseconds: PCIe punt, kernel,
//! daemon, reinject) and with a bounded punt queue (overflow ⇒ drop).
//! Ablation A8 races it against the remote lookup table.

use crate::fib::Fib;
use crate::lookup::{flow_of, ActionEntry, ActionKind};
use extmem_switch::table::{ExactMatchTable, Replacement};
use extmem_switch::{PipelineProgram, SwitchCtx};
use extmem_types::{FiveTuple, IntMap, PortId, TimeDelta};
use extmem_wire::Packet;

/// Counters for the slow-path baseline.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SlowPathStats {
    /// Packets answered by the SRAM cache.
    pub cache_hits: u64,
    /// Packets punted to the CPU.
    pub punts: u64,
    /// Punts dropped because the punt queue was full.
    pub punt_drops: u64,
    /// Packets forwarded (hit or punted-and-returned).
    pub forwarded: u64,
}

/// The software-fallback pipeline: local cache, CPU for misses.
pub struct CpuSlowPathProgram {
    /// L2 forwarding.
    pub fib: Fib,
    /// The authoritative table, held in software (the CPU side).
    soft_table: IntMap<FiveTuple, ActionEntry>,
    cache: Option<ExactMatchTable<FiveTuple, ActionEntry>>,
    /// One-way-and-back software latency per punted packet.
    cpu_latency: TimeDelta,
    /// Punt-queue bound (packets in flight to the CPU).
    max_outstanding: usize,
    pending: IntMap<u64, Packet>,
    next_token: u64,
    stats: SlowPathStats,
}

impl CpuSlowPathProgram {
    /// Create the baseline. `cpu_latency` is the full punt round trip.
    pub fn new(
        fib: Fib,
        cache_capacity: Option<usize>,
        cpu_latency: TimeDelta,
        max_outstanding: usize,
    ) -> CpuSlowPathProgram {
        assert!(max_outstanding > 0);
        CpuSlowPathProgram {
            fib,
            soft_table: IntMap::default(),
            cache: cache_capacity.map(|c| ExactMatchTable::new(c, Replacement::Lru)),
            cpu_latency,
            max_outstanding,
            pending: IntMap::default(),
            next_token: 0,
            stats: SlowPathStats::default(),
        }
    }

    /// Control plane: install an entry in the software table.
    pub fn install(&mut self, flow: FiveTuple, action: ActionEntry) {
        self.soft_table.insert(flow, action);
    }

    /// Counters.
    pub fn stats(&self) -> SlowPathStats {
        self.stats
    }

    fn apply_and_forward(
        &mut self,
        ctx: &mut SwitchCtx<'_, '_, '_>,
        mut pkt: Packet,
        action: ActionEntry,
    ) {
        if action.kind != ActionKind::None {
            action.apply(&mut pkt);
        }
        let port = action.port_override.or_else(|| self.fib.egress_for(&pkt));
        if let Some(port) = port {
            self.stats.forwarded += 1;
            ctx.enqueue(port, pkt);
        }
    }
}

impl PipelineProgram for CpuSlowPathProgram {
    fn ingress(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, _in_port: PortId, pkt: Packet) {
        let Some(flow) = flow_of(&pkt) else {
            if let Some(port) = self.fib.egress_for(&pkt) {
                ctx.enqueue(port, pkt);
            }
            return;
        };
        if let Some(cache) = &mut self.cache {
            if let Some(&action) = cache.lookup(&flow) {
                self.stats.cache_hits += 1;
                self.apply_and_forward(ctx, pkt, action);
                return;
            }
        }
        // Miss: punt to the CPU.
        if self.pending.len() >= self.max_outstanding {
            self.stats.punt_drops += 1;
            return;
        }
        self.stats.punts += 1;
        let token = self.next_token;
        self.next_token += 1;
        self.pending.insert(token, pkt);
        ctx.schedule(self.cpu_latency, token);
    }

    fn on_timer(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, token: u64) {
        let Some(pkt) = self.pending.remove(&token) else {
            return;
        };
        let Some(flow) = flow_of(&pkt) else { return };
        let action = self
            .soft_table
            .get(&flow)
            .copied()
            .unwrap_or(ActionEntry::NONE);
        if let Some(cache) = &mut self.cache {
            cache.insert(flow, action);
        }
        self.apply_and_forward(ctx, pkt, action);
    }

    fn program_name(&self) -> &str {
        "cpu-slow-path-baseline"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use extmem_sim::{LinkSpec, Node, NodeCtx, SimBuilder, TxQueue};
    use extmem_switch::{SwitchConfig, SwitchNode};
    use extmem_types::Time;
    use extmem_wire::payload::{build_data_packet, parse_data_packet};
    use extmem_wire::MacAddr;

    struct Gen {
        n: u32,
        sent: u32,
        gap: TimeDelta,
        tx: TxQueue,
    }
    impl Node for Gen {
        fn on_packet(&mut self, _: &mut NodeCtx<'_>, _: PortId, _: Packet) {}
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _: u64) {
            if self.sent >= self.n {
                return;
            }
            let flow = FiveTuple::new(
                0x0a000001,
                0x0a000002,
                5000 + (self.sent % 3) as u16,
                80,
                17,
            );
            let pkt = build_data_packet(
                MacAddr::local(1),
                MacAddr::local(200),
                flow,
                self.sent % 3,
                self.sent / 3,
                ctx.now(),
                128,
            )
            .unwrap();
            self.sent += 1;
            self.tx.send(ctx, pkt);
            if self.sent < self.n {
                ctx.schedule(self.gap, 0);
            }
        }
        fn on_tx_done(&mut self, ctx: &mut NodeCtx<'_>, _: PortId) {
            self.tx.on_tx_done(ctx);
        }
        fn name(&self) -> &str {
            "gen"
        }
    }

    struct Sink {
        latency: Vec<TimeDelta>,
        dscp_ok: u64,
    }
    impl Node for Sink {
        fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, _: PortId, pkt: Packet) {
            if let Ok(Some(info)) = parse_data_packet(&pkt) {
                self.latency
                    .push(ctx.now().saturating_since(info.data.sent_at));
                if info.ipv4.dscp == 46 {
                    self.dscp_ok += 1;
                }
            }
        }
        fn name(&self) -> &str {
            "sink"
        }
    }

    #[test]
    fn misses_pay_the_cpu_latency_hits_do_not() {
        let mut fib = Fib::new(8);
        fib.install(MacAddr::local(1), PortId(0));
        fib.install(MacAddr::local(2), PortId(1));
        let mut prog = CpuSlowPathProgram::new(fib, Some(16), TimeDelta::from_micros(50), 1024);
        for i in 0..3u16 {
            let flow = FiveTuple::new(0x0a000001, 0x0a000002, 5000 + i, 80, 17);
            let mut act = ActionEntry::set_dscp(46);
            act.new_dst_mac = MacAddr::local(2);
            act.kind = ActionKind::SetDscp;
            prog.install(flow, act);
            // Route to the sink by overriding the egress port (the frame's
            // MAC is the virtual gateway).
            let mut act2 = ActionEntry::set_dscp(46);
            act2.port_override = Some(PortId(1));
            prog.install(flow, act2);
        }
        let mut b = SimBuilder::new(8);
        let switch = b.add_node(Box::new(SwitchNode::new(
            "tor",
            SwitchConfig::default(),
            Box::new(prog),
        )));
        // Spaced arrivals: the cache is warm before each flow repeats.
        let gen = b.add_node(Box::new(Gen {
            n: 60,
            sent: 0,
            gap: TimeDelta::from_micros(100),
            tx: TxQueue::new(PortId(0)),
        }));
        let sink = b.add_node(Box::new(Sink {
            latency: vec![],
            dscp_ok: 0,
        }));
        let link = LinkSpec::testbed_40g();
        b.connect(switch, PortId(0), gen, PortId(0), link);
        b.connect(switch, PortId(1), sink, PortId(0), link);
        let mut sim = b.build();
        sim.schedule_timer(gen, TimeDelta::ZERO, 0);
        sim.run_until(Time::from_millis(20));

        let sink = sim.node::<Sink>(sink);
        assert_eq!(sink.latency.len(), 60);
        assert_eq!(sink.dscp_ok, 60, "every packet must get its action");
        // First packet of each of the 3 flows punts (50us); the rest hit.
        let slow = sink
            .latency
            .iter()
            .filter(|d| d.as_micros_f64() > 40.0)
            .count();
        let fast = sink
            .latency
            .iter()
            .filter(|d| d.as_micros_f64() < 10.0)
            .count();
        assert_eq!(slow, 3, "exactly the cold packets pay the CPU trip");
        assert_eq!(fast, 57);
        let sw: &SwitchNode = sim.node(switch);
        let s = sw.program::<CpuSlowPathProgram>().stats();
        assert_eq!(s.punts, 3);
        assert_eq!(s.punt_drops, 0);
    }

    #[test]
    fn punt_queue_overflow_drops() {
        let mut fib = Fib::new(8);
        fib.install(MacAddr::local(1), PortId(0));
        fib.install(MacAddr::local(2), PortId(1));
        // No cache: everything punts; queue of 4.
        let prog = CpuSlowPathProgram::new(fib, None, TimeDelta::from_micros(100), 4);
        let mut b = SimBuilder::new(8);
        let switch = b.add_node(Box::new(SwitchNode::new(
            "tor",
            SwitchConfig::default(),
            Box::new(prog),
        )));
        let gen = b.add_node(Box::new(Gen {
            n: 40,
            sent: 0,
            gap: TimeDelta::from_micros(1),
            tx: TxQueue::new(PortId(0)),
        }));
        let sink = b.add_node(Box::new(Sink {
            latency: vec![],
            dscp_ok: 0,
        }));
        let link = LinkSpec::testbed_40g();
        b.connect(switch, PortId(0), gen, PortId(0), link);
        b.connect(switch, PortId(1), sink, PortId(0), link);
        let mut sim = b.build();
        sim.schedule_timer(gen, TimeDelta::ZERO, 0);
        sim.run_until(Time::from_millis(5));
        let sw: &SwitchNode = sim.node(switch);
        let s = sw.program::<CpuSlowPathProgram>().stats();
        assert!(
            s.punt_drops > 0,
            "bounded punt queue must drop under load: {s:?}"
        );
    }
}
