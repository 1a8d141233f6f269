//! Running multiple primitives on one switch.
//!
//! §1 motivates the memory squeeze precisely because applications coexist:
//! "These issues are further exacerbated when these applications run on the
//! same switch and must share memory with each other and basic forwarding."
//! With remote memory, each application gets its own channel to its own
//! region — possibly on different servers — and they compose freely.
//!
//! [`GatewayTelemetryProgram`] is the worked example: the §2.2 bare-metal
//! gateway (remote lookup table) and the §2.3 per-flow telemetry (remote
//! Fetch-and-Add counters) in a single pipeline. Each packet is counted
//! *and* translated; the two channels are demultiplexed by server port.

use crate::faa::{FaaEngine, FaaStats};
use crate::lookup::{flow_of, LookupStats, LookupTableProgram};
use extmem_switch::hash::flow_index;
use extmem_switch::{PipelineProgram, SwitchCtx};
use extmem_types::{IntMap, PortId, TimeDelta};
use extmem_wire::roce::RocePacket;
use extmem_wire::Packet;

/// Timer token for the telemetry flush tick (distinct from any token the
/// embedded lookup program uses).
const TOKEN_TICK: u64 = 0x41;

/// The combined gateway + telemetry pipeline.
pub struct GatewayTelemetryProgram {
    /// The §2.2 lookup half (owns the FIB and its own channel).
    pub lookup: LookupTableProgram,
    engine: FaaEngine,
    counters: u64,
    tick_interval: TimeDelta,
    tick_armed: bool,
    /// Ground truth per counter slot (test oracle, not on the data path).
    pub oracle: IntMap<u64, u64>,
}

impl GatewayTelemetryProgram {
    /// Combine a lookup program and a Fetch-and-Add engine. Their channels
    /// must point at different switch ports.
    pub fn new(
        lookup: LookupTableProgram,
        engine: FaaEngine,
        tick_interval: TimeDelta,
    ) -> GatewayTelemetryProgram {
        GatewayTelemetryProgram {
            lookup,
            counters: engine.slots(),
            engine,
            tick_interval,
            tick_armed: false,
            oracle: IntMap::default(),
        }
    }

    /// Telemetry-engine counters.
    pub fn faa_stats(&self) -> FaaStats {
        self.engine.stats()
    }

    /// Lookup counters.
    pub fn lookup_stats(&self) -> LookupStats {
        self.lookup.stats()
    }

    /// Whether all counter updates have settled remotely.
    pub fn telemetry_quiescent(&self) -> bool {
        self.engine.is_quiescent()
    }
}

impl PipelineProgram for GatewayTelemetryProgram {
    fn ingress(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, in_port: PortId, pkt: Packet) {
        if !self.tick_armed {
            self.tick_armed = true;
            ctx.schedule(self.tick_interval, TOKEN_TICK);
        }
        // Telemetry channel responses first; everything else (including the
        // lookup channel's responses) belongs to the lookup half.
        if self.engine.owns_port(in_port) {
            if let Ok(Some(roce)) = RocePacket::parse(&pkt) {
                self.engine.on_roce(ctx, in_port, &roce);
                return;
            }
        }
        // Count the packet (workload traffic only), then let the gateway
        // half translate and forward it.
        if !self.engine.owns_port(in_port) {
            if let Some(flow) = flow_of(&pkt) {
                // Only count client traffic, not RoCE from the table server.
                if !extmem_wire::roce::looks_like_rocev2(&pkt) {
                    let slot = flow_index(&flow, self.counters);
                    *self.oracle.entry(slot).or_insert(0) += 1;
                    self.engine.add(ctx, slot, 1);
                }
            }
        }
        self.lookup.ingress(ctx, in_port, pkt);
    }

    fn on_timer(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, token: u64) {
        if token == TOKEN_TICK {
            self.engine.flush(ctx);
            self.engine.tick(ctx);
            ctx.schedule(self.tick_interval, TOKEN_TICK);
        } else if !self.engine.on_timer(ctx, token) {
            self.lookup.on_timer(ctx, token);
        }
    }

    fn on_dequeue(&mut self, ctx: &mut SwitchCtx<'_, '_, '_>, port: PortId) {
        self.lookup.on_dequeue(ctx, port);
    }

    fn program_name(&self) -> &str {
        "gateway+telemetry-composite"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::RdmaChannel;
    use crate::faa::FaaConfig;
    use crate::lookup::{install_remote_action, ActionEntry};
    use crate::Fib;
    use extmem_rnic::{RnicConfig, RnicNode};
    use extmem_sim::{LinkSpec, Node, NodeCtx, SimBuilder, TxQueue};
    use extmem_switch::{SwitchConfig, SwitchNode};
    use extmem_types::{ByteSize, FiveTuple, Time};
    use extmem_wire::payload::{build_data_packet, parse_data_packet};
    use extmem_wire::MacAddr;

    struct Gen {
        flows: Vec<FiveTuple>,
        n: u32,
        sent: u32,
        tx: TxQueue,
    }
    impl Node for Gen {
        fn on_packet(&mut self, _: &mut NodeCtx<'_>, _: PortId, _: Packet) {}
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _: u64) {
            if self.sent >= self.n {
                return;
            }
            let f = self.flows[(self.sent as usize) % self.flows.len()];
            let pkt = build_data_packet(
                MacAddr::local(1),
                MacAddr::local(200),
                f,
                (self.sent as usize % self.flows.len()) as u32,
                self.sent / self.flows.len() as u32,
                ctx.now(),
                256,
            )
            .unwrap();
            self.sent += 1;
            self.tx.send(ctx, pkt);
            if self.sent < self.n {
                ctx.schedule(TimeDelta::from_nanos(400), 0);
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
        got: u64,
        translated: u64,
    }
    impl Node for Sink {
        fn on_packet(&mut self, _: &mut NodeCtx<'_>, _: PortId, pkt: Packet) {
            self.got += 1;
            if let Ok(Some(info)) = parse_data_packet(&pkt) {
                if info.ipv4.dst == 0x0a000002 {
                    self.translated += 1;
                }
            }
        }
        fn name(&self) -> &str {
            "sink"
        }
    }

    /// Loss on the telemetry channel must not perturb the gateway: the
    /// reliable engine recovers its counts while translation continues
    /// untouched.
    #[test]
    fn telemetry_loss_does_not_disturb_the_gateway() {
        let switch_ep = extmem_wire::roce::RoceEndpoint {
            mac: MacAddr::local(100),
            ip: 0x0a0000fe,
        };
        let mut table_nic = RnicNode::new(
            "tablesrv",
            RnicConfig::at(extmem_wire::roce::RoceEndpoint {
                mac: MacAddr::local(3),
                ip: 0x0a000003,
            }),
        );
        let table_channel =
            RdmaChannel::setup(switch_ep, PortId(2), &mut table_nic, ByteSize::from_mb(8));
        let mut tel_nic = RnicNode::new(
            "telemetrysrv",
            RnicConfig::at(extmem_wire::roce::RoceEndpoint {
                mac: MacAddr::local(4),
                ip: 0x0a000004,
            }),
        );
        let counters = 256u64;
        let tel_channel = RdmaChannel::setup(
            switch_ep,
            PortId(3),
            &mut tel_nic,
            ByteSize::from_bytes(counters * 8),
        );
        let tel_rkey = tel_channel.rkey;
        let tel_base = tel_channel.base_va;

        let flows: Vec<FiveTuple> = (0..4)
            .map(|i| FiveTuple::new(0x0a000001, 0x0a010000 + i, 7000 + i as u16, 80, 17))
            .collect();
        for f in &flows {
            install_remote_action(
                &mut table_nic,
                &table_channel,
                2048,
                f,
                ActionEntry::translate(0x0a000002, MacAddr::local(2)),
            );
        }
        let mut fib = Fib::new(8);
        fib.install(MacAddr::local(1), PortId(0));
        fib.install(MacAddr::local(2), PortId(1));
        let lookup = LookupTableProgram::new(fib, table_channel, 2048, Some(16));
        let engine = FaaEngine::new(
            tel_channel,
            FaaConfig {
                reliable: true,
                rto: extmem_types::TimeDelta::from_micros(50),
                ..Default::default()
            },
        );
        let prog = GatewayTelemetryProgram::new(lookup, engine, TimeDelta::from_micros(30));

        let mut b = SimBuilder::new(99);
        let switch = b.add_node(Box::new(SwitchNode::new(
            "tor",
            SwitchConfig::default(),
            Box::new(prog),
        )));
        let gen = b.add_node(Box::new(Gen {
            flows: flows.clone(),
            n: 400,
            sent: 0,
            tx: TxQueue::new(PortId(0)),
        }));
        let sink = b.add_node(Box::new(Sink {
            got: 0,
            translated: 0,
        }));
        let link = LinkSpec::testbed_40g();
        b.connect(switch, PortId(0), gen, PortId(0), link);
        b.connect(switch, PortId(1), sink, PortId(0), link);
        let table_srv = b.add_node(Box::new(table_nic));
        b.connect(switch, PortId(2), table_srv, PortId(0), link);
        let tel_srv = b.add_node(Box::new(tel_nic));
        let mut lossy = LinkSpec::testbed_40g();
        lossy.faults = extmem_sim::FaultSpec::drop(0.06);
        b.connect(switch, PortId(3), tel_srv, PortId(0), lossy);

        let mut sim = b.build();
        sim.schedule_timer(gen, TimeDelta::ZERO, 0);
        sim.run_until(Time::from_millis(30));

        let sink = sim.node::<Sink>(sink);
        assert_eq!(
            sink.got, 400,
            "gateway must be unaffected by telemetry loss"
        );
        assert_eq!(sink.translated, 400);
        let sw: &SwitchNode = sim.node(switch);
        let prog = sw.program::<GatewayTelemetryProgram>();
        assert!(prog.faa_stats().retransmits > 0 || prog.faa_stats().naks > 0);
        assert!(prog.telemetry_quiescent(), "{:?}", prog.faa_stats());
        let tel = sim.node::<RnicNode>(tel_srv);
        let remote = crate::state_store::read_remote_counters(tel, tel_rkey, tel_base, counters);
        assert_eq!(
            remote.iter().sum::<u64>(),
            400,
            "reliable counts despite loss"
        );
    }

    /// Ports: 0 client, 1 PIP server, 2 table server, 3 telemetry server.
    #[test]
    fn both_primitives_work_side_by_side() {
        let switch_ep = extmem_wire::roce::RoceEndpoint {
            mac: MacAddr::local(100),
            ip: 0x0a0000fe,
        };
        // Two separate memory servers, one per primitive.
        let mut table_nic = RnicNode::new(
            "tablesrv",
            RnicConfig::at(extmem_wire::roce::RoceEndpoint {
                mac: MacAddr::local(3),
                ip: 0x0a000003,
            }),
        );
        let table_channel =
            RdmaChannel::setup(switch_ep, PortId(2), &mut table_nic, ByteSize::from_mb(8));
        let mut tel_nic = RnicNode::new(
            "telemetrysrv",
            RnicConfig::at(extmem_wire::roce::RoceEndpoint {
                mac: MacAddr::local(4),
                ip: 0x0a000004,
            }),
        );
        let counters = 1024u64;
        let tel_channel = RdmaChannel::setup(
            switch_ep,
            PortId(3),
            &mut tel_nic,
            ByteSize::from_bytes(counters * 8),
        );
        let tel_rkey = tel_channel.rkey;
        let tel_base = tel_channel.base_va;

        // Control plane: VIP flows translate to the PIP server.
        let flows: Vec<FiveTuple> = (0..6)
            .map(|i| FiveTuple::new(0x0a000001, 0x0a010000 + i, 7000 + i as u16, 80, 17))
            .collect();
        for f in &flows {
            install_remote_action(
                &mut table_nic,
                &table_channel,
                2048,
                f,
                ActionEntry::translate(0x0a000002, MacAddr::local(2)),
            );
        }

        let mut fib = Fib::new(8);
        fib.install(MacAddr::local(1), PortId(0));
        fib.install(MacAddr::local(2), PortId(1));
        let lookup = LookupTableProgram::new(fib, table_channel, 2048, Some(16));
        let engine = FaaEngine::new(tel_channel, FaaConfig::default());
        let prog = GatewayTelemetryProgram::new(lookup, engine, TimeDelta::from_micros(30));

        let mut b = SimBuilder::new(3);
        let switch = b.add_node(Box::new(SwitchNode::new(
            "tor",
            SwitchConfig::default(),
            Box::new(prog),
        )));
        let gen = b.add_node(Box::new(Gen {
            flows: flows.clone(),
            n: 600,
            sent: 0,
            tx: TxQueue::new(PortId(0)),
        }));
        let sink = b.add_node(Box::new(Sink {
            got: 0,
            translated: 0,
        }));
        let link = LinkSpec::testbed_40g();
        b.connect(switch, PortId(0), gen, PortId(0), link);
        b.connect(switch, PortId(1), sink, PortId(0), link);
        let table_srv = b.add_node(Box::new(table_nic));
        b.connect(switch, PortId(2), table_srv, PortId(0), link);
        let tel_srv = b.add_node(Box::new(tel_nic));
        b.connect(switch, PortId(3), tel_srv, PortId(0), link);

        let mut sim = b.build();
        sim.schedule_timer(gen, TimeDelta::ZERO, 0);
        sim.run_until(Time::from_millis(10));

        // Gateway half: everything delivered, translated.
        let sink = sim.node::<Sink>(sink);
        assert_eq!(sink.got, 600);
        assert_eq!(sink.translated, 600, "every packet must be translated");

        // Telemetry half: exact counts in the *other* server's DRAM.
        let sw: &SwitchNode = sim.node(switch);
        let prog = sw.program::<GatewayTelemetryProgram>();
        assert!(prog.telemetry_quiescent(), "{:?}", prog.faa_stats());
        let tel = sim.node::<RnicNode>(tel_srv);
        let remote = crate::state_store::read_remote_counters(tel, tel_rkey, tel_base, counters);
        for (slot, &expect) in &prog.oracle {
            assert_eq!(remote[*slot as usize], expect, "slot {slot}");
        }
        assert_eq!(remote.iter().sum::<u64>(), 600);

        // Neither server's CPU saw a packet.
        assert_eq!(sim.node::<RnicNode>(table_srv).stats().cpu_packets, 0);
        assert_eq!(tel.stats().cpu_packets, 0);
        // The lookup cache did its job on six hot flows.
        assert!(
            prog.lookup_stats().cache_hits > 500,
            "{:?}",
            prog.lookup_stats()
        );
    }
}
