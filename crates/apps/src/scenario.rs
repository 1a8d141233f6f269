//! The paper's testbed, as a builder, and its addressing conventions.
//!
//! Every single-switch scenario in this workspace is a variation of the §5
//! testbed: a ToR switch, a few hosts, one or more RDMA memory servers.
//! [`Testbed`] declares that shape and returns a wired simulation;
//! multi-switch scenarios use `extmem_sim::FabricSpec` instead.
//!
//! The ordering contract (trace digests depend on it):
//!
//! * The switch is node 0. Each [`Testbed::host`] / [`Testbed::gen`] /
//!   [`Testbed::sink`] / [`Testbed::server`] call takes the next switch
//!   port `i`, the next node id `i + 1` and the identity
//!   [`host_endpoint`]`(i)`: MAC `02:00:00:00:00:(i+1)`, IP `10.0.0.(i+1)`.
//! * Link ids follow port order: the link on port `i` is `LinkId(i)`, with
//!   the switch as end 0.
//! * Hosts are in the FIB ([`host_mac`]`(i)` → `PortId(i)`); servers are
//!   not — the data plane reaches them through `RdmaChannel::server_port`.
//! * Every generator added with [`Testbed::gen`] is kicked at t = 0, in
//!   call order.
//! * The switch's own RoCE identity is `02:00:00:00:00:64` / `10.0.0.254`.

use crate::workload::{SinkNode, TrafficGenNode, WorkloadSpec};
use extmem_core::{Fib, RdmaChannel};
use extmem_rnic::{RnicConfig, RnicNode};
use extmem_sim::{LinkSpec, Node, SimBuilder, Simulator};
use extmem_switch::{PipelineProgram, SwitchConfig, SwitchNode};
use extmem_types::{ByteSize, LinkId, NodeId, PortId, TimeDelta};
use extmem_wire::roce::RoceEndpoint;
use extmem_wire::MacAddr;

/// MAC of host `i` (0-based).
pub fn host_mac(i: usize) -> MacAddr {
    MacAddr::local(i as u32 + 1)
}

/// IPv4 (host order) of host `i` (0-based): `10.0.0.(i+1)`.
pub fn host_ip(i: usize) -> u32 {
    0x0a00_0001 + i as u32
}

/// The RoCE endpoint identity of host `i`.
pub fn host_endpoint(i: usize) -> RoceEndpoint {
    RoceEndpoint {
        mac: host_mac(i),
        ip: host_ip(i),
    }
}

/// The switch's RoCE identity (source of RDMA requests).
pub fn switch_endpoint() -> RoceEndpoint {
    RoceEndpoint {
        mac: MacAddr::local(100),
        ip: 0x0a00_00fe,
    }
}

/// Builder for the single-ToR testbed; see the module docs for the
/// node/port/link ordering it guarantees.
///
/// Declare hosts and servers (each call takes the next switch port), build
/// the pipeline program from [`Testbed::fib`] and the returned channels,
/// then [`Testbed::build`]:
///
/// ```
/// use extmem_apps::scenario::{host_ip, host_mac, Testbed};
/// use extmem_apps::workload::{SinkNode, WorkloadSpec};
/// use extmem_core::faa::{FaaConfig, FaaEngine};
/// use extmem_core::state_store::StateStoreProgram;
/// use extmem_rnic::RnicConfig;
/// use extmem_sim::LinkSpec;
/// use extmem_switch::SwitchConfig;
/// use extmem_types::{ByteSize, FiveTuple, Rate, TimeDelta};
///
/// let link = LinkSpec::testbed_40g();
/// let flow = FiveTuple::new(host_ip(0), host_ip(1), 5000, 9000, 17);
/// let mut tb = Testbed::new(7);
/// tb.gen(WorkloadSpec::simple(host_mac(0), host_mac(1), flow, 256, Rate::from_gbps(1), 10), link);
/// tb.sink(link);
/// let (_, channel) = tb.server(RnicConfig::default(), ByteSize::from_bytes(512), link);
/// let engine = FaaEngine::new(channel, FaaConfig::default());
/// let prog = StateStoreProgram::new(tb.fib(), engine, TimeDelta::from_micros(20));
/// let mut t = tb.build(SwitchConfig::default(), Box::new(prog));
/// t.sim.run_until(extmem_types::Time::from_millis(1));
/// assert_eq!(t.sim.node::<SinkNode>(t.hosts[1]).received, 10);
/// ```
pub struct Testbed {
    seed: u64,
    /// What hangs off switch port `i`, and over which link.
    ports: Vec<(Box<dyn Node>, LinkSpec)>,
    hosts: Vec<PortId>,
    gens: Vec<PortId>,
    servers: Vec<PortId>,
}

/// A built [`Testbed`]: the simulation plus the ids of everything in it.
pub struct Built {
    /// The wired simulation, generators kicked.
    pub sim: Simulator,
    /// The ToR switch (always node 0).
    pub switch: NodeId,
    /// Hosts (generators, sinks, custom nodes) in call order.
    pub hosts: Vec<NodeId>,
    /// Memory servers in call order.
    pub servers: Vec<NodeId>,
    /// Switch-side links in port order; end 0 is the switch.
    pub links: Vec<LinkId>,
}

impl Testbed {
    /// An empty testbed whose simulation will use `seed`.
    pub fn new(seed: u64) -> Testbed {
        Testbed {
            seed,
            ports: Vec::new(),
            hosts: Vec::new(),
            gens: Vec::new(),
            servers: Vec::new(),
        }
    }

    fn next_port(&self) -> PortId {
        PortId(u16::try_from(self.ports.len()).expect("port count fits u16"))
    }

    fn attach(&mut self, node: Box<dyn Node>, link: LinkSpec) -> PortId {
        let port = self.next_port();
        self.ports.push((node, link));
        port
    }

    /// Attach `node` as the next host; returns its switch port.
    pub fn host(&mut self, node: impl Node, link: LinkSpec) -> PortId {
        let port = self.attach(Box::new(node), link);
        self.hosts.push(port);
        port
    }

    /// Attach a traffic generator running `spec` as the next host; it is
    /// kicked at t = 0 by [`Testbed::build`].
    pub fn gen(&mut self, spec: WorkloadSpec, link: LinkSpec) -> PortId {
        let name = format!("gen{}", self.next_port().raw());
        let port = self.host(TrafficGenNode::new(name, spec), link);
        self.gens.push(port);
        port
    }

    /// Attach a [`SinkNode`] as the next host.
    pub fn sink(&mut self, link: LinkSpec) -> PortId {
        let name = format!("sink{}", self.next_port().raw());
        self.host(SinkNode::new(name), link)
    }

    /// Attach a memory server: an [`RnicNode`] configured by `config` (its
    /// endpoint is overridden with the next [`host_endpoint`]) with `region`
    /// bytes registered and an [`RdmaChannel`] from the switch set up.
    /// Returns the server's index into [`Built::servers`] and the channel.
    pub fn server(
        &mut self,
        config: RnicConfig,
        region: ByteSize,
        link: LinkSpec,
    ) -> (usize, RdmaChannel) {
        self.server_at_psn(config, region, link, 0)
    }

    /// [`Testbed::server`] with the channel's PSN sequence starting at
    /// `start_psn` (see [`RdmaChannel::setup_at_psn`]).
    pub fn server_at_psn(
        &mut self,
        config: RnicConfig,
        region: ByteSize,
        link: LinkSpec,
        start_psn: u32,
    ) -> (usize, RdmaChannel) {
        let port = self.next_port();
        let mut nic = RnicNode::new(
            format!("memsrv{}", port.raw()),
            RnicConfig {
                endpoint: host_endpoint(port.raw() as usize),
                ..config
            },
        );
        let channel =
            RdmaChannel::setup_at_psn(switch_endpoint(), port, &mut nic, region, start_psn);
        self.attach(Box::new(nic), link);
        self.servers.push(port);
        (self.servers.len() - 1, channel)
    }

    /// The NIC of server `handle` (as returned by [`Testbed::server`]), for
    /// control-plane installs into its region before the run.
    pub fn nic_mut(&mut self, handle: usize) -> &mut RnicNode {
        let node: &mut dyn Node = &mut *self.ports[self.servers[handle].raw() as usize].0;
        let any: &mut dyn std::any::Any = node;
        any.downcast_mut().expect("servers are RnicNodes")
    }

    /// A FIB mapping every host declared so far to its port, with room for
    /// eight more control-plane entries.
    pub fn fib(&self) -> Fib {
        let mut fib = Fib::new(self.hosts.len() + 8);
        for &p in &self.hosts {
            fib.install(host_mac(p.raw() as usize), p);
        }
        fib
    }

    /// Add the switch running `program`, wire everything and kick the
    /// generators. `config.ports` is raised to the number of ports taken if
    /// it is smaller.
    pub fn build(self, config: SwitchConfig, program: Box<dyn PipelineProgram>) -> Built {
        let config = SwitchConfig {
            ports: config.ports.max(self.next_port().raw()),
            ..config
        };
        let mut b = SimBuilder::new(self.seed);
        let switch = b.add_node(Box::new(SwitchNode::new("tor", config, program)));
        let mut links = Vec::with_capacity(self.ports.len());
        for (i, (node, link)) in self.ports.into_iter().enumerate() {
            let id = b.add_node(node);
            links.push(b.connect(switch, PortId(i as u16), id, PortId(0), link));
        }
        let node_of = |p: &PortId| NodeId(p.raw() as u32 + 1);
        let mut sim = b.build();
        for g in &self.gens {
            sim.schedule_timer(node_of(g), TimeDelta::ZERO, TrafficGenNode::KICK_TOKEN);
        }
        Built {
            sim,
            switch,
            hosts: self.hosts.iter().map(node_of).collect(),
            servers: self.servers.iter().map(node_of).collect(),
            links,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_ordering_contract() {
        use extmem_core::L2Program;
        use extmem_types::{FiveTuple, Rate, Time};

        let link = LinkSpec::testbed_40g();
        let flow = FiveTuple::new(host_ip(0), host_ip(1), 5000, 9000, 17);
        let mut tb = Testbed::new(3);
        let spec = WorkloadSpec::simple(host_mac(0), host_mac(1), flow, 256, Rate::from_gbps(1), 5);
        assert_eq!(tb.gen(spec, link), PortId(0));
        assert_eq!(tb.sink(link), PortId(1));
        let (a, ch_a) = tb.server(RnicConfig::default(), ByteSize::from_bytes(64), link);
        let (b, ch_b) = tb.server(RnicConfig::default(), ByteSize::from_bytes(64), link);
        assert_eq!((a, b), (0, 1));
        assert_eq!((ch_a.server_port, ch_b.server_port), (PortId(2), PortId(3)));
        assert_eq!(tb.nic_mut(a).endpoint(), host_endpoint(2));
        assert_eq!(tb.nic_mut(b).endpoint(), host_endpoint(3));
        assert_eq!(ch_b.qp.peer, host_endpoint(3));

        // Hosts are in the FIB at their ports; servers are not.
        let mut fib = tb.fib();
        assert_eq!(fib.port_of(&host_mac(0)), Some(PortId(0)));
        assert_eq!(fib.port_of(&host_mac(1)), Some(PortId(1)));
        assert_eq!(fib.port_of(&host_mac(2)), None);
        assert_eq!(fib.port_of(&host_mac(3)), None);

        let prog = L2Program { fib, forwarded: 0 };
        let mut t = tb.build(SwitchConfig::default(), Box::new(prog));
        assert_eq!(t.switch, NodeId(0));
        assert_eq!(t.hosts, [NodeId(1), NodeId(2)]);
        assert_eq!(t.servers, [NodeId(3), NodeId(4)]);
        assert_eq!(t.links, [LinkId(0), LinkId(1), LinkId(2), LinkId(3)]);
        assert_eq!(
            t.sim.node::<RnicNode>(t.servers[1]).endpoint(),
            host_endpoint(3)
        );

        // The generator was kicked: the run delivers without further help,
        // and the switch is end 0 of every link.
        t.sim.run_until(Time::from_millis(1));
        assert_eq!(t.sim.node::<SinkNode>(t.hosts[1]).received, 5);
        assert_eq!(t.sim.link_stats(t.links[1], 0).delivered_packets, 5);
        assert_eq!(t.sim.link_stats(t.links[0], 1).delivered_packets, 5);
    }

    #[test]
    fn addressing_conventions() {
        assert_eq!(host_mac(0), MacAddr::local(1));
        assert_eq!(host_ip(0), 0x0a000001);
        assert_eq!(host_ip(7), 0x0a000008);
        assert_eq!(host_endpoint(2).mac, MacAddr::local(3));
        assert_ne!(switch_endpoint().mac, host_mac(0));
    }
}
