//! **Topology as data**: leaf–spine fabric construction from a spec.
//!
//! Scenario code so far wired every switch and host by hand; at fleet
//! scale (dozens of switches, hundreds of hosts) that is unreadable and
//! error-prone. [`FabricSpec`] describes a two-tier Clos fabric — pods of
//! ToR ("leaf") switches with their hosts, plus a spine layer — and
//! [`FabricSpec::build`] materializes it into a [`SimBuilder`], calling
//! user factories for each node's behavior. Links carry per-direction
//! bandwidth ([`LinkSpec::reverse_rate`]) so downlinks and uplinks can be
//! provisioned independently.
//!
//! Node-addition order is pod-major (each leaf followed by its hosts,
//! spines last). The parallel scheduler does not rely on it: it partitions
//! by link structure, keeps every single-link host with its leaf, and so
//! deals out whole pods and single spines — a pod's heavy intra-pod traffic
//! stays within one partition, only leaf↔spine links cross.
//!
//! Port conventions (stable, relied on by scenarios):
//! * leaf `l` port `i`, `i < hosts_per_leaf` ↔ host `(l, i)` port 0
//! * leaf `l` port `hosts_per_leaf + s` ↔ spine `s` port `l`

use crate::engine::SimBuilder;
use crate::link::LinkSpec;
use crate::node::Node;
use extmem_types::{NodeId, PortId, TimeDelta};

/// Static description of a leaf–spine fabric.
#[derive(Clone, Debug)]
pub struct FabricSpec {
    /// Number of leaf (ToR) switches. Each leaf and its hosts form a pod.
    pub leaves: usize,
    /// Number of spine switches (each connects to every leaf).
    pub spines: usize,
    /// Hosts attached to each leaf.
    pub hosts_per_leaf: usize,
    /// Host↔leaf link. The `rate` direction is leaf→host (downlink);
    /// `reverse_rate`, when set, is host→leaf (uplink).
    pub host_link: LinkSpec,
    /// Leaf↔spine link. The `rate` direction is leaf→spine (uplink);
    /// `reverse_rate`, when set, is spine→leaf (downlink).
    pub up_link: LinkSpec,
}

impl FabricSpec {
    /// A symmetric fabric with 40 G everywhere (the testbed default).
    pub fn testbed(leaves: usize, spines: usize, hosts_per_leaf: usize) -> FabricSpec {
        FabricSpec {
            leaves,
            spines,
            hosts_per_leaf,
            host_link: LinkSpec::testbed_40g(),
            up_link: LinkSpec::testbed_40g(),
        }
    }

    /// The leaf-side port facing host `i` of the pod.
    pub fn host_port(&self, i: usize) -> PortId {
        assert!(i < self.hosts_per_leaf, "host index out of range");
        PortId(i as u16)
    }

    /// The leaf-side port facing spine `s`.
    pub fn uplink_port(&self, s: usize) -> PortId {
        assert!(s < self.spines, "spine index out of range");
        PortId((self.hosts_per_leaf + s) as u16)
    }

    /// The spine-side port facing leaf `l`.
    pub fn spine_port(&self, l: usize) -> PortId {
        assert!(l < self.leaves, "leaf index out of range");
        PortId(l as u16)
    }

    /// Materialize the fabric into `b`. The factories supply each node's
    /// behavior: `leaf(l)`, `spine(s)`, and `host(l, i)` for host `i` of
    /// pod `l`.
    pub fn build(
        &self,
        b: &mut SimBuilder,
        mut leaf: impl FnMut(usize) -> Box<dyn Node>,
        mut spine: impl FnMut(usize) -> Box<dyn Node>,
        mut host: impl FnMut(usize, usize) -> Box<dyn Node>,
    ) -> Fabric {
        assert!(self.leaves > 0, "fabric needs at least one leaf");
        assert!(self.hosts_per_leaf > 0, "fabric needs hosts");
        assert!(
            self.leaves == 1 || self.spines > 0,
            "a multi-leaf fabric needs a spine layer"
        );
        // The parallel backend requires positive propagation on every link
        // that might cross a partition boundary; enforce it up front so a
        // fabric built here is always backend-portable.
        assert!(
            self.host_link.propagation > TimeDelta::ZERO
                && self.up_link.propagation > TimeDelta::ZERO,
            "fabric links need positive propagation (parallel-backend lookahead)"
        );

        // Pod-major addition order: leaf, then its hosts.
        let mut leaves = Vec::with_capacity(self.leaves);
        let mut hosts = Vec::with_capacity(self.leaves);
        for l in 0..self.leaves {
            let leaf_id = b.add_node(leaf(l));
            leaves.push(leaf_id);
            let mut pod = Vec::with_capacity(self.hosts_per_leaf);
            for i in 0..self.hosts_per_leaf {
                let h = b.add_node(host(l, i));
                b.connect(leaf_id, self.host_port(i), h, PortId(0), self.host_link);
                pod.push(h);
            }
            hosts.push(pod);
        }
        let mut spines = Vec::with_capacity(self.spines);
        for s in 0..self.spines {
            let spine_id = b.add_node(spine(s));
            for (l, &leaf_id) in leaves.iter().enumerate() {
                b.connect(
                    leaf_id,
                    self.uplink_port(s),
                    spine_id,
                    self.spine_port(l),
                    self.up_link,
                );
            }
            spines.push(spine_id);
        }
        Fabric {
            spec: self.clone(),
            leaves,
            spines,
            hosts,
        }
    }
}

/// The node handles of a built fabric.
#[derive(Clone, Debug)]
pub struct Fabric {
    /// The spec the fabric was built from.
    pub spec: FabricSpec,
    /// Leaf switch ids, by pod.
    pub leaves: Vec<NodeId>,
    /// Spine switch ids.
    pub spines: Vec<NodeId>,
    /// Host ids: `hosts[l][i]` is host `i` of pod `l`.
    pub hosts: Vec<Vec<NodeId>>,
}

impl Fabric {
    /// Total node count.
    pub fn node_count(&self) -> usize {
        self.leaves.len() + self.spines.len() + self.hosts.iter().map(Vec::len).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeCtx;
    use crate::queue::TxQueue;
    use extmem_types::Time;
    use extmem_wire::Packet;

    /// Forwards every packet arriving on port `i` out `map[i]`.
    struct Relay {
        map: Vec<u16>,
        qs: Vec<TxQueue>,
    }

    impl Relay {
        fn new(map: Vec<u16>) -> Relay {
            let qs = (0..map.len() as u16)
                .map(|p| TxQueue::new(PortId(p)))
                .collect();
            Relay { map, qs }
        }
    }

    impl Node for Relay {
        fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, port: PortId, pkt: Packet) {
            let out = self.map[port.raw() as usize] as usize;
            self.qs[out].send(ctx, pkt);
        }
        fn on_tx_done(&mut self, ctx: &mut NodeCtx<'_>, port: PortId) {
            self.qs[port.raw() as usize].on_tx_done(ctx);
        }
        fn name(&self) -> &str {
            "relay"
        }
    }

    struct Pinger {
        tx: TxQueue,
        sent: u64,
    }
    impl Node for Pinger {
        fn on_packet(&mut self, _: &mut NodeCtx<'_>, _: PortId, _: Packet) {}
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _: u64) {
            self.sent += 1;
            self.tx.send(ctx, Packet::from_vec(vec![0u8; 64]));
        }
        fn on_tx_done(&mut self, ctx: &mut NodeCtx<'_>, _: PortId) {
            self.tx.on_tx_done(ctx);
        }
        fn name(&self) -> &str {
            "pinger"
        }
    }

    struct Counter {
        rx: u64,
    }
    impl Node for Counter {
        fn on_packet(&mut self, _: &mut NodeCtx<'_>, _: PortId, _: Packet) {
            self.rx += 1;
        }
        fn name(&self) -> &str {
            "counter"
        }
    }

    #[test]
    fn builds_the_advertised_shape() {
        let spec = FabricSpec::testbed(4, 2, 3);
        let mut b = SimBuilder::new(1);
        let f = spec.build(
            &mut b,
            |_| Box::new(Counter { rx: 0 }),
            |_| Box::new(Counter { rx: 0 }),
            |_, _| Box::new(Counter { rx: 0 }),
        );
        assert_eq!(f.leaves.len(), 4);
        assert_eq!(f.spines.len(), 2);
        assert_eq!(f.hosts.iter().map(Vec::len).sum::<usize>(), 12);
        assert_eq!(f.node_count(), 18);
        // Pod-major order: leaf 0 first, its hosts next.
        assert!(f.leaves[0].raw() < f.hosts[0][0].raw());
        assert!(f.hosts[0][2].raw() < f.leaves[1].raw());
        assert!(f.leaves[3].raw() < f.spines[0].raw());
        let _ = b.build();
    }

    #[test]
    fn a_packet_crosses_pods_via_the_spine() {
        // Pod 0 host 0 pings pod 1 host 0 through spine 0: the leaf relays
        // host port 0 → uplink 0, the spine relays leaf 0 → leaf 1, the
        // destination leaf relays its uplink back down to host port 0.
        let spec = FabricSpec::testbed(2, 1, 1);
        let mut b = SimBuilder::new(7);
        let f = spec.build(
            &mut b,
            // Port 0 = host, port 1 = spine 0 — both leaves relay the
            // same way: host traffic up, spine traffic down.
            |_| Box::new(Relay::new(vec![1, 0])),
            |_| Box::new(Relay::new(vec![1, 0])),
            |l, _| {
                if l == 0 {
                    Box::new(Pinger {
                        tx: TxQueue::new(PortId(0)),
                        sent: 0,
                    }) as Box<dyn Node>
                } else {
                    Box::new(Counter { rx: 0 })
                }
            },
        );
        let mut sim = b.build();
        sim.schedule_timer(f.hosts[0][0], TimeDelta::ZERO, 0);
        sim.run_until(Time::from_micros(100));
        assert_eq!(sim.node::<Counter>(f.hosts[1][0]).rx, 1);
    }

    #[test]
    fn asymmetric_links_serialize_per_direction() {
        // 40G down / 10G up host link: the host→leaf direction takes 4×
        // longer to serialize the same frame.
        let spec = LinkSpec::asymmetric(
            extmem_types::Rate::from_gbps(40),
            extmem_types::Rate::from_gbps(10),
            TimeDelta::from_nanos(300),
        );
        assert_eq!(
            spec.rate_from(1).time_to_send(1500),
            spec.rate_from(0).time_to_send(1500) * 4
        );
    }
}
