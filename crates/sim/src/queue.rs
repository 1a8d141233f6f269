//! A reusable per-port transmit queue.
//!
//! The engine allows one packet in serialization per port; `TxQueue` is the
//! standard way for a node to queue behind it. Hosts use it unbounded; the
//! switch's traffic manager implements its own shared-buffer queues instead
//! (it needs global buffer accounting), but end-host NICs and RNIC transmit
//! paths all embed this type.

use crate::node::NodeCtx;
use extmem_types::PortId;
use extmem_wire::Packet;
use std::collections::VecDeque;

/// FIFO transmit queue for one port, with optional byte cap.
///
/// A transmit with nothing queued behind it starts unwatched
/// ([`NodeCtx::start_tx_unwatched`]); queueing behind a busy port watches
/// it. So the owner's [`crate::Node::on_tx_done`] for this port fires only
/// when a packet waits for [`TxQueue::on_tx_done`] to start it, and an
/// owner that must hear about every completion calls
/// [`NodeCtx::watch_tx_done`] itself.
#[derive(Debug)]
pub struct TxQueue {
    port: PortId,
    queue: VecDeque<Packet>,
    queued_bytes: u64,
    cap_bytes: Option<u64>,
    /// Packets dropped because the cap was exceeded.
    pub drops: u64,
}

impl TxQueue {
    /// An unbounded queue for `port`.
    pub fn new(port: PortId) -> TxQueue {
        TxQueue {
            port,
            queue: VecDeque::new(),
            queued_bytes: 0,
            cap_bytes: None,
            drops: 0,
        }
    }

    /// A queue that drops (tail-drop) once `cap_bytes` of packets are queued.
    pub fn bounded(port: PortId, cap_bytes: u64) -> TxQueue {
        TxQueue {
            cap_bytes: Some(cap_bytes),
            ..TxQueue::new(port)
        }
    }

    /// The port this queue feeds.
    pub fn port(&self) -> PortId {
        self.port
    }

    /// Queue (or immediately transmit) `packet`. Returns `false` if the
    /// packet was tail-dropped by the byte cap.
    pub fn send(&mut self, ctx: &mut NodeCtx<'_>, packet: Packet) -> bool {
        if !ctx.tx_busy(self.port) && self.queue.is_empty() {
            ctx.start_tx_unwatched(self.port, packet);
            return true;
        }
        if let Some(cap) = self.cap_bytes {
            if self.queued_bytes + packet.len() as u64 > cap {
                self.drops += 1;
                return false;
            }
        }
        self.queued_bytes += packet.len() as u64;
        self.queue.push_back(packet);
        ctx.watch_tx_done(self.port);
        true
    }

    /// Call from the node's `on_tx_done` for this port: starts the next
    /// queued packet, if any, watched while more wait behind it.
    pub fn on_tx_done(&mut self, ctx: &mut NodeCtx<'_>) {
        if let Some(pkt) = self.queue.pop_front() {
            self.queued_bytes -= pkt.len() as u64;
            if self.queue.is_empty() {
                ctx.start_tx_unwatched(self.port, pkt);
            } else {
                ctx.start_tx(self.port, pkt);
            }
        }
    }

    /// Bytes currently waiting (excludes the packet in serialization).
    pub fn queued_bytes(&self) -> u64 {
        self.queued_bytes
    }

    /// Whether nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Discard everything queued (crash path: a powered-off NIC forgets its
    /// transmit ring). The packet already in serialization, if any, is the
    /// engine's — the port frees itself when it completes.
    pub fn clear(&mut self) {
        self.queue.clear();
        self.queued_bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SimBuilder;
    use crate::link::LinkSpec;
    use crate::node::Node;
    use extmem_types::TimeDelta;

    /// A node that pushes `n` packets into its TxQueue at t=0.
    struct Pusher {
        q: TxQueue,
        n: usize,
        size: usize,
    }

    impl Node for Pusher {
        fn on_packet(&mut self, _: &mut NodeCtx<'_>, _: PortId, _: Packet) {}
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _: u64) {
            for _ in 0..self.n {
                self.q.send(ctx, Packet::zeroed(self.size));
            }
        }
        fn on_tx_done(&mut self, ctx: &mut NodeCtx<'_>, _: PortId) {
            self.q.on_tx_done(ctx);
        }
        fn name(&self) -> &str {
            "pusher"
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

    fn run(n: usize, cap: Option<u64>) -> (u64, u64) {
        let mut b = SimBuilder::new(0);
        let q = match cap {
            Some(c) => TxQueue::bounded(PortId(0), c),
            None => TxQueue::new(PortId(0)),
        };
        let p = b.add_node(Box::new(Pusher { q, n, size: 1000 }));
        let c = b.add_node(Box::new(Counter { rx: 0 }));
        b.connect(p, PortId(0), c, PortId(0), LinkSpec::testbed_40g());
        let mut sim = b.build();
        sim.schedule_timer(p, TimeDelta::ZERO, 0);
        sim.run_to_quiescence();
        let rx = sim.node::<Counter>(c).rx;
        let drops = sim.node::<Pusher>(p).q.drops;
        (rx, drops)
    }

    #[test]
    fn unbounded_delivers_everything_in_order() {
        let (rx, drops) = run(50, None);
        assert_eq!(rx, 50);
        assert_eq!(drops, 0);
    }

    #[test]
    fn bounded_tail_drops() {
        // First packet goes straight to the wire; 3 fit in the 3000B queue;
        // the rest drop.
        let (rx, drops) = run(10, Some(3000));
        assert_eq!(rx, 4);
        assert_eq!(drops, 6);
    }

    #[test]
    fn accounting_is_consistent() {
        let q = TxQueue::bounded(PortId(0), 100);
        assert!(q.is_empty());
        assert_eq!(q.queued_bytes(), 0);
        assert_eq!(q.port(), PortId(0));
    }
}
