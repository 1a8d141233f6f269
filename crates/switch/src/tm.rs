//! The traffic manager: shared-buffer egress queueing.
//!
//! Data-center switch ASICs back all port queues with one shared packet
//! buffer — 12 MB in the paper's §2.1 example, which a single 8-into-1
//! incast fills in ~0.34 ms. The model is per-port FIFO queues drawing from
//! a shared byte pool with tail-drop.

use extmem_types::{ByteSize, PortId};
use extmem_wire::Packet;
use std::collections::VecDeque;

/// Per-port queue statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Packets accepted into the queue.
    pub enqueued: u64,
    /// Packets dropped (shared pool exhausted).
    pub dropped: u64,
    /// Packets dequeued for transmission.
    pub dequeued: u64,
    /// High-water mark of queued bytes.
    pub max_bytes: u64,
}

/// The shared-buffer traffic manager with two strict-priority levels per
/// port. The high-priority level exists for the §7 mitigation — "one may
/// prioritize these RDMA packets so that they are less likely to be
/// dropped" — and is selected per-packet by the pipeline program.
#[derive(Debug)]
pub struct TrafficManager {
    /// Per port: `[high, normal]` FIFO queues.
    queues: Vec<[VecDeque<Packet>; 2]>,
    queue_bytes: Vec<u64>,
    stats: Vec<QueueStats>,
    shared_cap: u64,
    shared_used: u64,
}

/// Priority level for TM admission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Priority {
    /// Served strictly before normal traffic on the same port.
    High,
    /// Default.
    Normal,
}

impl TrafficManager {
    /// A TM with `ports` queues over a `shared_cap` byte pool.
    pub fn new(ports: usize, shared_cap: ByteSize) -> TrafficManager {
        assert!(ports > 0, "TM needs at least one port");
        TrafficManager {
            queues: (0..ports)
                .map(|_| [VecDeque::new(), VecDeque::new()])
                .collect(),
            queue_bytes: vec![0; ports],
            stats: vec![QueueStats::default(); ports],
            shared_cap: shared_cap.bytes(),
            shared_used: 0,
        }
    }

    /// Try to admit `pkt` to `port`'s normal-priority queue. Returns
    /// `false` (tail drop) if the shared pool would be exceeded.
    pub fn enqueue(&mut self, port: PortId, pkt: Packet) -> bool {
        self.enqueue_with_priority(port, pkt, Priority::Normal)
    }

    /// [`TrafficManager::enqueue`] with an explicit priority level.
    pub fn enqueue_with_priority(&mut self, port: PortId, pkt: Packet, prio: Priority) -> bool {
        let p = port.raw() as usize;
        let len = pkt.len() as u64;
        if self.shared_used + len > self.shared_cap {
            self.stats[p].dropped += 1;
            return false;
        }
        self.shared_used += len;
        self.queue_bytes[p] += len;
        self.stats[p].enqueued += 1;
        self.stats[p].max_bytes = self.stats[p].max_bytes.max(self.queue_bytes[p]);
        let level = if prio == Priority::High { 0 } else { 1 };
        self.queues[p][level].push_back(pkt);
        true
    }

    /// Remove the head-of-line packet of `port`, if any — strictly from the
    /// high-priority level first.
    pub fn dequeue(&mut self, port: PortId) -> Option<Packet> {
        let p = port.raw() as usize;
        let pkt = self.queues[p][0]
            .pop_front()
            .or_else(|| self.queues[p][1].pop_front())?;
        let len = pkt.len() as u64;
        self.shared_used -= len;
        self.queue_bytes[p] -= len;
        self.stats[p].dequeued += 1;
        Some(pkt)
    }

    /// Drop every queued packet (a power loss) and return the shared pool
    /// to empty. The counters are kept.
    pub(crate) fn flush(&mut self) {
        for q in self.queues.iter_mut().flatten() {
            q.clear();
        }
        self.queue_bytes.fill(0);
        self.shared_used = 0;
    }

    /// Bytes currently queued for `port`.
    pub fn queue_bytes(&self, port: PortId) -> u64 {
        self.queue_bytes[port.raw() as usize]
    }

    /// Packets currently queued for `port` (both priority levels).
    pub fn queue_packets(&self, port: PortId) -> usize {
        let q = &self.queues[port.raw() as usize];
        q[0].len() + q[1].len()
    }

    /// Bytes currently held across all queues.
    pub fn total_bytes(&self) -> u64 {
        self.shared_used
    }

    /// The shared pool capacity.
    pub fn capacity(&self) -> u64 {
        self.shared_cap
    }

    /// Stats for `port`.
    pub fn stats(&self, port: PortId) -> QueueStats {
        self.stats[port.raw() as usize]
    }

    /// Total drops across all ports.
    pub fn total_drops(&self) -> u64 {
        self.stats.iter().map(|s| s.dropped).sum()
    }

    /// Internal consistency check used by property tests: per-queue byte
    /// counts must sum to the shared usage and stay within the pool.
    pub fn check_invariants(&self) {
        let sum: u64 = self.queue_bytes.iter().sum();
        assert_eq!(sum, self.shared_used, "queue bytes out of sync with pool");
        assert!(self.shared_used <= self.shared_cap, "pool overcommitted");
        for (q, &b) in self.queues.iter().zip(&self.queue_bytes) {
            let bytes: u64 = q
                .iter()
                .flat_map(|lvl| lvl.iter())
                .map(|p| p.len() as u64)
                .sum();
            assert_eq!(bytes, b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(n: usize) -> Packet {
        Packet::zeroed(n)
    }

    #[test]
    fn fifo_order_per_port() {
        let mut tm = TrafficManager::new(2, ByteSize::from_kb(10));
        let a = Packet::from_vec(vec![1; 100]);
        let b = Packet::from_vec(vec![2; 100]);
        assert!(tm.enqueue(PortId(0), a.clone()));
        assert!(tm.enqueue(PortId(0), b.clone()));
        assert_eq!(tm.dequeue(PortId(0)).unwrap(), a);
        assert_eq!(tm.dequeue(PortId(0)).unwrap(), b);
        assert_eq!(tm.dequeue(PortId(0)), None);
        tm.check_invariants();
    }

    #[test]
    fn shared_pool_tail_drops() {
        let mut tm = TrafficManager::new(2, ByteSize::from_bytes(250));
        assert!(tm.enqueue(PortId(0), pkt(100)));
        assert!(tm.enqueue(PortId(1), pkt(100)));
        assert!(!tm.enqueue(PortId(0), pkt(100)), "pool exhausted");
        assert!(tm.enqueue(PortId(0), pkt(50)), "smaller packet still fits");
        assert_eq!(tm.stats(PortId(0)).dropped, 1);
        assert_eq!(tm.total_bytes(), 250);
        tm.check_invariants();
    }

    #[test]
    fn dequeue_frees_pool_for_other_ports() {
        let mut tm = TrafficManager::new(2, ByteSize::from_bytes(100));
        assert!(tm.enqueue(PortId(0), pkt(100)));
        assert!(!tm.enqueue(PortId(1), pkt(100)));
        tm.dequeue(PortId(0)).unwrap();
        assert!(tm.enqueue(PortId(1), pkt(100)));
        tm.check_invariants();
    }

    #[test]
    fn stats_track_highwater() {
        let mut tm = TrafficManager::new(1, ByteSize::from_kb(1));
        tm.enqueue(PortId(0), pkt(300));
        tm.enqueue(PortId(0), pkt(300));
        tm.dequeue(PortId(0));
        tm.enqueue(PortId(0), pkt(100));
        let s = tm.stats(PortId(0));
        assert_eq!(s.enqueued, 3);
        assert_eq!(s.dequeued, 1);
        assert_eq!(s.max_bytes, 600);
        assert_eq!(tm.queue_packets(PortId(0)), 2);
        assert_eq!(tm.queue_bytes(PortId(0)), 400);
    }

    #[test]
    fn high_priority_jumps_the_line() {
        let mut tm = TrafficManager::new(1, ByteSize::from_kb(10));
        let normal = Packet::from_vec(vec![1; 100]);
        let high = Packet::from_vec(vec![2; 100]);
        assert!(tm.enqueue(PortId(0), normal.clone()));
        assert!(tm.enqueue_with_priority(PortId(0), high.clone(), Priority::High));
        assert_eq!(tm.dequeue(PortId(0)).unwrap(), high, "high priority first");
        assert_eq!(tm.dequeue(PortId(0)).unwrap(), normal);
        tm.check_invariants();
    }

    #[test]
    fn priorities_share_the_byte_accounting() {
        let mut tm = TrafficManager::new(1, ByteSize::from_bytes(150));
        assert!(tm.enqueue_with_priority(PortId(0), pkt(100), Priority::High));
        assert!(
            !tm.enqueue(PortId(0), pkt(100)),
            "pool shared across levels"
        );
        assert_eq!(tm.queue_packets(PortId(0)), 1);
        assert_eq!(tm.queue_bytes(PortId(0)), 100);
        tm.check_invariants();
    }

    #[test]
    fn paper_buffer_fill_arithmetic() {
        // §2.1: a 12 MB buffer absorbs 12 MB of backlog, not more.
        let mut tm = TrafficManager::new(1, ByteSize::from_mb(12));
        let mut accepted = 0u64;
        loop {
            if !tm.enqueue(PortId(0), pkt(1500)) {
                break;
            }
            accepted += 1;
        }
        assert_eq!(accepted, 8000); // 12 MB / 1500 B
        tm.check_invariants();
    }
}
