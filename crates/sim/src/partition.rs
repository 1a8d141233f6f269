//! Support types for the conservative-synchronization parallel engine.
//!
//! The node graph is split into `k` **partitions** along its link structure
//! (see [`assign`]). Each partition owns its nodes, its own timing wheel, and
//! the transmit side of every link direction whose transmitting node it
//! owns. Partitions advance concurrently under the classic conservative
//! rule: link propagation delay is **lookahead**. Partition `p` continuously
//! publishes, per outbound neighbor `q`, a lower bound on the timestamp of
//! any delivery it may still send (`earliest own work + min propagation p→q`), and `q` only
//! dispatches events strictly below the minimum of its inbound bounds.
//! Cross-partition deliveries travel through bounded SPSC channels;
//! everything else (timers, tx-completions, crash and restart) stays
//! partition-local.
//!
//! Deadlock freedom: bounds are re-published every loop iteration whether
//! or not progress was made (the null-message role), all cross-partition
//! links are required to have strictly positive propagation, and a sender
//! blocked on a full channel drains its own inboxes while it waits.
//!
//! Termination uses distributed double-scan detection: per-partition
//! `finished` flags, monotone `progress` counters bumped on every dispatch
//! or drain, and per-channel sent/received counters. The coordinator
//! (partition 0) declares the run over only after two consecutive scans
//! observe every partition finished, every channel balanced, and no
//! progress in between.

use crate::link::{Endpoint, LinkSpec};
use extmem_types::{NodeId, PortId, Time, TimeDelta};
use extmem_wire::Packet;
use std::sync::atomic::{
    AtomicBool, AtomicU64,
    Ordering::{Acquire, Relaxed, Release, SeqCst},
};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::Arc;

/// A value on cache lines of its own (two, for the adjacent-line
/// prefetcher): every atomic below is written by one worker and polled by
/// another, and must not drag a neighbour's line along.
#[derive(Default)]
#[repr(align(128))]
pub(crate) struct Padded<T>(T);

impl<T> std::ops::Deref for Padded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

/// Static description of one link, shared read-only by every partition.
pub(crate) struct LinkInfo {
    pub spec: LinkSpec,
    pub ends: [Endpoint; 2],
}

/// Static connection state of one `(node, port)` pair.
#[derive(Clone, Copy)]
pub(crate) struct PortSlotStatic {
    /// Index into [`Topo::links`].
    pub link: u32,
    /// Which end of that link this port is (0 or 1).
    pub end: u8,
}

/// The immutable topology, shared by all partitions behind an `Arc`.
pub(crate) struct Topo {
    pub links: Vec<LinkInfo>,
    /// `ports[node][port]` → connection state, `None` for unconnected ports.
    pub ports: Vec<Vec<Option<PortSlotStatic>>>,
    /// Owning partition of each node.
    pub node_part: Vec<u32>,
}

impl Topo {
    /// Link directions (`link * 2 + transmitting end`).
    pub fn dirs(&self) -> usize {
        self.links.len() * 2
    }

    /// Partition owning the transmit side of direction `dir`.
    pub fn dir_owner(&self, dir: usize) -> u32 {
        let ep = self.links[dir / 2].ends[dir & 1];
        self.node_part[ep.node.raw() as usize]
    }

    pub fn slot(&self, node: NodeId, port: PortId) -> Option<PortSlotStatic> {
        *self
            .ports
            .get(node.raw() as usize)?
            .get(port.raw() as usize)?
    }
}

/// Assign each of `nodes` nodes to one of `parts` partitions, as a function
/// of the link graph alone (node behaviour is opaque to the engine).
///
/// Nodes are first merged into **groups** that a cut should not separate:
/// the two ends of a zero-propagation link (no lookahead, so the link
/// cannot cross at all), and a node with a single link together with its
/// only neighbour (a host and its ToR exchange every packet the host ever
/// sees). Groups are then dealt to partitions largest first, each to the
/// partition carrying the fewest ports so far — ports being the only proxy
/// for event load the graph offers. On a leaf–spine fabric the groups are
/// the pods and the individual spines, so only leaf↔spine links cross.
///
/// When that leaves fewer groups than partitions the single-link rule is
/// given up, and only if the zero-propagation components are still too few
/// does the cut fall back to single nodes — the one case in which it must
/// sever a zero-propagation link and [`crate::SimBuilder::build`] panics.
/// Every partition is non-empty as long as `parts <= nodes`.
pub(crate) fn assign(nodes: usize, links: &[LinkInfo], parts: usize) -> Vec<u32> {
    debug_assert!(parts >= 1 && (parts <= nodes || nodes == 0));
    let ends = |l: &LinkInfo| (l.ends[0].node.raw() as usize, l.ends[1].node.raw() as usize);
    let mut degree = vec![0u64; nodes];
    for l in links {
        let (a, b) = ends(l);
        degree[a] += 1;
        degree[b] += 1;
    }

    // Union-find with the smallest member as each group's root, so group
    // identity (and with it the whole assignment) is independent of the
    // order links were declared in.
    fn root(group: &mut [usize], mut n: usize) -> usize {
        while group[n] != n {
            group[n] = group[group[n]];
            n = group[n];
        }
        n
    }
    let merge = |group: &mut [usize], a: usize, b: usize| {
        let (a, b) = (root(group, a), root(group, b));
        group[a.max(b)] = a.min(b);
    };
    let count = |group: &mut [usize]| (0..nodes).filter(|&n| root(group, n) == n).count();

    let mut group: Vec<usize> = (0..nodes).collect();
    for l in links
        .iter()
        .filter(|l| l.spec.propagation == TimeDelta::ZERO)
    {
        let (a, b) = ends(l);
        merge(&mut group, a, b);
    }
    let mut with_stubs = group.clone();
    for l in links {
        let (a, b) = ends(l);
        if degree[a] == 1 || degree[b] == 1 {
            merge(&mut with_stubs, a, b);
        }
    }
    if count(&mut with_stubs) >= parts {
        group = with_stubs;
    } else if count(&mut group) < parts {
        group = (0..nodes).collect();
    }

    let mut ports = vec![0u64; nodes];
    for n in 0..nodes {
        ports[root(&mut group, n)] += degree[n];
    }
    let mut roots: Vec<usize> = (0..nodes).filter(|&n| group[n] == n).collect();
    roots.sort_by_key(|&r| (std::cmp::Reverse(ports[r]), r));
    // (ports, groups) per partition: the group count breaks ties between
    // port-less groups, so the first `parts` groups land in distinct
    // partitions and none stays empty.
    let mut load = vec![(0u64, 0usize); parts];
    let mut part_of_root = vec![0u32; nodes];
    for r in roots {
        let p = (0..parts)
            .min_by_key(|&p| load[p])
            .expect("at least one partition");
        load[p] = (load[p].0 + ports[r], load[p].1 + 1);
        part_of_root[r] = p as u32;
    }
    (0..nodes)
        .map(|n| part_of_root[root(&mut group, n)])
        .collect()
}

/// Derive an independent RNG stream seed from the simulation seed
/// (splitmix64-style finalizer over a tag/index-disambiguated input).
/// A pure function, so every backend derives identical streams.
pub(crate) fn stream_seed(seed: u64, tag: u64, idx: u64) -> u64 {
    let mut z = seed
        .wrapping_add(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(idx.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// RNG stream tag for per-link-direction fault injection.
pub(crate) const STREAM_FAULTS: u64 = 1;

/// A delivery crossing a partition boundary. The tie key and lane were
/// fixed by the transmitting side, so the receiver just inserts it.
pub(crate) struct CrossMsg {
    pub at: Time,
    pub tie: u64,
    /// FIFO lane id, or [`crate::event::NO_LANE`] for reordered/duplicate
    /// deliveries.
    pub lane: u32,
    pub node: NodeId,
    pub port: PortId,
    pub packet: Packet,
}

/// Sending half of one `p → q` channel, held by partition `p`.
pub(crate) struct Outbox {
    pub tx: SyncSender<CrossMsg>,
    /// Messages enqueued (bumped *before* the enqueue, so `sent > recv`
    /// whenever a message is in flight).
    pub sent: Arc<Padded<AtomicU64>>,
}

/// Receiving half of one `p → q` channel, held by partition `q`.
pub(crate) struct Inbox {
    pub rx: Receiver<CrossMsg>,
    /// Messages fully absorbed into the local queue (bumped *after* the
    /// insert).
    pub recv: Arc<Padded<AtomicU64>>,
}

/// One channel's counters, retained for the coordinator's balance scan.
pub(crate) struct ChannelMeta {
    pub sent: Arc<Padded<AtomicU64>>,
    pub recv: Arc<Padded<AtomicU64>>,
}

/// State shared by all worker threads of one parallel run.
pub(crate) struct SyncShared {
    pub k: usize,
    /// `bounds[p * k + q]`: picosecond promise from `p` to `q` — every
    /// delivery `p` has yet to send to `q` fires at or after this. Only
    /// ever raised (`fetch_max`) while workers run.
    pub bounds: Vec<Padded<AtomicU64>>,
    /// `lookahead[p * k + q]`: min propagation over links `p → q`
    /// (`u64::MAX` when no such link).
    pub lookahead: Vec<u64>,
    /// Partitions with a channel into `q` / out of `p`.
    pub inbound: Vec<Vec<u32>>,
    pub outbound: Vec<Vec<u32>>,
    /// Per-partition "nothing left to do at my current bounds" flags.
    pub finished: Vec<Padded<AtomicBool>>,
    /// Per-partition monotone activity counters (any dispatch or drain).
    pub progress: Vec<Padded<AtomicU64>>,
    /// Set once by the coordinator; every worker exits on seeing it.
    /// Release/acquire: the flag publishes nothing but itself (what the
    /// workers wrote reaches the driver through the join).
    pub done: AtomicBool,
    pub channels: Vec<ChannelMeta>,
}

impl SyncShared {
    pub fn new(k: usize, lookahead: Vec<u64>) -> SyncShared {
        assert_eq!(lookahead.len(), k * k);
        let mut inbound = vec![Vec::new(); k];
        let mut outbound = vec![Vec::new(); k];
        for p in 0..k {
            for q in 0..k {
                if p != q && lookahead[p * k + q] != u64::MAX {
                    outbound[p].push(q as u32);
                    inbound[q].push(p as u32);
                }
            }
        }
        SyncShared {
            k,
            bounds: (0..k * k).map(|_| Padded::default()).collect(),
            lookahead,
            inbound,
            outbound,
            finished: (0..k).map(|_| Padded::default()).collect(),
            progress: (0..k).map(|_| Padded::default()).collect(),
            done: AtomicBool::new(false),
            channels: Vec::new(),
        }
    }

    /// Prepare for a run: clear flags and seed the bound matrix from the
    /// partitions' current queue heads (`peeks[p]`, `u64::MAX` if empty).
    ///
    /// Naively seeding `bounds[p][q] = peek_p + la` over-promises: `p`'s
    /// earliest *send* can be triggered by a message it has not received
    /// yet (e.g. `p` idle until 1000 locally, but `q` dispatches at 10 and
    /// the reply bounces off `p` at 210). The true lower bound on when any
    /// causal chain can reach `p` is the min-plus relaxation
    /// `est(p) = min(peek_p, min over r of est(r) + la(r→p))`, a shortest-
    /// path fixpoint that Bellman–Ford reaches in `< k` sweeps because all
    /// lookaheads are strictly positive.
    pub fn begin(&self, peeks: &[u64]) {
        self.done.store(false, Release);
        for f in &self.finished {
            f.store(false, SeqCst);
        }
        let k = self.k;
        let mut est: Vec<u64> = peeks.to_vec();
        for _ in 0..k {
            let mut changed = false;
            for p in 0..k {
                for &q in &self.outbound[p] {
                    let q = q as usize;
                    let cand = est[p].saturating_add(self.lookahead[p * k + q]);
                    if cand < est[q] {
                        est[q] = cand;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        for (p, &e) in est.iter().enumerate() {
            for &q in &self.outbound[p] {
                let q = q as usize;
                let b = e.saturating_add(self.lookahead[p * k + q]);
                self.bounds[p * k + q].store(b, Release);
            }
        }
    }

    /// The dispatch bound of partition `me`: min over inbound promises,
    /// `u64::MAX` with no inbound channels. `me` may dispatch strictly
    /// below this.
    ///
    /// Promises are a message-passing pair, not part of the termination
    /// scan, so release/acquire is all they need: `p` enqueues a delivery
    /// and *then* raises its promise past it (release), so a reader that
    /// sees the raised promise (acquire) finds the delivery in its inbox.
    pub fn safe_bound(&self, me: usize) -> u64 {
        let mut safe = u64::MAX;
        for &p in &self.inbound[me] {
            safe = safe.min(self.bounds[p as usize * self.k + me].load(Acquire));
        }
        safe
    }

    /// Raise the promise `me → q` to at least `bound` picoseconds.
    pub fn publish(&self, me: usize, q: usize, bound: u64) {
        self.bounds[me * self.k + q].fetch_max(bound, Release);
    }

    /// Set partition `me`'s finished flag. The flag has one writer, so the
    /// relaxed read is of `me`'s own last store, and the (sequentially
    /// consistent, hence fenced) store is skipped when nothing changes —
    /// which is every dispatch round but the first after an idle spell.
    pub fn set_finished(&self, me: usize, finished: bool) {
        let flag = &self.finished[me];
        if flag.load(Relaxed) != finished {
            flag.store(finished, SeqCst);
        }
    }

    /// Lower `me`'s finished flag and bump its progress counter: called
    /// *before* the work it announces (see [`SyncShared::try_terminate`]).
    pub fn note_progress(&self, me: usize) {
        self.set_finished(me, false);
        self.progress[me].fetch_add(1, SeqCst);
    }

    /// Coordinator-only: double-scan termination check. Returns `true`
    /// (and sets [`SyncShared::done`]) only if two consecutive scans both
    /// see every partition finished and every channel balanced, with
    /// identical `(progress, sent)` totals — i.e. no activity slipped
    /// between the scans. A partition drains by first lowering its
    /// `finished` flag, then bumping `recv`, so a scan that observes a
    /// balanced channel and a later scan that re-reads the flag cannot
    /// both miss in-flight work.
    pub fn try_terminate(&self) -> bool {
        let scan = || -> Option<(u64, u64)> {
            if !self.finished.iter().all(|f| f.load(SeqCst)) {
                return None;
            }
            let mut sent_total = 0u64;
            for c in &self.channels {
                let s = c.sent.load(SeqCst);
                if s != c.recv.load(SeqCst) {
                    return None;
                }
                sent_total += s;
            }
            let progress = self.progress.iter().map(|p| p.load(SeqCst)).sum();
            Some((progress, sent_total))
        };
        match (scan(), scan()) {
            (Some(a), Some(b)) if a == b => {
                self.done.store(true, Release);
                true
            }
            _ => false,
        }
    }
}

/// Trips the shared `done` flag if its worker unwinds, so the other
/// workers (and the joining `thread::scope`) are not left spinning on a
/// run that can never finish.
pub(crate) struct PanicFuse<'a>(pub &'a SyncShared);

impl Drop for PanicFuse<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.done.store(true, Release);
        }
    }
}

/// Counters from the parallel engine, exposed via
/// [`crate::Simulator::par_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParStats {
    /// Partitions (= worker threads) the topology was split into.
    pub partitions: usize,
    /// Deliveries that crossed a partition boundary.
    pub cross_messages: u64,
    /// Minimum over all dispatches of `safe_bound - event_time` in
    /// picoseconds (`u64::MAX` if nothing was ever dispatched under a
    /// finite bound). Strictly positive iff no partition ever dispatched
    /// at or past its incoming-link bound.
    pub min_dispatch_margin_picos: u64,
    /// Worker loop iterations summed over partitions and runs.
    pub iterations: u64,
    /// Times a sender found a cross-partition channel full and had to
    /// spin (draining its own inboxes while waiting).
    pub channel_stalls: u64,
    /// Events dispatched by the busiest partition; against
    /// `events_processed / partitions` it reads as the load imbalance.
    pub max_partition_events: u64,
    /// Worker loop iterations that neither dispatched nor absorbed
    /// anything: a partition waiting for a neighbour's promise to rise (or
    /// for the run to be declared over).
    pub idle_iterations: u64,
}

impl Default for ParStats {
    fn default() -> Self {
        ParStats {
            partitions: 1,
            cross_messages: 0,
            min_dispatch_margin_picos: u64::MAX,
            iterations: 0,
            channel_stalls: 0,
            max_partition_events: 0,
            idle_iterations: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Links for [`assign`], from `(a, b, propagation in ns)` triples
    /// (`assign` reads nodes and propagation, never ports).
    fn links(edges: &[(u32, u32, u64)]) -> Vec<LinkInfo> {
        let end = |n| Endpoint {
            node: NodeId(n),
            port: PortId(0),
        };
        edges
            .iter()
            .map(|&(a, b, prop_ns)| LinkInfo {
                spec: LinkSpec::new(
                    extmem_types::Rate::from_gbps(40),
                    TimeDelta::from_nanos(prop_ns),
                ),
                ends: [end(a), end(b)],
            })
            .collect()
    }

    /// Whether `assign`ment `parts` separates the ends of link `(a, b)`.
    fn cuts(parts: &[u32], a: u32, b: u32) -> bool {
        parts[a as usize] != parts[b as usize]
    }

    #[test]
    fn fabric_is_cut_between_leaves_and_spines_only() {
        // The benchmark fabric in builder order: four pods of a leaf and
        // eight hosts, then two spines.
        let (pods, hosts, spines) = (4u32, 8u32, 2u32);
        let leaf = |l| l * (hosts + 1);
        let mut edges = Vec::new();
        for l in 0..pods {
            edges.extend((1..=hosts).map(|h| (leaf(l), leaf(l) + h, 300)));
        }
        for s in 0..spines {
            edges.extend((0..pods).map(|l| (leaf(l), pods * (hosts + 1) + s, 300)));
        }
        let n = (pods * (hosts + 1) + spines) as usize;
        let parts = assign(n, &links(&edges), 2);
        for &(a, b, _) in &edges {
            let host_link = b < pods * (hosts + 1);
            assert!(!(host_link && cuts(&parts, a, b)), "host link {a}-{b} cut");
        }
        // Two pods and one spine each: 2 * 18 + 4 ports a side.
        for p in 0..2 {
            let ports: usize = edges
                .iter()
                .flat_map(|&(a, b, _)| [a, b])
                .filter(|&n| parts[n as usize] == p)
                .count();
            assert_eq!(ports, 40, "partition {p}");
        }
    }

    #[test]
    fn a_star_still_yields_every_partition() {
        // One switch, six single-link hosts: a single group, so the
        // keep-stubs-home rule yields to the partition count.
        let edges: Vec<_> = (1..=6).map(|h| (0, h, 300)).collect();
        for k in 1..=7 {
            let parts = assign(7, &links(&edges), k);
            let mut seen: Vec<u32> = parts.clone();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen, (0..k as u32).collect::<Vec<_>>(), "k = {k}");
        }
    }

    #[test]
    fn zero_propagation_links_are_cut_last() {
        // A path 0 --- 1 -z- 2 --- 3 (z = zero propagation): the index
        // midpoint falls on the one link that must not be cut.
        let path = links(&[(0, 1, 300), (1, 2, 0), (2, 3, 300)]);
        let parts = assign(4, &path, 2);
        assert!(!cuts(&parts, 1, 2), "{parts:?}");
        // Three zero-free groups exist, so three partitions are legal too.
        let parts = assign(4, &path, 3);
        assert!(!cuts(&parts, 1, 2), "{parts:?}");
        // Four are not: the cut degrades to single nodes (and the builder
        // refuses the result).
        let parts = assign(4, &path, 4);
        assert!(cuts(&parts, 1, 2), "{parts:?}");
    }

    #[test]
    fn stream_seeds_are_distinct_and_stable() {
        let a = stream_seed(42, STREAM_FAULTS, 0);
        assert_eq!(a, stream_seed(42, STREAM_FAULTS, 0), "pure function");
        assert_ne!(a, stream_seed(42, STREAM_FAULTS, 1));
        assert_ne!(a, stream_seed(42, STREAM_FAULTS + 1, 0));
        assert_ne!(a, stream_seed(43, STREAM_FAULTS, 0));
    }

    #[test]
    fn begin_relaxes_bounds_through_cycles() {
        // Two partitions, 100 ps lookahead both ways. p0 idle until 1000,
        // p1 fires at 10: p0's promise must reflect that p1's event can
        // bounce a reply off p0 at 10 + 100 (+100 back), not 1000 + 100.
        let mut la = vec![u64::MAX; 4];
        la[1] = 100; // 0 → 1
        la[2] = 100; // 1 → 0
        let s = SyncShared::new(2, la);
        s.begin(&[1000, 10]);
        assert_eq!(s.bounds[1].load(SeqCst), 110 + 100, "0→1: est(0)=110");
        assert_eq!(s.bounds[2].load(SeqCst), 10 + 100, "1→0: est(1)=10");
        assert_eq!(s.safe_bound(0), 110);
        assert_eq!(s.safe_bound(1), 210);
    }

    #[test]
    fn bounds_only_ratchet_up() {
        let mut la = vec![u64::MAX; 4];
        la[1] = 5;
        la[2] = 5;
        let s = SyncShared::new(2, la);
        s.begin(&[0, 0]);
        s.publish(0, 1, 50);
        s.publish(0, 1, 20); // lower publish must not win
        assert_eq!(s.safe_bound(1), 50);
    }

    #[test]
    fn termination_needs_all_finished_and_balanced() {
        let s = SyncShared::new(2, vec![u64::MAX; 4]);
        s.begin(&[u64::MAX, u64::MAX]);
        assert!(!s.try_terminate(), "nobody finished yet");
        s.finished[0].store(true, SeqCst);
        assert!(!s.try_terminate(), "partition 1 still running");
        s.finished[1].store(true, SeqCst);
        assert!(s.try_terminate());
        assert!(s.done.load(SeqCst));
    }
}
