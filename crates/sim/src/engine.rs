//! The simulation engine: topology registry plus the event loop(s).
//!
//! Under [`SchedBackend::Wheel`](crate::SchedBackend) and
//! [`SchedBackend::Heap`](crate::SchedBackend) this is the classic
//! single-threaded discrete-event loop. Under
//! [`SchedBackend::Parallel`](crate::SchedBackend) the node graph is split
//! along its links into partitions that advance concurrently under
//! conservative (link-latency lookahead) synchronization — see
//! `crate::partition` for the synchronization protocol and `crate::trace`
//! for why the determinism digest is bit-identical across all three
//! backends.

use crate::event::{tie, EventKind, EventQueue, SchedStats, Scheduled, TimerHandle, NO_LANE};
use crate::link::{Endpoint, LinkSpec, LinkStats};
use crate::node::{Node, NodeCtx};
use crate::partition::{
    assign, stream_seed, ChannelMeta, CrossMsg, Inbox, LinkInfo, Outbox, PanicFuse, ParStats,
    PortSlotStatic, SyncShared, Topo, STREAM_FAULTS,
};
use crate::trace::{TraceEvent, TraceSink};
use extmem_types::{IntMap, LinkId, NodeId, PortId, Rate, Time, TimeDelta};
use extmem_wire::bytes::ThreadCounts;
use extmem_wire::pool::{self, FreeList};
use extmem_wire::Packet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::Ordering::{Acquire, SeqCst};
use std::sync::mpsc::{self, TrySendError};
use std::sync::Arc;

/// Bytes of Ethernet + IPv4 + UDP headers. Injected corruption lands past
/// this prefix (see the comment at the injection site in [`EngineCore::start_tx`]).
const CLASSIFICATION_PREFIX: usize = 14 + 20 + 8;

/// A position in the `(at, seq)` total order.
type OrderKey = (Time, u64);

/// One port's transmit state: where its last transmit's completion sits in
/// the total order, and whether that completion is an event in the queue.
///
/// The port is busy while the completion lies beyond the engine's horizon
/// (see [`EngineCore::horizon`]) or its event is still queued. A completion
/// nobody watches is never pushed: it passes when the horizon does, at the
/// exact key its `TxDone` would have had.
#[derive(Clone, Copy)]
struct TxPort {
    done: OrderKey,
    scheduled: bool,
}

impl TxPort {
    const IDLE: TxPort = TxPort {
        done: (Time::ZERO, 0),
        scheduled: false,
    };

    fn busy(&self, horizon: OrderKey) -> bool {
        self.scheduled || self.done > horizon
    }
}

/// Events dispatched per worker-loop round before the dispatch bound is
/// re-read and the promises re-published. A promise is only as fresh as the
/// queue head it was computed from, and a lookahead window (one link
/// propagation, 300 ns on the testbed links) holds a few dozen events per
/// partition: at hundreds of events per round every promise describes the
/// *start* of the sender's window, so the partitions advance in lock-step,
/// each idle until the slower one finishes the window. At tens, a promise
/// trails the sender by a fraction of a window and the faster partition
/// runs up to one full lookahead ahead; in single digits the atomics cost
/// more than the slack they buy.
const BATCH: u64 = 32;

/// Idle rounds a worker busy-waits before it starts yielding its core. The
/// usual wait is for a neighbour to finish a round, microseconds away; a
/// longer one (the neighbour lost its core, or the run is winding down)
/// should not burn a core another worker could use.
const SPIN_ROUNDS: u32 = 64;

/// Bounded SPSC capacity per cross-partition channel.
const CHANNEL_CAP: usize = 1024;

/// Mutable per-link-direction state. A direction (`link * 2 + transmitting
/// end`) is owned by the partition owning its transmitting node, so none of
/// this needs locks: stats, the fault RNG stream and the tie sequence
/// counters are only ever touched by the owner.
struct DirState {
    stats: LinkStats,
    /// Fault-injection RNG stream, seeded per direction so fault draws are
    /// a function of this direction's transmit sequence alone.
    rng: StdRng,
    deliver_seq: u32,
    txdone_seq: u32,
}

/// Parallel-engine counters accumulated by one partition.
struct ParAccum {
    cross_messages: u64,
    min_margin: u64,
    iterations: u64,
    idle_iterations: u64,
    channel_stalls: u64,
}

impl Default for ParAccum {
    fn default() -> Self {
        ParAccum {
            cross_messages: 0,
            min_margin: u64::MAX,
            iterations: 0,
            idle_iterations: 0,
            channel_stalls: 0,
        }
    }
}

/// Engine internals shared with [`NodeCtx`]. Split from [`Partition`] so a
/// node callback can borrow the core mutably while the node itself is
/// temporarily detached from the node table.
///
/// One `EngineCore` exists per partition. Its per-node and per-direction
/// tables are allocated full-size (indexed by global id); only the entries
/// the partition owns are ever used.
pub struct EngineCore {
    pub(crate) now: Time,
    /// This partition's id.
    part: u32,
    topo: Arc<Topo>,
    queue: EventQueue,
    /// The highest `(at, seq)` dispatched so far, raised to `(deadline,
    /// u64::MAX)` when `run_until` returns and past every recorded
    /// completion at quiescence. A maximum rather than the current key: a
    /// zero-delay event can be dispatched after a larger key.
    horizon: OrderKey,
    /// The latest completion key recorded on any port.
    latest_done: OrderKey,
    dirs: Vec<DirState>,
    /// `tx[node][port]`, shaped like `topo.ports`.
    tx: Vec<Vec<TxPort>>,
    /// Per-node crash flag: while set, the node's deliveries and timers are
    /// blackholed (counted in `crash_drops`) instead of dispatched.
    crashed: Vec<bool>,
    /// Deliveries + timers discarded per node while it was crashed.
    crash_drops: Vec<u64>,
    /// Per-node timer tie counters (plain + cancellable share one stream).
    timer_seq: Vec<u32>,
    trace: TraceSink,
    events_processed: u64,
    /// `outboxes[q]`: sending half of the channel to partition `q`.
    outboxes: Vec<Option<Outbox>>,
    inboxes: Vec<Inbox>,
    /// `None` on the single-partition path: no atomics on that hot loop.
    sync: Option<Arc<SyncShared>>,
    par: ParAccum,
}

impl EngineCore {
    pub(crate) fn tx_busy(&self, node: NodeId, port: PortId) -> bool {
        self.tx[node.raw() as usize]
            .get(port.raw() as usize)
            .is_some_and(|p| p.busy(self.horizon))
    }

    /// Push the `TxDone` of the transmit in flight on `port`, at the key
    /// [`EngineCore::start_tx`] recorded, unless the port is idle or that
    /// event is already queued.
    pub(crate) fn watch_tx_done(&mut self, node: NodeId, port: PortId) {
        let Some(p) = self.tx[node.raw() as usize].get_mut(port.raw() as usize) else {
            return;
        };
        if !p.scheduled && p.done > self.horizon {
            p.scheduled = true;
            let (at, tie) = p.done;
            self.queue
                .push_keyed(at, tie, EventKind::TxDone { node, port });
        }
    }

    /// `run_until(deadline)` returned: the clock reaches the deadline even
    /// if the queue went quiet, and every completion at or before it has
    /// passed, as its event would have.
    fn reach_deadline(&mut self, deadline: Time) {
        self.now = self.now.max(deadline);
        self.horizon = self.horizon.max((deadline, u64::MAX));
    }

    /// Let every recorded completion pass, as at quiescence: the clock
    /// ends where the last of them would have fired as an event.
    fn pass_completions(&mut self) {
        self.horizon = self.horizon.max(self.latest_done);
        self.now = self.now.max(self.latest_done.0);
    }

    pub(crate) fn port_link(&self, node: NodeId, port: PortId) -> Option<LinkId> {
        self.topo.slot(node, port).map(|s| LinkId(s.link))
    }

    pub(crate) fn link_rate(&self, node: NodeId, port: PortId) -> Rate {
        let slot = self
            .topo
            .slot(node, port)
            .unwrap_or_else(|| panic!("link_rate on unconnected port {node:?}/{port:?}"));
        self.topo.links[slot.link as usize]
            .spec
            .rate_from(slot.end as usize)
    }

    /// Serialize `packet` out of `port`. A `watched` transmit pushes its
    /// `TxDone`; an unwatched one only records the completion's key, and
    /// [`EngineCore::watch_tx_done`] can push it later.
    pub(crate) fn start_tx(&mut self, node: NodeId, port: PortId, packet: Packet, watched: bool) {
        let slot = self
            .topo
            .slot(node, port)
            .unwrap_or_else(|| panic!("start_tx on unconnected port {node:?}/{port:?}"));
        assert!(
            !self.tx_busy(node, port),
            "start_tx while port busy: {node:?}/{port:?}"
        );
        let (lid, end) = (slot.link as usize, slot.end as usize);
        let dir = lid * 2 + end;
        let (ser, prop, faults, dst) = {
            let l = &self.topo.links[lid];
            (
                l.spec.rate_from(end).time_to_send(packet.len()),
                l.spec.propagation,
                l.spec.faults,
                l.ends[1 - end],
            )
        };
        let done_at = self.now + ser;
        // Every transmit draws its completion's tie, scheduled or not, so a
        // completion that does become an event keys exactly as if all of
        // them did.
        let tie = {
            let ds = &mut self.dirs[dir];
            let s = ds.txdone_seq;
            ds.txdone_seq = s.checked_add(1).expect("tx-done seq overflow");
            tie::pack(tie::CLASS_TX_DONE, dir as u32, s)
        };
        let done = (done_at, tie);
        self.latest_done = self.latest_done.max(done);
        // A completion keyed below the horizon (a zero-length frame started
        // after a later-keyed event at the same instant) would read as
        // already passed: it must be an event to keep the port busy.
        let scheduled = watched || done < self.horizon;
        self.tx[node.raw() as usize][port.raw() as usize] = TxPort { done, scheduled };
        if scheduled {
            self.queue
                .push_keyed(done_at, tie, EventKind::TxDone { node, port });
        }

        let ds = &mut self.dirs[dir];
        ds.stats.tx_packets += 1;
        ds.stats.tx_bytes += packet.len() as u64;

        // Fault injection is decided at transmit time, drawing from this
        // direction's own RNG stream, so the draw order is a deterministic
        // function of the direction's transmit sequence — identical in
        // every backend.
        let base_arrival = done_at + prop;
        let mut arrival = base_arrival;
        let mut pkt = packet;
        let mut duplicate = false;
        if faults.is_active() {
            if faults.reorder_prob > 0.0 && ds.rng.gen_bool(faults.reorder_prob) {
                // Held back: packets serialized after this one overtake it.
                arrival += faults.reorder_delay;
                ds.stats.reordered_packets += 1;
            }
            if faults.drop_prob > 0.0 && ds.rng.gen_bool(faults.drop_prob) {
                ds.stats.dropped_packets += 1;
                return;
            }
            if faults.corrupt_prob > 0.0 && ds.rng.gen_bool(faults.corrupt_prob) && !pkt.is_empty()
            {
                // Our frames carry no Ethernet FCS: on a real wire a flipped
                // classification bit (MAC, ethertype, IP/UDP headers) dies at
                // the receiving MAC before any layer sees it. The injector
                // therefore models the post-FCS corruption domain — the
                // in-network bit flips that only an end-to-end check (ICRC)
                // catches — and flips bits past the L2/L3/L4 classification
                // prefix.
                let lo = if pkt.len() > CLASSIFICATION_PREFIX {
                    CLASSIFICATION_PREFIX
                } else {
                    0
                };
                let idx = ds.rng.gen_range(lo..pkt.len());
                pkt.as_mut_slice()[idx] ^= 1 << ds.rng.gen_range(0..8u8);
                ds.stats.corrupted_packets += 1;
            }
            // A replayed frame: the same packet arrives twice, back to back.
            duplicate = faults.duplicate_prob > 0.0 && ds.rng.gen_bool(faults.duplicate_prob);
        }

        // Deliveries on one link direction arrive in transmit order (each
        // serialization finishes before the next begins), so they ride the
        // direction's FIFO lane — unless a reorder fault broke the order.
        let lane = if arrival == base_arrival {
            dir as u32
        } else {
            NO_LANE
        };
        // Hashed before it is cloned, so the copy inherits the cached digest
        // instead of hashing the same bytes again.
        let copy = duplicate.then(|| {
            pkt.digest();
            pkt.clone()
        });
        self.deliver(dir, arrival, lane, dst, pkt);
        if let Some(copy) = copy {
            // The copy lands at the same instant but strictly after the
            // original in the total order (later per-direction seq). It
            // bypasses the FIFO lane: lanes require non-decreasing push times
            // and the next real delivery may be earlier-keyed.
            self.dirs[dir].stats.duplicated_packets += 1;
            self.deliver(dir, arrival, NO_LANE, dst, copy);
        }
    }

    /// Account, trace, and route one delivery: into the local queue when
    /// the destination node is ours, across the SPSC channel otherwise. The
    /// tie key and trace fold happen *here*, on the transmit side, so they
    /// are functions of the simulation alone.
    fn deliver(&mut self, dir: usize, at: Time, lane: u32, to: Endpoint, pkt: Packet) {
        let tie_key = {
            let ds = &mut self.dirs[dir];
            ds.stats.delivered_packets += 1;
            ds.stats.delivered_bytes += pkt.len() as u64;
            let s = ds.deliver_seq;
            ds.deliver_seq = s.checked_add(1).expect("deliver seq overflow");
            tie::pack(tie::CLASS_DELIVER, dir as u32, s)
        };
        // `pkt.digest()` is cached across hops, and the parts-based record
        // avoids building a TraceEvent when recording is off.
        self.trace.record_delivery(dir, at, pkt.len(), pkt.digest());
        let dst_part = self.topo.node_part[to.node.raw() as usize];
        if dst_part == self.part {
            let kind = EventKind::Deliver {
                node: to.node,
                port: to.port,
                packet: pkt,
            };
            if lane == NO_LANE {
                self.queue.push_keyed(at, tie_key, kind);
            } else {
                self.queue.push_lane_keyed(at, lane, tie_key, kind);
            }
        } else {
            self.send_cross(
                dst_part as usize,
                CrossMsg {
                    at,
                    tie: tie_key,
                    lane,
                    node: to.node,
                    port: to.port,
                    packet: pkt,
                },
            );
        }
    }

    /// Ship a delivery to partition `dst`. A full channel never deadlocks:
    /// the sender drains its own inboxes (so the peer blocked on *us* can
    /// make progress) and retries. `sent` is bumped before the enqueue so
    /// the termination scan never sees the channel balanced while a message
    /// is in flight.
    fn send_cross(&mut self, dst: usize, mut msg: CrossMsg) {
        self.par.cross_messages += 1;
        self.outboxes[dst]
            .as_ref()
            .expect("cross send without a channel")
            .sent
            .fetch_add(1, SeqCst);
        loop {
            // Re-indexed each attempt so the outbox borrow ends before the
            // inbox drain borrows `self` again.
            let ob = self.outboxes[dst].as_ref().expect("cross send channel");
            match ob.tx.try_send(msg) {
                Ok(()) => return,
                Err(TrySendError::Full(m)) => {
                    msg = m;
                    self.par.channel_stalls += 1;
                    self.drain_inboxes();
                    std::thread::yield_now();
                }
                Err(TrySendError::Disconnected(_)) => {
                    unreachable!("cross-partition receiver outlives the run")
                }
            }
        }
    }

    /// Absorb every waiting cross-partition delivery into the local queue.
    /// Returns how many were absorbed.
    fn drain_inboxes(&mut self) -> u64 {
        let mut drained = 0u64;
        for i in 0..self.inboxes.len() {
            while let Ok(msg) = self.inboxes[i].rx.try_recv() {
                if drained == 0 {
                    if let Some(sync) = &self.sync {
                        // Lower the finished flag and bump progress BEFORE
                        // the first `recv` increment of this batch: a
                        // termination scan that saw the channel balanced can
                        // then never pair with a second scan that still sees
                        // this partition finished.
                        sync.note_progress(self.part as usize);
                    }
                }
                drained += 1;
                let kind = EventKind::Deliver {
                    node: msg.node,
                    port: msg.port,
                    packet: msg.packet,
                };
                if msg.lane == NO_LANE {
                    self.queue.push_keyed(msg.at, msg.tie, kind);
                } else {
                    self.queue.push_lane_keyed(msg.at, msg.lane, msg.tie, kind);
                }
                self.inboxes[i].recv.fetch_add(1, SeqCst);
            }
        }
        drained
    }

    /// Publish this partition's null-message bounds: the earliest thing it
    /// may still send to neighbor `q` is `min(own queue head, own dispatch
    /// bound) + lookahead(me → q)`. Runs *before* each dispatch batch, after
    /// the drain that followed reading `safe`: everything that can still
    /// make this partition transmit is then either in its queue (at or
    /// after the head) or not yet sent by a neighbour (at or after `safe`).
    /// Both only move forward, and `fetch_max` keeps the published value
    /// monotone even when a fresher `safe` is paired with an older head.
    fn publish_bounds(&mut self, safe: u64) {
        let peek = self.queue.peek_time().map_or(u64::MAX, |t| t.picos());
        let eot = peek.min(safe);
        let me = self.part as usize;
        if let Some(sync) = &self.sync {
            for &q in &sync.outbound[me] {
                let q = q as usize;
                let b = eot.saturating_add(sync.lookahead[me * sync.k + q]);
                sync.publish(me, q, b);
            }
        }
    }

    pub(crate) fn schedule_timer(&mut self, node: NodeId, delay: TimeDelta, token: u64) {
        let t = self.timer_tie(node);
        self.queue
            .push_keyed(self.now + delay, t, EventKind::Timer { node, token });
    }

    pub(crate) fn schedule_timer_cancellable(
        &mut self,
        node: NodeId,
        delay: TimeDelta,
        token: u64,
    ) -> TimerHandle {
        let t = self.timer_tie(node);
        self.queue
            .push_timer_keyed(self.now + delay, t, node, token)
    }

    fn timer_tie(&mut self, node: NodeId) -> u64 {
        let i = node.raw() as usize;
        let s = self.timer_seq[i];
        self.timer_seq[i] = s.checked_add(1).expect("timer seq overflow");
        tie::pack(tie::CLASS_TIMER, node.raw(), s)
    }

    pub(crate) fn cancel_timer(&mut self, handle: TimerHandle) -> bool {
        self.queue.cancel(handle)
    }
}

/// One partition: the nodes it owns plus its engine core. The whole
/// simulation is one `Partition` on the single-threaded backends. Aligned
/// so that two workers' partitions, adjacent in the simulator's vector,
/// share no cache line.
#[repr(align(128))]
struct Partition {
    /// Full-size table; `Some` only for owned nodes (and `None` transiently
    /// while a node runs its own callback).
    nodes: Vec<Option<Box<dyn Node>>>,
    core: EngineCore,
    /// The wire counters of the worker thread that last ran this
    /// partition, left here for the driving thread to absorb.
    worker_counts: ThreadCounts,
    /// This partition's share of the driving thread's frame-buffer pool
    /// for the length of a run segment (empty between segments). Workers
    /// are re-spawned every segment; a pool that died with its thread
    /// would start each one cold.
    frame_pool: FreeList,
}

impl Partition {
    fn dispatch(&mut self, ev: Scheduled) {
        // Doubles as the conservative-safety check: a cross-partition
        // delivery drained after reading `safe` has `at >= safe > now`.
        debug_assert!(ev.at >= self.core.now, "event queue went backwards");
        self.core.now = ev.at;
        self.core.horizon = self.core.horizon.max((ev.at, ev.seq));
        self.core.events_processed += 1;
        match ev.kind {
            EventKind::Deliver { node, port, packet } => {
                if self.core.crashed[node.raw() as usize] {
                    // Bits arriving at a dark node fall on the floor.
                    self.core.crash_drops[node.raw() as usize] += 1;
                    drop(packet);
                    return;
                }
                self.with_node(node, |n, ctx| n.on_packet(ctx, port, packet));
            }
            EventKind::TxDone { node, port } => {
                // The wire frees up regardless; the callback is what a
                // crashed node doesn't get.
                self.core.tx[node.raw() as usize][port.raw() as usize].scheduled = false;
                if self.core.crashed[node.raw() as usize] {
                    return;
                }
                self.with_node(node, |n, ctx| n.on_tx_done(ctx, port));
            }
            EventKind::Timer { node, token } => {
                if self.core.crashed[node.raw() as usize] {
                    // Timers armed before the crash die with it.
                    self.core.crash_drops[node.raw() as usize] += 1;
                    return;
                }
                self.with_node(node, |n, ctx| n.on_timer(ctx, token));
            }
            EventKind::NodeAdmin { node, up } => {
                let idx = node.raw() as usize;
                if up {
                    if self.core.crashed[idx] {
                        self.core.crashed[idx] = false;
                        self.with_node(node, |n, ctx| n.on_restart(ctx));
                    }
                } else if !self.core.crashed[idx] {
                    self.core.crashed[idx] = true;
                    self.with_node(node, |n, ctx| n.on_crash(ctx));
                }
            }
        }
    }

    fn with_node(&mut self, id: NodeId, f: impl FnOnce(&mut dyn Node, &mut NodeCtx<'_>)) {
        let slot = self
            .nodes
            .get_mut(id.raw() as usize)
            .unwrap_or_else(|| panic!("event for unknown node {id:?}"));
        let mut node = slot
            .take()
            .expect("node re-entered during its own callback");
        let mut ctx = NodeCtx {
            core: &mut self.core,
            node: id,
        };
        f(node.as_mut(), &mut ctx);
        self.nodes[id.raw() as usize] = Some(node);
    }

    /// Dispatch up to `limit` events at or before `deadline`, tracking the
    /// dispatch margin against the conservative bound `safe` (picoseconds).
    fn dispatch_batch(&mut self, deadline: Time, limit: u64, safe: u64) -> u64 {
        let mut n = 0;
        while n < limit {
            let Some(ev) = self.core.queue.pop_if_at_or_before(deadline) else {
                break;
            };
            if safe != u64::MAX {
                let margin = safe - ev.at.picos();
                self.core.par.min_margin = self.core.par.min_margin.min(margin);
            }
            self.dispatch(ev);
            n += 1;
        }
        n
    }

    /// One round of the conservative protocol: read the dispatch bound,
    /// absorb cross deliveries, publish null-message bounds, dispatch a
    /// batch strictly below the bound. Returns `(dispatched, absorbed)`.
    fn sync_round(&mut self, deadline: Time, shared: &SyncShared) -> (u64, u64) {
        // Order matters: the bound is read *before* the drain, so any
        // message not yet absorbed was sent after our neighbor promised
        // `safe` — its timestamp is `>= safe` and cannot be missed by
        // the batch below.
        let safe = shared.safe_bound(self.core.part as usize);
        let drained = self.core.drain_inboxes();
        // Publish before dispatching: the pre-batch queue head is a
        // valid (monotone) earliest-output estimate for the whole
        // batch, and neighbors see fresh bounds while we work.
        self.core.publish_bounds(safe);
        let dd = Time::from_picos(safe.saturating_sub(1).min(deadline.picos()));
        (self.dispatch_batch(dd, BATCH, safe), drained)
    }

    /// One partition's worker loop: [`Partition::sync_round`] until the run
    /// is over, taking part in termination detection whenever a round finds
    /// nothing to do.
    fn run_loop(&mut self, deadline: Time, quiesce: bool, shared: &SyncShared) {
        let me = self.core.part as usize;
        let _fuse = PanicFuse(shared);
        let mut idle_rounds = 0;
        while !shared.done.load(Acquire) {
            self.core.par.iterations += 1;
            let (n, drained) = self.sync_round(deadline, shared);
            if n > 0 || drained > 0 {
                if n > 0 {
                    shared.note_progress(me);
                }
                idle_rounds = 0;
                continue;
            }
            self.core.par.idle_iterations += 1;
            let idle = if quiesce {
                self.core.queue.is_empty()
            } else {
                self.core.queue.peek_time().is_none_or(|t| t > deadline)
            };
            shared.set_finished(me, idle);
            if idle && me == 0 && shared.try_terminate() {
                break;
            }
            if idle_rounds < SPIN_ROUNDS {
                idle_rounds += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// Builder for a [`Simulator`]: register nodes, connect ports, pick a seed.
///
/// The scheduler backend (and with it the partition count) is read from the
/// thread-local configured via [`crate::with_sched_backend`] at
/// [`SimBuilder::build`] time.
pub struct SimBuilder {
    nodes: Vec<Box<dyn Node>>,
    links: Vec<LinkInfo>,
    ports: IntMap<(NodeId, PortId), (usize, usize)>,
    seed: u64,
    keep_trace: bool,
}

impl SimBuilder {
    /// Start building a simulation with the given RNG seed.
    pub fn new(seed: u64) -> SimBuilder {
        SimBuilder {
            nodes: Vec::new(),
            links: Vec::new(),
            ports: IntMap::default(),
            seed,
            keep_trace: false,
        }
    }

    /// Register a node, returning its id.
    pub fn add_node(&mut self, node: Box<dyn Node>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        id
    }

    /// Connect `a`'s port `pa` to `b`'s port `pb` with `spec`.
    ///
    /// # Panics
    ///
    /// Panics on unknown node ids, self-loops, or ports that are already
    /// connected.
    pub fn connect(
        &mut self,
        a: NodeId,
        pa: PortId,
        b: NodeId,
        pb: PortId,
        spec: LinkSpec,
    ) -> LinkId {
        spec.faults.validate();
        assert!((a.raw() as usize) < self.nodes.len(), "unknown node {a:?}");
        assert!((b.raw() as usize) < self.nodes.len(), "unknown node {b:?}");
        assert!(a != b, "self-loop links are not supported");
        let lid = self.links.len();
        for (end, ep) in [(0usize, (a, pa)), (1, (b, pb))] {
            let prev = self.ports.insert(ep, (lid, end));
            assert!(prev.is_none(), "port {:?}/{:?} connected twice", ep.0, ep.1);
        }
        self.links.push(LinkInfo {
            spec,
            ends: [
                Endpoint { node: a, port: pa },
                Endpoint { node: b, port: pb },
            ],
        });
        LinkId(lid as u32)
    }

    /// Record every delivered packet (time, endpoints, length, digest) into
    /// an in-memory trace, retrievable via [`Simulator::trace`]. Costs memory
    /// proportional to traffic; off by default. The rolling digest used by
    /// determinism tests is always maintained.
    pub fn keep_trace(&mut self, keep: bool) -> &mut Self {
        self.keep_trace = keep;
        self
    }

    /// Finish building.
    pub fn build(self) -> Simulator {
        let n = self.nodes.len();
        let threads = crate::event::current_backend().threads();
        let k = if n == 0 { 1 } else { threads.min(n) };
        let node_part = assign(n, &self.links, k);

        // Flatten the builder's port map into the dense per-node tables the
        // event loop indexes directly.
        let mut ports: Vec<Vec<Option<PortSlotStatic>>> = vec![Vec::new(); n];
        for (&(node, port), &(lid, end)) in &self.ports {
            let row = &mut ports[node.raw() as usize];
            let idx = port.raw() as usize;
            if row.len() <= idx {
                row.resize(idx + 1, None);
            }
            row[idx] = Some(PortSlotStatic {
                link: lid as u32,
                end: end as u8,
            });
        }
        let topo = Arc::new(Topo {
            links: self.links,
            ports,
            node_part,
        });
        let dirs_n = topo.dirs();

        // Lookahead matrix: min propagation over links crossing each
        // ordered partition pair. Zero-propagation links must not cross —
        // with no lookahead the conservative bound never advances past them
        // — and `assign` only cuts one when fewer than `k` groups of nodes
        // are free of them.
        let mut lookahead = vec![u64::MAX; k * k];
        if k > 1 {
            for (lid, l) in topo.links.iter().enumerate() {
                let pa = topo.node_part[l.ends[0].node.raw() as usize] as usize;
                let pb = topo.node_part[l.ends[1].node.raw() as usize] as usize;
                if pa != pb {
                    assert!(
                        l.spec.propagation > TimeDelta::ZERO,
                        "link {lid} crosses partitions but has zero propagation delay; \
                         conservative parallel sync needs positive lookahead on every \
                         cross-partition link"
                    );
                    let la = l.spec.propagation.picos();
                    for (p, q) in [(pa, pb), (pb, pa)] {
                        let e = &mut lookahead[p * k + q];
                        *e = (*e).min(la);
                    }
                }
            }
        }

        let mut sync = SyncShared::new(k, lookahead);
        let mut outboxes: Vec<Vec<Option<Outbox>>> =
            (0..k).map(|_| (0..k).map(|_| None).collect()).collect();
        let mut inboxes: Vec<Vec<Inbox>> = (0..k).map(|_| Vec::new()).collect();
        let pairs: Vec<(usize, usize)> = (0..k)
            .flat_map(|p| sync.outbound[p].iter().map(move |&q| (p, q as usize)))
            .collect();
        for (p, q) in pairs {
            let (tx, rx) = mpsc::sync_channel(CHANNEL_CAP);
            let meta = ChannelMeta {
                sent: Arc::default(),
                recv: Arc::default(),
            };
            outboxes[p][q] = Some(Outbox {
                tx,
                sent: meta.sent.clone(),
            });
            inboxes[q].push(Inbox {
                rx,
                recv: meta.recv.clone(),
            });
            sync.channels.push(meta);
        }
        let sync = (k > 1).then(|| Arc::new(sync));

        let mut parts: Vec<Partition> = (0..k)
            .map(|pid| {
                let mut queue = EventQueue::new();
                queue.ensure_lanes(dirs_n);
                Partition {
                    worker_counts: ThreadCounts::default(),
                    frame_pool: FreeList::default(),
                    nodes: (0..n).map(|_| None).collect(),
                    core: EngineCore {
                        now: Time::ZERO,
                        part: pid as u32,
                        topo: topo.clone(),
                        queue,
                        horizon: (Time::ZERO, 0),
                        latest_done: (Time::ZERO, 0),
                        dirs: (0..dirs_n)
                            .map(|d| DirState {
                                stats: LinkStats::default(),
                                rng: StdRng::seed_from_u64(stream_seed(
                                    self.seed,
                                    STREAM_FAULTS,
                                    d as u64,
                                )),
                                deliver_seq: 0,
                                txdone_seq: 0,
                            })
                            .collect(),
                        tx: topo
                            .ports
                            .iter()
                            .map(|row| vec![TxPort::IDLE; row.len()])
                            .collect(),
                        crashed: vec![false; n],
                        crash_drops: vec![0; n],
                        timer_seq: vec![0; n],
                        trace: {
                            let ends = topo
                                .links
                                .iter()
                                .flat_map(|l| [(l.ends[0], l.ends[1]), (l.ends[1], l.ends[0])]);
                            if self.keep_trace {
                                TraceSink::recording(ends)
                            } else {
                                TraceSink::disabled(ends)
                            }
                        },
                        events_processed: 0,
                        outboxes: Vec::new(),
                        inboxes: Vec::new(),
                        sync: sync.clone(),
                        par: ParAccum::default(),
                    },
                }
            })
            .collect();
        for (i, node) in self.nodes.into_iter().enumerate() {
            let p = topo.node_part[i] as usize;
            parts[p].nodes[i] = Some(node);
        }
        for (pid, (ob, ib)) in outboxes.into_iter().zip(inboxes).enumerate() {
            parts[pid].core.outboxes = ob;
            parts[pid].core.inboxes = ib;
        }

        Simulator {
            parts,
            topo,
            sync,
            admin_seq: vec![0; n],
        }
    }
}

/// A runnable simulation.
pub struct Simulator {
    parts: Vec<Partition>,
    topo: Arc<Topo>,
    sync: Option<Arc<SyncShared>>,
    /// Driver-side tie counters for crash/restart events, per node.
    admin_seq: Vec<u32>,
}

impl Simulator {
    /// Current simulated time. Between runs every partition's clock agrees;
    /// this reads partition 0's.
    pub fn now(&self) -> Time {
        self.parts[0].core.now
    }

    /// Total events processed so far, summed over partitions.
    pub fn events_processed(&self) -> u64 {
        self.parts.iter().map(|p| p.core.events_processed).sum()
    }

    fn owner(&self, node: NodeId) -> usize {
        self.topo.node_part[node.raw() as usize] as usize
    }

    /// The partition (`0..par_stats().partitions`) that owns `node`: always
    /// 0 on the single-threaded backends. Read-only, for tests and reports
    /// that need to know which links a parallel run cuts; nothing simulated
    /// depends on it.
    pub fn partition_of(&self, node: NodeId) -> usize {
        self.owner(node)
    }

    /// Schedule a timer for `node` as if it had called [`NodeCtx::schedule`].
    /// Used by scenario drivers to kick off generators.
    pub fn schedule_timer(&mut self, node: NodeId, delay: TimeDelta, token: u64) {
        let p = self.owner(node);
        self.parts[p].core.schedule_timer(node, delay, token);
    }

    fn push_node_admin(&mut self, node: NodeId, up: bool, delay: TimeDelta) {
        let i = node.raw() as usize;
        let s = self.admin_seq[i];
        self.admin_seq[i] = s.checked_add(1).expect("node admin seq overflow");
        let t = tie::pack(tie::CLASS_NODE_ADMIN, node.raw(), s);
        let p = self.owner(node);
        let at = self.parts[p].core.now + delay;
        self.parts[p]
            .core
            .queue
            .push_keyed(at, t, EventKind::NodeAdmin { node, up });
    }

    /// Schedule `node` to crash after `delay`: its [`Node::on_crash`] hook
    /// runs, then every delivery and timer addressed to it is discarded
    /// until a matching [`Simulator::schedule_restart`] fires.
    pub fn schedule_crash(&mut self, node: NodeId, delay: TimeDelta) {
        self.push_node_admin(node, false, delay);
    }

    /// Schedule `node` to power back up after `delay` (no-op unless it is
    /// crashed at that time); its [`Node::on_restart`] hook runs.
    pub fn schedule_restart(&mut self, node: NodeId, delay: TimeDelta) {
        self.push_node_admin(node, true, delay);
    }

    /// Deliveries and timers discarded while `node` was crashed.
    pub fn crash_drops(&self, node: NodeId) -> u64 {
        self.parts[self.owner(node)].core.crash_drops[node.raw() as usize]
    }

    /// Scheduler counters (queue depth high-water, wheel cascades, dead
    /// timer reaps, slab reuse) for the run so far, merged over partitions.
    pub fn sched_stats(&self) -> SchedStats {
        let mut s = SchedStats::default();
        for p in &self.parts {
            s.merge(&p.core.queue.stats());
        }
        s
    }

    /// Parallel-engine counters (zeros/defaults on the single-threaded
    /// backends, where `partitions == 1`).
    pub fn par_stats(&self) -> ParStats {
        let mut s = ParStats {
            partitions: self.parts.len(),
            ..ParStats::default()
        };
        for p in &self.parts {
            s.cross_messages += p.core.par.cross_messages;
            s.min_dispatch_margin_picos = s.min_dispatch_margin_picos.min(p.core.par.min_margin);
            s.iterations += p.core.par.iterations;
            s.channel_stalls += p.core.par.channel_stalls;
            s.max_partition_events = s.max_partition_events.max(p.core.events_processed);
            s.idle_iterations += p.core.par.idle_iterations;
        }
        s
    }

    /// Run until the event queue is empty or `deadline` is reached (whichever
    /// comes first). Returns the number of events processed by this call.
    pub fn run_until(&mut self, deadline: Time) -> u64 {
        if self.parts.len() > 1 {
            return self.run_parallel(deadline, false);
        }
        let part = &mut self.parts[0];
        let mut n = 0;
        // Fused pop-with-deadline: one queue traversal per event instead of
        // a peek/pop pair.
        while let Some(ev) = part.core.queue.pop_if_at_or_before(deadline) {
            part.dispatch(ev);
            n += 1;
        }
        part.core.reach_deadline(deadline);
        n
    }

    /// Run until the event queue is empty. Returns events processed. The
    /// clock ends at the last event or the last completion, whichever is
    /// later.
    pub fn run_to_quiescence(&mut self) -> u64 {
        if self.parts.len() > 1 {
            return self.run_parallel(Time::from_picos(u64::MAX), true);
        }
        let part = &mut self.parts[0];
        let mut n = 0;
        while let Some(ev) = part.core.queue.pop() {
            part.dispatch(ev);
            n += 1;
        }
        part.core.pass_completions();
        // Quiescence is the natural point to hand a storm's peak slab
        // capacity back to the allocator.
        part.core.queue.release_excess();
        n
    }

    /// One parallel run segment: spawn a scoped worker per partition, let
    /// them advance under the conservative protocol, then re-align clocks.
    fn run_parallel(&mut self, deadline: Time, quiesce: bool) -> u64 {
        let before: u64 = self.parts.iter().map(|p| p.core.events_processed).sum();
        let shared = self
            .sync
            .as_ref()
            .expect("parallel run without sync")
            .clone();
        let peeks: Vec<u64> = self
            .parts
            .iter_mut()
            .map(|p| p.core.queue.peek_time().map_or(u64::MAX, |t| t.picos()))
            .collect();
        shared.begin(&peeks);
        let k = self.parts.len();
        for (pid, p) in self.parts.iter_mut().enumerate() {
            p.frame_pool.take_share(k - pid);
        }
        std::thread::scope(|s| {
            for part in &mut self.parts {
                let shared = &*shared;
                s.spawn(move || {
                    pool::swap(&mut part.frame_pool);
                    part.run_loop(deadline, quiesce, shared);
                    pool::swap(&mut part.frame_pool);
                    part.worker_counts = ThreadCounts::current();
                });
            }
        });
        // The wire counters are per thread: fold each worker's into the
        // driving thread so a delta taken around this run covers all of it.
        // The frame buffers come home the same way.
        for p in &mut self.parts {
            std::mem::take(&mut p.worker_counts).absorb();
            p.frame_pool.give_back();
        }
        for p in &mut self.parts {
            if quiesce {
                p.core.pass_completions();
                p.core.queue.release_excess();
            } else {
                p.core.reach_deadline(deadline);
            }
        }
        // Partitions stop at the time of their own last event or
        // completion; the simulation's instant is the latest of those, and
        // its horizon the highest key any partition passed — what the
        // sequential loop would have reached.
        let (now, horizon) = self
            .parts
            .iter()
            .fold((Time::ZERO, (Time::ZERO, 0)), |(t, h), p| {
                (t.max(p.core.now), h.max(p.core.horizon))
            });
        for p in &mut self.parts {
            p.core.now = now;
            p.core.horizon = horizon;
        }
        let after: u64 = self.parts.iter().map(|p| p.core.events_processed).sum();
        after - before
    }

    /// Process exactly one event. Panics if the queue is empty, or on the
    /// parallel backend (single-stepping has no meaning across partitions).
    pub fn step(&mut self) {
        assert!(
            self.parts.len() == 1,
            "step() requires a single-partition backend"
        );
        let part = &mut self.parts[0];
        let ev = part.core.queue.pop().expect("step on empty event queue");
        part.dispatch(ev);
    }

    /// Borrow a node, downcast to its concrete type. Panics on a wrong type
    /// or unknown id. Used by scenario drivers and tests to read node state
    /// between runs — the simulated equivalent of the paper's control plane
    /// reading data-plane registers.
    pub fn node<T: Node>(&self, id: NodeId) -> &T {
        let node = self.parts[self.owner(id)].nodes[id.raw() as usize]
            .as_deref()
            .expect("node detached");
        let any: &dyn std::any::Any = node;
        any.downcast_ref::<T>()
            .unwrap_or_else(|| panic!("node {id:?} is not a {}", std::any::type_name::<T>()))
    }

    /// Mutable variant of [`Simulator::node`].
    pub fn node_mut<T: Node>(&mut self, id: NodeId) -> &mut T {
        let p = self.owner(id);
        let node = self.parts[p].nodes[id.raw() as usize]
            .as_deref_mut()
            .expect("node detached");
        let name = node.name().to_owned();
        let any: &mut dyn std::any::Any = node;
        any.downcast_mut::<T>().unwrap_or_else(|| {
            panic!(
                "node {id:?} ({name}) is not a {}",
                std::any::type_name::<T>()
            )
        })
    }

    /// Per-direction stats for a link. `end` 0 is the `a` side passed to
    /// [`SimBuilder::connect`], and the stats describe traffic *transmitted
    /// by* that end.
    pub fn link_stats(&self, link: LinkId, end: usize) -> LinkStats {
        let dir = link.raw() as usize * 2 + end;
        self.parts[self.topo.dir_owner(dir) as usize].core.dirs[dir].stats
    }

    /// Total packets delivered across every link in both directions — the
    /// per-hop packet count the perf harness divides by wall-clock time.
    pub fn packets_delivered(&self) -> u64 {
        (0..self.topo.dirs())
            .map(|d| {
                self.parts[self.topo.dir_owner(d) as usize].core.dirs[d]
                    .stats
                    .delivered_packets
            })
            .sum()
    }

    /// The recorded trace (empty unless [`SimBuilder::keep_trace`] was set):
    /// every partition's per-direction event lists, merged into one
    /// time-sorted view. The sort is stable over (direction, per-direction
    /// order), so the result is deterministic.
    pub fn trace(&self) -> Vec<TraceEvent> {
        let mut out = Vec::new();
        for d in 0..self.topo.dirs() {
            let owner = self.topo.dir_owner(d) as usize;
            out.extend_from_slice(self.parts[owner].core.trace.dir_events(d));
        }
        out.sort_by_key(|e| e.at);
        out
    }

    /// A rolling digest over every delivered packet: time, endpoints, length
    /// and content digest, folded per link direction and then combined in
    /// canonical direction order. Identical topology + seed gives an
    /// identical digest on every scheduler backend, parallel included.
    pub fn trace_digest(&self) -> u64 {
        TraceSink::combined_digest(self.topo.dirs(), |d| {
            &self.parts[self.topo.dir_owner(d) as usize].core.trace
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{with_sched_backend, SchedBackend};
    use crate::link::FaultSpec;
    use std::collections::VecDeque;

    /// Test node: echoes every packet back out the port it arrived on,
    /// queueing if necessary, and counts arrivals.
    struct Echo {
        name: String,
        rx: u64,
        pending: VecDeque<(PortId, Packet)>,
    }

    impl Echo {
        fn new(name: &str) -> Self {
            Echo {
                name: name.into(),
                rx: 0,
                pending: VecDeque::new(),
            }
        }
    }

    impl Node for Echo {
        fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, port: PortId, packet: Packet) {
            self.rx += 1;
            if ctx.tx_busy(port) {
                self.pending.push_back((port, packet));
            } else {
                ctx.start_tx(port, packet);
            }
        }

        fn on_tx_done(&mut self, ctx: &mut NodeCtx<'_>, _port: PortId) {
            if let Some((port, pkt)) = self.pending.pop_front() {
                ctx.start_tx(port, pkt);
            }
        }

        fn name(&self) -> &str {
            &self.name
        }
    }

    /// Test node: forwards between its ports 0 and 1, queueing per port.
    struct Relay {
        qs: [crate::queue::TxQueue; 2],
    }

    impl Relay {
        fn new() -> Self {
            Relay {
                qs: [PortId(0), PortId(1)].map(crate::queue::TxQueue::new),
            }
        }
    }

    impl Node for Relay {
        fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, port: PortId, packet: Packet) {
            self.qs[1 - port.raw() as usize].send(ctx, packet);
        }

        fn on_tx_done(&mut self, ctx: &mut NodeCtx<'_>, port: PortId) {
            self.qs[port.raw() as usize].on_tx_done(ctx);
        }

        fn name(&self) -> &str {
            "relay"
        }
    }

    /// Test node: sends `count` packets of `size` bytes as fast as the line
    /// allows, then counts what comes back.
    struct Blaster {
        name: String,
        to_send: u64,
        size: usize,
        rx: u64,
        last_rx_at: Time,
    }

    impl Node for Blaster {
        fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, _port: PortId, _packet: Packet) {
            self.rx += 1;
            self.last_rx_at = ctx.now();
        }

        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _token: u64) {
            if self.to_send > 0 && !ctx.tx_busy(PortId(0)) {
                self.to_send -= 1;
                ctx.start_tx(PortId(0), Packet::zeroed(self.size));
            }
        }

        fn on_tx_done(&mut self, ctx: &mut NodeCtx<'_>, _port: PortId) {
            if self.to_send > 0 {
                self.to_send -= 1;
                ctx.start_tx(PortId(0), Packet::zeroed(self.size));
            }
        }

        fn name(&self) -> &str {
            &self.name
        }
    }

    fn blaster(count: u64, size: usize) -> Box<Blaster> {
        Box::new(Blaster {
            name: "blaster".into(),
            to_send: count,
            size,
            rx: 0,
            last_rx_at: Time::ZERO,
        })
    }

    fn two_node_sim(seed: u64) -> (Simulator, NodeId, NodeId) {
        let mut b = SimBuilder::new(seed);
        let blaster = b.add_node(blaster(10, 1500));
        let echo = b.add_node(Box::new(Echo::new("echo")));
        b.connect(blaster, PortId(0), echo, PortId(0), LinkSpec::testbed_40g());
        let mut sim = b.build();
        sim.schedule_timer(blaster, TimeDelta::ZERO, 0);
        (sim, blaster, echo)
    }

    #[test]
    fn packets_flow_and_echo_back() {
        let (mut sim, blaster, echo) = two_node_sim(1);
        sim.run_to_quiescence();
        assert_eq!(sim.node::<Echo>(echo).rx, 10);
        assert_eq!(sim.node::<Blaster>(blaster).rx, 10);
    }

    #[test]
    fn timing_matches_rate_and_propagation() {
        // One 1500B packet at 40G: 300ns ser + 300ns prop = 600ns one way;
        // echo serializes another 300ns + 300ns prop → 1.2us round trip.
        let mut b = SimBuilder::new(7);
        let bl = b.add_node(blaster(1, 1500));
        let echo = b.add_node(Box::new(Echo::new("e")));
        b.connect(bl, PortId(0), echo, PortId(0), LinkSpec::testbed_40g());
        let mut sim = b.build();
        sim.schedule_timer(bl, TimeDelta::ZERO, 0);
        sim.run_to_quiescence();
        assert_eq!(sim.node::<Blaster>(bl).last_rx_at, Time::from_nanos(1200));
    }

    #[test]
    fn throughput_is_line_rate_bounded() {
        // 10 x 1500B back-to-back at 40G: last bit leaves at 10*300ns; the
        // echo node receives the final packet 300ns later.
        let (mut sim, _, echo) = two_node_sim(3);
        sim.run_to_quiescence();
        let _ = echo;
        assert_eq!(sim.now(), Time::from_nanos(10 * 300 + 300 + 300 + 300));
    }

    #[test]
    fn determinism_same_seed_same_digest() {
        let (mut a, _, _) = two_node_sim(42);
        let (mut b, _, _) = two_node_sim(42);
        a.run_to_quiescence();
        b.run_to_quiescence();
        assert_eq!(a.trace_digest(), b.trace_digest());
        assert_ne!(a.trace_digest(), 0);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let (mut sim, _, _) = two_node_sim(1);
        sim.run_until(Time::from_nanos(700));
        assert_eq!(sim.now(), Time::from_nanos(700));
        let before = sim.events_processed();
        sim.run_to_quiescence();
        assert!(sim.events_processed() > before);
    }

    #[test]
    fn fault_injection_drops_deterministically() {
        let run = |seed| {
            let mut b = SimBuilder::new(seed);
            let bl = b.add_node(blaster(1000, 200));
            let echo = b.add_node(Box::new(Echo::new("e")));
            let mut spec = LinkSpec::testbed_40g();
            spec.faults = FaultSpec {
                drop_prob: 0.2,
                corrupt_prob: 0.0,
                ..FaultSpec::NONE
            };
            let l = b.connect(bl, PortId(0), echo, PortId(0), spec);
            let mut sim = b.build();
            sim.schedule_timer(bl, TimeDelta::ZERO, 0);
            sim.run_to_quiescence();
            (
                sim.node::<Echo>(echo).rx,
                sim.link_stats(l, 0).dropped_packets,
            )
        };
        let (rx1, drop1) = run(5);
        let (rx2, drop2) = run(5);
        assert_eq!((rx1, drop1), (rx2, drop2));
        assert!(
            drop1 > 100 && drop1 < 300,
            "drop count {drop1} implausible for p=0.2"
        );
        assert_eq!(rx1 + drop1, 1000);
    }

    #[test]
    fn corruption_flips_one_bit() {
        let mut b = SimBuilder::new(9);
        let bl = b.add_node(blaster(1, 100));
        struct Capture {
            got: Option<Packet>,
        }
        impl Node for Capture {
            fn on_packet(&mut self, _ctx: &mut NodeCtx<'_>, _port: PortId, packet: Packet) {
                self.got = Some(packet);
            }
            fn name(&self) -> &str {
                "capture"
            }
        }
        let cap = b.add_node(Box::new(Capture { got: None }));
        let mut spec = LinkSpec::testbed_40g();
        spec.faults = FaultSpec {
            drop_prob: 0.0,
            corrupt_prob: 1.0,
            ..FaultSpec::NONE
        };
        b.connect(bl, PortId(0), cap, PortId(0), spec);
        let mut sim = b.build();
        sim.schedule_timer(bl, TimeDelta::ZERO, 0);
        sim.run_to_quiescence();
        let got = sim.node_mut::<Capture>(cap).got.take().expect("delivered");
        let ones: u32 = got.as_slice().iter().map(|b| b.count_ones()).sum();
        assert_eq!(ones, 1, "exactly one bit flipped");
    }

    #[test]
    fn corrupting_empty_packets_does_not_panic() {
        struct EmptySender {
            sent: bool,
        }
        impl Node for EmptySender {
            fn on_packet(&mut self, _: &mut NodeCtx<'_>, _: PortId, _: Packet) {}
            fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _: u64) {
                if !self.sent {
                    self.sent = true;
                    ctx.start_tx(PortId(0), Packet::zeroed(0));
                }
            }
            fn name(&self) -> &str {
                "empty"
            }
        }
        let mut b = SimBuilder::new(2);
        let s = b.add_node(Box::new(EmptySender { sent: false }));
        let e = b.add_node(Box::new(Echo::new("echo")));
        let mut spec = LinkSpec::testbed_40g();
        spec.faults = FaultSpec {
            drop_prob: 0.0,
            corrupt_prob: 1.0,
            ..FaultSpec::NONE
        };
        b.connect(s, PortId(0), e, PortId(0), spec);
        let mut sim = b.build();
        sim.schedule_timer(s, TimeDelta::ZERO, 0);
        sim.run_to_quiescence(); // must not panic
        assert_eq!(sim.node::<Echo>(e).rx, 1);
    }

    #[test]
    fn link_stats_account_bytes() {
        let (mut sim, _, _) = two_node_sim(1);
        sim.run_to_quiescence();
        let s = sim.link_stats(LinkId(0), 0);
        assert_eq!(s.tx_packets, 10);
        assert_eq!(s.tx_bytes, 15_000);
        assert_eq!(s.delivered_bytes, 15_000);
        assert_eq!(s.dropped_packets, 0);
    }

    #[test]
    #[should_panic(expected = "port busy")]
    fn double_tx_panics() {
        struct Bad;
        impl Node for Bad {
            fn on_packet(&mut self, _: &mut NodeCtx<'_>, _: PortId, _: Packet) {}
            fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _: u64) {
                ctx.start_tx(PortId(0), Packet::zeroed(64));
                ctx.start_tx(PortId(0), Packet::zeroed(64));
            }
            fn name(&self) -> &str {
                "bad"
            }
        }
        let mut b = SimBuilder::new(0);
        let bad = b.add_node(Box::new(Bad));
        let peer = b.add_node(Box::new(Echo::new("peer")));
        b.connect(bad, PortId(0), peer, PortId(0), LinkSpec::testbed_40g());
        let mut sim = b.build();
        sim.schedule_timer(bad, TimeDelta::ZERO, 0);
        sim.run_to_quiescence();
    }

    #[test]
    #[should_panic(expected = "connected twice")]
    fn duplicate_port_connection_panics() {
        let mut b = SimBuilder::new(0);
        let x = b.add_node(Box::new(Echo::new("x")));
        let y = b.add_node(Box::new(Echo::new("y")));
        let z = b.add_node(Box::new(Echo::new("z")));
        b.connect(x, PortId(0), y, PortId(0), LinkSpec::testbed_40g());
        b.connect(x, PortId(0), z, PortId(0), LinkSpec::testbed_40g());
    }

    #[test]
    fn trace_recording_captures_deliveries() {
        let mut b = SimBuilder::new(1);
        let bl = b.add_node(blaster(3, 64));
        let echo = b.add_node(Box::new(Echo::new("e")));
        b.connect(bl, PortId(0), echo, PortId(0), LinkSpec::testbed_40g());
        b.keep_trace(true);
        let mut sim = b.build();
        sim.schedule_timer(bl, TimeDelta::ZERO, 0);
        sim.run_to_quiescence();
        // 3 deliveries each way.
        assert_eq!(sim.trace().len(), 6);
        assert!(sim.trace().windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn duplicated_frame_is_hashed_once() {
        const FRAMES: u64 = 25;
        let mut b = SimBuilder::new(4);
        let bl = b.add_node(blaster(FRAMES, 300));
        let echo = b.add_node(Box::new(Echo::new("e")));
        let mut spec = LinkSpec::testbed_40g();
        spec.faults = FaultSpec {
            duplicate_prob: 1.0,
            ..FaultSpec::NONE
        };
        let l = b.connect(bl, PortId(0), echo, PortId(0), spec);
        b.keep_trace(true);
        let mut sim = b.build();
        sim.schedule_timer(bl, TimeDelta::ZERO, 0);
        let before = extmem_wire::packet::digest_compute_count();
        sim.run_to_quiescence();
        // Every frame arrives twice and each arrival is echoed twice, and
        // all six deliveries share the one hash of the frame as first sent.
        assert_eq!(sim.link_stats(l, 0).duplicated_packets, FRAMES);
        assert_eq!(sim.node::<Blaster>(bl).rx, 4 * FRAMES);
        assert_eq!(extmem_wire::packet::digest_compute_count() - before, FRAMES);
        let content = Packet::zeroed(300).digest();
        assert_eq!(sim.trace().len() as u64, 6 * FRAMES);
        assert!(sim.trace().iter().all(|e| e.digest == content));
    }

    // ------------------------------------------------------------------
    // Unwatched transmit completions. Each test runs a watched twin, which
    // starts with `start_tx`, and an unwatched one, which starts with
    // `start_tx_unwatched`; the port must read the same at every callback.

    /// What a [`Scripted`] node does when timer `token` fires.
    #[derive(Clone, Copy)]
    enum Act {
        /// Start a frame of this many bytes on port 0.
        Send(usize),
        /// Ask for port 0's completion.
        Watch,
        /// Nothing: the timer only reads the port.
        Read,
    }

    /// Test node: timer `token` runs `script[token]`; every callback logs
    /// `(now, callback, tx_busy(port 0))`, after its action.
    struct Scripted {
        watched: bool,
        script: Vec<Act>,
        log: Vec<(Time, &'static str, bool)>,
    }

    impl Scripted {
        fn note(&mut self, ctx: &NodeCtx<'_>, what: &'static str) {
            self.log.push((ctx.now(), what, ctx.tx_busy(PortId(0))));
        }
    }

    impl Node for Scripted {
        fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, _: PortId, _: Packet) {
            self.note(ctx, "packet");
        }
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
            match self.script[token as usize] {
                Act::Send(len) if self.watched => ctx.start_tx(PortId(0), Packet::zeroed(len)),
                Act::Send(len) => ctx.start_tx_unwatched(PortId(0), Packet::zeroed(len)),
                Act::Watch => ctx.watch_tx_done(PortId(0)),
                Act::Read => {}
            }
            self.note(ctx, "timer");
        }
        fn on_tx_done(&mut self, ctx: &mut NodeCtx<'_>, _: PortId) {
            self.note(ctx, "tx_done");
        }
        fn on_crash(&mut self, ctx: &mut NodeCtx<'_>) {
            self.note(ctx, "crash");
        }
        fn name(&self) -> &str {
            "scripted"
        }
    }

    /// Node `a` (scripted, watched or not) and node `b` (always watched)
    /// on one link; `kicks` are `(node, delay ns, token)` timers scheduled
    /// on the simulator at time zero.
    fn scripted_pair(
        watched: bool,
        a: Vec<Act>,
        b: Vec<Act>,
        spec: LinkSpec,
        kicks: &[(usize, u64, u64)],
    ) -> (Simulator, NodeId) {
        let mut builder = SimBuilder::new(1);
        let script = |watched, script| {
            Box::new(Scripted {
                watched,
                script,
                log: Vec::new(),
            })
        };
        let ids = [
            builder.add_node(script(watched, a)),
            builder.add_node(script(true, b)),
        ];
        builder.connect(ids[0], PortId(0), ids[1], PortId(0), spec);
        let mut sim = builder.build();
        for &(node, delay, token) in kicks {
            sim.schedule_timer(ids[node], TimeDelta::from_nanos(delay), token);
        }
        (sim, ids[0])
    }

    /// `a`'s log without its `on_tx_done` entries, which only a watched
    /// completion produces.
    fn readings(sim: &Simulator, a: NodeId) -> Vec<(Time, &'static str, bool)> {
        let log = &sim.node::<Scripted>(a).log;
        log.iter().filter(|e| e.1 != "tx_done").copied().collect()
    }

    /// `run_to_quiescence` on one partition, returning every dispatched
    /// event's `(at, seq)`.
    fn run_keyed(sim: &mut Simulator) -> Vec<OrderKey> {
        let part = &mut sim.parts[0];
        let mut keys = Vec::new();
        while let Some(ev) = part.core.queue.pop() {
            keys.push((ev.at, ev.seq));
            part.dispatch(ev);
        }
        part.core.pass_completions();
        keys
    }

    #[test]
    fn at_the_completion_instant_earlier_keys_read_busy_and_later_ones_idle() {
        // `a` sends 1500 B at t = 0: done at 300 ns. `b`'s zero-length
        // frame arrives at `a` at 300 ns too, as a delivery (class 3, keyed
        // before the completion); `a`'s own timer at 300 ns (class 5) is
        // keyed after it.
        let run = |watched| {
            let (mut sim, a) = scripted_pair(
                watched,
                vec![Act::Send(1500), Act::Read],
                vec![Act::Send(0)],
                LinkSpec::testbed_40g(),
                &[(0, 0, 0), (0, 300, 1), (1, 0, 0)],
            );
            let events = sim.run_to_quiescence();
            (readings(&sim, a), events)
        };
        let (watched, unwatched) = (run(true), run(false));
        let at = Time::from_nanos(300);
        assert_eq!(
            watched.0,
            [
                (Time::ZERO, "timer", true),
                (at, "packet", true),
                (at, "timer", false)
            ]
        );
        assert_eq!(watched.0, unwatched.0);
        assert_eq!(watched.1, unwatched.1 + 1, "one completion event saved");
    }

    #[test]
    fn a_late_watch_fires_at_the_key_a_watched_start_has() {
        // Started unwatched at 0, watched at 100 ns: `on_tx_done` at 300 ns
        // between the delivery and the timer there, with the very key of
        // the twin started watched (whose own watch is a no-op).
        let run = |watched| {
            let (mut sim, a) = scripted_pair(
                watched,
                vec![Act::Send(1500), Act::Watch, Act::Read],
                vec![Act::Send(0)],
                LinkSpec::testbed_40g(),
                &[(0, 0, 0), (0, 100, 1), (0, 300, 2), (1, 0, 0)],
            );
            let keys = run_keyed(&mut sim);
            (sim.node::<Scripted>(a).log.clone(), keys)
        };
        let watched = run(true);
        assert_eq!(watched, run(false));
        let at = Time::from_nanos(300);
        assert_eq!(
            watched.0[2..],
            [
                (at, "packet", true),
                (at, "tx_done", false),
                (at, "timer", false)
            ]
        );
    }

    #[test]
    fn a_zero_length_frame_started_from_a_timer_schedules_its_completion() {
        // The timer's key (class 5) is past the completion's (class 4) at
        // the same instant, so the completion must be an event: the port
        // reads busy after the start and idle once it has popped, before
        // the second timer at that instant.
        let run = |watched| {
            let (mut sim, a) = scripted_pair(
                watched,
                vec![Act::Send(0), Act::Read],
                vec![],
                LinkSpec::testbed_40g(),
                &[(0, 0, 0), (0, 0, 1)],
            );
            let events = sim.run_to_quiescence();
            (sim.node::<Scripted>(a).log.clone(), events)
        };
        let watched = run(true);
        assert_eq!(watched, run(false));
        assert_eq!(
            watched.0,
            [
                (Time::ZERO, "timer", true),
                (Time::ZERO, "tx_done", false),
                (Time::ZERO, "timer", false)
            ]
        );
    }

    #[test]
    fn after_run_until_the_completion_instant_a_new_timer_reads_idle() {
        // After `run_until` stops 1 ps short of the completion, a timer
        // scheduled at that instant reads busy; after it stops at the
        // completion, one reads idle. So does a crash there, though its key
        // (class 1) is below the completion's: `run_until` passed
        // everything at or before its deadline.
        let (before, at) = (Time::from_picos(299_999), Time::from_nanos(300));
        let run = |watched, crash| {
            let (mut sim, a) = scripted_pair(
                watched,
                vec![Act::Send(1500), Act::Read],
                vec![],
                LinkSpec::testbed_40g(),
                &[(0, 0, 0)],
            );
            sim.run_until(before);
            sim.schedule_timer(a, TimeDelta::ZERO, 1);
            sim.run_until(before);
            sim.run_until(at);
            if crash {
                sim.schedule_crash(a, TimeDelta::ZERO);
            } else {
                sim.schedule_timer(a, TimeDelta::ZERO, 1);
            }
            sim.run_until(at);
            readings(&sim, a)
        };
        for (crash, what) in [(false, "timer"), (true, "crash")] {
            let watched = run(true, crash);
            assert_eq!(watched, run(false, crash));
            assert_eq!(watched[1..], [(before, "timer", true), (at, what, false)]);
        }
    }

    #[test]
    fn a_passed_completion_stays_passed_for_a_later_dispatched_smaller_key() {
        // Zero propagation. At 300 ns `a`'s completion passes, then `a`'s
        // timer reads idle; `b`'s timer, keyed after it, sends a zero-length
        // frame that reaches `a` at once as a delivery keyed *before* the
        // completion. The horizon is a maximum, so it reads idle too.
        let run = |watched| {
            let (mut sim, a) = scripted_pair(
                watched,
                vec![Act::Send(1500), Act::Read],
                vec![Act::Send(0)],
                LinkSpec::new(Rate::from_gbps(40), TimeDelta::ZERO),
                &[(0, 0, 0), (0, 300, 1), (1, 300, 0)],
            );
            sim.run_to_quiescence();
            readings(&sim, a)
        };
        let watched = run(true);
        assert_eq!(watched, run(false));
        let at = Time::from_nanos(300);
        assert_eq!(
            watched,
            [
                (Time::ZERO, "timer", true),
                (at, "timer", false),
                (at, "packet", false)
            ]
        );
    }

    #[test]
    fn quiescence_ends_at_the_last_completion() {
        // The frame is lost on the wire, so its completion at 300 ns is the
        // last thing that happens: the clock must end there, watched or
        // not, sequential or parallel.
        let mut spec = LinkSpec::testbed_40g();
        spec.faults = FaultSpec {
            drop_prob: 1.0,
            ..FaultSpec::NONE
        };
        for backend in [SchedBackend::Wheel, SchedBackend::Parallel(2)] {
            for watched in [true, false] {
                let now = with_sched_backend(backend, || {
                    let (mut sim, _) =
                        scripted_pair(watched, vec![Act::Send(1500)], vec![], spec, &[(0, 0, 0)]);
                    sim.run_to_quiescence();
                    sim.now()
                });
                assert_eq!(now, Time::from_nanos(300), "{backend:?}, watched {watched}");
            }
        }
    }

    // ------------------------------------------------------------------
    // Parallel backend

    /// Build + run the two-node scenario under `backend`, returning the
    /// observable fingerprint: digest, events, packets, echo rx count.
    fn two_node_fingerprint(backend: SchedBackend, seed: u64) -> (u64, u64, u64, u64) {
        with_sched_backend(backend, || {
            let (mut sim, _, echo) = two_node_sim(seed);
            sim.run_to_quiescence();
            (
                sim.trace_digest(),
                sim.events_processed(),
                sim.packets_delivered(),
                sim.node::<Echo>(echo).rx,
            )
        })
    }

    #[test]
    fn parallel_two_nodes_matches_wheel() {
        for seed in [1, 7, 42] {
            let wheel = two_node_fingerprint(SchedBackend::Wheel, seed);
            let par = two_node_fingerprint(SchedBackend::Parallel(2), seed);
            assert_eq!(wheel, par, "seed {seed}");
        }
    }

    #[test]
    fn parallel_run_until_segments_match_wheel() {
        let run = |backend| {
            with_sched_backend(backend, || {
                let (mut sim, _, _) = two_node_sim(11);
                sim.run_until(Time::from_nanos(700));
                let mid = (sim.now(), sim.events_processed());
                sim.run_to_quiescence();
                (mid, sim.trace_digest(), sim.events_processed())
            })
        };
        assert_eq!(run(SchedBackend::Wheel), run(SchedBackend::Parallel(2)));
    }

    #[test]
    fn parallel_fault_injection_matches_wheel() {
        let run = |backend| {
            with_sched_backend(backend, || {
                let mut b = SimBuilder::new(5);
                let bl = b.add_node(blaster(500, 200));
                let echo = b.add_node(Box::new(Echo::new("e")));
                let mut spec = LinkSpec::testbed_40g();
                spec.faults = FaultSpec {
                    drop_prob: 0.1,
                    corrupt_prob: 0.05,
                    duplicate_prob: 0.05,
                    reorder_prob: 0.05,
                    reorder_delay: TimeDelta::from_nanos(900),
                };
                let l = b.connect(bl, PortId(0), echo, PortId(0), spec);
                let mut sim = b.build();
                sim.schedule_timer(bl, TimeDelta::ZERO, 0);
                sim.run_to_quiescence();
                (
                    sim.trace_digest(),
                    sim.link_stats(l, 0),
                    sim.link_stats(l, 1),
                )
            })
        };
        assert_eq!(run(SchedBackend::Wheel), run(SchedBackend::Parallel(2)));
    }

    #[test]
    fn parallel_crash_restart_matches_wheel() {
        let run = |backend| {
            with_sched_backend(backend, || {
                let (mut sim, blaster, echo) = two_node_sim(13);
                // Crash the echo mid-run, restart it, and let the
                // survivors drain. Under Parallel(2) it is not in the
                // blaster's partition: two nodes, two partitions.
                let split = sim.partition_of(blaster) != sim.partition_of(echo);
                assert_eq!(split, sim.par_stats().partitions == 2);
                sim.schedule_crash(echo, TimeDelta::from_nanos(800));
                sim.schedule_restart(echo, TimeDelta::from_nanos(2000));
                sim.run_to_quiescence();
                (
                    sim.trace_digest(),
                    sim.crash_drops(echo),
                    sim.node::<Echo>(echo).rx,
                )
            })
        };
        let wheel = run(SchedBackend::Wheel);
        assert_eq!(wheel, run(SchedBackend::Parallel(2)));
        assert!(wheel.1 > 0, "crash window should blackhole something");
    }

    #[test]
    fn parallel_stats_are_sane() {
        with_sched_backend(SchedBackend::Parallel(2), || {
            let (mut sim, _, _) = two_node_sim(23);
            sim.run_to_quiescence();
            let s = sim.par_stats();
            assert_eq!(s.partitions, 2);
            assert!(s.cross_messages > 0, "every delivery crosses partitions");
            assert!(
                s.min_dispatch_margin_picos >= 1,
                "dispatch at/past the bound violates conservative safety"
            );
            assert!(s.iterations > 0);
        });
    }

    /// `pairs` blaster→echo pairs, blasters registered first. Returns the
    /// fingerprint and how many pairs the backend's partitioning split.
    fn blaster_echo_pairs(backend: SchedBackend, pairs: u64) -> ((u64, u64, Vec<u64>), usize) {
        with_sched_backend(backend, || {
            let mut b = SimBuilder::new(31);
            let blasters: Vec<NodeId> = (0..pairs)
                .map(|i| b.add_node(blaster(20 + i, 512)))
                .collect();
            let echoes: Vec<NodeId> = (0..pairs)
                .map(|i| b.add_node(Box::new(Echo::new(&format!("e{i}")))))
                .collect();
            for (bl, e) in blasters.iter().zip(&echoes) {
                b.connect(*bl, PortId(0), *e, PortId(0), LinkSpec::testbed_40g());
            }
            let mut sim = b.build();
            for bl in &blasters {
                sim.schedule_timer(*bl, TimeDelta::ZERO, 0);
            }
            sim.run_to_quiescence();
            let rx: Vec<u64> = echoes.iter().map(|e| sim.node::<Echo>(*e).rx).collect();
            let split = blasters
                .iter()
                .zip(&echoes)
                .filter(|(bl, e)| sim.partition_of(**bl) != sim.partition_of(**e))
                .count();
            ((sim.trace_digest(), sim.events_processed(), rx), split)
        })
    }

    #[test]
    fn four_partitions_all_cross_pairs_match_wheel() {
        // Three pairs cannot fill four partitions whole, so the
        // partitioner falls back to single nodes and every pair ends up
        // spanning two partitions.
        let (wheel, _) = blaster_echo_pairs(SchedBackend::Wheel, 3);
        let (par, split) = blaster_echo_pairs(SchedBackend::Parallel(4), 3);
        assert_eq!(split, 3, "premise: every pair crosses a boundary");
        assert_eq!(wheel, par);
        assert_eq!(wheel.2, vec![20, 21, 22]);
    }

    #[test]
    fn pairs_stay_whole_when_partitions_allow() {
        // Four pairs, four partitions: each single-link node stays with
        // its only neighbour and nothing crosses.
        let (wheel, _) = blaster_echo_pairs(SchedBackend::Wheel, 4);
        let (par, split) = blaster_echo_pairs(SchedBackend::Parallel(4), 4);
        assert_eq!(split, 0);
        assert_eq!(wheel, par);
    }

    #[test]
    fn promises_follow_the_queue_head_within_a_window() {
        // Partition 0 (a blaster with 100 frames, one TxDone every 300 ns)
        // driven round by round against a scripted peer: partition 1 never
        // runs, the test publishes its promises.
        with_sched_backend(SchedBackend::Parallel(2), || {
            let mut b = SimBuilder::new(3);
            let bl = b.add_node(blaster(100, 1500));
            let echo = b.add_node(Box::new(Echo::new("echo")));
            b.connect(bl, PortId(0), echo, PortId(0), LinkSpec::testbed_40g());
            let mut sim = b.build();
            assert_eq!((sim.partition_of(bl), sim.partition_of(echo)), (0, 1));
            sim.schedule_timer(bl, TimeDelta::ZERO, 0);
            let shared = sim.sync.clone().expect("two partitions");
            shared.begin(&[0, u64::MAX]);
            let promise = || shared.safe_bound(1);
            let la = TimeDelta::from_nanos(300).picos();
            let end = Time::from_picos(u64::MAX);

            // The peer promises silence until 12 us: a window of 40 events
            // (the kick, then a TxDone every 300 ns up to 11.7 us), more
            // than one round.
            shared.publish(1, 0, Time::from_micros(12).picos());
            let mut promises = vec![promise()];
            while sim.parts[0].sync_round(end, &shared).0 > 0 {
                promises.push(promise());
            }
            // Two dispatching rounds. The first published from the head it
            // started at (t = 0), the second — mid-window — from the head
            // the first one left behind: the TxDone at 32 x 300 ns.
            let at = |ns| Time::from_nanos(ns).picos();
            assert_eq!(promises, [la, la, at(300 * BATCH) + la]);
            assert_eq!(sim.parts[0].core.events_processed, 40);
            // Stopped strictly below the peer's promise: the TxDone at
            // 12 us itself stays queued, the last one dispatched was 300 ns
            // earlier.
            let tx_time = TimeDelta::from_nanos(300).picos();
            assert_eq!(sim.parts[0].core.par.min_margin, tx_time);
            assert_eq!(promise(), Time::from_micros(12).picos() + la);

            // A lower promise from the peer cannot reopen the past, and a
            // later one admits exactly the events below it.
            shared.publish(1, 0, Time::from_micros(3).picos());
            assert_eq!(sim.parts[0].sync_round(end, &shared).0, 0);
            shared.publish(1, 0, Time::from_micros(12).picos() + 1);
            assert_eq!(sim.parts[0].sync_round(end, &shared).0, 1);
            assert_eq!(sim.parts[0].core.par.min_margin, 1);
            assert_eq!(promise(), at(12_000) + la, "only ever raised");
        });
    }

    #[test]
    #[should_panic(expected = "crosses partitions but has zero propagation")]
    fn zero_propagation_cross_link_panics_under_parallel() {
        with_sched_backend(SchedBackend::Parallel(2), || {
            let mut b = SimBuilder::new(0);
            let x = b.add_node(Box::new(Echo::new("x")));
            let y = b.add_node(Box::new(Echo::new("y")));
            let spec = LinkSpec::new(Rate::from_gbps(40), TimeDelta::ZERO);
            b.connect(x, PortId(0), y, PortId(0), spec);
            let _ = b.build();
        });
    }

    #[test]
    fn zero_propagation_link_is_kept_inside_a_partition_when_possible() {
        // blaster --- x -0- y --- echo: splitting the four nodes down the
        // middle by index would cut the zero-propagation link; cutting
        // either outer link is legal, and the run must match the wheel.
        let run = |backend| {
            with_sched_backend(backend, || {
                let mut b = SimBuilder::new(19);
                let bl = b.add_node(blaster(50, 700));
                let x = b.add_node(Box::new(Relay::new()));
                let y = b.add_node(Box::new(Relay::new()));
                let echo = b.add_node(Box::new(Echo::new("echo")));
                let zero = LinkSpec::new(Rate::from_gbps(40), TimeDelta::ZERO);
                b.connect(bl, PortId(0), x, PortId(0), LinkSpec::testbed_40g());
                b.connect(x, PortId(1), y, PortId(0), zero);
                b.connect(y, PortId(1), echo, PortId(0), LinkSpec::testbed_40g());
                let mut sim = b.build();
                assert_eq!(sim.partition_of(x), sim.partition_of(y));
                sim.schedule_timer(bl, TimeDelta::ZERO, 0);
                sim.run_to_quiescence();
                let par = sim.par_stats();
                assert!(par.partitions == 1 || par.cross_messages > 0);
                assert!(par.min_dispatch_margin_picos >= 1);
                (sim.trace_digest(), sim.node::<Blaster>(bl).rx)
            })
        };
        let wheel = run(SchedBackend::Wheel);
        assert_eq!(wheel, run(SchedBackend::Parallel(2)));
        assert_eq!(wheel.1, 50);
    }
}
