//! The event queue: a timing wheel with a FIFO-lane fast path and
//! generation-tagged timer cancellation.
//!
//! ## Layout
//!
//! The queue splits compact **keys** — `(Time, seq, slot)`, 24 bytes — from
//! a **slab** of [`EventKind`] payloads touched exactly twice per event. The
//! keys are ordered by:
//!
//! * a **timing wheel**: one ring of 256 single-granule slots (a granule is
//!   4.096 ns, picoseconds shifted right by 12, so the ring spans ~1.05 us)
//!   with a 256-bit occupancy bitmap, and one **far heap** for every key
//!   inserted a ring span or more ahead of the cursor (timers, and
//!   serializations longer than a microsecond). Inserts into the ring are
//!   O(1); time advances by jumping the cursor straight to the earlier of
//!   the next occupied ring granule (a bitmap scan) and the far heap's
//!   earliest granule.
//! * a small **ready heap** holds only keys whose granule the cursor has
//!   reached; ties inside one granule still pop in exact `(at, seq)` order,
//!   so the total order is bit-identical to a plain binary heap's
//!   (property-tested against the retained heap oracle in
//!   `tests/structure_proptests.rs`, selectable via [`with_sched_backend`]).
//! * **FIFO lanes**: deliveries on one link direction are inherently
//!   time-ordered, so only each lane's head key lives in the wheel; the
//!   rest park in a per-lane `VecDeque` and are promoted on pop.
//!   This collapses the wheel population from O(in-flight packets) to
//!   O(links) in storm scenarios.
//! * **cancellable timers**: [`EventQueue::push_timer`] returns a
//!   generation-tagged [`TimerHandle`]. Cancellation marks the slab entry
//!   dead (the key stays where it is and is skipped lazily at pop), so
//!   cancel is O(1) and never disturbs the wheel. Generations come from a
//!   queue-wide monotonic counter, so a stale handle can never kill a
//!   reused slot.

use extmem_types::{NodeId, PortId, Time};
use extmem_wire::Packet;
use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// What happens when an event fires.
#[derive(Debug)]
pub enum EventKind {
    /// A packet finishes arriving at `node` on `port`.
    Deliver {
        /// Receiving node.
        node: NodeId,
        /// Receiving port (local to `node`).
        port: PortId,
        /// The packet, after any fault injection.
        packet: Packet,
    },
    /// `node` finishes serializing a watched packet out of `port`; the port
    /// is free again and the node's `on_tx_done` hook runs. An unwatched
    /// completion is no event at all.
    TxDone {
        /// Transmitting node.
        node: NodeId,
        /// Transmitting port.
        port: PortId,
    },
    /// A timer scheduled by `node` fires with its opaque `token`.
    Timer {
        /// Owning node.
        node: NodeId,
        /// Opaque value chosen by the node at scheduling time.
        token: u64,
    },
    /// `node` crashes (`up: false`, volatile state lost, engine blackholes
    /// its events) or restarts (`up: true`).
    NodeAdmin {
        /// The affected node.
        node: NodeId,
        /// `false` = crash, `true` = restart.
        up: bool,
    },
}

/// An event plus its position in the total order, as returned by
/// [`EventQueue::pop`].
#[derive(Debug)]
pub struct Scheduled {
    /// Fire time.
    pub at: Time,
    /// Tie-breaker at equal fire times. Events pushed through the public
    /// [`EventQueue::push`]/[`EventQueue::push_timer`] API get a plain
    /// monotone counter (earlier-scheduled fires earlier); the engine's
    /// internal pushes carry a *canonical* key packed from the event class
    /// and its source (see `tie`), which is what makes the parallel
    /// backend's total order identical to the single-threaded one.
    pub seq: u64,
    /// The event itself.
    pub kind: EventKind,
}

/// Canonical tie-break keys.
///
/// The single-threaded engine used to break time ties by global push order,
/// which is an artifact of execution order and therefore unreproducible
/// across partitions dispatching concurrently. Instead, every engine-
/// originated event gets a key that depends only on *what* it is and *how
/// many* of its kind its source produced — quantities that are identical in
/// any backend:
///
/// ```text
///   bits 63..61  class   (1 = node admin, 3 = deliver, 4 = tx-done,
///                         5 = timer; 2 is unused)
///   bits 60..32  source  (node id, or link direction id = link * 2 + end)
///   bits 31..0   per-source sequence number
/// ```
///
/// Class 0 is reserved for the public push API's plain counter (its values
/// never collide with packed keys: the counter would have to exceed 2^61).
/// At one fire time, order is: external pushes, node admin, deliveries (by
/// direction), tx-dones, timers (by node) — and within one source, schedule
/// order. Class 2 is unused: the class numbers are part of every tie key,
/// and so of every trace digest.
pub(crate) mod tie {
    /// Crash/restart events, keyed by node.
    pub const CLASS_NODE_ADMIN: u64 = 1;
    /// Packet deliveries, keyed by transmitting link direction.
    pub const CLASS_DELIVER: u64 = 3;
    /// Transmit completions, keyed by transmitting link direction.
    pub const CLASS_TX_DONE: u64 = 4;
    /// Node timers, keyed by owning node.
    pub const CLASS_TIMER: u64 = 5;

    /// Pack a canonical key. Panics (debug) on out-of-range sources; the
    /// per-source sequence is 32-bit and checked by the callers' counters.
    pub fn pack(class: u64, src: u32, seq: u32) -> u64 {
        debug_assert!((1..=5).contains(&class), "bad tie class {class}");
        debug_assert!(src < (1 << 29), "tie source {src} out of range");
        (class << 61) | (u64::from(src) << 32) | u64::from(seq)
    }
}

/// A handle to a pending timer, returned by [`EventQueue::push_timer`].
///
/// The generation tag makes handles single-use: once the timer fires or is
/// cancelled, the handle goes stale and a later [`EventQueue::cancel`] with
/// it is a harmless no-op — even if the slab slot was reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerHandle {
    slot: u32,
    gen: u64,
}

/// Scheduler counters, exposed through `Simulator::sched_stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// High-water mark of live pending events.
    pub peak_depth: u64,
    /// Far keys moved to the ready heap; 0 on the heap backend.
    pub cascades: u64,
    /// Cancelled timers reaped at pop/peek instead of dispatching.
    pub dead_dispatches: u64,
    /// Events parked in a FIFO lane instead of entering the wheel.
    pub lane_parks: u64,
    /// Slab slots served from the free list.
    pub slab_hits: u64,
    /// Slab slots that had to grow the slab.
    pub slab_misses: u64,
    /// High-water mark of the free list (slab slots held but unused).
    pub free_high_water: u64,
    /// Slab slots returned to the allocator by `release_excess`.
    pub slots_released: u64,
}

impl SchedStats {
    /// Fold another run's counters into this one: high-water marks take
    /// the max, everything else sums (multi-run scenarios report one row).
    pub fn merge(&mut self, other: &SchedStats) {
        self.peak_depth = self.peak_depth.max(other.peak_depth);
        self.free_high_water = self.free_high_water.max(other.free_high_water);
        self.cascades += other.cascades;
        self.dead_dispatches += other.dead_dispatches;
        self.lane_parks += other.lane_parks;
        self.slab_hits += other.slab_hits;
        self.slab_misses += other.slab_misses;
        self.slots_released += other.slots_released;
    }
}

/// Which core orders the keys. The wheel is the production backend; the
/// heap is retained as the property-test oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedBackend {
    /// Timing wheel: a ring of single-granule slots plus a far heap
    /// (default).
    Wheel,
    /// A plain binary heap, kept as the equivalence oracle.
    Heap,
    /// Conservative-synchronization parallel engine: the node graph is
    /// split across `n` partitions, each with its own timing wheel, that
    /// advance concurrently under link-latency lookahead bounds. Trace
    /// digests are bit-identical to [`SchedBackend::Wheel`].
    Parallel(usize),
}

impl SchedBackend {
    /// Worker threads a simulation built under this backend will use.
    pub fn threads(self) -> usize {
        match self {
            SchedBackend::Parallel(n) => n.max(1),
            _ => 1,
        }
    }
}

thread_local! {
    static BACKEND: Cell<SchedBackend> = const { Cell::new(SchedBackend::Wheel) };
}

/// Run `f` with every [`EventQueue`] created on this thread using backend
/// `b`. Used by the equivalence tests to build otherwise-identical
/// simulations on both cores without racing over process-global state.
pub fn with_sched_backend<R>(b: SchedBackend, f: impl FnOnce() -> R) -> R {
    let prev = BACKEND.with(|c| c.replace(b));
    let out = f();
    BACKEND.with(|c| c.set(prev));
    out
}

/// The backend configured for the calling thread — what a queue created now
/// would use. The engine builder reads this to pick its partition count.
pub(crate) fn current_backend() -> SchedBackend {
    BACKEND.with(|c| c.get())
}

/// The 24-byte key the cores actually sort: fire time, schedule sequence,
/// and the slab slot holding the [`EventKind`].
#[derive(Debug, Clone, Copy)]
struct Key {
    at: Time,
    seq: u64,
    slot: u32,
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event is popped
        // first. `seq` is unique, so `slot` never participates.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Picosecond shift defining the wheel granule (2^12 ps = 4.096 ns).
const GRANULE_SHIFT: u32 = 12;
/// Single-granule slots in the ring (~1.05 us). A key this many granules or
/// more ahead of the cursor waits in the far heap instead.
const RING_SLOTS: usize = 256;

fn granule(at: Time) -> u64 {
    at.picos() >> GRANULE_SHIFT
}

/// The timing wheel: one ring of single-granule slots plus a far heap.
struct Wheel {
    /// Granule the wheel has advanced to; every ring and far key has a
    /// strictly larger granule, every ready-heap key a smaller-or-equal one.
    cursor: u64,
    /// Keys whose granule the cursor has reached, in exact `(at, seq)` order.
    ready: BinaryHeap<Key>,
    /// Occupancy bitmap of `ring`.
    ring_bits: [u64; 4],
    /// Slot `g % 256` holds the keys of granule `g`, for every `g` less than
    /// a ring span ahead of the cursor at insert time.
    ring: Vec<Vec<Key>>,
    /// Keys inserted a ring span or more ahead of the cursor, in `(at, seq)`
    /// order: timers and the occasional long serialization.
    far: BinaryHeap<Key>,
    /// Far keys moved into `ready`.
    cascades: u64,
}

impl Wheel {
    fn new() -> Self {
        Wheel {
            cursor: 0,
            ready: BinaryHeap::new(),
            ring_bits: [0; 4],
            ring: (0..RING_SLOTS).map(|_| Vec::new()).collect(),
            far: BinaryHeap::new(),
            cascades: 0,
        }
    }

    fn insert(&mut self, key: Key) {
        let g = granule(key.at);
        if g <= self.cursor {
            self.ready.push(key);
        } else if g - self.cursor < RING_SLOTS as u64 {
            let idx = (g & (RING_SLOTS as u64 - 1)) as usize;
            self.ring_bits[idx >> 6] |= 1 << (idx & 63);
            self.ring[idx].push(key);
        } else {
            self.far.push(key);
        }
    }

    /// Earliest occupied ring granule strictly after the cursor, if any.
    /// Circular scan of the 256-bit bitmap as at most 5 word probes, each
    /// a shift + trailing_zeros — this runs once per queue advance, which
    /// on shallow queues means nearly once per pop.
    fn next_in_ring(&self) -> Option<u64> {
        let start = ((self.cursor + 1) & (RING_SLOTS as u64 - 1)) as u32;
        let w = (start >> 6) as usize;
        let b = start & 63;
        // Bits at/after `start` inside the starting word: shifting right by
        // `b` makes trailing_zeros count distance from `start` directly.
        let first = self.ring_bits[w] >> b;
        if first != 0 {
            return Some(self.cursor + 1 + first.trailing_zeros() as u64);
        }
        let mut dist = 64 - b as u64;
        for i in 1..4 {
            let word = self.ring_bits[(w + i) & 3];
            if word != 0 {
                return Some(self.cursor + 1 + dist + word.trailing_zeros() as u64);
            }
            dist += 64;
        }
        // Wrapped fully: only the starting word's bits before `start` left.
        let last = self.ring_bits[w] & ((1u64 << b) - 1);
        if last != 0 {
            return Some(self.cursor + 1 + dist + last.trailing_zeros() as u64);
        }
        None
    }

    /// Move the cursor to the earlier of the next occupied ring granule and
    /// the far heap's earliest granule, and move every key of that granule
    /// into `ready`. Returns `false` if the wheel holds no key.
    fn advance(&mut self) -> bool {
        let near = self.next_in_ring();
        let far = self.far.peek().map(|k| granule(k.at));
        let Some(target) = near.into_iter().chain(far).min() else {
            return false;
        };
        self.cursor = target;
        if near == Some(target) {
            let idx = (target & (RING_SLOTS as u64 - 1)) as usize;
            self.ring_bits[idx >> 6] &= !(1 << (idx & 63));
            self.ready.extend(self.ring[idx].drain(..));
        }
        while self.far.peek().is_some_and(|k| granule(k.at) == target) {
            self.ready.push(self.far.pop().expect("peeked far key"));
            self.cascades += 1;
        }
        true
    }

    fn peek(&mut self) -> Option<&Key> {
        if self.ready.is_empty() && !self.advance() {
            return None;
        }
        self.ready.peek()
    }

    fn pop(&mut self) -> Option<Key> {
        self.peek()?;
        self.ready.pop()
    }
}

/// The key-ordering core: production wheel or oracle heap.
enum Core {
    Wheel(Box<Wheel>),
    Heap(BinaryHeap<Key>),
}

impl Core {
    fn insert(&mut self, key: Key) {
        match self {
            Core::Wheel(w) => w.insert(key),
            Core::Heap(h) => h.push(key),
        }
    }

    fn pop(&mut self) -> Option<Key> {
        match self {
            Core::Wheel(w) => w.pop(),
            Core::Heap(h) => h.pop(),
        }
    }

    fn peek(&mut self) -> Option<Key> {
        match self {
            Core::Wheel(w) => w.peek().copied(),
            Core::Heap(h) => h.peek().copied(),
        }
    }

    fn cascades(&self) -> u64 {
        match self {
            Core::Wheel(w) => w.cascades,
            Core::Heap(_) => 0,
        }
    }
}

/// Marks an event that entered the queue outside any FIFO lane.
pub(crate) const NO_LANE: u32 = u32::MAX;

/// One slab slot: the payload (if pending) plus the generation that makes
/// [`TimerHandle`]s single-use.
struct SlabEntry {
    gen: u64,
    state: SlotState,
}

enum SlotState {
    Free,
    Live {
        kind: EventKind,
        lane: u32,
    },
    /// Cancelled; the key is still in the core and reaped lazily.
    Dead,
}

/// Slab slots kept through [`EventQueue::release_excess`] so steady-state
/// reuse never re-allocates.
const RETAIN_SLOTS: usize = 64;

/// A total-ordered future event queue.
pub struct EventQueue {
    core: Core,
    /// Slab of event payloads, indexed by key slot.
    slab: Vec<SlabEntry>,
    /// Free slots in the slab, reused LIFO so the hot slots stay cached.
    free: Vec<u32>,
    /// Per-lane parked keys; the front of a non-empty lane is the only key
    /// of that lane resident in the core.
    lanes: Vec<VecDeque<Key>>,
    /// Events pending dispatch (excludes cancelled ones).
    live: usize,
    next_seq: u64,
    next_gen: u64,
    stats: SchedStats,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    /// Create an empty queue on the thread's configured backend.
    pub fn new() -> Self {
        let core = match BACKEND.with(|c| c.get()) {
            // Each parallel partition's queue is an ordinary timing wheel;
            // parallelism lives in the engine, not the queue core.
            SchedBackend::Wheel | SchedBackend::Parallel(_) => Core::Wheel(Box::new(Wheel::new())),
            SchedBackend::Heap => Core::Heap(BinaryHeap::new()),
        };
        EventQueue {
            core,
            slab: Vec::new(),
            free: Vec::new(),
            lanes: Vec::new(),
            live: 0,
            next_seq: 0,
            next_gen: 0,
            stats: SchedStats::default(),
        }
    }

    /// Size the FIFO lane table (engine build time: one lane per link
    /// direction).
    pub(crate) fn ensure_lanes(&mut self, lanes: usize) {
        if self.lanes.len() < lanes {
            self.lanes.resize_with(lanes, VecDeque::new);
        }
    }

    fn alloc(&mut self, kind: EventKind, lane: u32) -> (u32, u64) {
        let gen = self.next_gen;
        self.next_gen += 1;
        let slot = match self.free.pop() {
            Some(s) => {
                self.stats.slab_hits += 1;
                self.slab[s as usize] = SlabEntry {
                    gen,
                    state: SlotState::Live { kind, lane },
                };
                s
            }
            None => {
                self.stats.slab_misses += 1;
                let s = u32::try_from(self.slab.len()).expect("event slab overflow");
                self.slab.push(SlabEntry {
                    gen,
                    state: SlotState::Live { kind, lane },
                });
                s
            }
        };
        self.live += 1;
        self.stats.peak_depth = self.stats.peak_depth.max(self.live as u64);
        (slot, gen)
    }

    fn release(&mut self, slot: u32) {
        self.slab[slot as usize].state = SlotState::Free;
        self.free.push(slot);
        self.stats.free_high_water = self.stats.free_high_water.max(self.free.len() as u64);
    }

    /// Schedule `kind` at absolute time `at`, tie-broken by schedule order.
    pub fn push(&mut self, at: Time, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.push_keyed(at, seq, kind);
    }

    /// Schedule `kind` at `at` with an explicit canonical tie key (see
    /// [`tie`]). The engine's internal pushes all use this so the total
    /// order is independent of push order, and therefore of the backend.
    pub(crate) fn push_keyed(&mut self, at: Time, tie: u64, kind: EventKind) {
        let (slot, _) = self.alloc(kind, NO_LANE);
        self.core.insert(Key { at, seq: tie, slot });
    }

    /// [`EventQueue::push_keyed`] on FIFO lane `lane`: events on one lane
    /// must be pushed in non-decreasing time order, which lets everything
    /// behind the lane head wait in a deque instead of the core.
    pub(crate) fn push_lane_keyed(&mut self, at: Time, lane: u32, tie: u64, kind: EventKind) {
        debug_assert!((lane as usize) < self.lanes.len(), "unknown lane {lane}");
        let (slot, _) = self.alloc(kind, lane);
        let key = Key { at, seq: tie, slot };
        let q = &mut self.lanes[lane as usize];
        if let Some(back) = q.back() {
            debug_assert!(at >= back.at, "lane {lane} went backwards");
            q.push_back(key);
            self.stats.lane_parks += 1;
        } else {
            q.push_back(key);
            self.core.insert(key);
        }
    }

    /// Schedule a cancellable timer; the handle stays valid until the timer
    /// fires or is cancelled. Tie-broken by schedule order.
    pub fn push_timer(&mut self, at: Time, node: NodeId, token: u64) -> TimerHandle {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.push_timer_keyed(at, seq, node, token)
    }

    /// [`EventQueue::push_timer`] with an explicit canonical tie key.
    pub(crate) fn push_timer_keyed(
        &mut self,
        at: Time,
        tie: u64,
        node: NodeId,
        token: u64,
    ) -> TimerHandle {
        let (slot, gen) = self.alloc(EventKind::Timer { node, token }, NO_LANE);
        self.core.insert(Key { at, seq: tie, slot });
        TimerHandle { slot, gen }
    }

    /// Cancel the timer behind `handle`. Returns `false` if it already
    /// fired, was already cancelled, or the handle is stale.
    pub fn cancel(&mut self, handle: TimerHandle) -> bool {
        let Some(entry) = self.slab.get_mut(handle.slot as usize) else {
            return false;
        };
        if entry.gen != handle.gen || !matches!(entry.state, SlotState::Live { .. }) {
            return false;
        }
        debug_assert!(
            matches!(entry.state, SlotState::Live { lane: NO_LANE, .. }),
            "cancellable events never ride a lane"
        );
        entry.state = SlotState::Dead;
        self.live -= 1;
        true
    }

    /// Retire a key just popped from the core: free its slab slot, unpark
    /// its lane successor, and produce the event — or `None` if the key was
    /// a cancelled (dead) timer.
    fn admit(&mut self, key: Key) -> Option<Scheduled> {
        let entry = &mut self.slab[key.slot as usize];
        match std::mem::replace(&mut entry.state, SlotState::Free) {
            SlotState::Dead => {
                self.stats.dead_dispatches += 1;
                self.free.push(key.slot);
                self.stats.free_high_water = self.stats.free_high_water.max(self.free.len() as u64);
                None
            }
            SlotState::Live { kind, lane } => {
                self.free.push(key.slot);
                self.stats.free_high_water = self.stats.free_high_water.max(self.free.len() as u64);
                self.live -= 1;
                if lane != NO_LANE {
                    let q = &mut self.lanes[lane as usize];
                    let head = q.pop_front();
                    debug_assert!(head.is_some_and(|h| h.slot == key.slot));
                    if let Some(next) = q.front() {
                        self.core.insert(*next);
                    }
                }
                Some(Scheduled {
                    at: key.at,
                    seq: key.seq,
                    kind,
                })
            }
            SlotState::Free => unreachable!("core key points at a free slot"),
        }
    }

    /// Remove and return the earliest live event, reaping any cancelled
    /// keys encountered on the way.
    pub fn pop(&mut self) -> Option<Scheduled> {
        loop {
            let key = self.core.pop()?;
            if let Some(ev) = self.admit(key) {
                return Some(ev);
            }
        }
    }

    /// [`EventQueue::pop`], but only if the earliest live event fires at or
    /// before `deadline`. One core traversal where a `peek_time` + `pop`
    /// pair would make two — this is the event loop's hot path. Cancelled
    /// keys at the head are reaped even when they lie past the deadline,
    /// matching `peek_time`'s contract.
    pub fn pop_if_at_or_before(&mut self, deadline: Time) -> Option<Scheduled> {
        loop {
            let key = self.core.peek()?;
            if key.at > deadline && !matches!(self.slab[key.slot as usize].state, SlotState::Dead) {
                return None;
            }
            let key = self.core.pop().expect("peeked key");
            if let Some(ev) = self.admit(key) {
                return Some(ev);
            }
        }
    }

    /// Fire time of the earliest live event, if any. Reaps cancelled keys,
    /// hence `&mut`.
    pub fn peek_time(&mut self) -> Option<Time> {
        loop {
            let key = self.core.peek()?;
            if matches!(self.slab[key.slot as usize].state, SlotState::Dead) {
                let key = self.core.pop().expect("peeked key");
                self.stats.dead_dispatches += 1;
                self.release(key.slot);
                continue;
            }
            return Some(key.at);
        }
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no live events are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Return excess slab capacity to the allocator. Only meaningful at
    /// quiescence (no live events): a storm's peak population otherwise
    /// pins its capacity for the rest of the run. Keeps a small retained
    /// core so steady-state reuse stays allocation-free.
    pub fn release_excess(&mut self) {
        if self.live != 0 || self.slab.len() <= RETAIN_SLOTS {
            return;
        }
        // Dead keys may still sit in the core; they reference slots we are
        // about to drop, so reap them first.
        while self.pop().is_some() {}
        let released = self.slab.len().saturating_sub(RETAIN_SLOTS);
        self.stats.slots_released += released as u64;
        self.slab.clear();
        self.slab.shrink_to(RETAIN_SLOTS);
        self.free.clear();
        self.free.shrink_to(RETAIN_SLOTS);
        for q in &mut self.lanes {
            debug_assert!(q.is_empty());
            q.shrink_to_fit();
        }
        // The core is empty of live keys; rebuild it to drop bucket capacity.
        self.core = match &self.core {
            Core::Wheel(_) => Core::Wheel(Box::new(Wheel::new())),
            Core::Heap(_) => Core::Heap(BinaryHeap::new()),
        };
    }

    /// Scheduler counters so far.
    pub fn stats(&self) -> SchedStats {
        let mut s = self.stats;
        s.cascades = self.core.cascades();
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer(node: u32, token: u64) -> EventKind {
        EventKind::Timer {
            node: NodeId(node),
            token,
        }
    }

    fn token_of(s: Scheduled) -> u64 {
        match s.kind {
            EventKind::Timer { token, .. } => token,
            _ => unreachable!(),
        }
    }

    #[test]
    fn pops_in_time_order() {
        for backend in [SchedBackend::Wheel, SchedBackend::Heap] {
            with_sched_backend(backend, || {
                let mut q = EventQueue::new();
                q.push(Time::from_nanos(30), timer(0, 3));
                q.push(Time::from_nanos(10), timer(0, 1));
                q.push(Time::from_nanos(20), timer(0, 2));
                let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(token_of).collect();
                assert_eq!(order, vec![1, 2, 3]);
            });
        }
    }

    #[test]
    fn equal_times_pop_in_schedule_order() {
        let mut q = EventQueue::new();
        let t = Time::from_nanos(5);
        for token in 0..100 {
            q.push(t, timer(0, token));
        }
        for expect in 0..100 {
            assert_eq!(token_of(q.pop().unwrap()), expect);
        }
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(Time::from_nanos(7), timer(1, 0));
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(Time::from_nanos(7)));
    }

    #[test]
    fn slab_slots_are_recycled() {
        let mut q = EventQueue::new();
        // Interleaved push/pop churn must not grow the slab beyond the
        // high-water mark of concurrently pending events.
        for round in 0..50u64 {
            q.push(Time::from_nanos(round), timer(0, round));
            q.push(Time::from_nanos(round), timer(0, round + 1000));
            // Pops the earliest pending event (a leftover from an earlier
            // round once the backlog builds), freeing its slot for reuse.
            let s = q.pop().unwrap();
            assert!(s.at <= Time::from_nanos(round));
        }
        assert_eq!(q.len(), 50);
        assert!(
            q.slab.len() <= 51,
            "slab grew to {} for 51 peak events",
            q.slab.len()
        );
        let mut last = None;
        while let Some(s) = q.pop() {
            assert!(last.is_none_or(|l| (s.at, s.seq) > l));
            last = Some((s.at, s.seq));
        }
        assert!(q.slab.iter().all(|e| matches!(e.state, SlotState::Free)));
    }

    #[test]
    fn far_future_events_cascade_back_in_order() {
        let mut q = EventQueue::new();
        // Ring, far and very far keys, pushed out of order.
        let times = [
            Time::from_nanos(5),   // ring
            Time::from_micros(2),  // far: past the ~1.05 us ring
            Time::from_millis(1),  // far
            Time::from_millis(80), // far
            Time::from_secs(2),    // very far
            Time::from_secs(3),    // very far
        ];
        for (i, &t) in times.iter().enumerate().rev() {
            q.push(t, timer(0, i as u64));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(token_of).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(q.stats().cascades, 5);
    }

    /// The wheel behind `q`, with the tokens of the timers in its far heap.
    fn far_tokens(q: &EventQueue) -> (&Wheel, Vec<u64>) {
        let Core::Wheel(wheel) = &q.core else {
            unreachable!("default backend is the wheel")
        };
        let tokens = wheel
            .far
            .iter()
            .map(|k| match &q.slab[k.slot as usize].state {
                SlotState::Live {
                    kind: EventKind::Timer { token, .. },
                    ..
                } => *token,
                _ => unreachable!("far key without a live timer"),
            });
        (wheel, tokens.collect())
    }

    #[test]
    fn parked_far_timer_leaves_near_events_on_the_fast_path() {
        // What a reliable channel does to the queue: one retransmission
        // timer always parked 50 us out (re-armed when it fires) while
        // wire-time events churn a few granules ahead of the cursor. Only
        // the timer may take the far path, and the pop order must be the
        // heap's.
        let mut q = EventQueue::new();
        let mut oracle = BinaryHeap::new();
        let mut seq = 0u64;
        const NEAR: u64 = 0;
        const RTO: u64 = 1;
        let mut push = |q: &mut EventQueue, oracle: &mut BinaryHeap<Key>, at: u64, token| {
            let at = Time::from_picos(at);
            q.push(at, timer(0, token));
            oracle.push(Key { at, seq, slot: 0 });
            seq += 1;
        };
        push(&mut q, &mut oracle, 50_000_000, RTO);
        push(&mut q, &mut oracle, 21_000, NEAR);
        let (mut rounds, mut firings) = (0, 0);
        while rounds < 10_000 {
            let got = q.pop().expect("event");
            let want = oracle.pop().expect("oracle event");
            assert_eq!((got.at, got.seq), (want.at, want.seq), "round {rounds}");
            let now = got.at.picos();
            if token_of(got) == RTO {
                firings += 1;
                push(&mut q, &mut oracle, now + 50_000_000, RTO);
            } else {
                // 21-33 ns ahead: 5 to 8 granules, some of them shared.
                let ahead = 21_000 + (rounds % 4) * 4_000;
                push(&mut q, &mut oracle, now + ahead, NEAR);
                rounds += 1;
            }
            assert_eq!(far_tokens(&q).1, [RTO], "round {rounds}");
        }
        assert!(firings >= 5, "the run spans several timer periods");
        assert_eq!(far_tokens(&q).0.cascades, firings);
    }

    #[test]
    fn ring_span_boundary_keeps_exact_order() {
        // Keys one granule short of a ring span ahead of the cursor, exactly
        // a span and one past it land in the ring, far, far; a second key in
        // the span granule goes far too. Once the cursor has moved on, near
        // keys pushed into the same three granules land in the ring, and
        // each granule must still pop in exact (at, seq) order: a near key
        // earlier in the granule than the far keys, one at the same instant
        // as a far key with a later seq.
        const G: u64 = 1 << GRANULE_SHIFT;
        let span = RING_SLOTS as u64;
        let mut q = EventQueue::new();
        let mut pushed = Vec::new();
        let mut popped = Vec::new();
        let mut push = |q: &mut EventQueue, picos: u64| {
            let at = Time::from_picos(picos);
            q.push(at, timer(0, pushed.len() as u64));
            pushed.push((at, pushed.len() as u64));
        };
        let mut pop = |q: &mut EventQueue| {
            let s = q.pop().expect("event");
            popped.push((s.at, s.seq));
        };
        push(&mut q, 10 * G);
        pop(&mut q); // cursor at granule 10
        for d in [span - 1, span, span + 1] {
            push(&mut q, (10 + d) * G + 2_000);
        }
        push(&mut q, (10 + span) * G + 1_500);
        assert_eq!(far_tokens(&q).1.len(), 3, "span and span + 1 go far");
        push(&mut q, 15 * G);
        pop(&mut q); // cursor at granule 15
        for d in [span - 1, span, span + 1] {
            push(&mut q, (10 + d) * G + 1_000);
            push(&mut q, (10 + d) * G + 2_000);
        }
        assert_eq!(far_tokens(&q).1.len(), 3, "near keys stay in the ring");
        while !q.is_empty() {
            pop(&mut q);
        }
        pushed.sort();
        assert_eq!(popped, pushed);
        assert_eq!(q.stats().cascades, 3);
    }

    #[test]
    fn cancel_suppresses_dispatch_and_stales_handle() {
        let mut q = EventQueue::new();
        let h = q.push_timer(Time::from_nanos(10), NodeId(0), 7);
        q.push(Time::from_nanos(20), timer(0, 8));
        assert_eq!(q.len(), 2);
        assert!(q.cancel(h));
        assert!(!q.cancel(h), "second cancel is a stale no-op");
        assert_eq!(q.len(), 1);
        assert_eq!(token_of(q.pop().unwrap()), 8);
        assert!(q.pop().is_none());
        assert_eq!(q.stats().dead_dispatches, 1);
        // The slot is reused; the old handle must not kill the new timer.
        let h2 = q.push_timer(Time::from_nanos(30), NodeId(0), 9);
        assert!(!q.cancel(h));
        assert_eq!(token_of(q.pop().unwrap()), 9);
        assert!(!q.cancel(h2), "fired handle is stale");
    }

    #[test]
    fn cancelled_head_does_not_stall_peek() {
        let mut q = EventQueue::new();
        let h = q.push_timer(Time::from_nanos(10), NodeId(0), 1);
        q.push(Time::from_nanos(50), timer(0, 2));
        q.cancel(h);
        assert_eq!(q.peek_time(), Some(Time::from_nanos(50)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn release_excess_shrinks_slab_at_quiescence() {
        let mut q = EventQueue::new();
        for i in 0..10_000u64 {
            q.push(Time::from_nanos(i), timer(0, i));
        }
        // A cancelled timer's key must not keep its slot pinned either.
        let h = q.push_timer(Time::from_secs(5), NodeId(0), 0);
        q.cancel(h);
        while q.pop().is_some() {}
        assert!(q.is_empty());
        assert!(q.slab.len() > RETAIN_SLOTS);
        let before = q.stats();
        assert_eq!(before.free_high_water, 10_001);
        q.release_excess();
        assert!(q.slab.capacity() <= RETAIN_SLOTS);
        assert!(q.stats().slots_released >= 10_000 - RETAIN_SLOTS as u64);
        // The queue stays fully usable afterwards.
        q.push(Time::from_nanos(1), timer(0, 42));
        assert_eq!(token_of(q.pop().unwrap()), 42);
    }

    #[test]
    fn release_excess_is_a_noop_while_events_pend() {
        let mut q = EventQueue::new();
        for i in 0..1000u64 {
            q.push(Time::from_nanos(i), timer(0, i));
        }
        q.release_excess();
        assert_eq!(q.len(), 1000);
        assert_eq!(q.stats().slots_released, 0);
    }

    #[test]
    fn lanes_preserve_global_order() {
        let mut q = EventQueue::new();
        q.ensure_lanes(2);
        // Lane 0 and lane 1 each monotone; a core push interleaves.
        q.push_lane_keyed(Time::from_nanos(10), 0, 0, timer(0, 0));
        q.push_lane_keyed(Time::from_nanos(30), 0, 1, timer(0, 1));
        q.push_lane_keyed(Time::from_nanos(20), 1, 2, timer(0, 2));
        q.push_keyed(Time::from_nanos(25), 3, timer(0, 3));
        q.push_lane_keyed(Time::from_nanos(40), 1, 4, timer(0, 4));
        let mut order = Vec::new();
        let mut last = None;
        while let Some(s) = q.pop() {
            assert!(last.is_none_or(|l| (s.at, s.seq) > l));
            last = Some((s.at, s.seq));
            order.push(token_of(s));
        }
        assert_eq!(order, vec![0, 2, 3, 1, 4]);
        assert_eq!(q.stats().lane_parks, 2);
    }

    #[test]
    fn equal_time_lane_and_core_events_keep_seq_order() {
        let mut q = EventQueue::new();
        q.ensure_lanes(1);
        let t = Time::from_nanos(100);
        q.push_lane_keyed(t, 0, 0, timer(0, 0)); // tie 0, lane head
        q.push_keyed(t, 1, timer(0, 1)); // tie 1, core
        q.push_lane_keyed(t, 0, 2, timer(0, 2)); // tie 2, parked
        q.push_keyed(t, 3, timer(0, 3)); // tie 3, core
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(token_of).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }
}
