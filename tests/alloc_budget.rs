//! Steady-state heap allocations per offered frame, by primitive.
//!
//! The paper's discipline is that external memory adds no per-packet CPU
//! work; the simulator's counterpart is that a frame in steady state costs
//! the heap only what it must. What it must, today, is one 40-byte `Arc`
//! block per payload constructed from bytes — and the only payloads
//! constructed are frames put on the wire: responses are encoded straight
//! out of the region, op operands straight out of the op, and a stored
//! frame straight out of its arrival buffer, behind an entry header held
//! inline in the WRITE. The byte buffers themselves cycle
//! through `extmem_wire::pool`, and every per-frame container on the
//! request and response paths reuses its owner's state. Each test drives
//! one single-ToR scenario from `Testbed`, lets a warm-up window fill the
//! pool and the event slab and allocate the sink's block of latency
//! samples (2^17 of them: the run never needs a second), then counts
//! allocator calls over the middle half of the run and compares them with
//! the number of payloads that scenario constructs per frame.
//!
//! The counter is per thread, so tests running side by side (and the test
//! harness itself) do not see each other's calls; a scenario on the
//! sequential scheduler backend runs on its test's own thread. The one row
//! on the parallel backend runs on worker threads it cannot name, so it
//! reads a process-wide counter instead and holds [`GATE`] exclusively
//! while it does.

use extmem_apps::scenario::Built;
use extmem_apps::workload::{SinkNode, TrafficGenNode};
use extmem_core::lookup::LookupTableProgram;
use extmem_core::packet_buffer::PacketBufferProgram;
use extmem_core::ShardedStateStoreProgram;
use extmem_switch::SwitchNode;
use extmem_types::{Time, TimeDelta};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

thread_local! {
    /// Allocator calls (`alloc`, `alloc_zeroed`, `realloc`) made on this
    /// thread. No destructor, so it stays usable during thread teardown.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

/// Allocator calls made on any thread.
static ALL_CALLS: AtomicU64 = AtomicU64::new(0);

/// Shared by the tests that count their own thread's calls, exclusive for
/// the one that counts every thread's.
static GATE: RwLock<()> = RwLock::new(());

struct CountingAlloc;

fn count() {
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
    ALL_CALLS.fetch_add(1, Ordering::Relaxed);
}

fn own_calls() -> u64 {
    CALLS.with(Cell::get)
}

fn all_calls() -> u64 {
    ALL_CALLS.load(Ordering::Relaxed)
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter update touches no memory
// the allocator manages, does not allocate and cannot unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: `layout` is the caller's, passed through untouched.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, for
        // this `layout` (the caller's obligation, forwarded).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

mod rigs;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const FRAMES: u64 = 20_000;
/// Headroom over the per-frame payload count: amortised growth of the
/// event slab and the pool itself. The sink's latency samples cost
/// nothing per frame: they fill fixed blocks of 2^17, never regrown.
const SLACK: f64 = 0.25;

/// Run `t`, a `slice` at a time, until its generator (host 0) has sent a
/// quarter of `FRAMES`, count allocator calls (as `calls` reads them) until
/// it has sent three quarters, then finish the run and check every frame
/// arrived at the sink (host 1). Returns calls per frame offered in the
/// window.
fn allocs_per_frame(t: &mut Built, deadline: Time, slice: TimeDelta, calls: fn() -> u64) -> f64 {
    let mut run_until_sent = |target: u64| loop {
        let sent = t.sim.node::<TrafficGenNode>(t.hosts[0]).sent;
        if sent >= target {
            return (calls(), sent);
        }
        assert!(t.sim.now() < deadline, "generator stalled at {sent} frames");
        let until = t.sim.now() + slice;
        t.sim.run_until(until);
    };
    let (calls0, sent0) = run_until_sent(FRAMES / 4);
    let (calls1, sent1) = run_until_sent(3 * FRAMES / 4);
    t.sim.run_until(deadline);
    assert_eq!(
        t.sim.node::<SinkNode>(t.hosts[1]).received,
        FRAMES,
        "every offered frame must reach the sink"
    );
    (calls1 - calls0) as f64 / (sent1 - sent0) as f64
}

/// [`allocs_per_frame`] on the sequential backend: this thread's calls.
fn steady_state_allocs_per_frame(t: &mut Built, deadline: Time) -> f64 {
    let _shared = GATE.read().unwrap_or_else(|e| e.into_inner());
    allocs_per_frame(t, deadline, TimeDelta::from_micros(5), own_calls)
}

fn check(what: &str, per_frame: f64, payloads_per_frame: f64) {
    println!("alloc_budget {what}: {per_frame:.4} allocs/frame");
    assert!(
        per_frame <= payloads_per_frame + SLACK,
        "{what}: {per_frame:.3} heap allocations per frame in steady state, \
         budget {payloads_per_frame} (one per payload constructed) + {SLACK}"
    );
}

/// [`rigs::cuckoo_lookup`]: every frame pays one remote miss.
fn cuckoo_lookup(remote_ops: bool) -> f64 {
    let mut t = rigs::cuckoo_lookup(remote_ops, FRAMES);
    let per_frame = steady_state_allocs_per_frame(&mut t, Time::from_millis(20));
    let sw: &SwitchNode = t.sim.node(t.switch);
    let stats = sw.program::<LookupTableProgram>().stats();
    assert_eq!(
        stats.remote_lookups, FRAMES,
        "cache off: every frame misses"
    );
    assert_eq!(stats.slow_path, 0);
    per_frame
}

#[test]
fn lookup_by_verbs_allocates_once_per_payload() {
    // Data frame, READ request, READ response. (Ten calls per frame before
    // the containers on this path were made to reuse their owner's state,
    // four while the bucket was copied out of the region into a payload of
    // its own before being copied into the response.)
    check("lookup by verbs", cuckoo_lookup(false), 3.0);
}

#[test]
fn lookup_by_remote_ops_allocates_once_per_payload() {
    // Data frame, hash-probe request, op response: what the verb path
    // costs. (Eleven before; five while the probe key and the matched
    // bucket were each a payload.)
    check("lookup by remote ops", cuckoo_lookup(true), 3.0);
}

#[test]
fn packet_buffer_store_and_fetch_allocates_once_per_payload() {
    let mut t = rigs::packet_buffer(FRAMES);
    let per_frame = steady_state_allocs_per_frame(&mut t, Time::from_millis(40));
    let sw: &SwitchNode = t.sim.node(t.switch);
    let stats = sw.program::<PacketBufferProgram>().stats();
    assert!(
        stats.stored > FRAMES * 9 / 10 && stats.loaded == stats.stored,
        "the run must exercise the detour: {stats:?}"
    );
    // Data frame, WRITE request, READ request, READ response; a store asks
    // for an ACK only once in sixteen in a row, or when nothing answered is
    // in flight, and that share rides in the slack. (Fifteen calls per
    // frame before, with every detoured frame's buffer leaving the pool;
    // seven while the entry was copied out of the region on its way into
    // the response; six while the arrival frame was copied into a ring
    // entry of its own before being copied into the WRITE; five while every
    // WRITE drew an ACK of its own.)
    check("packet buffer", per_frame, 4.0);
}

fn check_replicated_fetch_and_add(what: &str, t: &Built, per_frame: f64) {
    let sw: &SwitchNode = t.sim.node(t.switch);
    let prog = sw.program::<ShardedStateStoreProgram>();
    assert!(prog.is_quiescent() && !prog.is_degraded());
    let s = prog.engine(0).stats();
    assert_eq!((s.lost_updates, s.channel.retransmits), (0, 0), "{s:?}");
    assert!(s.pool.delta_replayed > 0, "the mirror must be fed: {s:?}");
    // Data frame, FaA request to the primary, its atomic ACK; the mirror's
    // share (replayed FaA and ACK per flush, not per frame) rides in the
    // fourth.
    check(what, per_frame, 4.0);
}

#[test]
fn replicated_fetch_and_add_allocates_once_per_payload() {
    let mut t = rigs::replicated_fetch_and_add(FRAMES);
    let per_frame = steady_state_allocs_per_frame(&mut t, Time::from_millis(40));
    check_replicated_fetch_and_add("replicated fetch-and-add", &t, per_frame);
}

/// The same scenario on two worker threads, the switch in one partition
/// and every host in the other, so each frame and each FaA is built on one
/// thread and recycled on the other. The budget does not move: workers
/// borrow the driving thread's frame pool for a slice and bring it back,
/// so no slice starts cold. The slices are 250 us (some 240 frames) rather
/// than 5 us because starting two threads costs about a dozen calls.
#[test]
fn replicated_fetch_and_add_on_two_threads_allocates_once_per_payload() {
    let _exclusive = GATE.write().unwrap_or_else(|e| e.into_inner());
    extmem_sim::with_sched_backend(extmem_sim::SchedBackend::Parallel(2), || {
        let mut t = rigs::replicated_fetch_and_add(FRAMES);
        assert_eq!(t.sim.par_stats().partitions, 2);
        assert_ne!(t.sim.partition_of(t.switch), t.sim.partition_of(t.hosts[0]));
        let per_frame = allocs_per_frame(
            &mut t,
            Time::from_millis(40),
            TimeDelta::from_micros(250),
            all_calls,
        );
        check_replicated_fetch_and_add("replicated fetch-and-add, 2 threads", &t, per_frame);
    });
}
