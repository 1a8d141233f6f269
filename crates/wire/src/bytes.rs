//! Shared, cheaply-clonable payload buffers.
//!
//! The paper's discipline is that external memory must add no per-packet
//! CPU cost; the simulator mirrors it by never deep-copying packet bytes on
//! the hot paths. [`Payload`] is the enabling type: an `Arc`-backed byte
//! buffer with
//!
//! * O(1) `clone` (a refcount bump — multicast, retransmit queues and
//!   in-flight copies all share one allocation),
//! * zero-copy [`Payload::slice`] views (a parser lifts the payload out of
//!   a frame as a window of it; a conditional WRITE's replay entry is a
//!   window of the response that first carried it),
//! * copy-on-write mutation via [`Payload::make_mut`] (the fault injector's
//!   byte flip affects only the in-flight copy, never the sender's view).
//!
//! A payload's bytes belong to whoever holds a clone or window of it, and to
//! nobody in particular: when the last of them is dropped — on whichever
//! thread, for whatever reason — the buffer goes to that thread's
//! [`crate::pool`] and the next build reuses it. No owner has to hand
//! anything back, and none can forget to. The `Arc` block is not part of
//! that cycle — each payload constructed from bytes allocates its own, which
//! is exactly what [`alloc_count`] counts.
//!
//! Two per-thread counters — [`alloc_count`] and [`cow_count`] — let tests
//! pin the zero-copy property: forwarding a packet across N hops must not
//! move either counter. A thread's counters see only that thread's work, so
//! a delta taken around a run is that run's by construction; the parallel
//! scheduler folds each worker's counts into the driving thread at join
//! ([`ThreadCounts::absorb`]). Nothing on the packet path is shared between
//! threads: the counters and the frame pool are thread-local, and an empty
//! payload holds no buffer at all rather than a reference to a common one.

use core::cell::Cell;
use core::fmt;
use std::ops::{Deref, Range};
use std::sync::Arc;

thread_local! {
    static COUNTS: Cell<ThreadCounts> = const {
        Cell::new(ThreadCounts {
            allocs: 0,
            cows: 0,
            digests: 0,
            pool_hits: 0,
            pool_misses: 0,
        })
    };
}

/// Update the calling thread's counters.
pub(crate) fn count(update: impl FnOnce(&mut ThreadCounts)) {
    COUNTS.with(|c| {
        let mut counts = c.get();
        update(&mut counts);
        c.set(counts);
    });
}

/// Backing-buffer allocations made on this thread (plus absorbed worker
/// counts) so far. A hop that copies payload bytes shows up as a delta
/// here; the zero-copy tests assert the delta stays at the per-packet
/// construction cost.
pub fn alloc_count() -> u64 {
    ThreadCounts::current().allocs
}

/// Copy-on-write copies (mutations of a shared or windowed buffer) made on
/// this thread (plus absorbed worker counts) so far.
pub fn cow_count() -> u64 {
    ThreadCounts::current().cows
}

/// The calling thread's wire counters as a value: what a worker thread
/// hands back when it is joined.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ThreadCounts {
    /// [`alloc_count`].
    pub allocs: u64,
    /// [`cow_count`].
    pub cows: u64,
    /// [`crate::packet::digest_compute_count`].
    pub digests: u64,
    /// [`crate::pool::hit_count`].
    pub pool_hits: u64,
    /// [`crate::pool::miss_count`].
    pub pool_misses: u64,
}

impl ThreadCounts {
    /// The calling thread's counters now.
    pub fn current() -> ThreadCounts {
        COUNTS.with(Cell::get)
    }

    /// Add counts taken on another thread to the calling thread's
    /// counters, so work done by joined workers stays visible to whoever
    /// drove them.
    pub fn absorb(self) {
        count(|c| {
            c.allocs += self.allocs;
            c.cows += self.cows;
            c.digests += self.digests;
            c.pool_hits += self.pool_hits;
            c.pool_misses += self.pool_misses;
        });
    }
}

/// A measurement window over the calling thread's wire counters (buffer
/// allocations, CoW copies, digest computations): a snapshot at creation,
/// deltas read relative to it.
///
/// ```
/// use extmem_wire::bytes::CounterSpan;
/// use extmem_wire::Payload;
/// let span = CounterSpan::begin();
/// let p = Payload::from_vec(vec![1, 2, 3]);
/// let _shared = p.clone(); // refcount bump, not an allocation
/// assert_eq!(span.allocs(), 1);
/// assert_eq!(span.cows(), 0);
/// ```
pub struct CounterSpan {
    start: ThreadCounts,
}

impl CounterSpan {
    /// Open a measurement window on the calling thread.
    pub fn begin() -> CounterSpan {
        CounterSpan {
            start: ThreadCounts::current(),
        }
    }

    /// Backing-buffer allocations since the span opened.
    pub fn allocs(&self) -> u64 {
        alloc_count() - self.start.allocs
    }

    /// Copy-on-write copies since the span opened.
    pub fn cows(&self) -> u64 {
        cow_count() - self.start.cows
    }

    /// Cold digest computations since the span opened.
    pub fn digests(&self) -> u64 {
        ThreadCounts::current().digests - self.start.digests
    }
}

/// The bytes behind a [`Payload`]. It is dropped exactly once, by whichever
/// clone or window lets go last, and that drop is the one place a frame
/// buffer returns to the pool.
struct Frame(Vec<u8>);

impl Drop for Frame {
    fn drop(&mut self) {
        crate::pool::give(std::mem::take(&mut self.0));
    }
}

/// A shared, immutable-by-default byte buffer: an `Arc`-held `Vec<u8>` plus
/// a window. Clones and subslices share the allocation; mutation goes
/// through [`Payload::make_mut`], which copies only when the buffer is
/// shared or windowed.
#[derive(Clone)]
pub struct Payload {
    /// `None` exactly when the payload is empty: an empty payload owns
    /// nothing, so making or dropping one touches no shared refcount.
    buf: Option<Arc<Frame>>,
    off: usize,
    len: usize,
}

impl Payload {
    /// An empty payload (no allocation, no buffer).
    pub fn empty() -> Payload {
        Payload {
            buf: None,
            off: 0,
            len: 0,
        }
    }

    /// Take ownership of `bytes` (no copy).
    pub fn from_vec(bytes: Vec<u8>) -> Payload {
        if bytes.is_empty() {
            return Payload::empty();
        }
        count(|c| c.allocs += 1);
        let len = bytes.len();
        Payload {
            buf: Some(Arc::new(Frame(bytes))),
            off: 0,
            len,
        }
    }

    /// Copy `bytes` into a fresh buffer.
    pub fn copy_from_slice(bytes: &[u8]) -> Payload {
        Payload::from_vec(bytes.to_vec())
    }

    /// A zero-filled payload of `len` bytes.
    pub fn zeroed(len: usize) -> Payload {
        Payload::from_vec(vec![0; len])
    }

    /// Visible length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the visible window is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Immutable view of the visible bytes.
    pub fn as_slice(&self) -> &[u8] {
        match &self.buf {
            Some(buf) => &buf.0[self.off..self.off + self.len],
            None => &[],
        }
    }

    /// A zero-copy subview of `range` (relative to this view). Shares the
    /// backing buffer with `self`.
    ///
    /// # Panics
    ///
    /// Panics if `range` exceeds the visible length.
    pub fn slice(&self, range: Range<usize>) -> Payload {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "slice {range:?} out of bounds for payload of {} bytes",
            self.len
        );
        if range.start == range.end {
            return Payload::empty();
        }
        Payload {
            buf: self.buf.clone(),
            off: self.off + range.start,
            len: range.end - range.start,
        }
    }

    /// Mutable view of the visible bytes, copy-on-write: in place when this
    /// is the sole owner of a full-range buffer, otherwise the visible
    /// window is copied out first (counted by [`cow_count`]). Other clones
    /// keep seeing the original bytes.
    pub fn make_mut(&mut self) -> &mut [u8] {
        let Some(buf) = &self.buf else {
            return &mut [];
        };
        let whole = self.off == 0 && self.len == buf.0.len();
        if !(whole && Arc::strong_count(buf) == 1) {
            count(|c| c.cows += 1);
            *self = Payload::copy_from_slice(self.as_slice());
        }
        let buf = self.buf.as_mut().expect("non-empty after CoW");
        &mut Arc::get_mut(buf).expect("uniquely owned after CoW").0[..]
    }

    /// Copy the visible bytes out.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// Consume into a `Vec`, without copying when this is the sole owner of
    /// a full-range buffer (the caller then owns the bytes and nothing is
    /// pooled).
    pub fn into_vec(self) -> Vec<u8> {
        match self.buf {
            Some(buf) if self.off == 0 && self.len == buf.0.len() => match Arc::try_unwrap(buf) {
                Ok(mut sole) => std::mem::take(&mut sole.0),
                Err(shared) => shared.0.clone(),
            },
            Some(buf) => buf.0[self.off..self.off + self.len].to_vec(),
            None => Vec::new(),
        }
    }

    /// How many payloads (clones or slices) share this allocation; 1 for an
    /// empty payload, which has none to share.
    pub fn ref_count(&self) -> usize {
        self.buf.as_ref().map_or(1, Arc::strong_count)
    }
}

impl Default for Payload {
    fn default() -> Self {
        Payload::empty()
    }
}

impl Deref for Payload {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Payload {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Payload {
        Payload::from_vec(v)
    }
}

impl From<&[u8]> for Payload {
    fn from(s: &[u8]) -> Payload {
        Payload::copy_from_slice(s)
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Payload) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Payload {}

impl PartialEq<Vec<u8>> for Payload {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Payload> for Vec<u8> {
    fn eq(&self, other: &Payload) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<[u8]> for Payload {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Payload {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl std::hash::Hash for Payload {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Payload[{}B", self.len)?;
        if self.ref_count() > 1 {
            write!(f, " shared x{}", self.ref_count())?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_slice_windows() {
        let p = Payload::from_vec((0..100).collect());
        let c = p.clone();
        assert_eq!(p, c);
        assert_eq!(p.ref_count(), 2);
        let s = p.slice(10..20);
        assert_eq!(s.as_slice(), &(10..20).collect::<Vec<u8>>()[..]);
        assert_eq!(p.ref_count(), 3, "slice shares the allocation");
        assert_eq!(s.slice(5..7).as_slice(), &[15, 16]);
    }

    #[test]
    fn make_mut_in_place_when_unique() {
        let mut p = Payload::from_vec(vec![1, 2, 3]);
        let cows = cow_count();
        p.make_mut()[0] = 9;
        assert_eq!(p.as_slice(), &[9, 2, 3]);
        assert_eq!(
            cow_count(),
            cows,
            "unique full-range mutation must not copy"
        );
    }

    #[test]
    fn make_mut_copies_when_shared() {
        let mut p = Payload::from_vec(vec![1, 2, 3]);
        let original = p.clone();
        p.make_mut()[0] = 9;
        assert_eq!(p.as_slice(), &[9, 2, 3]);
        assert_eq!(
            original.as_slice(),
            &[1, 2, 3],
            "other owner keeps original bytes"
        );
        assert_eq!(p.ref_count(), 1);
    }

    #[test]
    fn make_mut_copies_when_windowed() {
        let p = Payload::from_vec(vec![0, 1, 2, 3, 4]);
        let mut s = p.slice(1..4);
        s.make_mut()[0] = 99;
        assert_eq!(s.as_slice(), &[99, 2, 3]);
        assert_eq!(p.as_slice(), &[0, 1, 2, 3, 4], "backing buffer untouched");
    }

    #[test]
    fn empty_is_allocation_free() {
        let a = alloc_count();
        let e = Payload::empty();
        let e2 = Payload::from_vec(Vec::new());
        let e3 = e.slice(0..0);
        assert!(e.is_empty() && e2.is_empty() && e3.is_empty());
        assert_eq!(alloc_count(), a, "empties must not allocate");
        let mut m = Payload::empty();
        assert!(m.make_mut().is_empty());
    }

    #[test]
    fn into_vec_avoids_copy_when_unique() {
        let p = Payload::from_vec(vec![7; 32]);
        let ptr = p.as_slice().as_ptr();
        let v = p.into_vec();
        assert_eq!(v.as_ptr(), ptr, "unique into_vec must not copy");
        let p = Payload::from_vec(vec![7; 32]);
        let _keep = p.clone();
        assert_eq!(p.into_vec(), vec![7; 32]);
    }

    /// Empty the calling thread's pool, so a later hit can only be a buffer
    /// given back in between.
    fn empty_pool() {
        crate::pool::swap(&mut crate::pool::FreeList::default());
    }

    /// Whether the calling thread's pool holds a buffer (which this takes).
    fn pool_has_one() -> Option<usize> {
        let hits = crate::pool::hit_count();
        let buf = crate::pool::take();
        (crate::pool::hit_count() > hits).then_some(buf.capacity())
    }

    #[test]
    fn the_last_owner_to_drop_pools_the_buffer_whichever_it_is() {
        for last in 0..3 {
            empty_pool();
            let original = Payload::from_vec(vec![5; 300]);
            let mut owners = vec![original.clone(), original.slice(100..200), original];
            let survivor = owners.swap_remove(last);
            drop(owners);
            assert_eq!(pool_has_one(), None, "pooled under a live owner {last}");
            assert_eq!(survivor.ref_count(), 1);
            drop(survivor);
            let cap = pool_has_one().expect("the last drop pools the buffer");
            assert!(cap >= 300, "the whole backing buffer, not the window");
            assert_eq!(pool_has_one(), None, "pooled once");
        }
    }

    #[test]
    fn into_vec_by_a_sole_owner_pools_nothing() {
        empty_pool();
        let v = Payload::from_vec(vec![7; 32]).into_vec();
        assert_eq!(pool_has_one(), None, "the caller owns the bytes now");
        assert_eq!(v, vec![7; 32]);
        // A shared or windowed payload copies out; its buffer is pooled by
        // whoever drops last, as ever.
        let p = Payload::from_vec(vec![8; 32]);
        assert_eq!(p.slice(4..8).into_vec(), vec![8; 4]);
        assert_eq!(pool_has_one(), None);
        assert_eq!(p.into_vec(), vec![8; 32]);
        assert_eq!(pool_has_one(), None);
    }

    #[test]
    fn a_drop_on_another_thread_lands_in_that_threads_pool() {
        empty_pool();
        let p = Payload::from_vec(vec![3; 200]);
        let here = p.clone();
        let there = std::thread::scope(|s| {
            let worker = s.spawn(move || {
                drop(p);
                let shared = pool_has_one();
                // The test thread let go first (the join below orders it).
                drop(here);
                (shared, pool_has_one())
            });
            worker.join().expect("worker")
        });
        assert_eq!(there.0, None, "pooled while this thread still held it");
        assert!(there.1.is_some_and(|cap| cap >= 200));
        assert_eq!(pool_has_one(), None, "nothing came back to this thread");
    }

    #[test]
    fn a_payload_dropped_by_a_thread_local_destructor_does_not_panic() {
        use std::cell::RefCell;
        thread_local! {
            static HELD: RefCell<Option<Payload>> = const { RefCell::new(None) };
        }
        // Destructors run in the reverse of the order the thread first
        // touched each local: whichever of the pool and the holder goes
        // first, the payload's drop must not reach for a dead pool.
        for pool_first in [false, true] {
            let worker = std::thread::spawn(move || {
                if pool_first {
                    drop(crate::pool::take());
                }
                HELD.with(|h| *h.borrow_mut() = Some(Payload::from_vec(vec![1; 64])));
                drop(crate::pool::take());
            });
            worker
                .join()
                .expect("thread teardown with a payload in a local");
        }
    }

    #[test]
    fn equality_against_vecs_and_arrays() {
        let p = Payload::from_vec(vec![1, 2, 3]);
        assert_eq!(p, vec![1, 2, 3]);
        assert_eq!(vec![1, 2, 3], p);
        assert_eq!(p, [1u8, 2, 3]);
        assert!(p == *[1u8, 2, 3].as_slice());
    }
}
