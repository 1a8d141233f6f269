//! A per-thread recycling pool for frame buffers.
//!
//! Encode loops (the RNIC responder, the switch channels, the E1 traffic
//! nodes) each build thousands of frames per simulated millisecond, and the
//! buffer of a consumed frame is usually free again a few events later. The
//! pool closes that loop: [`take`] hands back a previously-used `Vec`
//! (cleared, capacity retained) instead of a fresh allocation, and a
//! [`crate::Payload`]'s bytes come back by themselves, when the last clone
//! or window of it is dropped. That is the whole ownership rule: a frame
//! buffer belongs to its payload, and dropping the payload — delivered,
//! consumed, tail-dropped, lost on a faulty link, whatever — returns it.
//! [`give`] is for the other kind of buffer, a scratch `Vec` that was taken
//! and never became a payload. A pooled buffer holds a whole frame: bytes
//! that start life as a slice of someone else's memory (a READ out of a
//! region, a remote op's operands) are encoded from there into the frame
//! ([`crate::roce::RoceHeaders::encode`]) and never get a buffer, or a
//! payload, of their own.
//!
//! The free list is LIFO and size-blind, which is harmless: buffers only
//! ever grow, so they converge on the largest frame in use. It is bounded
//! in both entry count and per-buffer capacity so a burst of jumbo frames
//! cannot pin memory forever. The [`hit_count`]/[`miss_count`] counters
//! report how often the loop closes (`wire.frame_pool_hit_rate` in the
//! benchmark). The pool recycles bytes, not `Arc` blocks: a payload built
//! from a pooled buffer still allocates its 40-byte control block (see
//! [`crate::bytes`]).
//!
//! The free list and its counters belong to the calling thread, so the
//! packet path takes no lock and writes no cache line another thread reads.
//! A buffer returns to the pool of whichever thread dropped its last
//! reference, which need not be the thread that took it: while two threads
//! trade frames at unequal rates one list fills to its bound (and drops
//! the excess) as the other runs dry (and allocates). The parallel
//! scheduler's workers are short-lived and never own a pool for long
//! enough to matter: each borrows a share of its driver's buffers as a
//! [`FreeList`] for one slice of the run, and its counters are folded into
//! the driver's by [`crate::bytes::ThreadCounts::absorb`].

use crate::bytes::{count, ThreadCounts};
use std::cell::RefCell;

/// Upper bound on free-list entries; beyond it, returned buffers are
/// dropped (quiescent simulations should not pin a whole run's frames).
const MAX_POOLED: usize = 1024;

/// Buffers above this capacity are never pooled — a rare jumbo allocation
/// must not turn into a permanently-retained one.
const MAX_POOLED_CAPACITY: usize = 64 * 1024;

/// Free buffers as a value that can change threads: how the parallel
/// scheduler's short-lived workers share the pool of the thread driving
/// them. Before a run segment the driver moves a share of its free buffers
/// into one list per worker ([`FreeList::take_share`]); each worker
/// [`swap`]s its list in, runs, and swaps it back out; after the join the
/// driver collects them again ([`FreeList::give_back`]). Between segments
/// there is one pool, the driver's, exactly as on a sequential run — so
/// what a warm-up filled the next simulation starts with, and a flow that
/// takes in one worker and recycles in another cannot run one worker dry
/// for longer than a segment. The list keeps its own capacity throughout,
/// so none of this allocates once it has happened a few times.
#[derive(Default)]
pub struct FreeList(Vec<Vec<u8>>);

impl FreeList {
    /// Move one `n`-th of the calling thread's free buffers into this list
    /// (`n = k, k - 1, ... 1` deals all of them into `k` near-equal lists).
    pub fn take_share(&mut self, n: usize) {
        FREE.with(|free| {
            let free = &mut free.borrow_mut().0;
            let keep = free.len() - free.len() / n;
            self.0.extend(free.drain(keep..));
        });
    }

    /// Move this list's buffers into the calling thread's pool, dropping
    /// what does not fit under its bound.
    pub fn give_back(&mut self) {
        FREE.with(|free| {
            let free = &mut free.borrow_mut().0;
            let room = MAX_POOLED.saturating_sub(free.len());
            self.0.truncate(room);
            free.append(&mut self.0);
        });
    }
}

thread_local! {
    static FREE: RefCell<FreeList> = const { RefCell::new(FreeList(Vec::new())) };
}

/// Exchange the calling thread's free list with `other`. Called in pairs
/// around a stretch of work: the first call lends `other` to the thread,
/// the second takes it back with whatever the work recycled.
pub fn swap(other: &mut FreeList) {
    FREE.with(|free| std::mem::swap(&mut *free.borrow_mut(), other));
}

/// Take a buffer from the pool (cleared, capacity retained), or a fresh
/// empty `Vec` when the pool is dry.
pub fn take() -> Vec<u8> {
    match FREE.with(|free| free.borrow_mut().0.pop()) {
        Some(mut buf) => {
            count(|c| c.pool_hits += 1);
            buf.clear();
            buf
        }
        None => {
            count(|c| c.pool_misses += 1);
            Vec::new()
        }
    }
}

/// Return a buffer to the pool. Zero-capacity and oversized buffers are
/// dropped, as is everything past the free-list bound — and everything
/// given while the thread is shutting down and its pool is already gone
/// (a payload held in another thread-local, dropped by its destructor).
pub fn give(buf: Vec<u8>) {
    if buf.capacity() == 0 || buf.capacity() > MAX_POOLED_CAPACITY {
        return;
    }
    let _ = FREE.try_with(|free| {
        let free = &mut free.borrow_mut().0;
        if free.len() < MAX_POOLED {
            free.push(buf);
        }
    });
}

/// Pool hits (a [`take`] served from the free list) on this thread (plus
/// absorbed worker counts) so far.
pub fn hit_count() -> u64 {
    ThreadCounts::current().pool_hits
}

/// Pool misses (a [`take`] that had to allocate) on this thread (plus
/// absorbed worker counts) so far.
pub fn miss_count() -> u64 {
    ThreadCounts::current().pool_misses
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(hits, misses)` on this thread so far. The counters are the calling
    /// thread's own, so concurrent tests cannot leak into a delta.
    fn counts() -> (u64, u64) {
        (hit_count(), miss_count())
    }

    #[test]
    fn take_give_roundtrip_reuses_capacity() {
        let mut b = take();
        b.extend_from_slice(&[1, 2, 3, 4]);
        let cap = b.capacity();
        give(b);
        let (hits0, misses0) = counts();
        let b2 = take();
        assert_eq!(counts(), (hits0 + 1, misses0));
        assert!(b2.is_empty(), "pooled buffers come back cleared");
        assert!(b2.capacity() >= cap, "capacity survives the pool");
    }

    #[test]
    fn recycle_recovers_sole_owner_only() {
        use crate::bytes::Payload;
        // Start from an empty list so a hit below can only be a buffer
        // these payloads gave up.
        swap(&mut FreeList::default());
        // Shared: dropping one owner pools nothing ...
        let p = Payload::from_vec(vec![9; 64]);
        let clone = p.clone();
        drop(p);
        let (hits0, misses0) = counts();
        let _ = take();
        assert_eq!(counts(), (hits0, misses0 + 1), "pooled while still shared");
        // ... dropping the last one pools it.
        drop(clone);
        assert!(take().capacity() >= 64);
        assert_eq!(counts(), (hits0 + 1, misses0 + 1));
        // A window is as good an owner as the whole payload, and what comes
        // back is the full backing buffer.
        let p = Payload::from_vec(vec![7; 128]);
        let window = p.slice(10..20);
        drop(p);
        drop(window);
        let (hits0, misses0) = counts();
        let b = take();
        assert!(b.capacity() >= 128, "full backing buffer pooled");
        let _ = take();
        assert_eq!(
            counts(),
            (hits0 + 1, misses0 + 1),
            "exactly one buffer was pooled"
        );
    }

    #[test]
    fn recycled_buffer_never_aliases_a_live_payload() {
        use crate::bytes::Payload;
        let mut b = take();
        b.extend_from_slice(&[0xaa; 64]);
        let built = Payload::from_vec(b);
        let live = built.clone();
        // Still shared: the buffer must stay out of the pool ...
        drop(built);
        // ... so whatever the next builds are handed, it is not the
        // storage `live` reads.
        let mut later: Vec<Vec<u8>> = (0..4).map(|_| take()).collect();
        for buf in &mut later {
            buf.extend_from_slice(&[0x55; 64]);
            assert_ne!(buf.as_ptr(), live.as_slice().as_ptr());
        }
        assert_eq!(live, [0xaa; 64], "a live payload's bytes were overwritten");
        later.into_iter().for_each(give);
        // A window keeps it out just the same.
        let window = live.slice(8..16);
        drop(live);
        let keep = window.clone();
        drop(window);
        let (hits0, misses0) = counts();
        let mut next = take();
        assert_eq!(counts(), (hits0 + 1, misses0), "one of the four given back");
        next.extend_from_slice(&[0x33; 64]);
        assert_eq!(keep, [0xaa; 8]);
    }

    #[test]
    fn oversized_and_empty_buffers_are_not_pooled() {
        swap(&mut FreeList::default());
        give(Vec::new());
        give(Vec::with_capacity(MAX_POOLED_CAPACITY + 1));
        let (hits0, misses0) = counts();
        let _ = take();
        assert_eq!(counts(), (hits0, misses0 + 1), "neither buffer was pooled");
    }

    #[test]
    fn workers_borrow_the_drivers_buffers_and_bring_them_back() {
        // What the parallel scheduler does every run segment. Two buffers
        // in the driver's pool, two workers: each finds one, recycles it
        // and one more, and the driver ends up with all four.
        swap(&mut FreeList::default());
        give(Vec::with_capacity(64));
        give(Vec::with_capacity(64));
        let (hits0, misses0) = counts();
        let mut lists = [FreeList::default(), FreeList::default()];
        for round in 0..2 {
            let k = lists.len();
            for (i, list) in lists.iter_mut().enumerate() {
                list.take_share(k - i);
                assert_eq!(list.0.len(), 1 + round, "dealt evenly");
            }
            std::thread::scope(|s| {
                let workers: Vec<_> = lists
                    .iter_mut()
                    .map(|list| {
                        s.spawn(move || {
                            swap(list);
                            let (mut a, mut b) = (take(), take());
                            a.extend_from_slice(&[1; 32]);
                            b.extend_from_slice(&[2; 32]);
                            give(a);
                            give(b);
                            swap(list);
                            ThreadCounts::current()
                        })
                    })
                    .collect();
                for w in workers {
                    w.join().expect("worker").absorb();
                }
            });
            lists.iter_mut().for_each(FreeList::give_back);
            assert!(lists.iter().all(|l| l.0.is_empty()));
        }
        // Round 0: one hit and one miss per worker; round 1: two hits each.
        assert_eq!(counts(), (hits0 + 6, misses0 + 2), "folded into the driver");
        assert_eq!(FREE.with(|f| f.borrow().0.len()), 4);
    }

    #[test]
    fn give_back_respects_the_pool_bound() {
        swap(&mut FreeList::default());
        let mut list = FreeList((0..MAX_POOLED + 8).map(|_| Vec::with_capacity(8)).collect());
        give(Vec::with_capacity(8));
        list.give_back();
        assert!(list.0.is_empty());
        assert_eq!(FREE.with(|f| f.borrow().0.len()), MAX_POOLED);
    }
}
