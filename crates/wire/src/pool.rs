//! A process-global recycling pool for frame buffers.
//!
//! Encode loops (the RNIC responder, the switch channels, the E1 traffic
//! nodes) each build thousands of frames per simulated millisecond, and the
//! buffer of a consumed frame is usually free again a few events later. The
//! pool closes that loop: [`take`] hands back a previously-recycled `Vec`
//! (cleared, capacity retained) instead of a fresh allocation,
//! [`copy_from_slice`] is [`take`] plus the copy for payloads that start
//! life as a slice of someone else's memory (a READ out of a region, a
//! probe key), and [`recycle`] recovers the backing buffer of a [`Payload`]
//! whose last owner is done with it — without copying, via
//! [`Payload::recover_vec`].
//!
//! The loop only stays closed if *every* consumer gives back what it took.
//! The free list is LIFO and size-blind, which is harmless while it is
//! balanced (buffers only ever grow, so they converge on the largest frame
//! in use) — but one path that drops pooled buffers instead of recycling
//! them drains it, and every build behind it then misses, or regrows a
//! small buffer that happened to be on top.
//!
//! Recycling is strictly best-effort. A payload still shared with another
//! clone simply isn't recovered — that is the whole safety argument: a
//! buffer re-enters the pool only when `Arc::try_unwrap` proves nobody
//! else can read it — and the free list is bounded in both entry count and
//! per-buffer capacity so a burst of jumbo frames cannot pin memory
//! forever. The [`hit_count`]/[`miss_count`] counters report how often the
//! loop closes (`wire.frame_pool_hit_rate` in the benchmark). The pool
//! recycles bytes, not `Arc` blocks: a payload built from a pooled buffer
//! still allocates its 40-byte control block (see [`crate::bytes`]).

use crate::bytes::Payload;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

/// Upper bound on free-list entries; beyond it, returned buffers are
/// dropped (quiescent simulations should not pin a whole run's frames).
const MAX_POOLED: usize = 1024;

/// Buffers above this capacity are never pooled — a rare jumbo allocation
/// must not turn into a permanently-retained one.
const MAX_POOLED_CAPACITY: usize = 64 * 1024;

static FREE: Mutex<Vec<Vec<u8>>> = Mutex::new(Vec::new());

fn free_list() -> std::sync::MutexGuard<'static, Vec<Vec<u8>>> {
    // A panic while holding the lock leaves only recyclable buffers
    // behind; the pool stays usable.
    FREE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Take a buffer from the pool (cleared, capacity retained), or a fresh
/// empty `Vec` when the pool is dry.
pub fn take() -> Vec<u8> {
    match free_list().pop() {
        Some(mut buf) => {
            HITS.fetch_add(1, Ordering::Relaxed);
            buf.clear();
            buf
        }
        None => {
            MISSES.fetch_add(1, Ordering::Relaxed);
            Vec::new()
        }
    }
}

/// Copy `bytes` into a pooled buffer: [`Payload::copy_from_slice`] with the
/// byte allocation served by the pool, for payloads whose last owner
/// [`recycle`]s them.
pub fn copy_from_slice(bytes: &[u8]) -> Payload {
    let mut buf = take();
    buf.extend_from_slice(bytes);
    Payload::from_vec(buf)
}

/// Return a buffer to the pool. Zero-capacity and oversized buffers are
/// dropped, as is everything past the free-list bound.
pub fn give(buf: Vec<u8>) {
    if buf.capacity() == 0 || buf.capacity() > MAX_POOLED_CAPACITY {
        return;
    }
    let mut free = free_list();
    if free.len() < MAX_POOLED {
        free.push(buf);
    }
}

/// Recover `payload`'s backing buffer into the pool if this was its sole
/// owner; a no-op (not an error) when the buffer is still shared.
pub fn recycle(payload: Payload) {
    if let Some(buf) = payload.recover_vec() {
        give(buf);
    }
}

/// Pool hits (a [`take`] served from the free list) since process start.
pub fn hit_count() -> u64 {
    HITS.load(Ordering::Relaxed)
}

/// Pool misses (a [`take`] that had to allocate) since process start.
pub fn miss_count() -> u64 {
    MISSES.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pool is process-global, so the tests that read its counters
    /// take turns.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static TURN: Mutex<()> = Mutex::new(());
        TURN.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn take_give_roundtrip_reuses_capacity() {
        let _turn = serial();
        let mut b = take();
        b.extend_from_slice(&[1, 2, 3, 4]);
        let cap = b.capacity();
        give(b);
        let hits0 = hit_count();
        let b2 = take();
        assert_eq!(hit_count(), hits0 + 1);
        assert!(b2.is_empty(), "pooled buffers come back cleared");
        assert!(b2.capacity() >= cap, "capacity survives the pool");
    }

    #[test]
    fn recycle_recovers_sole_owner_only() {
        let _turn = serial();
        // Shared payload: not recovered.
        let p = Payload::from_vec(vec![9; 64]);
        let clone = p.clone();
        recycle(p);
        let hits0 = hit_count();
        drop(clone);
        // Sole owner, even when windowed: recovered.
        let p = Payload::from_vec(vec![7; 128]);
        let window = p.slice(10..20);
        drop(p);
        recycle(window);
        let b = take();
        assert_eq!(hit_count(), hits0 + 1);
        assert!(b.capacity() >= 128, "full backing buffer recovered");
    }

    #[test]
    fn recycled_buffer_never_aliases_a_live_payload() {
        let _turn = serial();
        let mut b = take();
        b.extend_from_slice(&[0xaa; 64]);
        let built = Payload::from_vec(b);
        let live = built.clone();
        // Still shared: the buffer must stay out of the pool ...
        recycle(built);
        // ... so whatever the next builds are handed, it is not the
        // storage `live` reads.
        let mut later: Vec<Vec<u8>> = (0..4).map(|_| take()).collect();
        for buf in &mut later {
            buf.extend_from_slice(&[0x55; 64]);
            assert_ne!(buf.as_ptr(), live.as_slice().as_ptr());
        }
        assert_eq!(live, [0xaa; 64], "a live payload's bytes were overwritten");
        later.into_iter().for_each(give);
        // A window is as good an owner as the whole payload.
        let window = live.slice(8..16);
        drop(live);
        let keep = window.clone();
        recycle(window);
        let mut next = take();
        next.extend_from_slice(&[0x33; 64]);
        assert_eq!(keep, [0xaa; 8]);
    }

    #[test]
    fn oversized_and_empty_buffers_are_not_pooled() {
        let _turn = serial();
        // Drain the free list so the next take is a deterministic miss.
        free_list().clear();
        give(Vec::new());
        give(Vec::with_capacity(MAX_POOLED_CAPACITY + 1));
        let misses0 = miss_count();
        let _ = take();
        assert_eq!(miss_count(), misses0 + 1, "neither buffer was pooled");
    }
}
