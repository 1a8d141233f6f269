//! A counting global allocator for the benchmark binary.
//!
//! `allocs_per_pkt` and `alloc_bytes_per_pkt` are measured from outside the
//! library: the benchmark binary (and the allocator-agreement test) installs
//! [`CountingAlloc`] as its `#[global_allocator]`, and the timed section reads
//! the two counters before and after. The cost is one relaxed increment per
//! counter per call, and it is paid in untraced and traced runs alike, so the
//! two stay comparable.
//!
//! The counters are process-wide, which is exact here because one benchmark
//! repetition is one process running one simulation. (The library's own
//! `extmem_wire::bytes::CounterSpan` is deliberately not used: its statics are
//! shared by every test thread of a process — ROADMAP item 0.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus two relaxed counters: allocation calls
/// (`alloc`, `alloc_zeroed`, `realloc`) and bytes requested by them.
pub struct CountingAlloc;

fn count(bytes: usize) {
    // Relaxed: the counters publish no other data; they are statistics read
    // after the threads that bumped them have been joined.
    CALLS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter updates touch no memory the
// allocator manages and cannot unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: `layout` is the caller's, passed through untouched.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator, i.e. by `System`,
        // for this `layout` (the caller's obligation, forwarded).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// A reading of the two counters. Zero forever in a process that did not
/// install [`CountingAlloc`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocReading {
    /// Allocation calls so far.
    pub calls: u64,
    /// Bytes requested so far.
    pub bytes: u64,
}

impl AllocReading {
    /// Read the counters now.
    pub fn now() -> AllocReading {
        AllocReading {
            calls: CALLS.load(Ordering::Relaxed),
            bytes: BYTES.load(Ordering::Relaxed),
        }
    }

    /// Calls and bytes since `earlier`.
    pub fn since(self, earlier: AllocReading) -> AllocReading {
        AllocReading {
            calls: self.calls - earlier.calls,
            bytes: self.bytes - earlier.bytes,
        }
    }
}
