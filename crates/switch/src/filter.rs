//! A counting Bloom filter sized for switch SRAM, used by the one-RTT
//! cuckoo lookup to decide *which* of a key's two candidate buckets the
//! data plane should READ.
//!
//! Following EMOMA ("Exact Match in One Memory Access"), the filter holds
//! exactly the keys that reside in their **secondary** cuckoo bucket: a
//! positive query means "probe h2", a negative query means "probe h1".
//! Counters (rather than plain bits) make deletions and relocations exact:
//! removing a key decrements its cells, and because the filter is a counting
//! multiset, `contains` stays `true` for a key as long as *it* is inserted,
//! regardless of unrelated churn.
//!
//! Cell indices come from [`crate::hash::salted_flow_index`] with a salt
//! space disjoint from the cuckoo bucket and slot-fingerprint salts, so the
//! filter hashes are independent of the bucket-choice hashes and of the
//! fingerprints — in P4 each would be a separate CRC polynomial on its own
//! hash unit.

use crate::hash::salted_flow_index;
use extmem_types::FiveTuple;

/// Base of the salt space used for filter cells (one salt per hash
/// function). Disjoint from the cuckoo bucket and fingerprint salts in
/// [`crate::hash`].
const FILTER_SALT_BASE: u32 = 0x50;

/// Counters observed on a [`ChoiceFilter`] over its lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FilterStats {
    /// Keys inserted.
    pub inserts: u64,
    /// Keys removed.
    pub removes: u64,
    /// Decrements that found a zero cell (must stay 0: an underflow means
    /// a key was removed that was never inserted, i.e. control-plane
    /// bookkeeping went wrong).
    pub underflows: u64,
    /// Increments that found a saturated cell (the cell pins at max and the
    /// filter stays conservative — queries may false-positive but never
    /// false-negative).
    pub saturations: u64,
}

/// A counting Bloom filter over [`FiveTuple`] keys.
///
/// `cells` counters of 16 bits each, `hashes` independent hash functions.
/// Cloning yields an independent copy with identical counters — the lookup
/// program uses this to keep a control-plane ("planned") instance and a
/// data-plane ("live") instance that converge at relocation boundaries.
#[derive(Clone, Debug)]
pub struct ChoiceFilter {
    counts: Vec<u16>,
    hashes: u32,
    stats: FilterStats,
}

impl ChoiceFilter {
    /// A filter with `cells` counters and `hashes` hash functions.
    pub fn new(cells: usize, hashes: u32) -> Self {
        assert!(cells > 0, "filter needs at least one cell");
        assert!(hashes > 0, "filter needs at least one hash");
        Self {
            counts: vec![0; cells],
            hashes,
            stats: FilterStats::default(),
        }
    }

    /// The cell indices `key` maps to, one per hash function (duplicates
    /// possible and handled consistently by insert/remove). The iterator
    /// borrows nothing, so callers may update cells while walking it.
    pub fn cells_of(&self, key: &FiveTuple) -> impl Iterator<Item = u32> {
        let (key, cells) = (*key, self.counts.len() as u64);
        (0..self.hashes).map(move |i| salted_flow_index(&key, FILTER_SALT_BASE + i, cells) as u32)
    }

    /// Increment every cell of `key`.
    pub fn insert(&mut self, key: &FiveTuple) {
        self.stats.inserts += 1;
        for c in self.cells_of(key) {
            let cell = &mut self.counts[c as usize];
            if *cell == u16::MAX {
                self.stats.saturations += 1;
            } else {
                *cell += 1;
            }
        }
    }

    /// Decrement every cell of `key`. Decrementing a zero cell is counted
    /// in [`FilterStats::underflows`] and the cell stays at zero.
    pub fn remove(&mut self, key: &FiveTuple) {
        self.stats.removes += 1;
        for c in self.cells_of(key) {
            let cell = &mut self.counts[c as usize];
            if *cell == 0 {
                self.stats.underflows += 1;
            } else {
                *cell -= 1;
            }
        }
    }

    /// Whether every cell of `key` is non-zero (the data-plane query).
    pub fn contains(&self, key: &FiveTuple) -> bool {
        self.cells_of(key).all(|c| self.counts[c as usize] > 0)
    }

    /// Current value of one cell.
    pub fn count(&self, cell: u32) -> u16 {
        self.counts[cell as usize]
    }

    /// Number of non-zero cells.
    pub fn occupied_cells(&self) -> usize {
        self.counts.iter().filter(|&&c| c > 0).count()
    }

    /// Fraction of cells that are non-zero.
    pub fn occupancy(&self) -> f64 {
        self.occupied_cells() as f64 / self.counts.len() as f64
    }

    /// Estimated false-positive probability at the current occupancy: a
    /// query is positive iff all `hashes` probed cells are non-zero.
    pub fn fp_estimate(&self) -> f64 {
        self.occupancy().powi(self.hashes as i32)
    }

    /// Raw counter array (tests compare planned vs rebuilt filters).
    pub fn raw_counts(&self) -> &[u16] {
        &self.counts
    }

    /// Lifetime counters.
    pub fn stats(&self) -> FilterStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(n: u32) -> FiveTuple {
        FiveTuple::new(
            0x0a00_0000 + n,
            0x0a63_0000,
            1000 + (n % 50_000) as u16,
            80,
            6,
        )
    }

    #[test]
    fn insert_then_contains_then_remove() {
        let mut f = ChoiceFilter::new(256, 2);
        let k = flow(7);
        assert!(!f.contains(&k));
        f.insert(&k);
        assert!(f.contains(&k));
        f.remove(&k);
        assert!(!f.contains(&k));
        assert_eq!(f.stats().underflows, 0);
        assert_eq!(f.occupied_cells(), 0);
    }

    #[test]
    fn contains_survives_unrelated_removes() {
        // Counting semantics: removing other keys never flips a present
        // key's query to negative, even when cells are shared.
        let mut f = ChoiceFilter::new(8, 2); // tiny: collisions certain
        let keep = flow(1);
        f.insert(&keep);
        for n in 2..40 {
            f.insert(&flow(n));
        }
        for n in 2..40 {
            f.remove(&flow(n));
            assert!(f.contains(&keep), "lost key after removing flow {n}");
        }
        assert_eq!(f.stats().underflows, 0);
    }

    #[test]
    fn underflow_is_detected_and_clamped() {
        let mut f = ChoiceFilter::new(64, 2);
        f.remove(&flow(3));
        assert!(f.stats().underflows > 0);
        assert_eq!(f.occupied_cells(), 0);
    }

    #[test]
    fn fp_estimate_tracks_occupancy() {
        let mut f = ChoiceFilter::new(1024, 2);
        assert_eq!(f.fp_estimate(), 0.0);
        for n in 0..64 {
            f.insert(&flow(n));
        }
        let est = f.fp_estimate();
        assert!(est > 0.0 && est < 0.05, "estimate {est}");
    }

    #[test]
    fn clone_is_independent() {
        let mut a = ChoiceFilter::new(128, 2);
        a.insert(&flow(1));
        let b = a.clone();
        a.remove(&flow(1));
        assert!(!a.contains(&flow(1)));
        assert!(b.contains(&flow(1)));
        assert_eq!(a.raw_counts().len(), b.raw_counts().len());
    }
}
