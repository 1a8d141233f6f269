//! Bounded exact-match match-action tables.
//!
//! On-chip table capacity is the scarce resource this paper exists to work
//! around ("tens of MBs of SRAM … at least one order of magnitude less than
//! a typical virtual switch consumes", §2.2), so the table type makes the
//! bound explicit: inserts fail when full unless LRU replacement is enabled
//! (the cache mode used by the lookup-table primitive's local cache).

use extmem_types::IntMap;
use std::borrow::Borrow;
use std::hash::Hash;

/// What to do when inserting into a full table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Replacement {
    /// Refuse the insert (classic control-plane-managed table).
    Deny,
    /// Evict the least-recently-used entry (data-plane cache).
    Lru,
}

/// A capacity-bounded exact-match table.
///
/// ```
/// use extmem_switch::table::{ExactMatchTable, Replacement};
/// let mut cache: ExactMatchTable<u32, &str> = ExactMatchTable::new(2, Replacement::Lru);
/// cache.insert(1, "a");
/// cache.insert(2, "b");
/// cache.lookup(&1);            // 2 becomes least recently used
/// cache.insert(3, "c");        // evicts 2
/// assert_eq!(cache.peek(&2), None);
/// assert_eq!(cache.peek(&1), Some(&"a"));
/// ```
///
/// LRU bookkeeping uses a monotonic access counter per entry — O(capacity)
/// eviction scan, which is fine at the scales simulated here and keeps the
/// structure simple and obviously correct.
#[derive(Debug)]
pub struct ExactMatchTable<K, V> {
    entries: IntMap<K, Entry<V>>,
    capacity: usize,
    replacement: Replacement,
    clock: u64,
    /// Lookup hits.
    pub hits: u64,
    /// Lookup misses.
    pub misses: u64,
    /// Inserts refused because the table was full.
    pub insert_failures: u64,
    /// Entries evicted by LRU replacement.
    pub evictions: u64,
}

#[derive(Debug)]
struct Entry<V> {
    value: V,
    last_used: u64,
}

impl<K: Eq + Hash + Clone, V> ExactMatchTable<K, V> {
    /// A table holding at most `capacity` entries with the given
    /// replacement policy.
    pub fn new(capacity: usize, replacement: Replacement) -> Self {
        assert!(capacity > 0, "table capacity must be positive");
        ExactMatchTable {
            entries: IntMap::with_capacity_and_hasher(capacity, Default::default()),
            capacity,
            replacement,
            clock: 0,
            hits: 0,
            misses: 0,
            insert_failures: 0,
            evictions: 0,
        }
    }

    /// Look up `key`, updating hit/miss counters and LRU recency.
    pub fn lookup<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.clock += 1;
        match self.entries.get_mut(key) {
            Some(e) => {
                e.last_used = self.clock;
                self.hits += 1;
                Some(&e.value)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Check for `key` without touching counters or recency (control-plane
    /// inspection).
    pub fn peek<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.entries.get(key).map(|e| &e.value)
    }

    /// Insert or update an entry. Returns `false` (and counts a failure) if
    /// the table is full and the policy is [`Replacement::Deny`].
    pub fn insert(&mut self, key: K, value: V) -> bool {
        self.clock += 1;
        if let Some(e) = self.entries.get_mut(&key) {
            e.value = value;
            e.last_used = self.clock;
            return true;
        }
        if self.entries.len() >= self.capacity {
            match self.replacement {
                Replacement::Deny => {
                    self.insert_failures += 1;
                    return false;
                }
                Replacement::Lru => {
                    let victim = self
                        .entries
                        .iter()
                        .min_by_key(|(_, e)| e.last_used)
                        .map(|(k, _)| k.clone())
                        .expect("full table has a victim");
                    self.entries.remove(&victim);
                    self.evictions += 1;
                }
            }
        }
        self.entries.insert(
            key,
            Entry {
                value,
                last_used: self.clock,
            },
        );
        true
    }

    /// Remove an entry, returning its value.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.entries.remove(key).map(|e| e.value)
    }

    /// Current entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Maximum entry count.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Hit rate over all lookups so far (0 if none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Remove all entries (keeps counters).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_hit_miss_counters() {
        let mut t: ExactMatchTable<u32, &str> = ExactMatchTable::new(4, Replacement::Deny);
        t.insert(1, "a");
        assert_eq!(t.lookup(&1), Some(&"a"));
        assert_eq!(t.lookup(&2), None);
        assert_eq!(t.hits, 1);
        assert_eq!(t.misses, 1);
        assert!((t.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn deny_policy_refuses_when_full() {
        let mut t: ExactMatchTable<u32, u32> = ExactMatchTable::new(2, Replacement::Deny);
        assert!(t.insert(1, 10));
        assert!(t.insert(2, 20));
        assert!(!t.insert(3, 30));
        assert_eq!(t.insert_failures, 1);
        assert_eq!(t.len(), 2);
        // Updating an existing key still works at capacity.
        assert!(t.insert(2, 21));
        assert_eq!(t.peek(&2), Some(&21));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut t: ExactMatchTable<u32, u32> = ExactMatchTable::new(2, Replacement::Lru);
        t.insert(1, 10);
        t.insert(2, 20);
        t.lookup(&1); // 2 is now LRU
        t.insert(3, 30);
        assert_eq!(t.peek(&2), None, "2 should have been evicted");
        assert_eq!(t.peek(&1), Some(&10));
        assert_eq!(t.peek(&3), Some(&30));
        assert_eq!(t.evictions, 1);
    }

    #[test]
    fn peek_does_not_disturb_lru_or_counters() {
        let mut t: ExactMatchTable<u32, u32> = ExactMatchTable::new(2, Replacement::Lru);
        t.insert(1, 10);
        t.insert(2, 20);
        t.peek(&1); // does NOT refresh 1
        t.lookup(&2); // 1 is LRU
        t.insert(3, 30);
        assert_eq!(t.peek(&1), None);
        assert_eq!(t.hits, 1);
        assert_eq!(t.misses, 0);
    }

    #[test]
    fn remove_and_clear() {
        let mut t: ExactMatchTable<u32, u32> = ExactMatchTable::new(4, Replacement::Deny);
        t.insert(1, 10);
        assert_eq!(t.remove(&1), Some(10));
        assert_eq!(t.remove(&1), None);
        t.insert(2, 20);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.capacity(), 4);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _: ExactMatchTable<u32, u32> = ExactMatchTable::new(0, Replacement::Deny);
    }
}
