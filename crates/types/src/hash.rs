//! A fixed-seed hasher for the integer-keyed maps on the packet path.
//!
//! `std`'s default `HashMap` hashes with SipHash under a per-process random
//! seed: robust against adversarial keys, but several times the cost of the
//! lookup itself for a `u32`/`u64` key, and a source of run-to-run variation
//! (iteration order, and with it allocation counts, differ between two
//! processes given the same seed). The keys hashed here — cookies, QP numbers,
//! region keys, flow ids, counter addresses, the MACs and five-tuples of
//! simulated frames — come from the simulation itself, never from an outside
//! party, so collision resistance buys nothing. [`IntMap`] trades it for one
//! multiply and one fold per key, the same in every process.

use core::hash::{BuildHasherDefault, Hasher};
use std::collections::{HashMap, HashSet};

/// Multiply-fold hasher for integer keys (and tuples or newtypes of them).
/// Not collision-resistant: use only for keys the program itself generates.
#[derive(Clone, Copy, Debug, Default)]
pub struct IntHasher(u64);

impl IntHasher {
    fn add(&mut self, word: u64) {
        // 2^64 / golden ratio, odd: consecutive keys spread across the
        // whole range, and the rotate keeps successive words of a compound
        // key from cancelling.
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

impl Hasher for IntHasher {
    fn finish(&self) -> u64 {
        // A multiply mixes upward: the product's top bits depend on every
        // key bit, its low bits only on the key's low bits (zero for an
        // 8-byte-aligned address). Hash tables index buckets with the low
        // bits, so hand them the top ones.
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
}

/// A `HashMap` hashed by [`IntHasher`]: same API, `IntMap::default()` in
/// place of `HashMap::new()`.
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// A `HashSet` hashed by [`IntHasher`]: `IntSet::default()` in place of
/// `HashSet::new()`.
pub type IntSet<K> = HashSet<K, BuildHasherDefault<IntHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{QpNum, Rkey};
    use core::hash::{BuildHasher, Hash};

    fn hash_of(key: impl Hash) -> u64 {
        BuildHasherDefault::<IntHasher>::default().hash_one(key)
    }

    #[test]
    fn same_key_same_hash_in_every_map() {
        assert_eq!(hash_of(7u64), hash_of(7u64));
        assert_eq!(hash_of(QpNum(0x100)), hash_of(0x100u32));
        assert_ne!(hash_of((1u32, 2u64)), hash_of((2u32, 1u64)));
    }

    #[test]
    fn aligned_and_sequential_keys_spread_over_low_and_high_bits() {
        // A hashbrown-style table indexes buckets by the low bits and tags
        // entries by the top seven; neither may collapse for the key
        // shapes used on the packet path.
        let shapes = [
            ("sequential cookies", 0, 1),
            ("8-byte-aligned addresses", 0x1000_0000, 8),
            ("cookies under a flag bit", 1 << 63, 1),
        ];
        for (name, base, stride) in shapes {
            let mut low = std::collections::HashSet::new();
            let mut high = std::collections::HashSet::new();
            for i in 0..4096u64 {
                let h = hash_of(base + i * stride);
                low.insert(h & 0xfff);
                high.insert(h >> 57);
            }
            assert!(low.len() > 2400, "{name}: {} of 4096 buckets", low.len());
            assert_eq!(high.len(), 128, "{name}: control tags");
        }
    }

    #[test]
    fn int_map_is_a_hash_map() {
        let mut m: IntMap<Rkey, &str> = IntMap::default();
        m.insert(Rkey(3), "three");
        m.insert(Rkey(1), "one");
        assert_eq!(m.get(&Rkey(3)), Some(&"three"));
        assert_eq!(m.remove(&Rkey(1)), Some("one"));
        assert_eq!(m.len(), 1);
    }
}
