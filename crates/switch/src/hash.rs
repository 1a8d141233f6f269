//! CRC-based hashing, as provided by switch hash units.
//!
//! Programmable switches compute table indices with hardware CRC engines;
//! the lookup-table primitive hashes "the packet's 5-tuple" (§4) to pick a
//! remote slot. We reuse the CRC-32 implementation from `extmem-wire` so
//! switch hashes are bit-compatible with what a P4 `hash(..., crc32, ...)`
//! extern would produce.

use extmem_types::FiveTuple;
use extmem_wire::icrc::crc32;

/// CRC-32 of `data` reduced to a table index in `[0, buckets)`.
pub fn hash_to_index(data: &[u8], buckets: u64) -> u64 {
    assert!(buckets > 0, "bucket count must be positive");
    crc32(data) as u64 % buckets
}

/// Index a 5-tuple into `buckets` slots.
pub fn flow_index(flow: &FiveTuple, buckets: u64) -> u64 {
    hash_to_index(&flow.to_bytes(), buckets)
}

/// A keyed variant of [`flow_index`]: each salt is an independent hash
/// function. The choice filter's cell hashes ([`crate::filter::ChoiceFilter`]),
/// the cuckoo table's two bucket hashes ([`cuckoo_buckets`]) and its slot
/// fingerprints ([`slot_fingerprint`]) are salts of this one function.
///
/// Note that simply prepending the salt to the CRC input does **not** work:
/// CRC is linear, so a fixed-position prefix change XORs every hash by the
/// same constant and collisions are preserved across salts. Real switch hash
/// units offer several *different polynomials*; we model that by passing the
/// CRC through a salt-keyed nonlinear finalizer (splitmix64).
pub fn salted_flow_index(flow: &FiveTuple, salt: u32, buckets: u64) -> u64 {
    assert!(buckets > 0, "bucket count must be positive");
    let crc = crc32(&flow.to_bytes()) as u64;
    splitmix64(crc ^ ((salt as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))) % buckets
}

/// Salt of the cuckoo table's primary bucket hash (h1).
const CUCKOO_SALT_H1: u32 = 0xB1;
/// Salt of the cuckoo table's secondary bucket hash (h2).
const CUCKOO_SALT_H2: u32 = 0xB2;

/// The two candidate bucket indices `(h1, h2)` of a flow in a two-choice
/// cuckoo table of `buckets` buckets.
///
/// The two hashes use distinct salts (distinct CRC polynomials on a real
/// switch) so they are independent; for a small fraction of keys the two
/// indices coincide, which callers must treat as a single-choice key.
pub fn cuckoo_buckets(flow: &FiveTuple, buckets: u64) -> (u64, u64) {
    (
        salted_flow_index(flow, CUCKOO_SALT_H1, buckets),
        salted_flow_index(flow, CUCKOO_SALT_H2, buckets),
    )
}

/// Salt of the lookup table's slot fingerprints ([`slot_fingerprint`]).
const FINGERPRINT_SALT: u32 = 0xF1;

/// A flow's one-byte slot fingerprint, in `1..=255`: another salt of
/// [`salted_flow_index`], independent of the bucket and filter hashes, so
/// keys sharing a bucket rarely share a fingerprint. 0 is left for an empty
/// slot.
pub fn slot_fingerprint(flow: &FiveTuple) -> u8 {
    salted_flow_index(flow, FINGERPRINT_SALT, 255) as u8 + 1
}

/// The splitmix64 finalizer: a fast, well-mixed 64-bit permutation.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(n: u32) -> FiveTuple {
        FiveTuple::new(0x0a000000 + n, 0x0a630000, 1000 + n as u16, 80, 6)
    }

    #[test]
    fn indices_are_stable_and_bounded() {
        let f = flow(1);
        let a = flow_index(&f, 1024);
        let b = flow_index(&f, 1024);
        assert_eq!(a, b);
        assert!(a < 1024);
    }

    #[test]
    fn distribution_is_roughly_uniform() {
        // 10k flows into 64 buckets: each bucket should get 156 ± a lot;
        // assert no bucket is empty and none has more than 3x the mean.
        let buckets = 64u64;
        let mut counts = vec![0u32; buckets as usize];
        for n in 0..10_000 {
            counts[flow_index(&flow(n), buckets) as usize] += 1;
        }
        let mean = 10_000 / buckets as u32;
        assert!(counts.iter().all(|&c| c > 0), "empty bucket");
        assert!(
            counts.iter().all(|&c| c < mean * 3),
            "hot bucket: {counts:?}"
        );
    }

    #[test]
    fn salts_give_independent_rows() {
        // Two flows colliding under one salt should (almost surely) not
        // collide under another; verify on a concrete pair found by scan.
        let buckets = 128u64;
        let mut found = false;
        'outer: for a in 0..200u32 {
            for b in (a + 1)..200 {
                let (fa, fb) = (flow(a), flow(b));
                if salted_flow_index(&fa, 0, buckets) == salted_flow_index(&fb, 0, buckets)
                    && salted_flow_index(&fa, 1, buckets) != salted_flow_index(&fb, 1, buckets)
                {
                    found = true;
                    break 'outer;
                }
            }
        }
        assert!(
            found,
            "expected at least one salt-0 collision resolved by salt 1"
        );
    }

    #[test]
    fn cuckoo_choices_are_bounded_and_mostly_distinct() {
        let buckets = 64u64;
        let mut degenerate = 0;
        for n in 0..2_000u32 {
            let (b1, b2) = cuckoo_buckets(&flow(n), buckets);
            assert!(b1 < buckets && b2 < buckets);
            if b1 == b2 {
                degenerate += 1;
            }
        }
        // h1 == h2 should happen at roughly the 1/buckets rate, not often.
        assert!(degenerate < 100, "too many degenerate keys: {degenerate}");
    }

    #[test]
    fn slot_fingerprints_are_never_zero_and_spread_over_every_value() {
        let mut seen = [0u32; 256];
        for n in 0..25_500u32 {
            seen[slot_fingerprint(&flow(n)) as usize] += 1;
        }
        assert_eq!(seen[0], 0, "fingerprint 0 marks an empty slot");
        // 100 flows a value on average: each of 1..=255 within half of it.
        let taken = &seen[1..];
        assert!(taken.iter().all(|c| (50..150).contains(c)), "{taken:?}");
    }

    #[test]
    #[should_panic(expected = "bucket count")]
    fn zero_buckets_panics() {
        hash_to_index(b"x", 0);
    }
}
