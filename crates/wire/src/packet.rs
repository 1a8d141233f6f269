//! The owned packet buffer that flows through the simulator.

use crate::bytes::Payload;
use core::cell::Cell;
use core::fmt;

/// Cold (uncached) content-digest computations made on this thread (plus
/// absorbed worker counts) so far. Forwarding one packet across N hops
/// must cost exactly one computation — the digest-cache tests pin the
/// delta, mirroring the alloc/CoW counters in [`crate::bytes`].
pub fn digest_compute_count() -> u64 {
    crate::bytes::ThreadCounts::current().digests
}

/// An owned, contiguous packet as it appears on the wire, starting at the
/// Ethernet destination MAC and ending at the last payload/trailer byte.
///
/// The simulator moves `Packet`s by value between nodes; `clone` is a
/// refcount bump on the shared [`Payload`] buffer, so multicast and
/// buffering never copy bytes, and whoever drops the last clone or view —
/// a consumer, a full queue, a lossy link — returns the buffer to
/// [`crate::pool`] by doing so. The switch model mutates headers in place
/// (e.g. the DSCP rewrite action of experiment E2) through
/// [`Packet::as_mut_slice`], which is copy-on-write: a uniquely-owned
/// packet mutates its buffer directly, a shared one is copied first so
/// other holders keep their view.
///
/// The content digest used by traces is **cached**: the first
/// [`Packet::digest`] call hashes the frame, every later call (including on
/// clones made before or after) returns the stored value. The cache is
/// invalidated by [`Packet::as_mut_slice`] — the only mutation path — so a
/// multi-hop forward of an unmodified frame hashes it exactly once, no
/// matter how many links deliver it.
pub struct Packet {
    data: Payload,
    /// Cached content digest; `None` = not computed since last mutation.
    digest: Cell<Option<u64>>,
}

impl Clone for Packet {
    fn clone(&self) -> Self {
        // The clone shares the bytes, so the cached digest stays valid for
        // both: a later CoW mutation through either side clears only that
        // side's cache.
        Packet {
            data: self.data.clone(),
            digest: self.digest.clone(),
        }
    }
}

impl Packet {
    /// Wrap raw bytes as a packet.
    pub fn from_vec(bytes: Vec<u8>) -> Self {
        Packet {
            data: Payload::from_vec(bytes),
            digest: Cell::new(None),
        }
    }

    /// Wrap an existing (possibly shared) payload buffer as a packet.
    pub fn from_payload(data: Payload) -> Self {
        Packet {
            data,
            digest: Cell::new(None),
        }
    }

    /// Allocate a zero-filled packet of `len` bytes.
    pub fn zeroed(len: usize) -> Self {
        Packet::from_payload(Payload::zeroed(len))
    }

    /// Total on-wire length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the packet is empty (never true for well-formed traffic).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the raw bytes.
    pub fn as_slice(&self) -> &[u8] {
        self.data.as_slice()
    }

    /// Mutable view of the raw bytes (copy-on-write: copies first iff the
    /// buffer is shared). Invalidates this packet's cached digest; clones
    /// keep theirs (their bytes are unchanged).
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        self.digest.set(None);
        self.data.make_mut()
    }

    /// A zero-copy view of byte range `range`, sharing this packet's
    /// buffer. This is how parsers lift payloads out of frames without
    /// copying.
    pub fn view(&self, range: core::ops::Range<usize>) -> Payload {
        self.data.slice(range)
    }

    /// Consume the packet, returning the raw bytes (no copy when this is
    /// the buffer's sole owner).
    pub fn into_vec(self) -> Vec<u8> {
        self.data.into_vec()
    }

    /// Consume the packet, returning its shared payload buffer (no copy):
    /// how a program keeps a frame's bytes as a [`Payload`] of its own (a
    /// bounced packet becomes the tail of the WRITE that stores it).
    pub fn into_payload(self) -> Payload {
        self.data
    }

    /// How many packets/payloads share this buffer.
    pub fn ref_count(&self) -> usize {
        self.data.ref_count()
    }

    /// A 64-bit digest of the packet contents. Used by determinism tests
    /// and traces to fingerprint packets without storing them. Computed
    /// lazily once (four-lane [`digest64`]) and cached until the next
    /// [`Packet::as_mut_slice`].
    pub fn digest(&self) -> u64 {
        if let Some(d) = self.digest.get() {
            return d;
        }
        crate::bytes::count(|c| c.digests += 1);
        let d = digest64(self.as_slice());
        self.digest.set(Some(d));
        d
    }
}

/// 64-bit FNV-1a hash, byte at a time: the reference fingerprint tests pin
/// encoded bytes with. Nothing on the delivery path calls it.
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut h: u64 = FNV_OFFSET;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One round of the fold that [`digest64`] and the trace sink's
/// per-delivery fold are made of: FNV-style xor-multiply of a 64-bit word
/// into `h`, then an xor-shift (the multiply alone only diffuses upward).
/// A bijection in `h` for fixed `w` and in `w` for fixed `h`: a change to
/// exactly one folded word always changes the result.
#[inline]
pub fn fold_word(h: u64, w: u64) -> u64 {
    let h = (h ^ w).wrapping_mul(FNV_PRIME);
    h ^ (h >> 29)
}

/// 64-bit content digest: [`fold_word`] over 8-byte little-endian words in
/// four independent lanes (word `i` of each 32-byte block goes to lane
/// `i`), so a long frame is four multiply chains the CPU overlaps, not one
/// it cannot. Lane seeds are distinct (equal streams in two lanes must not
/// cancel in the merge) and keyed by the length, so buffers differing only
/// in trailing zero bytes digest differently. The lanes are merged in
/// order by the same round; what follows the last whole block (up to three
/// words and a zero-padded partial one) is folded serially into the merged
/// state, and a final avalanche lifts those last words' low bits to the
/// high digest bits, which so few rounds do not.
///
/// This is the *cold* path behind [`Packet::digest`]: a fingerprint for
/// determinism checks, not a wire checksum, so it only needs to be
/// deterministic, platform-independent and well-distributed — it is
/// intentionally **not** equal to [`fnv1a`] over the same bytes. Below
/// about 64 bytes the lane set-up and merge cost more than they save.
pub fn digest64(data: &[u8]) -> u64 {
    let word = |c: &[u8]| u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
    let seed = FNV_OFFSET ^ (data.len() as u64).wrapping_mul(FNV_PRIME);
    let mut lanes = [0, 1, 2, 3].map(|i: u64| seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut blocks = data.chunks_exact(32);
    for b in blocks.by_ref() {
        for (lane, c) in lanes.iter_mut().zip(b.chunks_exact(8)) {
            *lane = fold_word(*lane, word(c));
        }
    }
    let mut h = lanes[1..].iter().fold(lanes[0], |h, &l| fold_word(h, l));
    let mut words = blocks.remainder().chunks_exact(8);
    for c in words.by_ref() {
        h = fold_word(h, word(c));
    }
    let rem = words.remainder();
    if !rem.is_empty() {
        let tail = rem.iter().rev().fold(0, |w, &b| w << 8 | b as u64);
        h = fold_word(h, tail);
    }
    h ^= h >> 32;
    h = h.wrapping_mul(0xd6e8_feb8_6659_fd93);
    h ^ (h >> 32)
}

impl PartialEq for Packet {
    fn eq(&self, other: &Self) -> bool {
        self.data == other.data
    }
}

impl Eq for Packet {}

impl std::hash::Hash for Packet {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.data.hash(state);
    }
}

impl fmt::Debug for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Packet[{}B digest={:016x}]", self.len(), self.digest())
    }
}

impl From<Vec<u8>> for Packet {
    fn from(bytes: Vec<u8>) -> Self {
        Packet::from_vec(bytes)
    }
}

impl From<Payload> for Packet {
    fn from(data: Payload) -> Self {
        Packet::from_payload(data)
    }
}

impl AsRef<[u8]> for Packet {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut p = Packet::zeroed(64);
        assert_eq!(p.len(), 64);
        assert!(!p.is_empty());
        p.as_mut_slice()[0] = 0xff;
        assert_eq!(p.as_slice()[0], 0xff);
        assert_eq!(p.clone().into_vec().len(), 64);
    }

    #[test]
    fn digest_distinguishes_contents() {
        let a = Packet::from_vec(vec![1, 2, 3]);
        let b = Packet::from_vec(vec![1, 2, 4]);
        assert_ne!(a.digest(), b.digest());
        assert_eq!(a.digest(), Packet::from_vec(vec![1, 2, 3]).digest());
    }

    #[test]
    fn fnv_known_vector() {
        // FNV-1a of empty input is the offset basis.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        // Well-known vector: fnv1a("a") = 0xaf63dc4c8601ec8c.
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn digest64_distinguishes_lengths_and_tails() {
        // Trailing zeros must matter (length is folded in).
        assert_ne!(digest64(&[0]), digest64(&[0, 0]));
        assert_ne!(digest64(&[0; 8]), digest64(&[0; 16]));
        assert_ne!(digest64(b""), digest64(&[0]));
        // A flip in any byte position of a 17-byte buffer changes the hash.
        let base: Vec<u8> = (0..17).collect();
        let h = digest64(&base);
        for i in 0..base.len() {
            let mut m = base.clone();
            m[i] ^= 0x80;
            assert_ne!(digest64(&m), h, "byte {i} not covered");
        }
    }

    /// A non-repeating buffer: byte `i` is a function of `i` that no two
    /// aligned words share.
    fn ramp(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 7 + i / 256) as u8).collect()
    }

    #[test]
    fn digest64_sees_every_bit_at_every_offset() {
        // 0..=200 walks every lane, the block boundaries at 31/32/33 and
        // 63/64/65, every word-tail length (0..=3 words) and every byte-tail
        // length; the rest are the benchmark's and the MTU's frame sizes and
        // one more boundary.
        for len in (0..=200).chain([255, 256, 257, 800, 850, 1500]) {
            let mut buf = ramp(len);
            let h = digest64(&buf);
            for bit in 0..len * 8 {
                buf[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(digest64(&buf), h, "len {len}: bit {bit} not covered");
                buf[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }

    #[test]
    fn digest64_sees_word_order_and_trailing_zeros() {
        let base = ramp(200);
        let h = digest64(&base);
        let swapped = |a: usize, b: usize| {
            let mut m = base.clone();
            for i in 0..8 {
                m.swap(8 * a + i, 8 * b + i);
            }
            assert_ne!(m, base);
            digest64(&m)
        };
        // Words 0..4 are block 0's lanes 0..4; word 4 is block 1's lane 0;
        // words 24 and 23 are the serial tail and the last block's lane 3.
        for (a, b, what) in [
            (0, 1, "two lanes of one block"),
            (1, 3, "two lanes of one block"),
            (0, 4, "one lane, adjacent blocks"),
            (2, 22, "one lane, distant blocks"),
            (1, 6, "different lanes, different blocks"),
            (23, 24, "a lane and the word tail"),
        ] {
            assert_ne!(swapped(a, b), h, "swap of words {a} and {b}: {what}");
        }
        // Equal streams in two lanes must not cancel: a buffer whose every
        // word is the same differs from another such buffer.
        assert_ne!(digest64(&[0x5a; 256]), digest64(&[0xa5; 256]));
        for len in [0, 1, 7, 8, 31, 32, 33, 200] {
            let mut longer = ramp(len);
            let h = digest64(&longer);
            for extra in 1..=40 {
                longer.push(0);
                assert_ne!(digest64(&longer), h, "{len} B + {extra} zero bytes");
            }
        }
    }

    #[test]
    fn digest64_known_answers() {
        // The function's value, pinned on its own: no scenario, and the same
        // on every platform (little-endian word loads are spelt out). The
        // answers are from an independent big-integer transcription of the
        // doc comment, not from this code.
        let bytes: Vec<u8> = (0..850).map(|i| (i % 251) as u8).collect();
        for (data, want) in [
            (&bytes[..0], 0x7cf7_b420_3701_d60e_u64),
            (&bytes[1..2], 0xf0b9_81e8_c903_03f3),
            (&bytes[..31], 0x6693_8379_fcdd_59ff),
            (&bytes[..32], 0x5a02_f26d_cf18_2634),
            (&bytes[..33], 0x5c0e_01c2_07d0_35ab),
            (&bytes[..], 0xfbb1_ad71_7827_dc49),
        ] {
            assert_eq!(
                digest64(data),
                want,
                "{} B: got {:#018x}",
                data.len(),
                digest64(data)
            );
        }
    }

    #[test]
    fn digest_is_cached_and_invalidated() {
        let mut p = Packet::from_vec(vec![1, 2, 3, 4]);
        let before = digest_compute_count();
        let d1 = p.digest();
        assert_eq!(digest_compute_count(), before + 1);
        assert_eq!(p.digest(), d1);
        let c = p.clone();
        assert_eq!(c.digest(), d1, "clone inherits the cache");
        assert_eq!(digest_compute_count(), before + 1, "no recompute on clone");
        // Mutation invalidates this packet only.
        p.as_mut_slice()[0] = 0xff;
        assert_ne!(p.digest(), d1, "mutated contents must re-digest");
        assert_eq!(c.digest(), d1, "clone keeps its (cached) old digest");
    }

    #[test]
    fn clone_shares_mutation_copies() {
        let mut p = Packet::from_vec(vec![1, 2, 3, 4]);
        let original = p.clone();
        assert_eq!(p.ref_count(), 2);
        p.as_mut_slice()[0] = 0xff;
        assert_eq!(p.as_slice(), &[0xff, 2, 3, 4]);
        assert_eq!(
            original.as_slice(),
            &[1, 2, 3, 4],
            "clone must keep its view"
        );
        assert_eq!(original.ref_count(), 1);
    }

    #[test]
    fn view_shares_the_buffer() {
        let p = Packet::from_vec((0..50).collect());
        let v = p.view(10..20);
        assert_eq!(v.as_slice(), &(10..20).collect::<Vec<u8>>()[..]);
        assert_eq!(p.ref_count(), 2);
    }
}
