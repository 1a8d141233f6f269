//! Extension headers for the remote-op ISA (Tiara-style dependent accesses).
//!
//! These headers ride after the BTH on the three remote-op request opcodes
//! ([`HashProbe`](crate::bth::Opcode::HashProbe),
//! [`CondWrite`](crate::bth::Opcode::CondWrite),
//! [`GatherWalk`](crate::bth::Opcode::GatherWalk)) and on the single
//! [`ExtOpResp`](crate::bth::Opcode::ExtOpResp) response opcode. Each op
//! consumes exactly one PSN and produces exactly one response packet, so the
//! whole dependent-access chain costs one RTT regardless of how many memory
//! accesses the responder performs on the op's behalf.
//!
//! All headers are fixed-size and `Copy`; variable-length op inputs (probe
//! keys, compare/write images, VA lists) ride in the request payload, and op
//! outputs ride in the response payload: a hash probe's matched slot or a
//! gather's words. A probe's miss and every conditional WRITE answer with
//! [`ExtOpAckEth`]'s flags alone and an empty payload.

use crate::layout::header;
use extmem_types::Rkey;

/// Response flag: the op found a match / executed its write.
pub const EXTOP_FLAG_HIT: u8 = 0x01;
/// Response flag: a hash probe matched in the *second* candidate bucket.
pub const EXTOP_FLAG_SECONDARY: u8 = 0x02;

header! {
    /// Extension header for the hash-probe-and-fetch op, 26 bytes.
    ///
    /// The requester (switch) computes both candidate bucket indices with its
    /// own hash units; the responder probes `b1` then `b2` against the key bytes
    /// in the request payload. On a hit the one response carries the matching
    /// slot's `slot_bytes` bytes, with its index in the bucket in
    /// [`ExtOpAckEth::index`]; on a miss it carries none.
    pub struct HashProbeEth as "HashProbeETH" {
        /// Base virtual address of the bucket array.
        pub base_va: u64,
        /// Remote access key of the bucket array.
        pub rkey: Rkey,
        /// First candidate bucket index.
        pub b1: u32,
        /// Second candidate bucket index.
        pub b2: u32,
        /// Bytes per bucket (stride of the array).
        pub bucket_bytes: u16,
        /// Bytes per slot within a bucket.
        pub slot_bytes: u16,
        /// Byte offset of the key field inside a slot.
        pub key_off: u8,
        /// Key length in bytes (also the request payload length).
        pub key_len: u8,
    }
}

header! {
    /// Extension header for the conditional WRITE op, 22 bytes.
    ///
    /// The request payload is `[compare image (cmp_len bytes)][write image]`.
    /// The responder reads `cmp_len` bytes at `cmp_va`; iff they equal the
    /// compare image it writes the write image at `write_va`. The response
    /// payload is empty: [`EXTOP_FLAG_HIT`] says whether the write landed.
    pub struct CondWriteEth as "CondWriteETH" {
        /// Address of the bytes the condition inspects.
        pub cmp_va: u64,
        /// Address the write image lands at when the condition holds.
        pub write_va: u64,
        /// Remote access key covering both addresses.
        pub rkey: Rkey,
        /// Length of the compare image in bytes.
        pub cmp_len: u16,
    }
}

header! {
    /// Extension header for the bounded gather/walk op, 8 bytes.
    ///
    /// The request payload is `count` big-endian 64-bit virtual addresses; the
    /// responder reads `word_len` bytes at each and concatenates the results
    /// into the response payload in request order.
    pub struct GatherEth as "GatherETH" {
        /// Remote access key covering every gathered address.
        pub rkey: Rkey,
        /// Bytes read per address.
        pub word_len: u16,
        /// Number of addresses (must match the payload length / 8).
        pub count: u16,
    }
}

header! {
    /// Extension header for the remote-op response, 4 bytes (rides after the
    /// AETH on [`ExtOpResp`](crate::bth::Opcode::ExtOpResp) packets).
    pub struct ExtOpAckEth as "ExtOpAckETH" {
        /// Echo of the request opcode this response answers.
        pub op: u8,
        /// [`EXTOP_FLAG_HIT`] / [`EXTOP_FLAG_SECONDARY`] bits.
        pub flags: u8,
        /// Op-specific index (a hash probe's matched slot within its bucket).
        pub index: u16,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_probe_roundtrip() {
        let h = HashProbeEth {
            base_va: 0x1000_0000,
            rkey: Rkey(7),
            b1: 13,
            b2: 57,
            bucket_bytes: 128,
            slot_bytes: 32,
            key_off: 1,
            key_len: 13,
        };
        let mut buf = [0u8; HashProbeEth::LEN];
        h.write(&mut buf).unwrap();
        assert_eq!(HashProbeEth::parse(&buf).unwrap(), h);
    }

    #[test]
    fn cond_write_roundtrip() {
        let h = CondWriteEth {
            cmp_va: 0x1000_0040,
            write_va: 0x1000_2080,
            rkey: Rkey(0x0a0b_0c0d),
            cmp_len: 32,
        };
        let mut buf = [0u8; CondWriteEth::LEN];
        h.write(&mut buf).unwrap();
        assert_eq!(CondWriteEth::parse(&buf).unwrap(), h);
    }

    #[test]
    fn gather_roundtrip() {
        let h = GatherEth {
            rkey: Rkey(3),
            word_len: 16,
            count: 4,
        };
        let mut buf = [0u8; GatherEth::LEN];
        h.write(&mut buf).unwrap();
        assert_eq!(GatherEth::parse(&buf).unwrap(), h);
    }

    #[test]
    fn ext_op_ack_roundtrip() {
        let h = ExtOpAckEth {
            op: 0xc1,
            flags: EXTOP_FLAG_HIT | EXTOP_FLAG_SECONDARY,
            index: 3,
        };
        let mut buf = [0u8; ExtOpAckEth::LEN];
        h.write(&mut buf).unwrap();
        assert_eq!(ExtOpAckEth::parse(&buf).unwrap(), h);
    }

    #[test]
    fn short_buffers_rejected() {
        assert!(HashProbeEth::parse(&[0u8; HashProbeEth::LEN - 1]).is_err());
        assert!(CondWriteEth::parse(&[0u8; CondWriteEth::LEN - 1]).is_err());
        assert!(GatherEth::parse(&[0u8; GatherEth::LEN - 1]).is_err());
        assert!(ExtOpAckEth::parse(&[0u8; ExtOpAckEth::LEN - 1]).is_err());
    }
}
