//! Extension headers for the remote-op ISA (Tiara-style dependent reads).
//!
//! These headers ride after the BTH on the two remote-op request opcodes,
//! [`HashProbe`](crate::bth::Opcode::HashProbe) and
//! [`GatherWalk`](crate::bth::Opcode::GatherWalk). Each op consumes exactly
//! one PSN and is answered the way a READ is, by one
//! [`ReadRespOnly`](crate::bth::Opcode::ReadRespOnly) packet, so the whole
//! dependent-access chain costs one RTT regardless of how many memory
//! accesses the responder performs on the op's behalf.
//!
//! Both headers are fixed-size and `Copy`; variable-length op inputs (probe
//! keys, VA lists) ride in the request payload, and op outputs ride in the
//! response payload: a hash probe's matched slot (nothing on a miss) or a
//! gather's words.

use crate::layout::header;
use extmem_types::Rkey;

header! {
    /// Extension header for the hash-probe-and-fetch op, 18 bytes.
    ///
    /// The requester (switch) picks the slots to scan with its own hash
    /// units and names them as one span; the responder scans the `len`
    /// bytes at `va`, slot by slot, for the key bytes in the request
    /// payload. On a hit the response carries the matching slot's
    /// `slot_bytes` bytes; on a miss it carries none.
    pub struct HashProbeEth as "HashProbeETH" {
        /// Virtual address of the span's first slot.
        pub va: u64,
        /// Remote access key of the span.
        pub rkey: Rkey,
        /// Bytes in the span, a whole number of slots.
        pub len: u16,
        /// Bytes per slot within the span.
        pub slot_bytes: u16,
        /// Byte offset of the key field inside a slot.
        pub key_off: u8,
        /// Key length in bytes (also the request payload length).
        pub key_len: u8,
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_probe_roundtrip() {
        let h = HashProbeEth {
            va: 0x1000_0000,
            rkey: Rkey(7),
            len: 128,
            slot_bytes: 32,
            key_off: 1,
            key_len: 13,
        };
        let mut buf = [0u8; HashProbeEth::LEN];
        h.write(&mut buf).unwrap();
        assert_eq!(HashProbeEth::parse(&buf).unwrap(), h);
        assert_eq!(HashProbeEth::LEN, 18);
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
    fn short_buffers_rejected() {
        assert!(HashProbeEth::parse(&[0u8; HashProbeEth::LEN - 1]).is_err());
        assert!(GatherEth::parse(&[0u8; GatherEth::LEN - 1]).is_err());
    }
}
