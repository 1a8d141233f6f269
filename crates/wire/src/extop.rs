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
//! outputs (fetched buckets, gathered words, observed compare images) ride in
//! the response payload.

use crate::error::take;
use crate::{Result, WireError};
use extmem_types::Rkey;

/// Response flag: the op found a match / executed its write.
pub const EXTOP_FLAG_HIT: u8 = 0x01;
/// Response flag: a hash probe matched in the *second* candidate bucket.
pub const EXTOP_FLAG_SECONDARY: u8 = 0x02;

/// Extension header for the hash-probe-and-fetch op, 26 bytes.
///
/// The requester (switch) computes both candidate bucket indices with its
/// own hash units; the responder probes `b1` then `b2` against the key bytes
/// in the request payload and returns the matching bucket in one response.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct HashProbeEth {
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

impl HashProbeEth {
    /// Encoded size in bytes.
    pub const LEN: usize = 26;

    /// Parse from the start of `buf`.
    pub fn parse(buf: &[u8]) -> Result<HashProbeEth> {
        let b = take(buf, 0, Self::LEN, "HashProbeETH")?;
        Ok(HashProbeEth {
            base_va: u64::from_be_bytes(b[0..8].try_into().unwrap()),
            rkey: Rkey(u32::from_be_bytes(b[8..12].try_into().unwrap())),
            b1: u32::from_be_bytes(b[12..16].try_into().unwrap()),
            b2: u32::from_be_bytes(b[16..20].try_into().unwrap()),
            bucket_bytes: u16::from_be_bytes(b[20..22].try_into().unwrap()),
            slot_bytes: u16::from_be_bytes(b[22..24].try_into().unwrap()),
            key_off: b[24],
            key_len: b[25],
        })
    }

    /// Write into the first [`Self::LEN`] bytes of `buf`.
    pub fn write(&self, buf: &mut [u8]) -> Result<()> {
        if buf.len() < Self::LEN {
            return Err(WireError::Truncated {
                what: "HashProbeETH",
                needed: Self::LEN,
                available: buf.len(),
            });
        }
        buf[0..8].copy_from_slice(&self.base_va.to_be_bytes());
        buf[8..12].copy_from_slice(&self.rkey.raw().to_be_bytes());
        buf[12..16].copy_from_slice(&self.b1.to_be_bytes());
        buf[16..20].copy_from_slice(&self.b2.to_be_bytes());
        buf[20..22].copy_from_slice(&self.bucket_bytes.to_be_bytes());
        buf[22..24].copy_from_slice(&self.slot_bytes.to_be_bytes());
        buf[24] = self.key_off;
        buf[25] = self.key_len;
        Ok(())
    }
}

/// Extension header for the conditional WRITE op, 22 bytes.
///
/// The request payload is `[compare image (cmp_len bytes)][write image]`.
/// The responder reads `cmp_len` bytes at `cmp_va`; iff they equal the
/// compare image it writes the write image at `write_va`. The response
/// payload always carries the observed compare bytes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CondWriteEth {
    /// Address of the bytes the condition inspects.
    pub cmp_va: u64,
    /// Address the write image lands at when the condition holds.
    pub write_va: u64,
    /// Remote access key covering both addresses.
    pub rkey: Rkey,
    /// Length of the compare image in bytes.
    pub cmp_len: u16,
}

impl CondWriteEth {
    /// Encoded size in bytes.
    pub const LEN: usize = 22;

    /// Parse from the start of `buf`.
    pub fn parse(buf: &[u8]) -> Result<CondWriteEth> {
        let b = take(buf, 0, Self::LEN, "CondWriteETH")?;
        Ok(CondWriteEth {
            cmp_va: u64::from_be_bytes(b[0..8].try_into().unwrap()),
            write_va: u64::from_be_bytes(b[8..16].try_into().unwrap()),
            rkey: Rkey(u32::from_be_bytes(b[16..20].try_into().unwrap())),
            cmp_len: u16::from_be_bytes(b[20..22].try_into().unwrap()),
        })
    }

    /// Write into the first [`Self::LEN`] bytes of `buf`.
    pub fn write(&self, buf: &mut [u8]) -> Result<()> {
        if buf.len() < Self::LEN {
            return Err(WireError::Truncated {
                what: "CondWriteETH",
                needed: Self::LEN,
                available: buf.len(),
            });
        }
        buf[0..8].copy_from_slice(&self.cmp_va.to_be_bytes());
        buf[8..16].copy_from_slice(&self.write_va.to_be_bytes());
        buf[16..20].copy_from_slice(&self.rkey.raw().to_be_bytes());
        buf[20..22].copy_from_slice(&self.cmp_len.to_be_bytes());
        Ok(())
    }
}

/// Extension header for the bounded gather/walk op, 8 bytes.
///
/// The request payload is `count` big-endian 64-bit virtual addresses; the
/// responder reads `word_len` bytes at each and concatenates the results
/// into the response payload in request order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct GatherEth {
    /// Remote access key covering every gathered address.
    pub rkey: Rkey,
    /// Bytes read per address.
    pub word_len: u16,
    /// Number of addresses (must match the payload length / 8).
    pub count: u16,
}

impl GatherEth {
    /// Encoded size in bytes.
    pub const LEN: usize = 8;

    /// Parse from the start of `buf`.
    pub fn parse(buf: &[u8]) -> Result<GatherEth> {
        let b = take(buf, 0, Self::LEN, "GatherETH")?;
        Ok(GatherEth {
            rkey: Rkey(u32::from_be_bytes(b[0..4].try_into().unwrap())),
            word_len: u16::from_be_bytes(b[4..6].try_into().unwrap()),
            count: u16::from_be_bytes(b[6..8].try_into().unwrap()),
        })
    }

    /// Write into the first [`Self::LEN`] bytes of `buf`.
    pub fn write(&self, buf: &mut [u8]) -> Result<()> {
        if buf.len() < Self::LEN {
            return Err(WireError::Truncated {
                what: "GatherETH",
                needed: Self::LEN,
                available: buf.len(),
            });
        }
        buf[0..4].copy_from_slice(&self.rkey.raw().to_be_bytes());
        buf[4..6].copy_from_slice(&self.word_len.to_be_bytes());
        buf[6..8].copy_from_slice(&self.count.to_be_bytes());
        Ok(())
    }
}

/// Extension header for the remote-op response, 4 bytes (rides after the
/// AETH on [`ExtOpResp`](crate::bth::Opcode::ExtOpResp) packets).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ExtOpAckEth {
    /// Echo of the request opcode this response answers.
    pub op: u8,
    /// [`EXTOP_FLAG_HIT`] / [`EXTOP_FLAG_SECONDARY`] bits.
    pub flags: u8,
    /// Op-specific index (e.g. the matching slot within a fetched bucket).
    pub index: u16,
}

impl ExtOpAckEth {
    /// Encoded size in bytes.
    pub const LEN: usize = 4;

    /// Parse from the start of `buf`.
    pub fn parse(buf: &[u8]) -> Result<ExtOpAckEth> {
        let b = take(buf, 0, Self::LEN, "ExtOpAckETH")?;
        Ok(ExtOpAckEth {
            op: b[0],
            flags: b[1],
            index: u16::from_be_bytes(b[2..4].try_into().unwrap()),
        })
    }

    /// Write into the first [`Self::LEN`] bytes of `buf`.
    pub fn write(&self, buf: &mut [u8]) -> Result<()> {
        if buf.len() < Self::LEN {
            return Err(WireError::Truncated {
                what: "ExtOpAckETH",
                needed: Self::LEN,
                available: buf.len(),
            });
        }
        buf[0] = self.op;
        buf[1] = self.flags;
        buf[2..4].copy_from_slice(&self.index.to_be_bytes());
        Ok(())
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
