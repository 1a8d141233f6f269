//! IPv4 header (RFC 791), without options.

use crate::layout::{check_max, prefix, prefix_mut, Field};
use crate::{Result, WireError};

/// IP protocol numbers used in this workspace.
pub mod proto {
    /// TCP.
    pub const TCP: u8 = 6;
    /// UDP (carries both RoCEv2 and workload traffic).
    pub const UDP: u8 = 17;
}

/// An IPv4 header with IHL fixed at 5 (no options), which is what both the
/// paper's RoCEv2 traffic and our workload traffic use.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Ipv4Header {
    /// Differentiated services code point (6 bits). The lookup-table
    /// experiment's example action rewrites this field (§5).
    pub dscp: u8,
    /// Explicit congestion notification (2 bits).
    pub ecn: u8,
    /// Total length of the IP datagram (header + payload).
    pub total_len: u16,
    /// Identification field.
    pub identification: u16,
    /// Don't-fragment flag. RoCEv2 sets it.
    pub dont_fragment: bool,
    /// Time to live.
    pub ttl: u8,
    /// Payload protocol.
    pub protocol: u8,
    /// Source address (host-order u32).
    pub src: u32,
    /// Destination address (host-order u32).
    pub dst: u32,
}

impl Ipv4Header {
    /// Encoded size in bytes (IHL = 5).
    pub const LEN: usize = 20;

    /// Parse from the start of `buf`, verifying version, IHL and checksum.
    pub fn parse(buf: &[u8]) -> Result<Ipv4Header> {
        let b = prefix(buf, Self::LEN, "IPv4 header")?;
        let version = b[0] >> 4;
        if version != 4 {
            return Err(WireError::InvalidField {
                field: "IPv4 version",
                value: version as u64,
            });
        }
        let ihl = b[0] & 0x0f;
        if ihl != 5 {
            return Err(WireError::InvalidField {
                field: "IPv4 IHL",
                value: ihl as u64,
            });
        }
        let found = u16::from_be_bytes([b[10], b[11]]);
        let expected = checksum_with_zeroed_field(b);
        if found != expected {
            return Err(WireError::BadIpChecksum { found, expected });
        }
        let flags_frag = u16::from_be_bytes([b[6], b[7]]);
        Ok(Ipv4Header {
            dscp: b[1] >> 2,
            ecn: b[1] & 0x03,
            total_len: u16::from_be_bytes([b[2], b[3]]),
            identification: u16::from_be_bytes([b[4], b[5]]),
            dont_fragment: flags_frag & 0x4000 != 0,
            ttl: b[8],
            protocol: b[9],
            src: u32::decode(&b[12..16]),
            dst: u32::decode(&b[16..20]),
        })
    }

    /// Write into the first [`Self::LEN`] bytes of `buf`, computing the
    /// header checksum.
    pub fn write(&self, buf: &mut [u8]) -> Result<()> {
        let b = prefix_mut(buf, Self::LEN, "IPv4 header")?;
        check_max("DSCP", self.dscp, 0x3fu8)?;
        check_max("ECN", self.ecn, 0x3u8)?;
        b[0] = 0x45;
        b[1] = (self.dscp << 2) | self.ecn;
        b[2..4].copy_from_slice(&self.total_len.to_be_bytes());
        b[4..6].copy_from_slice(&self.identification.to_be_bytes());
        let flags_frag: u16 = if self.dont_fragment { 0x4000 } else { 0 };
        b[6..8].copy_from_slice(&flags_frag.to_be_bytes());
        b[8] = self.ttl;
        b[9] = self.protocol;
        b[10] = 0;
        b[11] = 0;
        b[12..16].copy_from_slice(&self.src.to_be_bytes());
        b[16..20].copy_from_slice(&self.dst.to_be_bytes());
        let csum = internet_checksum(b);
        b[10..12].copy_from_slice(&csum.to_be_bytes());
        Ok(())
    }
}

/// RFC 1071 internet checksum over `data` (odd trailing byte padded with 0).
pub fn internet_checksum(data: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u16::from_be_bytes([c[0], c[1]]) as u32;
    }
    if let [last] = chunks.remainder() {
        sum += (*last as u32) << 8;
    }
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

/// Compute the checksum of a 20-byte header treating bytes 10..12 as zero.
fn checksum_with_zeroed_field(b: &[u8]) -> u16 {
    let mut copy = [0u8; Ipv4Header::LEN];
    copy.copy_from_slice(&b[..Ipv4Header::LEN]);
    copy[10] = 0;
    copy[11] = 0;
    internet_checksum(&copy)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ipv4Header {
        Ipv4Header {
            dscp: 0,
            ecn: 0,
            total_len: 60,
            identification: 0x1c46,
            dont_fragment: true,
            ttl: 64,
            protocol: proto::TCP,
            src: 0xac10_0a63,
            dst: 0xac10_0a0c,
        }
    }

    #[test]
    fn rfc1071_known_vector() {
        // Canonical example header from RFC 1071 discussions.
        let hdr: [u8; 20] = [
            0x45, 0x00, 0x00, 0x3c, 0x1c, 0x46, 0x40, 0x00, 0x40, 0x06, 0x00, 0x00, 0xac, 0x10,
            0x0a, 0x63, 0xac, 0x10, 0x0a, 0x0c,
        ];
        assert_eq!(internet_checksum(&hdr), 0xb1e6);
    }

    #[test]
    fn roundtrip_with_checksum() {
        let h = sample();
        let mut buf = [0u8; 20];
        h.write(&mut buf).unwrap();
        assert_eq!(u16::from_be_bytes([buf[10], buf[11]]), 0xb1e6);
        assert_eq!(Ipv4Header::parse(&buf).unwrap(), h);
    }

    #[test]
    fn parse_detects_corruption() {
        let mut buf = [0u8; 20];
        sample().write(&mut buf).unwrap();
        buf[8] ^= 0x01; // flip a TTL bit
        assert!(matches!(
            Ipv4Header::parse(&buf),
            Err(WireError::BadIpChecksum { .. })
        ));
    }

    #[test]
    fn parse_rejects_wrong_version_and_ihl() {
        let mut buf = [0u8; 20];
        sample().write(&mut buf).unwrap();
        let good = buf;
        buf[0] = 0x65;
        assert!(matches!(
            Ipv4Header::parse(&buf),
            Err(WireError::InvalidField {
                field: "IPv4 version",
                ..
            })
        ));
        buf = good;
        buf[0] = 0x46;
        assert!(matches!(
            Ipv4Header::parse(&buf),
            Err(WireError::InvalidField {
                field: "IPv4 IHL",
                ..
            })
        ));
    }

    #[test]
    fn write_rejects_out_of_range_fields() {
        let mut h = sample();
        h.dscp = 0x40;
        assert!(h.write(&mut [0u8; 20]).is_err());
        let mut h = sample();
        h.ecn = 4;
        assert!(h.write(&mut [0u8; 20]).is_err());
    }

    #[test]
    fn odd_length_checksum() {
        // Checksum of [0x01] pads to 0x0100; complement is 0xfeff.
        assert_eq!(internet_checksum(&[0x01]), 0xfeff);
    }
}
