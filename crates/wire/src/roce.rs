//! RoCEv2 packet assembly and parsing.
//!
//! A RoCEv2 packet is `Eth(14) | IPv4(20) | UDP(8, dport 4791) | BTH(12) |
//! [extended transport header] | payload | pad | ICRC(4)`. This module ties
//! the individual header codecs together into a single [`RocePacket`] type
//! with symmetric `build`/`parse`, plus the §4 overhead-accounting constants
//! regenerated by experiment E5.
//!
//! A frame is encoded once, by [`RoceHeaders::encode_into`]: headers from
//! the struct, body from borrowed slices (a window of a memory region, an
//! op's inline operands, a caller's WRITE payload), pad and ICRC appended.
//! [`RocePacket::build_into`] is that call with the packet's own payload as
//! the only body part.

use crate::aeth::Aeth;
use crate::atomic::{AtomicAckEth, AtomicEth};
use crate::bth::{Bth, Opcode};
use crate::bytes::Payload;
use crate::ethernet::{EtherType, EthernetHeader, MacAddr};
use crate::extop::{GatherEth, HashProbeEth};
use crate::icrc::{icrc_rocev2, ICRC_LEN};
use crate::ipv4::{proto, Ipv4Header};
use crate::layout::{prefix, tail};
use crate::packet::Packet;
use crate::reth::Reth;
use crate::udp::{UdpHeader, ROCEV2_PORT};
use crate::{Result, WireError};

/// "Routing and transport" header bytes RoCEv2 adds on top of Ethernet:
/// IPv4 (20) + UDP (8) + BTH (12). This is the paper's "40 bytes".
pub const ROCEV2_BASE_OVERHEAD: usize = Ipv4Header::LEN + UdpHeader::LEN + Bth::LEN;

/// RoCEv1's routing header, the InfiniBand Global Route Header: 40 bytes
/// laid out like an IPv6 header (IB spec vol 1, §8.3). Nothing here
/// encodes one; the primitives speak RoCEv2.
const GRH_LEN: usize = 40;

/// The RoCEv1 equivalent: GRH (40) + BTH (12) = 52 bytes, quoted by the
/// paper for comparison.
pub const ROCEV1_BASE_OVERHEAD: usize = GRH_LEN + Bth::LEN;

/// Operation-specific header bytes for WRITE and READ (the RETH).
pub const WRITE_READ_OP_OVERHEAD: usize = Reth::LEN;

/// Operation-specific header bytes for Fetch-and-Add (the AtomicETH).
pub const FETCH_ADD_OP_OVERHEAD: usize = AtomicEth::LEN;

/// An L2/L3 endpoint identity used when addressing RoCE packets.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RoceEndpoint {
    /// MAC address.
    pub mac: MacAddr,
    /// IPv4 address (host order).
    pub ip: u32,
}

/// The extended transport header portion of a RoCE packet, determined by the
/// BTH opcode.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RoceExt {
    /// An RETH (WRITE, READ request).
    Reth(Reth),
    /// An AETH (ACK, READ response).
    Aeth(Aeth),
    /// An AtomicETH (Fetch-and-Add request).
    AtomicEth(AtomicEth),
    /// AETH + AtomicAckETH (atomic acknowledge).
    AtomicAck(Aeth, AtomicAckEth),
    /// A HashProbeETH (remote-op hash-probe-and-fetch request).
    HashProbe(HashProbeEth),
    /// A GatherETH (remote-op bounded gather/walk request).
    Gather(GatherEth),
    /// No extended header (a connect request).
    None,
}

impl RoceExt {
    /// Encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        match self {
            RoceExt::Reth(_) => Reth::LEN,
            RoceExt::Aeth(_) => Aeth::LEN,
            RoceExt::AtomicEth(_) => AtomicEth::LEN,
            RoceExt::AtomicAck(..) => Aeth::LEN + AtomicAckEth::LEN,
            RoceExt::HashProbe(_) => HashProbeEth::LEN,
            RoceExt::Gather(_) => GatherEth::LEN,
            RoceExt::None => 0,
        }
    }

    /// Whether this is the extended header `opcode` requires (the one
    /// [`RocePacket::parse`] reads for it).
    fn fits(&self, opcode: Opcode) -> bool {
        matches!(
            (opcode, self),
            (Opcode::WriteOnly | Opcode::ReadRequest, RoceExt::Reth(_))
                | (Opcode::ReadRespOnly | Opcode::Acknowledge, RoceExt::Aeth(_))
                | (Opcode::FetchAdd, RoceExt::AtomicEth(_))
                | (Opcode::AtomicAcknowledge, RoceExt::AtomicAck(..))
                | (Opcode::HashProbe, RoceExt::HashProbe(_))
                | (Opcode::GatherWalk, RoceExt::Gather(_))
                | (Opcode::Connect, RoceExt::None)
        )
    }
}

/// The headers of a RoCEv2 frame — everything a [`RocePacket`] holds but
/// its payload — and the encoder that turns them plus borrowed body bytes
/// into a frame. Senders that already hold the body somewhere (the
/// responder's memory region, a remote op's inline operands) encode
/// straight from there instead of first wrapping the bytes in a
/// [`Payload`].
///
/// ```
/// use extmem_types::QpNum;
/// use extmem_wire::aeth::Aeth;
/// use extmem_wire::bth::{Bth, Opcode};
/// use extmem_wire::roce::{RoceEndpoint, RoceExt, RoceHeaders, RocePacket};
/// use extmem_wire::MacAddr;
///
/// let nic = RoceEndpoint { mac: MacAddr::local(2), ip: 0x0a000002 };
/// let peer = RoceEndpoint { mac: MacAddr::local(1), ip: 0x0a000001 };
/// let region = vec![7u8; 4096];
/// // A READ response for bytes 100..164 of the region, split anywhere.
/// let frame = RoceHeaders::new(
///     nic,
///     peer,
///     0xc000,
///     Bth::new(Opcode::ReadRespOnly, QpNum(0x7700), 9),
///     RoceExt::Aeth(Aeth::ack(1)),
/// )
/// .encode(&[&region[100..132], &region[132..164]])
/// .unwrap();
/// let parsed = RocePacket::parse(&frame).unwrap().unwrap();
/// assert_eq!(parsed.payload, vec![7u8; 64]);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RoceHeaders {
    /// Ethernet header.
    pub eth: EthernetHeader,
    /// IPv4 header. `total_len` is filled in by the encoder.
    pub ipv4: Ipv4Header,
    /// UDP header. `length` is filled in by the encoder.
    pub udp: UdpHeader,
    /// Base transport header. `pad_count` is filled in by the encoder.
    pub bth: Bth,
    /// Extended transport header.
    pub ext: RoceExt,
}

impl RoceHeaders {
    /// Headers with workspace-default L3/L4 fields.
    pub fn new(
        src: RoceEndpoint,
        dst: RoceEndpoint,
        udp_src_port: u16,
        bth: Bth,
        ext: RoceExt,
    ) -> RoceHeaders {
        RoceHeaders {
            eth: EthernetHeader {
                dst: dst.mac,
                src: src.mac,
                ethertype: EtherType::Ipv4,
            },
            ipv4: Ipv4Header {
                dscp: 0,
                ecn: 0,
                total_len: 0,
                identification: 0,
                dont_fragment: true,
                ttl: 64,
                protocol: proto::UDP,
                src: src.ip,
                dst: dst.ip,
            },
            udp: UdpHeader {
                src_port: udp_src_port,
                dst_port: ROCEV2_PORT,
                length: 0,
                checksum: 0,
            },
            bth,
            ext,
        }
    }

    /// Encoded size of the headers: the offset of the first body byte in
    /// the frame.
    pub fn body_offset(&self) -> usize {
        EthernetHeader::LEN + ROCEV2_BASE_OVERHEAD + self.ext.encoded_len()
    }

    /// Encode a frame whose body is the concatenation of `body` into `out`
    /// (cleared and refilled, reusing whatever capacity it already holds),
    /// computing lengths, pad count, IPv4 checksum and ICRC. Headers are
    /// assembled in one stack buffer and appended in a single pass with the
    /// body parts — no zero-fill of the frame before writing, and the body
    /// bytes move once, from wherever the caller keeps them to the frame.
    /// Fails if the opcode/extended-header combination is inconsistent or a
    /// field exceeds its encoding range.
    pub fn encode_into(&self, body: &[&[u8]], out: &mut Vec<u8>) -> Result<()> {
        if !self.ext.fits(self.bth.opcode) {
            return Err(WireError::InvalidField {
                field: "extended header for opcode",
                value: self.bth.opcode as u8 as u64,
            });
        }
        let body_len: usize = body.iter().map(|part| part.len()).sum();
        let pad = pad_len(body_len);
        let body_at = self.body_offset();
        let total = body_at + body_len + pad + ICRC_LEN;
        if total - EthernetHeader::LEN > u16::MAX as usize {
            return Err(WireError::ValueOutOfRange {
                field: "RoCE frame length",
                value: total as u64,
                max: u16::MAX as u64,
            });
        }
        out.clear();
        out.reserve(total);

        // All headers land in the first MAX_HEADERS bytes.
        const MAX_HEADERS: usize = EthernetHeader::LEN + ROCEV2_BASE_OVERHEAD + AtomicEth::LEN;
        let mut head = [0u8; MAX_HEADERS];

        self.eth.write(&mut head)?;

        let mut ipv4 = self.ipv4;
        ipv4.total_len = (total - EthernetHeader::LEN) as u16;
        ipv4.write(&mut head[EthernetHeader::LEN..])?;

        let udp_at = EthernetHeader::LEN + Ipv4Header::LEN;
        let mut udp = self.udp;
        udp.length = (total - udp_at) as u16;
        udp.write(&mut head[udp_at..])?;

        let bth_at = udp_at + UdpHeader::LEN;
        let mut bth = self.bth;
        bth.pad_count = pad as u8;
        bth.write(&mut head[bth_at..])?;

        let ext_at = bth_at + Bth::LEN;
        match &self.ext {
            RoceExt::Reth(r) => r.write(&mut head[ext_at..])?,
            RoceExt::Aeth(a) => a.write(&mut head[ext_at..])?,
            RoceExt::AtomicEth(a) => a.write(&mut head[ext_at..])?,
            RoceExt::AtomicAck(aeth, ack) => {
                aeth.write(&mut head[ext_at..])?;
                ack.write(&mut head[ext_at + Aeth::LEN..])?;
            }
            RoceExt::HashProbe(h) => h.write(&mut head[ext_at..])?,
            RoceExt::Gather(h) => h.write(&mut head[ext_at..])?,
            RoceExt::None => {}
        }
        out.extend_from_slice(&head[..body_at]);
        for part in body {
            out.extend_from_slice(part);
        }
        out.extend_from_slice(&[0u8; 4][..pad]);

        let icrc = icrc_rocev2(&out[EthernetHeader::LEN..]);
        out.extend_from_slice(&icrc.to_le_bytes());
        debug_assert_eq!(out.len(), total);
        Ok(())
    }

    /// [`RoceHeaders::encode_into`] a buffer from the frame pool, wrapped as
    /// the [`Packet`] that goes on the wire: one payload constructed per
    /// frame, whose last holder's drop returns the buffer ([`crate::pool`]).
    pub fn encode(&self, body: &[&[u8]]) -> Result<Packet> {
        let mut buf = crate::pool::take();
        self.encode_into(body, &mut buf)?;
        Ok(Packet::from_vec(buf))
    }
}

/// A fully decoded (or to-be-encoded) RoCEv2 packet.
///
/// ```
/// use extmem_types::{QpNum, Rkey};
/// use extmem_wire::bth::{Bth, Opcode};
/// use extmem_wire::reth::Reth;
/// use extmem_wire::roce::{RoceEndpoint, RoceExt, RocePacket};
/// use extmem_wire::MacAddr;
///
/// let src = RoceEndpoint { mac: MacAddr::local(1), ip: 0x0a000001 };
/// let dst = RoceEndpoint { mac: MacAddr::local(2), ip: 0x0a000002 };
/// // A 100-byte RDMA WRITE into the region named by rkey 7.
/// let write = RocePacket::new(
///     src,
///     dst,
///     0x9000,
///     Bth::new(Opcode::WriteOnly, QpNum(0x100), 0),
///     RoceExt::Reth(Reth { va: 0x1000, rkey: Rkey(7), dma_len: 100 }),
///     vec![0xab; 100],
/// );
/// let wire = write.build().unwrap();             // bytes incl. checksums + ICRC
/// let parsed = RocePacket::parse(&wire).unwrap().unwrap();
/// assert_eq!(parsed.payload, vec![0xab; 100]);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RocePacket {
    /// Ethernet header.
    pub eth: EthernetHeader,
    /// IPv4 header. `total_len` is filled in by [`RocePacket::build`].
    pub ipv4: Ipv4Header,
    /// UDP header. `length` is filled in by [`RocePacket::build`].
    pub udp: UdpHeader,
    /// Base transport header. `pad_count` is filled in by
    /// [`RocePacket::build`].
    pub bth: Bth,
    /// Extended transport header.
    pub ext: RoceExt,
    /// RDMA payload (WRITE data or READ response data). Empty for requests
    /// and ACKs that carry none. Shared/zero-copy: [`RocePacket::parse`]
    /// windows the frame's buffer, and cloning bumps a refcount.
    pub payload: Payload,
}

impl RocePacket {
    /// Construct a packet with workspace-default L3/L4 fields. `total_len`,
    /// `udp.length` and `pad_count` are computed at [`RocePacket::build`]
    /// time.
    pub fn new(
        src: RoceEndpoint,
        dst: RoceEndpoint,
        udp_src_port: u16,
        bth: Bth,
        ext: RoceExt,
        payload: impl Into<Payload>,
    ) -> RocePacket {
        let RoceHeaders {
            eth,
            ipv4,
            udp,
            bth,
            ext,
        } = RoceHeaders::new(src, dst, udp_src_port, bth, ext);
        RocePacket {
            eth,
            ipv4,
            udp,
            bth,
            ext,
            payload: payload.into(),
        }
    }

    /// Total on-wire frame length this packet will encode to.
    pub fn wire_len(&self) -> usize {
        let pad = pad_len(self.payload.len());
        EthernetHeader::LEN
            + ROCEV2_BASE_OVERHEAD
            + self.ext.encoded_len()
            + self.payload.len()
            + pad
            + ICRC_LEN
    }

    /// The packet's headers as the encoder takes them.
    pub fn headers(&self) -> RoceHeaders {
        RoceHeaders {
            eth: self.eth,
            ipv4: self.ipv4,
            udp: self.udp,
            bth: self.bth,
            ext: self.ext,
        }
    }

    /// Encode to wire bytes, computing lengths, pad count, IPv4 checksum and
    /// ICRC. Fails if the opcode/extended-header combination is inconsistent
    /// or a field exceeds its encoding range.
    pub fn build(&self) -> Result<Packet> {
        let mut buf = Vec::new();
        self.build_into(&mut buf)?;
        Ok(Packet::from_vec(buf))
    }

    /// [`RocePacket::build`] into a caller-supplied buffer: `out` is cleared
    /// and refilled, reusing whatever capacity it already holds (see
    /// [`RoceHeaders::encode_into`], which this calls with the payload as
    /// the whole body).
    pub fn build_into(&self, out: &mut Vec<u8>) -> Result<()> {
        self.headers().encode_into(&[&self.payload], out)
    }

    /// Decode a wire packet. Verifies the IPv4 checksum and the ICRC, and
    /// that the extended header matches the opcode. Returns
    /// `Ok(None)` if the frame is simply not RoCEv2 (wrong ethertype,
    /// protocol or UDP port); returns an error if it *is* RoCEv2 but
    /// malformed.
    pub fn parse(pkt: &Packet) -> Result<Option<RocePacket>> {
        const UDP_AT: usize = EthernetHeader::LEN + Ipv4Header::LEN;
        const BTH_AT: usize = UDP_AT + UdpHeader::LEN;
        const EXT_AT: usize = BTH_AT + Bth::LEN;
        let buf = pkt.as_slice();
        let eth = EthernetHeader::parse(buf)?;
        if eth.ethertype != EtherType::Ipv4 {
            return Ok(None);
        }
        let ipv4 = Ipv4Header::parse(tail(buf, EthernetHeader::LEN))?;
        if ipv4.protocol != proto::UDP {
            return Ok(None);
        }
        let udp = UdpHeader::parse(tail(buf, UDP_AT))?;
        if udp.dst_port != ROCEV2_PORT {
            return Ok(None);
        }

        // From here on, malformations are errors, not "not RoCE". Every
        // later header and the trailer lie inside the IPv4 datagram, so they
        // are read from `frame`, which ends where `total_len` says.
        let ip_end = EthernetHeader::LEN + ipv4.total_len as usize;
        let frame = prefix(buf, ip_end, "RoCE frame (IPv4 total_len)")?;
        let bth = Bth::parse(tail(frame, BTH_AT))?;
        let ext_buf = tail(frame, EXT_AT);
        let ext = match bth.opcode {
            Opcode::WriteOnly | Opcode::ReadRequest => RoceExt::Reth(Reth::parse(ext_buf)?),
            Opcode::ReadRespOnly | Opcode::Acknowledge => RoceExt::Aeth(Aeth::parse(ext_buf)?),
            Opcode::FetchAdd => RoceExt::AtomicEth(AtomicEth::parse(ext_buf)?),
            Opcode::AtomicAcknowledge => RoceExt::AtomicAck(
                Aeth::parse(ext_buf)?,
                AtomicAckEth::parse(tail(ext_buf, Aeth::LEN))?,
            ),
            Opcode::HashProbe => RoceExt::HashProbe(HashProbeEth::parse(ext_buf)?),
            Opcode::GatherWalk => RoceExt::Gather(GatherEth::parse(ext_buf)?),
            Opcode::Connect => RoceExt::None,
        };
        let payload_at = EXT_AT + ext.encoded_len();
        let trailer = ICRC_LEN + bth.pad_count as usize;
        if ip_end < payload_at + trailer {
            return Err(WireError::Truncated {
                what: "RoCE payload",
                needed: payload_at + trailer,
                available: ip_end,
            });
        }
        let payload = pkt.view(payload_at..ip_end - trailer);

        let (covered, icrc) = frame
            .split_last_chunk::<ICRC_LEN>()
            .ok_or(WireError::Truncated {
                what: "ICRC",
                needed: ICRC_LEN,
                available: frame.len(),
            })?;
        let found = u32::from_le_bytes(*icrc);
        let expected = icrc_rocev2(tail(covered, EthernetHeader::LEN));
        if found != expected {
            return Err(WireError::BadIcrc { found, expected });
        }
        Ok(Some(RocePacket {
            eth,
            ipv4,
            udp,
            bth,
            ext,
            payload,
        }))
    }
}

/// Cheap classification: does this frame look like RoCEv2 (IPv4/UDP/4791)
/// without validating checksums? Used by the switch parser stage.
pub fn looks_like_rocev2(pkt: &Packet) -> bool {
    let buf = pkt.as_slice();
    if buf.len() < EthernetHeader::LEN + Ipv4Header::LEN + UdpHeader::LEN + Bth::LEN + ICRC_LEN {
        return false;
    }
    u16::from_be_bytes([buf[12], buf[13]]) == EtherType::Ipv4.value()
        && buf[23] == proto::UDP
        && u16::from_be_bytes([buf[36], buf[37]]) == ROCEV2_PORT
}

/// Number of zero bytes needed to pad `payload_len` to a 4-byte boundary.
pub fn pad_len(payload_len: usize) -> usize {
    (4 - payload_len % 4) % 4
}

#[cfg(test)]
mod tests {
    use super::*;
    use extmem_types::{QpNum, Rkey};

    fn endpoints() -> (RoceEndpoint, RoceEndpoint) {
        (
            RoceEndpoint {
                mac: MacAddr::local(1),
                ip: 0x0a000001,
            },
            RoceEndpoint {
                mac: MacAddr::local(2),
                ip: 0x0a000002,
            },
        )
    }

    fn write_packet(payload: Vec<u8>) -> RocePacket {
        let (s, d) = endpoints();
        let len = payload.len() as u32;
        RocePacket::new(
            s,
            d,
            49152,
            Bth::new(Opcode::WriteOnly, QpNum(0x11), 5),
            RoceExt::Reth(Reth {
                va: 0x1000,
                rkey: Rkey(0xabc),
                dma_len: len,
            }),
            payload,
        )
    }

    #[test]
    fn write_roundtrip() {
        let pkt = write_packet(vec![1, 2, 3, 4, 5]);
        let wire = pkt.build().unwrap();
        let parsed = RocePacket::parse(&wire).unwrap().expect("is roce");
        assert_eq!(parsed.payload, vec![1, 2, 3, 4, 5]);
        assert_eq!(parsed.bth.opcode, Opcode::WriteOnly);
        assert_eq!(parsed.bth.psn, 5);
        assert_eq!(parsed.ext, pkt.ext);
        // pad_count for a 5-byte payload is 3.
        assert_eq!(parsed.bth.pad_count, 3);
    }

    #[test]
    fn build_into_reuses_capacity_and_matches_build() {
        let mut scratch = Vec::new();
        for payload_len in [0usize, 1, 5, 64, 1500] {
            let pkt = write_packet(vec![0x5a; payload_len]);
            pkt.build_into(&mut scratch).unwrap();
            assert_eq!(
                scratch,
                pkt.build().unwrap().as_slice(),
                "len {payload_len}"
            );
        }
        // A warm scratch sized for the largest frame never reallocates.
        let cap = scratch.capacity();
        let ptr = scratch.as_ptr();
        write_packet(vec![1; 600]).build_into(&mut scratch).unwrap();
        assert_eq!(scratch.capacity(), cap);
        assert_eq!(
            scratch.as_ptr(),
            ptr,
            "warm scratch must be reused in place"
        );
    }

    #[test]
    fn wire_len_accounts_for_everything() {
        let pkt = write_packet(vec![0; 7]);
        let wire = pkt.build().unwrap();
        assert_eq!(wire.len(), pkt.wire_len());
        // 14 eth + 40 base + 16 reth + 7 payload + 1 pad + 4 icrc
        assert_eq!(wire.len(), 14 + 40 + 16 + 7 + 1 + 4);
    }

    #[test]
    fn read_request_and_response_roundtrip() {
        let (s, d) = endpoints();
        let req = RocePacket::new(
            s,
            d,
            49152,
            Bth::new(Opcode::ReadRequest, QpNum(3), 9),
            RoceExt::Reth(Reth {
                va: 0x2000,
                rkey: Rkey(1),
                dma_len: 1500,
            }),
            vec![],
        );
        let parsed = RocePacket::parse(&req.build().unwrap()).unwrap().unwrap();
        assert_eq!(parsed.bth.opcode, Opcode::ReadRequest);
        assert!(parsed.payload.is_empty());

        let resp = RocePacket::new(
            d,
            s,
            49152,
            Bth::new(Opcode::ReadRespOnly, QpNum(7), 9),
            RoceExt::Aeth(Aeth::ack(1)),
            vec![0xaa; 1500],
        );
        let parsed = RocePacket::parse(&resp.build().unwrap()).unwrap().unwrap();
        assert_eq!(parsed.payload.len(), 1500);
        assert!(matches!(parsed.ext, RoceExt::Aeth(a) if a.is_ack()));
    }

    #[test]
    fn fetch_add_and_atomic_ack_roundtrip() {
        let (s, d) = endpoints();
        let req = RocePacket::new(
            s,
            d,
            49152,
            Bth::new(Opcode::FetchAdd, QpNum(3), 0x1234),
            RoceExt::AtomicEth(AtomicEth {
                va: 0x3000,
                rkey: Rkey(9),
                swap_add: 17,
                compare: 0,
            }),
            vec![],
        );
        let wire = req.build().unwrap();
        // 14 + 40 + 28 + 0 + 4 — the paper's FaA request size.
        assert_eq!(wire.len(), 86);
        let parsed = RocePacket::parse(&wire).unwrap().unwrap();
        assert!(matches!(parsed.ext, RoceExt::AtomicEth(a) if a.swap_add == 17));

        let ack = RocePacket::new(
            d,
            s,
            49152,
            Bth::new(Opcode::AtomicAcknowledge, QpNum(5), 0x1234),
            RoceExt::AtomicAck(Aeth::ack(2), AtomicAckEth { original_value: 41 }),
            vec![],
        );
        let parsed = RocePacket::parse(&ack.build().unwrap()).unwrap().unwrap();
        assert!(matches!(parsed.ext, RoceExt::AtomicAck(_, a) if a.original_value == 41));
    }

    #[test]
    fn remote_op_requests_and_response_roundtrip() {
        use crate::extop::{GatherEth, HashProbeEth};
        let (s, d) = endpoints();
        let cases: Vec<(RoceExt, Vec<u8>)> = vec![
            (
                RoceExt::HashProbe(HashProbeEth {
                    va: 0x1100,
                    rkey: Rkey(5),
                    len: 128,
                    slot_bytes: 32,
                    key_off: 1,
                    key_len: 13,
                }),
                vec![0x5a; 13],
            ),
            (
                RoceExt::Gather(GatherEth {
                    rkey: Rkey(5),
                    word_len: 16,
                    count: 3,
                }),
                vec![0; 24],
            ),
        ];
        for (ext, payload) in cases {
            let opcode = match ext {
                RoceExt::HashProbe(_) => Opcode::HashProbe,
                RoceExt::Gather(_) => Opcode::GatherWalk,
                _ => unreachable!(),
            };
            let req = RocePacket::new(s, d, 49152, Bth::new(opcode, QpNum(3), 7), ext, payload);
            let parsed = RocePacket::parse(&req.build().unwrap()).unwrap().unwrap();
            assert_eq!(parsed.ext, req.ext, "{opcode:?}");
            assert_eq!(parsed.payload, req.payload, "{opcode:?}");
        }
        // Either op is answered as a READ: a probe's hit with its one slot,
        // a miss with no bytes at all.
        for slot in [vec![0xbb; 32], vec![]] {
            let bth = Bth::new(Opcode::ReadRespOnly, QpNum(9), 7);
            let resp = RocePacket::new(d, s, 49152, bth, RoceExt::Aeth(Aeth::ack(4)), slot);
            let parsed = RocePacket::parse(&resp.build().unwrap()).unwrap().unwrap();
            assert_eq!((parsed.ext, parsed.payload), (resp.ext, resp.payload));
        }
    }

    #[test]
    fn mismatched_ext_rejected_at_build() {
        let (s, d) = endpoints();
        let bad = RocePacket::new(
            s,
            d,
            1,
            Bth::new(Opcode::WriteOnly, QpNum(1), 0),
            RoceExt::Aeth(Aeth::ack(0)),
            vec![],
        );
        assert!(bad.build().is_err());
    }

    #[test]
    fn corruption_detected_by_icrc() {
        let wire = write_packet(vec![9; 64]).build().unwrap();
        let mut bytes = wire.into_vec();
        let n = bytes.len();
        bytes[n - 10] ^= 0x01; // flip a payload bit
        let r = RocePacket::parse(&Packet::from_vec(bytes));
        assert!(matches!(r, Err(WireError::BadIcrc { .. })));
    }

    #[test]
    fn mutable_field_rewrite_keeps_icrc_valid() {
        // A router-style TTL decrement + checksum rewrite must leave the
        // packet parseable (ICRC is invariant to those fields).
        let wire = write_packet(vec![9; 32]).build().unwrap();
        let mut bytes = wire.into_vec();
        bytes[22] = 63; // TTL
                        // Recompute the IPv4 checksum.
        bytes[24] = 0;
        bytes[25] = 0;
        let csum = crate::ipv4::internet_checksum(&bytes[14..34]);
        bytes[24..26].copy_from_slice(&csum.to_be_bytes());
        let parsed = RocePacket::parse(&Packet::from_vec(bytes))
            .unwrap()
            .unwrap();
        assert_eq!(parsed.ipv4.ttl, 63);
    }

    #[test]
    fn total_len_short_of_the_headers_is_truncated() {
        // A 64-byte frame to the RoCEv2 port, intact IPv4 checksum, whose
        // datagram ends before the BTH (or inside it, at 39).
        let (s, d) = endpoints();
        let h = RoceHeaders::new(
            s,
            d,
            1,
            Bth::new(Opcode::Acknowledge, QpNum(1), 0),
            RoceExt::Aeth(Aeth::ack(0)),
        );
        for total_len in [0, 20, 27, 39] {
            let mut buf = vec![0u8; 64];
            h.eth.write(&mut buf).unwrap();
            let ipv4 = Ipv4Header {
                total_len,
                ..h.ipv4
            };
            ipv4.write(&mut buf[EthernetHeader::LEN..]).unwrap();
            h.udp.write(&mut buf[34..]).unwrap();
            assert!(
                matches!(
                    RocePacket::parse(&Packet::from_vec(buf)),
                    Err(WireError::Truncated { .. })
                ),
                "total_len {total_len}"
            );
        }
    }

    #[test]
    fn non_roce_frames_classified_as_none() {
        let data = crate::payload::build_data_packet(
            MacAddr::local(1),
            MacAddr::local(2),
            extmem_types::FiveTuple::new(1, 2, 3, 4, proto::UDP),
            0,
            0,
            extmem_types::Time::ZERO,
            crate::payload::MIN_DATA_FRAME,
        )
        .unwrap();
        assert_eq!(RocePacket::parse(&data).unwrap(), None);
        assert!(!looks_like_rocev2(&data));
        let roce = write_packet(vec![1]).build().unwrap();
        assert!(looks_like_rocev2(&roce));
    }

    #[test]
    fn overhead_constants_match_paper() {
        assert_eq!(ROCEV2_BASE_OVERHEAD, 40);
        assert_eq!(ROCEV1_BASE_OVERHEAD, 52);
        assert_eq!(WRITE_READ_OP_OVERHEAD, 16);
        assert_eq!(FETCH_ADD_OP_OVERHEAD, 28);
    }

    #[test]
    fn pad_len_values() {
        assert_eq!(pad_len(0), 0);
        assert_eq!(pad_len(1), 3);
        assert_eq!(pad_len(2), 2);
        assert_eq!(pad_len(3), 1);
        assert_eq!(pad_len(4), 0);
    }
}
