//! Workload (application) packet format.
//!
//! Traffic generators emit ordinary Ethernet/IPv4/UDP frames whose UDP
//! payload begins with a small fixed header carrying a flow id, a per-flow
//! sequence number and the send timestamp. End-to-end tests use these fields
//! to verify byte-exact in-order delivery and to measure one-way latency;
//! the rest of the payload is deterministic filler derived from the sequence
//! number, so corruption anywhere in the packet is detectable.

use crate::ethernet::{EtherType, EthernetHeader, MacAddr};
use crate::ipv4::{proto, Ipv4Header};
use crate::packet::Packet;
use crate::udp::UdpHeader;
use crate::{Result, WireError};
use extmem_types::{FiveTuple, Time};

/// Magic number identifying workload payloads ("XM").
pub const DATA_MAGIC: u16 = 0x584d;

/// Encoded size of the workload payload header. Kept compact (18 bytes) so a
/// 64-byte frame — the smallest point on the paper's Fig 3 x-axis — can carry
/// it: 14 (Eth) + 20 (IP) + 8 (UDP) + 18 = 60 <= 64.
pub const DATA_HEADER_LEN: usize = 2 + 4 + 4 + 8;

/// Minimum total frame size able to carry the workload header.
pub const MIN_DATA_FRAME: usize =
    EthernetHeader::LEN + Ipv4Header::LEN + UdpHeader::LEN + DATA_HEADER_LEN;

/// The decoded workload payload header.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DataHeader {
    /// Application-level flow identifier (dense, assigned by the generator).
    pub flow_id: u32,
    /// Per-flow sequence number, starting at zero.
    pub seq: u32,
    /// Simulated send time, picoseconds.
    pub sent_at: Time,
}

/// A fully parsed workload packet.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DataPacketInfo {
    /// L2 header.
    pub eth: EthernetHeader,
    /// L3 header.
    pub ipv4: Ipv4Header,
    /// L4 header.
    pub udp: UdpHeader,
    /// Workload header.
    pub data: DataHeader,
}

impl DataPacketInfo {
    /// The flow 5-tuple of this packet.
    pub fn five_tuple(&self) -> FiveTuple {
        FiveTuple::new(
            self.ipv4.src,
            self.ipv4.dst,
            self.udp.src_port,
            self.udp.dst_port,
            proto::UDP,
        )
    }
}

/// Build a workload frame of exactly `frame_len` bytes.
///
/// `frame_len` must be at least [`MIN_DATA_FRAME`]. Filler bytes after the
/// workload header are a deterministic function of `(flow_id, seq, offset)`.
#[allow(clippy::too_many_arguments)]
pub fn build_data_packet(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    flow: FiveTuple,
    flow_id: u32,
    seq: u32,
    sent_at: Time,
    frame_len: usize,
) -> Result<Packet> {
    if frame_len < MIN_DATA_FRAME {
        return Err(WireError::ValueOutOfRange {
            field: "workload frame length",
            value: frame_len as u64,
            max: MIN_DATA_FRAME as u64, // reported as the minimum bound
        });
    }
    if frame_len > u16::MAX as usize {
        return Err(WireError::ValueOutOfRange {
            field: "workload frame length",
            value: frame_len as u64,
            max: u16::MAX as u64,
        });
    }
    let mut buf = crate::pool::take();
    buf.resize(frame_len, 0);
    EthernetHeader {
        dst: dst_mac,
        src: src_mac,
        ethertype: EtherType::Ipv4,
    }
    .write(&mut buf)?;
    let ip_len = frame_len - EthernetHeader::LEN;
    Ipv4Header {
        dscp: 0,
        ecn: 0,
        total_len: ip_len as u16,
        identification: (seq & 0xffff) as u16,
        dont_fragment: true,
        ttl: 64,
        protocol: proto::UDP,
        src: flow.src_ip,
        dst: flow.dst_ip,
    }
    .write(&mut buf[EthernetHeader::LEN..])?;
    let udp_at = EthernetHeader::LEN + Ipv4Header::LEN;
    UdpHeader {
        src_port: flow.src_port,
        dst_port: flow.dst_port,
        length: (ip_len - Ipv4Header::LEN) as u16,
        checksum: 0,
    }
    .write(&mut buf[udp_at..])?;
    let p = udp_at + UdpHeader::LEN;
    buf[p..p + 2].copy_from_slice(&DATA_MAGIC.to_be_bytes());
    buf[p + 2..p + 6].copy_from_slice(&flow_id.to_be_bytes());
    buf[p + 6..p + 10].copy_from_slice(&seq.to_be_bytes());
    buf[p + 10..p + 18].copy_from_slice(&sent_at.picos().to_be_bytes());
    let first = filler_byte(flow_id, seq, 0);
    for block in buf[p + DATA_HEADER_LEN..].chunks_mut(RAMP_PERIOD) {
        block.copy_from_slice(ramp(first, block.len()));
    }
    Ok(Packet::from_vec(buf))
}

/// Parse a workload frame, verifying IP checksum, magic and the filler
/// pattern. Returns `None` for frames that are not workload packets (e.g.
/// RoCE), and an error for workload packets that are corrupt.
pub fn parse_data_packet(pkt: &Packet) -> Result<Option<DataPacketInfo>> {
    let buf = pkt.as_slice();
    let eth = EthernetHeader::parse(buf)?;
    if eth.ethertype != EtherType::Ipv4 {
        return Ok(None);
    }
    let ipv4 = Ipv4Header::parse(&buf[EthernetHeader::LEN..])?;
    if ipv4.protocol != proto::UDP {
        return Ok(None);
    }
    let udp_at = EthernetHeader::LEN + Ipv4Header::LEN;
    let udp = UdpHeader::parse(&buf[udp_at..])?;
    if udp.dst_port == crate::udp::ROCEV2_PORT {
        return Ok(None);
    }
    let p = udp_at + UdpHeader::LEN;
    if buf.len() < p + DATA_HEADER_LEN {
        return Ok(None);
    }
    let magic = u16::from_be_bytes(buf[p..p + 2].try_into().unwrap());
    if magic != DATA_MAGIC {
        return Ok(None);
    }
    let flow_id = u32::from_be_bytes(buf[p + 2..p + 6].try_into().unwrap());
    let seq = u32::from_be_bytes(buf[p + 6..p + 10].try_into().unwrap());
    let sent_at = Time::from_picos(u64::from_be_bytes(buf[p + 10..p + 18].try_into().unwrap()));
    let filler = &buf[p + DATA_HEADER_LEN..];
    let first = filler_byte(flow_id, seq, 0);
    let intact = filler
        .chunks(RAMP_PERIOD)
        .all(|block| block == ramp(first, block.len()));
    if !intact {
        // Only a corrupt frame pays for finding which byte it was.
        for (off, &b) in filler.iter().enumerate() {
            if b != filler_byte(flow_id, seq, off) {
                return Err(WireError::InvalidField {
                    field: "workload filler",
                    value: b as u64,
                });
            }
        }
    }
    Ok(Some(DataPacketInfo {
        eth,
        ipv4,
        udp,
        data: DataHeader {
            flow_id,
            seq,
            sent_at,
        },
    }))
}

/// The deterministic filler byte at `offset` for `(flow_id, seq)`: a byte
/// ramp, one step per offset, from a start the flow and sequence number
/// pick.
fn filler_byte(flow_id: u32, seq: u32, offset: usize) -> u8 {
    ((flow_id as u64)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((seq as u64).rotate_left(17))
        .wrapping_add(offset as u64)) as u8
}

/// The filler repeats every 256 bytes, so every block of this many starts
/// on the byte the whole filler started on.
const RAMP_PERIOD: usize = 256;

/// `0, 1, … 255` twice over: any run of the filler no longer than a period
/// is a window of it, so blocks are filled and checked by slice copy and
/// slice comparison instead of a byte at a time.
static RAMP: [u8; 2 * RAMP_PERIOD] = {
    let mut ramp = [0u8; 2 * RAMP_PERIOD];
    let mut i = 0;
    while i < ramp.len() {
        ramp[i] = i as u8;
        i += 1;
    }
    ramp
};

/// The `len <= RAMP_PERIOD` filler bytes that start with `first`.
fn ramp(first: u8, len: usize) -> &'static [u8] {
    &RAMP[first as usize..first as usize + len]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow() -> FiveTuple {
        FiveTuple::new(0x0a000001, 0x0a000002, 40000, 9000, proto::UDP)
    }

    #[test]
    fn roundtrip() {
        let pkt = build_data_packet(
            MacAddr::local(1),
            MacAddr::local(2),
            flow(),
            7,
            42,
            Time::from_nanos(100),
            256,
        )
        .unwrap();
        assert_eq!(pkt.len(), 256);
        let info = parse_data_packet(&pkt).unwrap().expect("workload packet");
        assert_eq!(info.data.flow_id, 7);
        assert_eq!(info.data.seq, 42);
        assert_eq!(info.data.sent_at, Time::from_nanos(100));
        assert_eq!(info.five_tuple(), flow());
        assert_eq!(info.ipv4.total_len, 256 - 14);
    }

    #[test]
    fn minimum_size_enforced() {
        let r = build_data_packet(
            MacAddr::local(1),
            MacAddr::local(2),
            flow(),
            0,
            0,
            Time::ZERO,
            MIN_DATA_FRAME - 1,
        );
        assert!(r.is_err());
        assert!(build_data_packet(
            MacAddr::local(1),
            MacAddr::local(2),
            flow(),
            0,
            0,
            Time::ZERO,
            MIN_DATA_FRAME
        )
        .is_ok());
    }

    #[test]
    fn filler_corruption_detected() {
        let pkt = build_data_packet(
            MacAddr::local(1),
            MacAddr::local(2),
            flow(),
            1,
            2,
            Time::ZERO,
            128,
        )
        .unwrap();
        let mut bytes = pkt.into_vec();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        let r = parse_data_packet(&Packet::from_vec(bytes));
        assert!(matches!(
            r,
            Err(WireError::InvalidField {
                field: "workload filler",
                ..
            })
        ));
    }

    #[test]
    fn non_workload_frames_return_none() {
        // A RoCEv2-ported UDP frame is not a workload packet.
        let pkt = build_data_packet(
            MacAddr::local(1),
            MacAddr::local(2),
            FiveTuple::new(1, 2, 3, crate::udp::ROCEV2_PORT, proto::UDP),
            0,
            0,
            Time::ZERO,
            MIN_DATA_FRAME,
        )
        .unwrap();
        assert_eq!(parse_data_packet(&pkt).unwrap(), None);

        // Wrong magic.
        let mut bytes = build_data_packet(
            MacAddr::local(1),
            MacAddr::local(2),
            flow(),
            0,
            0,
            Time::ZERO,
            MIN_DATA_FRAME,
        )
        .unwrap()
        .into_vec();
        bytes[42] ^= 0xff; // first magic byte
        assert_eq!(parse_data_packet(&Packet::from_vec(bytes)).unwrap(), None);
    }

    #[test]
    fn sent_at_is_recoverable_for_latency_measurement() {
        let t = Time::from_micros(123);
        let pkt =
            build_data_packet(MacAddr::local(1), MacAddr::local(2), flow(), 0, 0, t, 64).unwrap();
        let info = parse_data_packet(&pkt).unwrap().unwrap();
        assert_eq!(info.data.sent_at, t);
    }
}
