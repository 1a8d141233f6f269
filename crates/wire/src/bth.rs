//! InfiniBand Base Transport Header (BTH), 12 bytes.
//!
//! Layout (IB spec vol 1, §9.2):
//!
//! ```text
//! byte 0      opcode
//! byte 1      SE(1) | MigReq(1) | PadCnt(2) | TVer(4)
//! bytes 2-3   P_Key
//! byte 4      reserved (resv8a, masked in ICRC)
//! bytes 5-7   destination QP (24 bit)
//! byte 8      AckReq(1) | reserved(7)
//! bytes 9-11  PSN (24 bit)
//! ```

use crate::layout::{check_max, prefix, prefix_mut};
use crate::{Result, WireError};
use extmem_types::QpNum;

/// Maximum value encodable in a 24-bit field (QPN, PSN).
pub const MAX_24BIT: u32 = 0x00ff_ffff;

/// The subset of RC (reliable connection) opcodes this workspace speaks.
///
/// These are exactly the operations the paper needs: one-sided RDMA WRITE and
/// READ, atomic Fetch-and-Add, and the acknowledgement opcodes used by the §7
/// reliability extension. Every message is one packet of at most the RoCE
/// MTU (2,048 B, the paper's CX-3): the largest thing a primitive moves is a
/// ring entry, and it fits. So there are only the `Only` variants, and a
/// first/middle/last opcode fails to parse like any other unknown byte.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum Opcode {
    /// RDMA WRITE, one packet.
    WriteOnly = 0x0a,
    /// RDMA READ request.
    ReadRequest = 0x0c,
    /// RDMA READ response, one packet.
    ReadRespOnly = 0x10,
    /// Acknowledgement (also used for NAK via the AETH syndrome).
    Acknowledge = 0x11,
    /// Atomic acknowledgement (carries the original remote value).
    AtomicAcknowledge = 0x12,
    /// Atomic Fetch-and-Add request.
    FetchAdd = 0x14,
    /// Remote-op: hash-probe-and-fetch request (manufacturer opcode space),
    /// answered by a [`Opcode::ReadRespOnly`].
    HashProbe = 0xc1,
    /// Remote-op: bounded gather/walk READ request, answered by a
    /// [`Opcode::ReadRespOnly`].
    GatherWalk = 0xc3,
    /// (Re)connect request, answered by a plain [`Opcode::Acknowledge`]: the
    /// in-band stand-in for the connection manager's exchange (manufacturer
    /// opcode space, no extended header).
    Connect = 0xc5,
}

impl Opcode {
    /// Decode a BTH opcode byte.
    pub fn from_u8(v: u8) -> Result<Opcode> {
        Ok(match v {
            0x0a => Opcode::WriteOnly,
            0x0c => Opcode::ReadRequest,
            0x10 => Opcode::ReadRespOnly,
            0x11 => Opcode::Acknowledge,
            0x12 => Opcode::AtomicAcknowledge,
            0x14 => Opcode::FetchAdd,
            0xc1 => Opcode::HashProbe,
            0xc3 => Opcode::GatherWalk,
            0xc5 => Opcode::Connect,
            other => return Err(WireError::UnsupportedOpcode(other)),
        })
    }

    /// Whether packets with this opcode are requests that consume a PSN on
    /// the responder's expected-PSN sequence.
    pub fn is_request(self) -> bool {
        matches!(
            self,
            Opcode::WriteOnly
                | Opcode::ReadRequest
                | Opcode::FetchAdd
                | Opcode::HashProbe
                | Opcode::GatherWalk
                | Opcode::Connect
        )
    }
}

/// A decoded Base Transport Header.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Bth {
    /// Operation code.
    pub opcode: Opcode,
    /// Solicited-event flag.
    pub solicited: bool,
    /// Migration request flag (always false here).
    pub mig_req: bool,
    /// Number of pad bytes appended to the payload (0..=3).
    pub pad_count: u8,
    /// Transport header version (0).
    pub tver: u8,
    /// Partition key; we use the default partition 0xffff.
    pub pkey: u16,
    /// Destination queue pair number (24 bit).
    pub dest_qp: QpNum,
    /// Acknowledge-request flag.
    pub ack_req: bool,
    /// Packet sequence number (24 bit).
    pub psn: u32,
}

impl Bth {
    /// Encoded size in bytes.
    pub const LEN: usize = 12;

    /// A BTH with the defaults this workspace uses everywhere.
    pub fn new(opcode: Opcode, dest_qp: QpNum, psn: u32) -> Bth {
        Bth {
            opcode,
            solicited: false,
            mig_req: false,
            pad_count: 0,
            tver: 0,
            pkey: 0xffff,
            dest_qp,
            ack_req: false,
            psn,
        }
    }

    /// Parse from the start of `buf`.
    pub fn parse(buf: &[u8]) -> Result<Bth> {
        let b = prefix(buf, Self::LEN, "BTH")?;
        let opcode = Opcode::from_u8(b[0])?;
        Ok(Bth {
            opcode,
            solicited: b[1] & 0x80 != 0,
            mig_req: b[1] & 0x40 != 0,
            pad_count: (b[1] >> 4) & 0x03,
            tver: b[1] & 0x0f,
            pkey: u16::from_be_bytes([b[2], b[3]]),
            dest_qp: QpNum(u32::from_be_bytes([0, b[5], b[6], b[7]])),
            ack_req: b[8] & 0x80 != 0,
            psn: u32::from_be_bytes([0, b[9], b[10], b[11]]),
        })
    }

    /// Write into the first [`Self::LEN`] bytes of `buf`.
    pub fn write(&self, buf: &mut [u8]) -> Result<()> {
        let buf = prefix_mut(buf, Self::LEN, "BTH")?;
        check_max("destination QP", self.dest_qp.raw(), MAX_24BIT)?;
        check_max("PSN", self.psn, MAX_24BIT)?;
        check_max("pad count", self.pad_count, 3u8)?;
        buf[0] = self.opcode as u8;
        buf[1] = ((self.solicited as u8) << 7)
            | ((self.mig_req as u8) << 6)
            | (self.pad_count << 4)
            | (self.tver & 0x0f);
        buf[2..4].copy_from_slice(&self.pkey.to_be_bytes());
        buf[4] = 0;
        let qp = self.dest_qp.raw().to_be_bytes();
        buf[5..8].copy_from_slice(&qp[1..4]);
        buf[8] = (self.ack_req as u8) << 7;
        let psn = self.psn.to_be_bytes();
        buf[9..12].copy_from_slice(&psn[1..4]);
        Ok(())
    }
}

/// Advance a 24-bit PSN by `n`, wrapping modulo 2^24.
pub fn psn_add(psn: u32, n: u32) -> u32 {
    (psn.wrapping_add(n)) & MAX_24BIT
}

/// Serial-number comparison of two 24-bit PSNs: is `a` strictly before `b`
/// in the circular sequence space?
pub fn psn_before(a: u32, b: u32) -> bool {
    a != b && ((b.wrapping_sub(a)) & MAX_24BIT) < (1 << 23)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_opcodes() {
        for op in [
            Opcode::WriteOnly,
            Opcode::ReadRequest,
            Opcode::ReadRespOnly,
            Opcode::Acknowledge,
            Opcode::AtomicAcknowledge,
            Opcode::FetchAdd,
            Opcode::HashProbe,
            Opcode::GatherWalk,
        ] {
            let mut bth = Bth::new(op, QpNum(0x123456), 0xabcdef);
            bth.pad_count = 2;
            bth.ack_req = true;
            let mut buf = [0u8; 12];
            bth.write(&mut buf).unwrap();
            assert_eq!(Bth::parse(&buf).unwrap(), bth, "{op:?}");
            assert_eq!(Opcode::from_u8(op as u8).unwrap(), op);
        }
    }

    #[test]
    fn rejects_out_of_range_values() {
        let mut buf = [0u8; 12];
        let bth = Bth::new(Opcode::WriteOnly, QpNum(0x0100_0000), 0);
        assert!(bth.write(&mut buf).is_err());
        let bth = Bth {
            psn: 0x0100_0000,
            ..Bth::new(Opcode::WriteOnly, QpNum(1), 0)
        };
        assert!(bth.write(&mut buf).is_err());
        let bth = Bth {
            pad_count: 4,
            ..Bth::new(Opcode::WriteOnly, QpNum(1), 0)
        };
        assert!(bth.write(&mut buf).is_err());
    }

    #[test]
    fn rejects_unknown_opcode() {
        assert!(matches!(
            Opcode::from_u8(0x42),
            Err(WireError::UnsupportedOpcode(0x42))
        ));
        // The multi-packet WRITE and READ-response opcodes are not spoken,
        // nor are the retired conditional WRITE and remote-op response.
        for op in [0x06, 0x07, 0x08, 0x0d, 0x0e, 0x0f, 0xc2, 0xc4] {
            assert!(matches!(
                Opcode::from_u8(op),
                Err(WireError::UnsupportedOpcode(o)) if o == op
            ));
        }
    }

    #[test]
    fn opcode_classification() {
        assert!(Opcode::WriteOnly.is_request());
        assert!(Opcode::FetchAdd.is_request());
        assert!(!Opcode::Acknowledge.is_request());
        assert!(Opcode::GatherWalk.is_request());
        assert!(!Opcode::ReadRespOnly.is_request());
    }

    #[test]
    fn psn_arithmetic_wraps() {
        assert_eq!(psn_add(MAX_24BIT, 1), 0);
        assert_eq!(psn_add(5, 3), 8);
        assert!(psn_before(MAX_24BIT, 0));
        assert!(psn_before(0, 1));
        assert!(!psn_before(1, 0));
        assert!(!psn_before(7, 7));
    }

    #[test]
    fn reserved_byte_is_zero_on_wire() {
        let mut buf = [0xffu8; 12];
        Bth::new(Opcode::WriteOnly, QpNum(1), 1)
            .write(&mut buf)
            .unwrap();
        assert_eq!(buf[4], 0);
    }
}
