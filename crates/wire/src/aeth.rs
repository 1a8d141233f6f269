//! ACK Extended Transport Header (AETH), 4 bytes.
//!
//! Carried by acknowledgements and READ responses. The syndrome byte
//! distinguishes positive ACKs (with credit count) from NAKs (with a NAK
//! code); the remaining 24 bits carry the responder's message sequence
//! number (MSN).

use crate::layout::{check_max, prefix, prefix_mut};
use crate::{Result, WireError};

/// NAK codes from IB spec §9.7.5.2.8 (the subset a responder can emit here).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NakCode {
    /// PSN sequence error: the request PSN was not the expected PSN.
    PsnSequenceError,
    /// Invalid request (malformed or unsupported).
    InvalidRequest,
    /// Remote access error (rkey/bounds/permission violation).
    RemoteAccessError,
    /// Remote operational error.
    RemoteOperationalError,
}

impl NakCode {
    fn to_bits(self) -> u8 {
        match self {
            NakCode::PsnSequenceError => 0,
            NakCode::InvalidRequest => 1,
            NakCode::RemoteAccessError => 2,
            NakCode::RemoteOperationalError => 3,
        }
    }

    fn from_bits(bits: u8) -> Result<NakCode> {
        Ok(match bits {
            0 => NakCode::PsnSequenceError,
            1 => NakCode::InvalidRequest,
            2 => NakCode::RemoteAccessError,
            3 => NakCode::RemoteOperationalError,
            other => {
                return Err(WireError::InvalidField {
                    field: "NAK code",
                    value: other as u64,
                })
            }
        })
    }
}

/// The decoded meaning of the AETH syndrome byte.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Syndrome {
    /// Positive acknowledgement. The credit count is carried in the low five
    /// bits; our RNIC model always advertises "unlimited" (31).
    Ack {
        /// End-to-end flow-control credit field (0..=31).
        credits: u8,
    },
    /// RNR (receiver not ready) NAK with a timer code. Not produced by
    /// one-sided operations but parsed for completeness.
    RnrNak {
        /// RNR timer code (0..=31).
        timer: u8,
    },
    /// Negative acknowledgement.
    Nak(NakCode),
}

/// A decoded AETH.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Aeth {
    /// ACK/NAK discriminator and payload.
    pub syndrome: Syndrome,
    /// Responder message sequence number (24 bit).
    pub msn: u32,
}

impl Aeth {
    /// Encoded size in bytes.
    pub const LEN: usize = 4;

    /// A positive ACK with maximum credits, the common case.
    pub fn ack(msn: u32) -> Aeth {
        Aeth {
            syndrome: Syndrome::Ack { credits: 31 },
            msn,
        }
    }

    /// A NAK with the given code.
    pub fn nak(code: NakCode, msn: u32) -> Aeth {
        Aeth {
            syndrome: Syndrome::Nak(code),
            msn,
        }
    }

    /// Parse from the start of `buf`.
    pub fn parse(buf: &[u8]) -> Result<Aeth> {
        let b = prefix(buf, Self::LEN, "AETH")?;
        let syndrome_byte = b[0];
        let low5 = syndrome_byte & 0x1f;
        let syndrome = match syndrome_byte >> 5 {
            0b000 => Syndrome::Ack { credits: low5 },
            0b001 => Syndrome::RnrNak { timer: low5 },
            0b011 => Syndrome::Nak(NakCode::from_bits(low5)?),
            other => {
                return Err(WireError::InvalidField {
                    field: "AETH syndrome class",
                    value: other as u64,
                })
            }
        };
        Ok(Aeth {
            syndrome,
            msn: u32::from_be_bytes([0, b[1], b[2], b[3]]),
        })
    }

    /// Write into the first [`Self::LEN`] bytes of `buf`.
    pub fn write(&self, buf: &mut [u8]) -> Result<()> {
        let buf = prefix_mut(buf, Self::LEN, "AETH")?;
        check_max("MSN", self.msn, crate::bth::MAX_24BIT)?;
        let syndrome_byte = match self.syndrome {
            Syndrome::Ack { credits } => {
                check_max("ACK credits", credits, 31u8)?;
                credits
            }
            Syndrome::RnrNak { timer } => {
                check_max("RNR timer", timer, 31u8)?;
                (0b001 << 5) | timer
            }
            Syndrome::Nak(code) => (0b011 << 5) | code.to_bits(),
        };
        buf[0] = syndrome_byte;
        let msn = self.msn.to_be_bytes();
        buf[1..4].copy_from_slice(&msn[1..4]);
        Ok(())
    }

    /// Whether this AETH is a positive acknowledgement.
    pub fn is_ack(&self) -> bool {
        matches!(self.syndrome, Syndrome::Ack { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ack_roundtrip() {
        let a = Aeth::ack(0x123456);
        let mut buf = [0u8; 4];
        a.write(&mut buf).unwrap();
        assert_eq!(Aeth::parse(&buf).unwrap(), a);
        assert!(a.is_ack());
    }

    #[test]
    fn nak_roundtrip_all_codes() {
        for code in [
            NakCode::PsnSequenceError,
            NakCode::InvalidRequest,
            NakCode::RemoteAccessError,
            NakCode::RemoteOperationalError,
        ] {
            let a = Aeth::nak(code, 9);
            let mut buf = [0u8; 4];
            a.write(&mut buf).unwrap();
            let parsed = Aeth::parse(&buf).unwrap();
            assert_eq!(parsed, a);
            assert!(!parsed.is_ack());
        }
    }

    #[test]
    fn rnr_roundtrip() {
        let a = Aeth {
            syndrome: Syndrome::RnrNak { timer: 14 },
            msn: 0,
        };
        let mut buf = [0u8; 4];
        a.write(&mut buf).unwrap();
        assert_eq!(Aeth::parse(&buf).unwrap(), a);
    }

    #[test]
    fn rejects_bad_values() {
        assert!(Aeth {
            syndrome: Syndrome::Ack { credits: 32 },
            msn: 0
        }
        .write(&mut [0u8; 4])
        .is_err());
        assert!(Aeth::ack(0x0100_0000).write(&mut [0u8; 4]).is_err());
        // Syndrome class 0b010 is reserved.
        assert!(Aeth::parse(&[0b010_00000, 0, 0, 0]).is_err());
    }
}
