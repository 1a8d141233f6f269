//! Wire-format error type.

use core::fmt;

/// Errors produced when parsing or building packets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the indicated header or payload was complete.
    Truncated {
        /// What was being parsed when the buffer ran out.
        what: &'static str,
        /// Bytes needed to continue.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// A header field held a value the parser does not understand.
    InvalidField {
        /// Which field was invalid.
        field: &'static str,
        /// The offending value, widened to u64.
        value: u64,
    },
    /// An IPv4 header checksum did not verify.
    BadIpChecksum {
        /// The checksum found in the header.
        found: u16,
        /// The checksum computed over the header.
        expected: u16,
    },
    /// The RoCE ICRC trailer did not verify.
    BadIcrc {
        /// The ICRC found in the packet trailer.
        found: u32,
        /// The ICRC computed over the packet.
        expected: u32,
    },
    /// A value does not fit in its wire encoding (e.g. a QPN above 2^24).
    ValueOutOfRange {
        /// Which field overflowed.
        field: &'static str,
        /// The offending value.
        value: u64,
        /// The maximum encodable value.
        max: u64,
    },
    /// The BTH opcode is not one this implementation supports.
    UnsupportedOpcode(u8),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated {
                what,
                needed,
                available,
            } => {
                write!(f, "truncated {what}: need {needed} bytes, have {available}")
            }
            WireError::InvalidField { field, value } => {
                write!(f, "invalid {field}: {value:#x}")
            }
            WireError::BadIpChecksum { found, expected } => {
                write!(
                    f,
                    "bad IPv4 checksum: found {found:#06x}, expected {expected:#06x}"
                )
            }
            WireError::BadIcrc { found, expected } => {
                write!(
                    f,
                    "bad ICRC: found {found:#010x}, expected {expected:#010x}"
                )
            }
            WireError::ValueOutOfRange { field, value, max } => {
                write!(f, "{field} value {value} exceeds wire maximum {max}")
            }
            WireError::UnsupportedOpcode(op) => write!(f, "unsupported BTH opcode {op:#04x}"),
        }
    }
}

impl std::error::Error for WireError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = WireError::Truncated {
            what: "BTH",
            needed: 12,
            available: 4,
        };
        assert_eq!(e.to_string(), "truncated BTH: need 12 bytes, have 4");
        let e = WireError::BadIpChecksum {
            found: 1,
            expected: 2,
        };
        assert!(e.to_string().contains("checksum"));
    }
}
