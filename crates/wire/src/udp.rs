//! UDP header (RFC 768).

use crate::layout::header;

/// The IANA-assigned UDP destination port for RoCEv2.
pub const ROCEV2_PORT: u16 = 4791;

header! {
    /// A UDP header. RoCEv2 runs over UDP destination port [`ROCEV2_PORT`]; the
    /// checksum is commonly transmitted as zero for RoCEv2 (the ICRC covers the
    /// payload), which is what our builder does.
    pub struct UdpHeader as "UDP header" {
        /// Source port. RNICs use this for ECMP entropy; our builders set a
        /// per-queue-pair value.
        pub src_port: u16,
        /// Destination port.
        pub dst_port: u16,
        /// Length of header plus payload.
        pub length: u16,
        /// Checksum (0 = not computed, standard for RoCEv2).
        pub checksum: u16,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let h = UdpHeader {
            src_port: 49152,
            dst_port: ROCEV2_PORT,
            length: 32,
            checksum: 0,
        };
        let mut buf = [0u8; 8];
        h.write(&mut buf).unwrap();
        assert_eq!(UdpHeader::parse(&buf).unwrap(), h);
    }

    #[test]
    fn short_buffers_rejected() {
        assert!(UdpHeader::parse(&[0u8; 7]).is_err());
        let h = UdpHeader {
            src_port: 1,
            dst_port: 2,
            length: 8,
            checksum: 0,
        };
        assert!(h.write(&mut [0u8; 7]).is_err());
    }

    #[test]
    fn rocev2_port_constant() {
        assert_eq!(ROCEV2_PORT, 4791);
    }
}
