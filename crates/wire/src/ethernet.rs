//! Ethernet II framing.

use crate::layout::header;
use core::fmt;

/// A 48-bit IEEE 802 MAC address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);

    /// The all-zero address (used as "unset" in test fixtures).
    pub const ZERO: MacAddr = MacAddr([0; 6]);

    /// A locally-administered unicast address derived from a small integer,
    /// mirroring smoltcp's `02-00-00-00-00-xx` convention for test hosts.
    pub const fn local(n: u32) -> MacAddr {
        let b = n.to_be_bytes();
        MacAddr([0x02, 0x00, b[0], b[1], b[2], b[3]])
    }

    /// Whether the address has the group (multicast/broadcast) bit set.
    pub const fn is_multicast(self) -> bool {
        self.0[0] & 0x01 != 0
    }
}

impl fmt::Debug for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// EtherType values used in this workspace.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum EtherType {
    /// IPv4 (0x0800). All RoCEv2 and workload traffic uses this.
    Ipv4,
    /// RoCEv1 (0x8915). Only used by the E5 overhead-accounting table; the
    /// primitives themselves speak RoCEv2.
    RoceV1,
    /// Anything else, preserved verbatim.
    Other(u16),
}

impl EtherType {
    /// The 16-bit wire value.
    pub const fn value(self) -> u16 {
        match self {
            EtherType::Ipv4 => 0x0800,
            EtherType::RoceV1 => 0x8915,
            EtherType::Other(v) => v,
        }
    }

    /// Decode from the 16-bit wire value.
    pub const fn from_value(v: u16) -> EtherType {
        match v {
            0x0800 => EtherType::Ipv4,
            0x8915 => EtherType::RoceV1,
            other => EtherType::Other(other),
        }
    }
}

header! {
    /// An Ethernet II header (no 802.1Q tag support, matching the paper testbed).
    pub struct EthernetHeader as "Ethernet header" {
        /// Destination MAC.
        pub dst: MacAddr,
        /// Source MAC.
        pub src: MacAddr,
        /// EtherType of the payload.
        pub ethertype: EtherType,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WireError;

    #[test]
    fn roundtrip() {
        let h = EthernetHeader {
            dst: MacAddr::local(7),
            src: MacAddr::local(3),
            ethertype: EtherType::Ipv4,
        };
        let mut buf = [0u8; 14];
        h.write(&mut buf).unwrap();
        assert_eq!(EthernetHeader::parse(&buf).unwrap(), h);
    }

    #[test]
    fn parse_rejects_short_buffer() {
        assert!(matches!(
            EthernetHeader::parse(&[0u8; 13]),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn ethertype_mapping() {
        assert_eq!(EtherType::Ipv4.value(), 0x0800);
        assert_eq!(EtherType::RoceV1.value(), 0x8915);
        assert_eq!(EtherType::from_value(0x0806), EtherType::Other(0x0806));
        assert_eq!(EtherType::from_value(0x0800), EtherType::Ipv4);
    }

    #[test]
    fn mac_helpers() {
        assert!(MacAddr::BROADCAST.is_multicast());
        assert!(!MacAddr::local(1).is_multicast());
        assert_eq!(MacAddr::local(0x0102).to_string(), "02:00:00:00:01:02");
    }
}
