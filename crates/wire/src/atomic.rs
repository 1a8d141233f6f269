//! Atomic extended transport headers: AtomicETH (28 bytes) and
//! AtomicAckETH (8 bytes).
//!
//! Fetch-and-Add is the atomic the paper's state-store primitive uses; the
//! header carries the target address, rkey and the 64-bit addend. The
//! response carries the *original* remote value in an AtomicAckETH, which is
//! how the switch learns the pre-update counter value.

use crate::layout::header;
use extmem_types::Rkey;

header! {
    /// A decoded AtomicETH.
    pub struct AtomicEth as "AtomicETH" {
        /// Remote virtual address of the 8-byte target word. Real RNICs require
        /// 8-byte alignment; our RNIC model enforces the same.
        pub va: u64,
        /// Remote access key.
        pub rkey: Rkey,
        /// For Fetch-and-Add: the value to add. For Compare-and-Swap: the swap
        /// value (CAS is not used by the paper and not implemented elsewhere).
        pub swap_add: u64,
        /// For Compare-and-Swap: the compare value. Zero for Fetch-and-Add.
        pub compare: u64,
    }
}

header! {
    /// A decoded AtomicAckETH, carried in atomic acknowledgements.
    pub struct AtomicAckEth as "AtomicAckETH" {
        /// The remote word's value *before* the atomic was applied.
        pub original_value: u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_eth_roundtrip() {
        let a = AtomicEth {
            va: 0x1000,
            rkey: Rkey(7),
            swap_add: 42,
            compare: 0,
        };
        let mut buf = [0u8; 28];
        a.write(&mut buf).unwrap();
        assert_eq!(AtomicEth::parse(&buf).unwrap(), a);
    }

    #[test]
    fn atomic_ack_roundtrip() {
        let a = AtomicAckEth {
            original_value: u64::MAX - 3,
        };
        let mut buf = [0u8; 8];
        a.write(&mut buf).unwrap();
        assert_eq!(AtomicAckEth::parse(&buf).unwrap(), a);
    }

    #[test]
    fn sizes_match_spec() {
        // §4 Overhead: "an RDMA operation-specific header of 16 (WRITE/READ)
        // or 28 bytes (Fetch-and-Add)".
        assert_eq!(AtomicEth::LEN, 28);
        assert_eq!(crate::reth::Reth::LEN, 16);
    }

    #[test]
    fn short_buffers_rejected() {
        assert!(AtomicEth::parse(&[0u8; 27]).is_err());
        assert!(AtomicAckEth::parse(&[0u8; 7]).is_err());
    }
}
