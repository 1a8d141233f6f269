//! RDMA Extended Transport Header (RETH), 16 bytes.
//!
//! Carried by WRITE first/only packets and READ requests; names the remote
//! virtual address, rkey and DMA length of the one-sided operation.

use crate::layout::header;
use extmem_types::Rkey;

header! {
    /// A decoded RETH.
    pub struct Reth as "RETH" {
        /// Remote virtual address the operation targets.
        pub va: u64,
        /// Remote access key of the registered memory region.
        pub rkey: Rkey,
        /// Total DMA length of the message in bytes.
        pub dma_len: u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let r = Reth {
            va: 0x0123_4567_89ab_cdef,
            rkey: Rkey(0xdead_beef),
            dma_len: 1500,
        };
        let mut buf = [0u8; 16];
        r.write(&mut buf).unwrap();
        assert_eq!(Reth::parse(&buf).unwrap(), r);
    }

    #[test]
    fn encoding_is_big_endian() {
        let r = Reth {
            va: 0x0102030405060708,
            rkey: Rkey(0x0a0b0c0d),
            dma_len: 0x11223344,
        };
        let mut buf = [0u8; 16];
        r.write(&mut buf).unwrap();
        assert_eq!(
            buf,
            [1, 2, 3, 4, 5, 6, 7, 8, 0x0a, 0x0b, 0x0c, 0x0d, 0x11, 0x22, 0x33, 0x44]
        );
    }

    #[test]
    fn short_buffer_rejected() {
        assert!(Reth::parse(&[0u8; 15]).is_err());
    }
}
