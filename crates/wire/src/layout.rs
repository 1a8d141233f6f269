//! Fixed-width header layouts: a header is a list of fields in wire order,
//! and its codec is generated from that list.
//!
//! `header!` takes the list once and emits the struct, its `LEN` (the sum
//! of the field widths), and a `parse` and a `write` that each check the
//! buffer length once, then decode or encode every field at its offset. The
//! two directions come from the same list, so they cannot disagree about
//! where a field sits. Headers with bit fields (BTH, AETH, IPv4) keep
//! hand-written code but take their bytes through the same [`prefix`] /
//! [`prefix_mut`] check.

use crate::ethernet::{EtherType, MacAddr};
use crate::{Result, WireError};
use extmem_types::Rkey;

/// A value with a fixed-width big-endian wire encoding. `decode` and
/// `encode` are handed exactly [`Field::WIDTH`] bytes.
pub(crate) trait Field: Sized {
    /// Bytes the value occupies on the wire.
    const WIDTH: usize;
    /// Decode from exactly `WIDTH` bytes.
    fn decode(b: &[u8]) -> Self;
    /// Encode into exactly `WIDTH` bytes.
    fn encode(&self, b: &mut [u8]);
}

macro_rules! be_int_field {
    ($($t:ty),*) => {$(
        impl Field for $t {
            const WIDTH: usize = core::mem::size_of::<$t>();
            #[inline(always)]
            fn decode(b: &[u8]) -> $t {
                let mut a = [0u8; core::mem::size_of::<$t>()];
                a.copy_from_slice(b);
                <$t>::from_be_bytes(a)
            }
            #[inline(always)]
            fn encode(&self, b: &mut [u8]) {
                b.copy_from_slice(&self.to_be_bytes());
            }
        }
    )*};
}
be_int_field!(u8, u16, u32, u64);

impl Field for Rkey {
    const WIDTH: usize = 4;
    #[inline(always)]
    fn decode(b: &[u8]) -> Rkey {
        Rkey(u32::decode(b))
    }
    #[inline(always)]
    fn encode(&self, b: &mut [u8]) {
        self.raw().encode(b);
    }
}

impl Field for MacAddr {
    const WIDTH: usize = 6;
    #[inline(always)]
    fn decode(b: &[u8]) -> MacAddr {
        let mut a = [0u8; 6];
        a.copy_from_slice(b);
        MacAddr(a)
    }
    #[inline(always)]
    fn encode(&self, b: &mut [u8]) {
        b.copy_from_slice(&self.0);
    }
}

impl Field for EtherType {
    const WIDTH: usize = 2;
    #[inline(always)]
    fn decode(b: &[u8]) -> EtherType {
        EtherType::from_value(u16::decode(b))
    }
    #[inline(always)]
    fn encode(&self, b: &mut [u8]) {
        self.value().encode(b);
    }
}

/// The first `len` bytes of `buf`, or [`WireError::Truncated`] naming
/// `what`: the one length check every header parser makes.
#[inline(always)]
pub(crate) fn prefix<'a>(buf: &'a [u8], len: usize, what: &'static str) -> Result<&'a [u8]> {
    buf.get(..len).ok_or(WireError::Truncated {
        what,
        needed: len,
        available: buf.len(),
    })
}

/// [`prefix`] for writers.
#[inline(always)]
pub(crate) fn prefix_mut<'a>(
    buf: &'a mut [u8],
    len: usize,
    what: &'static str,
) -> Result<&'a mut [u8]> {
    let available = buf.len();
    buf.get_mut(..len).ok_or(WireError::Truncated {
        what,
        needed: len,
        available,
    })
}

/// `buf` from `at` on; empty when `at` lies past its end, so the header
/// parsed from it reports the truncation.
#[inline(always)]
pub(crate) fn tail(buf: &[u8], at: usize) -> &[u8] {
    buf.get(at..).unwrap_or(&[])
}

/// [`WireError::ValueOutOfRange`] naming `field` if `value` exceeds `max`:
/// the check a writer makes before packing a field narrower than its type.
pub(crate) fn check_max(
    field: &'static str,
    value: impl Into<u64>,
    max: impl Into<u64>,
) -> Result<()> {
    let (value, max) = (value.into(), max.into());
    if value > max {
        return Err(WireError::ValueOutOfRange { field, value, max });
    }
    Ok(())
}

/// Declare a fixed-width header from its fields in wire order:
///
/// ```text
/// header! {
///     /// Doc for the struct.
///     pub struct Reth as "RETH" {
///         /// Doc for the field.
///         pub va: u64,
///         pub rkey: Rkey,
///         pub dma_len: u32,
///     }
/// }
/// ```
///
/// The string names the header in [`WireError::Truncated`]. Every field
/// type implements [`Field`].
macro_rules! header {
    (
        $(#[$attr:meta])*
        $vis:vis struct $name:ident as $what:literal {
            $( $(#[$fattr:meta])* $fvis:vis $field:ident: $ty:ty, )*
        }
    ) => {
        $(#[$attr])*
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        $vis struct $name {
            $( $(#[$fattr])* $fvis $field: $ty, )*
        }

        impl $name {
            /// Encoded size in bytes.
            $vis const LEN: usize = 0 $(+ <$ty as $crate::layout::Field>::WIDTH)*;

            /// Parse from the start of `buf`.
            #[allow(unused_assignments)]
            $vis fn parse(buf: &[u8]) -> $crate::Result<$name> {
                let b = $crate::layout::prefix(buf, Self::LEN, $what)?;
                let mut at = 0;
                Ok($name {
                    $($field: {
                        let end = at + <$ty as $crate::layout::Field>::WIDTH;
                        let v = <$ty as $crate::layout::Field>::decode(&b[at..end]);
                        at = end;
                        v
                    },)*
                })
            }

            /// Write into the first [`Self::LEN`] bytes of `buf`.
            #[allow(unused_assignments)]
            $vis fn write(&self, buf: &mut [u8]) -> $crate::Result<()> {
                let b = $crate::layout::prefix_mut(buf, Self::LEN, $what)?;
                let mut at = 0;
                $(
                    let end = at + <$ty as $crate::layout::Field>::WIDTH;
                    $crate::layout::Field::encode(&self.$field, &mut b[at..end]);
                    at = end;
                )*
                Ok(())
            }
        }
    };
}
pub(crate) use header;

#[cfg(test)]
mod tests {
    use super::*;

    header! {
        /// Every field kind, at odd offsets.
        struct Sample as "sample" {
            a: u8,
            b: u16,
            mac: MacAddr,
            c: u32,
            ty: EtherType,
            rkey: Rkey,
            d: u64,
        }
    }

    #[test]
    fn fields_land_big_endian_at_their_offsets() {
        let s = Sample {
            a: 0x01,
            b: 0x0203,
            mac: MacAddr([4, 5, 6, 7, 8, 9]),
            c: 0x0a0b_0c0d,
            ty: EtherType::Ipv4,
            rkey: Rkey(0x1011_1213),
            d: 0x1415_1617_1819_1a1b,
        };
        assert_eq!(Sample::LEN, 1 + 2 + 6 + 4 + 2 + 4 + 8);
        let mut buf = [0xffu8; 28];
        s.write(&mut buf).unwrap();
        assert_eq!(
            buf[..27],
            [
                1, 2, 3, 4, 5, 6, 7, 8, 9, 0x0a, 0x0b, 0x0c, 0x0d, 0x08, 0x00, 0x10, 0x11, 0x12,
                0x13, 0x14, 0x15, 0x16, 0x17, 0x18, 0x19, 0x1a, 0x1b
            ]
        );
        assert_eq!(buf[27], 0xff, "write stops at LEN");
        assert_eq!(Sample::parse(&buf).unwrap(), s);
    }

    #[test]
    fn short_buffers_are_truncated_not_panics() {
        let err = WireError::Truncated {
            what: "sample",
            needed: Sample::LEN,
            available: 26,
        };
        assert_eq!(Sample::parse(&[0u8; 26]), Err(err.clone()));
        let s = Sample::parse(&[0u8; 27]).unwrap();
        assert_eq!(s.write(&mut [0u8; 26]), Err(err));
    }

    #[test]
    fn accessors_reject_short_buffers() {
        let buf = [0u8; 4];
        assert_eq!(prefix(&buf, 4, "x"), Ok(&buf[..]));
        assert!(prefix(&buf, 5, "x").is_err());
        assert!(prefix_mut(&mut [0u8; 4], 5, "x").is_err());
        assert_eq!(tail(&buf, 3), &[0]);
        assert!(tail(&buf, 4).is_empty());
        assert!(tail(&buf, usize::MAX).is_empty());
    }
}
