//! Registered memory regions.
//!
//! A memory region (MR) is a contiguous span of server DRAM registered with
//! the RNIC and named by an rkey. One-sided operations address it by virtual
//! address; every access is bounds- and permission-checked by the NIC, never
//! by the host CPU.

use extmem_types::{ByteSize, IntMap, Rkey};

/// Why an access was refused. Maps onto the RoCE "remote access error" NAK.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessError {
    /// No region with that rkey.
    UnknownRkey(Rkey),
    /// The `[va, va+len)` span is not contained in the region.
    OutOfBounds {
        /// Requested start VA.
        va: u64,
        /// Requested length.
        len: u64,
    },
    /// Atomic target not 8-byte aligned.
    Misaligned {
        /// Requested VA.
        va: u64,
    },
}

impl core::fmt::Display for AccessError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AccessError::UnknownRkey(k) => write!(f, "unknown rkey {k}"),
            AccessError::OutOfBounds { va, len } => {
                write!(f, "access [{va:#x}, +{len}) outside region")
            }
            AccessError::Misaligned { va } => write!(f, "atomic target {va:#x} not 8-byte aligned"),
        }
    }
}

impl std::error::Error for AccessError {}

/// One registered region.
#[derive(Debug)]
pub struct MemoryRegion {
    rkey: Rkey,
    base_va: u64,
    bytes: Vec<u8>,
}

impl MemoryRegion {
    /// The region's rkey.
    pub fn rkey(&self) -> Rkey {
        self.rkey
    }

    /// The region's base virtual address.
    pub fn base_va(&self) -> u64 {
        self.base_va
    }

    /// The region's length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the region is zero-length (never true for registered regions).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    fn offset_of(&self, va: u64, len: u64) -> Result<usize, AccessError> {
        let end = va
            .checked_add(len)
            .ok_or(AccessError::OutOfBounds { va, len })?;
        if va < self.base_va || end > self.base_va + self.bytes.len() as u64 {
            return Err(AccessError::OutOfBounds { va, len });
        }
        Ok((va - self.base_va) as usize)
    }

    /// Read `len` bytes at `va`.
    pub fn read(&self, va: u64, len: u64) -> Result<&[u8], AccessError> {
        let off = self.offset_of(va, len)?;
        Ok(&self.bytes[off..off + len as usize])
    }

    /// Write `data` at `va`.
    pub fn write(&mut self, va: u64, data: &[u8]) -> Result<(), AccessError> {
        let off = self.offset_of(va, data.len() as u64)?;
        self.bytes[off..off + data.len()].copy_from_slice(data);
        Ok(())
    }

    /// Atomic fetch-and-add on the 64-bit word at `va` (big-endian in
    /// memory, matching what travels on the wire). Returns the value
    /// *before* the add.
    pub fn fetch_add(&mut self, va: u64, add: u64) -> Result<u64, AccessError> {
        if !va.is_multiple_of(8) {
            return Err(AccessError::Misaligned { va });
        }
        let off = self.offset_of(va, 8)?;
        let word = &mut self.bytes[off..off + 8];
        let old = u64::from_be_bytes(word.try_into().unwrap());
        word.copy_from_slice(&old.wrapping_add(add).to_be_bytes());
        Ok(old)
    }
}

/// All regions registered with one RNIC.
#[derive(Debug, Default)]
pub struct MrTable {
    regions: IntMap<Rkey, MemoryRegion>,
    next_rkey: u32,
    next_va: u64,
}

/// Regions are laid out in a flat virtual address space starting here, each
/// padded to a 4 KiB boundary so distinct regions never share a page.
const VA_BASE: u64 = 0x1000_0000;

impl MrTable {
    /// An empty table.
    pub fn new() -> MrTable {
        MrTable {
            regions: IntMap::default(),
            next_rkey: 1,
            next_va: VA_BASE,
        }
    }

    /// Register a zero-initialized region of `size` bytes; returns its rkey
    /// and base VA. This is the control-plane step the paper's channel
    /// controller performs at initialization (the only CPU involvement in
    /// the whole design).
    pub fn register(&mut self, size: ByteSize) -> (Rkey, u64) {
        assert!(size.bytes() > 0, "cannot register an empty region");
        let rkey = Rkey(self.next_rkey);
        self.next_rkey += 1;
        let base_va = self.next_va;
        let padded = size.bytes().div_ceil(4096) * 4096;
        self.next_va += padded;
        self.regions.insert(
            rkey,
            MemoryRegion {
                rkey,
                base_va,
                bytes: vec![0; size.as_usize()],
            },
        );
        (rkey, base_va)
    }

    /// Look up a region by rkey.
    pub fn get(&self, rkey: Rkey) -> Result<&MemoryRegion, AccessError> {
        self.regions
            .get(&rkey)
            .ok_or(AccessError::UnknownRkey(rkey))
    }

    /// Mutable lookup by rkey.
    pub fn get_mut(&mut self, rkey: Rkey) -> Result<&mut MemoryRegion, AccessError> {
        self.regions
            .get_mut(&rkey)
            .ok_or(AccessError::UnknownRkey(rkey))
    }

    /// Number of registered regions.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// Whether no regions are registered.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// Total registered bytes.
    pub fn total_bytes(&self) -> u64 {
        self.regions.values().map(|r| r.bytes.len() as u64).sum()
    }

    /// Zero every registered region, keeping the rkey/VA layout intact —
    /// the crash model: DRAM contents are gone, but on restart the channel
    /// controller re-registers the same layout, so the triples the switch
    /// holds stay valid.
    pub fn wipe(&mut self) {
        for region in self.regions.values_mut() {
            region.bytes.fill(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_rw_roundtrip() {
        let mut t = MrTable::new();
        let (rkey, base) = t.register(ByteSize::from_kb(4));
        t.get_mut(rkey)
            .unwrap()
            .write(base + 100, b"hello")
            .unwrap();
        assert_eq!(t.get(rkey).unwrap().read(base + 100, 5).unwrap(), b"hello");
        assert_eq!(t.len(), 1);
        assert_eq!(t.total_bytes(), 4000);
    }

    #[test]
    fn regions_do_not_overlap() {
        let mut t = MrTable::new();
        let (r1, b1) = t.register(ByteSize::from_bytes(5000));
        let (r2, b2) = t.register(ByteSize::from_bytes(100));
        assert_ne!(r1, r2);
        assert!(b2 >= b1 + 5000);
        assert_eq!(b2 % 4096, 0);
    }

    #[test]
    fn bounds_checks() {
        let mut t = MrTable::new();
        let (rkey, base) = t.register(ByteSize::from_bytes(128));
        let r = t.get_mut(rkey).unwrap();
        assert!(r.read(base, 128).is_ok());
        assert!(matches!(
            r.read(base, 129),
            Err(AccessError::OutOfBounds { .. })
        ));
        assert!(matches!(
            r.read(base - 1, 1),
            Err(AccessError::OutOfBounds { .. })
        ));
        assert!(matches!(
            r.write(base + 120, &[0; 9]),
            Err(AccessError::OutOfBounds { .. })
        ));
        // Overflowing VA must not panic.
        assert!(matches!(
            r.read(u64::MAX, 2),
            Err(AccessError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn unknown_rkey() {
        let t = MrTable::new();
        assert!(matches!(
            t.get(Rkey(99)),
            Err(AccessError::UnknownRkey(Rkey(99)))
        ));
    }

    #[test]
    fn fetch_add_semantics() {
        let mut t = MrTable::new();
        let (rkey, base) = t.register(ByteSize::from_bytes(64));
        let r = t.get_mut(rkey).unwrap();
        assert_eq!(r.fetch_add(base, 5).unwrap(), 0);
        assert_eq!(r.fetch_add(base, 7).unwrap(), 5);
        assert_eq!(
            u64::from_be_bytes(r.read(base, 8).unwrap().try_into().unwrap()),
            12
        );
        // Wrapping behaviour.
        r.write(base + 8, &u64::MAX.to_be_bytes()).unwrap();
        assert_eq!(r.fetch_add(base + 8, 2).unwrap(), u64::MAX);
        assert_eq!(
            u64::from_be_bytes(r.read(base + 8, 8).unwrap().try_into().unwrap()),
            1
        );
    }

    #[test]
    fn fetch_add_requires_alignment() {
        let mut t = MrTable::new();
        let (rkey, base) = t.register(ByteSize::from_bytes(64));
        let r = t.get_mut(rkey).unwrap();
        assert!(matches!(
            r.fetch_add(base + 4, 1),
            Err(AccessError::Misaligned { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "empty region")]
    fn empty_registration_panics() {
        MrTable::new().register(ByteSize::ZERO);
    }
}
