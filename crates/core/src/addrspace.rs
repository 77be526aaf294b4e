//! Per-process address spaces.
//!
//! Every simulated process owns a flat byte array standing in for its
//! MC68000 address space. All data the kernel moves — appended segments,
//! `MoveTo`/`MoveFrom` chunks, `ReplyWithSegment` payloads — is *really
//! copied* between these arrays, so integration tests can verify
//! end-to-end content integrity of the protocols, not just their timing.

use crate::error::KernelError;

/// A process address space.
#[derive(Debug, Clone)]
pub struct AddressSpace {
    bytes: Vec<u8>,
}

impl AddressSpace {
    /// Default size given to processes spawned without an explicit size.
    pub const DEFAULT_SIZE: usize = 256 * 1024;

    /// Creates a zero-filled space of `size` bytes.
    pub fn new(size: usize) -> AddressSpace {
        AddressSpace {
            bytes: vec![0; size],
        }
    }

    /// Size in bytes.
    pub fn size(&self) -> usize {
        self.bytes.len()
    }

    fn range(&self, addr: u32, len: usize) -> Result<std::ops::Range<usize>, KernelError> {
        let start = addr as usize;
        let end = start.checked_add(len).ok_or(KernelError::BadAddress)?;
        if end > self.bytes.len() {
            return Err(KernelError::BadAddress);
        }
        Ok(start..end)
    }

    /// Reads `len` bytes starting at `addr`.
    pub fn read(&self, addr: u32, len: usize) -> Result<&[u8], KernelError> {
        let r = self.range(addr, len)?;
        Ok(&self.bytes[r])
    }

    /// Copies `data` into the space starting at `addr`.
    pub fn write(&mut self, addr: u32, data: &[u8]) -> Result<(), KernelError> {
        let r = self.range(addr, data.len())?;
        self.bytes[r].copy_from_slice(data);
        Ok(())
    }

    /// Fills `[addr, addr+len)` with `value` (handy for test patterns).
    pub fn fill(&mut self, addr: u32, len: usize, value: u8) -> Result<(), KernelError> {
        let r = self.range(addr, len)?;
        self.bytes[r].fill(value);
        Ok(())
    }

    /// True if every byte of `[addr, addr+len)` equals `value`.
    pub fn is_filled(&self, addr: u32, len: usize, value: u8) -> Result<bool, KernelError> {
        // The differences of a whole chunk are folded into one byte and
        // tested once: a loop that leaves at the first wrong byte has a
        // branch per byte and does not vectorise.
        let clean = |bytes: &[u8]| bytes.iter().fold(0, |diff, &b| diff | (b ^ value)) == 0;
        let mut chunks = self.read(addr, len)?.chunks_exact(32);
        Ok(chunks.by_ref().all(clean) && clean(chunks.remainder()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_round_trip() {
        let mut a = AddressSpace::new(1024);
        a.write(100, &[1, 2, 3, 4]).unwrap();
        assert_eq!(a.read(100, 4).unwrap(), &[1, 2, 3, 4]);
        assert_eq!(a.read(99, 1).unwrap(), &[0]);
    }

    #[test]
    fn bounds_are_enforced() {
        let mut a = AddressSpace::new(16);
        assert_eq!(a.read(15, 2).unwrap_err(), KernelError::BadAddress);
        assert_eq!(a.write(16, &[1]).unwrap_err(), KernelError::BadAddress);
        assert!(a.read(15, 1).is_ok());
        assert!(a.write(0, &[0; 16]).is_ok());
    }

    #[test]
    fn overflow_addresses_rejected() {
        let a = AddressSpace::new(16);
        assert_eq!(
            a.read(u32::MAX, usize::MAX).unwrap_err(),
            KernelError::BadAddress
        );
    }

    #[test]
    fn fill_writes_pattern() {
        let mut a = AddressSpace::new(32);
        a.fill(8, 8, 0xAA).unwrap();
        assert_eq!(a.read(7, 1).unwrap(), &[0]);
        assert_eq!(a.read(8, 8).unwrap(), &[0xAA; 8]);
        assert_eq!(a.read(16, 1).unwrap(), &[0]);
        assert_eq!(a.fill(30, 4, 1).unwrap_err(), KernelError::BadAddress);
    }

    #[test]
    fn is_filled_sees_one_wrong_byte_anywhere_in_the_range_and_none_outside() {
        let (base, len) = (5u32, 32 * 3 + 7);
        let mut a = AddressSpace::new(256);
        a.fill(base, len, 0xC3).unwrap();
        assert_eq!(a.is_filled(base, len, 0xC3), Ok(true));
        assert_eq!(a.is_filled(base, 0, 0x11), Ok(true));
        assert_eq!(a.is_filled(base - 1, len + 1, 0xC3), Ok(false));
        assert_eq!(a.is_filled(base, len + 1, 0xC3), Ok(false));
        for at in 0..len {
            let addr = base + at as u32;
            a.write(addr, &[0xC2]).unwrap();
            assert_eq!(a.is_filled(base, len, 0xC3), Ok(false), "offset {at}");
            a.write(addr, &[0xC3]).unwrap();
        }
        assert_eq!(a.is_filled(250, 7, 0).unwrap_err(), KernelError::BadAddress);
    }
}
