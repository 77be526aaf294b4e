//! Per-process address spaces.
//!
//! Every simulated process owns a byte-addressed space standing in for
//! its MC68000 address space. All data the kernel moves — appended
//! segments, `MoveTo`/`MoveFrom` chunks, `ReplyWithSegment` payloads — is
//! *really copied* between these spaces, so integration tests can verify
//! end-to-end content integrity of the protocols, not just their timing.
//!
//! A space is a table of pages, each allocated and zeroed by the first
//! write that lands on it; a page nothing has written is absent and
//! reads as zeros. A process therefore costs what it touches: a boot
//! storm's thousand 256 KB spaces are a thousand 512-byte tables and the
//! few pages each workstation loads into.

use std::fmt;
use std::ops::Range;

use crate::error::KernelError;

/// Bytes per page: small enough that a process touching three places
/// keeps three pages resident (64 KB pages put the N = 1000 boot storm's
/// resident peak at 78 MB against 17.7), large enough that a default
/// space's table is 64 entries.
const PAGE_SIZE: usize = 4096;

/// One resident page. Cache-line aligned: malloc aligns a plain 4 KB
/// array to 16 bytes, so every 64-byte block a page copy moves would
/// straddle two lines (1.6 % of the copy-heavy `cache_share` workload).
#[derive(Clone)]
#[repr(align(64))]
struct Page([u8; PAGE_SIZE]);

/// A process address space.
#[derive(Clone)]
pub struct AddressSpace {
    size: usize,
    /// One slot per page of `size` (the last possibly partial); `None`
    /// until first written, and all zeros until then.
    pages: Vec<Option<Box<Page>>>,
}

/// The spans `[lo, hi)` of each page that the byte range `r` covers, in
/// address order, as `(page index, span within the page)`.
fn page_spans(r: Range<usize>) -> impl Iterator<Item = (usize, Range<usize>)> {
    let mut at = r.start;
    std::iter::from_fn(move || {
        (at < r.end).then(|| {
            let page = at / PAGE_SIZE;
            let base = page * PAGE_SIZE;
            let hi = (r.end - base).min(PAGE_SIZE);
            let span = at - base..hi;
            at = base + hi;
            (page, span)
        })
    })
}

/// True if every byte of `bytes` equals `value`.
fn all_equal(bytes: &[u8], value: u8) -> bool {
    // The differences of a whole chunk are folded into one byte and
    // tested once: a loop that leaves at the first wrong byte has a
    // branch per byte and does not vectorise.
    let clean = |bytes: &[u8]| bytes.iter().fold(0, |diff, &b| diff | (b ^ value)) == 0;
    let mut chunks = bytes.chunks_exact(32);
    chunks.by_ref().all(clean) && clean(chunks.remainder())
}

impl AddressSpace {
    /// Default size given to processes spawned without an explicit size.
    pub const DEFAULT_SIZE: usize = 256 * 1024;

    /// Creates a zero-filled space of `size` bytes. No page is resident
    /// yet.
    pub fn new(size: usize) -> AddressSpace {
        AddressSpace {
            size,
            pages: vec![None; size.div_ceil(PAGE_SIZE)],
        }
    }

    /// Size in bytes.
    pub fn size(&self) -> usize {
        self.size
    }

    fn range(&self, addr: u32, len: usize) -> Result<Range<usize>, KernelError> {
        let start = addr as usize;
        let end = start.checked_add(len).ok_or(KernelError::BadAddress)?;
        if end > self.size {
            return Err(KernelError::BadAddress);
        }
        Ok(start..end)
    }

    /// The resident page `idx`, allocated and zeroed if this is its
    /// first write.
    fn page_mut(&mut self, idx: usize) -> &mut [u8; PAGE_SIZE] {
        &mut self.pages[idx]
            .get_or_insert_with(|| Box::new(Page([0; PAGE_SIZE])))
            .0
    }

    fn resident_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }

    /// Checks that `[addr, addr+len)` lies inside the space, touching
    /// no byte of it.
    pub fn check(&self, addr: u32, len: usize) -> Result<(), KernelError> {
        self.range(addr, len).map(|_| ())
    }

    /// The bytes of `[addr, addr+len)` where they lie: one slice per page
    /// the range covers, in address order, a page nothing has written
    /// lending zeros. `read`, `read_into` and `copy_from` are written
    /// over it; a caller whose bytes go somewhere else copies from it.
    pub fn spans(
        &self,
        addr: u32,
        len: usize,
    ) -> Result<impl Iterator<Item = &[u8]> + '_, KernelError> {
        static ZEROS: Page = Page([0; PAGE_SIZE]);
        let r = self.range(addr, len)?;
        Ok(
            page_spans(r).map(move |(idx, span)| match &self.pages[idx] {
                Some(page) => &page.0[span],
                None => &ZEROS.0[span],
            }),
        )
    }

    /// Reads `len` bytes starting at `addr`.
    pub fn read(&self, addr: u32, len: usize) -> Result<Vec<u8>, KernelError> {
        let spans = self.spans(addr, len)?;
        let mut out = Vec::with_capacity(len);
        for span in spans {
            out.extend_from_slice(span);
        }
        Ok(out)
    }

    /// Reads `out.len()` bytes starting at `addr` into `out`.
    pub fn read_into(&self, addr: u32, out: &mut [u8]) -> Result<(), KernelError> {
        let mut rest = out;
        for span in self.spans(addr, rest.len())? {
            let (chunk, after) = rest.split_at_mut(span.len());
            chunk.copy_from_slice(span);
            rest = after;
        }
        Ok(())
    }

    /// Copies `len` bytes at `src_addr` in `src` to `addr` here, space to
    /// space. Either range failing its check leaves this space untouched.
    pub fn copy_from(
        &mut self,
        addr: u32,
        src: &AddressSpace,
        src_addr: u32,
        len: usize,
    ) -> Result<(), KernelError> {
        let spans = src.spans(src_addr, len)?;
        let mut at = self.range(addr, len)?.start;
        for span in spans {
            self.write(at as u32, span)?;
            at += span.len();
        }
        Ok(())
    }

    /// Copies `data` into the space starting at `addr`.
    pub fn write(&mut self, addr: u32, data: &[u8]) -> Result<(), KernelError> {
        let r = self.range(addr, data.len())?;
        let mut rest = data;
        for (idx, span) in page_spans(r) {
            let (chunk, after) = rest.split_at(span.len());
            self.page_mut(idx)[span].copy_from_slice(chunk);
            rest = after;
        }
        Ok(())
    }

    /// Fills `[addr, addr+len)` with `value` (handy for test patterns).
    pub fn fill(&mut self, addr: u32, len: usize, value: u8) -> Result<(), KernelError> {
        let r = self.range(addr, len)?;
        for (idx, span) in page_spans(r) {
            // Zeros onto a page nothing has written change nothing.
            if value != 0 || self.pages[idx].is_some() {
                self.page_mut(idx)[span].fill(value);
            }
        }
        Ok(())
    }

    /// True if every byte of `[addr, addr+len)` equals `value`.
    pub fn is_filled(&self, addr: u32, len: usize, value: u8) -> Result<bool, KernelError> {
        let r = self.range(addr, len)?;
        Ok(page_spans(r).all(|(idx, span)| match &self.pages[idx] {
            Some(page) => all_equal(&page.0[span], value),
            None => value == 0,
        }))
    }
}

impl fmt::Debug for AddressSpace {
    /// The shape, not the bytes.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AddressSpace")
            .field("size", &self.size)
            .field("resident_pages", &self.resident_pages())
            .finish()
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
    fn a_page_is_resident_from_its_first_write_and_not_before() {
        let mut a = AddressSpace::new(AddressSpace::DEFAULT_SIZE);
        assert_eq!(a.pages.len(), AddressSpace::DEFAULT_SIZE / PAGE_SIZE);
        // Reading, checking, and zeros onto zeros touch nothing.
        assert_eq!(a.read(0, a.size()).unwrap(), vec![0; a.size()]);
        assert_eq!(a.check(0, a.size()), Ok(()));
        assert_eq!(a.is_filled(0, a.size(), 0), Ok(true));
        assert_eq!(a.is_filled(PAGE_SIZE as u32, 1, 9), Ok(false));
        a.fill(0, a.size(), 0).unwrap();
        assert_eq!(a.resident_pages(), 0);
        // A write straddling a boundary brings in the two pages it
        // lands on and no other.
        a.write(PAGE_SIZE as u32 - 1, &[1, 2]).unwrap();
        assert_eq!(a.resident_pages(), 2);
        assert!(a.pages[0].is_some() && a.pages[1].is_some());
        assert_eq!(a.read(PAGE_SIZE as u32 - 2, 4).unwrap(), &[0, 1, 2, 0]);
        a.fill(5 * PAGE_SIZE as u32, 1, 0xEE).unwrap();
        assert_eq!(a.resident_pages(), 3);
        // A rejected range brings in nothing.
        let end = a.size() as u32;
        assert_eq!(a.write(end - 1, &[1, 2]), Err(KernelError::BadAddress));
        assert_eq!(a.fill(end - 1, 2, 1), Err(KernelError::BadAddress));
        assert_eq!(a.resident_pages(), 3);
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
