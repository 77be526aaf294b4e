//! Per-process address spaces.
//!
//! Every simulated process owns a byte-addressed space standing in for
//! its MC68000 address space. All data the kernel moves — appended
//! segments, `MoveTo`/`MoveFrom` chunks, `ReplyWithSegment` payloads — is
//! *really copied* between these spaces, so integration tests can verify
//! end-to-end content integrity of the protocols, not just their timing.
//!
//! A space holds only what it wrote: its size and a sorted list of
//! resident runs, each one allocation of consecutive 512-byte pages. A
//! write makes the absent pages of its range resident, each gap one new
//! run; a page nothing has written is absent and reads as zeros. A
//! process therefore costs what it touches, and a new one nothing: a boot
//! storm's thousand 256 KB spaces are the page each workstation's name
//! and header share and the run its image is moved into.

use std::fmt;
use std::ops::Range;

use crate::error::KernelError;

/// Bytes per page: the file system's block and the kernel's transfer
/// chunk, so a header read or a `MoveTo` chunk brings in no byte it does
/// not write (4 KB pages kept a 4 KB page resident for a loader's
/// 17-byte name, a third of the boot storm's resident peak).
const PAGE_SIZE: usize = 512;

/// The most zeros one span of [`AddressSpace::spans`] lends for a gap.
const ZERO_SPAN: usize = 4096;

/// One resident page. Cache-line aligned: malloc aligns a plain byte
/// array to 16 bytes, so every 64-byte block a page copy moves would
/// straddle two lines (1.6 % of the copy-heavy `cache_share` workload).
/// `repr(C)` puts the bytes at offset 0 and 512 is a multiple of 64, so
/// a run's pages are one unpadded byte slice.
#[derive(Clone)]
#[repr(C, align(64))]
struct Page([u8; PAGE_SIZE]);

const _: () = assert!(std::mem::size_of::<Page>() == PAGE_SIZE);

/// Consecutive resident pages, allocated together.
#[derive(Clone)]
struct Run {
    /// Index of the first page.
    first: usize,
    pages: Box<[Page]>,
}

impl Run {
    fn zeroed(first: usize, pages: usize) -> Run {
        let pages = vec![Page([0; PAGE_SIZE]); pages].into_boxed_slice();
        Run { first, pages }
    }

    /// One past the last page.
    fn end(&self) -> usize {
        self.first + self.pages.len()
    }

    /// The bytes `[start, end)` of the space the run holds.
    fn bytes_range(&self) -> Range<usize> {
        self.first * PAGE_SIZE..self.end() * PAGE_SIZE
    }

    fn bytes(&self) -> &[u8] {
        let len = self.pages.len() * PAGE_SIZE;
        // SAFETY: `Page` is `repr(C)` around `[u8; PAGE_SIZE]` and exactly
        // `PAGE_SIZE` bytes (asserted above), so the pages are `len`
        // initialised bytes with no padding, borrowed as long as `self`.
        unsafe { std::slice::from_raw_parts(self.pages.as_ptr().cast(), len) }
    }

    fn bytes_mut(&mut self) -> &mut [u8] {
        let len = self.pages.len() * PAGE_SIZE;
        // SAFETY: as in `bytes`, and the borrow of `self` is exclusive.
        unsafe { std::slice::from_raw_parts_mut(self.pages.as_mut_ptr().cast(), len) }
    }
}

/// A process address space.
#[derive(Clone)]
pub struct AddressSpace {
    size: usize,
    /// Ascending and disjoint; a page in none of them is all zeros.
    runs: Vec<Run>,
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

    /// Creates a zero-filled space of `size` bytes. Nothing is resident
    /// and nothing is allocated.
    pub fn new(size: usize) -> AddressSpace {
        AddressSpace {
            size,
            runs: Vec::new(),
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

    /// The index of the first run that ends past byte `at`.
    fn run_at(&self, at: usize) -> usize {
        let page = at / PAGE_SIZE;
        self.runs.partition_point(|run| run.end() <= page)
    }

    /// Hands `f` the resident bytes of the byte range `r` in address
    /// order, one slice per run the range meets, each with its offset
    /// from `r.start`. With `bring_in`, each gap between the runs already
    /// there first becomes one new run, so `f` sees every byte of `r`;
    /// without, the gaps are passed over. An empty range touches nothing.
    fn each_resident_mut(
        &mut self,
        r: Range<usize>,
        bring_in: bool,
        mut f: impl FnMut(usize, &mut [u8]),
    ) {
        if r.is_empty() {
            return;
        }
        let last = r.end.div_ceil(PAGE_SIZE);
        let (mut page, mut i) = (r.start / PAGE_SIZE, self.run_at(r.start));
        while page < last {
            match self.runs.get(i) {
                Some(run) if run.first <= page => {}
                next => {
                    let gap_end = next.map_or(last, |run| run.first.min(last));
                    if !bring_in {
                        page = gap_end;
                        continue;
                    }
                    self.runs.insert(i, Run::zeroed(page, gap_end - page));
                }
            }
            let run = &mut self.runs[i];
            let held = run.bytes_range();
            let (lo, hi) = (r.start.max(held.start), r.end.min(held.end));
            let bytes = &mut run.bytes_mut()[lo - held.start..hi - held.start];
            f(lo - r.start, bytes);
            (page, i) = (run.end(), i + 1);
        }
        debug_assert!(
            self.runs.windows(2).all(|w| w[0].end() <= w[1].first),
            "runs ascend and are disjoint"
        );
    }

    /// The byte range `r` in address order as one piece per run it meets,
    /// `Some` of the run's bytes, and per gap, `None` — a gap cut into
    /// pieces of at most `gap_max` bytes. Each piece with its length.
    fn pieces(
        &self,
        r: Range<usize>,
        gap_max: usize,
    ) -> impl Iterator<Item = (usize, Option<&[u8]>)> + '_ {
        let (mut at, mut i) = (r.start, self.run_at(r.start));
        std::iter::from_fn(move || {
            (at < r.end).then(|| match self.runs.get(i) {
                Some(run) if run.bytes_range().start <= at => {
                    let held = run.bytes_range();
                    let hi = r.end.min(held.end);
                    let bytes = &run.bytes()[at - held.start..hi - held.start];
                    (at, i) = (hi, i + 1);
                    (bytes.len(), Some(bytes))
                }
                next => {
                    let gap_end = next.map_or(r.end, |run| run.bytes_range().start.min(r.end));
                    let len = (gap_end - at).min(gap_max);
                    at += len;
                    (len, None)
                }
            })
        })
    }

    fn resident_pages(&self) -> usize {
        self.runs.iter().map(|run| run.pages.len()).sum()
    }

    /// Checks that `[addr, addr+len)` lies inside the space, touching
    /// no byte of it.
    pub fn check(&self, addr: u32, len: usize) -> Result<(), KernelError> {
        self.range(addr, len).map(|_| ())
    }

    /// Makes `[addr, addr+len)` resident, one run for each stretch of it
    /// nothing has written, so that the writes that follow allocate
    /// nothing; a range outside the space is left alone. No byte changes.
    pub fn reserve(&mut self, addr: u32, len: usize) {
        if let Ok(r) = self.range(addr, len) {
            self.each_resident_mut(r, true, |_, _| {});
        }
    }

    /// The bytes of `[addr, addr+len)` where they lie, in address order:
    /// one slice per resident run the range meets, and zeros lent for
    /// what nothing has written, at most 4 KB a slice. `read`,
    /// `read_into` and `copy_from` are written over it; a caller whose
    /// bytes go somewhere else copies from it.
    pub fn spans(
        &self,
        addr: u32,
        len: usize,
    ) -> Result<impl Iterator<Item = &[u8]> + '_, KernelError> {
        static ZEROS: [u8; ZERO_SPAN] = [0; ZERO_SPAN];
        let r = self.range(addr, len)?;
        Ok(self
            .pieces(r, ZERO_SPAN)
            .map(|(len, bytes)| bytes.unwrap_or_else(|| &ZEROS[..len])))
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
        // One run for each gap of the destination, not one per span.
        self.reserve(addr, len);
        for span in spans {
            self.write(at as u32, span)?;
            at += span.len();
        }
        Ok(())
    }

    /// Copies `data` into the space starting at `addr`.
    pub fn write(&mut self, addr: u32, data: &[u8]) -> Result<(), KernelError> {
        let r = self.range(addr, data.len())?;
        self.each_resident_mut(r, true, |off, bytes| {
            bytes.copy_from_slice(&data[off..off + bytes.len()]);
        });
        Ok(())
    }

    /// Fills `[addr, addr+len)` with `value` (handy for test patterns).
    pub fn fill(&mut self, addr: u32, len: usize, value: u8) -> Result<(), KernelError> {
        let r = self.range(addr, len)?;
        // Zeros onto pages nothing has written change nothing.
        self.each_resident_mut(r, value != 0, |_, bytes| bytes.fill(value));
        Ok(())
    }

    /// True if every byte of `[addr, addr+len)` equals `value`.
    pub fn is_filled(&self, addr: u32, len: usize, value: u8) -> Result<bool, KernelError> {
        let r = self.range(addr, len)?;
        Ok(self
            .pieces(r, usize::MAX)
            .all(|(_, bytes)| bytes.map_or(value == 0, |b| all_equal(b, value))))
    }
}

impl fmt::Debug for AddressSpace {
    /// The shape, not the bytes.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AddressSpace")
            .field("size", &self.size)
            .field("runs", &self.runs.len())
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
        assert_eq!(a.runs.capacity(), 0);
        // Reading, checking, and zeros onto zeros touch nothing.
        assert_eq!(a.read(0, a.size()).unwrap(), vec![0; a.size()]);
        assert_eq!(a.check(0, a.size()), Ok(()));
        assert_eq!(a.is_filled(0, a.size(), 0), Ok(true));
        assert_eq!(a.is_filled(PAGE_SIZE as u32, 1, 9), Ok(false));
        a.fill(0, a.size(), 0).unwrap();
        assert_eq!(a.resident_pages(), 0);
        // A write straddling a boundary brings in the two pages it
        // lands on and no other, as one run.
        a.write(PAGE_SIZE as u32 - 1, &[1, 2]).unwrap();
        assert_eq!((a.runs.len(), a.resident_pages()), (1, 2));
        assert_eq!(a.runs[0].first, 0);
        assert_eq!(a.read(PAGE_SIZE as u32 - 2, 4).unwrap(), &[0, 1, 2, 0]);
        a.fill(5 * PAGE_SIZE as u32, 1, 0xEE).unwrap();
        assert_eq!((a.runs.len(), a.resident_pages()), (2, 3));
        // A rejected range brings in nothing.
        let end = a.size() as u32;
        assert_eq!(a.write(end - 1, &[1, 2]), Err(KernelError::BadAddress));
        assert_eq!(a.fill(end - 1, 2, 1), Err(KernelError::BadAddress));
        a.reserve(end - 1, 2);
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
