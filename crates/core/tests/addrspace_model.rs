//! The address space as a model check: random `write` / `fill` /
//! `reserve` / `read` / `is_filled` / `check` against a flat `Vec<u8>` —
//! which is what an [`AddressSpace`] was before it held only what it
//! wrote — with identical bytes and identical [`KernelError`]s at every
//! step, and beside a list of the runs of pages it should hold: each gap
//! a write, a nonzero fill or a reserve meets becomes one run, and the
//! space's `Debug` (its runs and resident pages) must say so.
//!
//! The ranges are aimed at where runs can go wrong: inside one page,
//! ending exactly on a boundary, straddling two pages and many, zero
//! length, the last byte of the space, one past it, `addr + len`
//! overflowing, spaces that are not a page multiple, gaps longer than
//! the zeros one span lends, and zeros filled into or looked for in pages
//! nothing has written.
//!
//! A failing case prints its short operation list (the vendored proptest
//! does not shrink, so the lists are kept short instead); CI runs this in
//! debug (where the space asserts its runs ascend and are disjoint) and
//! release with `PROPTEST_CASES=5000` ahead of the benchmark's baseline
//! check.

use proptest::prelude::*;
use v_kernel::{AddressSpace, KernelError};

/// The page size, and the most zeros one span lends for a gap: private
/// to the space, and pinned here by the span shapes and the runs.
const PAGE: usize = 512;
const ZERO_SPAN: usize = 4096;

/// A byte range, described by where it sits relative to the pages.
#[derive(Debug, Clone, Copy)]
enum Span {
    /// `len` bytes at `off` inside page `page`.
    Inside { page: usize, off: usize, len: usize },
    /// The last `len` bytes of page `page`.
    EndsOnBoundary { page: usize, len: usize },
    /// `before` bytes of page `page` and `after` of the next.
    Straddles {
        page: usize,
        before: usize,
        after: usize,
    },
    /// From `off` in page `page` across `pages` whole pages and `tail`
    /// bytes more.
    Many {
        page: usize,
        off: usize,
        pages: usize,
        tail: usize,
    },
    /// Nothing, at `back` bytes before the end of the space (0: at it).
    Empty { back: usize },
    /// The last `len` bytes of the space.
    LastBytes { len: usize },
    /// `len` bytes starting `back` before the end: `len > back` runs off.
    PastEnd { back: usize, len: usize },
    /// `addr + len` does not fit a `usize`.
    Overflows { addr_back: u32, len_back: usize },
    /// The whole space.
    Whole,
}

impl Span {
    /// `(addr, len)` in a space of `size` bytes. Spans aimed at pages the
    /// space does not have simply fall outside it, which is a case too.
    fn place(self, size: usize) -> (u32, usize) {
        let (addr, len) = match self {
            Span::Inside { page, off, len } => (page * PAGE + off, len.min(PAGE - off)),
            Span::EndsOnBoundary { page, len } => ((page + 1) * PAGE - len, len),
            Span::Straddles {
                page,
                before,
                after,
            } => ((page + 1) * PAGE - before, before + after),
            Span::Many {
                page,
                off,
                pages,
                tail,
            } => (page * PAGE + off, PAGE - off + pages * PAGE + tail),
            Span::Empty { back } => (size.saturating_sub(back), 0),
            Span::LastBytes { len } => (size.saturating_sub(len), len.min(size)),
            Span::PastEnd { back, len } => (size.saturating_sub(back), len),
            Span::Overflows {
                addr_back,
                len_back,
            } => ((u32::MAX - addr_back) as usize, usize::MAX - len_back),
            Span::Whole => (0, size),
        };
        (addr as u32, len)
    }
}

fn span() -> impl Strategy<Value = Span> {
    let page = || 0usize..12;
    prop_oneof![
        (page(), 0..PAGE, 1usize..300).prop_map(|(page, off, len)| Span::Inside { page, off, len }),
        (page(), 1usize..300).prop_map(|(page, len)| Span::EndsOnBoundary { page, len }),
        (page(), 1usize..200, 1usize..200).prop_map(|(page, before, after)| Span::Straddles {
            page,
            before,
            after
        }),
        (page(), 0..PAGE, 0usize..10, 0..PAGE).prop_map(|(page, off, pages, tail)| Span::Many {
            page,
            off,
            pages,
            tail
        }),
        (0usize..3).prop_map(|back| Span::Empty { back }),
        (1usize..40).prop_map(|len| Span::LastBytes { len }),
        (0usize..3, 1usize..6).prop_map(|(back, len)| Span::PastEnd { back, len }),
        (0u32..3, 0usize..3).prop_map(|(addr_back, len_back)| Span::Overflows {
            addr_back,
            len_back
        }),
        Just(Span::Whole),
    ]
}

/// Zero as often as not: an absent page is all zeros, so zero is the
/// value a page table can get wrong.
fn value() -> impl Strategy<Value = u8> {
    prop_oneof![Just(0u8), 0u8..=255]
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Bytes `first, first + 1, …` written over the span.
    Write(Span, u8),
    Fill(Span, u8),
    Read(Span),
    IsFilled(Span, u8),
    Check(Span),
    Reserve(Span),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (span(), 0u8..=255).prop_map(|(s, first)| Op::Write(s, first)),
        (span(), value()).prop_map(|(s, v)| Op::Fill(s, v)),
        span().prop_map(Op::Read),
        (span(), value()).prop_map(|(s, v)| Op::IsFilled(s, v)),
        span().prop_map(Op::Check),
        span().prop_map(Op::Reserve),
    ]
}

/// Whole pages, a byte either side of whole pages, smaller than a page,
/// nothing at all, and more than one span of zeros.
fn size() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        1usize..PAGE,
        Just(PAGE),
        Just(PAGE + 1),
        Just(3 * PAGE - 1),
        Just(4 * PAGE),
        PAGE..7 * PAGE,
        2 * ZERO_SPAN - 1..20 * PAGE,
    ]
}

/// The flat reference: one bounds check, then the slice.
struct Flat(Vec<u8>);

impl Flat {
    fn range(&self, addr: u32, len: usize) -> Result<std::ops::Range<usize>, KernelError> {
        let start = addr as usize;
        let end = start.checked_add(len).ok_or(KernelError::BadAddress)?;
        if end > self.0.len() {
            return Err(KernelError::BadAddress);
        }
        Ok(start..end)
    }
}

/// The space under test beside its reference: the bytes, and the runs
/// of pages `[first, end)` the space should hold, in address order.
struct Pair {
    space: AddressSpace,
    flat: Flat,
    runs: Vec<(usize, usize)>,
}

impl Pair {
    fn new(size: usize) -> Pair {
        Pair {
            space: AddressSpace::new(size),
            flat: Flat(vec![0; size]),
            runs: Vec::new(),
        }
    }

    /// Brings in the pages of the byte range `r`: each maximal stretch of
    /// them no run holds becomes a run of its own.
    fn make_resident(&mut self, r: std::ops::Range<usize>) {
        if r.is_empty() {
            return;
        }
        let held = |runs: &[(usize, usize)], page| runs.iter().any(|&(f, e)| f <= page && page < e);
        let mut gap: Option<(usize, usize)> = None;
        let mut new = Vec::new();
        for page in r.start / PAGE..r.end.div_ceil(PAGE) {
            match (held(&self.runs, page), &mut gap) {
                (false, Some((_, end))) => *end = page + 1,
                (false, None) => gap = Some((page, page + 1)),
                (true, _) => new.extend(gap.take()),
            }
        }
        new.extend(gap);
        self.runs.extend(new);
        self.runs.sort_unstable();
    }

    fn resident_pages(&self) -> usize {
        self.runs.iter().map(|(f, e)| e - f).sum()
    }

    /// The lengths `spans` should yield for `r`: the part of each run the
    /// range meets whole, and each gap in pieces of at most `ZERO_SPAN`.
    fn span_lens(&self, r: std::ops::Range<usize>) -> Vec<usize> {
        let mut lens = Vec::new();
        let mut at = r.start;
        while at < r.end {
            let run = self.runs.iter().find(|&&(_, e)| e * PAGE > at);
            let hi = match run {
                Some(&(f, e)) if f * PAGE <= at => r.end.min(e * PAGE),
                Some(&(f, _)) => r.end.min(f * PAGE).min(at + ZERO_SPAN),
                None => r.end.min(at + ZERO_SPAN),
            };
            lens.push(hi - at);
            at = hi;
        }
        lens
    }

    /// The resident pages the space itself reports.
    fn held_by_space(&self) -> usize {
        let debug = format!("{:?}", self.space);
        let count = debug.rsplit("resident_pages: ").next().expect("in Debug");
        count.trim_end_matches(" }").parse().expect("a count")
    }

    /// The space's runs and resident pages are the model's.
    fn check_shape(&self, after: &dyn std::fmt::Debug) {
        let want = format!(
            "AddressSpace {{ size: {}, runs: {}, resident_pages: {} }}",
            self.flat.0.len(),
            self.runs.len(),
            self.resident_pages()
        );
        assert_eq!(
            format!("{:?}", self.space),
            want,
            "after {after:?}: {:?}",
            self.runs
        );
    }

    fn apply(&mut self, op: Op) {
        let size = self.flat.0.len();
        assert_eq!(self.space.size(), size);
        match op {
            Op::Write(span, first) => {
                let (addr, len) = span.place(size);
                // An overflowing length cannot be backed by real data:
                // the longest slice that still runs off the end will do.
                let data: Vec<u8> = (0..len.min(size + 8))
                    .map(|i| first.wrapping_add(i as u8))
                    .collect();
                let want = self.flat.range(addr, data.len()).map(|r| {
                    self.flat.0[r.clone()].copy_from_slice(&data);
                    self.make_resident(r);
                });
                assert_eq!(self.space.write(addr, &data), want, "{op:?}");
            }
            Op::Fill(span, value) => {
                let (addr, len) = span.place(size);
                let want = self.flat.range(addr, len).map(|r| {
                    self.flat.0[r.clone()].fill(value);
                    if value != 0 {
                        self.make_resident(r);
                    }
                });
                assert_eq!(self.space.fill(addr, len, value), want, "{op:?}");
            }
            Op::Read(span) => {
                let (addr, len) = span.place(size);
                let want = self.flat.range(addr, len).map(|r| self.flat.0[r].to_vec());
                assert_eq!(self.space.read(addr, len), want, "{op:?}");
            }
            Op::IsFilled(span, value) => {
                let (addr, len) = span.place(size);
                let want = self
                    .flat
                    .range(addr, len)
                    .map(|r| self.flat.0[r].iter().all(|&b| b == value));
                assert_eq!(self.space.is_filled(addr, len, value), want, "{op:?}");
            }
            Op::Check(span) => {
                let (addr, len) = span.place(size);
                let want = self.flat.range(addr, len).map(|_| ());
                assert_eq!(self.space.check(addr, len), want, "{op:?}");
            }
            Op::Reserve(span) => {
                // No byte changes (and there is no error to return), and
                // nothing the space held leaves it.
                let (addr, len) = span.place(size);
                let before = self.held_by_space();
                if let Ok(r) = self.flat.range(addr, len) {
                    self.make_resident(r);
                }
                self.space.reserve(addr, len);
                assert!(self.held_by_space() >= before, "{op:?}");
                self.check_all();
            }
        }
        self.check_shape(&op);
    }

    /// Every byte agrees, read back whole and a page at a time.
    fn check_all(&self) {
        let size = self.flat.0.len();
        assert_eq!(self.space.read(0, size).as_deref(), Ok(&self.flat.0[..]));
        for (i, page) in self.flat.0.chunks(PAGE).enumerate() {
            let addr = (i * PAGE) as u32;
            assert_eq!(self.space.read(addr, page.len()).as_deref(), Ok(page));
        }
    }
}

proptest! {
    /// Any sequence of operations leaves the same bytes and returns the
    /// same results as the flat array.
    #[test]
    fn any_sequence_matches_the_flat_array(
        size in size(),
        ops in prop::collection::vec(op(), 1..24),
    ) {
        let mut pair = Pair::new(size);
        for &op in &ops {
            pair.apply(op);
        }
        pair.check_all();
    }

    /// A clone is a copy: writes to either side do not show in the other.
    #[test]
    fn a_clone_shares_nothing(
        before in prop::collection::vec(op(), 1..8),
        after in prop::collection::vec(op(), 1..8),
    ) {
        let mut original = Pair::new(5 * PAGE + 17);
        for &op in &before {
            original.apply(op);
        }
        let mut copy = Pair {
            space: original.space.clone(),
            flat: Flat(original.flat.0.clone()),
            runs: original.runs.clone(),
        };
        for &op in &after {
            copy.apply(op);
        }
        original.check_all();
        copy.check_all();
    }
}

#[test]
fn zeros_and_never_written_pages_are_the_same_thing() {
    let mut pair = Pair::new(3 * PAGE + 100);
    let whole = Span::Whole;
    // Nothing written: zeros everywhere, and only zeros.
    pair.apply(Op::IsFilled(whole, 0));
    pair.apply(Op::IsFilled(whole, 1));
    pair.apply(Op::Fill(whole, 0));
    pair.apply(Op::IsFilled(whole, 0));
    // One byte in the last, partial page.
    let last = Span::LastBytes { len: 1 };
    pair.apply(Op::Write(last, 7));
    pair.apply(Op::IsFilled(whole, 0));
    pair.apply(Op::IsFilled(last, 7));
    pair.apply(Op::Read(whole));
    // Zeroed again by a fill that finds the page resident.
    pair.apply(Op::Fill(last, 0));
    pair.apply(Op::IsFilled(whole, 0));
    pair.check_all();
}

#[test]
fn the_edges_of_the_space_are_where_they_were() {
    let mut pair = Pair::new(2 * PAGE + 5);
    for span in [
        Span::LastBytes { len: 1 },
        Span::Empty { back: 0 },
        Span::PastEnd { back: 0, len: 1 },
        Span::PastEnd { back: 1, len: 2 },
        Span::PastEnd { back: 2, len: 2 },
        Span::Overflows {
            addr_back: 0,
            len_back: 0,
        },
        Span::Overflows {
            addr_back: 1,
            len_back: 2,
        },
    ] {
        for op in [
            Op::Write(span, 0xA0),
            Op::Fill(span, 0x5C),
            Op::Read(span),
            Op::IsFilled(span, 0x5C),
            Op::Check(span),
            Op::Reserve(span),
        ] {
            pair.apply(op);
        }
    }
    pair.check_all();
    // An empty space has no byte to address, and an empty range at 0.
    let mut none = Pair::new(0);
    none.apply(Op::Check(Span::Empty { back: 0 }));
    none.apply(Op::Read(Span::Whole));
    none.apply(Op::Write(Span::PastEnd { back: 0, len: 1 }, 1));
    none.check_all();
}

/// The readers that lend or deposit bytes instead of returning a `Vec` —
/// `spans`, `read_into`, `copy_from` — against the same flat array.
impl Pair {
    /// `spans` yields `read`'s bytes, one slice per run the range meets
    /// and gaps in pieces of at most `ZERO_SPAN`.
    fn check_spans(&self, span: Span) {
        let (addr, len) = span.place(self.flat.0.len());
        let range = self.flat.range(addr, len);
        let want = range
            .clone()
            .map(|r| (self.span_lens(r.clone()), self.flat.0[r].to_vec()));
        let got = self.space.spans(addr, len).map(|spans| {
            let spans: Vec<&[u8]> = spans.collect();
            (spans.iter().map(|s| s.len()).collect(), spans.concat())
        });
        assert_eq!(got, want, "{span:?} over runs {:?}", self.runs);
    }

    /// `read_into` fills exactly the slice it is given, or nothing.
    fn check_read_into(&self, span: Span) {
        let size = self.flat.0.len();
        let (addr, len) = span.place(size);
        let mut out = vec![0xEE; len.min(size + 8)];
        let want = self.flat.range(addr, out.len());
        let got = self.space.read_into(addr, &mut out);
        match want {
            Ok(r) => assert_eq!((got, &out[..]), (Ok(()), &self.flat.0[r]), "{span:?}"),
            Err(e) => {
                assert_eq!(got, Err(e), "{span:?}");
                assert!(out.iter().all(|&b| b == 0xEE), "{span:?} touched its slice");
            }
        }
    }

    /// `copy_from` moves `from` of `src` to where `to` starts here, or —
    /// either range out of bounds — changes nothing.
    fn copy_from(&mut self, to: Span, src: &Pair, from: Span) {
        let (src_addr, len) = from.place(src.flat.0.len());
        let len = len.min(src.flat.0.len() + 8);
        let (addr, _) = to.place(self.flat.0.len());
        let want = src.flat.range(src_addr, len).and_then(|from| {
            let to = self.flat.range(addr, len)?;
            self.flat.0[to.clone()].copy_from_slice(&src.flat.0[from]);
            self.make_resident(to);
            Ok(())
        });
        let got = self.space.copy_from(addr, &src.space, src_addr, len);
        assert_eq!(got, want, "{from:?} to {to:?}");
        self.check_shape(&(from, to));
    }
}

proptest! {
    /// After any sequence of writes, the lending and depositing readers
    /// agree with the flat array on every kind of range, and a copy
    /// between two spaces is the copy between their arrays.
    #[test]
    fn the_readers_without_a_vec_match_the_flat_array(
        sizes in (size(), size()),
        ops in prop::collection::vec(op(), 1..12),
        probes in prop::collection::vec((span(), span()), 1..12),
    ) {
        let mut src = Pair::new(sizes.0);
        for &op in &ops {
            src.apply(op);
        }
        let mut dst = Pair::new(sizes.1);
        dst.apply(Op::Fill(Span::Whole, 0x33));
        for &(from, to) in &probes {
            src.check_spans(from);
            src.check_read_into(from);
            dst.copy_from(to, &src, from);
        }
        src.check_all();
        dst.check_all();
    }
}

#[test]
fn span_shapes_inside_straddling_absent_and_past_the_end() {
    let size = 24 * PAGE;
    let mut pair = Pair::new(size);
    let inside = Span::Inside {
        page: 2,
        off: 0x40,
        len: 256,
    };
    let straddles = Span::Straddles {
        page: 5,
        before: 100,
        after: 412,
    };
    pair.apply(Op::Write(inside, 1));
    pair.apply(Op::Write(straddles, 2));
    let lens = |pair: &Pair, span: Span| -> Vec<usize> {
        let (addr, len) = span.place(size);
        let spans = pair.space.spans(addr, len).expect("in bounds");
        spans.map(<[u8]>::len).collect()
    };
    // One slice for what one run holds, a page boundary inside it or not,
    // and zeros for the gaps, at most `ZERO_SPAN` a slice.
    assert_eq!(lens(&pair, inside), [256]);
    assert_eq!(lens(&pair, straddles), [512]);
    let tail = size - 7 * PAGE;
    assert_eq!(
        lens(&pair, Span::Whole),
        [
            2 * PAGE,
            PAGE,
            2 * PAGE,
            2 * PAGE,
            ZERO_SPAN,
            ZERO_SPAN,
            tail - 2 * ZERO_SPAN
        ]
    );
    // A write over both gaps either side of a run brings in each as a run
    // of its own, and the run between stays one slice.
    let around = Span::Many {
        page: 4,
        off: 0,
        pages: 3,
        tail: 0,
    };
    pair.apply(Op::Write(around, 3));
    assert_eq!(lens(&pair, around), [PAGE, 2 * PAGE, PAGE]);
    assert_eq!(pair.runs, [(2, 3), (4, 5), (5, 7), (7, 8)]);
    // A reserve is one run, and a page nothing has written lends zeros
    // without becoming resident.
    let reserved = Span::Many {
        page: 10,
        off: 0,
        pages: 7,
        tail: 0,
    };
    pair.apply(Op::Reserve(reserved));
    assert_eq!(lens(&pair, reserved), [8 * PAGE]);
    let absent = Span::Inside {
        page: 20,
        off: 7,
        len: 64,
    };
    let (addr, len) = absent.place(size);
    let mut spans = pair.space.spans(addr, len).expect("in bounds");
    assert_eq!(spans.next(), Some(&[0u8; 64][..]));
    assert!(format!("{:?}", pair.space).contains("runs: 5, resident_pages: 13"));
    for span in [
        inside,
        straddles,
        around,
        reserved,
        absent,
        Span::Whole,
        Span::Empty { back: 0 },
    ] {
        pair.check_spans(span);
        pair.check_read_into(span);
    }
    // One past the end is rejected by all three, the last byte is not.
    for span in [
        Span::PastEnd { back: 0, len: 1 },
        Span::PastEnd { back: 1, len: 2 },
        Span::LastBytes { len: 1 },
    ] {
        pair.check_spans(span);
        pair.check_read_into(span);
        let mut dst = Pair::new(PAGE + 1);
        dst.copy_from(Span::LastBytes { len: 1 }, &pair, span);
        dst.copy_from(span, &pair, Span::LastBytes { len: 2 });
        dst.check_all();
    }
}
