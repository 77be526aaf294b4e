//! Time-ordered event queue with deterministic tie-breaking: a few
//! ascending runs beside a monotone radix heap.
//!
//! A simulation clock never runs backwards — [`EventQueue::schedule`]
//! refuses an instant before `now` — and most of what a kernel schedules
//! comes in a few ascending streams: every retransmit timer is armed
//! 200 ms after the instant it is armed at, every housekeeping timer 1 s
//! after, and a chain of near events is one event at a time. A stream that
//! ascends needs no ordering work at all, so the queue keeps `RUNS` of
//! them as plain FIFOs and sorts only what fits none.
//!
//! **Runs.** A run is a ring of `(at, slot)` entries that ascends from its
//! front; its last instant is its *tail*, and an empty run has tail 0.
//! `schedule` appends to the best fit, the run with the latest tail not
//! after `at` (so a timer does not close the run a nearer stream could
//! have used; an empty run fits anything and is the worst fit), and
//! `pop` takes the least run head, or the heap's earliest event if that
//! is due strictly before it. An entry in a run is appended once and
//! popped once; nothing scans it or moves it in between, however long it
//! stands.
//!
//! **Run invariant: the runs in use come first, later tail before
//! earlier** — tails descend strictly along the array until the empty
//! runs' zeros. Appending keeps it: the best fit for `at` is the first run
//! whose tail is not after `at` (the one before it has a tail after `at`,
//! the one behind it a tail before the old one), and it is the first
//! empty run exactly when every run in use has a tail after `at`. Popping
//! keeps it: a run drains by popping its tail, which is after everything
//! the runs behind it hold, so they drained first. The best fit is
//! therefore a count — the tails after `at` — and no run fits when that
//! count is `RUNS`.
//!
//! **Heap invariant.** Only an event that *no* run fits is filed in the
//! heap. The heap has a clock of its own, `base`, the instant of its last
//! pop: never after `now`, and never after anything filed. An event due
//! at `at` sits in the heap's *front* if `at == base`, and otherwise in
//! bucket `k`, the position of the highest bit in which `at` and `base`
//! differ (`k = ilog2(at ^ base)`, 64 buckets, a `u64` mask of the
//! occupied ones). Because `at > base`, that bit is set in `at` and clear
//! in `base`, so every event in bucket `k` is later than every event in a
//! lower bucket, and the heap's earliest event is in the front or,
//! failing that, in the lowest occupied bucket — no earlier than `base`
//! with bit `k` set and the bits below it cleared. A run head at or
//! before that is popped without looking into the bucket; otherwise one
//! scan finds the bucket's minimum, which decides and is then the new
//! `base`.
//!
//! **Why `base` may only move in `pop`.** The invariant is stated against
//! `base`, so moving it means re-filing. A pop from the heap with the
//! front empty takes the lowest occupied bucket `k`, moves `base` to its
//! minimum and re-files its entries against the new `base`. They all
//! agree with it on bit `k` and above, so each lands in the front or in
//! a bucket below `k`; entries of higher buckets still first differ from
//! `base` in their own bit and stay where they are. A pop from a run
//! moves `now` and leaves `base` behind, which is safe — `base` is still
//! before everything filed — and costs an event filed meanwhile at most a
//! higher bucket than it needed, and a re-filing down when its turn comes.
//! [`EventQueue::peek_time`] takes `&self`, cannot re-file, and pays the
//! scan each time it is asked; [`EventQueue::pop_due`] is the way to pop
//! up to a deadline.
//!
//! **FIFO among equal instants needs no sequence number.** *Within a run*
//! an entry is behind everything appended before it. *Within the heap*
//! equal times have equal bits, so they always share a bucket; `schedule`
//! appends, a re-filing reads its bucket in order and appends, and the
//! buckets it appends to are empty beforehand (they are below the lowest
//! occupied one): events of one instant stay in the order they were
//! scheduled, the front included, and the front is drained from its
//! head. *Between a run and the heap:* an event was filed in the heap at
//! `t` because every run's tail was after `t`, and a tail moves back only
//! when its run drains, which takes the clock to that tail — past `t`,
//! where nothing can be scheduled any more. So from then on no run
//! accepts `t`: every run entry at `t` is older than every heap entry at
//! `t`, and at equal instants the run pops first. *Between two runs:*
//! while a run holds `t` its tail is `t` or later, and every run before
//! it has a later tail still, so none of those accepts `t`. A run takes
//! `t` only further along the array than every run that holds it: of
//! equal heads the first is the oldest.
//!
//! **Cost.** A run hit is a slab write, `RUNS` comparisons and an append;
//! its pop is a ring read and `RUNS` comparisons. Counted on the
//! repository benchmark, the share of events that take that path is
//! 100 % on `exchange` and `page_rw` (timers, housekeeping and the one
//! chain of near events are a run each), 99 % on `fs_lossy`, 98 % on
//! `cache_share`, 48 % on `storm` and 16 % on `capacity`, whose sixteen
//! interleaved chains ascend in no four streams. What misses is filed as
//! before: one `lzcnt` and one append, re-filed only downwards, so at
//! most once per bucket level — and now beside near events only: 1.2
//! times per event filed on `capacity`, where it was 1.7 with the timers
//! among them. Events are written once into a slab, whichever side queues
//! them; rings and buckets move 16-byte `(at, slot)` keys. Slab, free
//! list (threaded through the vacant slots), rings and buckets keep
//! their capacity, so a steady state allocates nothing.

use std::collections::VecDeque;

use crate::time::SimTime;

/// Ascending runs kept beside the heap.
const RUNS: usize = 4;

/// Head of an empty run. It is an instant too, the "never" of an idle
/// timer, which every run fits (so the heap holds none) and which a head
/// may be: `runs[0]` says whether there is a head at all.
const NO_HEAD: u64 = u64::MAX;

/// An event queue ordered by firing time.
///
/// Events scheduled for the same instant pop in the order they were
/// scheduled (FIFO), which makes simulation runs fully deterministic — a
/// property the reproduction's regression tests rely on.
///
/// The queue also tracks the current simulation time: [`EventQueue::pop`]
/// advances `now` to the popped event's timestamp. Scheduling an event in
/// the past is a logic error and panics (in debug it pinpoints the broken
/// cost-model arithmetic immediately).
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Each run ascends from its front. The runs in use come first, later
    /// tail before earlier.
    runs: [VecDeque<Key>; RUNS],
    /// Instant of each run's first entry; `NO_HEAD` for an empty run.
    heads: [u64; RUNS],
    /// Instant of each run's last entry; 0 for an empty run, which
    /// therefore fits anything.
    tails: [u64; RUNS],
    /// The first of the runs with the least head, and that head.
    first: usize,
    lead: u64,
    /// The events in the heap; a vacant slot holds the next vacant one.
    slab: Vec<Slot<E>>,
    /// First vacant slot, `NO_SLOT` when the slab is full.
    free: u32,
    /// Slots of the heap's events due at exactly `base`, oldest first from
    /// `head` (what is before `head` has been popped); cleared when drained.
    front: Vec<u32>,
    head: usize,
    /// `later[k]`: events whose time first differs from `base` in bit `k`.
    later: Vec<Vec<Key>>,
    /// Bit `k` set: `later[k]` is not empty.
    occupied: u64,
    /// The heap's clock, the instant of its last pop: never after `now`.
    base: u64,
    now: SimTime,
    scheduled: u64,
    popped: u64,
}

/// Engine-level counters of one simulation run, snapshotted from the
/// event queue ([`EventQueue::stats`]). This is the observable
/// events-processed surface the `v-bench engine` throughput experiment
/// and chaos debugging read; it needs no harness instrumentation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Events ever scheduled.
    pub scheduled: u64,
    /// Events popped (processed) so far.
    pub popped: u64,
    /// Events still pending.
    pub pending: usize,
}

#[derive(Debug, Clone, Copy)]
struct Key {
    at: u64,
    slot: u32,
}

#[derive(Debug)]
enum Slot<E> {
    Full(E),
    Vacant { next: u32 },
}

const NO_SLOT: u32 = u32::MAX;

/// Where the earliest pending event is.
enum Next {
    Nothing,
    /// At the head of run `first`.
    Run,
    /// In the heap's front, due at `base`.
    Front,
    /// In the heap's lowest bucket, `k`, due at `min`.
    Bucket {
        k: usize,
        min: u64,
    },
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            runs: std::array::from_fn(|_| VecDeque::new()),
            heads: [NO_HEAD; RUNS],
            tails: [0; RUNS],
            first: 0,
            lead: NO_HEAD,
            slab: Vec::new(),
            free: NO_SLOT,
            front: Vec::new(),
            head: 0,
            later: Vec::new(),
            occupied: 0,
            base: 0,
            now: SimTime::ZERO,
            scheduled: 0,
            popped: 0,
        }
    }

    /// Current simulation time (the timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current simulation time.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: at={at} now={}",
            self.now
        );
        self.scheduled += 1;
        let at = at.as_nanos();
        let slot = self.store(event);
        // Tails descend, so the tails after `at` come first and the run
        // behind them is the best fit: the latest tail not after `at`.
        let fit = self.tails.iter().filter(|&&tail| tail > at).count();
        if fit == RUNS {
            return self.file(at, slot);
        }
        self.tails[fit] = at;
        let run = &mut self.runs[fit];
        if run.is_empty() {
            self.heads[fit] = at;
            if at < self.lead {
                (self.first, self.lead) = (fit, at);
            }
        }
        run.push_back(Key { at, slot });
        debug_assert!(self.tails.windows(2).all(|w| w[0] > w[1] || w[1] == 0));
    }

    /// Pops the earliest event, advancing the simulation clock to its
    /// timestamp. Returns `None` when the queue is empty.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_due(SimTime::MAX)
    }

    /// Pops the earliest event if it is due at or before `deadline`;
    /// `None`, and the clock stays, if nothing is pending that early.
    #[inline]
    pub fn pop_due(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        let deadline = deadline.as_nanos();
        let slot = match self.next() {
            Next::Nothing => return None,
            Next::Run => {
                if self.lead > deadline {
                    return None;
                }
                self.pop_run()
            }
            Next::Front => {
                if self.base > deadline {
                    return None;
                }
                self.pop_front()
            }
            Next::Bucket { k, min } => {
                if min > deadline {
                    return None;
                }
                self.advance(k, min);
                self.pop_front()
            }
        };
        self.popped += 1;
        Some((self.now, self.take(slot)))
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        let at = match self.next() {
            Next::Nothing => return None,
            Next::Run => self.lead,
            Next::Front => self.base,
            Next::Bucket { min, .. } => min,
        };
        Some(SimTime::from_nanos(at))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        (self.scheduled - self.popped) as usize
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.scheduled == self.popped
    }

    /// Total number of events ever scheduled (diagnostic).
    pub fn total_scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Total number of events ever popped (diagnostic).
    pub fn total_popped(&self) -> u64 {
        self.popped
    }

    /// Snapshot of the engine counters.
    pub fn stats(&self) -> SimStats {
        SimStats {
            scheduled: self.scheduled,
            popped: self.popped,
            pending: self.len(),
        }
    }

    /// Where the earliest pending event is.
    #[inline]
    fn next(&self) -> Next {
        // At equal instants a run entry is the older: see the module doc.
        let run_leads = |at: u64| self.lead <= at;
        debug_assert_eq!(self.heads.iter().min(), Some(&self.lead));
        debug_assert_eq!(self.heads[self.first], self.lead);
        if !self.front.is_empty() {
            return if run_leads(self.base) {
                Next::Run
            } else {
                Next::Front
            };
        }
        if self.occupied == 0 {
            // The runs in use come first.
            return if self.runs[0].is_empty() {
                Next::Nothing
            } else {
                Next::Run
            };
        }
        // The heap's earliest event is in its lowest bucket, `k`, whose
        // instants agree with `base` above bit `k` and have that bit set:
        // a run head no later than the least of those needs no scan.
        let k = self.occupied.trailing_zeros() as usize;
        if run_leads(((self.base >> k) | 1) << k) {
            return Next::Run;
        }
        let min = self.later[k].iter().map(|key| key.at).min();
        let min = min.expect("occupied");
        if run_leads(min) {
            Next::Run
        } else {
            Next::Bucket { k, min }
        }
    }

    /// Takes the head of run `first`, the earliest pending event.
    fn pop_run(&mut self) -> u32 {
        let r = self.first;
        let run = &mut self.runs[r];
        let entry = run.pop_front().expect("a head is listed for this run");
        self.heads[r] = match run.front() {
            Some(next) => next.at,
            None => {
                self.tails[r] = 0;
                NO_HEAD
            }
        };
        // Of equal heads the first is the older: see the module doc.
        let (mut first, mut lead) = (0, self.heads[0]);
        for (r, &head) in self.heads.iter().enumerate().skip(1) {
            if head < lead {
                (first, lead) = (r, head);
            }
        }
        (self.first, self.lead) = (first, lead);
        debug_assert!(self.now.as_nanos() <= entry.at, "the clock ran backwards");
        self.now = SimTime::from_nanos(entry.at);
        entry.slot
    }

    /// Files an event no run fits.
    fn file(&mut self, at: u64, slot: u32) {
        debug_assert!(self.tails.iter().all(|&tail| tail > at), "a run fits");
        match (at ^ self.base).checked_ilog2() {
            None => self.front.push(slot),
            Some(k) => {
                let k = k as usize;
                if k >= self.later.len() {
                    self.later.resize_with(k + 1, Vec::new);
                }
                self.later[k].push(Key { at, slot });
                self.occupied |= 1 << k;
            }
        }
    }

    /// Takes the oldest of the heap's events due at `base`.
    fn pop_front(&mut self) -> u32 {
        let slot = self.front[self.head];
        self.head += 1;
        if self.head == self.front.len() {
            // Emptied here, not at the next pop: events that keep arriving
            // at `base` one behind another must not grow the front forever.
            self.front.clear();
            self.head = 0;
        }
        self.now = SimTime::from_nanos(self.base);
        slot
    }

    /// With the front drained: moves `base` to `min`, the earliest instant
    /// of the lowest occupied bucket, `k`, and re-files that bucket against
    /// it, which puts that instant's events in the front.
    fn advance(&mut self, k: usize, min: u64) {
        debug_assert!(self.base <= self.now.as_nanos() && self.now.as_nanos() <= min);
        self.occupied &= !(1 << k);
        let (lower, rest) = self.later.split_at_mut(k);
        self.base = min;
        for key in rest[0].drain(..) {
            match (key.at ^ min).checked_ilog2() {
                None => self.front.push(key.slot),
                Some(j) => {
                    lower[j as usize].push(key);
                    self.occupied |= 1 << j;
                }
            }
        }
    }

    fn store(&mut self, event: E) -> u32 {
        let slot = self.free;
        if slot == NO_SLOT {
            let slot = self.slab.len();
            assert!(slot < NO_SLOT as usize, "2^32 - 1 events are pending");
            self.slab.push(Slot::Full(event));
            return slot as u32;
        }
        let vacant = &mut self.slab[slot as usize];
        let Slot::Vacant { next } = *vacant else {
            unreachable!("the free list names an occupied slot");
        };
        self.free = next;
        *vacant = Slot::Full(event);
        slot
    }

    fn take(&mut self, slot: u32) -> E {
        let place = &mut self.slab[slot as usize];
        // A constant goes in as two narrow stores and the link is patched
        // after it. A `Vacant` built around `self.free` is assembled on the
        // stack and copied in whole, and the wide loads of that copy wait
        // out the narrow stores just made: 8 % of `exchange`, measured.
        let Slot::Full(event) = std::mem::replace(place, Slot::Vacant { next: NO_SLOT }) else {
            unreachable!("a queued key names a vacant slot");
        };
        if let Slot::Vacant { next } = place {
            *next = self.free;
        }
        self.free = slot;
        event
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(5), "c");
        q.schedule(SimTime::from_millis(1), "a");
        q.schedule(SimTime::from_millis(3), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_pop_in_scheduling_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(1);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn pop_advances_now() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_millis(7));
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(2), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(2)));
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.len(), 1);
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(5), ());
        q.pop();
        q.schedule(SimTime::from_millis(1), ());
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(1), 1);
        q.schedule(SimTime::from_millis(10), 10);
        let (t, e) = q.pop().unwrap();
        assert_eq!((t, e), (SimTime::from_millis(1), 1));
        // Schedule between the popped time and the pending event.
        q.schedule(SimTime::from_millis(5), 5);
        assert_eq!(q.pop().unwrap().1, 5);
        assert_eq!(q.pop().unwrap().1, 10);
        assert!(q.is_empty());
        assert_eq!(q.total_scheduled(), 3);
    }

    #[test]
    fn stats_snapshot_tracks_schedules_and_pops() {
        let mut q = EventQueue::new();
        assert_eq!(q.stats(), SimStats::default());
        q.schedule(SimTime::from_millis(1), ());
        q.schedule(SimTime::from_millis(2), ());
        q.pop();
        assert_eq!(q.total_popped(), 1);
        assert_eq!(
            q.stats(),
            SimStats {
                scheduled: 2,
                popped: 1,
                pending: 1,
            }
        );
    }
}
