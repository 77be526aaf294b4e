//! Time-ordered event queue with deterministic tie-breaking: a few
//! ascending runs beside a binary heap.
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
//! **The heap.** Only an event that *no* run fits is filed in the heap, a
//! [`BinaryHeap`] of `(at, sequence number, slot)` keys, least first. The
//! sequence number counts the events filed there, and only those.
//!
//! **FIFO among equal instants.** *Within a run* an entry is behind
//! everything appended before it. *Within the heap* the sequence number
//! orders equal instants. *Between a run and the heap:* an event was
//! filed in the heap at `t` because every run's tail was after `t`, and a
//! tail moves back only when its run drains, which takes the clock to
//! that tail — past `t`, where nothing can be scheduled any more. So from
//! then on no run accepts `t`: every run entry at `t` is older than every
//! heap entry at `t`, and at equal instants the run pops first. *Between
//! two runs:* while a run holds `t` its tail is `t` or later, and every
//! run before it has a later tail still, so none of those accepts `t`. A
//! run takes `t` only further along the array than every run that holds
//! it: of equal heads the first is the oldest.
//!
//! **Cost.** A run hit is a slab write, `RUNS` comparisons and an append;
//! its pop is a ring read and `RUNS` comparisons. Counted on the
//! repository benchmark, the share of events that take that path is
//! 100 % on `exchange` and `page_rw` (timers, housekeeping and the one
//! chain of near events are a run each), 99 % on `fs_lossy`, 98 % on
//! `cache_share`, 48 % on `storm` and 16 % on `capacity`, whose sixteen
//! interleaved chains ascend in no four streams. What misses is a sift
//! up on `schedule` and a sift down on `pop`, over 24-byte keys. Events
//! are written once into a slab, whichever side queues them. Slab, free
//! list (threaded through the vacant slots), rings and heap keep their
//! capacity, so a steady state allocates nothing.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

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
#[derive(Debug, Clone)]
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
    /// What no run fits, as `(at, sequence number, slot)`, least on top.
    heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
    /// Sequence number of the next event filed in the heap.
    filed: u64,
    /// The events; a vacant slot holds the next vacant one.
    slab: Vec<Slot<E>>,
    /// First vacant slot, `NO_SLOT` when the slab is full.
    free: u32,
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

#[derive(Debug, Clone)]
enum Slot<E> {
    Full(E),
    Vacant { next: u32 },
}

const NO_SLOT: u32 = u32::MAX;

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            runs: std::array::from_fn(|_| VecDeque::new()),
            heads: [NO_HEAD; RUNS],
            tails: [0; RUNS],
            first: 0,
            lead: NO_HEAD,
            heap: BinaryHeap::new(),
            filed: 0,
            slab: Vec::new(),
            free: NO_SLOT,
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
            self.heap.push(Reverse((at, self.filed, slot)));
            self.filed += 1;
            return;
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
        let (at, in_run) = self.next()?;
        if at > deadline.as_nanos() {
            return None;
        }
        let slot = if in_run {
            self.pop_run()
        } else {
            let Reverse((at, _, slot)) = self.heap.pop().expect("the heap's top is due");
            self.now = SimTime::from_nanos(at);
            slot
        };
        self.popped += 1;
        Some((self.now, self.take(slot)))
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.next().map(|(at, _)| SimTime::from_nanos(at))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        (self.scheduled - self.popped) as usize
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.scheduled == self.popped
    }

    /// Snapshot of the engine counters.
    pub fn stats(&self) -> SimStats {
        SimStats {
            scheduled: self.scheduled,
            popped: self.popped,
            pending: self.len(),
        }
    }

    /// When the earliest pending event is due, and whether it is the head
    /// of run `first` (or else the heap's top).
    #[inline]
    fn next(&self) -> Option<(u64, bool)> {
        debug_assert_eq!(self.heads.iter().min(), Some(&self.lead));
        debug_assert_eq!(self.heads[self.first], self.lead);
        match self.heap.peek() {
            // At equal instants a run entry is the older: see the module
            // doc. The heap holds no "never", so it beats an empty run.
            Some(&Reverse((at, _, _))) if at < self.lead => Some((at, false)),
            // The runs in use come first.
            _ if self.runs[0].is_empty() => None,
            _ => Some((self.lead, true)),
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
        assert_eq!(q.stats().scheduled, 3);
    }

    #[test]
    fn stats_snapshot_tracks_schedules_and_pops() {
        let mut q = EventQueue::new();
        assert_eq!(q.stats(), SimStats::default());
        q.schedule(SimTime::from_millis(1), ());
        q.schedule(SimTime::from_millis(2), ());
        q.pop();
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
