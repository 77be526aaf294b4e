//! Time-ordered event queue with deterministic tie-breaking: a monotone
//! radix heap.
//!
//! A simulation clock never runs backwards — [`EventQueue::schedule`]
//! refuses an instant before `now` — and that is all a radix heap needs.
//!
//! **Bucket invariant.** An event due at `at` sits in the *front* if
//! `at == now`, and otherwise in bucket `k`, the position of the highest
//! bit in which `at` and `now` differ (`k = ilog2(at ^ now)`, 64 buckets,
//! a `u64` mask of the occupied ones). Because `at > now`, that bit is
//! set in `at` and clear in `now`, so every event in bucket `k` is later
//! than every event in a lower bucket, and the earliest pending event is
//! in the front or, failing that, in the lowest occupied bucket.
//!
//! **Why `now` may only move in `pop`.** The invariant is stated against
//! `now`, so moving the clock means re-filing. `pop` on an empty front
//! takes the lowest occupied bucket `k`, moves `now` to its minimum and
//! re-files its entries against the new `now`. They all agree with the
//! new `now` on bit `k` and above, so each lands in the front or in a
//! bucket below `k`; entries of higher buckets still first differ from
//! `now` in their own bit and stay where they are. [`EventQueue::peek_time`]
//! takes `&self`, cannot re-file, and so scans the lowest occupied bucket
//! for its minimum instead (`Cluster::run_until` calls it before every
//! pop).
//!
//! **FIFO among equal instants needs no sequence number.** Equal times
//! have equal bits, so they always share a bucket. `schedule` appends, a
//! re-filing reads its bucket in order and appends, and the buckets it
//! appends to are empty beforehand (they are below the lowest occupied
//! one): within every bucket, events of one instant stay in the order
//! they were scheduled, the front — the events of the instant `now` —
//! included, and the front is drained from its head.
//!
//! **Cost.** `schedule` is one `lzcnt`, one slab write and one append. An
//! entry is re-filed only downwards, so at most once per bucket level
//! between its schedule and its pop — counted on the repository
//! benchmark, 1.8-2.7 times on the two-host and file-service workloads
//! and 5.5 on the boot storm — and a timer far ahead waits in a high
//! bucket, untouched by the near events that come and go below it. Events
//! are written once into a slab; the buckets move 16-byte `(at, slot)`
//! keys. Slab, free list (threaded through the vacant slots) and buckets
//! keep their capacity, so a steady state allocates nothing.

use crate::time::SimTime;

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
    /// The events themselves; a vacant slot holds the next vacant one.
    slab: Vec<Slot<E>>,
    /// First vacant slot, `NO_SLOT` when the slab is full.
    free: u32,
    /// Slots of the events due at exactly `now`, oldest first from `head`
    /// (what is before `head` has been popped); cleared when drained.
    front: Vec<u32>,
    head: usize,
    /// `later[k]`: events whose time first differs from `now` in bit `k`.
    later: Vec<Vec<Key>>,
    /// Bit `k` set: `later[k]` is not empty.
    occupied: u64,
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

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            slab: Vec::new(),
            free: NO_SLOT,
            front: Vec::new(),
            head: 0,
            later: Vec::new(),
            occupied: 0,
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
        let slot = self.store(event);
        let at = at.as_nanos();
        match (at ^ self.now.as_nanos()).checked_ilog2() {
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

    /// Pops the earliest event, advancing the simulation clock to its
    /// timestamp. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.front.is_empty() && !self.advance() {
            return None;
        }
        let slot = self.front[self.head];
        self.head += 1;
        if self.head == self.front.len() {
            // Emptied here, not at the next pop: events that keep arriving
            // at `now` one behind another must not grow the front forever.
            self.front.clear();
            self.head = 0;
        }
        self.popped += 1;
        Some((self.now, self.take(slot)))
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        if !self.front.is_empty() {
            return Some(self.now);
        }
        let lowest = self.later.get(self.occupied.trailing_zeros() as usize)?;
        lowest.iter().map(|key| SimTime::from_nanos(key.at)).min()
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

    /// With the front drained: moves `now` to the earliest pending instant
    /// and re-files the lowest occupied bucket against it, which puts that
    /// instant's events in the front. False when nothing is pending.
    fn advance(&mut self) -> bool {
        if self.occupied == 0 {
            return false;
        }
        let k = self.occupied.trailing_zeros() as usize;
        self.occupied &= !(1 << k);
        let (lower, rest) = self.later.split_at_mut(k);
        let bucket = &mut rest[0];
        let min = bucket.iter().map(|key| key.at).min().expect("occupied");
        self.now = SimTime::from_nanos(min);
        for key in bucket.drain(..) {
            match (key.at ^ min).checked_ilog2() {
                None => self.front.push(key.slot),
                Some(j) => {
                    lower[j as usize].push(key);
                    self.occupied |= 1 << j;
                }
            }
        }
        true
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
