//! The event queue as a model check: random interleavings of `schedule`,
//! `pop` and `pop_due`, every accessor read after every step, against a
//! reference priority queue ordered by `(time, sequence number)`. The
//! queue keeps ascending runs beside a binary heap and numbers only what
//! it files in the heap: its FIFO order among equal instants is
//! structural within a run, run before heap and earlier run before later,
//! so the reference is what says it got that order right, and the
//! strategies aim at the seams: parked classes that each ascend (more of
//! them than there are runs, so some overflow into the heap), and
//! instants that are pending already, wherever they are pending.
//!
//! A failing case prints its short operation list (the vendored proptest
//! does not shrink, so the lists are kept short instead, and one seeded
//! case holds the queue at a boot storm's depth); CI runs this in debug —
//! the queue's `debug_assert!`s exist only there — and in release with
//! `PROPTEST_CASES=5000` ahead of the benchmark's baseline check.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;
use v_sim::{EventQueue, SimStats, SimTime, SplitMix64};

/// Where an operation schedules, relative to the clock when it runs.
#[derive(Debug, Clone, Copy)]
enum When {
    /// At `now`, possibly while events due at `now` are popping.
    Now,
    /// A few nanoseconds ahead.
    Next(u64),
    /// 0.5-1 ms ahead, the kernel's usual step.
    Near(u64),
    /// 200 ms ahead, a retransmit timer parked beside the near events.
    Timer,
    /// 1 s ahead, a housekeeping timer: a second parked class, which
    /// closes the run the retransmit timers were using if it joins it.
    Housekeeping,
    /// One of six more fixed distances, 3 ms to 90 s: with the two above,
    /// more ascending classes than the queue has runs.
    Parked(usize),
    /// `2^bit` ahead: any distance at all.
    Far(u32),
    /// `SimTime::MAX`, the "never" of an idle timer.
    Never,
    /// An instant some pending event already has, in a run or in the
    /// heap.
    Again(usize),
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// `count` events at one instant.
    Schedule(When, usize),
    Pop(usize),
    /// `pop_due` up to an instant picked like a schedule's.
    PopDue(When, usize),
}

/// The distances of [`When::Parked`].
const PARKED_NS: [u64; 6] = [
    3_000_000,
    20_000_000,
    2_000_000_000,
    5_000_000_000,
    30_000_000_000,
    90_000_000_000,
];

fn when() -> impl Strategy<Value = When> {
    prop_oneof![
        Just(When::Now),
        (1u64..5).prop_map(When::Next),
        (500_000u64..1_000_000).prop_map(When::Near),
        Just(When::Timer),
        Just(When::Housekeeping),
        (0usize..PARKED_NS.len()).prop_map(When::Parked),
        (0u32..64).prop_map(When::Far),
        Just(When::Never),
        // Twice, for weight: ties are what the structure has to get right.
        (0usize..64).prop_map(When::Again),
        (0usize..64).prop_map(When::Again),
    ]
}

/// Mostly one, sometimes a burst.
fn count(most: usize) -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(1usize), 2usize..most]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (when(), count(6)).prop_map(|(when, n)| Op::Schedule(when, n)),
        (when(), count(6)).prop_map(|(when, n)| Op::Schedule(when, n)),
        count(8).prop_map(Op::Pop),
        (when(), count(4)).prop_map(|(when, n)| Op::PopDue(when, n)),
    ]
}

/// Schedules only, of the parked kinds and of instants pending already.
fn parked() -> impl Strategy<Value = When> {
    prop_oneof![
        Just(When::Timer),
        Just(When::Housekeeping),
        (0usize..PARKED_NS.len()).prop_map(When::Parked),
        (0usize..PARKED_NS.len()).prop_map(When::Parked),
        Just(When::Never),
        (500_000u64..1_000_000).prop_map(When::Near),
        (0usize..64).prop_map(When::Again),
        (0usize..64).prop_map(When::Again),
    ]
}

/// The queue under test beside its reference.
struct Pair {
    queue: EventQueue<u64>,
    /// `(time, sequence number)`; the sequence number is also the event.
    model: BinaryHeap<Reverse<(u64, u64)>>,
    scheduled: u64,
    popped: u64,
    now: u64,
}

impl Pair {
    fn new() -> Pair {
        Pair {
            queue: EventQueue::new(),
            model: BinaryHeap::new(),
            scheduled: 0,
            popped: 0,
            now: 0,
        }
    }

    fn instant(&self, when: When) -> u64 {
        match when {
            When::Now => self.now,
            When::Next(d) | When::Near(d) => self.now.saturating_add(d),
            When::Timer => self.now.saturating_add(200_000_000),
            When::Housekeeping => self.now.saturating_add(1_000_000_000),
            When::Parked(class) => self.now.saturating_add(PARKED_NS[class]),
            When::Far(bit) => self.now.saturating_add(1 << bit),
            When::Never => u64::MAX,
            When::Again(nth) => {
                let pending = self.model.len().max(1);
                let entry = self.model.iter().nth(nth % pending);
                entry.map_or(self.now, |Reverse((at, _))| *at)
            }
        }
    }

    fn schedule(&mut self, at: u64) {
        self.queue.schedule(SimTime::from_nanos(at), self.scheduled);
        self.model.push(Reverse((at, self.scheduled)));
        self.scheduled += 1;
    }

    /// Pops both; true if there was something to pop.
    fn pop(&mut self) -> bool {
        let got = self.queue.pop();
        let want = self.model.pop().map(|Reverse(entry)| entry);
        assert_eq!(got.map(|(at, ev)| (at.as_nanos(), ev)), want);
        let Some((at, _)) = want else { return false };
        self.now = at;
        self.popped += 1;
        true
    }

    /// `pop_due` against peek-then-pop on the reference; true if the
    /// earliest event was due.
    fn pop_due(&mut self, deadline: u64) -> bool {
        let due = self
            .model
            .peek()
            .is_some_and(|Reverse((at, _))| *at <= deadline);
        if due {
            let got = self.queue.pop_due(SimTime::from_nanos(deadline));
            let want = self.model.pop().map(|Reverse(entry)| entry);
            assert_eq!(got.map(|(at, ev)| (at.as_nanos(), ev)), want);
            self.now = want.expect("peeked").0;
            self.popped += 1;
        } else {
            assert_eq!(self.queue.pop_due(SimTime::from_nanos(deadline)), None);
        }
        due
    }

    /// Everything observable without popping agrees with the reference.
    fn check(&self) {
        let next = self.model.peek().map(|Reverse((at, _))| *at);
        assert_eq!(self.queue.peek_time().map(SimTime::as_nanos), next);
        assert_eq!(self.queue.now().as_nanos(), self.now);
        assert_eq!(self.queue.len(), self.model.len());
        assert_eq!(self.queue.is_empty(), self.model.is_empty());
        let stats = SimStats {
            scheduled: self.scheduled,
            popped: self.popped,
            pending: self.model.len(),
        };
        assert_eq!(self.queue.stats(), stats);
    }

    fn apply(&mut self, op: Op) {
        match op {
            Op::Schedule(when, count) => {
                let at = self.instant(when);
                for _ in 0..count {
                    self.schedule(at);
                    self.check();
                }
            }
            Op::Pop(count) => {
                for _ in 0..count {
                    self.pop();
                    self.check();
                }
            }
            Op::PopDue(when, count) => {
                let deadline = self.instant(when);
                for _ in 0..count {
                    self.pop_due(deadline);
                    self.check();
                }
            }
        }
    }

    fn drain(&mut self) {
        while self.pop() {
            self.check();
        }
    }
}

proptest! {
    /// Any interleaving pops exactly what the reference pops, and every
    /// accessor agrees with it after every step.
    #[test]
    fn any_interleaving_matches_the_reference(ops in prop::collection::vec(op(), 1..32)) {
        let mut pair = Pair::new();
        pair.check();
        for &op in &ops {
            pair.apply(op);
        }
        pair.drain();
    }

    /// The exchange's shape: near events chained pop → schedule over a
    /// standing crowd of timers that fire stale — retransmit timers and,
    /// now and then between them, a housekeeping timer five times as far —
    /// bursts at one instant among them.
    #[test]
    fn near_events_over_parked_timers_match_the_reference(
        steps in prop::collection::vec((500_000u64..1_000_000, 0usize..4), 1..200),
    ) {
        let mut pair = Pair::new();
        pair.schedule(0);
        for &(ahead, burst) in &steps {
            prop_assert!(pair.pop());
            let near = pair.now + ahead;
            pair.schedule(near);
            pair.schedule(pair.now + 200_000_000);
            if burst == 0 {
                pair.schedule(pair.now + 1_000_000_000);
            }
            for _ in 0..burst {
                pair.schedule(near);
            }
            pair.check();
        }
        pair.drain();
    }

    /// Eight parked classes, each ascending as the clock moves, scheduled
    /// in any order between pops: more streams than runs, so the same
    /// class is in a run at one time and overflows into the heap at
    /// another, and an instant pending already is scheduled again wherever
    /// the first one went.
    #[test]
    fn more_parked_classes_than_runs_match_the_reference(
        steps in prop::collection::vec((parked(), count(3), 0usize..3), 1..60),
    ) {
        let mut pair = Pair::new();
        for &(when, count, pops) in &steps {
            pair.apply(Op::Schedule(when, count));
            pair.apply(Op::Pop(pops));
        }
        pair.drain();
    }
}

#[test]
fn an_empty_queue_pops_and_peeks_nothing_and_stays_usable() {
    let mut pair = Pair::new();
    assert!(!pair.pop());
    pair.check();
    pair.schedule(7);
    pair.drain();
    assert!(!pair.pop());
    pair.check();
    // Drained, not reset: the clock stays where the last pop left it.
    pair.schedule(7);
    pair.schedule(9);
    pair.drain();
    assert_eq!(pair.queue.now(), SimTime::from_nanos(9));
}

#[test]
fn scheduling_at_now_while_the_front_drains_keeps_fifo() {
    let mut pair = Pair::new();
    for _ in 0..3 {
        pair.schedule(10);
    }
    assert!(pair.pop());
    // Two of the burst are still pending; these queue behind them,
    // and each one popped schedules another at the same instant.
    for _ in 0..20 {
        pair.schedule(10);
        pair.check();
        assert!(pair.pop());
        pair.check();
    }
    pair.schedule(11);
    pair.drain();
    assert_eq!(pair.queue.now(), SimTime::from_nanos(11));
}

#[test]
fn equal_instants_keep_their_order_across_every_refiling() {
    // Scheduled again each time a pop brings the clock a bit nearer to
    // it, from a high bit of the distance to the lowest.
    let mut pair = Pair::new();
    let at = 0b1010_1010_1010;
    pair.schedule(at);
    for step in [0b1000_0000_0000, 0b1010_0000_0000, 0b1010_1000_0000, at - 2] {
        pair.schedule(step);
        pair.schedule(at);
        pair.check();
        assert!(pair.pop());
        pair.schedule(at);
        pair.check();
    }
    pair.drain();
}

#[test]
fn never_is_a_time_like_any_other() {
    let mut pair = Pair::new();
    let never = SimTime::MAX.as_nanos();
    pair.schedule(never);
    pair.schedule(5);
    pair.schedule(never);
    pair.schedule(never - 1);
    pair.check();
    assert!(pair.pop());
    pair.schedule(never);
    pair.drain();
    assert_eq!(pair.queue.now(), SimTime::MAX);
    // At the end of time there is still one instant to schedule at.
    pair.schedule(never);
    pair.drain();
}

/// Far instants in descending order: none fits a run an earlier one is
/// in, so each takes a run to itself until there is none left (the queue
/// has fewer than eight) and the rest are filed in the heap.
fn close_every_run(pair: &mut Pair, beyond: u64) {
    for step in (1..=8).rev() {
        pair.schedule(beyond + step * 1_000);
    }
}

#[test]
fn an_instant_in_a_run_and_in_the_heap_pops_the_run_first() {
    let mut pair = Pair::new();
    let at = 10_000;
    // Into an empty run, which then moves on.
    pair.schedule(at);
    pair.schedule(at);
    pair.schedule(at + 100);
    close_every_run(&mut pair, at + 100);
    // No run fits it now, nor ever again before it pops.
    pair.schedule(at);
    pair.schedule(at + 50);
    pair.schedule(at);
    pair.check();
    assert!(pair.pop());
    // Popping the run's first leaves the rest where they are.
    pair.schedule(at);
    pair.check();
    pair.drain();
}

#[test]
fn an_instant_in_several_runs_pops_the_oldest_first() {
    let mut pair = Pair::new();
    let at = 10_000;
    // 3 does not fit behind 5: two runs.
    pair.schedule(5);
    pair.schedule(3);
    // Behind the 5, which then moves on; so next behind the 3.
    pair.schedule(at);
    pair.schedule(at + 20);
    pair.schedule(at);
    pair.check();
    // That run moves on as well, and a third takes the instant; and a
    // fourth, or the heap.
    pair.schedule(at + 10);
    pair.schedule(at);
    pair.schedule(at + 5);
    pair.schedule(at);
    pair.check();
    // Past 3 and 5 every head is the same instant.
    for _ in 0..4 {
        assert!(pair.pop());
        pair.schedule(at);
        pair.check();
    }
    pair.drain();
}

#[test]
fn never_in_every_run_leaves_the_end_of_time_to_the_heap() {
    let mut pair = Pair::new();
    let never = SimTime::MAX.as_nanos();
    // A never fits any run, whatever its tail, so the heap never holds
    // one: close every run with one instead.
    close_every_run(&mut pair, 1_000_000);
    for _ in 0..8 {
        pair.schedule(never);
    }
    // Every tail is `never` now, and only the heap takes anything else.
    pair.schedule(never - 1);
    pair.schedule(never - 1);
    pair.schedule(never);
    pair.schedule(never - 2);
    pair.check();
    for _ in 0..9 {
        assert!(pair.pop());
        pair.check();
    }
    pair.schedule(never);
    pair.schedule(never - 1);
    pair.drain();
    assert_eq!(pair.queue.now(), SimTime::MAX);
    pair.schedule(never);
    pair.drain();
}

#[test]
fn more_parked_classes_than_runs_overflow_and_come_back() {
    let mut pair = Pair::new();
    pair.schedule(0);
    for round in 0..400u64 {
        assert!(pair.pop());
        pair.schedule(pair.now + 700_000);
        // A class is skipped now and then, so which of them overflow
        // changes as the run goes.
        for (class, ahead) in PARKED_NS.iter().enumerate() {
            if (round + class as u64) % 5 != 0 {
                pair.schedule(pair.now + ahead);
            }
        }
        pair.schedule(pair.now + 200_000_000);
        pair.check();
    }
    pair.drain();
}

#[test]
fn pop_due_stops_at_its_deadline_and_leaves_the_clock() {
    let mut pair = Pair::new();
    assert!(!pair.pop_due(u64::MAX));
    // Two in a run, and one in the heap.
    pair.schedule(1_000);
    pair.schedule(3_000);
    close_every_run(&mut pair, 10_000);
    pair.schedule(2_000);
    assert!(!pair.pop_due(999));
    pair.check();
    assert!(pair.pop_due(1_000));
    assert!(!pair.pop_due(1_999));
    assert_eq!(pair.queue.now(), SimTime::from_nanos(1_000));
    pair.check();
    assert!(pair.pop_due(2_500));
    pair.schedule(2_000);
    pair.schedule(2_000);
    assert!(pair.pop_due(2_000));
    assert!(pair.pop_due(2_000));
    assert!(!pair.pop_due(2_999));
    assert!(pair.pop_due(u64::MAX));
    pair.check();
    while pair.pop_due(20_000) {
        pair.check();
    }
    assert!(pair.queue.is_empty());
}

/// A schedule's `When` for [`a_storm_deep_queue_matches_the_reference`]:
/// every class, ties weighted as in [`when`].
fn storm_when(rng: &mut SplitMix64) -> When {
    match rng.below(16) {
        0 => When::Now,
        1 => When::Next(rng.range_inclusive(1, 4)),
        2 | 3 => When::Near(rng.range_inclusive(500_000, 999_999)),
        4 => When::Timer,
        5 => When::Housekeeping,
        6..=8 => When::Parked(rng.below(PARKED_NS.len() as u64) as usize),
        9 => When::Far(rng.below(64) as u32),
        10 => When::Never,
        _ => When::Again(rng.below(64) as usize),
    }
}

/// The depth of the boot storm, where tens of thousands of events wait
/// in the heap at once: the random cases above stay short (the vendored
/// proptest does not shrink) and hold a few hundred. One seeded case
/// schedules 120,000 events of every class — eight parked classes among
/// them, more than there are runs — with a pop after every fourth
/// schedule on average, so the queue deepens as the clock moves; then it
/// pops to four deadlines with `pop_due` and pops the rest. Every
/// accessor is checked after every step.
#[test]
fn a_storm_deep_queue_matches_the_reference() {
    let mut rng = SplitMix64::new(1983);
    let mut pair = Pair::new();
    let mut deepest = 0;
    while pair.scheduled < 120_000 {
        let when = storm_when(&mut rng);
        let count = rng.range_inclusive(1, 3) as usize;
        pair.apply(Op::Schedule(when, count));
        if rng.below(4) == 0 {
            pair.apply(Op::Pop(1));
        }
        deepest = deepest.max(pair.model.len());
    }
    assert!(deepest >= 50_000, "only {deepest} events were ever pending");
    for when in [
        When::Near(750_000),
        When::Timer,
        When::Parked(3),
        When::Parked(5),
    ] {
        let deadline = pair.instant(when);
        while pair.pop_due(deadline) {
            pair.check();
        }
        pair.check();
    }
    pair.drain();
    assert_eq!(pair.queue.now(), SimTime::MAX);
}
