//! The per-segment charge log as a model check: a segment's processors
//! charged through a [`ChargeLog`] — the way `Cluster` charges the name
//! queries a segment hears — against one eager [`Cpu`] per processor
//! charged at every step, with `busy_until` and `busy_total` equal after
//! every step, and every read equal to the last bit.
//!
//! The steps are random interleavings of what a cluster does to a
//! segment's lanes: eager charges (a lane's own work), name queries every
//! lane hears (logged for the deferred lanes, charged to the rest, with
//! and without a sender on the segment), a lane turning quiet or not and
//! crashing or restarting (entering and leaving the deferred state),
//! folds (explicit, and when the log fills), and reads of a lane through
//! `cpu_busy` / `cpu_utilization`'s view. Processors of both grades share
//! every segment, so one entry's two costs are both used.
//!
//! A failing case prints its operation list (the vendored proptest does
//! not shrink, so the lists are kept short instead); CI runs this at
//! `PROPTEST_CASES=5000` in debug and release beside the goldens.

use proptest::prelude::*;
use v_kernel::cpu::{ChargeLog, Cpu, CpuSpeed};
use v_sim::{SimDuration, SimTime};

#[derive(Debug, Clone, Copy)]
enum Op {
    /// The clock moves on by this many nanoseconds (0: the same instant).
    Tick(u64),
    /// A lane's own work: `cost` nanoseconds charged now.
    Charge { lane: usize, cost: u64 },
    /// A name query heard by every lane but `sender`'s, costing each
    /// grade its own amount.
    Query {
        sender: Option<usize>,
        cost: [u64; CpuSpeed::GRADES],
    },
    /// `n` such queries, one per tick of `gap` nanoseconds — enough of
    /// them to fill the log.
    Queries {
        n: usize,
        gap: u64,
        cost: [u64; CpuSpeed::GRADES],
    },
    /// What `Host::quiet` says of the lane changes.
    FlipQuiet(usize),
    /// The lane's host crashes or restarts.
    FlipUp(usize),
    /// The log is folded into the lanes that owe it.
    Fold,
    /// The lane is read through the views.
    Read(usize),
}

const LANES: usize = 6;

fn lane() -> impl Strategy<Value = usize> {
    0..LANES
}

/// Receive costs by grade, zero as one of them now and then.
fn cost() -> impl Strategy<Value = [u64; CpuSpeed::GRADES]> {
    prop_oneof![
        (0u64..900, 0u64..900).prop_map(|(a, b)| [a, b]),
        (0u64..900).prop_map(|a| [a, 0]),
        Just([500, 385]),
    ]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        prop_oneof![Just(0u64), 0u64..400, 0u64..5_000].prop_map(Op::Tick),
        (lane(), 0u64..2_000).prop_map(|(lane, cost)| Op::Charge { lane, cost }),
        (cost(), 0usize..LANES + 2).prop_map(|(cost, s)| Op::Query {
            sender: (s < LANES).then_some(s),
            cost
        }),
        (cost(), 0usize..LANES + 2).prop_map(|(cost, s)| Op::Query {
            sender: (s < LANES).then_some(s),
            cost
        }),
        lane().prop_map(Op::FlipQuiet),
        lane().prop_map(Op::FlipUp),
        Just(Op::Fold),
        lane().prop_map(Op::Read),
    ]
}

fn long_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        op(),
        (400usize..700, prop_oneof![Just(0u64), 0u64..600], cost())
            .prop_map(|(n, gap, cost)| Op::Queries { n, gap, cost }),
    ]
}

/// Grades in lane order: both on every segment, the rest at random.
fn grades() -> impl Strategy<Value = Vec<bool>> {
    prop::collection::vec(any::<bool>(), LANES - 2..LANES - 1)
}

/// One lane as the cluster keeps it, beside its eager reference.
struct Lane {
    cpu: Cpu,
    cursor: u32,
    quiet: bool,
    up: bool,
    eager: Cpu,
}

impl Lane {
    fn deferred(&self) -> bool {
        self.quiet && self.up
    }
}

/// A segment's lanes and log.
struct Segment {
    now: SimTime,
    log: ChargeLog,
    lanes: Vec<Lane>,
}

impl Segment {
    fn new(grades: &[bool]) -> Segment {
        let speeds = CpuSpeed::ALL
            .into_iter()
            .chain(grades.iter().map(|&ten| CpuSpeed::ALL[ten as usize]));
        let lanes = speeds
            .enumerate()
            .map(|(i, speed)| Lane {
                cpu: Cpu::new(speed),
                cursor: 0,
                quiet: i % 3 != 1,
                up: true,
                eager: Cpu::new(speed),
            })
            .collect();
        Segment {
            now: SimTime::ZERO,
            log: ChargeLog::new(),
            lanes,
        }
    }

    /// What `Cluster::cpu_busy` / `cpu_utilization` read.
    fn view(&self, i: usize) -> Cpu {
        let lane = &self.lanes[i];
        if lane.deferred() {
            self.log.caught_up(&lane.cpu, lane.cursor)
        } else {
            lane.cpu.clone()
        }
    }

    fn fold(&mut self) {
        let owing = self.lanes.iter_mut().filter(|l| l.deferred());
        self.log.fold(owing.map(|l| (&mut l.cpu, &mut l.cursor)));
    }

    /// A lane's flags change: `Segment::redefer` of the cluster.
    fn redefer(&mut self, i: usize, quiet: bool, up: bool) {
        let lane = &mut self.lanes[i];
        let was = lane.deferred();
        (lane.quiet, lane.up) = (quiet, up);
        if was && !lane.deferred() {
            self.log.catch_up(&mut lane.cpu, &mut lane.cursor);
        } else if !was && lane.deferred() {
            lane.cursor = self.log.len() as u32;
        }
    }

    fn query(&mut self, sender: Option<usize>, cost: [u64; CpuSpeed::GRADES]) {
        let t = self.now;
        let cost = cost.map(SimDuration::from_nanos);
        if self.log.is_full() {
            self.fold();
        }
        let sender_lane = sender
            .map(|s| &mut self.lanes[s])
            .filter(|l| l.deferred())
            .map(|l| (&mut l.cpu, &mut l.cursor));
        self.log.push(t, cost, sender_lane);
        for (i, lane) in self.lanes.iter_mut().enumerate() {
            if Some(i) == sender || !lane.up {
                continue;
            }
            let c = cost[lane.eager.speed() as usize];
            lane.eager.charge(t, c);
            if !lane.deferred() {
                lane.cpu.charge(t, c);
            }
        }
    }

    fn apply(&mut self, op: Op) {
        match op {
            Op::Tick(dt) => self.now += SimDuration::from_nanos(dt),
            Op::Charge { lane, cost } => {
                let t = self.now;
                let cost = SimDuration::from_nanos(cost);
                let l = &mut self.lanes[lane];
                if !l.up {
                    return;
                }
                if l.deferred() {
                    self.log.catch_up(&mut l.cpu, &mut l.cursor);
                }
                assert_eq!(l.cpu.charge(t, cost), l.eager.charge(t, cost), "{op:?}");
            }
            Op::Query { sender, cost } => self.query(sender, cost),
            Op::Queries { n, gap, cost } => {
                for i in 0..n {
                    self.now += SimDuration::from_nanos(gap);
                    self.query((i % 3 == 0).then_some(i % LANES), cost);
                }
            }
            Op::FlipQuiet(i) => {
                let (quiet, up) = (!self.lanes[i].quiet, self.lanes[i].up);
                self.redefer(i, quiet, up);
            }
            Op::FlipUp(i) => {
                let (quiet, up) = (self.lanes[i].quiet, !self.lanes[i].up);
                self.redefer(i, quiet, up);
            }
            Op::Fold => self.fold(),
            Op::Read(i) => {
                let (seen, eager) = (self.view(i), &self.lanes[i].eager);
                assert_eq!(seen.busy_total(), eager.busy_total(), "{op:?}");
                let (a, b) = (seen.utilization(self.now), eager.utilization(self.now));
                assert_eq!(a.to_bits(), b.to_bits(), "{op:?}");
            }
        }
    }

    /// Every lane's view against its eager reference.
    fn check(&self, step: usize, op: Op) {
        for i in 0..self.lanes.len() {
            let (seen, eager) = (self.view(i), &self.lanes[i].eager);
            assert_eq!(
                (seen.busy_until(), seen.busy_total()),
                (eager.busy_until(), eager.busy_total()),
                "lane {i} after step {step} ({op:?})"
            );
        }
    }
}

fn run(grades: &[bool], ops: &[Op]) {
    let mut seg = Segment::new(grades);
    for (step, &op) in ops.iter().enumerate() {
        seg.apply(op);
        seg.check(step, op);
    }
    // Whatever is still owed, caught up at last: the lanes themselves, not
    // only their views, end where the eager ones did.
    seg.fold();
    for lane in &seg.lanes {
        assert_eq!(lane.cpu.busy_until(), lane.eager.busy_until());
        assert_eq!(lane.cpu.busy_total(), lane.eager.busy_total());
    }
}

proptest! {
    #[test]
    fn logged_charges_match_eager_ones(
        grades in grades(),
        ops in prop::collection::vec(op(), 1..60),
    ) {
        run(&grades, &ops);
    }

    #[test]
    fn a_log_that_fills_folds_without_a_trace(
        grades in grades(),
        ops in prop::collection::vec(long_op(), 1..12),
    ) {
        run(&grades, &ops);
    }
}

#[test]
fn a_sender_on_the_segment_is_not_charged_its_own_query() {
    let mut seg = Segment::new(&[true; LANES - 2]);
    seg.apply(Op::Charge { lane: 0, cost: 300 });
    seg.apply(Op::Tick(100));
    seg.apply(Op::Query {
        sender: Some(0),
        cost: [500, 400],
    });
    seg.apply(Op::Tick(100));
    seg.apply(Op::Query {
        sender: None,
        cost: [500, 400],
    });
    seg.check(0, Op::Fold);
    assert!(seg.lanes[0].deferred(), "the sender owes the log");
    assert_eq!(seg.view(0).busy_total(), SimDuration::from_nanos(800));
    assert_eq!(seg.view(2).busy_total(), SimDuration::from_nanos(800));
}

#[test]
fn a_queue_of_queries_is_charged_back_to_back() {
    // Queries faster than a processor takes them: the closed form must
    // find the entry that started the backlog, not the last one — and,
    // for lane 2, which restarts in the middle of it, not one from before
    // it owed the log.
    let mut seg = Segment::new(&[false; LANES - 2]);
    seg.apply(Op::FlipUp(2));
    for (i, gap) in [5_000, 10, 10, 10, 0, 2_000, 0, 0, 1]
        .into_iter()
        .enumerate()
    {
        if i == 3 {
            seg.apply(Op::FlipUp(2));
        }
        seg.apply(Op::Tick(gap));
        seg.apply(Op::Query {
            sender: None,
            cost: [300, 200],
        });
        seg.check(i, Op::Read(2));
    }
    seg.apply(Op::Tick(50));
    seg.apply(Op::Charge { lane: 0, cost: 1 });
    seg.check(9, Op::Charge { lane: 0, cost: 1 });
}
