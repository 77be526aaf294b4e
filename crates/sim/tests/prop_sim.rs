//! Property tests for the simulation engine.

use proptest::prelude::*;
use v_sim::{EventQueue, SimDuration, SimTime};

proptest! {
    /// Events always pop in non-decreasing time order, and same-time
    /// events pop in scheduling order.
    #[test]
    fn queue_pops_sorted_and_stable(times in prop::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, idx)) = q.pop() {
            if let Some((lt, lidx)) = last {
                prop_assert!(t >= lt);
                if t == lt {
                    prop_assert!(idx > lidx, "same-time events must be FIFO");
                }
            }
            prop_assert_eq!(t, SimTime::from_nanos(times[idx]));
            last = Some((t, idx));
        }
        prop_assert_eq!(q.now(), SimTime::from_nanos(*times.iter().max().unwrap()));
    }

    /// Duration arithmetic is consistent with nanosecond arithmetic.
    #[test]
    fn duration_arithmetic(a in 0u64..1u64<<40, b in 0u64..1u64<<40, k in 0u64..1000) {
        let da = SimDuration::from_nanos(a);
        let db = SimDuration::from_nanos(b);
        prop_assert_eq!((da + db).as_nanos(), a + b);
        prop_assert_eq!((da - db).as_nanos(), a.saturating_sub(b));
        prop_assert_eq!((da * k).as_nanos(), a * k);
        let t = SimTime::from_nanos(a) + db;
        prop_assert_eq!(t.as_nanos(), a + b);
        prop_assert_eq!((t - SimTime::from_nanos(a)).as_nanos(), b);
    }
}
