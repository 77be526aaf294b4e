//! Property tests for the alien table: duplicate filtering must be
//! correct under arbitrary interleavings of fresh sends, retransmissions
//! and stale packets.

use proptest::prelude::*;

use v_kernel::aliens::{AlienState, AlienTable, Appended, SendVerdict};
use v_kernel::pid::{LogicalHost, Pid};

fn pid(l: u16) -> Pid {
    Pid::new(LogicalHost(2), l)
}

fn none() -> Appended {
    Appended {
        packet: [].into(),
        len: 0,
        from: 0,
    }
}

proptest! {
    /// For any packet schedule: a given (src, seq) is delivered at most
    /// once, and every Deliver carries a seq strictly newer than the
    /// previous delivered seq of that source.
    #[test]
    fn at_most_once_delivery_per_exchange(
        // (source index 0..3, seq 1..20) arrival schedule with repeats.
        schedule in prop::collection::vec((0u16..3, 1u32..20), 1..120),
        replied in prop::collection::vec(any::<bool>(), 1..120),
    ) {
        let mut table = AlienTable::new(8);
        let dst = pid(0x99);
        let mut last_delivered: [Option<u32>; 3] = [None; 3];
        for (i, &(s, seq)) in schedule.iter().enumerate() {
            let src = pid(s + 1);
            let verdict = table.admit(src, seq, dst, [0u8; 32], none());
            match verdict {
                SendVerdict::Deliver => {
                    if let Some(prev) = last_delivered[s as usize] {
                        prop_assert!(
                            seq.wrapping_sub(prev) as i32 > 0,
                            "redelivered old seq {seq} after {prev}"
                        );
                    }
                    last_delivered[s as usize] = Some(seq);
                    // Simulate the receiver eventually replying (or not).
                    if replied[i % replied.len()] {
                        table.get_mut(src).unwrap().state = AlienState::Replied {
                            packet: [seq as u8].into(),
                            at: v_sim::SimTime::ZERO,
                        };
                    } else {
                        table.get_mut(src).unwrap().state = AlienState::Delivered;
                    }
                }
                SendVerdict::RetransmitReply(p) => {
                    // Only ever for the exchange that was last delivered
                    // and replied.
                    prop_assert_eq!(last_delivered[s as usize], Some(seq));
                    prop_assert_eq!(&p[..], &[seq as u8][..]);
                }
                SendVerdict::ReplyPending | SendVerdict::Drop => {}
            }
        }
    }

    /// The pool never exceeds its capacity, whatever the schedule.
    #[test]
    fn pool_respects_capacity(
        cap in 1usize..6,
        schedule in prop::collection::vec((0u16..12, 1u32..6), 1..200),
    ) {
        let mut table = AlienTable::new(cap);
        let dst = pid(0x99);
        for &(s, seq) in &schedule {
            let _ = table.admit(pid(s + 1), seq, dst, [0u8; 32], none());
            prop_assert!(table.len() <= cap, "{} > {cap}", table.len());
        }
    }

    /// Sweeping only ever removes replied aliens, and repeated sweeps are
    /// idempotent at a fixed time.
    #[test]
    fn sweep_removes_only_replied(
        n in 1u16..10,
        reply_mask in any::<u16>(),
    ) {
        let mut table = AlienTable::new(16);
        let dst = pid(0x99);
        for i in 0..n {
            table.admit(pid(i + 1), 1, dst, [0u8; 32], none());
            if reply_mask & (1 << i) != 0 {
                table.get_mut(pid(i + 1)).unwrap().state = AlienState::Replied {
                    packet: [].into(),
                    at: v_sim::SimTime::ZERO,
                };
            }
        }
        let replied = (0..n).filter(|i| reply_mask & (1 << i) != 0).count();
        let now = v_sim::SimTime::from_millis(10_000);
        let keep = v_sim::SimDuration::from_millis(100);
        let freed = table.sweep(now, keep);
        prop_assert_eq!(freed, replied);
        prop_assert_eq!(table.len(), n as usize - replied);
        prop_assert_eq!(table.sweep(now, keep), 0);
    }
}
