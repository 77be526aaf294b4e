//! Where a transport puts what it delivers.
//!
//! A transmit used to append one [`Delivery`] per receiver to a caller's
//! vector. For a clean broadcast that is a thousand identical records
//! saying "this frame, this instant, the next station of the segment":
//! the transport now says it once, as a [`StationRun`], and whoever
//! consumes it decides whether the stations need records of their own.
//! The kernel does not (it schedules one arrival event per run and walks
//! the stations at dispatch); a `Vec<Delivery>` does, and expands the run
//! into exactly the deliveries the per-receiver loop produced.

use std::ops::Range;
use std::rc::Rc;

use v_sim::SimTime;

use crate::frame::{Frame, MacAddr};
use crate::medium::Delivery;

/// One clean copy of a broadcast arriving at each of a run of
/// consecutive stations of one segment, all at one instant.
///
/// Only a copy nothing can happen to is part of a run: where a fault
/// plan or the collision bug draws a fate per station, every station
/// gets a [`Delivery`] of its own, in the same station order.
#[derive(Debug, Clone)]
pub struct StationRun {
    /// Arrival instant at every station of the run.
    pub at: SimTime,
    /// The frame as transmitted (`frame.dst` is the broadcast address);
    /// each station receives it addressed to itself.
    pub frame: Frame,
    /// The segment's station list, in address order, shared by every run
    /// on that segment.
    pub stations: Rc<[MacAddr]>,
    /// The part of `stations` this run reaches.
    pub range: Range<usize>,
}

impl StationRun {
    /// The stations the run reaches, in address order.
    pub fn receivers(&self) -> &[MacAddr] {
        &self.stations[self.range.clone()]
    }

    /// Cuts the run in two before its `mid`-th receiver: `self` keeps
    /// the receivers in front, the returned run has the rest.
    ///
    /// # Panics
    ///
    /// Panics if the run has fewer than `mid` receivers.
    pub fn split_off(&mut self, mid: usize) -> StationRun {
        assert!(mid <= self.range.len(), "split past the end of the run");
        let cut = self.range.start + mid;
        let tail = StationRun {
            range: cut..self.range.end,
            ..self.clone()
        };
        self.range.end = cut;
        tail
    }
}

/// The consumer of a transport's deliveries, in delivery order.
pub trait DeliverySink {
    /// One frame arriving at one station.
    fn deliver(&mut self, delivery: Delivery);

    /// One frame arriving, clean, at each of a run of stations.
    fn deliver_run(&mut self, run: StationRun);
}

/// Every station gets a record of its own: a run expands to the
/// deliveries of its receivers, in order, each holding the transmitted
/// payload buffer. (The only sink a `Vec` is: a call site that passes
/// `&mut Vec::new()` infers its element type from this.)
impl DeliverySink for Vec<Delivery> {
    fn deliver(&mut self, delivery: Delivery) {
        self.push(delivery);
    }

    fn deliver_run(&mut self, run: StationRun) {
        self.extend(run.receivers().iter().map(|&dst| Delivery {
            at: run.at,
            dst,
            frame: Frame {
                dst,
                ..run.frame.clone()
            },
            corrupted: false,
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::EtherType;

    fn run_of(stations: &[u16], range: Range<usize>) -> StationRun {
        StationRun {
            at: SimTime::from_micros(7),
            frame: Frame::new(
                MacAddr::BROADCAST,
                MacAddr(9),
                EtherType::RAW_BENCH,
                vec![1, 2, 3],
            ),
            stations: stations.iter().copied().map(MacAddr).collect(),
            range,
        }
    }

    #[test]
    fn a_vec_expands_a_run_to_one_addressed_delivery_per_receiver() {
        let run = run_of(&[1, 2, 3, 4, 5], 1..4);
        let mut out: Vec<Delivery> = Vec::new();
        out.deliver_run(run.clone());
        let dsts: Vec<u16> = out.iter().map(|d| d.dst.0).collect();
        assert_eq!(dsts, [2, 3, 4]);
        for d in &out {
            assert_eq!(d.at, run.at);
            assert_eq!(d.frame.dst, d.dst);
            assert_eq!(d.frame.src, MacAddr(9));
            assert!(Rc::ptr_eq(&d.frame.payload, &run.frame.payload));
            assert!(!d.corrupted);
        }
    }

    #[test]
    fn split_off_cuts_between_receivers() {
        let mut run = run_of(&[1, 2, 3, 4, 5], 1..5);
        let tail = run.split_off(3);
        assert_eq!(run.receivers(), [MacAddr(2), MacAddr(3), MacAddr(4)]);
        assert_eq!(tail.receivers(), [MacAddr(5)]);
        let empty = run.split_off(3);
        assert!(empty.receivers().is_empty());
        assert_eq!(run.receivers().len(), 3);
    }
}
