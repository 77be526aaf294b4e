//! Where a transport puts what it delivers.
//!
//! A transmit used to append one [`Delivery`] per receiver to a caller's
//! vector. For a clean broadcast that is a thousand identical records
//! saying "this frame, this instant, the next station of the segment":
//! the transport now says it once per segment, as a [`StationRun`], and
//! whoever consumes it decides whether the stations need records of their
//! own. The kernel does not (it schedules one arrival event per run and
//! walks the stations at dispatch); a `Vec<Delivery>` does, and expands
//! the run into exactly the deliveries the per-receiver loop produced.

use std::rc::Rc;

use v_sim::SimTime;

use crate::frame::{Frame, MacAddr};
use crate::medium::Delivery;

/// One clean copy of a broadcast arriving, all at one instant, at each
/// of the first `len` stations of one segment but the frame's sender.
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
    /// How many of `stations`, from the first, the run covers: all of
    /// them, or on a mesh the hosts in front of the gateways.
    pub len: usize,
}

impl StationRun {
    /// The stations the run reaches, in address order.
    pub fn receivers(&self) -> impl Iterator<Item = MacAddr> + '_ {
        receivers(&self.stations[..self.len], self.frame.src)
    }
}

/// The stations a broadcast from `src` reaches of `stations`, in order:
/// all of them but `src` — a station never hears itself.
pub fn receivers(stations: &[MacAddr], src: MacAddr) -> impl Iterator<Item = MacAddr> + '_ {
    stations.iter().copied().filter(move |&m| m != src)
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
        self.extend(run.receivers().map(|dst| Delivery {
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

    #[test]
    fn a_vec_expands_a_run_to_one_addressed_delivery_per_receiver() {
        let run = StationRun {
            at: SimTime::from_micros(7),
            frame: Frame::new(
                MacAddr::BROADCAST,
                MacAddr(3),
                EtherType::RAW_BENCH,
                vec![1, 2, 3],
            ),
            stations: [1, 2, 3, 4, 5].map(MacAddr).into(),
            len: 4,
        };
        let mut out: Vec<Delivery> = Vec::new();
        out.deliver_run(run.clone());
        let dsts: Vec<u16> = out.iter().map(|d| d.dst.0).collect();
        assert_eq!(dsts, [1, 2, 4], "the first four but the sender");
        for d in &out {
            assert_eq!(d.at, run.at);
            assert_eq!(d.frame.dst, d.dst);
            assert_eq!(d.frame.src, MacAddr(3));
            assert!(Rc::ptr_eq(&d.frame.payload, &run.frame.payload));
            assert!(!d.corrupted);
        }
    }
}
