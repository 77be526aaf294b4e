//! How a frame reaches hosts.
//!
//! An arrival event carries a frame of one station's own or a run of
//! stations; this module turns it into `handle_frame` calls, host by
//! host, and keeps what the cluster knows of each network segment: the
//! charge log a name query's receivers owe, and the hosts that must
//! hear it anyway.

use v_net::sink::receivers;
use v_net::{EtherType, Frame, MacAddr};
use v_sim::SimTime;
use v_wire::{Packet, PacketBody};

use crate::cluster::Cluster;
use crate::cpu::{ChargeLog, CpuSpeed};
use crate::event::{HostId, Reach};
use crate::host::Lane;
use crate::ipc::dispatch::{decode_frame, rx_cost, Decoded};

/// What the cluster keeps of one network segment for the name queries
/// it hears. A query reaches every host of the segment but its sender;
/// it is charged to the deferred lanes as one entry of `log`, and handed
/// only to the `exceptions`.
#[derive(Debug, Default)]
pub(crate) struct Segment {
    /// Receive charges its deferred lanes owe.
    pub(crate) log: ChargeLog,
    /// Its hosts whose lanes are not deferred, in station order — and
    /// any that have become deferred since the last query logged here,
    /// which that query drops.
    pub(crate) exceptions: Vec<u32>,
}

impl Segment {
    /// Charges a deferred lane what it owes the log.
    #[inline]
    fn catch_up(&self, lane: &mut Lane) {
        if lane.deferred() && (lane.cursor as usize) < self.log.len() {
            self.log.catch_up(&mut lane.cpu, &mut lane.cursor);
        }
    }

    /// Sets `host`'s lane's `quiet` and `up` flags, moving it into or out
    /// of the deferred state: a lane that leaves is caught up and joins
    /// the exceptions, a lane that enters owes nothing logged before.
    pub(crate) fn redefer(&mut self, lane: &mut Lane, host: HostId, quiet: bool, up: bool) {
        let was = lane.deferred();
        (lane.quiet, lane.up) = (quiet, up);
        if was && !lane.deferred() {
            self.log.catch_up(&mut lane.cpu, &mut lane.cursor);
            let h = host.0 as u32;
            if let Err(at) = self.exceptions.binary_search(&h) {
                self.exceptions.insert(at, h);
            }
        } else if !was && lane.deferred() {
            lane.cursor = self.log.len() as u32;
        }
    }
}

impl Cluster {
    /// Charges `host`'s lane what its segment's log holds for it, unless
    /// it has seen every entry logged so far: what anything that reads
    /// or charges its processor does first.
    #[inline]
    pub(crate) fn catch_up_lane(&mut self, host: HostId) {
        let lane = &mut self.lanes[host.0];
        if lane.seen != self.logged {
            lane.seen = self.logged;
            self.segments[lane.seg as usize].catch_up(lane);
        }
    }

    /// Dispatches one frame to every station it reaches.
    ///
    /// A frame of one station's own (a unicast, or a copy a fault plan
    /// gave a fate of its own) is that host's to decode and keep. A run
    /// is decoded once for all its receivers. A name query's run is
    /// logged ([`Cluster::log_query`]). Every receiver of anything else
    /// goes through `handle_frame`, in station order. (Kept out of
    /// `dispatch`: inlined, it costs the unicast path.)
    #[inline(never)]
    pub(crate) fn dispatch_fan_out(&mut self, t: SimTime, mut frame: Frame, reach: Reach) {
        let Reach::Run { stations, len } = reach else {
            return self.dispatch_one(t, &frame);
        };
        let stations = &stations[..len];
        // The packet borrows its data from a copy of the frame (a handle
        // on the same buffer), so that the frame itself can be addressed
        // to each receiver in turn.
        let shared = frame.clone();
        let decoded = (frame.ethertype == EtherType::INTERKERNEL)
            .then(|| decode_frame(&self.cfg.protocol, &shared));
        let name_query = matches!(
            &decoded,
            Some(Ok((
                Packet {
                    body: PacketBody::GetPidReq(_),
                    ..
                },
                _
            )))
        );
        if name_query {
            return self.log_query(t, frame, &decoded, stations);
        }
        for station in receivers(stations, frame.src) {
            let Some(host) = self.host_at(station) else {
                continue;
            };
            if self.hears(host) {
                frame.dst = station;
                self.ctx(host).handle_frame(t, &frame, decoded.as_ref());
            }
        }
    }

    /// A name query's run, which reaches every host of a segment but the
    /// sender: counted once per receiver, charged to the segment's
    /// deferred lanes as one entry of its log — the sender's, if it is
    /// one of them, skips it; a full log is folded first — and handed to
    /// the segment's exceptions, in station order: by `Host::quiet`
    /// nothing but the charge comes of it anywhere else. Debug builds
    /// check both halves of that, lane by lane: the run covers every
    /// host of the segment in order (the sender's station too, which its
    /// readers skip), and every lane's `quiet` bit is current.
    fn log_query(
        &mut self,
        t: SimTime,
        mut frame: Frame,
        decoded: &Option<Decoded<'_>>,
        stations: &[MacAddr],
    ) {
        let first = self.host_at(stations[0]).expect("a run reaches hosts");
        let seg = self.lanes[first.0].seg as usize;
        let sender = self
            .host_at(frame.src)
            .filter(|h| self.lanes[h.0].seg as usize == seg);
        self.events_dispatched += (stations.len() - sender.is_some() as usize) as u64;
        if cfg!(debug_assertions) {
            let mut run = stations.iter();
            for (h, lane) in self.lanes.iter().enumerate() {
                if lane.seg as usize != seg {
                    continue;
                }
                assert!(
                    lane.quiet == self.hosts[h].quiet(),
                    "host{h}: a change to what Host::quiet reads must call Lane::requiet"
                );
                assert_eq!(
                    run.next(),
                    Some(&HostId(h).station_mac()),
                    "a name query's run covers every host of its segment, in order"
                );
            }
            assert_eq!(run.next(), None, "a run covers the hosts of one segment");
        }
        if self.logged == u32::MAX {
            // Counted round, a lane's `seen` could come back into step
            // with entries it owes: every lane catches up, and the count
            // starts over.
            for lane in &mut self.lanes {
                self.segments[lane.seg as usize].catch_up(lane);
                lane.seen = 0;
            }
            self.logged = 0;
        }
        let log = &mut self.segments[seg].log;
        if log.is_full() {
            let owing = (self.lanes.iter_mut()).filter(|l| l.seg as usize == seg && l.deferred());
            log.fold(owing.map(|l| (&mut l.cpu, &mut l.cursor)));
        }
        let len = frame.payload.len();
        let cost =
            CpuSpeed::ALL.map(|g| rx_cost(&self.grade_costs[g as usize], &self.cfg.protocol, len));
        let sender_lane = sender
            .map(|h| &mut self.lanes[h.0])
            .filter(|l| l.deferred())
            .map(|l| (&mut l.cpu, &mut l.cursor));
        log.push(t, cost, sender_lane);
        self.logged += 1;
        let mut exceptions = std::mem::take(&mut self.segments[seg].exceptions);
        exceptions.retain(|&h| {
            let host = HostId(h as usize);
            if self.lanes[host.0].deferred() {
                return false;
            }
            if Some(host) != sender && self.live(host) {
                frame.dst = host.station_mac();
                self.ctx(host).handle_frame(t, &frame, decoded.as_ref());
            }
            true
        });
        debug_assert!(self.segments[seg].exceptions.is_empty());
        self.segments[seg].exceptions = exceptions;
    }

    /// Dispatches a frame of one station's own to the host `frame.dst`
    /// addresses. Nobody hears a frame no interface matches.
    #[inline]
    pub(crate) fn dispatch_one(&mut self, t: SimTime, frame: &Frame) {
        if let Some(host) = self.host_at(frame.dst) {
            if self.hears(host) {
                self.ctx(host).handle_frame(t, frame, None);
            }
        }
    }

    /// The host whose interface answers to station address `mac`, if the
    /// cluster has one.
    fn host_at(&self, mac: MacAddr) -> Option<HostId> {
        HostId::from_station_mac(mac).filter(|h| h.0 < self.hosts.len())
    }

    /// Counts one frame arrival at `host` as a logical event and applies
    /// the crashed-host check.
    fn hears(&mut self, host: HostId) -> bool {
        self.events_dispatched += 1;
        self.live(host)
    }

    /// The crashed-host check of a frame arrival: false, and counted, if
    /// the bits died at a dead interface.
    fn live(&mut self, host: HostId) -> bool {
        let up = self.lanes[host.0].up;
        if !up {
            self.hosts[host.0].stats.frames_dropped_down += 1;
        }
        up
    }
}
