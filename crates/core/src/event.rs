//! Cluster event vocabulary.

use std::rc::Rc;

use v_net::{Frame, MacAddr};

use crate::pid::Pid;
use crate::program::Outcome;

/// Index of a host within the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(pub usize);

impl HostId {
    /// Largest number of hosts the station-address plan can place
    /// (station addresses stop short of the reserved gateway range).
    pub const MAX_HOSTS: usize = 255 * 255;

    /// The station address host `i` occupies.
    ///
    /// Hosts `0..255` get addresses `1..=255` — identical to the paper's
    /// 8-bit plan, so small clusters keep their historic addresses.
    /// Beyond that the plan tiles further 255-address blocks upward
    /// (`256 + 1..`), always skipping low-byte-zero addresses so the
    /// [`crate::pid::LogicalHost`] station encoding stays unambiguous,
    /// and never reaching the gateway range at `0xFF00`.
    pub fn station_mac(self) -> MacAddr {
        assert!(self.0 < Self::MAX_HOSTS, "host index {self} out of range");
        MacAddr(((self.0 / 255) as u16) << 8 | (self.0 % 255 + 1) as u16)
    }

    /// The host index the station-address plan puts at `mac` — the
    /// inverse of [`HostId::station_mac`], used to route a frame
    /// delivery to its receiving host — or `None` for an address the
    /// plan never hands out (a zero low byte). The index may still lie
    /// past the end of a particular cluster: a frame can be addressed to
    /// a station nobody attached.
    pub fn from_station_mac(mac: MacAddr) -> Option<HostId> {
        let low = (mac.0 & 0xFF) as usize;
        (low != 0).then(|| HostId((mac.0 >> 8) as usize * 255 + low - 1))
    }
}

impl std::fmt::Display for HostId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "host{}", self.0)
    }
}

/// Names one bulk-data stream in a host's outbound or inbound table:
/// the process at the far end and the sequence number the stream's
/// initiator — the `MoveTo` mover, the `MoveFrom` requester — gave it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamKey {
    /// The remote peer (raw pid).
    pub peer: u32,
    /// Transfer sequence number.
    pub seq: u32,
}

impl StreamKey {
    /// The key of the stream numbered `seq` whose far end is `peer`.
    pub fn new(peer: Pid, seq: u32) -> StreamKey {
        StreamKey {
            peer: peer.raw(),
            seq,
        }
    }
}

/// Kernel timers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerKind {
    /// Message-exchange retransmission timer.
    Retransmit {
        /// The blocked sender.
        pid: Pid,
        /// Exchange sequence number the timer guards.
        seq: u32,
    },
    /// Bulk-transfer stall timer.
    TransferStall {
        /// The blocked mover / requester.
        pid: Pid,
        /// Transfer instance this timer guards (its sequence number);
        /// timers outlive transfers, so the match must be explicit.
        seq: u32,
        /// Progress marker at the time the timer was set; the timer is
        /// stale if progress has been made since.
        marker: u32,
    },
    /// Broadcast `GetPid` response timeout.
    GetPid {
        /// The blocked querier.
        pid: Pid,
        /// Logical id being resolved.
        logical_id: u32,
    },
    /// Periodic alien / transfer-state garbage collection.
    Housekeeping,
    /// A timer requested by a raw protocol handler (baselines).
    Raw {
        /// Handler's ethertype discriminator value.
        ethertype: u16,
        /// Handler-chosen token.
        token: u64,
    },
}

/// Who one frame of a fan-out reaches.
#[derive(Debug)]
pub enum Reach {
    /// The station `frame.dst` addresses: a copy the transport gave a
    /// fate of its own (a fault plan or the collision bug was at work).
    One,
    /// The first `len` of `stations` but the frame's sender, in order,
    /// each handed the frame addressed to itself: a segment's run of
    /// clean copies of a broadcast ([`v_net::StationRun`]). `stations` is
    /// the transport's own list of the segment, shared, so a receiver
    /// costs nothing here.
    Run {
        /// Every station of the segment, in address order.
        stations: Rc<[MacAddr]>,
        /// How many of them, from the first, the run covers.
        len: usize,
    },
}

/// Everyone a sequence of same-instant deliveries reaches, when that is
/// more than one station.
#[derive(Debug)]
pub struct FanOut {
    /// Who the event's own frame reaches.
    pub reach: Reach,
    /// The deliveries that followed at the same instant, in delivery
    /// order: the next segment of a flood if it arrives at the same
    /// nanosecond, or — under a fault plan — the other stations' copies
    /// one by one. Empty, and unallocated, for a broadcast's run on one
    /// segment.
    pub rest: Vec<(Frame, Reach)>,
}

/// Events driving the cluster.
#[derive(Debug)]
pub enum Event {
    /// Resume a process with a completed operation.
    Resume {
        /// Host the process lives on.
        host: HostId,
        /// The process.
        pid: Pid,
        /// What completed.
        outcome: Outcome,
    },
    /// Frames finished arriving at host interfaces, all at one instant:
    /// a unicast, or a broadcast's fan-out coalesced into a single
    /// scheduling event so a 1000-receiver broadcast costs one queue
    /// entry instead of a thousand. Every receiver is dispatched in
    /// delivery order, each with its own crashed-host check.
    ///
    /// Every queued event is as large as the largest variant, and the
    /// bytes of the variant in use are what each schedule and dispatch
    /// moves: a unicast stays at a frame and a pointer because eight
    /// bytes more cost the unicast workloads 5 % of their wall-clock.
    Arrival {
        /// The frame (payload possibly corrupted in flight). A unicast
        /// reaches the host `frame.dst` addresses.
        frame: Frame,
        /// Everyone a fan-out reaches; `None` — nothing allocated — for
        /// a unicast.
        fan_out: Option<Box<FanOut>>,
    },
    /// A kernel timer fired.
    Timer {
        /// Host whose timer fired.
        host: HostId,
        /// Which timer.
        kind: TimerKind,
    },
    /// The next chunk of an outbound data stream may be transmitted
    /// (previous frame left the single-buffered interface).
    ChunkReady {
        /// Host doing the streaming.
        host: HostId,
        /// Which of its outbound streams.
        key: StreamKey,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_event_is_no_larger_than_it_was() {
        // Every queued event is as large as the largest variant; 56
        // bytes is what PR 22 left (see `Event::Arrival`).
        assert!(std::mem::size_of::<Event>() <= 56);
    }
}
