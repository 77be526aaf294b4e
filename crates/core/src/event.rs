//! Cluster event vocabulary.

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

    /// The host index occupying station address `mac` — the inverse of
    /// [`HostId::station_mac`], used to route a frame delivery to its
    /// receiving host.
    pub fn from_station_mac(mac: MacAddr) -> HostId {
        HostId((mac.0 >> 8) as usize * 255 + (mac.0 & 0xFF) as usize - 1)
    }
}

impl std::fmt::Display for HostId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "host{}", self.0)
    }
}

/// Identifies an outbound data stream being paced chunk-by-chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamKey {
    /// A `MoveTo` in progress, keyed by the mover's local uid.
    Move {
        /// Mover's local uid.
        mover: u16,
    },
    /// A `MoveFrom` service stream (this kernel is the data source),
    /// keyed by requester pid and transfer sequence number.
    Serve {
        /// Requesting process (raw pid).
        requester: u32,
        /// Transfer sequence number.
        seq: u32,
    },
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

/// Everyone a run of same-instant deliveries reaches, when that is more
/// than one station.
///
/// The receivers share the frame — and so its payload buffer — instead
/// of holding a copy each: a station costs two bytes here.
#[derive(Debug)]
pub struct FanOut {
    /// The stations the event's frame reaches, in delivery order. Each
    /// is handed the frame addressed to itself.
    pub stations: Box<[MacAddr]>,
    /// The run's other frames with their stations, in delivery order: a
    /// copy corrupted in flight has bytes of its own, so it (and the
    /// clean copies after it) cannot share the event's frame. Empty —
    /// and unallocated — when nothing was corrupted.
    pub split: Vec<(Frame, Box<[MacAddr]>)>,
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
        /// Which stream.
        key: StreamKey,
    },
}
