//! Per-host kernel state.

use std::collections::BTreeSet;

use v_net::Nic;
use v_sim::SimTime;

use crate::aliens::AlienTable;
use crate::costs::CostModel;
use crate::cpu::Cpu;
use crate::error::KernelError;
use crate::event::{HostId, StreamKey};
use crate::fanout::Segment;
use crate::hostmap::{AddressingMode, HostMap};
use crate::naming::NameTable;
use crate::pcb::Pcb;
use crate::pid::{LogicalHost, Pid};
use crate::raw::RawHandler;
use crate::slab::{LinearMap, UidSlab};
use crate::stats::KernelStats;

/// Stall detection for the end of a stream a blocked process waits
/// on: the `MoveTo` mover's, the `MoveFrom` requester's. (The other two
/// ends carry an idle one.)
#[derive(Debug, Default)]
pub struct Stall {
    /// Stall retries remaining.
    pub retries_left: u32,
    /// Progress marker, advanced with every chunk: a stall timer armed
    /// against an older value finds the stream moved on.
    pub marker: u32,
}

/// What put a stream in the outbound table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutRole {
    /// A local process's `MoveTo`: it stays blocked until the far kernel
    /// acknowledges the last chunk, and a stall rewinds the stream.
    Push,
    /// A remote `MoveFrom` served out of a local grantor's space:
    /// unacknowledged, gone when its last chunk is, re-requested by the
    /// far end if that was not enough.
    Serve,
}

/// Bytes leaving this host, chunk by chunk.
#[derive(Debug)]
pub struct OutStream {
    /// Which primitive this stream serves.
    pub role: OutRole,
    /// The local process whose space is read: the mover of a push, the
    /// grantor of a serve.
    pub local: Pid,
    /// The remote process at the far end: the grantor a push writes,
    /// the requester a serve answers.
    pub peer: Pid,
    /// Where byte 0 lies in `local`'s space.
    pub src_addr: u32,
    /// Where byte 0 goes in `peer`'s space (a push says so in every
    /// chunk; a requester knows where it asked for its bytes).
    pub dest_addr: u32,
    /// Total bytes in the stream.
    pub total: u32,
    /// Offset of the next chunk to transmit.
    pub next_off: u32,
    /// Push: last offset known received (the rewind point of a stall).
    pub acked_base: u32,
    /// Push: true once all chunks are out and the completion ack is
    /// awaited.
    pub awaiting_ack: bool,
    /// Push: the mover's stall detection.
    pub stall: Stall,
}

impl OutStream {
    /// A stream of the `total` bytes at `src_addr` in `local`'s space,
    /// none of them sent yet.
    pub fn new(role: OutRole, local: Pid, peer: Pid, src_addr: u32, total: u32) -> OutStream {
        OutStream {
            role,
            local,
            peer,
            src_addr,
            dest_addr: 0,
            total,
            next_off: 0,
            acked_base: 0,
            awaiting_ack: false,
            stall: Stall::default(),
        }
    }
}

/// What put a stream in the inbound table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InRole {
    /// A remote `MoveTo` deposited into a local process under the grant
    /// it sent; this end acknowledges, and keeps the completed stream as
    /// a tombstone that re-acknowledges duplicate chunks.
    Deposit,
    /// A local process's `MoveFrom`: it stays blocked until the last
    /// byte is in, and a stall asks again from the last in-order byte.
    Fetch,
}

/// Bytes arriving at this host, reassembled strictly in order.
#[derive(Debug)]
pub struct InStream {
    /// Which primitive this stream serves.
    pub role: InRole,
    /// The local process whose space is written: the grantor of a
    /// deposit, the requester of a fetch.
    pub local: Pid,
    /// The remote process the bytes come from.
    pub peer: Pid,
    /// Total bytes in the stream.
    pub total: u32,
    /// Next in-order offset expected.
    pub expected: u32,
    /// Deposit: completed (the tombstone).
    pub complete: bool,
    /// Deposit: last activity (for the tombstone's expiry).
    pub last_seen: SimTime,
    /// Fetch: where byte 0 lies in `peer`'s space (to ask again).
    pub src_addr: u32,
    /// Fetch: where byte 0 goes in `local`'s space.
    pub dest_addr: u32,
    /// Fetch: the requester's stall detection.
    pub stall: Stall,
}

impl InStream {
    /// A stream of `total` bytes for `local`'s space, none of them in
    /// yet, opened at `now`.
    pub fn new(role: InRole, local: Pid, peer: Pid, total: u32, now: SimTime) -> InStream {
        InStream {
            role,
            local,
            peer,
            total,
            expected: 0,
            complete: false,
            last_seen: now,
            src_addr: 0,
            dest_addr: 0,
            stall: Stall::default(),
        }
    }
}

/// What a frame arriving at a host reads and writes whoever the frame
/// is for — the receive path's share of the host's state — and the
/// flags that outlive a crash, kept apart from [`Host`] (a kilobyte of
/// tables) in a dense array of its own.
///
/// A lane that is up and `quiet` is *deferred*: the name queries its
/// segment hears are charged to it through the segment's
/// [`ChargeLog`](crate::cpu::ChargeLog), from `cursor` on, when something
/// next reads or charges `cpu`.
#[derive(Debug)]
pub struct Lane {
    /// The processor; behind by the log's entries from `cursor` on while
    /// the lane is deferred.
    pub cpu: Cpu,
    /// While deferred: the first entry of the segment's log not yet
    /// charged to `cpu`.
    pub cursor: u32,
    /// How many entries had been logged on any segment (counted round)
    /// when this lane last caught up.
    pub seen: u32,
    /// The segment the host is attached to.
    pub seg: u32,
    /// False while this host is crashed: the kernel holds no state and
    /// the interface drops every frame.
    pub up: bool,
    /// [`Host::quiet`] as of its last change: true when a name query
    /// heard here costs its receive processing and has no other effect.
    /// Derived state — whoever changes what `Host::quiet` reads calls
    /// [`Lane::requiet`]: `SetPid`, a process exit's name purge, a peer
    /// becoming or ceasing to be a suspect, and a crash.
    pub quiet: bool,
    /// True while a housekeeping sweep is queued for this host. Not a
    /// table a crash clears: the sweep that is still queued finds the
    /// tables empty and disarms itself.
    pub housekeeping_armed: bool,
}

impl Lane {
    /// True while the segment's name queries are charged to this lane
    /// through the segment's log.
    pub fn deferred(&self) -> bool {
        self.up && self.quiet
    }

    /// Re-derives `quiet` from the host's tables, entering or leaving
    /// the deferred state on its segment.
    pub fn requiet(&mut self, host: &Host, segments: &mut [Segment]) {
        segments[self.seg as usize].redefer(self, host.id, host.quiet(), self.up);
    }
}

/// A workstation: one network interface, one kernel, and (in its
/// [`Lane`]) one processor.
pub struct Host {
    /// This host's index in the cluster.
    pub id: HostId,
    /// This host's logical host identifier.
    pub logical: LogicalHost,
    /// Calibrated cost constants for this processor.
    pub costs: CostModel,
    /// The network interface.
    pub nic: Nic,
    /// Local processes, keyed by the local-uid subfield.
    pub procs: UidSlab<Pcb>,
    /// Next local uid to try.
    pub next_uid: u16,
    /// Alien descriptors.
    pub aliens: AlienTable,
    /// Logical-id registrations.
    pub names: NameTable,
    /// Logical host → station mapping.
    pub hostmap: HostMap,
    /// Bulk data leaving this host: a `MoveTo` pushed, a `MoveFrom`
    /// served.
    pub outbound: LinearMap<StreamKey, OutStream>,
    /// Bulk data arriving: a `MoveTo` deposited, a `MoveFrom` fetched.
    pub inbound: LinearMap<StreamKey, InStream>,
    /// Raw protocol handlers by ethertype.
    pub raw: LinearMap<u16, Box<dyn RawHandler>>,
    /// Protocol counters.
    pub stats: KernelStats,
    /// Peers condemned as down (a Send exhausted its full retransmission
    /// budget against them). Sends to a suspect use the reduced
    /// [`crate::ProtocolConfig::SUSPECT_RETRIES`] probe budget; any frame
    /// heard from the peer clears the suspicion.
    pub suspects: BTreeSet<LogicalHost>,
}

impl Host {
    /// Fetches a local process by pid (must belong to this host).
    pub fn proc(&self, pid: Pid) -> Option<&Pcb> {
        self.procs.get(&pid.local())
    }

    /// Mutable process lookup.
    pub fn proc_mut(&mut self, pid: Pid) -> Option<&mut Pcb> {
        self.procs.get_mut(&pid.local())
    }

    /// Copies `len` bytes at `src` in `from`'s space to `dest` in `to`'s,
    /// space to space: the same-host leg of a segment or a move. The two
    /// are never one process — one of them is blocked on the other.
    pub fn copy_between(
        &mut self,
        from: Pid,
        src: u32,
        to: Pid,
        dest: u32,
        len: usize,
    ) -> Result<(), KernelError> {
        let (from, to) = self
            .procs
            .get_beside_mut(&from.local(), &to.local())
            .expect("two distinct live processes");
        to.space.copy_from(dest, &from.space, src, len)
    }

    /// Forgets every stream that reads or writes `pid`'s space.
    pub fn drop_streams_of(&mut self, pid: Pid) {
        self.outbound.retain(|_, s| s.local != pid);
        self.inbound.retain(|_, s| s.local != pid);
    }

    /// Allocates an unused local uid.
    ///
    /// # Panics
    ///
    /// Panics if all 65535 uids are in use (not a realistic workload).
    pub fn alloc_uid(&mut self) -> u16 {
        for _ in 0..=u16::MAX {
            let uid = self.next_uid;
            self.next_uid = self.next_uid.wrapping_add(1);
            if uid != 0 && !self.procs.contains_key(&uid) {
                return uid;
            }
        }
        panic!("local uid space exhausted");
    }

    /// True if a broadcast name query changes nothing here beyond the
    /// processor time its reception costs: the frame's source teaches
    /// this kernel nothing (station addresses are computed, not
    /// learned), reprieves nobody (it suspects no peer), and asks for
    /// no name this kernel would answer for.
    pub fn quiet(&self) -> bool {
        self.hostmap.mode() == AddressingMode::Direct
            && self.suspects.is_empty()
            && !self.names.answers_remote_queries()
    }
}

impl std::fmt::Debug for Host {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Host")
            .field("id", &self.id)
            .field("logical", &self.logical)
            .field("procs", &self.procs.len())
            .field("aliens", &self.aliens.len())
            .finish()
    }
}
