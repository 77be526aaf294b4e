//! Per-host kernel state.

use v_net::{EtherType, Nic};
use v_sim::SimTime;

use crate::aliens::AlienTable;
use crate::costs::CostModel;
use crate::cpu::Cpu;
use crate::error::KernelError;
use crate::event::HostId;
use crate::hostmap::{AddressingMode, HostMap};
use crate::naming::NameTable;
use crate::pcb::Pcb;
use crate::pid::{LogicalHost, Pid};
use crate::raw::RawHandler;
use crate::slab::{LinearMap, SortedSet, UidSlab};
use crate::stats::KernelStats;

/// State of an outbound `MoveTo` (this host is the mover).
#[derive(Debug)]
pub struct OutMove {
    /// Transfer sequence number.
    pub seq: u32,
    /// Destination (granting) process on the remote host.
    pub dest_pid: Pid,
    /// Destination address in the remote process's space.
    pub dest_addr: u32,
    /// Source address in the mover's space.
    pub src_addr: u32,
    /// Total bytes to move.
    pub total: u32,
    /// Offset of the next chunk to transmit.
    pub next_off: u32,
    /// Last offset known received (resume point on timeout).
    pub acked_base: u32,
    /// Stall retries remaining.
    pub retries_left: u32,
    /// True once all chunks are out and the completion ack is awaited.
    pub awaiting_ack: bool,
    /// Stall-marker snapshot for timer staleness detection.
    pub marker: u32,
}

/// State of an inbound `MoveTo` (this host holds the granting process).
#[derive(Debug)]
pub struct InMove {
    /// The local process whose segment is being written.
    pub dest_pid: Pid,
    /// Next in-order offset expected.
    pub expected: u32,
    /// Total bytes in the transfer.
    pub total: u32,
    /// Completed (tombstone kept to re-ack duplicate chunks).
    pub complete: bool,
    /// Last activity (for housekeeping expiry).
    pub last_seen: SimTime,
}

/// State of an outbound `MoveFrom` request (this host is the requester
/// copying data *in*).
#[derive(Debug)]
pub struct InFetch {
    /// Transfer sequence number.
    pub seq: u32,
    /// The remote (granting) process the data comes from.
    pub src_pid: Pid,
    /// Source address in the remote process's space.
    pub src_addr: u32,
    /// Destination address in the requester's space.
    pub dest_addr: u32,
    /// Total bytes requested.
    pub total: u32,
    /// Next in-order offset expected.
    pub expected: u32,
    /// Stall retries remaining.
    pub retries_left: u32,
    /// Stall-marker snapshot for timer staleness detection.
    pub marker: u32,
}

/// State of a `MoveFrom` service stream (this host holds the granting
/// process and streams data out).
#[derive(Debug)]
pub struct OutServe {
    /// The requesting process (on the remote host).
    pub requester: Pid,
    /// Transfer sequence number (the requester's).
    pub seq: u32,
    /// The local granting process.
    pub grantor: Pid,
    /// Source address in the grantor's space.
    pub src_addr: u32,
    /// Offset of the next chunk to transmit.
    pub next_off: u32,
    /// Total bytes to stream.
    pub total: u32,
}

/// What a frame arriving at a host reads and writes whoever the frame
/// is for — the receive path's share of the host's state — and the
/// flags that outlive a crash, kept apart from [`Host`] (a kilobyte of
/// tables) in a dense array of its own, so that a broadcast walking a
/// thousand receivers walks thirty-two bytes each.
#[derive(Debug)]
pub struct Lane {
    /// The processor.
    pub cpu: Cpu,
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
    /// Re-derives `quiet` from the host's tables.
    pub fn requiet(&mut self, host: &Host) {
        self.quiet = host.quiet();
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
    /// Outbound `MoveTo` transfers, keyed by mover local uid.
    pub out_moves: UidSlab<OutMove>,
    /// Inbound `MoveTo` transfers, keyed by (mover raw pid, seq).
    pub in_moves: LinearMap<(u32, u32), InMove>,
    /// Outstanding `MoveFrom` requests, keyed by requester local uid.
    pub in_fetches: UidSlab<InFetch>,
    /// `MoveFrom` service streams, keyed by (requester raw pid, seq).
    pub out_serves: LinearMap<(u32, u32), OutServe>,
    /// Raw protocol handlers by ethertype.
    pub raw: LinearMap<u16, Box<dyn RawHandler>>,
    /// Protocol counters.
    pub stats: KernelStats,
    /// Peers condemned as down (a Send exhausted its full retransmission
    /// budget against them). Sends to a suspect use the reduced
    /// `suspect_retries` probe budget; any frame heard from the peer
    /// clears the suspicion.
    pub suspects: SortedSet<LogicalHost>,
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

    /// Registers a raw protocol handler for an ethertype.
    pub fn register_raw(&mut self, ethertype: EtherType, handler: Box<dyn RawHandler>) {
        self.raw.insert(ethertype.0, handler);
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
