//! Process descriptors.

use std::collections::VecDeque;

use crate::addrspace::AddressSpace;
use crate::event::StreamKey;
use crate::message::Message;
use crate::pid::Pid;
use crate::program::Program;
use crate::segment::SegmentGrant;
use v_wire::WireBytes;

/// Scheduling/blocking state of a process.
#[derive(Debug)]
pub enum ProcState {
    /// Runnable (a resume is scheduled or in progress).
    Ready,
    /// Blocked in `Receive`.
    Receiving,
    /// Blocked in `ReceiveWithSegment`, with the receiver's buffer.
    ReceivingSeg {
        /// Buffer start in the receiver's space.
        buf: u32,
        /// Buffer capacity in bytes.
        size: u32,
    },
    /// Blocked in `Send` to a local process, awaiting its reply.
    AwaitingReplyLocal {
        /// The process that must reply.
        to: Pid,
        /// True once `to` has received the message: until then the
        /// sender is queued, not blocked on `to` — what an alien's
        /// `Queued` and `Delivered` states say of a remote sender.
        received: bool,
    },
    /// Blocked in `Send` to a remote process; the kernel retransmits the
    /// cached packet until a reply, reply-pending, nack, or exhaustion.
    AwaitingReplyRemote {
        /// The remote process that must reply.
        to: Pid,
        /// Message sequence number of this exchange.
        seq: u32,
        /// Retransmissions remaining before the send fails.
        retries_left: u32,
        /// Encoded Send packet, kept for retransmission: a handle on the
        /// very buffer that went out on the wire, not a copy of it.
        packet: WireBytes,
        /// Write-capable grant extracted from the sent message; incoming
        /// `ReplyWithSegment` data and remote `MoveTo` chunks are
        /// validated against it on this (the granting) side too.
        grant: Option<SegmentGrant>,
    },
    /// Blocked in a remote `MoveTo`/`MoveFrom`, on a stream in one of the
    /// host's two transfer tables.
    Moving {
        /// The stream's key there.
        stream: StreamKey,
        /// True for a `MoveFrom` (the inbound table), false for a
        /// `MoveTo` (the outbound one).
        fetching: bool,
    },
    /// Blocked in a broadcast `GetPid` resolution.
    AwaitingGetPid {
        /// Logical id being resolved.
        logical_id: u32,
        /// Broadcast retries remaining.
        retries_left: u32,
    },
    /// Blocked in `Delay` (or `Compute`; the distinction is only whether
    /// processor time was charged).
    Waiting,
}

impl ProcState {
    /// True if the process is blocked in either receive variant.
    pub fn is_receiving(&self) -> bool {
        matches!(self, ProcState::Receiving | ProcState::ReceivingSeg { .. })
    }
}

/// A process control block.
pub struct Pcb {
    /// This process's identifier.
    pub pid: Pid,
    /// The process body; `None` while the body is being resumed (taken
    /// out to satisfy the borrow checker) or for alien-less helpers.
    pub program: Option<Box<dyn Program>>,
    /// Blocking state.
    pub state: ProcState,
    /// The process's address space.
    pub space: AddressSpace,
    /// Message being sent while blocked in `Send` (the receiver and data
    /// transfers read segment grants out of it).
    pub out_msg: Message,
    /// FCFS queue of senders (local pids and alien pids) with messages
    /// waiting for this process to `Receive`.
    pub senders: VecDeque<Pid>,
    /// Sequence number of the next outgoing remote message exchange.
    pub send_seq: u32,
    /// Debug name (for traces and error messages).
    pub name: String,
}

impl Pcb {
    /// Creates a ready PCB.
    pub fn new(pid: Pid, program: Box<dyn Program>, space_size: usize, name: String) -> Pcb {
        Pcb {
            pid,
            program: Some(program),
            state: ProcState::Ready,
            space: AddressSpace::new(space_size),
            out_msg: Message::empty(),
            senders: VecDeque::new(),
            send_seq: 0,
            name,
        }
    }

    /// Allocates the next message sequence number.
    pub fn next_seq(&mut self) -> u32 {
        self.send_seq = self.send_seq.wrapping_add(1);
        self.send_seq
    }
}

impl std::fmt::Debug for Pcb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pcb")
            .field("pid", &self.pid)
            .field("name", &self.name)
            .field("state", &self.state)
            .field("queued_senders", &self.senders.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pid::LogicalHost;
    use crate::program::{Api, Outcome};

    struct Nop;
    impl Program for Nop {
        fn resume(&mut self, _api: &mut Api<'_>, _outcome: Outcome) {}
    }

    #[test]
    fn seq_numbers_increment() {
        let pid = Pid::new(LogicalHost(1), 1);
        let mut pcb = Pcb::new(pid, Box::new(Nop), 1024, "t".into());
        assert_eq!(pcb.next_seq(), 1);
        assert_eq!(pcb.next_seq(), 2);
        pcb.send_seq = u32::MAX;
        assert_eq!(pcb.next_seq(), 0); // wraps without panicking
    }

    #[test]
    fn receiving_states() {
        assert!(ProcState::Receiving.is_receiving());
        assert!(ProcState::ReceivingSeg { buf: 0, size: 1 }.is_receiving());
        assert!(!ProcState::Ready.is_receiving());
        assert!(!ProcState::Waiting.is_receiving());
    }
}
