//! Kernel timers: retransmission, transfer stalls, housekeeping.
//!
//! Timers are never cancelled — they fire and check whether the state
//! they were armed against still exists (staleness detection by sequence
//! number and, for streaming transfers, a progress marker that advances
//! with every chunk).

use std::rc::Rc;

use v_sim::SimTime;

use crate::config::ProtocolConfig;
use crate::ctx::Ctx;
use crate::error::KernelError;
use crate::event::TimerKind;
use crate::host::{InRole, OutRole};
use crate::pcb::ProcState;
use crate::pid::Pid;
use crate::program::Outcome;

impl Ctx<'_> {
    /// A remote `Send`'s reply did not arrive in time: retransmit the
    /// cached packet, or fail the exchange after the retry budget.
    pub(crate) fn retransmit_timer(&mut self, t: SimTime, pid: Pid, seq: u32) {
        let (to, retries, packet) = match self.host.proc(pid).map(|p| &p.state) {
            Some(ProcState::AwaitingReplyRemote {
                to,
                seq: s,
                retries_left,
                packet,
                ..
            }) if *s == seq => (*to, *retries_left, Rc::clone(packet)),
            _ => return, // exchange completed; stale timer
        };
        if retries == 0 {
            // The budget ran out with neither reply nor reply-pending:
            // the paper's condition for presuming the host down. Condemn
            // the peer so later Sends probe with the reduced budget
            // instead of paying the full timeout ladder again.
            self.host.stats.send_timeouts += 1;
            self.host.stats.host_down_failures += 1;
            if self.host.suspects.insert(to.host()) {
                self.host.stats.peer_suspicions += 1;
                self.lane.requiet(self.host, self.segments);
            }
            let pcb = self.host.proc_mut(pid).expect("checked");
            pcb.state = ProcState::Ready;
            self.resume_at(t, pid, Outcome::Send(Err(KernelError::HostDown)));
            return;
        }
        if let Some(ProcState::AwaitingReplyRemote { retries_left, .. }) =
            self.host.proc_mut(pid).map(|p| &mut p.state)
        {
            *retries_left = retries - 1;
        }
        self.host.stats.retransmissions += 1;
        let emitted = self.emit_bytes(t, packet, to.host());
        let timeout = self.proto.retransmit_timeout;
        self.timer_at(
            emitted.cpu_done + timeout,
            TimerKind::Retransmit { pid, seq },
        );
    }

    /// A bulk transfer stopped making progress: rewind to the last
    /// acknowledged point (a push) or re-request from the last in-order
    /// byte (a fetch).
    pub(crate) fn transfer_stall_timer(&mut self, t: SimTime, pid: Pid, seq: u32, marker: u32) {
        let Some((key, fetching)) = self.moving_on(pid).filter(|(key, _)| key.seq == seq) else {
            return; // timer belongs to a finished transfer
        };
        let stall = if fetching {
            self.host.inbound.get_mut(&key).map(|s| &mut s.stall)
        } else {
            self.host.outbound.get_mut(&key).map(|s| &mut s.stall)
        };
        let Some(stall) = stall else {
            return;
        };
        let timeout = self.proto.transfer_timeout;
        if stall.marker != marker {
            // Progress since the timer was set; re-arm.
            let marker = stall.marker;
            self.timer_at(t + timeout, TimerKind::TransferStall { pid, seq, marker });
            return;
        }
        if stall.retries_left == 0 {
            self.fail_move(t, pid, KernelError::Timeout);
            return;
        }
        stall.retries_left -= 1;
        self.host.stats.transfer_resumes += 1;
        let (armed, marker) = if fetching {
            stall.marker = stall.marker.wrapping_add(1);
            let marker = stall.marker;
            (self.request_rest(t, key).cpu_done, marker)
        } else {
            let push = self.host.outbound.get_mut(&key).expect("exists");
            push.next_off = push.acked_base;
            push.awaiting_ack = false;
            (t, self.send_chunk(t, key))
        };
        self.timer_at(
            armed + timeout,
            TimerKind::TransferStall { pid, seq, marker },
        );
    }

    /// Periodic sweep: expires idle aliens and completed inbound-transfer
    /// tombstones; re-arms itself while any remain.
    pub(crate) fn housekeeping(&mut self, t: SimTime) {
        let keep = self.proto.alien_keep;
        self.host.aliens.sweep(t, keep);
        let inbound = &mut self.host.inbound;
        inbound.retain(|_, s| !(s.complete && t.since(s.last_seen) >= keep));
        // The two ends of a stream no local process waits on (and so no
        // stall timer watches) are the ones this sweep stays armed for.
        let busy = !self.host.aliens.is_empty()
            || inbound.values().any(|s| s.role == InRole::Deposit)
            || (self.host.outbound.values()).any(|s| s.role == OutRole::Serve);
        if busy {
            let at = t + ProtocolConfig::HOUSEKEEPING;
            self.timer_at(at, TimerKind::Housekeeping);
        } else {
            self.lane.housekeeping_armed = false;
        }
    }
}
