//! Kernel timers: retransmission, transfer stalls, housekeeping.
//!
//! Timers are never cancelled — they fire and check whether the state
//! they were armed against still exists (staleness detection by sequence
//! number and, for streaming transfers, a progress marker that advances
//! with every chunk).

use std::rc::Rc;

use v_sim::SimTime;

use crate::ctx::Ctx;
use crate::error::KernelError;
use crate::event::TimerKind;
use crate::pcb::ProcState;
use crate::pid::Pid;
use crate::program::Outcome;
use v_wire::{MoveFromReq, Packet, PacketBody};

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
                self.lane.requiet(self.host);
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
    /// acknowledged point (MoveTo) or re-request from the last in-order
    /// byte (MoveFrom).
    pub(crate) fn transfer_stall_timer(&mut self, t: SimTime, pid: Pid, seq: u32, marker: u32) {
        let timeout = self.proto.transfer_timeout;
        // MoveTo mover side.
        if let Some(om) = self.host.out_moves.get(&pid.local()) {
            if om.seq != seq {
                return; // timer belongs to a finished transfer
            }
            if om.marker != marker {
                // Progress since the timer was set; re-arm.
                let m = om.marker;
                self.timer_at(
                    t + timeout,
                    TimerKind::TransferStall {
                        pid,
                        seq,
                        marker: m,
                    },
                );
                return;
            }
            if om.retries_left == 0 {
                self.fail_move(t, pid, KernelError::Timeout);
                return;
            }
            let om = self.host.out_moves.get_mut(&pid.local()).expect("exists");
            om.retries_left -= 1;
            om.next_off = om.acked_base;
            om.awaiting_ack = false;
            self.host.stats.transfer_resumes += 1;
            let marker = self.send_move_chunk(t, pid);
            self.timer_at(t + timeout, TimerKind::TransferStall { pid, seq, marker });
            return;
        }
        // MoveFrom requester side.
        if let Some(f) = self.host.in_fetches.get(&pid.local()) {
            if f.seq != seq {
                return; // timer belongs to a finished transfer
            }
            if f.marker != marker {
                let m = f.marker;
                self.timer_at(
                    t + timeout,
                    TimerKind::TransferStall {
                        pid,
                        seq,
                        marker: m,
                    },
                );
                return;
            }
            if f.retries_left == 0 {
                self.fail_move(t, pid, KernelError::Timeout);
                return;
            }
            let (src_pid, src_addr, total, expected) = (f.src_pid, f.src_addr, f.total, f.expected);
            let f = self.host.in_fetches.get_mut(&pid.local()).expect("exists");
            f.retries_left -= 1;
            f.marker = f.marker.wrapping_add(1);
            let marker = f.marker;
            self.host.stats.transfer_resumes += 1;
            let pkt = Packet {
                seq,
                src_pid: pid.raw(),
                dst_pid: src_pid.raw(),
                body: PacketBody::MoveFromReq(MoveFromReq {
                    src: src_addr,
                    offset: expected,
                    total,
                }),
            };
            let emitted = self.emit_packet(t, &pkt, src_pid.host());
            self.timer_at(
                emitted.cpu_done + timeout,
                TimerKind::TransferStall { pid, seq, marker },
            );
        }
    }

    /// Periodic sweep: expires idle aliens and completed inbound-transfer
    /// tombstones; re-arms itself while any remain.
    pub(crate) fn housekeeping(&mut self, t: SimTime) {
        let keep = self.proto.alien_keep;
        self.host.aliens.sweep(t, keep);
        self.host
            .in_moves
            .retain(|_, m| !(m.complete && t.since(m.last_seen) >= keep));
        let busy = !self.host.aliens.is_empty()
            || !self.host.in_moves.is_empty()
            || !self.host.out_serves.is_empty();
        if busy {
            let at = t + self.proto.housekeeping;
            self.timer_at(at, TimerKind::Housekeeping);
        } else {
            self.lane.housekeeping_armed = false;
        }
    }
}
