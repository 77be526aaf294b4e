//! The synchronous message exchange: `Send` / `Receive` / `Reply`.
//!
//! The sender side blocks on `Send` until the reply arrives (locally via
//! a direct hand-off, remotely via the retransmitted Send packet whose
//! reply doubles as the acknowledgement). The receiver side queues
//! senders — local processes and remote *aliens* alike — and the pump
//! delivers the head of the queue whenever the receiver is receptive.

use std::rc::Rc;

use v_sim::{SimDuration, SimTime};

use crate::aliens::{AlienState, Appended, SendVerdict};
use crate::config::ProtocolConfig;
use crate::ctx::Ctx;
use crate::error::KernelError;
use crate::event::TimerKind;
use crate::message::Message;
use crate::pcb::ProcState;
use crate::pid::Pid;
use crate::program::Outcome;
use crate::segment::{Access, SegmentGrant};
use v_wire::{MsgBytes, Packet, PacketBody, ReplyBody, SendBody};

/// What [`Ctx::blocked_on`] knows of a peer blocked on the asking
/// process.
pub(crate) struct Blocked {
    /// The segment access the peer's message granted.
    pub grant: Option<SegmentGrant>,
    /// The exchange's sequence number, when the peer is an alien; a
    /// local exchange has none and reads 0.
    pub seq: u32,
}

impl Ctx<'_> {
    /// Is `peer` blocked in a `Send` that `me` has received? The one
    /// rule `Reply`, `ReplyWithSegment`, `MoveTo`, `MoveFrom` and
    /// `Forward` ask before they touch `peer`, the same for a process on
    /// this host and for an alien: a sender still queued behind `me`'s
    /// `Receive` is not blocked on `me` yet, whichever side of the wire
    /// it queues from.
    pub(crate) fn blocked_on(&self, me: Pid, peer: Pid) -> Option<Blocked> {
        if peer.is_local_to(self.host.logical) {
            let pcb = self.host.proc(peer)?;
            let received = matches!(
                pcb.state,
                ProcState::AwaitingReplyLocal { to, received: true } if to == me
            );
            received.then(|| Blocked {
                grant: pcb.out_msg.segment(),
                seq: 0,
            })
        } else {
            let alien = self.host.aliens.get(peer)?;
            (alien.dst == me && alien.state == AlienState::Delivered).then(|| Blocked {
                grant: alien.msg.segment(),
                seq: alien.seq,
            })
        }
    }

    /// Queues `sender` — a local process or an alien, its message in
    /// place — behind `receiver`'s `Receive`, and delivers at once if
    /// the receiver is waiting in one.
    pub(crate) fn enqueue_sender(&mut self, t: SimTime, receiver: Pid, sender: Pid) {
        let pcb = self.host.proc_mut(receiver).expect("the receiver exists");
        pcb.senders.push_back(sender);
        if pcb.state.is_receiving() {
            self.pump(t, receiver, true);
        }
    }

    pub(crate) fn do_send(&mut self, t: SimTime, pid: Pid, msg: Message, to: Pid) {
        {
            let pcb = self.host.proc_mut(pid).expect("sender exists");
            pcb.out_msg = msg;
        }
        if to.is_local_to(self.host.logical) {
            self.host.stats.sends_local += 1;
            let send_cost = self.host.costs.send_local;
            let end = self.charge(t, send_cost);
            if self.host.proc(to).is_none() {
                self.resume_at(
                    end,
                    pid,
                    Outcome::Send(Err(KernelError::NonexistentProcess)),
                );
                return;
            }
            let pcb = self.host.proc_mut(pid).expect("sender exists");
            pcb.state = ProcState::AwaitingReplyLocal {
                to,
                received: false,
            };
            self.enqueue_sender(end, to, pid);
        } else {
            self.host.stats.sends_remote += 1;
            let cost = self.host.costs.send_remote + self.host.costs.timer_admin;
            let end = self.charge(t, cost);

            // Append the segment prefix, if read access was granted
            // (§3.4's optimization: the first part of the segment rides in
            // the Send packet), gathered from the space into the packet.
            // The `appended_segments` ablation reproduces the unmodified
            // kernel, which sends the grant unaccompanied.
            let grant = msg.segment();
            let (appended_from, appended_len) = match grant {
                Some(g) if self.proto.appended_segments && g.access.allows_read() && g.len > 0 => {
                    let n = (g.len as usize)
                        .min(ProtocolConfig::MAX_APPENDED_SEGMENT)
                        .min(ProtocolConfig::MAX_DATA_PER_PACKET);
                    let pcb = self.host.proc(pid).expect("sender exists");
                    if let Err(e) = pcb.space.check(g.start, n) {
                        self.fail_send(end, pid, e);
                        return;
                    }
                    (g.start, n)
                }
                _ => (0, 0),
            };

            let seq = {
                let pcb = self.host.proc_mut(pid).expect("sender exists");
                pcb.next_seq()
            };
            let pkt = Packet {
                seq,
                src_pid: pid.raw(),
                dst_pid: to.raw(),
                body: PacketBody::Send(SendBody {
                    msg: *msg.as_bytes(),
                    appended: Vec::new(),
                    appended_from,
                }),
            };
            let bytes = self.gather(&pkt, pid, appended_from, appended_len);
            {
                // A condemned peer gets a short probe, not the full
                // ladder: bounded failover latency, but a restarted host
                // still gets a packet to answer (which clears suspicion).
                let max_retries = if self.host.suspects.contains(&to.host()) {
                    self.host.stats.sends_to_suspect += 1;
                    ProtocolConfig::SUSPECT_RETRIES
                } else {
                    self.proto.max_retries
                };
                let pcb = self.host.proc_mut(pid).expect("sender exists");
                pcb.state = ProcState::AwaitingReplyRemote {
                    to,
                    seq,
                    retries_left: max_retries,
                    packet: Rc::clone(&bytes),
                    grant,
                };
            }
            let emitted = self.emit_bytes(end, bytes, to.host());
            // Blocking the sender and dispatching other work happens off
            // the critical path, after the packet is on the wire.
            let block = self.host.costs.block_admin;
            self.charge(emitted.cpu_done, block);
            let timeout = self.proto.retransmit_timeout;
            self.timer_at(
                emitted.cpu_done + timeout,
                TimerKind::Retransmit { pid, seq },
            );
        }
    }

    pub(crate) fn fail_send(&mut self, t: SimTime, pid: Pid, err: KernelError) {
        if let Some(pcb) = self.host.proc_mut(pid) {
            pcb.state = ProcState::Ready;
        }
        self.resume_at(t, pid, Outcome::Send(Err(err)));
    }

    pub(crate) fn do_receive(&mut self, t: SimTime, pid: Pid, seg: Option<(u32, u32)>) {
        let recv_cost = self.host.costs.receive_local;
        let end = self.charge(t, recv_cost);
        {
            let pcb = self.host.proc_mut(pid).expect("receiver exists");
            pcb.state = match seg {
                None => ProcState::Receiving,
                Some((buf, size)) => ProcState::ReceivingSeg { buf, size },
            };
        }
        let has_queued = self
            .host
            .proc(pid)
            .map(|p| !p.senders.is_empty())
            .unwrap_or(false);
        if has_queued {
            self.pump(end, pid, false);
        }
    }

    /// Delivers the head of `receiver`'s sender queue to it.
    ///
    /// `dispatch` is true when this delivery *wakes* the receiver (send
    /// side), charging a context switch; false when the receiver found
    /// the message already queued during `Receive`.
    pub(crate) fn pump(&mut self, t: SimTime, receiver: Pid, dispatch: bool) {
        loop {
            let Some(pcb) = self.host.proc_mut(receiver) else {
                return;
            };
            if !pcb.state.is_receiving() {
                return;
            }
            let Some(sender) = pcb.senders.pop_front() else {
                return;
            };

            // Gather the message, skipping stale queue entries (dead
            // senders, superseded aliens), and what the sender offers a
            // `ReceiveWithSegment`: a local one a readable segment of
            // its space, an alien what its Send packet carried.
            let (msg, readable, appended) = if sender.is_local_to(self.host.logical) {
                match self.host.proc(sender) {
                    Some(sp) if matches!(sp.state, ProcState::AwaitingReplyLocal { to, .. } if to == receiver) =>
                    {
                        let grant = sp.out_msg.segment();
                        let readable = grant.filter(|g| g.access.allows_read() && g.len > 0);
                        (sp.out_msg, readable, None)
                    }
                    _ => continue, // stale entry
                }
            } else {
                match self.host.aliens.get(sender) {
                    Some(a) if a.dst == receiver && a.state == AlienState::Queued => (
                        a.msg,
                        None,
                        (a.appended.len > 0).then(|| a.appended.clone()),
                    ),
                    _ => continue, // stale entry
                }
            };

            // Deliver into the receiver, honouring ReceiveWithSegment.
            let (buf, size, wants_seg) = match &self.host.proc(receiver).expect("checked").state {
                ProcState::ReceivingSeg { buf, size } => (*buf, *size, true),
                _ => (0, 0, false),
            };

            let mut cost = SimDuration::ZERO;
            if dispatch {
                cost += self.host.costs.context_switch;
            }
            // The segment goes from where it lies — the sender's space,
            // or the packet the alien's Send arrived in — into the
            // receiver's buffer: one copy, nothing in between.
            // A bogus receiver buffer costs the same and delivers none.
            let mut seg_len: u32 = 0;
            if let Some(g) = readable.filter(|_| wants_seg) {
                let n = size.min(g.len);
                let sp = self.host.proc(sender).expect("checked");
                if n > 0 && sp.space.check(g.start, n as usize).is_ok() {
                    cost += self.local_data_cost(self.host.costs.segment_fixed, n as usize);
                    let copied = self
                        .host
                        .copy_between(sender, g.start, receiver, buf, n as usize);
                    seg_len = if copied.is_ok() { n } else { 0 };
                }
            } else if let Some(carried) = appended.filter(|_| wants_seg) {
                let n = (size as usize).min(carried.len);
                if n > 0 {
                    // Bytes came off the wire straight into their
                    // final location: only fixed handling cost.
                    cost += self.host.costs.segment_fixed;
                    let to = self.host.proc_mut(receiver).expect("checked");
                    let copied = to.space.write(buf, &carried.bytes()[..n]);
                    seg_len = if copied.is_ok() { n as u32 } else { 0 };
                }
            }
            let end = self.charge(t, cost);

            // Mark the sender's exchange received: from here on it is
            // blocked on `receiver` (see `blocked_on`).
            if sender.is_local_to(self.host.logical) {
                if let Some(ProcState::AwaitingReplyLocal { received, .. }) =
                    self.host.proc_mut(sender).map(|p| &mut p.state)
                {
                    *received = true;
                }
            } else if let Some(a) = self.host.aliens.get_mut(sender) {
                a.state = AlienState::Delivered;
            }

            let pcb = self.host.proc_mut(receiver).expect("checked");
            pcb.state = ProcState::Ready;
            let outcome = if wants_seg {
                Outcome::ReceiveSeg {
                    from: sender,
                    msg,
                    seg_len,
                }
            } else {
                Outcome::Receive { from: sender, msg }
            };
            self.resume_at(end, receiver, outcome);
            return;
        }
    }

    /// `Reply` / `ReplyWithSegment` (non-blocking). Returns the caller's
    /// new time cursor.
    pub(crate) fn do_reply(
        &mut self,
        t: SimTime,
        replier: Pid,
        msg: Message,
        to: Pid,
        seg: Option<(u32, u32, u32)>, // (dest_ptr, src_addr, len)
    ) -> Result<SimTime, KernelError> {
        let blocked = self
            .blocked_on(replier, to)
            .ok_or(KernelError::NotAwaitingReply)?;
        if to.is_local_to(self.host.logical) {
            // Local reply.
            let mut cost = self.host.costs.reply_local + self.host.costs.context_switch;
            if let Some((dest_ptr, src_addr, len)) = seg {
                let grant = blocked.grant.ok_or(KernelError::NoSegmentAccess)?;
                grant.check(dest_ptr, len, Access::Write)?;
                let rp = self.host.proc(replier).expect("replier exists");
                rp.space.check(src_addr, len as usize)?;
                cost += self.local_data_cost(self.host.costs.segment_fixed, len as usize);
            }
            let end = self.charge(t, cost);
            if let Some((dest_ptr, src_addr, len)) = seg {
                self.host
                    .copy_between(replier, src_addr, to, dest_ptr, len as usize)?;
            }
            let target = self.host.proc_mut(to).expect("checked");
            target.state = ProcState::Ready;
            self.resume_at(end, to, Outcome::Send(Ok(msg)));
            Ok(end)
        } else {
            // Remote reply, through the alien.
            let Blocked { seq, grant } = blocked;
            let mut cost = self.host.costs.reply_remote;
            let (seg_dest, src_addr, len) = if let Some((dest_ptr, src_addr, len)) = seg {
                if len as usize > ProtocolConfig::MAX_DATA_PER_PACKET {
                    return Err(KernelError::NoSegmentAccess);
                }
                let g = grant.ok_or(KernelError::NoSegmentAccess)?;
                g.check(dest_ptr, len, Access::Write)?;
                let rp = self.host.proc(replier).expect("replier exists");
                rp.space.check(src_addr, len as usize)?;
                cost += self.host.costs.segment_fixed;
                (dest_ptr, src_addr, len as usize)
            } else {
                (0, 0, 0)
            };
            let end = self.charge(t, cost);
            let pkt = Packet {
                seq,
                src_pid: replier.raw(),
                dst_pid: to.raw(),
                body: PacketBody::Reply(ReplyBody {
                    msg: *msg.as_bytes(),
                    seg_dest,
                    seg: Vec::new(),
                }),
            };
            let bytes = self.gather(&pkt, replier, src_addr, len);
            let emitted = self.emit_bytes(end, Rc::clone(&bytes), to.host());
            if self.proto.alien_keep.is_zero() {
                // "Alien keep = 0" ablation: the descriptor is freed the
                // moment the reply leaves; a retransmitted Send of this
                // exchange will be re-admitted and re-delivered instead
                // of being answered from the cache.
                self.host.aliens.remove(to);
            } else {
                if let Some(a) = self.host.aliens.get_mut(to) {
                    a.state = AlienState::Replied {
                        packet: bytes,
                        at: emitted.cpu_done,
                    };
                }
                self.arm_housekeeping(emitted.cpu_done);
            }
            let post = self.host.costs.alien_post;
            self.charge(emitted.cpu_done, post);
            Ok(emitted.cpu_done)
        }
    }

    // ------------------------------------------------------------------
    // Wire handlers
    // ------------------------------------------------------------------

    pub(crate) fn handle_send_pkt(
        &mut self,
        t: SimTime,
        src: Pid,
        dst: Pid,
        seq: u32,
        msg: MsgBytes,
        appended: Appended,
    ) {
        if !dst.is_local_to(self.host.logical) {
            return; // stray broadcast-fallback delivery; not ours
        }
        // Duplicate filtering comes *before* the existence check: a
        // retransmission of an exchange that already completed must be
        // answered from the alien's cached reply even if the replier has
        // since exited (the sender's reply was lost, not the exchange).
        if let Some(alien) = self.host.aliens.get(src).filter(|a| a.seq == seq) {
            self.host.stats.duplicates_filtered += 1;
            let reply = match &alien.state {
                AlienState::Replied { packet, .. } => Some(Rc::clone(packet)),
                _ => None,
            };
            let forwarded = matches!(alien.state, AlienState::Forwarded { .. });
            // A forwarded exchange's duplicate means the client may
            // have missed the rebind notification: repair it first.
            if let Some(note) = alien.forward_note.as_ref().map(Rc::clone) {
                self.host.stats.forward_notes_resent += 1;
                self.emit_bytes(t, note, src.host());
            }
            // A forwarded exchange lives at the forwardee's kernel now:
            // the re-sent note is the whole answer.
            if let Some(packet) = reply {
                self.host.stats.replies_retransmitted += 1;
                self.emit_bytes(t, packet, src.host());
            } else if !forwarded {
                self.send_reply_pending(t, src, seq, dst);
            }
            return;
        }
        if self.host.proc(dst).is_none() {
            self.send_nack(t, src, seq, dst);
            return;
        }
        // A superseding exchange takes over the source's one alien: if
        // the one it replaces still waits in a receiver's queue, that
        // entry now stands for the new exchange — there, or moved to
        // `dst`'s queue when the new exchange is for another process.
        let queued_for = match self.host.aliens.get(src) {
            Some(a) if a.state == AlienState::Queued => Some(a.dst),
            _ => None,
        };
        match self.host.aliens.admit(src, seq, dst, msg, appended) {
            SendVerdict::Deliver => {
                self.host.stats.aliens_allocated += 1;
                let alloc = self.host.costs.alien_alloc + self.host.costs.unblock;
                let end = self.charge(t, alloc);
                self.arm_housekeeping(end);
                if queued_for == Some(dst) {
                    return self.pump(end, dst, true);
                }
                if let Some(old) = queued_for.and_then(|old| self.host.proc_mut(old)) {
                    old.senders.retain(|&s| s != src);
                }
                self.enqueue_sender(end, dst, src);
            }
            SendVerdict::Drop => self.host.stats.duplicates_filtered += 1,
            // A duplicate was answered above: what is turned away here
            // found the alien pool exhausted.
            SendVerdict::ReplyPending => {
                self.host.stats.aliens_exhausted += 1;
                self.send_reply_pending(t, src, seq, dst);
            }
            SendVerdict::RetransmitReply(_) => unreachable!("duplicates were answered above"),
        }
    }

    /// Tells `to`'s kernel that its `Send` numbered `seq` is known here
    /// and `busy` has not replied yet: keep waiting, keep retransmitting.
    fn send_reply_pending(&mut self, t: SimTime, to: Pid, seq: u32, busy: Pid) {
        self.host.stats.reply_pending_sent += 1;
        let pkt = Packet {
            seq,
            src_pid: busy.raw(),
            dst_pid: to.raw(),
            body: PacketBody::ReplyPending,
        };
        self.emit_packet(t, &pkt, to.host());
    }

    /// Completes the sender's exchange from a wire `Reply` body and the
    /// segment the packet carried, written from the packet straight into
    /// the sender's space.
    pub(crate) fn handle_reply_pkt(
        &mut self,
        t: SimTime,
        src: Pid,
        dst: Pid,
        seq: u32,
        body: ReplyBody,
        seg: &[u8],
    ) {
        let grant = match self.host.proc(dst).map(|p| &p.state) {
            Some(ProcState::AwaitingReplyRemote {
                to, seq: s, grant, ..
            }) if *to == src && *s == seq => *grant,
            _ => return, // duplicate or stale reply
        };
        let mut result = Ok(Message::from_bytes(body.msg));
        let mut cost =
            self.host.costs.reply_match + self.host.costs.unblock + self.host.costs.context_switch;
        let pcb = self.host.procs.get_mut(&dst.local()).expect("checked");
        if !seg.is_empty() {
            // The segment lands only where the Send granted write access;
            // a refused one fails the exchange it rode on.
            cost += self.host.costs.segment_fixed;
            let landed = grant
                .ok_or(KernelError::NoSegmentAccess)
                .and_then(|g| g.check(body.seg_dest, seg.len() as u32, Access::Write))
                .and_then(|_| pcb.space.write(body.seg_dest, seg));
            result = landed.and(result);
        }
        pcb.state = ProcState::Ready;
        let end = self.charge(t, cost);
        self.resume_at(end, dst, Outcome::Send(result));
    }

    pub(crate) fn handle_reply_pending(&mut self, _t: SimTime, src: Pid, dst: Pid, seq: u32) {
        let max = self.proto.max_retries;
        if let Some(ProcState::AwaitingReplyRemote {
            to,
            seq: s,
            retries_left,
            ..
        }) = self.host.proc_mut(dst).map(|p| &mut p.state)
        {
            if *to == src && *s == seq {
                *retries_left = max;
                self.host.stats.reply_pending_received += 1;
            }
        }
    }

    pub(crate) fn handle_nack(&mut self, t: SimTime, src: Pid, dst: Pid, seq: u32) {
        let matches = matches!(
            self.host.proc(dst).map(|p| &p.state),
            Some(ProcState::AwaitingReplyRemote { to, seq: s, .. }) if *to == src && *s == seq
        );
        if matches {
            self.host.stats.nacks_received += 1;
            self.fail_send(t, dst, KernelError::NonexistentProcess);
        }
    }
}
