//! The `Forward` primitive: hand a received exchange to another server.
//!
//! `Forward(msg, from, to)` gives a server that has received a message
//! from `from` the ability to pass the exchange — message, segment
//! access and the obligation to reply — to another process `to`, which
//! then replies (or `MoveTo`s / `MoveFrom`s) directly to the client.
//! This is the receptionist/worker pattern V server *teams* are built
//! from: one process receives every request and forwards each to an
//! idle worker, so one request's disk wait overlaps the next request's
//! receive processing.
//!
//! The kernel mechanics are a *rebinding* of the blocked client:
//!
//! * client local, forwardee local — the client's `AwaitingReplyLocal`
//!   state and sender-queue entry move to the forwardee;
//! * client local, forwardee remote — the client's exchange becomes an
//!   ordinary remote Send of the forwarded message (fresh sequence
//!   number, normal retransmission machinery);
//! * client remote, forwardee on this host — the alien is rebound to
//!   the forwardee and requeued, and a [`v_wire::PacketKind::Forward`]
//!   *rebind notification* tells the client's kernel to accept the
//!   forwardee's Reply/MoveTo/MoveFrom on the blocked exchange;
//! * client remote, forwardee on a third host — the alien becomes a
//!   [`AlienState::Forwarded`] tombstone, the rebind notification goes
//!   to the client's kernel and a second Forward packet *hands off* the
//!   message to the forwardee's kernel, which admits it exactly like a
//!   Send.
//!
//! Reliability: the rebind notification is cached in the alien
//! (`forward_note`), so a client that missed it keeps retransmitting
//! its original Send and is answered with the note again; once rebound,
//! the client's cached retransmission packet is rewritten to address
//! the forwardee, so a lost hand-off self-heals too.

use std::rc::Rc;

use v_sim::SimTime;

use crate::aliens::{AlienState, Appended};
use crate::ctx::Ctx;
use crate::error::KernelError;
use crate::message::Message;
use crate::pcb::ProcState;
use crate::pid::Pid;
use v_wire::{ForwardBody, MsgBytes, Packet, PacketBody, SendBody};

impl Ctx<'_> {
    /// `Forward(msg, from, to)` issued by `forwarder` (non-blocking).
    /// Returns the forwarder's new time cursor.
    pub(crate) fn do_forward(
        &mut self,
        t: SimTime,
        forwarder: Pid,
        msg: Message,
        from: Pid,
        to: Pid,
    ) -> Result<SimTime, KernelError> {
        // A forwardee on this host must exist up front; a remote one is
        // nacked by its own kernel and surfaces as a failed Send at the
        // client.
        if to.is_local_to(self.host.logical) && self.host.proc(to).is_none() {
            return Err(KernelError::NonexistentProcess);
        }
        if from.is_local_to(self.host.logical) {
            self.forward_local_client(t, forwarder, msg, from, to)
        } else {
            self.forward_remote_client(t, forwarder, msg, from, to)
        }
    }

    /// Forwards an exchange whose client is a local process blocked in
    /// `Send` to the forwarder.
    fn forward_local_client(
        &mut self,
        t: SimTime,
        forwarder: Pid,
        msg: Message,
        from: Pid,
        to: Pid,
    ) -> Result<SimTime, KernelError> {
        self.blocked_on(forwarder, from)
            .ok_or(KernelError::NotAwaitingReply)?;
        let end = self.charge(t, self.host.costs.forward);
        self.host.stats.forwards += 1;
        let local = to.is_local_to(self.host.logical);
        let pcb = self.host.proc_mut(from).expect("checked");
        pcb.out_msg = msg;
        if local {
            pcb.state = ProcState::AwaitingReplyLocal {
                to,
                received: false,
            };
            self.enqueue_sender(end, to, from);
        } else {
            // The client's exchange turns into an ordinary remote Send
            // of the forwarded message, with the full retransmission
            // machinery behind it.
            self.do_send(end, from, msg, to);
        }
        Ok(end)
    }

    /// Forwards an exchange whose client is an alien (a remote sender).
    fn forward_remote_client(
        &mut self,
        t: SimTime,
        forwarder: Pid,
        msg: Message,
        from: Pid,
        to: Pid,
    ) -> Result<SimTime, KernelError> {
        let seq = self
            .blocked_on(forwarder, from)
            .ok_or(KernelError::NotAwaitingReply)?
            .seq;
        let end = self.charge(t, self.host.costs.forward);
        self.host.stats.forwards += 1;

        // The rebind notification for the client's kernel: its blocked
        // Send must start accepting the forwardee's Reply/MoveTo/
        // MoveFrom (and, if that kernel also hosts the forwardee, the
        // note doubles as the hand-off, so it carries the message).
        let a = self.host.aliens.get(from).expect("checked");
        let appended = a.appended.clone();
        let body = ForwardBody {
            client: from.raw(),
            new_server: to.raw(),
            msg: *msg.as_bytes(),
            appended: Vec::new(),
            appended_from: appended.from,
        };
        let mut pkt = Packet {
            seq,
            src_pid: forwarder.raw(),
            dst_pid: from.raw(),
            body: PacketBody::Forward(body),
        };
        let note = appended.encode_in(&pkt);

        // Rebind the alien. For a forwardee on this host (the
        // server-team case) it is requeued; for one on another kernel it
        // becomes a tombstone that answers duplicates with the note.
        let local = to.is_local_to(self.host.logical);
        let a = self.host.aliens.get_mut(from).expect("checked");
        a.dst = to;
        a.msg = msg;
        a.state = if local {
            AlienState::Queued
        } else {
            AlienState::Forwarded { at: end }
        };
        a.forward_note = Some(Rc::clone(&note));
        let mut done = self.emit_bytes(end, note, from.host()).cpu_done;
        if local {
            self.enqueue_sender(done, to, from);
            return Ok(done);
        }
        // Unless the forwardee shares the client's kernel, where the
        // note itself is the hand-off, hand the message off to the
        // forwardee's kernel.
        if to.host() != from.host() {
            pkt.dst_pid = to.raw();
            let handoff = appended.encode_in(&pkt);
            done = self.emit_bytes(done, handoff, to.host()).cpu_done;
        }
        self.arm_housekeeping(done);
        Ok(done)
    }

    // ------------------------------------------------------------------
    // Wire handler
    // ------------------------------------------------------------------

    /// A Forward packet arrived: either a rebind notification for a
    /// local blocked sender, or a hand-off for a local forwardee.
    pub(crate) fn handle_forward_pkt(
        &mut self,
        t: SimTime,
        src: Pid,
        dst: Pid,
        seq: u32,
        body: ForwardBody,
        appended: Appended,
    ) {
        let (Some(client), Some(new_server)) =
            (Pid::from_raw(body.client), Pid::from_raw(body.new_server))
        else {
            return;
        };
        if dst == client && client.is_local_to(self.host.logical) {
            self.rebind_forwarded_sender(t, src, (client, new_server), seq, body.msg, appended);
        } else if dst == new_server && new_server.is_local_to(self.host.logical) {
            // Hand-off role: admit the client's exchange for the
            // forwardee exactly as an arriving Send would be (duplicate
            // filtering, alien pool bounds and nacks included).
            self.handle_send_pkt(t, client, new_server, seq, body.msg, appended);
        }
    }

    /// Rebinds a local process's blocked remote Send to the forwardee.
    fn rebind_forwarded_sender(
        &mut self,
        t: SimTime,
        src: Pid,
        (client, new_server): (Pid, Pid),
        seq: u32,
        msg: MsgBytes,
        appended: Appended,
    ) {
        let bound_to = match self.host.proc(client).map(|p| &p.state) {
            Some(ProcState::AwaitingReplyRemote { to, seq: s, .. }) if *s == seq => *to,
            _ => return, // exchange completed, or already converted local
        };
        if bound_to == new_server {
            return; // duplicate notification
        }
        if bound_to != src {
            return; // stale: the exchange belongs to someone else now
        }
        let end = self.charge(t, self.host.costs.forward);
        if new_server.is_local_to(self.host.logical) {
            // The exchange came home: the forwardee shares this kernel,
            // so the blocked Send becomes a plain local exchange.
            if self.host.proc(new_server).is_none() {
                // The forwardee is already gone — nothing was rebound.
                self.fail_send(end, client, KernelError::NonexistentProcess);
                return;
            }
            self.host.stats.forward_rebinds += 1;
            let pcb = self.host.proc_mut(client).expect("checked");
            pcb.out_msg = Message::from_bytes(msg);
            pcb.state = ProcState::AwaitingReplyLocal {
                to: new_server,
                received: false,
            };
            self.enqueue_sender(end, new_server, client);
        } else {
            // Re-point the exchange — and the cached retransmission
            // packet — at the forwardee, carrying the forwarded message,
            // so a lost hand-off is repaired by the next retransmission.
            self.host.stats.forward_rebinds += 1;
            let send = Packet {
                seq,
                src_pid: client.raw(),
                dst_pid: new_server.raw(),
                body: PacketBody::Send(SendBody {
                    msg,
                    appended: Vec::new(),
                    appended_from: appended.from,
                }),
            };
            let rebuilt = appended.encode_in(&send);
            let max_retries = self.proto.max_retries;
            if let Some(ProcState::AwaitingReplyRemote {
                to,
                packet,
                retries_left,
                ..
            }) = self.host.proc_mut(client).map(|p| &mut p.state)
            {
                *to = new_server;
                *packet = rebuilt;
                // The forwardee is a fresh leg of the exchange: give it
                // the full retry budget.
                *retries_left = max_retries;
            }
        }
    }
}
