//! Bulk data transfer: `MoveTo` / `MoveFrom`, one stream engine.
//!
//! A move between two processes of one host is a single space-to-space
//! copy ([`Ctx::do_move`]). A move across the wire is a *stream*: one
//! record in the sending kernel's outbound table, one in the receiving
//! kernel's inbound table, both keyed `(peer pid, seq)` — the far end
//! and the sequence number the blocked mover or requester drew for it.
//!
//! | primitive  | outbound record ([`OutRole`]) | inbound record ([`InRole`]) | who is blocked |
//! |------------|-------------------------------|-----------------------------|----------------|
//! | `MoveTo`   | `Push`, at the mover          | `Deposit`, at the grantor   | the mover, on the outbound end   |
//! | `MoveFrom` | `Serve`, at the grantor       | `Fetch`, at the requester   | the requester, on the inbound end |
//!
//! **Sending.** [`Ctx::send_chunk`] streams chunks of
//! [`ProtocolConfig::MAX_DATA_PER_PACKET`] bytes back to back — the next
//! is launched when the previous frame clears the interface
//! ([`Event::ChunkReady`]) — and the two roles differ in the packet built (`MoveToData` names where each chunk
//! lands; a `MoveFromData` chunk goes where the requester asked) and in
//! what follows the last chunk: a push waits for the deposit's
//! acknowledgement, a serve is forgotten.
//!
//! **Receiving.** [`Ctx::accept_chunk`] takes a chunk only if it is the
//! next in order and fits in what is left of the stream; nothing else is
//! written. A deposit is also held to the grant its process sent, and
//! acknowledges the chunk flagged last: `Complete`, or `Partial` from
//! the last in-order byte when there was a gap — the paper's
//! "retransmission from the last correctly received data packet". A
//! fetch acknowledges nothing; at a gap it asks the grantor again from
//! the last in-order byte.
//!
//! **Stalls.** The blocked end carries a [`Stall`]: a retry budget and a
//! progress marker that every chunk advances. The stall timer
//! ([`Ctx::transfer_stall_timer`]) re-arms if the marker moved, and
//! otherwise resumes the stream — a push rewinds to the last
//! acknowledged byte and sends again, a fetch re-requests — until the
//! budget is spent and the move fails with `Timeout`.
//!
//! **The tombstone.** A completed deposit stays in the inbound table for
//! `alien_keep`, so that a duplicate of the final chunk (its `Complete`
//! was lost and the mover re-sent) is acknowledged again instead of being
//! taken for a new transfer; the `alien_keep = 0` ablation frees it at
//! once. Housekeeping expires tombstones, and keeps itself armed
//! while a deposit or a serve is in the tables.

use v_sim::SimTime;

use crate::config::ProtocolConfig;
use crate::ctx::{Ctx, Emitted};
use crate::error::KernelError;
use crate::event::{Event, StreamKey, TimerKind};
use crate::host::{InRole, InStream, OutRole, OutStream, Stall};
use crate::pcb::ProcState;
use crate::pid::Pid;
use crate::program::Outcome;
use crate::segment::Access;
use v_wire::{
    MoveFromData, MoveFromReq, MoveToData, Packet, PacketBody, TransferAck, TransferStatus,
};

/// Which way a move's bytes go, seen from the process that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Dir {
    /// `MoveTo`: out of the mover's space, into the peer's.
    To,
    /// `MoveFrom`: out of the peer's space, into the mover's.
    From,
}

/// What [`Ctx::accept_chunk`] makes of an arriving chunk.
enum Accept {
    /// The next chunk in order, within the stream's total.
    Next,
    /// Not the chunk at `expected`: dropped.
    Gap,
    /// In order, but more bytes than the stream has left: dropped.
    Overrun,
}

impl Ctx<'_> {
    /// `MoveTo` (`dir` = [`Dir::To`]) or `MoveFrom` ([`Dir::From`])
    /// issued by `mover` against `peer`: `count` bytes from `src` in the
    /// one's space to `dest` in the other's. `peer` must be blocked on
    /// `mover` and have granted the access.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn do_move(
        &mut self,
        t: SimTime,
        mover: Pid,
        peer: Pid,
        dir: Dir,
        dest: u32,
        src: u32,
        count: u32,
    ) {
        let local = peer.is_local_to(self.host.logical);
        // The peer's side of the move is held to its grant. Of the
        // spaces, the one checked before anything is charged is the
        // mover's own — or, with both on this host, the source's.
        let (from, to, granted, access, own) = match dir {
            Dir::To => (mover, peer, dest, Access::Write, src),
            Dir::From => (peer, mover, src, Access::Read, dest),
        };
        let check = self
            .blocked_on(mover, peer)
            .ok_or(KernelError::NotBlocked)
            .and_then(|b| b.grant.ok_or(KernelError::NoSegmentAccess))
            .and_then(|g| g.check(granted, count, access))
            .and_then(|_| {
                let (who, addr) = if local { (from, src) } else { (mover, own) };
                let pcb = self.host.proc(who).expect("both ends exist");
                pcb.space.check(addr, count as usize)
            });
        if let Err(e) = check {
            let end = self.charge(t, self.host.costs.syscall_min);
            self.fail_move(end, mover, e);
            return;
        }
        if local {
            // Local fast path: one memory-to-memory copy.
            let cost = self.local_data_cost(self.host.costs.move_local_fixed, count as usize);
            let end = self.charge(t, cost);
            let copied = self.host.copy_between(from, src, to, dest, count as usize);
            if copied.is_err() {
                self.fail_move(end, mover, KernelError::BadAddress);
                return;
            }
            self.resume_at(end, mover, Outcome::Move(Ok(count)));
            return;
        }
        let end = self.charge(t, self.host.costs.move_remote_setup);
        let pcb = self.host.proc_mut(mover).expect("mover exists");
        let seq = pcb.next_seq();
        let key = StreamKey::new(peer, seq);
        pcb.state = ProcState::Moving {
            stream: key,
            fetching: dir == Dir::From,
        };
        let stall = Stall {
            retries_left: ProtocolConfig::TRANSFER_RETRIES,
            marker: 0,
        };
        let timeout = self.proto.transfer_timeout;
        let (armed, marker) = match dir {
            Dir::To => {
                let push = OutStream {
                    dest_addr: dest,
                    stall,
                    ..OutStream::new(OutRole::Push, mover, peer, src, count)
                };
                self.host.outbound.insert(key, push);
                (end, self.send_chunk(end, key))
            }
            Dir::From => {
                // Ask the granting kernel to stream the segment back.
                let fetch = InStream {
                    src_addr: src,
                    dest_addr: dest,
                    stall,
                    ..InStream::new(InRole::Fetch, mover, peer, count, end)
                };
                self.host.inbound.insert(key, fetch);
                (self.request_rest(end, key).cpu_done, 0)
            }
        };
        let pid = mover;
        self.timer_at(
            armed + timeout,
            TimerKind::TransferStall { pid, seq, marker },
        );
    }

    /// The stream `pid` is blocked on, and whether it is a fetch (in the
    /// inbound table) or a push (in the outbound one).
    pub(crate) fn moving_on(&self, pid: Pid) -> Option<(StreamKey, bool)> {
        match self.host.proc(pid)?.state {
            ProcState::Moving { stream, fetching } => Some((stream, fetching)),
            _ => None,
        }
    }

    /// Ends `pid`'s move with `err`, forgetting its stream if it has one.
    pub(crate) fn fail_move(&mut self, t: SimTime, pid: Pid, err: KernelError) {
        self.host.stats.transfer_failures += 1;
        if let Some((key, fetching)) = self.moving_on(pid) {
            if fetching {
                self.host.inbound.remove(&key);
            } else {
                self.host.outbound.remove(&key);
            }
        }
        if let Some(pcb) = self.host.proc_mut(pid) {
            pcb.state = ProcState::Ready;
        }
        self.resume_at(t, pid, Outcome::Move(Err(err)));
    }

    /// Ends `pid`'s move in success: `total` bytes moved.
    fn complete_move(&mut self, t: SimTime, pid: Pid, total: u32) {
        let cost =
            self.host.costs.ack_process + self.host.costs.unblock + self.host.costs.context_switch;
        let end = self.charge(t, cost);
        let pcb = self.host.proc_mut(pid).expect("the mover exists");
        pcb.state = ProcState::Ready;
        self.resume_at(end, pid, Outcome::Move(Ok(total)));
    }

    /// Transmits the next chunk of an outbound stream; returns the
    /// stream's progress marker.
    pub(crate) fn send_chunk(&mut self, t: SimTime, key: StreamKey) -> u32 {
        let Some(s) = self.host.outbound.get(&key) else {
            return 0;
        };
        let off = s.next_off;
        let n = (ProtocolConfig::MAX_DATA_PER_PACKET as u32).min(s.total - off);
        let last = off + n == s.total;
        let (role, peer, total, local, src) = (s.role, s.peer, s.total, s.local, s.src_addr + off);
        let body = match role {
            OutRole::Push => PacketBody::MoveToData(MoveToData {
                dest: s.dest_addr + off,
                offset: off,
                total,
                last,
                data: Vec::new(),
            }),
            OutRole::Serve => PacketBody::MoveFromData(MoveFromData {
                offset: off,
                total,
                last,
                data: Vec::new(),
            }),
        };
        let pkt = Packet {
            seq: key.seq,
            src_pid: local.raw(),
            dst_pid: peer.raw(),
            body,
        };
        let chunk_cost = self.host.costs.chunk_send;
        let end = self.charge(t, chunk_cost);
        // Validated when the stream was set up.
        let bytes = self.gather(&pkt, local, src, n as usize);
        let emitted = self.emit_bytes(end, bytes, peer.host());
        self.host.stats.chunks_sent += 1;
        let s = self.host.outbound.get_mut(&key).expect("exists");
        s.next_off = off + n;
        s.stall.marker = s.stall.marker.wrapping_add(1);
        let marker = s.stall.marker;
        if !last {
            let host = self.host_id;
            self.queue
                .schedule(emitted.tx_end, Event::ChunkReady { host, key });
        } else if role == OutRole::Push {
            s.awaiting_ack = true;
        } else {
            self.host.outbound.remove(&key);
        }
        marker
    }

    /// A stream's previous frame left the interface: send the next chunk.
    pub(crate) fn handle_chunk_ready(&mut self, t: SimTime, key: StreamKey) {
        if matches!(self.host.outbound.get(&key), Some(s) if !s.awaiting_ack) {
            self.send_chunk(t, key);
        }
    }

    /// Asks the granting kernel for the rest of a fetch, from the last
    /// in-order byte on.
    pub(crate) fn request_rest(&mut self, t: SimTime, key: StreamKey) -> Emitted {
        let f = self.host.inbound.get(&key).expect("the caller's fetch");
        let pkt = Packet {
            seq: key.seq,
            src_pid: f.local.raw(),
            dst_pid: f.peer.raw(),
            body: PacketBody::MoveFromReq(MoveFromReq {
                src: f.src_addr,
                offset: f.expected,
                total: f.total,
            }),
        };
        let to_host = f.peer.host();
        self.emit_packet(t, &pkt, to_host)
    }

    /// Acknowledges (or refuses) a peer's transfer packet.
    fn send_ack(
        &mut self,
        t: SimTime,
        seq: u32,
        from: Pid,
        to: Pid,
        received: u32,
        status: TransferStatus,
    ) {
        let pkt = Packet {
            seq,
            src_pid: from.raw(),
            dst_pid: to.raw(),
            body: PacketBody::TransferAck(TransferAck { received, status }),
        };
        self.emit_packet(t, &pkt, to.host());
    }

    /// The one place a data chunk is admitted to an inbound stream (the
    /// caller read `expected` and `total` off it): it must be the chunk
    /// at `expected`, and carry no more than the stream has left.
    /// Anything else is counted and dropped before a byte of it is
    /// written.
    fn accept_chunk(&mut self, expected: u32, total: u32, offset: u32, n: u32) -> Accept {
        let verdict = if offset != expected {
            Accept::Gap
        } else if n > total - expected {
            Accept::Overrun
        } else {
            return Accept::Next;
        };
        self.host.stats.chunks_dropped += 1;
        verdict
    }

    /// Writes an accepted chunk, straight from the packet it arrived in, at
    /// `addr` in the stream's process and advances the stream (its
    /// progress marker and last activity too); returns the new in-order
    /// offset and whether that is the whole stream.
    fn store_chunk(
        &mut self,
        now: SimTime,
        key: StreamKey,
        addr: u32,
        data: &[u8],
    ) -> Result<(u32, bool), KernelError> {
        let s = self.host.inbound.get_mut(&key);
        let s = s.expect("the caller's stream");
        let pcb = self.host.procs.get_mut(&s.local.local());
        let space = &mut pcb.expect("purged with its process").space;
        if s.expected == 0 {
            space.reserve(addr, s.total as usize); // one run, not one a chunk
        }
        space.write(addr, data)?;
        self.host.stats.chunks_received += 1;
        s.expected += data.len() as u32;
        s.stall.marker = s.stall.marker.wrapping_add(1);
        s.last_seen = now;
        Ok((s.expected, s.expected == s.total))
    }

    // ------------------------------------------------------------------
    // Wire handlers
    // ------------------------------------------------------------------

    pub(crate) fn handle_moveto_data(
        &mut self,
        t: SimTime,
        src: Pid,
        dst: Pid,
        seq: u32,
        body: MoveToData,
        data: &[u8],
    ) {
        let key = StreamKey::new(src, seq);
        let (expected, total) = match self.host.inbound.get_mut(&key) {
            Some(m) if m.role != InRole::Deposit || m.local != dst => return, // not a deposit's chunk
            Some(m) if m.complete => {
                // Duplicate after completion: re-acknowledge.
                m.last_seen = t;
                self.send_ack(t, seq, dst, src, body.total, TransferStatus::Complete);
                return;
            }
            Some(m) => (m.expected, m.total),
            None => {
                // First chunk of a new inbound transfer: the process it
                // names must be blocked on the mover, under a grant. The
                // range is validated chunk by chunk as they arrive.
                let refusal = match self.host.proc(dst).map(|p| &p.state) {
                    Some(ProcState::AwaitingReplyRemote { to, grant, .. }) if *to == src => {
                        grant.is_none().then_some(TransferStatus::AccessViolation)
                    }
                    _ => Some(TransferStatus::Unknown),
                };
                if let Some(status) = refusal {
                    self.send_ack(t, seq, dst, src, 0, status);
                    return;
                }
                let deposit = InStream::new(InRole::Deposit, dst, src, body.total, t);
                self.host.inbound.insert(key, deposit);
                self.arm_housekeeping(t);
                (0, body.total)
            }
        };

        let chunk_cost = self.host.costs.chunk_recv;
        let end = self.charge(t, chunk_cost);
        let n = data.len() as u32;
        let verdict = self.accept_chunk(expected, total, body.offset, n);
        if let Accept::Gap = verdict {
            if body.last {
                // Gap detected at the end: ask for resumption from the
                // last in-order byte.
                self.send_ack(end, seq, dst, src, expected, TransferStatus::Partial);
            }
            return;
        }

        // In order: hold it to the grant, and deposit it.
        let stored = match self.host.proc(dst).map(|p| &p.state) {
            Some(&ProcState::AwaitingReplyRemote { grant: Some(g), .. }) => {
                let fits =
                    matches!(verdict, Accept::Next) && g.check(body.dest, n, Access::Write).is_ok();
                let stored = fits.then(|| self.store_chunk(end, key, body.dest, data).ok());
                stored.flatten().ok_or(TransferStatus::AccessViolation)
            }
            _ => Err(TransferStatus::Unknown),
        };
        let (received, complete) = match stored {
            Ok(progress) => progress,
            Err(status) => {
                self.host.inbound.remove(&key);
                self.send_ack(end, seq, dst, src, 0, status);
                return;
            }
        };
        if body.last {
            self.host.inbound.get_mut(&key).expect("exists").complete = complete;
            let (sent, status) = if complete {
                (body.total, TransferStatus::Complete)
            } else {
                (received, TransferStatus::Partial)
            };
            let ack_cost = self.host.costs.ack_process;
            let end2 = self.charge(end, ack_cost);
            self.send_ack(end2, seq, dst, src, sent, status);
            if complete && self.proto.alien_keep.is_zero() {
                // The transfer-side analog of the reply cache is the
                // completed-transfer tombstone that re-acks duplicate
                // final chunks; the ablation frees it immediately. A
                // duplicate arriving after the mover resumed earns an
                // Unknown ack it ignores; if the Complete ack itself is
                // lost, the still-blocked mover's retransmitted final
                // chunk finds no record, earns a Partial ack from byte 0
                // and re-sends the whole transfer — the honest price of
                // keeping no state.
                self.host.inbound.remove(&key);
            }
        }
    }

    pub(crate) fn handle_movefrom_req(
        &mut self,
        t: SimTime,
        src: Pid,
        dst: Pid,
        seq: u32,
        body: MoveFromReq,
    ) {
        // `dst` is the local granting process; `src` the remote requester.
        let key = StreamKey::new(src, seq);
        // Our own push to `src` under this key cannot be live while
        // `dst` waits on `src`: a forged request must not displace it.
        let displaces = matches!(self.host.outbound.get(&key), Some(s) if s.role == OutRole::Push);
        let refusal = match self.host.proc(dst).map(|p| (&p.state, &p.space)) {
            Some((ProcState::AwaitingReplyRemote { to, grant, .. }, space))
                if *to == src && !displaces =>
            {
                // A resumption point past the end asks for bytes the
                // request itself does not cover.
                let ok = grant
                    .ok_or(KernelError::NoSegmentAccess)
                    .and_then(|g| g.check(body.src, body.total, Access::Read))
                    .and_then(|_| space.check(body.src, body.total as usize));
                let within = ok.is_ok() && body.offset <= body.total;
                (!within).then_some(TransferStatus::AccessViolation)
            }
            _ => Some(TransferStatus::Unknown),
        };
        if let Some(status) = refusal {
            self.send_ack(t, seq, dst, src, 0, status);
            return;
        }
        let setup = self.host.costs.move_remote_setup;
        let end = self.charge(t, setup);
        let serve = OutStream {
            next_off: body.offset,
            ..OutStream::new(OutRole::Serve, dst, src, body.src, body.total)
        };
        self.host.outbound.insert(key, serve);
        self.arm_housekeeping(end);
        self.send_chunk(end, key);
    }

    pub(crate) fn handle_movefrom_data(
        &mut self,
        t: SimTime,
        src: Pid,
        dst: Pid,
        seq: u32,
        body: MoveFromData,
        data: &[u8],
    ) {
        let key = StreamKey::new(src, seq);
        if self.moving_on(dst) != Some((key, true)) {
            return; // transfer already completed or failed
        }
        let chunk_cost = self.host.costs.chunk_recv;
        let end = self.charge(t, chunk_cost);

        let f = self.host.inbound.get(&key).expect("exists");
        let (expected, total, dest_addr) = (f.expected, f.total, f.dest_addr);
        match self.accept_chunk(expected, total, body.offset, data.len() as u32) {
            Accept::Next => {}
            Accept::Gap if body.last => {
                // Ask the source to resume from the last in-order byte.
                self.host.stats.transfer_resumes += 1;
                let f = self.host.inbound.get_mut(&key).expect("exists");
                f.stall.marker = f.stall.marker.wrapping_add(1);
                self.request_rest(end, key);
                return;
            }
            // Nothing written; the stall timer asks again.
            Accept::Gap | Accept::Overrun => return,
        }
        let dest = dest_addr + body.offset;
        let Ok((received, filled)) = self.store_chunk(end, key, dest, data) else {
            self.fail_move(end, dst, KernelError::BadAddress);
            return;
        };
        if body.last && filled {
            self.host.inbound.remove(&key);
            self.complete_move(end, dst, received);
        }
    }

    pub(crate) fn handle_transfer_ack(
        &mut self,
        t: SimTime,
        src: Pid,
        dst: Pid,
        seq: u32,
        body: TransferAck,
    ) {
        // The ack is for the move `dst` is blocked in, or for nothing.
        let Some((key, fetching)) = self.moving_on(dst) else {
            return;
        };
        if key != StreamKey::new(src, seq) {
            return;
        }
        let push = match body.status {
            TransferStatus::AccessViolation | TransferStatus::Unknown => {
                return self.fail_move(t, dst, KernelError::TransferRejected);
            }
            // A fetch is acknowledged by its data; acks only refuse it.
            _ if fetching => return,
            _ => self.host.outbound.get_mut(&key).expect("exists"),
        };
        let total = push.total;
        if body.status == TransferStatus::Complete {
            self.host.outbound.remove(&key);
            self.complete_move(t, dst, total);
        } else if body.received <= total {
            // Partial: resume from where the deposit got to (it cannot
            // have got past the end).
            push.acked_base = body.received;
            push.next_off = body.received;
            push.awaiting_ack = false;
            push.stall.marker = push.stall.marker.wrapping_add(1);
            self.host.stats.transfer_resumes += 1;
            let end = self.charge(t, self.host.costs.ack_process);
            self.send_chunk(end, key);
        }
    }
}
