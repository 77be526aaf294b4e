//! Bulk data transfer: `MoveTo` / `MoveFrom`.
//!
//! Transfers stream `max_data_per_packet`-sized chunks back to back
//! (next chunk launched when the previous frame clears the interface),
//! with a single acknowledgement solicited by the final chunk. Receivers
//! reassemble strictly in order; a gap at the end produces a partial ack
//! asking the source to resume from the last in-order byte — the paper's
//! "retransmission from the last correctly received data packet".

use v_sim::SimTime;

use crate::aliens::AlienState;
use crate::ctx::Ctx;
use crate::error::KernelError;
use crate::event::{Event, StreamKey, TimerKind};
use crate::host::{InFetch, InMove, OutMove, OutServe};
use crate::pcb::ProcState;
use crate::pid::Pid;
use crate::program::Outcome;
use crate::segment::Access;
use v_wire::{
    MoveFromData, MoveFromReq, MoveToData, Packet, PacketBody, TransferAck, TransferStatus,
};

impl Ctx<'_> {
    pub(crate) fn do_move_to(
        &mut self,
        t: SimTime,
        mover: Pid,
        dst: Pid,
        dest: u32,
        src: u32,
        count: u32,
    ) {
        if dst.is_local_to(self.host.logical) {
            // Local fast path: one memory-to-memory copy.
            let valid = matches!(
                self.host.proc(dst).map(|p| &p.state),
                Some(ProcState::AwaitingReplyLocal { to }) if *to == mover
            );
            if !valid {
                let end = self.charge(t, self.host.costs.syscall_min);
                self.fail_move(end, mover, KernelError::NotBlocked);
                return;
            }
            let grant = self.host.proc(dst).expect("checked").out_msg.segment();
            let res = grant
                .ok_or(KernelError::NoSegmentAccess)
                .and_then(|g| g.check(dest, count, Access::Write).map(|_| ()))
                .and_then(|_| {
                    let mp = self.host.proc(mover).expect("mover exists");
                    mp.space.check(src, count as usize)
                });
            match res {
                Err(e) => {
                    let end = self.charge(t, self.host.costs.syscall_min);
                    self.fail_move(end, mover, e);
                }
                Ok(()) => {
                    let cost =
                        self.local_data_cost(self.host.costs.move_local_fixed, count as usize);
                    let end = self.charge(t, cost);
                    let copied = self
                        .host
                        .copy_between(mover, src, dst, dest, count as usize);
                    if copied.is_err() {
                        self.fail_move(end, mover, KernelError::BadAddress);
                        return;
                    }
                    self.resume_at(end, mover, Outcome::Move(Ok(count)));
                }
            }
        } else {
            // Remote: the destination must be an alien blocked on us.
            let grant = match self.host.aliens.get(dst) {
                Some(a) if a.dst == mover && a.state == AlienState::Delivered => a.msg.segment(),
                _ => {
                    let end = self.charge(t, self.host.costs.syscall_min);
                    self.fail_move(end, mover, KernelError::NotBlocked);
                    return;
                }
            };
            let check = grant
                .ok_or(KernelError::NoSegmentAccess)
                .and_then(|g| g.check(dest, count, Access::Write))
                .and_then(|_| {
                    let mp = self.host.proc(mover).expect("mover exists");
                    mp.space.check(src, count as usize)
                });
            if let Err(e) = check {
                let end = self.charge(t, self.host.costs.syscall_min);
                self.fail_move(end, mover, e);
                return;
            }
            let setup = self.host.costs.move_remote_setup;
            let end = self.charge(t, setup);
            let seq = {
                let pcb = self.host.proc_mut(mover).expect("mover exists");
                pcb.state = ProcState::Moving;
                pcb.next_seq()
            };
            self.host.out_moves.insert(
                mover.local(),
                OutMove {
                    seq,
                    dest_pid: dst,
                    dest_addr: dest,
                    src_addr: src,
                    total: count,
                    next_off: 0,
                    acked_base: 0,
                    retries_left: self.proto.transfer_retries,
                    awaiting_ack: false,
                    marker: 0,
                },
            );
            let marker = self.send_move_chunk(end, mover);
            let timeout = self.proto.transfer_timeout;
            self.timer_at(
                end + timeout,
                TimerKind::TransferStall {
                    pid: mover,
                    seq,
                    marker,
                },
            );
        }
    }

    pub(crate) fn fail_move(&mut self, t: SimTime, pid: Pid, err: KernelError) {
        self.host.stats.transfer_failures += 1;
        if let Some(pcb) = self.host.proc_mut(pid) {
            pcb.state = ProcState::Ready;
        }
        self.host.out_moves.remove(&pid.local());
        self.host.in_fetches.remove(&pid.local());
        self.resume_at(t, pid, Outcome::Move(Err(err)));
    }

    /// Transmits the next `MoveTo` chunk; returns the stream's progress
    /// marker.
    pub(crate) fn send_move_chunk(&mut self, t: SimTime, mover: Pid) -> u32 {
        let Some(om) = self.host.out_moves.get(&mover.local()) else {
            return 0;
        };
        let off = om.next_off;
        let n = (self.proto.max_data_per_packet as u32).min(om.total - off);
        let last = off + n == om.total;
        let (seq, dest_pid, dest_addr, src_addr) = (om.seq, om.dest_pid, om.dest_addr, om.src_addr);
        let data = {
            let mp = self.host.proc(mover).expect("mover exists");
            mp.space
                .read(src_addr + off, n as usize)
                .expect("validated at setup")
        };
        let pkt = Packet {
            seq,
            src_pid: mover.raw(),
            dst_pid: dest_pid.raw(),
            body: PacketBody::MoveToData(MoveToData {
                dest: dest_addr + off,
                offset: off,
                total: om.total,
                last,
                data,
            }),
        };
        let chunk_cost = self.host.costs.chunk_send;
        let end = self.charge(t, chunk_cost);
        let emitted = self.emit_packet(end, &pkt, dest_pid.host());
        self.host.stats.chunks_sent += 1;
        let om = self.host.out_moves.get_mut(&mover.local()).expect("exists");
        om.next_off = off + n;
        om.marker = om.marker.wrapping_add(1);
        let marker = om.marker;
        if last {
            om.awaiting_ack = true;
        } else {
            self.queue.schedule(
                emitted.tx_end,
                Event::ChunkReady {
                    host: self.host_id,
                    key: StreamKey::Move {
                        mover: mover.local(),
                    },
                },
            );
        }
        marker
    }

    pub(crate) fn do_move_from(
        &mut self,
        t: SimTime,
        requester: Pid,
        src_pid: Pid,
        dest: u32,
        src: u32,
        count: u32,
    ) {
        if src_pid.is_local_to(self.host.logical) {
            // Local fast path.
            let valid = matches!(
                self.host.proc(src_pid).map(|p| &p.state),
                Some(ProcState::AwaitingReplyLocal { to }) if *to == requester
            );
            if !valid {
                let end = self.charge(t, self.host.costs.syscall_min);
                self.fail_move(end, requester, KernelError::NotBlocked);
                return;
            }
            let grant = self.host.proc(src_pid).expect("checked").out_msg.segment();
            let res = grant
                .ok_or(KernelError::NoSegmentAccess)
                .and_then(|g| g.check(src, count, Access::Read))
                .and_then(|_| {
                    let sp = self.host.proc(src_pid).expect("checked");
                    sp.space.check(src, count as usize)
                });
            match res {
                Err(e) => {
                    let end = self.charge(t, self.host.costs.syscall_min);
                    self.fail_move(end, requester, e);
                }
                Ok(()) => {
                    let cost =
                        self.local_data_cost(self.host.costs.move_local_fixed, count as usize);
                    let end = self.charge(t, cost);
                    let copied =
                        self.host
                            .copy_between(src_pid, src, requester, dest, count as usize);
                    if copied.is_err() {
                        self.fail_move(end, requester, KernelError::BadAddress);
                        return;
                    }
                    self.resume_at(end, requester, Outcome::Move(Ok(count)));
                }
            }
        } else {
            // Remote: ask the granting kernel to stream the segment back.
            let grant = match self.host.aliens.get(src_pid) {
                Some(a) if a.dst == requester && a.state == AlienState::Delivered => {
                    a.msg.segment()
                }
                _ => {
                    let end = self.charge(t, self.host.costs.syscall_min);
                    self.fail_move(end, requester, KernelError::NotBlocked);
                    return;
                }
            };
            let check = grant
                .ok_or(KernelError::NoSegmentAccess)
                .and_then(|g| g.check(src, count, Access::Read))
                .and_then(|_| {
                    let rp = self.host.proc(requester).expect("requester exists");
                    // Destination range must be writable in our space.
                    rp.space.check(dest, count as usize)
                });
            if let Err(e) = check {
                let end = self.charge(t, self.host.costs.syscall_min);
                self.fail_move(end, requester, e);
                return;
            }
            let setup = self.host.costs.move_remote_setup;
            let end = self.charge(t, setup);
            let seq = {
                let pcb = self.host.proc_mut(requester).expect("requester exists");
                pcb.state = ProcState::Moving;
                pcb.next_seq()
            };
            self.host.in_fetches.insert(
                requester.local(),
                InFetch {
                    seq,
                    src_pid,
                    src_addr: src,
                    dest_addr: dest,
                    total: count,
                    expected: 0,
                    retries_left: self.proto.transfer_retries,
                    marker: 0,
                },
            );
            let pkt = Packet {
                seq,
                src_pid: requester.raw(),
                dst_pid: src_pid.raw(),
                body: PacketBody::MoveFromReq(MoveFromReq {
                    src,
                    offset: 0,
                    total: count,
                }),
            };
            let emitted = self.emit_packet(end, &pkt, src_pid.host());
            let timeout = self.proto.transfer_timeout;
            self.timer_at(
                emitted.cpu_done + timeout,
                TimerKind::TransferStall {
                    pid: requester,
                    seq,
                    marker: 0,
                },
            );
        }
    }

    /// Streams the next `MoveFrom` service chunk.
    pub(crate) fn send_serve_chunk(&mut self, t: SimTime, key: (u32, u32)) {
        let Some(serve) = self.host.out_serves.get(&key) else {
            return;
        };
        let off = serve.next_off;
        let n = (self.proto.max_data_per_packet as u32).min(serve.total - off);
        let last = off + n == serve.total;
        let (requester, seq, grantor, src_addr, total) = (
            serve.requester,
            serve.seq,
            serve.grantor,
            serve.src_addr,
            serve.total,
        );
        let data = {
            let gp = self.host.proc(grantor).expect("validated at request");
            gp.space
                .read(src_addr + off, n as usize)
                .expect("validated at request")
        };
        let pkt = Packet {
            seq,
            src_pid: grantor.raw(),
            dst_pid: requester.raw(),
            body: PacketBody::MoveFromData(MoveFromData {
                offset: off,
                total,
                last,
                data,
            }),
        };
        let chunk_cost = self.host.costs.chunk_send;
        let end = self.charge(t, chunk_cost);
        let emitted = self.emit_packet(end, &pkt, requester.host());
        self.host.stats.chunks_sent += 1;
        let serve = self.host.out_serves.get_mut(&key).expect("exists");
        serve.next_off = off + n;
        if last {
            self.host.out_serves.remove(&key);
        } else {
            self.queue.schedule(
                emitted.tx_end,
                Event::ChunkReady {
                    host: self.host_id,
                    key: StreamKey::Serve {
                        requester: key.0,
                        seq: key.1,
                    },
                },
            );
        }
    }

    /// A stream's previous frame left the interface: send the next chunk.
    pub(crate) fn handle_chunk_ready(&mut self, t: SimTime, key: StreamKey) {
        match key {
            StreamKey::Move { mover } => {
                let Some(om) = self.host.out_moves.get(&mover) else {
                    return;
                };
                if om.awaiting_ack {
                    return;
                }
                let logical = self.host.logical;
                self.send_move_chunk(t, Pid::new(logical, mover));
            }
            StreamKey::Serve { requester, seq } => {
                self.send_serve_chunk(t, (requester, seq));
            }
        }
    }

    /// Builds a `TransferAck` packet addressed back to a transfer peer.
    fn ack_packet(seq: u32, from: Pid, to: Pid, received: u32, status: TransferStatus) -> Packet {
        Packet {
            seq,
            src_pid: from.raw(),
            dst_pid: to.raw(),
            body: PacketBody::TransferAck(TransferAck { received, status }),
        }
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
    ) {
        let key = (src.raw(), seq);
        if let Some(m) = self.host.in_moves.get_mut(&key) {
            if m.complete {
                // Duplicate after completion: re-acknowledge.
                m.last_seen = t;
                let pkt = Self::ack_packet(seq, dst, src, body.total, TransferStatus::Complete);
                self.emit_packet(t, &pkt, src.host());
                return;
            }
        } else {
            // First chunk of a new inbound transfer: validate the grant.
            let grant = match self.host.proc(dst).map(|p| &p.state) {
                Some(ProcState::AwaitingReplyRemote { to, grant, .. }) if *to == src => *grant,
                _ => {
                    let pkt = Self::ack_packet(seq, dst, src, 0, TransferStatus::Unknown);
                    self.emit_packet(t, &pkt, src.host());
                    return;
                }
            };
            // The whole transfer's range is implied by (dest - offset,
            // total); validate this chunk now and later chunks as they
            // arrive.
            if grant.is_none() {
                let pkt = Self::ack_packet(seq, dst, src, 0, TransferStatus::AccessViolation);
                self.emit_packet(t, &pkt, src.host());
                return;
            }
            self.host.in_moves.insert(
                key,
                InMove {
                    dest_pid: dst,
                    expected: 0,
                    total: body.total,
                    complete: false,
                    last_seen: t,
                },
            );
            self.arm_housekeeping(t);
        }

        let expected = self.host.in_moves.get(&key).expect("just ensured").expected;
        let chunk_cost = self.host.costs.chunk_recv;
        let end = self.charge(t, chunk_cost);

        if body.offset != expected {
            self.host.stats.chunks_dropped += 1;
            if body.last {
                // Gap detected at the end: ask for resumption from the
                // last in-order byte.
                let pkt = Self::ack_packet(seq, dst, src, expected, TransferStatus::Partial);
                self.emit_packet(end, &pkt, src.host());
            }
            return;
        }

        // In-order chunk: validate against the grant and deposit.
        let grant = match self.host.proc(dst).map(|p| &p.state) {
            Some(ProcState::AwaitingReplyRemote { grant: Some(g), .. }) => *g,
            _ => {
                self.host.in_moves.remove(&key);
                let pkt = Self::ack_packet(seq, dst, src, 0, TransferStatus::Unknown);
                self.emit_packet(end, &pkt, src.host());
                return;
            }
        };
        let n = body.data.len() as u32;
        let ok = grant.check(body.dest, n, Access::Write).and_then(|_| {
            let pcb = self.host.proc_mut(dst).expect("checked");
            pcb.space.write(body.dest, &body.data)
        });
        if ok.is_err() {
            self.host.in_moves.remove(&key);
            let pkt = Self::ack_packet(seq, dst, src, 0, TransferStatus::AccessViolation);
            self.emit_packet(end, &pkt, src.host());
            return;
        }
        self.host.stats.chunks_received += 1;
        let m = self.host.in_moves.get_mut(&key).expect("exists");
        m.expected += n;
        m.last_seen = end;
        let complete = body.last && m.expected == m.total;
        let received = m.expected;
        if body.last {
            if complete {
                m.complete = true;
            }
            let status = if complete {
                TransferStatus::Complete
            } else {
                TransferStatus::Partial
            };
            let ack_cost = self.host.costs.ack_process;
            let end2 = self.charge(end, ack_cost);
            let sent = if complete { body.total } else { received };
            let pkt = Self::ack_packet(seq, dst, src, sent, status);
            self.emit_packet(end2, &pkt, src.host());
            if complete && !self.proto.reply_caching {
                // The transfer-side analog of the reply cache is the
                // completed-transfer tombstone that re-acks duplicate
                // final chunks; the ablation frees it immediately. A
                // duplicate arriving after the mover resumed earns an
                // Unknown ack it ignores; if the Complete ack itself is
                // lost, the still-blocked mover's retransmitted final
                // chunk finds no record, earns a Partial ack from byte 0
                // and re-sends the whole transfer — the honest price of
                // keeping no state.
                self.host.in_moves.remove(&key);
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
        let grant = match self.host.proc(dst).map(|p| &p.state) {
            Some(ProcState::AwaitingReplyRemote { to, grant, .. }) if *to == src => *grant,
            _ => {
                let pkt = Self::ack_packet(seq, dst, src, 0, TransferStatus::Unknown);
                self.emit_packet(t, &pkt, src.host());
                return;
            }
        };
        let ok = grant
            .ok_or(KernelError::NoSegmentAccess)
            .and_then(|g| g.check(body.src, body.total, Access::Read))
            .and_then(|_| {
                let pcb = self.host.proc(dst).expect("checked");
                pcb.space.check(body.src, body.total as usize)
            });
        if ok.is_err() {
            let pkt = Self::ack_packet(seq, dst, src, 0, TransferStatus::AccessViolation);
            self.emit_packet(t, &pkt, src.host());
            return;
        }
        let setup = self.host.costs.move_remote_setup;
        let end = self.charge(t, setup);
        let key = (src.raw(), seq);
        self.host.out_serves.insert(
            key,
            OutServe {
                requester: src,
                seq,
                grantor: dst,
                src_addr: body.src,
                next_off: body.offset,
                total: body.total,
            },
        );
        self.arm_housekeeping(end);
        self.send_serve_chunk(end, key);
    }

    pub(crate) fn handle_movefrom_data(
        &mut self,
        t: SimTime,
        src: Pid,
        dst: Pid,
        seq: u32,
        body: MoveFromData,
    ) {
        let uid = dst.local();
        let Some(f) = self.host.in_fetches.get(&uid) else {
            return; // transfer already completed or failed
        };
        if f.src_pid != src || f.seq != seq {
            return;
        }
        let expected = f.expected;
        let chunk_cost = self.host.costs.chunk_recv;
        let end = self.charge(t, chunk_cost);

        if body.offset != expected {
            self.host.stats.chunks_dropped += 1;
            if body.last {
                // Ask the source to resume from the last in-order byte.
                self.host.stats.transfer_resumes += 1;
                let f = self.host.in_fetches.get_mut(&uid).expect("exists");
                f.marker = f.marker.wrapping_add(1);
                let (seq, src_pid, src_addr, total_rem) = (f.seq, f.src_pid, f.src_addr, f.total);
                let pkt = Packet {
                    seq,
                    src_pid: dst.raw(),
                    dst_pid: src_pid.raw(),
                    body: PacketBody::MoveFromReq(MoveFromReq {
                        src: src_addr,
                        offset: expected,
                        total: total_rem,
                    }),
                };
                self.emit_packet(end, &pkt, src_pid.host());
            }
            return;
        }

        let n = body.data.len() as u32;
        let dest = {
            let f = self.host.in_fetches.get(&uid).expect("exists");
            f.dest_addr + body.offset
        };
        {
            let pcb = self.host.proc_mut(dst).expect("requester exists");
            if pcb.space.write(dest, &body.data).is_err() {
                self.fail_move(end, dst, KernelError::BadAddress);
                return;
            }
        }
        self.host.stats.chunks_received += 1;
        let f = self.host.in_fetches.get_mut(&uid).expect("exists");
        f.expected += n;
        f.marker = f.marker.wrapping_add(1);
        let done = body.last && f.expected == f.total;
        let total = f.total;
        if done {
            self.host.in_fetches.remove(&uid);
            let cost = self.host.costs.ack_process
                + self.host.costs.unblock
                + self.host.costs.context_switch;
            let end2 = self.charge(end, cost);
            let pcb = self.host.proc_mut(dst).expect("requester exists");
            pcb.state = ProcState::Ready;
            self.resume_at(end2, dst, Outcome::Move(Ok(total)));
        } else if body.last {
            // Final chunk arrived but earlier ones are missing — covered
            // by the out-of-order branch above, so nothing to do here.
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
        // MoveTo mover side?
        if let Some(om) = self.host.out_moves.get(&dst.local()) {
            if om.seq != seq || om.dest_pid != src {
                return;
            }
            match body.status {
                TransferStatus::Complete => {
                    let total = om.total;
                    self.host.out_moves.remove(&dst.local());
                    let cost = self.host.costs.ack_process
                        + self.host.costs.unblock
                        + self.host.costs.context_switch;
                    let end = self.charge(t, cost);
                    let pcb = self.host.proc_mut(dst).expect("mover exists");
                    pcb.state = ProcState::Ready;
                    self.resume_at(end, dst, Outcome::Move(Ok(total)));
                }
                TransferStatus::Partial => {
                    let om = self.host.out_moves.get_mut(&dst.local()).expect("exists");
                    om.acked_base = body.received;
                    om.next_off = body.received;
                    om.awaiting_ack = false;
                    om.marker = om.marker.wrapping_add(1);
                    self.host.stats.transfer_resumes += 1;
                    let end = self.charge(t, self.host.costs.ack_process);
                    self.send_move_chunk(end, dst);
                }
                TransferStatus::AccessViolation | TransferStatus::Unknown => {
                    self.fail_move(t, dst, KernelError::TransferRejected);
                }
            }
            return;
        }
        // MoveFrom requester side: acks only carry rejections.
        if let Some(f) = self.host.in_fetches.get(&dst.local()) {
            if f.seq != seq || f.src_pid != src {
                return;
            }
            match body.status {
                TransferStatus::AccessViolation | TransferStatus::Unknown => {
                    self.fail_move(t, dst, KernelError::TransferRejected);
                }
                _ => {}
            }
        }
    }
}
