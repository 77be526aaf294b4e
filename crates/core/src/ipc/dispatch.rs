//! The dispatch boundary: syscalls in, frames in.
//!
//! Inbound frames are decoded exactly once — raw payload bytes become a
//! typed [`v_wire::PacketBody`] here ([`decode_frame`], once per frame
//! however many receivers of a broadcast share it), and every protocol
//! handler beyond this point consumes a body struct, and the data the
//! packet carries lent beside it from the frame's buffer. Undecodable
//! frames are counted (corruption vs. unknown kind) at each receiver and
//! dropped; the protocols above never see them. Frames with a foreign
//! ethertype fan out to the registered raw-protocol handlers.

use v_net::{EtherType, Frame};
use v_sim::{SimDuration, SimTime};

use crate::aliens::Appended;
use crate::api::Pending;
use crate::config::ProtocolConfig;
use crate::costs::CostModel;
use crate::ctx::Ctx;
use crate::event::TimerKind;
use crate::ipc::transfer::Dir;
use crate::pcb::ProcState;
use crate::pid::Pid;
use crate::program::Outcome;
use crate::raw::{RawCtx, RawHandler};
use v_wire::{decode_ref, Packet, PacketBody, WireBytes, WireError};

/// A frame's packet, and the data it carries lent from the frame.
pub(crate) type Decoded<'a> = Result<(Packet, &'a [u8]), WireError>;

/// Decodes the interkernel packet a frame carries. A frame too short to
/// hold the encapsulation header fails like any other the checksum
/// rejects.
pub(crate) fn decode_frame<'a>(proto: &ProtocolConfig, frame: &'a Frame) -> Decoded<'a> {
    let body = frame
        .payload_after(proto.encapsulation.extra_bytes())
        .ok_or(WireError::TooShort)?;
    decode_ref(body)
}

/// Processor time a kernel spends taking an interkernel frame of `len`
/// payload bytes off its interface, before it can know what the frame
/// says.
pub(crate) fn rx_cost(costs: &CostModel, proto: &ProtocolConfig, len: usize) -> SimDuration {
    costs.rx_dispatch + costs.frame_rx_cost(len) + proto.encapsulation.extra_rx_cost()
}

impl Ctx<'_> {
    // ------------------------------------------------------------------
    // Blocking syscall execution
    // ------------------------------------------------------------------

    /// Executes the blocking call a program issued during its resume,
    /// read where the program wrote it.
    pub(crate) fn execute_blocking(&mut self, t: SimTime, pid: Pid, pending: &Pending) {
        match *pending {
            Pending::Send { msg, to } => self.do_send(t, pid, msg, to),
            Pending::Receive => self.do_receive(t, pid, None),
            Pending::ReceiveSeg { buf, size } => self.do_receive(t, pid, Some((buf, size))),
            Pending::MoveTo {
                dst,
                dest,
                src,
                count,
            } => self.do_move(t, pid, dst, Dir::To, dest, src, count),
            Pending::MoveFrom {
                src_pid,
                dest,
                src,
                count,
            } => self.do_move(t, pid, src_pid, Dir::From, dest, src, count),
            Pending::GetPid { logical_id, scope } => self.do_get_pid(t, pid, logical_id, scope),
            Pending::Delay(d) => {
                let pcb = self.host.proc_mut(pid).expect("caller verified");
                pcb.state = ProcState::Waiting;
                self.resume_at(t + d, pid, Outcome::Delay);
            }
            Pending::Compute(d) => {
                let pcb = self.host.proc_mut(pid).expect("caller verified");
                pcb.state = ProcState::Waiting;
                let end = self.charge(t, d);
                self.resume_at(end, pid, Outcome::Compute);
            }
        }
    }

    // ------------------------------------------------------------------
    // Packet reception
    // ------------------------------------------------------------------

    /// A frame finished arriving at this host's interface. `decoded` is
    /// what [`decode_frame`] made of it, when the frame reached several
    /// receivers and was decoded once for them all; a frame of its own
    /// is decoded here. Receive costs are charged before the verdict is
    /// looked at, as the kernel pays them before it can know.
    pub(crate) fn handle_frame(
        &mut self,
        t: SimTime,
        frame: &Frame,
        decoded: Option<&Decoded<'_>>,
    ) {
        if frame.ethertype != EtherType::INTERKERNEL {
            self.dispatch_raw(t, frame);
            return;
        }
        let cost = rx_cost(&self.host.costs, self.proto, frame.payload.len());
        let end = self.charge(t, cost);
        let packet = match decoded {
            Some(shared) => return self.handle_shared(end, frame, shared),
            None => decode_frame(self.proto, frame),
        };
        let (pkt, data) = match packet {
            Ok(p) => p,
            Err(e) => return self.drop_undecodable(&e),
        };
        self.learn_station(&pkt, frame);
        self.dispatch_packet(end, pkt, data, &frame.payload);
    }

    /// One receiver's part in a fan-out. Its receivers share one decode,
    /// so this one looks before it copies: the broadcast the kernel sends
    /// most is a name query that at most one of them answers, and its
    /// body is `Copy`. (A receiver whose lane is deferred is spared even
    /// this much of a name query: see `Cluster::log_query`.) Any
    /// other kind is cloned, its data still lent, for the handler that
    /// will keep it. A frame of this host's own never comes this way: its
    /// packet is the receiver's to move.
    fn handle_shared(&mut self, t: SimTime, frame: &Frame, decoded: &Decoded<'_>) {
        let (pkt, data) = match decoded {
            Ok(p) => p,
            Err(e) => return self.drop_undecodable(e),
        };
        self.learn_station(pkt, frame);
        match pkt.body {
            PacketBody::GetPidReq(body) => {
                let Some(src) = Pid::from_raw(pkt.src_pid) else {
                    return;
                };
                self.handle_getpid_req(t, src, body);
            }
            _ => self.dispatch_packet(t, pkt.clone(), data, &frame.payload),
        }
    }

    /// Counts a frame no packet could be made of, by what was wrong with it.
    fn drop_undecodable(&mut self, why: &WireError) {
        match why {
            // The checksum held, so the frame arrived intact — the
            // sender just speaks a newer (or broken) protocol rev.
            WireError::UnknownKind(_) => self.host.stats.unknown_kind_drops += 1,
            _ => self.host.stats.checksum_drops += 1,
        }
    }

    /// Learns logical-host → station correspondences from traffic (10 Mb
    /// addressing mode), and treats any frame from a condemned peer as
    /// evidence of life.
    fn learn_station(&mut self, pkt: &Packet, frame: &Frame) {
        if let Some(src) = Pid::from_raw(pkt.src_pid) {
            self.host.hostmap.learn(src.host(), frame.src);
            if self.host.suspects.remove(&src.host()) {
                self.host.stats.peer_reprieves += 1;
                self.lane.requiet(self.host, self.segments);
            }
        }
    }

    /// Routes a decoded packet, and the `data` it carries at the end of
    /// `wire`, to its protocol handler. Bodies are already typed; this
    /// only resolves the pid words and fans out.
    fn dispatch_packet(&mut self, t: SimTime, pkt: Packet, data: &[u8], wire: &WireBytes) {
        let seq = pkt.seq;
        // Every packet passes between two processes, except that a name
        // query has no destination process and its answer names no
        // source: there the end that is present stands in for the one
        // that is not, which its handler never reads.
        let ends = (Pid::from_raw(pkt.src_pid), Pid::from_raw(pkt.dst_pid));
        let (src, dst) = match (&pkt.body, ends) {
            (_, (Some(src), Some(dst))) => (src, dst),
            (PacketBody::GetPidReq(_), (Some(src), None)) => (src, src),
            (PacketBody::GetPidReply(_), (None, Some(dst))) => (dst, dst),
            _ => return,
        };
        match pkt.body {
            PacketBody::Send(body) => {
                let appended = Appended::tail(wire, data, body.appended_from);
                self.handle_send_pkt(t, src, dst, seq, body.msg, appended)
            }
            PacketBody::Reply(body) => self.handle_reply_pkt(t, src, dst, seq, body, data),
            PacketBody::ReplyPending => self.handle_reply_pending(t, src, dst, seq),
            PacketBody::Nack => self.handle_nack(t, src, dst, seq),
            PacketBody::MoveToData(body) => self.handle_moveto_data(t, src, dst, seq, body, data),
            PacketBody::MoveFromReq(body) => self.handle_movefrom_req(t, src, dst, seq, body),
            PacketBody::MoveFromData(body) => {
                self.handle_movefrom_data(t, src, dst, seq, body, data)
            }
            PacketBody::TransferAck(body) => self.handle_transfer_ack(t, src, dst, seq, body),
            PacketBody::Forward(body) => {
                let appended = Appended::tail(wire, data, body.appended_from);
                self.handle_forward_pkt(t, src, dst, seq, body, appended)
            }
            PacketBody::GetPidReq(body) => self.handle_getpid_req(t, src, body),
            PacketBody::GetPidReply(body) => self.handle_getpid_reply(t, dst, body),
        }
    }

    // ------------------------------------------------------------------
    // Raw protocol handlers
    // ------------------------------------------------------------------

    fn dispatch_raw(&mut self, t: SimTime, frame: &Frame) {
        let end = self.charge(t, self.host.costs.frame_rx_cost(frame.payload.len()));
        self.run_raw(end, frame.ethertype.0, |h, raw| h.on_frame(raw, frame));
    }

    /// Hands the handler registered for `ethertype` to `call` at `t`,
    /// if there is one (a frame for none is dropped).
    pub(crate) fn run_raw(
        &mut self,
        t: SimTime,
        ethertype: u16,
        call: impl FnOnce(&mut dyn RawHandler, &mut dyn RawCtx),
    ) {
        let Some(mut handler) = self.host.raw.remove(&ethertype) else {
            return;
        };
        let mut raw = RawCtxImpl {
            ctx: self,
            now: t,
            ethertype: EtherType(ethertype),
        };
        call(handler.as_mut(), &mut raw);
        self.host.raw.insert(ethertype, handler);
    }
}

/// [`RawCtx`] implementation over a kernel context.
struct RawCtxImpl<'c, 'a> {
    ctx: &'c mut Ctx<'a>,
    now: SimTime,
    ethertype: EtherType,
}

impl RawCtx for RawCtxImpl<'_, '_> {
    fn now(&self) -> SimTime {
        self.now
    }

    fn mac(&self) -> v_net::MacAddr {
        self.ctx.host.nic.mac()
    }

    fn send_frame(&mut self, dst: v_net::MacAddr, payload: Vec<u8>) {
        self.now = self.ctx.emit_raw(self.now, dst, self.ethertype, payload);
    }

    fn charge(&mut self, cost: SimDuration) {
        self.now = self.ctx.charge(self.now, cost);
    }

    fn set_timer(&mut self, delay: SimDuration, token: u64) {
        let kind = TimerKind::Raw {
            ethertype: self.ethertype.0,
            token,
        };
        let at = self.now + delay;
        self.ctx.timer_at(at, kind);
    }
}
