//! The shared-state core of the kernel protocol engine.
//!
//! [`Ctx`] is a split borrow of one host and its receive lane plus the
//! shared medium, event queue and protocol configuration. The protocol
//! logic itself lives in the [`crate::ipc`] module tree — one file per
//! protocol concern — as `impl Ctx` blocks; this file keeps only the
//! state plumbing every concern shares: processor charging, event
//! scheduling and frame emission.
//!
//! Timing discipline: a handler runs at its trigger's pop time, charges
//! processor costs as it goes, and schedules every externally visible
//! effect (process resume, frame transmission) at the end of the charges
//! that produce it.

use std::rc::Rc;

use v_net::sink::receivers;
use v_net::{Delivery, DeliverySink, EtherType, Frame, StationRun, Transport};
use v_sim::{EventQueue, SimDuration, SimTime};

use crate::config::ProtocolConfig;
use crate::event::{Event, FanOut, HostId, Reach, TimerKind};
use crate::fanout::Segment;
use crate::host::{Host, Lane};
use crate::pid::{LogicalHost, Pid};
use crate::program::Outcome;
use v_wire::{encode, encode_with, Packet, PacketBody, WireBytes};

/// Result of handing a frame to the interface.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Emitted {
    /// When the sending processor finished the copy-in (it is free after
    /// this).
    pub cpu_done: SimTime,
    /// When the frame left the interface (next copy-in may start).
    pub tx_end: SimTime,
}

/// Split-borrow context for one host's kernel. The lane is caught up
/// with its segment's log for as long as the context lives.
pub(crate) struct Ctx<'a> {
    pub host: &'a mut Host,
    pub lane: &'a mut Lane,
    pub segments: &'a mut [Segment],
    pub net: &'a mut dyn Transport,
    pub queue: &'a mut EventQueue<Event>,
    pub proto: &'a ProtocolConfig,
    pub host_id: HostId,
}

impl Ctx<'_> {
    /// Charges processor time starting no earlier than `t`; returns the
    /// completion instant.
    pub(crate) fn charge(&mut self, t: SimTime, cost: SimDuration) -> SimTime {
        self.lane.cpu.charge(t, cost).end
    }

    /// Cost of handing `n` bytes of message data between two co-located
    /// processes' spaces — the same-host loopback leg every local
    /// `Send`/`Reply` segment and local `MoveTo`/`MoveFrom` pays instead
    /// of the wire. Classic (Thoth-style) delivery charges the fixed
    /// bookkeeping plus a memory-to-memory copy; with
    /// [`ProtocolConfig::local_fastpath`] on, the kernel remaps the
    /// pages carrying the typed data into the peer's space for one fixed
    /// [`crate::CostModel::local_hop`], and the counters record the copy
    /// the exchange skipped. Never reached for remote peers, so the
    /// toggle cannot perturb the wire path.
    pub(crate) fn local_data_cost(&mut self, fixed: SimDuration, n: usize) -> SimDuration {
        if self.proto.local_fastpath {
            self.host.stats.local_fastpath_sends += 1;
            self.host.stats.local_fastpath_bytes_saved += n as u64;
            self.host.costs.local_hop
        } else {
            fixed + self.host.costs.copy_mem(n)
        }
    }

    /// Schedules a process resume on this host.
    pub(crate) fn resume_at(&mut self, at: SimTime, pid: Pid, outcome: Outcome) {
        self.queue.schedule(
            at,
            Event::Resume {
                host: self.host_id,
                pid,
                outcome,
            },
        );
    }

    /// Schedules a kernel timer on this host.
    pub(crate) fn timer_at(&mut self, at: SimTime, kind: TimerKind) {
        self.queue.schedule(
            at,
            Event::Timer {
                host: self.host_id,
                kind,
            },
        );
    }

    /// Arms the housekeeping sweep if it is not already pending.
    pub(crate) fn arm_housekeeping(&mut self, t: SimTime) {
        if !self.lane.housekeeping_armed {
            self.lane.housekeeping_armed = true;
            let at = t + ProtocolConfig::HOUSEKEEPING;
            self.timer_at(at, TimerKind::Housekeeping);
        }
    }

    /// Encodes and transmits a packet to a logical host (or broadcast if
    /// the station is unknown in learned addressing mode).
    pub(crate) fn emit_packet(
        &mut self,
        t: SimTime,
        pkt: &Packet,
        to_host: LogicalHost,
    ) -> Emitted {
        self.emit_bytes(t, encode(pkt), to_host)
    }

    /// Encodes `pkt` carrying the `len` bytes at `addr` in `pid`'s space,
    /// gathered straight into the packet's buffer — the one copy a
    /// segment makes on its way out. The caller checked the range.
    pub(crate) fn gather(&self, pkt: &Packet, pid: Pid, addr: u32, len: usize) -> WireBytes {
        let space = &self.host.proc(pid).expect("the sender exists").space;
        let bytes = encode_with(pkt, len, |data| space.read_into(addr, data));
        bytes.expect("the caller checked the range")
    }

    /// Transmits an encoded packet by handle: the caller may keep its
    /// own handle on the same buffer (the retransmission caches do), and
    /// a cached retransmission sends that very buffer again.
    pub(crate) fn emit_bytes(
        &mut self,
        t: SimTime,
        bytes: WireBytes,
        to_host: LogicalHost,
    ) -> Emitted {
        let dst = self
            .host
            .hostmap
            .resolve(to_host)
            .unwrap_or(v_net::MacAddr::BROADCAST);
        self.emit_to_mac(t, bytes, dst)
    }

    /// Broadcasts a packet (naming queries).
    pub(crate) fn emit_broadcast(&mut self, t: SimTime, pkt: &Packet) -> Emitted {
        self.emit_to_mac(t, encode(pkt), v_net::MacAddr::BROADCAST)
    }

    fn emit_to_mac(&mut self, t: SimTime, bytes: WireBytes, dst: v_net::MacAddr) -> Emitted {
        let encap = self.proto.encapsulation;
        let extra = encap.extra_bytes();
        let payload = if extra > 0 {
            let mut framed: WireBytes = std::iter::repeat(0u8).take(extra + bytes.len()).collect();
            let buf = Rc::get_mut(&mut framed).expect("a fresh buffer has one owner");
            buf[extra..].copy_from_slice(&bytes);
            framed
        } else {
            bytes
        };
        self.emit_frame(
            t,
            dst,
            EtherType::INTERKERNEL,
            payload,
            encap.extra_tx_cost(),
        )
    }

    /// Transmits a raw (non-interkernel) frame for a registered
    /// [`crate::raw::RawHandler`]; returns the instant the processor is
    /// free again.
    pub(crate) fn emit_raw(
        &mut self,
        t: SimTime,
        dst: v_net::MacAddr,
        ethertype: EtherType,
        payload: Vec<u8>,
    ) -> SimTime {
        self.emit_frame(t, dst, ethertype, payload.into(), SimDuration::ZERO)
            .cpu_done
    }

    /// The one transmit path every frame takes: charges the copy-in and
    /// `extra_cost`, hands the frame to the transport, and has its
    /// deliveries (direct and gateway-forwarded alike) scheduled as the
    /// transport produces them ([`Arrivals`], [`UnicastArrivals`]). The
    /// payload is a handle,
    /// so neither the transport's fan-out nor the queued arrivals copy
    /// the bytes; what is allocated is one box per fan-out event (its
    /// stations are the transport's own shared list), and nothing for a
    /// unicast.
    fn emit_frame(
        &mut self,
        t: SimTime,
        dst: v_net::MacAddr,
        ethertype: EtherType,
        payload: Rc<[u8]>,
        extra_cost: SimDuration,
    ) -> Emitted {
        let wire_len = payload.len();
        // The copy into the single-buffered transmit interface cannot
        // begin until the previous frame has left it.
        let ready = self.host.nic.tx_ready_after(t);
        let cost = self.host.costs.frame_tx_cost(wire_len) + extra_cost;
        let span = self.lane.cpu.charge(ready, cost);
        let frame = Frame::new(dst, self.host.nic.mac(), ethertype, payload);
        // Forwarded deliveries a gateway produced are polled after the
        // origin segment's have been scheduled: a sequence of their own.
        let win = if dst.is_broadcast() {
            let mut arrivals = Arrivals::new(self.queue);
            let win = self.net.transmit(span.end, frame, &mut arrivals);
            arrivals.close();
            self.net.poll_deliveries(&mut arrivals);
            arrivals.close();
            win
        } else {
            let mut copies = UnicastArrivals(self.queue);
            let win = self.net.transmit(span.end, frame, &mut copies);
            self.net.poll_deliveries(&mut copies);
            win
        };
        self.host.nic.note_tx(win.tx_end);
        Emitted {
            cpu_done: span.end,
            tx_end: win.tx_end,
        }
    }

    /// Sends a negative acknowledgement for an exchange addressed to a
    /// nonexistent process.
    pub(crate) fn send_nack(&mut self, t: SimTime, to: Pid, seq: u32, dead: Pid) {
        let pkt = Packet {
            seq,
            src_pid: dead.raw(),
            dst_pid: to.raw(),
            body: PacketBody::Nack,
        };
        self.host.stats.nacks_sent += 1;
        self.emit_packet(t, &pkt, to.host());
    }
}

/// The kernel's [`DeliverySink`] for a broadcast: schedules what a
/// transport delivers straight into the event queue, one
/// [`Event::Arrival`] per sequence
/// of consecutive same-instant deliveries — a broadcast's fan-out on a
/// segment is a single queue entry holding its run, not an entry (or
/// even a record) per receiver. Scheduling order, and therefore
/// FIFO tie-break order at dispatch, is delivery order.
struct Arrivals<'a> {
    queue: &'a mut EventQueue<Event>,
    /// The event under construction — its instant, its own frame and who
    /// that reaches: it is scheduled when a delivery for another instant
    /// follows, or on [`Arrivals::close`].
    open: Option<(SimTime, Frame, Reach)>,
    /// The deliveries that followed `open` at the same instant.
    rest: Vec<(Frame, Reach)>,
}

impl<'a> Arrivals<'a> {
    fn new(queue: &'a mut EventQueue<Event>) -> Self {
        Arrivals {
            queue,
            open: None,
            rest: Vec::new(),
        }
    }

    fn push(&mut self, at: SimTime, frame: Frame, reach: Reach) {
        match &self.open {
            Some((open_at, ..)) if *open_at == at => self.rest.push((frame, reach)),
            _ => {
                self.close();
                self.open = Some((at, frame, reach));
            }
        }
    }

    /// Schedules the event under construction, if any. What reaches one
    /// station is a unicast arrival, with nothing boxed.
    fn close(&mut self) {
        let Some((at, mut frame, reach)) = self.open.take() else {
            return;
        };
        let rest = std::mem::take(&mut self.rest);
        let sole = match &reach {
            _ if !rest.is_empty() => None,
            Reach::One => Some(frame.dst),
            Reach::Run { stations, len } => {
                let mut receivers = receivers(&stations[..*len], frame.src);
                receivers.next().filter(|_| receivers.next().is_none())
            }
        };
        let fan_out = match sole {
            Some(dst) => {
                frame.dst = dst;
                None
            }
            None => Some(Box::new(FanOut { reach, rest })),
        };
        self.queue.schedule(at, Event::Arrival { frame, fan_out });
    }
}

impl DeliverySink for Arrivals<'_> {
    fn deliver(&mut self, d: Delivery) {
        debug_assert_eq!(
            d.frame.dst, d.dst,
            "a delivery is addressed to its receiver"
        );
        self.push(d.at, d.frame, Reach::One);
    }

    fn deliver_run(&mut self, run: StationRun) {
        let StationRun {
            at,
            frame,
            stations,
            len,
        } = run;
        self.push(at, frame, Reach::Run { stations, len });
    }
}

/// The kernel's [`DeliverySink`] for a unicast: each copy is scheduled
/// as it comes, with nothing held open — the copies of a unicast never
/// share an instant (a duplicate trails its original by the redelivery
/// gap, and a medium serialises what a gateway forwards onto it), so
/// there is never a second delivery to put in the same event.
struct UnicastArrivals<'a>(&'a mut EventQueue<Event>);

impl DeliverySink for UnicastArrivals<'_> {
    fn deliver(&mut self, d: Delivery) {
        debug_assert_eq!(
            d.frame.dst, d.dst,
            "a delivery is addressed to its receiver"
        );
        let frame = d.frame;
        let fan_out = None;
        self.0.schedule(d.at, Event::Arrival { frame, fan_out });
    }

    fn deliver_run(&mut self, _run: StationRun) {
        unreachable!("only a broadcast is delivered as a run");
    }
}
