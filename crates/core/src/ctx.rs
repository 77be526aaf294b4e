//! The shared-state core of the kernel protocol engine.
//!
//! [`Ctx`] is a split borrow of one host plus the shared medium, event
//! queue and protocol configuration. The protocol logic itself lives in
//! the [`crate::ipc`] module tree — one file per protocol concern — as
//! `impl Ctx` blocks; this file keeps only the state plumbing every
//! concern shares: processor charging, event scheduling and frame
//! emission.
//!
//! Timing discipline: a handler runs at its trigger's pop time, charges
//! processor costs as it goes, and schedules every externally visible
//! effect (process resume, frame transmission) at the end of the charges
//! that produce it.

use std::rc::Rc;

use v_net::{Delivery, EtherType, Frame, Transport};
use v_sim::{EventQueue, SimDuration, SimTime};

use crate::config::ProtocolConfig;
use crate::event::{Event, FanOut, HostId, TimerKind};
use crate::host::Host;
use crate::pid::{LogicalHost, Pid};
use crate::program::Outcome;
use v_wire::{encode, Packet, PacketBody, WireBytes};

/// Result of handing a frame to the interface.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Emitted {
    /// When the sending processor finished the copy-in (it is free after
    /// this).
    pub cpu_done: SimTime,
    /// When the frame left the interface (next copy-in may start).
    pub tx_end: SimTime,
}

/// Split-borrow context for one host's kernel.
pub(crate) struct Ctx<'a> {
    pub host: &'a mut Host,
    pub net: &'a mut dyn Transport,
    pub queue: &'a mut EventQueue<Event>,
    pub proto: &'a ProtocolConfig,
    pub host_id: HostId,
    pub housekeeping_armed: &'a mut bool,
    /// Cluster-owned delivery buffer every transmit drains into and
    /// schedules from (always left empty between uses).
    pub scratch: &'a mut Vec<Delivery>,
}

impl Ctx<'_> {
    /// Charges processor time starting no earlier than `t`; returns the
    /// completion instant.
    pub(crate) fn charge(&mut self, t: SimTime, cost: SimDuration) -> SimTime {
        self.host.cpu.charge(t, cost).end
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
        if !*self.housekeeping_armed {
            *self.housekeeping_armed = true;
            let at = t + self.proto.housekeeping;
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

    /// Transmits an encoded packet by handle: the caller may keep its
    /// own handle on the same buffer (the retransmission caches do), and
    /// a cached retransmission sends that very buffer again.
    pub(crate) fn emit_bytes(
        &mut self,
        t: SimTime,
        bytes: WireBytes,
        to_host: LogicalHost,
    ) -> Emitted {
        let dst = match self.host.hostmap.resolve(to_host) {
            Some(mac) => mac,
            None => {
                self.host.hostmap.note_broadcast_fallback();
                v_net::MacAddr::BROADCAST
            }
        };
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
    /// `extra_cost`, hands the frame to the transport, and schedules its
    /// deliveries (direct and gateway-forwarded alike) out of the
    /// cluster's reused scratch buffer. The payload is a handle, so
    /// neither the transport's fan-out nor the queued arrivals copy the
    /// bytes; what is allocated is a receiver list (and the box that
    /// holds it) per fan-out run, and nothing for a unicast.
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
        let span = self.host.cpu.charge(ready, cost);
        let frame = Frame::new(dst, self.host.nic.mac(), ethertype, payload);
        self.scratch.clear();
        let win = self.net.transmit(span.end, frame, self.scratch);
        self.host.nic.note_tx(win.tx_end, wire_len);
        self.schedule_scratch();
        // Forwarded deliveries a gateway produced ride the same buffer
        // (empty again after the schedule above).
        self.net.poll_deliveries(self.scratch);
        self.schedule_scratch();
        Emitted {
            cpu_done: span.end,
            tx_end: win.tx_end,
        }
    }

    /// Empties the delivery scratch into the event queue: one
    /// [`Event::Arrival`] per run of consecutive same-instant deliveries
    /// — a broadcast's fan-out becomes a single queue entry instead of
    /// one per receiver. Scheduling order (and therefore FIFO tie-break
    /// order at dispatch) is delivery order. The scratch is the buffer
    /// the transport wrote each delivery into; a run is walked once to
    /// find where its groups end, and each group's stations are then
    /// copied out at their exact count.
    fn schedule_scratch(&mut self) {
        // A unicast's one delivery is moved, not cloned.
        if self.scratch.len() == 1 {
            let d = self.scratch.pop().expect("length checked");
            self.queue.schedule(d.at, unicast(d.frame, d.dst));
            return;
        }
        let mut pending = &self.scratch[..];
        while let Some(head) = pending.first() {
            let at = head.at;
            let same_instant = |rest: &[Delivery]| rest.first().is_some_and(|d| d.at == at);
            let group = take_group(&mut pending);
            let event = if group.len() == 1 && !same_instant(pending) {
                unicast(head.frame.clone(), head.dst)
            } else {
                let stations = stations_of(group);
                let mut split = Vec::new();
                while same_instant(pending) {
                    let group = take_group(&mut pending);
                    split.push((group[0].frame.clone(), stations_of(group)));
                }
                Event::Arrival {
                    frame: head.frame.clone(),
                    fan_out: Some(Box::new(FanOut { stations, split })),
                }
            };
            self.queue.schedule(at, event);
        }
        self.scratch.clear();
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

/// The arrival of one delivery on its own. Every transport addresses a
/// delivered frame to its receiver, which is how the dispatcher finds it.
fn unicast(frame: Frame, dst: v_net::MacAddr) -> Event {
    debug_assert_eq!(frame.dst, dst, "a delivery is addressed to its receiver");
    Event::Arrival {
        frame,
        fan_out: None,
    }
}

/// Splits off the leading deliveries of `run` that arrive at one instant
/// carrying one and the same frame — one sender's payload buffer, not
/// yet diverged by corruption — in a single pass that stops at the first
/// delivery to differ in any of the four.
fn take_group<'a>(run: &mut &'a [Delivery]) -> &'a [Delivery] {
    let head = &run[0];
    let shared = run
        .iter()
        .take_while(|d| {
            d.at == head.at
                && Rc::ptr_eq(&d.frame.payload, &head.frame.payload)
                && d.frame.src == head.frame.src
                && d.frame.ethertype == head.frame.ethertype
        })
        .count();
    let (group, rest) = run.split_at(shared);
    *run = rest;
    group
}

/// The stations a group of deliveries reaches, in delivery order.
fn stations_of(group: &[Delivery]) -> Box<[v_net::MacAddr]> {
    group.iter().map(|d| d.dst).collect()
}
