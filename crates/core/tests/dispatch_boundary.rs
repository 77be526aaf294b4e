//! The receive/dispatch boundary under hostile input: frames that no
//! in-simulation kernel would send — unknown packet kinds, corrupted
//! checksums, truncated headers — must be counted in the kernel stats
//! and dropped without disturbing the protocol engine.

use v_kernel::{Cluster, ClusterConfig, CpuSpeed, HostId};
use v_net::{EtherType, Frame, MacAddr};

/// Hand-builds an interkernel packet with an arbitrary kind byte, zero
/// payload and a correct checksum: contents `v_wire::encode` refuses to
/// produce.
fn forged_packet(kind: u8) -> Vec<u8> {
    let mut header = vec![0u8; v_wire::HEADER_LEN];
    header[0] = kind;
    v_wire::seal(&mut header);
    header
}

fn two_hosts() -> Cluster {
    Cluster::new(ClusterConfig::three_mb().with_hosts(2, CpuSpeed::Mc68000At8MHz))
}

#[test]
fn unknown_packet_kind_is_counted_and_dropped() {
    let mut cl = two_hosts();
    let target = HostId(0);
    for kind in [0u8, 42, 0xFF] {
        let frame = Frame::new(
            MacAddr(1),
            MacAddr(2),
            EtherType::INTERKERNEL,
            forged_packet(kind),
        );
        cl.inject_frame(target, frame);
    }
    cl.run();
    let stats = cl.kernel_stats(target);
    assert_eq!(stats.unknown_kind_drops, 3, "every forged kind counted");
    assert_eq!(stats.checksum_drops, 0, "intact frames are not miscounted");
    // Nothing was delivered, retried or nacked as a consequence.
    assert_eq!(stats.aliens_allocated, 0);
    assert_eq!(stats.nacks_sent, 0);
}

#[test]
fn corrupted_and_truncated_frames_count_as_checksum_drops() {
    let mut cl = two_hosts();
    let target = HostId(0);
    // Valid kind byte (Nack) but a ruined checksum.
    let mut bad_sum = forged_packet(4);
    bad_sum[28] ^= 0xA5;
    // Shorter than a header.
    let runt = vec![1u8, 2, 3];
    for payload in [bad_sum, runt] {
        let frame = Frame::new(MacAddr(1), MacAddr(2), EtherType::INTERKERNEL, payload);
        cl.inject_frame(target, frame);
    }
    cl.run();
    let stats = cl.kernel_stats(target);
    assert_eq!(stats.checksum_drops, 2);
    assert_eq!(stats.unknown_kind_drops, 0);
}

#[test]
fn foreign_ethertype_without_handler_is_ignored() {
    let mut cl = two_hosts();
    let target = HostId(0);
    let frame = Frame::new(MacAddr(1), MacAddr(2), EtherType(0x9999), vec![0u8; 40]);
    cl.inject_frame(target, frame);
    cl.run();
    let stats = cl.kernel_stats(target);
    assert_eq!(stats.checksum_drops, 0);
    assert_eq!(stats.unknown_kind_drops, 0);
}

// ----------------------------------------------------------------------
// Broadcast runs: one queue entry, many receivers
// ----------------------------------------------------------------------

use std::cell::RefCell;
use std::rc::Rc;

use v_kernel::raw::{RawCtx, RawHandler};
use v_kernel::{Api, LogicalHost, Outcome, Pid, Program, Scope};
use v_net::FaultPlan;
use v_sim::{SimDuration, SimStats, SimTime};
use v_wire::{GetPidReq, Packet, PacketBody};

/// Broadcasts `frames[token]` under whatever ethertype it is registered
/// for — registered for the interkernel ethertype it never hears a frame
/// (the kernel claims those first) but forges them onto the wire.
struct Broadcaster {
    frames: Vec<Vec<u8>>,
}

impl RawHandler for Broadcaster {
    fn on_frame(&mut self, _ctx: &mut dyn RawCtx, _frame: &Frame) {}

    fn on_timer(&mut self, ctx: &mut dyn RawCtx, token: u64) {
        ctx.send_frame(MacAddr::BROADCAST, self.frames[token as usize].clone());
    }
}

/// `(own station, frame.dst, payload)` of a frame heard.
type Heard = (MacAddr, MacAddr, Vec<u8>);

/// Records every frame heard.
struct Recorder {
    heard: Rc<RefCell<Vec<Heard>>>,
}

impl RawHandler for Recorder {
    fn on_frame(&mut self, ctx: &mut dyn RawCtx, frame: &Frame) {
        self.heard
            .borrow_mut()
            .push((ctx.mac(), frame.dst, frame.payload.to_vec()));
    }

    fn on_timer(&mut self, _ctx: &mut dyn RawCtx, _token: u64) {}
}

/// Registers a remotely visible name and then waits forever.
struct Named;

impl Program for Named {
    fn resume(&mut self, api: &mut Api<'_>, _outcome: Outcome) {
        let me = api.self_pid();
        api.set_pid(7, me, Scope::Both);
        api.receive();
    }
}

const RAW_PAYLOAD: [u8; 48] = [0x3C; 48];

/// Six stations on one lossy segment, host 3 crashed, host 2 holding a
/// name. Host 0 broadcasts, 4 ms apart: a `GetPidReq` for that name, a
/// checksum-valid packet of unknown kind, the `GetPidReq` again, and a
/// raw-ethertype datagram. Every same-instant fan-out is one queue
/// entry whose copies reach a dead interface, get scrambled in flight
/// (and duplicated), or arrive intact.
fn broadcast_scenario() -> (Cluster, Vec<Heard>) {
    let mut cfg = ClusterConfig::three_mb().with_hosts(6, CpuSpeed::Mc68000At8MHz);
    cfg.faults = FaultPlan {
        loss: 0.0,
        duplicate: 0.2,
        corrupt: 0.3,
    };
    let mut cl = Cluster::new(cfg);
    cl.spawn(HostId(2), "named", Box::new(Named));
    cl.run();
    cl.crash_host(HostId(3));

    let asker = Pid::new(LogicalHost::from_station(cl.mac(HostId(0)).0), 9);
    let query = v_wire::encode(&Packet {
        seq: 0,
        src_pid: asker.raw(),
        dst_pid: 0,
        body: PacketBody::GetPidReq(GetPidReq { logical_id: 7 }),
    })
    .to_vec();
    cl.register_raw_handler(
        HostId(0),
        EtherType::INTERKERNEL,
        Box::new(Broadcaster {
            frames: vec![query, forged_packet(42)],
        }),
    );
    cl.register_raw_handler(
        HostId(0),
        EtherType::RAW_BENCH,
        Box::new(Broadcaster {
            frames: vec![RAW_PAYLOAD.to_vec()],
        }),
    );
    let heard = Rc::new(RefCell::new(Vec::new()));
    for h in 1..6 {
        if h != 3 {
            let heard = Rc::clone(&heard);
            cl.register_raw_handler(
                HostId(h),
                EtherType::RAW_BENCH,
                Box::new(Recorder { heard }),
            );
        }
    }
    for (i, (ety, token)) in [
        (EtherType::INTERKERNEL, 0),
        (EtherType::INTERKERNEL, 1),
        (EtherType::INTERKERNEL, 0),
        (EtherType::RAW_BENCH, 0),
    ]
    .into_iter()
    .enumerate()
    {
        cl.poke_raw_handler(
            HostId(0),
            ety,
            token,
            SimDuration::from_millis(4 * i as u64 + 1),
        );
    }
    cl.run();
    let heard = heard.borrow().clone();
    (cl, heard)
}

/// Pinned on the per-receiver dispatcher (one cloned frame and one
/// decode per receiver) before same-instant runs became shared-frame
/// groups decoded once: grouping must not move a single count, charge
/// or instant.
#[test]
fn broadcast_run_counts_match_per_receiver_dispatch() {
    let (cl, _) = broadcast_scenario();
    let per_host = |f: fn(&v_kernel::KernelStats) -> u64| -> Vec<u64> {
        (0..6).map(|h| f(&cl.kernel_stats(HostId(h)))).collect()
    };
    // Host 0's two drops are corrupted `GetPidReply` unicasts.
    assert_eq!(per_host(|s| s.checksum_drops), [2, 2, 0, 0, 2, 2]);
    assert_eq!(per_host(|s| s.unknown_kind_drops), [0, 1, 1, 0, 0, 2]);
    assert_eq!(per_host(|s| s.frames_dropped_down), [0, 0, 0, 5, 0, 0]);
    assert_eq!(per_host(|s| s.getpid_answers), [0, 0, 3, 0, 0, 0]);
    // One logical event per receiver, one queue entry per run.
    assert_eq!(cl.events_dispatched(), 35);
    assert_eq!(
        cl.sim_stats(),
        SimStats {
            scheduled: 24,
            popped: 24,
            pending: 0
        }
    );
    assert_eq!(cl.now(), SimTime::from_nanos(14_029_652));
    let busy: Vec<u64> = (0..6).map(|h| cl.cpu_busy(HostId(h)).as_nanos()).collect();
    assert_eq!(
        busy,
        [2_384_560, 1_935_520, 3_334_560, 0, 1_666_480, 1_666_480]
    );
    let m = cl.medium_stats();
    assert_eq!(
        (m.frames_sent, m.deliveries, m.corrupted, m.duplicated),
        (7, 30, 9, 7)
    );
}

#[test]
fn raw_broadcast_reaches_every_handler_with_its_own_dst() {
    let (cl, heard) = broadcast_scenario();
    // Every live station but the sender, in address order, then host 1's
    // injected duplicate one redelivery gap later; the crashed host's
    // handler died with its kernel.
    let stations: Vec<MacAddr> = [1, 2, 4, 5, 1].map(|h| cl.mac(HostId(h))).to_vec();
    assert_eq!(heard.len(), stations.len());
    for ((own, dst, payload), station) in heard.iter().zip(&stations) {
        assert_eq!(own, station);
        assert_eq!(dst, own, "each receiver sees the frame addressed to itself");
        assert_eq!(payload[..], RAW_PAYLOAD[..]);
    }
}

// ----------------------------------------------------------------------
// Frames no interface matches
// ----------------------------------------------------------------------

use v_kernel::{KernelError, Message};
use v_net::MeshConfig;

/// Sends one message to `to` and records how the exchange ended.
struct CallGhost {
    to: Pid,
    ended: Rc<RefCell<Option<Result<Message, KernelError>>>>,
}

impl Program for CallGhost {
    fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
        match outcome {
            Outcome::Started => api.send(Message::empty(), self.to),
            Outcome::Send(result) => {
                *self.ended.borrow_mut() = Some(result);
                api.exit();
            }
            other => panic!("resumed with {other:?}"),
        }
    }
}

/// A `Send` from host 1 to a process on the logical host of `station`,
/// which no host of `cl` occupies; returns how it ended.
fn call_ghost_station(mut cl: Cluster, station: u16) -> Option<Result<Message, KernelError>> {
    let ended = Rc::new(RefCell::new(None));
    let call = CallGhost {
        to: Pid::new(LogicalHost::from_station(station), 1),
        ended: Rc::clone(&ended),
    };
    cl.spawn(HostId(1), "caller", Box::new(call));
    cl.run();
    let budget = cl.config().protocol.max_retries as u64;
    assert_eq!(cl.kernel_stats(HostId(1)).retransmissions, budget);
    assert_eq!(cl.kernel_stats(HostId(1)).host_down_failures, 1);
    assert_eq!(
        cl.cpu_busy(HostId(0)),
        SimDuration::ZERO,
        "host 0 heard nothing"
    );
    let ended = *ended.borrow();
    ended
}

#[test]
fn a_send_to_a_station_nobody_attached_ends_in_host_down() {
    // The shared Ethernet delivers a unicast whatever its address, as the
    // wire does: it is for the receiving side to find that no interface
    // matches. Station 200 on a two-host segment is host index 199.
    let ended = call_ghost_station(two_hosts(), 200);
    assert_eq!(ended, Some(Err(KernelError::HostDown)));
}

#[test]
fn a_send_off_the_station_plan_of_a_mesh_ends_in_host_down() {
    let mut cfg = ClusterConfig::mesh(MeshConfig::line(3));
    for segment in 0..3 {
        cfg = cfg.with_host_on(CpuSpeed::Mc68000At8MHz, segment);
    }
    let ended = call_ghost_station(Cluster::new(cfg), 0x0201);
    assert_eq!(ended, Some(Err(KernelError::HostDown)));
}

/// Sends one raw datagram to the station it is told to.
struct Unicaster {
    to: MacAddr,
}

impl RawHandler for Unicaster {
    fn on_frame(&mut self, _ctx: &mut dyn RawCtx, _frame: &Frame) {}

    fn on_timer(&mut self, ctx: &mut dyn RawCtx, _token: u64) {
        ctx.send_frame(self.to, RAW_PAYLOAD.to_vec());
    }
}

#[test]
fn a_frame_for_a_zero_low_byte_address_is_heard_by_nobody() {
    // The station plan skips addresses with a zero low byte, so 0x0100
    // has no host index at all (the inverse of the plan used to
    // underflow on it).
    for ghost in [MacAddr(0x0100), MacAddr(0)] {
        let mut cl = two_hosts();
        let heard = Rc::new(RefCell::new(Vec::new()));
        for h in 0..2 {
            let heard = Rc::clone(&heard);
            cl.register_raw_handler(
                HostId(h),
                EtherType::RAW_BENCH,
                Box::new(Recorder { heard }),
            );
        }
        cl.register_raw_handler(
            HostId(0),
            EtherType(0x7777),
            Box::new(Unicaster { to: ghost }),
        );
        cl.poke_raw_handler(HostId(0), EtherType(0x7777), 0, SimDuration::from_millis(1));
        cl.run();
        assert_eq!(
            cl.medium_stats().frames_sent,
            1,
            "{ghost}: the frame went out"
        );
        assert_eq!(
            cl.events_dispatched(),
            1,
            "{ghost}: the timer, and no arrival"
        );
        assert!(heard.borrow().is_empty());
    }
}

// ----------------------------------------------------------------------
// Forged transfer packets: a stream is held to its own bounds
// ----------------------------------------------------------------------

use v_kernel::Access;
use v_wire::{MoveFromData, MoveFromReq, MoveToData, TransferAck, TransferStatus};

/// The granted segment, and the bytes it and its surroundings hold.
const GRANT_AT: u32 = 0x1000;
const GRANTED: u8 = 0x11;
const UNGRANTED: u8 = 0xEE;
/// Where the holder keeps its own bytes.
const HOLDER_BUF: u32 = 0x3000;
const HOLDER_FILL: u8 = 0x77;

/// Paints its space, grants `len` bytes at [`GRANT_AT`] to `to` and
/// stays blocked in the `Send`.
struct Grantor {
    to: Pid,
    len: u32,
    access: Access,
}

impl Program for Grantor {
    fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
        match outcome {
            Outcome::Started => {
                api.mem_fill(0, 0x4000, UNGRANTED).unwrap();
                api.mem_fill(GRANT_AT, self.len as usize, GRANTED).unwrap();
                let mut m = Message::empty();
                m.set_segment(GRANT_AT, self.len, self.access);
                api.send(m, self.to);
            }
            _ => api.exit(),
        }
    }
}

/// What a [`Holder`] does with the exchange it holds.
#[derive(Clone, Copy)]
enum Hold {
    /// Nothing: it never replies.
    Sit,
    /// After 5 ms, `MoveFrom` 64 granted bytes into [`HOLDER_BUF`].
    Pull,
    /// After 5 ms, `MoveTo` 2 KB of its own into the grant.
    Push,
}

/// Receives one message and holds it, logging how its move ended.
struct Holder {
    hold: Hold,
    from: Option<Pid>,
    moved: Rc<RefCell<Option<Result<u32, KernelError>>>>,
}

impl Program for Holder {
    fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
        match outcome {
            Outcome::Started => {
                api.mem_fill(HOLDER_BUF, 0x1000, HOLDER_FILL).unwrap();
                api.receive();
            }
            Outcome::Receive { from, .. } => {
                self.from = Some(from);
                api.delay(match self.hold {
                    Hold::Sit => SimDuration::from_millis(3_600_000),
                    _ => SimDuration::from_millis(5),
                });
            }
            Outcome::Delay => {
                let from = self.from.expect("held");
                match self.hold {
                    Hold::Pull => api.move_from(from, HOLDER_BUF, GRANT_AT, 64),
                    _ => api.move_to(from, GRANT_AT, HOLDER_BUF, 2048),
                }
            }
            Outcome::Move(result) => {
                *self.moved.borrow_mut() = Some(result);
                api.delay(SimDuration::from_millis(3_600_000));
            }
            other => panic!("holder resumed with {other:?}"),
        }
    }
}

/// A grantor on host 0 blocked on a holder on host 1, 4 ms in: the
/// exchange is delivered and the holder has not yet moved.
struct Held {
    cl: Cluster,
    grantor: Pid,
    holder: Pid,
    moved: Rc<RefCell<Option<Result<u32, KernelError>>>>,
}

fn held(len: u32, access: Access, hold: Hold) -> Held {
    let mut cl = two_hosts();
    let moved = Rc::new(RefCell::new(None));
    let holder = Holder {
        hold,
        from: None,
        moved: Rc::clone(&moved),
    };
    let holder = cl.spawn(HostId(1), "holder", Box::new(holder));
    let grantor = Grantor {
        to: holder,
        len,
        access,
    };
    let grantor = cl.spawn(HostId(0), "grantor", Box::new(grantor));
    cl.run_for(SimDuration::from_millis(4));
    Held {
        cl,
        grantor,
        holder,
        moved,
    }
}

impl Held {
    /// Lands a forged packet from `from` for `to` at `to`'s host.
    fn forge(&mut self, to_host: usize, from: Pid, to: Pid, seq: u32, body: PacketBody) {
        let pkt = Packet {
            seq,
            src_pid: from.raw(),
            dst_pid: to.raw(),
            body,
        };
        let payload = v_wire::encode(&pkt);
        let frame = Frame::new(MacAddr(1), MacAddr(2), EtherType::INTERKERNEL, payload);
        self.cl.inject_frame(HostId(to_host), frame);
    }

    /// The holder's move is under way with the grantor's host gone, so
    /// that nothing but what is forged answers it. A process's first
    /// transfer is numbered 1.
    fn strand_the_holder(&mut self) {
        self.cl.crash_host(HostId(0));
        self.cl.run_for(SimDuration::from_millis(15));
        assert!(self.moved.borrow().is_none(), "the move is in progress");
    }
}

#[test]
fn a_movefrom_request_that_resumes_past_the_end_is_refused() {
    // 64 bytes are granted at 0x1000. The request asks for them "from
    // offset 0x1000 on": the serve used to start there, outside the
    // grant, and run until it fell off the address space.
    let mut h = held(64, Access::Read, Hold::Sit);
    let frames_before = h.cl.medium_stats().frames_sent;
    let req = MoveFromReq {
        src: GRANT_AT,
        offset: 0x1000,
        total: 64,
    };
    h.forge(0, h.holder, h.grantor, 9, PacketBody::MoveFromReq(req));
    h.cl.run_for(SimDuration::from_millis(50));
    let stats = h.cl.kernel_stats(HostId(0));
    assert_eq!(stats.chunks_sent, 0, "not a byte is served");
    assert_eq!(
        h.cl.medium_stats().frames_sent,
        frames_before + 1,
        "one frame answers it: the refusal"
    );
    assert!(h.cl.process_exists(HostId(0), h.grantor));
}

#[test]
fn a_movefrom_chunk_larger_than_the_request_is_dropped_unwritten() {
    let mut h = held(64, Access::Read, Hold::Pull);
    h.strand_the_holder();
    let chunk = MoveFromData {
        offset: 0,
        total: 64,
        last: true,
        data: vec![0xBB; 300],
    };
    h.forge(1, h.grantor, h.holder, 1, PacketBody::MoveFromData(chunk));
    h.cl.run_for(SimDuration::from_millis(1));
    let stats = h.cl.kernel_stats(HostId(1));
    assert_eq!((stats.chunks_received, stats.chunks_dropped), (0, 1));
    let buf =
        h.cl.read_process_memory(HostId(1), h.holder, HOLDER_BUF, 512);
    assert_eq!(
        buf.unwrap(),
        vec![HOLDER_FILL; 512],
        "not the 64 asked for, and not the 236 past them"
    );
    // The stall timer asks again, of a host that is gone.
    h.cl.run_for(SimDuration::from_millis(3000));
    assert_eq!(*h.moved.borrow(), Some(Err(KernelError::Timeout)));

    // A chunk that fits is the move's whole answer.
    let mut h = held(64, Access::Read, Hold::Pull);
    h.strand_the_holder();
    let chunk = MoveFromData {
        offset: 0,
        total: 64,
        last: true,
        data: vec![0xBB; 64],
    };
    h.forge(1, h.grantor, h.holder, 1, PacketBody::MoveFromData(chunk));
    h.cl.run_for(SimDuration::from_millis(5));
    assert_eq!(*h.moved.borrow(), Some(Ok(64)));
}

#[test]
fn a_moveto_chunk_larger_than_its_transfer_is_refused_unwritten() {
    // A kilobyte is granted; the transfer announces 64 bytes and its
    // one chunk carries 300 — inside the grant, outside the transfer.
    let mut h = held(1024, Access::Write, Hold::Sit);
    let frames_before = h.cl.medium_stats().frames_sent;
    let chunk = MoveToData {
        dest: GRANT_AT,
        offset: 0,
        total: 64,
        last: true,
        data: vec![0xBB; 300],
    };
    h.forge(0, h.holder, h.grantor, 9, PacketBody::MoveToData(chunk));
    h.cl.run_for(SimDuration::from_millis(10));
    let stats = h.cl.kernel_stats(HostId(0));
    assert_eq!(stats.chunks_received, 0);
    let seg =
        h.cl.read_process_memory(HostId(0), h.grantor, GRANT_AT, 1024);
    assert_eq!(seg.unwrap(), vec![GRANTED; 1024], "nothing was deposited");
    assert_eq!(h.cl.medium_stats().frames_sent, frames_before + 1);
    // The stream is gone, not left waiting for bytes 300 to 64: the
    // same chunk again is a first chunk again, refused again.
    let chunk = MoveToData {
        dest: GRANT_AT,
        offset: 0,
        total: 64,
        last: true,
        data: vec![0xBB; 300],
    };
    h.forge(0, h.holder, h.grantor, 9, PacketBody::MoveToData(chunk));
    h.cl.run_for(SimDuration::from_millis(10));
    assert_eq!(h.cl.kernel_stats(HostId(0)).chunks_dropped, 2);
}

#[test]
fn a_partial_ack_for_more_than_the_transfer_is_ignored() {
    let mut h = held(2048, Access::Write, Hold::Push);
    h.strand_the_holder();
    let sent_before = h.cl.kernel_stats(HostId(1)).chunks_sent;
    assert_eq!(sent_before, 4, "2 KB went out and waits for its ack");
    let ack = TransferAck {
        received: 5000,
        status: TransferStatus::Partial,
    };
    h.forge(1, h.grantor, h.holder, 1, PacketBody::TransferAck(ack));
    h.cl.run_for(SimDuration::from_millis(10));
    let stats = h.cl.kernel_stats(HostId(1));
    assert_eq!(stats.chunks_sent, sent_before, "no resumption from 5000");
    assert_eq!(stats.transfer_resumes, 0);
    h.cl.run_for(SimDuration::from_millis(3000));
    assert_eq!(*h.moved.borrow(), Some(Err(KernelError::Timeout)));
}

// ----------------------------------------------------------------------
// A superseding Send for another process of the same host
// ----------------------------------------------------------------------

use v_wire::SendBody;

/// Sits in a `Delay` for `first` before its first `Receive`, then logs
/// every message it receives — `(the receiving process, the sender, the
/// message's word at 4)` — and replies to it.
struct Logger {
    first: SimDuration,
    got: Rc<RefCell<Vec<(Pid, Pid, u32)>>>,
}

impl Program for Logger {
    fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
        match outcome {
            Outcome::Started => return api.delay(self.first),
            Outcome::Delay => {}
            Outcome::Receive { from, msg } => {
                let me = api.self_pid();
                self.got.borrow_mut().push((me, from, msg.get_u32(4)));
                let _ = api.reply(msg, from);
            }
            other => panic!("logger resumed with {other:?}"),
        }
        api.receive();
    }
}

#[test]
fn a_superseding_send_for_another_process_is_queued_for_that_process() {
    // A remote sender's exchange 1 waits in busy process A's queue; its
    // exchange 2 — the first one given up — is for process B on the same
    // host, which is waiting in `Receive`. The alien is one descriptor
    // per remote sender, so exchange 2 takes it over: it must be queued
    // for B, not left where exchange 1 was.
    let mut cl = two_hosts();
    let got = Rc::new(RefCell::new(Vec::new()));
    let logger = |first: u64| Logger {
        first: SimDuration::from_millis(first),
        got: Rc::clone(&got),
    };
    let a = cl.spawn(HostId(1), "busy", Box::new(logger(50)));
    let b = cl.spawn(HostId(1), "waiting", Box::new(logger(0)));
    cl.run_for(SimDuration::from_millis(1));
    let sender = Pid::new(cl.logical_host(HostId(0)), 9);
    for (seq, to) in [(1, a), (2, b)] {
        let mut msg = Message::empty();
        msg.set_u32(4, seq);
        let pkt = Packet {
            seq,
            src_pid: sender.raw(),
            dst_pid: to.raw(),
            body: PacketBody::Send(SendBody {
                msg: *msg.as_bytes(),
                appended: Vec::new(),
                appended_from: 0,
            }),
        };
        let frame = Frame::new(
            cl.mac(HostId(1)),
            cl.mac(HostId(0)),
            EtherType::INTERKERNEL,
            v_wire::encode(&pkt),
        );
        cl.inject_frame(HostId(1), frame);
        cl.run_for(SimDuration::from_millis(1));
    }
    cl.run_for(SimDuration::from_millis(100));
    assert_eq!(
        *got.borrow(),
        [(b, sender, 2)],
        "B is handed exchange 2 at once, and A never sees a stale entry"
    );
    assert_eq!(cl.kernel_stats(HostId(1)).aliens_allocated, 2);
}
