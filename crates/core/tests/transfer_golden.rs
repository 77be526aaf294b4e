//! Transfer golden: what a bulk move charges, counts, schedules and
//! deposits must not move when the code that streams it is rewritten.
//!
//! Each scenario builds a small cluster and runs a scripted client that
//! grants a 16 KB segment and a scripted server that `MoveTo`s into it
//! or `MoveFrom`s out of it — across a lossy, duplicating, corrupting
//! wire (every chunk, ack, partial ack, stall timer and tombstone is at
//! work), on one host with the same-host fast path off and on, through a
//! `Forward` to a team worker or to a third host, with reply caching off,
//! with a mover that exits without replying, and with either host
//! crashing mid-stream. What is folded into the digest, host by host:
//! the processor time charged and every
//! [`KernelStats`](v_kernel::KernelStats) counter; then the medium's
//! counters (the fault RNG's draws), what every scripted process saw and
//! when, and the bytes the move left at its destination. Beside the
//! digest stand the dispatched-event count, the event queue's own
//! counters and the final instant.
//!
//! The expected values were recorded by running this file on the commit
//! before the four transfer tables became two (PR 22, `39931d3`).

use std::cell::RefCell;
use std::rc::Rc;

use v_kernel::{
    Access, Api, Cluster, ClusterConfig, CpuSpeed, HostId, KernelError, Message, Outcome, Pid,
    Program,
};
use v_net::FaultPlan;
use v_sim::SimDuration;

const CPU: CpuSpeed = CpuSpeed::Mc68000At10MHz;

/// The client's granted segment.
const SEG: u32 = 0x4000;
/// The server's buffer.
const BUF: u32 = 0x2_0000;
/// Bytes moved: 32 chunks of 512.
const LEN: u32 = 16 * 1024;

const LOSSY: FaultPlan = FaultPlan {
    loss: 0.05,
    duplicate: 0.02,
    corrupt: 0.02,
};

/// What the scripted processes saw, in the order they saw it:
/// `(host, code, detail, nanosecond)`.
type Log = Rc<RefCell<Vec<[u64; 4]>>>;

fn note(log: &Log, api: &Api<'_>, code: u64, detail: u64) {
    let host = api.local_host().0 as u64;
    log.borrow_mut()
        .push([host, code, detail, api.now().as_nanos()]);
}

fn error_code(e: KernelError) -> u64 {
    1 + match e {
        KernelError::NonexistentProcess => 0,
        KernelError::Timeout => 1,
        KernelError::HostDown => 2,
        KernelError::NoSegmentAccess => 3,
        KernelError::BadAddress => 4,
        KernelError::NotAwaitingReply => 5,
        KernelError::NotBlocked => 6,
        KernelError::TransferRejected => 7,
    }
}

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn of(bytes: &[u8]) -> u64 {
        let mut d = Digest::new();
        d.bytes(bytes);
        d.0
    }
}

/// The byte at offset `i` of a segment salted with `salt`.
fn pattern(salt: u8, i: u32) -> u8 {
    (i.wrapping_mul(31) >> 3) as u8 ^ salt
}

fn fill(api: &mut Api<'_>, addr: u32, salt: u8) {
    let bytes: Vec<u8> = (0..LEN).map(|i| pattern(salt, i)).collect();
    api.mem_write(addr, &bytes)
        .expect("the range is in the space");
}

/// Grants `[SEG, SEG + LEN)` with `access` to `to`, `rounds` times over,
/// logging how each exchange ended and what the segment held then. Stays
/// afterwards — an exit would tidy its host's tables behind it — unless
/// the exchange failed.
struct Granter {
    to: Pid,
    access: Access,
    rounds: u32,
    log: Log,
}

impl Granter {
    fn grant(&mut self, api: &mut Api<'_>) {
        fill(api, SEG, 0xA0 + self.rounds as u8);
        let mut m = Message::empty();
        m.set_u32(4, self.rounds);
        m.set_segment(SEG, LEN, self.access);
        api.send(m, self.to);
    }
}

impl Program for Granter {
    fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
        match outcome {
            Outcome::Started => self.grant(api),
            Outcome::Send(result) => {
                note(&self.log, api, 1, result.map_or_else(error_code, |_| 0));
                let held = api.mem_read(SEG, LEN as usize).expect("in the space");
                note(&self.log, api, 2, Digest::of(&held));
                if result.is_err() {
                    api.exit();
                    return;
                }
                self.rounds -= 1;
                if self.rounds > 0 {
                    self.grant(api);
                } else {
                    api.receive();
                }
            }
            other => panic!("granter resumed with {other:?}"),
        }
    }
}

/// What a [`Mover`] does with the segment it was granted.
#[derive(Clone, Copy)]
enum Op {
    /// `MoveTo` `count` bytes of its buffer to `SEG + at`.
    Push { at: u32, count: u32 },
    /// `MoveFrom` `count` bytes at `SEG + at` into its buffer.
    Pull { at: u32, count: u32 },
}

const PUSH: Op = Op::Push { at: 0, count: LEN };
const PULL: Op = Op::Pull { at: 0, count: LEN };

/// Receives, runs its `ops` against the sender's grant one after the
/// other, logging each result, and replies — or, with `silent`, exits
/// without replying. A failed move ends the script there, and the
/// process with it.
struct Mover {
    ops: Vec<Op>,
    silent: bool,
    log: Log,
    client: Option<Pid>,
    next: usize,
}

impl Mover {
    fn new(ops: &[Op], log: &Log) -> Mover {
        Mover {
            ops: ops.to_vec(),
            silent: false,
            log: log.clone(),
            client: None,
            next: 0,
        }
    }

    fn step(&mut self, api: &mut Api<'_>) {
        let client = self.client.expect("a request was received");
        match self.ops.get(self.next) {
            Some(&Op::Push { at, count }) => api.move_to(client, SEG + at, BUF, count),
            Some(&Op::Pull { at, count }) => api.move_from(client, BUF, SEG + at, count),
            None if self.silent => api.exit(),
            None => {
                let replied = api.reply(Message::empty(), client);
                note(&self.log, api, 5, replied.map_or_else(error_code, |_| 0));
                self.next = 0;
                api.receive();
            }
        }
        self.next += 1;
    }
}

impl Program for Mover {
    fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
        match outcome {
            Outcome::Started => {
                fill(api, BUF, 0x5C);
                api.receive();
            }
            Outcome::Receive { from, .. } => {
                self.client = Some(from);
                self.next = 0;
                self.step(api);
            }
            Outcome::Move(result) => {
                let detail = match result {
                    Ok(n) => n as u64,
                    Err(e) => 1 << 32 | error_code(e),
                };
                note(&self.log, api, 3, detail);
                let held = api.mem_read(BUF, LEN as usize).expect("in the space");
                note(&self.log, api, 4, Digest::of(&held));
                if result.is_err() {
                    api.exit();
                } else {
                    self.step(api);
                }
            }
            other => panic!("mover resumed with {other:?}"),
        }
    }
}

/// Forwards every request to `worker` — unchanged, or with `widen`
/// claiming twice the segment the client granted, which the worker's
/// kernel believes and the client's does not.
struct Receptionist {
    worker: Pid,
    widen: bool,
    log: Log,
}

impl Program for Receptionist {
    fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
        match outcome {
            Outcome::Started => {}
            Outcome::Receive { from, mut msg } => {
                if self.widen {
                    msg.set_segment(SEG, 2 * LEN, Access::ReadWrite);
                }
                let forwarded = api.forward(msg, from, self.worker);
                note(&self.log, api, 6, forwarded.map_or_else(error_code, |_| 0));
            }
            other => panic!("receptionist resumed with {other:?}"),
        }
        api.receive();
    }
}

/// What one scenario left behind.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    events_dispatched: u64,
    scheduled: u64,
    popped: u64,
    now_ns: u64,
    digest: u64,
}

/// A scenario at quiescence: the cluster, what its processes logged, and
/// where the moved bytes lie.
struct Ran {
    cl: Cluster,
    log: Log,
    ends: Vec<(HostId, Pid, u32)>,
}

fn golden_of(ran: &Ran) -> Golden {
    let cl = &ran.cl;
    let mut d = Digest::new();
    for h in 0..cl.num_hosts() {
        let host = HostId(h);
        d.word(cl.cpu_busy(host).as_nanos());
        d.word(cl.host_is_up(host) as u64);
        // Every counter, by name: the struct derives `Debug`.
        d.bytes(format!("{:?}", cl.kernel_stats(host)).as_bytes());
    }
    d.bytes(format!("{:?}", cl.medium_stats()).as_bytes());
    for entry in ran.log.borrow().iter() {
        for &w in entry {
            d.word(w);
        }
    }
    for &(host, pid, addr) in &ran.ends {
        match cl.read_process_memory(host, pid, addr, LEN as usize) {
            Ok(bytes) => d.bytes(&bytes),
            Err(_) => d.word(u64::MAX), // the process is gone
        }
    }
    let sim = cl.sim_stats();
    assert_eq!(sim.pending, 0, "every scenario runs to quiescence");
    Golden {
        events_dispatched: cl.events_dispatched(),
        scheduled: sim.scheduled,
        popped: sim.popped,
        now_ns: cl.now().as_nanos(),
        digest: d.0,
    }
}

fn lossy(seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::three_mb();
    cfg.faults = LOSSY;
    cfg.seed = seed;
    cfg
}

fn access_for(ops: &[Op]) -> Access {
    let pushes = ops.iter().any(|op| matches!(op, Op::Push { .. }));
    let pulls = ops.iter().any(|op| matches!(op, Op::Pull { .. }));
    match (pushes, pulls) {
        (true, true) => Access::ReadWrite,
        (true, false) => Access::Write,
        _ => Access::Read,
    }
}

/// A granter on host 0 and a mover on the last of `hosts` (the same
/// host when that is 1), `rounds` exchanges; `meddle` runs 25 ms in, with
/// the first stream under way.
fn pair(
    cfg: ClusterConfig,
    hosts: usize,
    ops: &[Op],
    rounds: u32,
    meddle: impl FnOnce(&mut Cluster),
) -> Ran {
    let mut cl = Cluster::new(cfg.with_hosts(hosts, CPU));
    let log = Log::default();
    let there = HostId(hosts - 1);
    let mover = cl.spawn(there, "mover", Box::new(Mover::new(ops, &log)));
    cl.run();
    let granter = Granter {
        to: mover,
        access: access_for(ops),
        rounds,
        log: log.clone(),
    };
    let granter = cl.spawn(HostId(0), "granter", Box::new(granter));
    cl.run_for(SimDuration::from_millis(25));
    meddle(&mut cl);
    cl.run();
    let ends = vec![(HostId(0), granter, SEG), (there, mover, BUF)];
    Ran { cl, log, ends }
}

fn remote(seed: u64, ops: &[Op]) -> Ran {
    pair(lossy(seed), 2, ops, 2, |_| {})
}

fn same_host(fastpath: bool) -> Ran {
    let mut cfg = ClusterConfig::three_mb();
    cfg.protocol.local_fastpath = fastpath;
    pair(cfg, 1, &[PUSH, PULL], 2, |_| {})
}

/// 10 Mb, learned addressing, a clean wire: the stream as the paper's
/// Table 5-2 times it.
fn ten_mb_clean() -> Ran {
    pair(ClusterConfig::ten_mb(), 2, &[PUSH, PULL], 1, |_| {})
}

/// A receptionist on host 1 forwards the client's request to a worker
/// on host `worker_on`, which moves and replies.
fn forwarded(cfg: ClusterConfig, worker_on: usize, widen: bool, ops: &[Op]) -> Ran {
    let mut cl = Cluster::new(cfg.with_hosts(3, CPU));
    let log = Log::default();
    let worker = cl.spawn(HostId(worker_on), "worker", Box::new(Mover::new(ops, &log)));
    let receptionist = Receptionist {
        worker,
        widen,
        log: log.clone(),
    };
    let receptionist = cl.spawn(HostId(1), "receptionist", Box::new(receptionist));
    cl.run();
    let granter = Granter {
        to: receptionist,
        access: access_for(ops),
        rounds: 2,
        log: log.clone(),
    };
    let granter = cl.spawn(HostId(0), "granter", Box::new(granter));
    cl.run();
    let ends = vec![(HostId(0), granter, SEG), (HostId(worker_on), worker, BUF)];
    Ran { cl, log, ends }
}

/// The worker moves a kilobyte that straddles the end of what the
/// client really granted: its own kernel lets it, the client's refuses.
fn widened_grant(op: fn(u32, u32) -> Op) -> Ran {
    let cfg = ClusterConfig::three_mb();
    forwarded(cfg, 1, true, &[op(LEN - 512, 1024)])
}

fn no_reply_cache(seed: u64) -> Ran {
    let mut cfg = lossy(seed);
    cfg.protocol.alien_keep = SimDuration::ZERO;
    pair(cfg, 2, &[PUSH, PULL], 2, |_| {})
}

/// Moves outside what was granted, then inside it: a push past the end
/// of the segment, a pull of a write-only segment — each ends the mover,
/// so each gets a cluster of its own — and a push that fits.
fn refused(hosts: usize, op: Op) -> Ran {
    let mut cl = Cluster::new(ClusterConfig::three_mb().with_hosts(hosts, CPU));
    let log = Log::default();
    let there = HostId(hosts - 1);
    let mover = cl.spawn(there, "mover", Box::new(Mover::new(&[op], &log)));
    cl.run();
    let granter = Granter {
        to: mover,
        access: Access::Write,
        rounds: 1,
        log: log.clone(),
    };
    let granter = cl.spawn(HostId(0), "granter", Box::new(granter));
    cl.run();
    let ends = vec![(HostId(0), granter, SEG), (there, mover, BUF)];
    Ran { cl, log, ends }
}

const PAST_THE_END: Op = Op::Push {
    at: LEN - 1024,
    count: 2048,
};
const INSIDE: Op = Op::Push {
    at: 1024,
    count: 3000,
};

/// The mover finishes its move and exits without replying: the client
/// is nacked, fails, and exits over a completed deposit's tombstone.
fn mover_exits_without_replying(ops: &[Op]) -> Ran {
    let mut cl = Cluster::new(lossy(11).with_hosts(2, CPU));
    let log = Log::default();
    let mut mover = Mover::new(ops, &log);
    mover.silent = true;
    let mover = cl.spawn(HostId(1), "mover", Box::new(mover));
    cl.run();
    let granter = Granter {
        to: mover,
        access: access_for(ops),
        rounds: 1,
        log: log.clone(),
    };
    let granter = cl.spawn(HostId(0), "granter", Box::new(granter));
    cl.run();
    let ends = vec![(HostId(0), granter, SEG), (HostId(1), mover, BUF)];
    Ran { cl, log, ends }
}

/// Host `victim` crashes 25 ms in, mid-stream. With the client's host
/// gone the mover stalls, retries, gives up and exits; with the mover's
/// host gone the client retransmits its `Send` until the budget runs
/// out and exits over whatever half of a stream its kernel still holds.
fn crash_mid_stream(victim: usize, ops: &[Op]) -> Ran {
    pair(ClusterConfig::three_mb(), 2, ops, 1, |cl| {
        cl.crash_host(HostId(victim));
    })
}

const fn golden(
    events_dispatched: u64,
    scheduled: u64,
    popped: u64,
    now_ns: u64,
    digest: u64,
) -> Golden {
    Golden {
        events_dispatched,
        scheduled,
        popped,
        now_ns,
        digest,
    }
}

type Scenario = (&'static str, fn() -> Ran, Golden);

/// Recorded from the parent commit.
#[rustfmt::skip]
const SCENARIOS: [Scenario; 31] = [
    ("moveto-lossy-seed-1", || remote(1, &[PUSH]), golden(403, 403, 403, 3005630761, 0x50813D66F6106579)),
    ("moveto-lossy-seed-7", || remote(7, &[PUSH]), golden(312, 312, 312, 3205855121, 0xEA1CD7C70E13F309)),
    ("moveto-lossy-seed-1983", || remote(1983, &[PUSH]), golden(232, 232, 232, 3005630761, 0xB9E24C7C7C9749E7)),
    ("moveto-lossy-seed-beef", || remote(0xBEEF, &[PUSH]), golden(310, 310, 310, 3005630761, 0xD0C7C70816A5237A)),
    ("movefrom-lossy-seed-1", || remote(1, &[PULL]), golden(242, 242, 242, 4004557826, 0xD1C2E73204331E03)),
    ("movefrom-lossy-seed-7", || remote(7, &[PULL]), golden(275, 275, 275, 3205468266, 0x60710F27E0874A16)),
    ("movefrom-lossy-seed-1983", || remote(1983, &[PULL]), golden(238, 238, 238, 3004557826, 0xAF47999DC88396D2)),
    ("movefrom-lossy-seed-beef", || remote(0xBEEF, &[PULL]), golden(280, 280, 280, 3004557826, 0xF262CA2D1A873537)),
    ("both-ways-lossy-seed-42", || remote(42, &[PULL, PUSH]), golden(618, 618, 618, 4005892560, 0xE6BC1AC6AA08BA23)),
    ("same-host-copy", || same_host(false), golden(10, 10, 10, 47829280, 0x19878FF03451247D)),
    ("same-host-fastpath", || same_host(true), golden(10, 10, 10, 2525600, 0x1DB903B9CC31D6BB)),
    ("ten-mb-clean", ten_mb_clean, golden(145, 145, 145, 3006234500, 0x014270E6E53E5E7C)),
    ("team-worker-moveto", || forwarded(lossy(3), 1, false, &[PUSH]), golden(325, 325, 325, 3006586621, 0x202CAC62ED446D0B)),
    ("team-worker-movefrom", || forwarded(lossy(5), 1, false, &[PULL]), golden(358, 358, 358, 3004865826, 0x9B254E31709ED3B6)),
    ("third-host-worker-both-ways", || forwarded(lossy(9), 2, false, &[PUSH, PULL]), golden(625, 625, 625, 3014854230, 0xBAFC5E7DC999C59D)),
    ("worker-on-the-clients-host", || forwarded(lossy(13), 0, false, &[PUSH, PULL]), golden(22, 22, 22, 3004673326, 0x984A1CD51EAEBECA)),
    ("widened-grant-moveto", || widened_grant(|at, count| Op::Push { at, count }), golden(18, 18, 18, 1006586621, 0x00CEA1E28DF59251)),
    ("widened-grant-movefrom", || widened_grant(|at, count| Op::Pull { at, count }), golden(15, 15, 15, 1004865826, 0x30B7AEDB8FE8C331)),
    ("no-reply-cache-seed-2", || no_reply_cache(2), golden(866, 866, 866, 2008396118, 0xA8F4AB0285216E56)),
    ("no-reply-cache-seed-77", || no_reply_cache(77), golden(690, 690, 690, 2008396118, 0xC2EB59276F5B01D8)),
    ("refused-past-the-end-remote", || refused(2, PAST_THE_END), golden(9, 9, 9, 1001792469, 0x978E4EDFC1ACF9AB)),
    ("refused-past-the-end-local", || refused(1, PAST_THE_END), golden(5, 5, 5, 1138000, 0xFD88D6B0C2FCD634)),
    ("refused-pull-of-write-only-remote", || refused(2, PULL), golden(9, 9, 9, 1001792469, 0x978E4EDFC1ACF9AB)),
    ("refused-pull-of-write-only-local", || refused(1, PULL), golden(5, 5, 5, 1138000, 0xFD88D6B0C2FCD634)),
    ("inside-the-grant-remote", || refused(2, INSIDE), golden(27, 27, 27, 3005630761, 0x3C732BE94800B017)),
    ("mover-exits-after-moveto", || mover_exits_without_replying(&[PUSH]), golden(96, 96, 96, 1005630761, 0x7A955324C4FD18C3)),
    ("mover-exits-after-movefrom", || mover_exits_without_replying(&[PULL]), golden(98, 98, 98, 1005892560, 0x6DBEDC0903BE3630)),
    ("client-crash-mid-moveto", || crash_mid_stream(0, &[PUSH]), golden(401, 401, 401, 3001792469, 0xCA4FA692FB8725BC)),
    ("client-crash-mid-movefrom", || crash_mid_stream(0, &[PULL]), golden(41, 41, 41, 2004557826, 0x84EDCC1F37C43EBB)),
    ("mover-crash-mid-moveto", || crash_mid_stream(1, &[PUSH]), golden(55, 55, 55, 3005630761, 0x4DFDC06D25D8E6B3)),
    ("mover-crash-mid-movefrom", || crash_mid_stream(1, &[PULL]), golden(97, 97, 97, 2612721220, 0xC8FFE15C4FF333D1)),
];

#[test]
fn every_move_charges_counts_and_deposits_what_the_recorded_parent_did() {
    let mut mismatches = Vec::new();
    for (name, run, want) in &SCENARIOS {
        let got = golden_of(&run());
        if got != *want {
            mismatches.push(format!("{name}:\n  got  {got:?}\n  want {want:?}"));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn the_scenarios_reach_what_they_are_meant_to_pin() {
    // A golden is only worth its digest if the script gets there.
    let moves = |ran: &Ran| -> Vec<u64> {
        let log = ran.log.borrow();
        log.iter().filter(|e| e[1] == 3).map(|e| e[2]).collect()
    };
    let sends = |ran: &Ran| -> Vec<u64> {
        let log = ran.log.borrow();
        log.iter().filter(|e| e[1] == 1).map(|e| e[2]).collect()
    };
    let failed = |e: KernelError| 1 << 32 | error_code(e);
    let stats = |ran: &Ran, host: usize| ran.cl.kernel_stats(HostId(host));

    // A lossy wire: gaps, partial acks, stalls, retransmitted Sends.
    let ran = remote(1, &[PUSH]);
    assert_eq!(moves(&ran), [LEN as u64; 2]);
    let (granter, mover) = (stats(&ran, 0), stats(&ran, 1));
    assert!(granter.chunks_dropped > 0 && granter.retransmissions > 0);
    assert!(mover.transfer_resumes > 0 && mover.reply_pending_sent > 0);
    assert!(mover.chunks_sent > 64 && granter.chunks_received == 64);
    let ran = remote(1, &[PULL]);
    assert_eq!(moves(&ran), [LEN as u64; 2]);
    let (granter, mover) = (stats(&ran, 0), stats(&ran, 1));
    assert!(mover.chunks_dropped > 0 && mover.transfer_resumes > 0);
    assert!(granter.chunks_sent > 64 && mover.chunks_received == 64);

    // One host: no chunk at all, and the fast path counted.
    let ran = same_host(true);
    assert_eq!(moves(&ran), [LEN as u64; 4]);
    assert_eq!(stats(&ran, 0).chunks_sent, 0);
    assert_eq!(stats(&ran, 0).local_fastpath_sends, 4);

    // A team worker streams to the client its receptionist forwarded.
    let ran = forwarded(lossy(3), 1, false, &[PUSH]);
    assert_eq!(stats(&ran, 1).forwards, 2);
    assert!(stats(&ran, 1).chunks_sent > 64);
    assert_eq!(stats(&ran, 0).chunks_received, 64);

    // The client's kernel holds the grant it sent, not the one forwarded.
    let push = |at, count| Op::Push { at, count };
    let ran = widened_grant(push);
    assert_eq!(moves(&ran), [failed(KernelError::TransferRejected)]);
    assert_eq!(stats(&ran, 0).chunks_received, 1, "the half inside");
    let ran = widened_grant(|at, count| Op::Pull { at, count });
    assert_eq!(moves(&ran), [failed(KernelError::TransferRejected)]);
    assert_eq!(stats(&ran, 0).chunks_sent, 0);

    // No tombstone: a lost final ack costs the whole transfer again.
    let ran = no_reply_cache(2);
    assert!(stats(&ran, 0).chunks_received > 64);

    // Refused before a chunk is sent, on either side of the wire.
    for hosts in [1, 2] {
        let ran = refused(hosts, PAST_THE_END);
        assert_eq!(moves(&ran), [failed(KernelError::NoSegmentAccess)]);
        assert_eq!(stats(&ran, hosts - 1).chunks_sent, 0);
    }

    // A completed move, then silence: the client is told why.
    let ran = mover_exits_without_replying(&[PUSH]);
    assert_eq!(moves(&ran), [LEN as u64]);
    assert_eq!(sends(&ran), [error_code(KernelError::NonexistentProcess)]);

    // A crash finds the stream under way.
    for ops in [[PUSH], [PULL]] {
        let ran = crash_mid_stream(0, &ops);
        assert_eq!(moves(&ran), [failed(KernelError::Timeout)]);
        assert_eq!(stats(&ran, 1).transfer_resumes, 5);
        let received = stats(&ran, 0).chunks_received + stats(&ran, 1).chunks_received;
        assert!((1..32).contains(&received), "{received}");

        let ran = crash_mid_stream(1, &ops);
        assert_eq!(sends(&ran), [error_code(KernelError::HostDown)]);
        let received = stats(&ran, 0).chunks_received + stats(&ran, 1).chunks_received;
        assert!((1..32).contains(&received), "{received}");
    }
}
