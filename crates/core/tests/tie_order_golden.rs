//! Tie-order golden: when a kernel timer, a frame arrival and a process
//! resume are due at the same nanosecond they pop in the order they were
//! scheduled, whatever holds them meanwhile — and a kernel's counters
//! show it when the order is wrong.
//!
//! Nothing in the cost model makes two instants collide on purpose, so
//! each scenario is first run dry to learn where its instants fall —
//! when a `Send`'s retransmit timer is due (from a run whose server is
//! dead, where it is the first retransmission), when a reply reaches its
//! client (the first processor time the client's host is charged after
//! the `Send`), where a delay's resume and a raw datagram's arrival land
//! — and then run again with a delay, a poke or the retransmission
//! timeout itself moved by the difference, so that they meet. Every
//! scenario asserts that they did: the events popped at the one instant
//! are counted.
//!
//! What is observed is what a process or a raw handler is told, in the
//! order it is told — `(kind, host, detail, nanosecond)` — and what every
//! kernel counted. Before the events of the instant are scheduled, raw
//! timers poked for later instants in descending order stand in the way,
//! as parked timers do in a long run; they are in the log too.
//!
//! The expected values were recorded by running this file on the commit
//! before the event queue kept ascending runs beside its heap (PR 23,
//! `f6e4ced`).

use std::cell::RefCell;
use std::rc::Rc;

use v_kernel::raw::{RawCtx, RawHandler};
use v_kernel::{Api, Cluster, ClusterConfig, CpuSpeed, HostId, Message, Outcome, Pid, Program};
use v_net::{EtherType, Frame, MacAddr};
use v_sim::{SimDuration, SimTime};

const CPU: CpuSpeed = CpuSpeed::Mc68000At10MHz;

/// What processes and raw handlers were told, in the order they were
/// told: `(kind, host, detail, nanosecond)`.
type Log = Rc<RefCell<Vec<[u64; 4]>>>;

const RESUME: u64 = 1;
const FRAME: u64 = 2;
const TIMER: u64 = 3;

fn ns(n: u64) -> SimDuration {
    SimDuration::from_nanos(n)
}

/// Receives and replies, for ever.
struct Echo;

impl Program for Echo {
    fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
        if let Outcome::Receive { from, msg } = outcome {
            api.reply(msg, from).expect("the sender awaits this reply");
        }
        api.receive();
    }
}

#[derive(Clone, Copy)]
enum Step {
    Send,
    Delay(u64),
}

/// Works through `script`, logging every resume, then waits for ever (an
/// exit would tidy its host's tables behind it).
struct Scripted {
    host: u64,
    server: Pid,
    script: Vec<Step>,
    at: usize,
    log: Log,
}

impl Program for Scripted {
    fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
        let detail = match outcome {
            Outcome::Started => 0,
            Outcome::Send(Ok(_)) => 1,
            Outcome::Send(Err(_)) => 2,
            Outcome::Delay => 3,
            ref other => panic!("scripted process resumed with {other:?}"),
        };
        self.log
            .borrow_mut()
            .push([RESUME, self.host, detail, api.now().as_nanos()]);
        match self.script.get(self.at) {
            Some(Step::Send) => api.send(Message::empty(), self.server),
            Some(Step::Delay(d)) => api.delay(ns(*d)),
            None => api.receive(),
        }
        self.at += 1;
    }
}

/// Tokens from here up make [`Probe::on_timer`] send a datagram.
const SENDS: u64 = 1_000;

/// A raw handler that logs what it is told. A timer is logged at its own
/// instant; a frame once the receive charges are paid, which is as close
/// as a handler gets to the arrival.
struct Probe {
    host: u64,
    peer: MacAddr,
    log: Log,
}

impl RawHandler for Probe {
    fn on_frame(&mut self, ctx: &mut dyn RawCtx, frame: &Frame) {
        let detail = frame.payload[0] as u64;
        self.log
            .borrow_mut()
            .push([FRAME, self.host, detail, ctx.now().as_nanos()]);
    }

    fn on_timer(&mut self, ctx: &mut dyn RawCtx, token: u64) {
        self.log
            .borrow_mut()
            .push([TIMER, self.host, token, ctx.now().as_nanos()]);
        if token >= SENDS {
            ctx.send_frame(self.peer, vec![token as u8; 40]);
        }
    }
}

/// Three stations on the 3 Mb segment, an [`Echo`] on host 1, a [`Probe`]
/// on every host (host 2's datagrams go to host 0, the others' to host 2).
fn cluster(timeout: SimDuration) -> (Cluster, Log, Pid) {
    let mut cfg = ClusterConfig::three_mb().with_hosts(3, CPU);
    cfg.protocol.retransmit_timeout = timeout;
    let mut cl = Cluster::new(cfg);
    let log = Log::default();
    for h in 0..3 {
        let peer = cl.mac(HostId(if h == 2 { 0 } else { 2 }));
        let probe = Probe {
            host: h as u64,
            peer,
            log: log.clone(),
        };
        cl.register_raw_handler(HostId(h), EtherType::RAW_BENCH, Box::new(probe));
    }
    let server = cl.spawn(HostId(1), "echo", Box::new(Echo));
    cl.run();
    (cl, log, server)
}

fn scripted(cl: &mut Cluster, log: &Log, host: usize, server: Pid, script: &[Step]) {
    let program = Scripted {
        host: host as u64,
        server,
        script: script.to_vec(),
        at: 0,
        log: log.clone(),
    };
    cl.spawn(HostId(host), "scripted", Box::new(program));
}

fn poke(cl: &mut Cluster, host: usize, token: u64, at: u64) {
    let delay = SimTime::from_nanos(at).since(cl.now());
    cl.poke_raw_handler(HostId(host), EtherType::RAW_BENCH, token, delay);
}

/// The least `x` in `(lo, hi]` at which `reached(x)` holds, for a
/// `reached` that stays true once it is.
fn first(lo: u64, hi: u64, reached: impl Fn(u64) -> bool) -> u64 {
    assert!(
        !reached(lo) && reached(hi),
        "nothing happens in ({lo}, {hi}]"
    );
    let (mut lo, mut hi) = (lo, hi);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if reached(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

fn until(mut cl: Cluster, x: u64) -> Cluster {
    cl.run_until(SimTime::from_nanos(x));
    cl
}

/// The instant a logged entry of `kind` and `detail` carries.
fn logged(log: &Log, kind: u64, detail: u64) -> u64 {
    let log = log.borrow();
    let entry = log.iter().find(|e| e[0] == kind && e[2] == detail);
    entry.expect("logged")[3]
}

const SECOND: u64 = 1_000_000_000;
const MS: u64 = 1_000_000;

/// When host 0's first `Send` arms its retransmit timer for, under
/// `timeout`: the instant of the first retransmission to a dead server.
fn timer_due(timeout: SimDuration) -> u64 {
    first(0, SECOND, |x| {
        let (mut cl, log, server) = cluster(timeout);
        cl.crash_host(HostId(1));
        scripted(&mut cl, &log, 0, server, &[Step::Send]);
        until(cl, x).kernel_stats(HostId(0)).retransmissions >= 1
    })
}

/// When a datagram host 2 sends on a poke at `poked` reaches host 0: the
/// instant the last event of a run with nothing else in it pops.
fn datagram_arrives(poked: u64) -> u64 {
    first(poked, poked + 100 * MS, |x| {
        let (mut cl, _, _) = cluster(ns(200 * MS));
        poke(&mut cl, 2, SENDS, poked);
        until(cl, x).sim_stats().pending == 0
    })
}

/// How many events pop at exactly `x`, in a run built by `build`.
fn popped_at(x: u64, build: impl Fn() -> Cluster) -> u64 {
    let before = until(build(), x - 1).sim_stats().popped;
    until(build(), x).sim_stats().popped - before
}

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn text(&mut self, s: &str) {
        for b in s.bytes() {
            self.word(b as u64);
        }
    }
}

/// What one scenario left behind.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    /// The instant the scenario makes its events meet at.
    meet_ns: u64,
    events_dispatched: u64,
    scheduled: u64,
    popped: u64,
    now_ns: u64,
    digest: u64,
}

fn golden_of(meet_ns: u64, mut cl: Cluster, log: &Log) -> Golden {
    cl.run();
    let mut d = Digest(0xCBF2_9CE4_8422_2325);
    for h in 0..cl.num_hosts() {
        d.word(cl.cpu_busy(HostId(h)).as_nanos());
        // Every counter, by name: the struct derives `Debug`.
        d.text(&format!("{:?}", cl.kernel_stats(HostId(h))));
    }
    d.text(&format!("{:?}", cl.medium_stats()));
    for entry in log.borrow().iter() {
        for &w in entry {
            d.word(w);
        }
    }
    let sim = cl.sim_stats();
    Golden {
        meet_ns,
        events_dispatched: cl.events_dispatched(),
        scheduled: sim.scheduled,
        popped: sim.popped,
        now_ns: cl.now().as_nanos(),
        digest: d.0,
    }
}

/// The entries logged at `meet` or, for a frame, within the receive
/// charges after it: `(kind, host, detail)`.
fn told_at(log: &Log, meet: u64) -> Vec<[u64; 3]> {
    let log = log.borrow();
    let near = |e: &&[u64; 4]| e[3] == meet || (e[0] == FRAME && e[3] > meet && e[3] < meet + MS);
    log.iter()
        .filter(near)
        .map(|e| [e[0], e[1], e[2]])
        .collect()
}

/// A stale retransmit timer, a datagram's arrival and a delay's resume,
/// all on host 0 at the instant the timer was armed for. The client
/// exchanges twice and sleeps; the first exchange's timer is the stale
/// one, the second's stands behind it, and five decoys — two poked
/// before anything runs, three once the client sleeps — stand in the way.
fn stale_timer_scenario(sleep: u64, poked: u64, meet: u64) -> (Cluster, Log) {
    let (mut cl, log, server) = cluster(ns(200 * MS));
    poke(&mut cl, 1, 5, meet + 5 * MS);
    poke(&mut cl, 2, 4, meet + 4 * MS);
    let script = [Step::Send, Step::Send, Step::Delay(sleep)];
    scripted(&mut cl, &log, 0, server, &script);
    cl.run_until(SimTime::from_nanos(50 * MS));
    for (token, ahead) in [(3, 3), (2, 2), (1, 1)] {
        poke(&mut cl, token as usize % 3, token, meet + ahead * MS);
    }
    poke(&mut cl, 2, SENDS, poked);
    (cl, log)
}

fn stale_timer_meets_a_frame_and_a_resume() -> (Golden, Vec<[u64; 3]>, u64) {
    let meet = timer_due(ns(200 * MS));
    // Dry, with a sleep and a poke that land somewhere before `meet`.
    let (sleep, poked) = (100 * MS, 100 * MS);
    let (mut dry, log) = stale_timer_scenario(sleep, poked, meet);
    dry.run();
    let sleep = sleep + meet - logged(&log, RESUME, 3);
    let poked = poked + meet - datagram_arrives(poked);
    let together = popped_at(meet, || stale_timer_scenario(sleep, poked, meet).0);
    let (cl, log) = stale_timer_scenario(sleep, poked, meet);
    let golden = golden_of(meet, cl, &log);
    (golden, told_at(&log, meet), together)
}

/// A retransmit timer that is *not* stale: the timeout is the round trip
/// to the nanosecond, so the timer and the reply it would have waited for
/// are due together on host 0. The timer was armed first, so it fires
/// first: one retransmission, which the server answers from its cache.
fn live_timer_scenario(timeout: u64) -> (Cluster, Log) {
    let (mut cl, log, server) = cluster(ns(timeout));
    poke(&mut cl, 2, 2, 40 * MS);
    poke(&mut cl, 1, 1, 30 * MS);
    scripted(&mut cl, &log, 0, server, &[Step::Send]);
    (cl, log)
}

fn live_timer_meets_its_reply() -> (Golden, u64, u64) {
    let long = 200 * MS;
    let sent = timer_due(ns(long)) - long;
    let charged = |cl: Cluster| cl.cpu_busy(HostId(0)).as_nanos();
    let after_send = charged(until(live_timer_scenario(long).0, sent));
    let reply_arrives = first(sent, sent + 100 * MS, |x| {
        charged(until(live_timer_scenario(long).0, x)) > after_send
    });
    let timeout = reply_arrives - sent;
    let together = popped_at(reply_arrives, || live_timer_scenario(timeout).0);
    let (mut cl, log) = live_timer_scenario(timeout);
    cl.run();
    let retransmissions = cl.kernel_stats(HostId(0)).retransmissions;
    (
        golden_of(reply_arrives, cl, &log),
        retransmissions,
        together,
    )
}

/// Nine raw timers on three hosts, three delays' resumes and a datagram's
/// arrival at one instant, the timers poked with a later decoy after
/// each, in descending order, so that equal instants are not scheduled
/// back to back.
fn crowd_scenario(sleeps: [u64; 3], poked: u64, meet: u64) -> (Cluster, Log) {
    let (mut cl, log, server) = cluster(ns(200 * MS));
    for (h, &sleep) in sleeps.iter().enumerate() {
        scripted(&mut cl, &log, h, server, &[Step::Delay(sleep)]);
    }
    for token in 0..9 {
        poke(&mut cl, token as usize % 3, token, meet);
        poke(
            &mut cl,
            (token as usize + 1) % 3,
            100 + token,
            meet + (20 - token) * MS,
        );
    }
    poke(&mut cl, 2, SENDS, poked);
    (cl, log)
}

fn a_crowd_at_one_instant() -> (Golden, Vec<[u64; 3]>, u64) {
    let meet = 300 * MS + 7;
    let (dry_sleep, dry_poked) = (100 * MS, 100 * MS);
    let (mut dry, log) = crowd_scenario([dry_sleep; 3], dry_poked, meet);
    dry.run();
    let resumed = |host: u64| {
        let log = log.borrow();
        let entry = log.iter().find(|e| e[..3] == [RESUME, host, 3]);
        entry.expect("the delay ended")[3]
    };
    let sleeps = [0, 1, 2].map(|h| dry_sleep + meet - resumed(h));
    let poked = dry_poked + meet - datagram_arrives(dry_poked);
    let together = popped_at(meet, || crowd_scenario(sleeps, poked, meet).0);
    let (cl, log) = crowd_scenario(sleeps, poked, meet);
    let golden = golden_of(meet, cl, &log);
    (golden, told_at(&log, meet), together)
}

#[test]
fn a_stale_timer_a_frame_and_a_resume_at_one_instant_pop_in_scheduling_order() {
    let (golden, told, together) = stale_timer_meets_a_frame_and_a_resume();
    assert_eq!(together, 3, "timer, resume and arrival share the instant");
    // The sleep was called 190 ms before the datagram was sent.
    assert_eq!(told, [[RESUME, 0, 3], [FRAME, 0, SENDS & 0xFF]]);
    let expected = Golden {
        meet_ns: 201_109_860,
        events_dispatched: 23,
        scheduled: 23,
        popped: 23,
        now_ns: 3_001_792_469,
        digest: 8_886_753_811_316_732_485,
    };
    assert_eq!(golden, expected);
}

#[test]
fn a_retransmit_timer_due_with_its_reply_fires_first() {
    let (golden, retransmissions, together) = live_timer_meets_its_reply();
    assert_eq!(together, 2, "timer and reply share the instant");
    assert_eq!(
        retransmissions, 1,
        "the timer was armed before the reply left"
    );
    let expected = Golden {
        meet_ns: 2_567_478,
        events_dispatched: 15,
        scheduled: 15,
        popped: 15,
        now_ns: 3_001_792_469,
        digest: 12_399_815_067_979_206_109,
    };
    assert_eq!(golden, expected);
}

#[test]
fn timers_resumes_and_a_frame_on_three_hosts_at_one_instant_pop_in_scheduling_order() {
    let (golden, told, together) = a_crowd_at_one_instant();
    assert_eq!(together, 13, "nine timers, three resumes and an arrival");
    let mut in_order: Vec<[u64; 3]> = (0..9).map(|token| [TIMER, token % 3, token]).collect();
    // The delays were called after every poke was made — host 1's last,
    // its processor having started the echo — and the datagram was sent
    // last of all.
    in_order.extend([0, 2, 1].map(|host| [RESUME, host, 3]));
    in_order.push([FRAME, 0, SENDS & 0xFF]);
    assert_eq!(told, in_order);
    let expected = Golden {
        meet_ns: 300_000_007,
        events_dispatched: 27,
        scheduled: 27,
        popped: 27,
        now_ns: 320_000_007,
        digest: 8_254_078_719_202_553_749,
    };
    assert_eq!(golden, expected);
}
