//! Fan-out dispatch golden: what every host of a cluster has been
//! charged, counted and told must not move when the path a broadcast
//! takes from the transport to its thousand receivers is rewritten for
//! speed.
//!
//! Each scenario builds a cluster, runs a fixed script of name queries
//! and exchanges over it — most of what is dispatched is `GetPid`
//! broadcasts reaching hosts they mean nothing to — and folds into one
//! digest, host by host, the processor time charged and every
//! [`KernelStats`](v_kernel::KernelStats) counter, then the medium and
//! gateway counters and, in order, what every scripted process saw and
//! when. Beside the digest stand the dispatched-event count, the event
//! queue's own counters and the final instant. The scenarios are chosen
//! for the ways a receiver can differ from its neighbours in a run: it
//! answers for the name (and is the run's first, last or a middle
//! station, or leaves the run in two by being the sender), it learns
//! addresses from traffic (every host of a 10 Mb cluster), it is crashed
//! or has just been restarted, it holds a peer under suspicion, its
//! registrant has exited; and for the ways a broadcast can fail to be a
//! run at all: a fault plan or the collision bug giving every copy a
//! fate of its own. Three more are aimed at a receiver whose charges wait
//! in its segment's log: one that leaves and re-enters that state, ones
//! read only through `cpu_busy` / `cpu_utilization`, and two processor
//! grades sharing the log's entries.
//!
//! The expected values were recorded by running this file on the commit
//! before runs and receive lanes existed (`d6a7b76`), and on the commit
//! before the charge log existed (`0674072`) for the last three.

use std::cell::RefCell;
use std::rc::Rc;

use v_kernel::{
    Api, Cluster, ClusterConfig, CpuSpeed, HostId, KernelError, Message, Outcome, Pid, Program,
    Scope,
};
use v_net::{CollisionBug, FaultPlan, MeshConfig};
use v_sim::SimDuration;
use v_workloads::boot::{run_boot_storm, BootStormConfig, BootStormReport};

const CPU: CpuSpeed = CpuSpeed::Mc68000At10MHz;

/// What the scripted processes saw, in the order they saw it:
/// `(host, code, detail, nanosecond)`.
type Log = Rc<RefCell<Vec<[u64; 4]>>>;

fn note(log: &Log, api: &Api<'_>, code: u64, detail: u64) {
    let host = api.local_host().0 as u64;
    log.borrow_mut()
        .push([host, code, detail, api.now().as_nanos()]);
}

/// Registers itself under `id` and echoes; exits after `serve` requests
/// if that is set, taking its registration with it.
struct Registrant {
    id: u32,
    scope: Scope,
    serve: Option<u32>,
}

impl Program for Registrant {
    fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
        match outcome {
            Outcome::Started => {
                let me = api.self_pid();
                api.set_pid(self.id, me, self.scope);
            }
            Outcome::Receive { from, msg } => {
                api.reply(msg, from).expect("the sender awaits this reply");
                if let Some(left) = &mut self.serve {
                    *left -= 1;
                    if *left == 0 {
                        api.exit();
                        return;
                    }
                }
            }
            other => panic!("registrant resumed with {other:?}"),
        }
        api.receive();
    }
}

/// Resolves `id` by broadcast, exchanges `sends` messages with whoever
/// answered, then asks again `re_asks` times (a pause before each), and
/// exits.
struct Asker {
    id: u32,
    sends: u32,
    re_asks: u32,
    pause: SimDuration,
    server: Option<Pid>,
    log: Log,
}

impl Asker {
    fn new(id: u32, sends: u32, log: &Log) -> Asker {
        Asker {
            id,
            sends,
            re_asks: 0,
            pause: SimDuration::from_millis(40),
            server: None,
            log: log.clone(),
        }
    }

    fn next(&mut self, api: &mut Api<'_>) {
        match self.server {
            Some(server) if self.sends > 0 => {
                self.sends -= 1;
                let mut msg = Message::empty();
                msg.set_u32(4, self.sends);
                api.send(msg, server);
            }
            _ if self.re_asks > 0 => {
                self.re_asks -= 1;
                api.delay(self.pause);
            }
            _ => api.exit(),
        }
    }
}

impl Program for Asker {
    fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
        match outcome {
            Outcome::Started | Outcome::Delay => api.get_pid(self.id, Scope::Both),
            Outcome::GetPid(found) => {
                note(&self.log, api, 1, found.map_or(0, |p| p.raw() as u64));
                self.server = self.server.or(found);
                self.next(api);
            }
            Outcome::Send(result) => {
                let detail = match result {
                    Ok(reply) => reply.get_u32(4) as u64,
                    Err(e) => 1 << 32 | error_code(e),
                };
                note(&self.log, api, 2, detail);
                if result.is_err() {
                    self.server = None;
                }
                self.next(api);
            }
            other => panic!("asker resumed with {other:?}"),
        }
    }
}

fn error_code(e: KernelError) -> u64 {
    match e {
        KernelError::HostDown => 1,
        KernelError::NonexistentProcess => 2,
        _ => 3,
    }
}

/// Sends one message to a fixed pid, logs how it ended, and stays: a
/// process exit would tidy its host's tables behind it.
struct Caller {
    to: Pid,
    log: Log,
}

impl Program for Caller {
    fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
        match outcome {
            Outcome::Started => api.send(Message::empty(), self.to),
            Outcome::Send(result) => {
                note(&self.log, api, 3, result.map_or_else(error_code, |_| 0));
                api.receive();
            }
            other => panic!("caller resumed with {other:?}"),
        }
    }
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
    events_dispatched: u64,
    scheduled: u64,
    popped: u64,
    now_ns: u64,
    digest: u64,
}

/// A scenario at quiescence.
type Ran = (Cluster, Log);

fn golden_of((cl, log): &Ran) -> Golden {
    let mut d = Digest(0xCBF2_9CE4_8422_2325);
    for h in 0..cl.num_hosts() {
        let host = HostId(h);
        d.word(cl.cpu_busy(host).as_nanos());
        d.word(cl.host_is_up(host) as u64);
        // Every counter, by name: the struct derives `Debug`.
        d.text(&format!("{:?}", cl.kernel_stats(host)));
    }
    d.text(&format!("{:?}", cl.medium_stats()));
    d.text(&format!("{:?}", cl.gateway_stats()));
    for entry in log.borrow().iter() {
        for &w in entry {
            d.word(w);
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

fn registrant(id: u32) -> Box<Registrant> {
    Box::new(Registrant {
        id,
        scope: Scope::Both,
        serve: None,
    })
}

/// The boot storm's shape with the file service taken out: `shards`
/// segments behind a hub gateway, one registrant per segment, `clients`
/// workstations dealt round the segments and powered on in waves of 64,
/// each resolving its own segment's name and exchanging three messages
/// with it. `meddle` runs between the first wave and the rest.
fn storm_mesh(clients: usize, shards: usize, meddle: impl FnOnce(&mut Cluster, &Log)) -> Ran {
    let mut cfg = ClusterConfig::mesh(MeshConfig::star(shards));
    for s in 0..shards {
        cfg = cfg.with_host_on(CPU, s);
    }
    for j in 0..clients {
        cfg = cfg.with_host_on(CPU, j % shards);
    }
    let mut cl = Cluster::new(cfg);
    let log = Log::default();
    for s in 0..shards {
        cl.spawn(HostId(s), "registrant", registrant(100 + s as u32));
    }
    cl.run();
    let mut meddle = Some(meddle);
    for wave in (0..clients).step_by(64) {
        for j in wave..(wave + 64).min(clients) {
            let asker = Asker::new(100 + (j % shards) as u32, 3, &log);
            cl.spawn(HostId(shards + j), "asker", Box::new(asker));
        }
        cl.run_for(SimDuration::from_millis(10));
        if let Some(meddle) = meddle.take() {
            meddle(&mut cl, &log);
        }
    }
    cl.run();
    (cl, log)
}

fn storm_mesh_64() -> Ran {
    storm_mesh(64, 2, |_, _| {})
}

fn storm_mesh_256() -> Ran {
    storm_mesh(256, 4, |_, _| {})
}

/// Mid-wave, a workstation and two registrants' hosts crash. An asker
/// that starts just then hears nothing for all four of its broadcasts,
/// and two callers are left retransmitting to processes that died. 450 ms
/// later one registrant's host comes back with a fresh registrant, which
/// the asker's next try and a late asker find, and the other comes back
/// empty: it hears the later waves' queries for its old name and has
/// nothing to say. One caller is told its process is gone, the other
/// gives the workstation up.
fn storm_mesh_crash_and_restart() -> Ran {
    storm_mesh(192, 3, |cl, log| {
        cl.crash_host(HostId(3 + 7));
        cl.crash_host(HostId(1));
        cl.crash_host(HostId(2));
        let mut stranded = Asker::new(101, 1, log);
        stranded.re_asks = 2;
        stranded.pause = SimDuration::from_millis(100);
        cl.spawn(HostId(3 + 4), "stranded-asker", Box::new(stranded));
        for (from, dead) in [(3 + 13, 1), (3 + 14, 3 + 7)] {
            let caller = Caller {
                // The first process spawned on a host.
                to: Pid::new(cl.logical_host(HostId(dead)), 1),
                log: log.clone(),
            };
            cl.spawn(HostId(from), "caller", Box::new(caller));
        }
        cl.run_for(SimDuration::from_millis(450));
        cl.restart_host(HostId(1));
        cl.spawn(HostId(1), "registrant", registrant(101));
        cl.restart_host(HostId(2));
        let mut late = Asker::new(101, 2, log);
        late.re_asks = 2;
        cl.spawn(HostId(3 + 1), "late-asker", Box::new(late));
    })
}

/// One shared segment of `hosts` stations. Registrants for names 200,
/// 201 and 202 sit on the first, a middle and the last station; `ask`
/// lists `(host, name)` askers, each exchanging two messages and then
/// asking twice more.
fn one_segment(cfg: ClusterConfig, hosts: usize, ask: &[(usize, u32)]) -> Ran {
    one_segment_of(cfg.with_hosts(hosts, CPU), ask)
}

/// [`one_segment`] over hosts `cfg` already places.
fn one_segment_of(cfg: ClusterConfig, ask: &[(usize, u32)]) -> Ran {
    let hosts = cfg.hosts.len();
    let mut cl = Cluster::new(cfg);
    let log = Log::default();
    for (host, id) in [(0, 200), (hosts / 2, 201), (hosts - 1, 202)] {
        cl.spawn(HostId(host), "registrant", registrant(id));
    }
    cl.run();
    for &(host, id) in ask {
        let mut asker = Asker::new(id, 2, &log);
        asker.re_asks = 2;
        asker.pause = SimDuration::from_millis(5 + host as u64);
        cl.spawn(HostId(host), "asker", Box::new(asker));
    }
    cl.run();
    (cl, log)
}

/// Askers at the second station, next to the middle registrant and at
/// the second-to-last station, for every registrant's name and one that
/// nobody holds: the sender cuts the segment's run in two at different
/// places, and the answer comes from the first, a middle and the last
/// station of a run.
const EVERY_POSITION: [(usize, u32); 8] = [
    (1, 200),
    (1, 202),
    (14, 201),
    (16, 200),
    (28, 201),
    (28, 202),
    (7, 999),
    (22, 201),
];

fn registrants_first_middle_last() -> Ran {
    one_segment(ClusterConfig::three_mb(), 30, &EVERY_POSITION)
}

/// 10 Mb, learned addressing: every receiver of every broadcast learns
/// the sender's station, and the first packets to an unknown host are
/// broadcasts themselves.
fn learned_addressing() -> Ran {
    one_segment(ClusterConfig::ten_mb(), 30, &EVERY_POSITION)
}

/// Loss, duplication and corruption: every copy of every broadcast has a
/// fate of its own.
fn fault_plan_singles() -> Ran {
    let mut cfg = ClusterConfig::three_mb();
    cfg.faults = FaultPlan {
        loss: 0.05,
        duplicate: 0.1,
        corrupt: 0.1,
    };
    one_segment(cfg, 30, &EVERY_POSITION)
}

/// The §5.4 collision bug with enough senders at once to defer: a
/// broadcast it hits arrives corrupted, differently, at every station.
fn collision_bug_singles() -> Ran {
    let mut cfg = ClusterConfig::three_mb();
    cfg.collision_bug = Some(CollisionBug { corrupt_prob: 0.5 });
    let ask: Vec<(usize, u32)> = (1..29)
        .filter(|h| *h != 15)
        .map(|h| (h, 200 + h as u32 % 3))
        .collect();
    one_segment(cfg, 30, &ask)
}

/// Host 3 calls a process on a crashed host, runs out of
/// retransmissions and holds that peer under suspicion while name
/// queries pass by. Then the peer restarts and asks for a name itself:
/// its broadcast is what reprieves it at host 3, whose next call to it
/// gets the full retransmission budget again; and more queries pass.
fn a_host_holding_a_suspect() -> Ran {
    let mut cl = Cluster::new(ClusterConfig::three_mb().with_hosts(12, CPU));
    let log = Log::default();
    let call = |cl: &mut Cluster, to: Pid| {
        let log = log.clone();
        cl.spawn(HostId(3), "caller", Box::new(Caller { to, log }));
        cl.run();
    };
    let ask = |cl: &mut Cluster, hosts: &[usize]| {
        for &host in hosts {
            cl.spawn(HostId(host), "asker", Box::new(Asker::new(200, 1, &log)));
        }
        cl.run();
    };
    cl.spawn(HostId(0), "registrant", registrant(200));
    let victim = cl.spawn(HostId(5), "victim", registrant(301));
    cl.run();
    cl.crash_host(HostId(5));
    call(&mut cl, victim);
    ask(&mut cl, &[1, 7, 10]);
    cl.restart_host(HostId(5));
    let reborn = cl.spawn(HostId(5), "victim", registrant(301));
    ask(&mut cl, &[5]);
    call(&mut cl, reborn);
    ask(&mut cl, &[2, 8, 11]);
    (cl, log.clone())
}

/// A registrant that serves two requests and exits: its host answers
/// for the name, then no longer does, and queries keep arriving.
fn a_registrant_that_exits() -> Ran {
    let mut cl = Cluster::new(ClusterConfig::three_mb().with_hosts(10, CPU));
    let log = Log::default();
    cl.spawn(
        HostId(4),
        "registrant",
        Box::new(Registrant {
            id: 200,
            scope: Scope::Remote,
            serve: Some(2),
        }),
    );
    cl.spawn(HostId(9), "registrant", registrant(201));
    cl.run();
    for (host, id) in [(1, 200), (2, 200), (6, 201)] {
        cl.spawn(HostId(host), "asker", Box::new(Asker::new(id, 1, &log)));
    }
    cl.run();
    for (host, id) in [(3, 200), (7, 200), (8, 201)] {
        cl.spawn(HostId(host), "asker", Box::new(Asker::new(id, 1, &log)));
    }
    cl.run();
    (cl, log)
}

/// Sleeps `after`, registers `id`, serves one request and exits.
struct Joiner {
    id: u32,
    after: SimDuration,
}

impl Program for Joiner {
    fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
        match outcome {
            Outcome::Started => api.delay(self.after),
            Outcome::Delay => {
                let me = api.self_pid();
                api.set_pid(self.id, me, Scope::Both);
                api.receive();
            }
            Outcome::Receive { from, msg } => {
                api.reply(msg, from).expect("the sender awaits this reply");
                api.exit();
            }
            other => panic!("joiner resumed with {other:?}"),
        }
    }
}

/// A workstation (host 6) hears name queries that mean nothing to it,
/// registers a name of its own between two of them, answers for it once
/// and exits — taking the name with it — and hears more queries, for
/// the old name among them, that again mean nothing to it.
fn a_workstation_that_joins_and_leaves() -> Ran {
    let mut cl = Cluster::new(ClusterConfig::three_mb().with_hosts(16, CPU));
    let log = Log::default();
    cl.spawn(HostId(0), "registrant", registrant(200));
    let joiner = Joiner {
        id: 300,
        after: SimDuration::from_millis(15),
    };
    cl.spawn(HostId(6), "joiner", Box::new(joiner));
    cl.run_for(SimDuration::from_millis(5));
    // Before the name, while it is held, its one request, after the exit.
    let waves: [&[(usize, u32)]; 4] = [
        &[(2, 200), (9, 200)],
        &[(3, 200)],
        &[(11, 300)],
        &[(12, 200), (13, 300), (6, 200)],
    ];
    for wave in waves {
        for &(host, id) in wave {
            cl.spawn(HostId(host), "asker", Box::new(Asker::new(id, 1, &log)));
        }
        cl.run_for(SimDuration::from_millis(20));
    }
    cl.run();
    (cl, log)
}

/// Forty stations, twenty of which never run a process: between waves
/// of queries their processor time and utilization are read — the only
/// way anything ever looks at their processors.
fn idle_hosts_read_through_the_views() -> Ran {
    let mut cl = Cluster::new(ClusterConfig::three_mb().with_hosts(40, CPU));
    let log = Log::default();
    cl.spawn(HostId(0), "registrant", registrant(200));
    cl.spawn(HostId(19), "registrant", registrant(201));
    cl.run();
    for wave in 0..5u64 {
        for host in 1..6 {
            let id = 200 + (host as u32 + wave as u32) % 3;
            cl.spawn(HostId(host), "asker", Box::new(Asker::new(id, 1, &log)));
        }
        cl.run_for(SimDuration::from_millis(3 + 7 * wave));
        for host in (20..40).step_by(3 + wave as usize) {
            let util = cl.cpu_utilization(HostId(host)).to_bits();
            let busy = cl.cpu_busy(HostId(host)).as_nanos();
            log.borrow_mut().push([host as u64, 4, busy, util]);
        }
    }
    cl.run();
    (cl, log)
}

/// [`registrants_first_middle_last`] with the segment's stations
/// alternately 8 and 10 MHz processors: one query costs its receivers two
/// different amounts.
fn mixed_grades_on_one_segment() -> Ran {
    let mut cfg = ClusterConfig::three_mb();
    for h in 0..30 {
        cfg = cfg.with_host(match h % 3 {
            0 => CpuSpeed::Mc68000At8MHz,
            _ => CPU,
        });
    }
    one_segment_of(cfg, &EVERY_POSITION)
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
const SCENARIOS: [Scenario; 9] = [
    ("storm-mesh-64", storm_mesh_64, golden(6890, 2858, 2858, 6058412629, 0x4AB6FF1F441B17A6)),
    ("storm-mesh-256", storm_mesh_256, golden(126819, 24654, 24654, 12451831276, 0xBC3923853D1D291B)),
    ("storm-mesh-crash-and-restart", storm_mesh_crash_and_restart, golden(77255, 9835, 9835, 12148144010, 0xAC6A7335F1276C15)),
    ("registrants-first-middle-last", registrants_first_middle_last, golden(1141, 217, 217, 3006704841, 0x42F7309BD4EA5131)),
    ("learned-addressing", learned_addressing, golden(1141, 217, 217, 3006845580, 0x31C3CBCFD1AFE83A)),
    ("fault-plan-singles", fault_plan_singles, golden(1366, 437, 437, 3105189545, 0xD13C8700EFD1A3A6)),
    ("collision-bug-singles", collision_bug_singles, golden(4128, 852, 852, 3012464669, 0x98A9CDD4A7C381D2)),
    ("a-host-holding-a-suspect", a_host_holding_a_suspect, golden(189, 119, 119, 14615014960, 0x34F88FA19CCBF7FA)),
    ("a-registrant-that-exits", a_registrant_that_exits, golden(167, 71, 71, 6007691043, 0xDB5F6B5B1C4D2951)),
];

/// Recorded at `0674072`, before the per-segment charge log existed: a
/// lane leaving and re-entering the deferred state, lanes only ever read
/// through the views, and two processor grades sharing one log entry.
#[rustfmt::skip]
const DEFERRED_SCENARIOS: [Scenario; 3] = [
    ("a-workstation-that-joins-and-leaves", a_workstation_that_joins_and_leaves, golden(219, 79, 79, 3022836543, 0x73E92BC3F85A3EB4)),
    ("idle-hosts-read-through-the-views", idle_hosts_read_through_the_views, golden(2234, 258, 258, 3004068146, 0x20756274351A0D24)),
    ("mixed-grades-on-one-segment", mixed_grades_on_one_segment, golden(1141, 217, 217, 3006547666, 0x42F783F21014825B)),
];

#[test]
fn every_host_is_charged_counted_and_told_what_the_recorded_parent_was() {
    let mut mismatches = Vec::new();
    for (name, run, want) in SCENARIOS.iter().chain(&DEFERRED_SCENARIOS) {
        let got = golden_of(&run());
        if got != *want {
            mismatches.push(format!("{name}:\n  got  {got:?}\n  want {want:?}"));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// Every field of a storm report, in declaration order, floats by their
/// bits: naming them all here means a field added to the report is a
/// compile error until it is folded too.
fn storm_fold(report: &BootStormReport) -> u64 {
    let BootStormReport {
        loaded,
        errors,
        integrity_errors,
        resolve_failures,
        sim_ms,
        load_ms_mean,
        load_ms_max,
        events_scheduled,
        events_dispatched,
        frames_sent,
        deliveries,
        getpid_broadcasts,
        retransmissions,
        chunks_sent,
    } = *report;
    let mut d = Digest(0xCBF2_9CE4_8422_2325);
    for w in [
        loaded,
        errors,
        integrity_errors,
        resolve_failures,
        sim_ms.to_bits(),
        load_ms_mean.to_bits(),
        load_ms_max.to_bits(),
        events_scheduled,
        events_dispatched,
        frames_sent,
        deliveries,
        getpid_broadcasts,
        retransmissions,
        chunks_sent,
    ] {
        d.word(w);
    }
    d.0
}

/// The real boot storm (file servers, program loads) at the two sizes
/// the scenarios above imitate: the fold of its report, recorded with
/// this fold at `8f65421`, before the storm's reread phase was moved out.
#[test]
fn the_boot_storm_reports_what_the_recorded_parent_did() {
    for (clients, want) in [(64, 0xBDDAAC2264167BF2_u64), (256, 0xC6B906696809C226)] {
        let report = run_boot_storm(&BootStormConfig::new(clients));
        assert_eq!(report.loaded, clients as u64);
        assert_eq!(storm_fold(&report), want, "N={clients}: {report:?}");
    }
}

#[test]
fn the_scenarios_reach_what_they_are_meant_to_pin() {
    // A golden is only worth its digest if the script gets there.
    let sum = |cl: &Cluster, f: fn(&v_kernel::KernelStats) -> u64| -> u64 {
        (0..cl.num_hosts())
            .map(|h| f(&cl.kernel_stats(HostId(h))))
            .sum()
    };
    let resolved = |log: &Log, found: bool| {
        let log = log.borrow();
        log.iter()
            .filter(|e| e[1] == 1 && (e[2] != 0) == found)
            .count()
    };

    let (cl, log) = storm_mesh_crash_and_restart();
    assert!(cl.kernel_stats(HostId(1)).frames_dropped_down > 0);
    assert!(cl.kernel_stats(HostId(10)).frames_dropped_down > 0);
    assert_eq!(cl.kernel_stats(HostId(1)).restarts, 1);
    assert_eq!(cl.kernel_stats(HostId(2)).restarts, 1);
    assert_eq!(
        cl.kernel_stats(HostId(2)).processes_spawned,
        1,
        "back empty"
    );
    assert!(!cl.host_is_up(HostId(10)));
    assert!(
        resolved(&log, false) > 0,
        "the dead registrant was asked for"
    );
    assert!(sum(&cl, |k| k.host_down_failures) >= 1);
    assert!(cl.kernel_stats(HostId(1)).nacks_sent >= 1);

    let (cl, log) = registrants_first_middle_last();
    for host in [0, 15, 29] {
        assert!(cl.kernel_stats(HostId(host)).getpid_answers > 0, "{host}");
    }
    assert!(resolved(&log, false) > 0, "nobody holds 999");

    let (cl, _) = fault_plan_singles();
    let m = cl.medium_stats();
    assert!(
        m.dropped > 0 && m.duplicated > 0 && m.corrupted > 0,
        "{m:?}"
    );
    assert!(sum(&cl, |k| k.checksum_drops) > 0);

    let (cl, _) = collision_bug_singles();
    assert!(cl.medium_stats().bug_corruptions > 0);
    assert!(sum(&cl, |k| k.checksum_drops) > 0);

    let (cl, log) = a_host_holding_a_suspect();
    let k = cl.kernel_stats(HostId(3));
    assert_eq!((k.peer_suspicions, k.peer_reprieves), (1, 1));
    assert_eq!(k.sends_to_suspect, 0, "reprieved by the broadcast");
    let calls: Vec<u64> = log
        .borrow()
        .iter()
        .filter(|e| e[1] == 3)
        .map(|e| e[2])
        .collect();
    assert_eq!(calls, [error_code(KernelError::HostDown), 0]);

    let (cl, log) = a_registrant_that_exits();
    assert_eq!(cl.kernel_stats(HostId(4)).getpid_answers, 2);
    assert_eq!(cl.kernel_stats(HostId(4)).processes_exited, 1);
    assert_eq!(resolved(&log, false), 2, "200 is gone for the second round");

    let (cl, log) = a_workstation_that_joins_and_leaves();
    let k = cl.kernel_stats(HostId(6));
    assert_eq!(k.getpid_answers, 1);
    assert_eq!(k.getpid_broadcasts, 1, "host 6 asks after its joiner left");
    assert_eq!(k.processes_exited, 2, "the joiner, then the asker");
    assert_eq!(resolved(&log, false), 1, "300 is gone for the last round");

    let (cl, log) = idle_hosts_read_through_the_views();
    let reads = log.borrow().iter().filter(|e| e[1] == 4).count();
    assert!(reads > 20, "{reads}");
    for host in 20..40 {
        assert_eq!(cl.kernel_stats(HostId(host)).processes_spawned, 0);
        assert!(cl.cpu_busy(HostId(host)) > SimDuration::ZERO);
    }

    let (cl, _) = mixed_grades_on_one_segment();
    let busy = |h| cl.cpu_busy(HostId(h));
    assert_eq!(cl.config().hosts[3].cpu, CpuSpeed::Mc68000At8MHz);
    assert_ne!(busy(3), busy(4), "two idle hosts of different grades");
    assert_eq!(busy(3), busy(6), "two idle hosts of one grade");
}
