//! Page-program golden: what the page-level programs of Tables 6-1, 6-2,
//! 6-3 and §7 do to the simulated system must not move now that their
//! eight servers and clients are one `PageServer` and one `PageClient`.
//!
//! Each case runs a scenario to quiescence and prints one line: the final
//! clock, the dispatched and scheduled event counts, every host's charged
//! processor time, a digest of every host's `KernelStats` (through its
//! `Debug` text), then each report — `(started, finished, iterations,
//! failures, integrity_errors)` of a server or a loop client, and
//! `(pages, loads, summed page ms, summed load ms)` of a §7 workstation,
//! the sums exact. The expected lines were recorded from the commit
//! before the fold (`ad1e794`), whose programs took the same arguments:
//! one kernel call more, fewer or in another order — a `Receive` that
//! became a `ReceiveWithSegment` and cost more, a zero `Delay`, a
//! `MoveTo` chunked differently — changes them.

use v_kernel::{Cluster, ClusterConfig, CpuSpeed, HostId, Pid, Program};
use v_sim::SimDuration;
use v_workloads::measure::{probe, Probe, RunReport};

// --- spellings: the only part that differs from the recorded parent ---------
//
// At the parent these built, with the same arguments, the eight programs
// the one pair replaced: the page pair, the read-ahead pair of Table 6-2
// (`seq.rs`), the load pair of Table 6-3 (`load.rs`) and §7's capacity
// server and workstation, with a stats type of its own (`mixed.rs`). The
// scenarios and `observe` below are byte-for-byte what recorded the
// values.

use v_workloads::page::{PageClient, PageMode, PageOp, PageServer, Think, IMAGE, MIX_PATTERN};

type Mix = Probe<RunReport>;

fn page_server(mode: PageMode, report: &Probe<RunReport>) -> Box<dyn Program> {
    Box::new(PageServer::new(mode, 512, 0x7E, report.clone()))
}

fn page_client(server: Pid, op: PageOp, n: u64, report: &Probe<RunReport>) -> Box<dyn Program> {
    Box::new(PageClient::new(server, op, 512, n, 0x7E, report.clone()))
}

fn seq_server(disk: SimDuration, report: &Probe<RunReport>) -> Box<dyn Program> {
    let server = PageServer::new(PageMode::Segment, 512, 0x11, report.clone());
    Box::new(server.with_read_ahead(disk))
}

fn seq_client(
    server: Pid,
    n: u64,
    think: SimDuration,
    report: &Probe<RunReport>,
) -> Box<dyn Program> {
    let client = PageClient::new(server, PageOp::Read, 512, n, 0x11, report.clone());
    Box::new(client.with_think(Think::Compute(think)))
}

fn load_server(unit: u32, report: &Probe<RunReport>) -> Box<dyn Program> {
    let server = PageServer::new(PageMode::Segment, IMAGE, 0x42, report.clone());
    Box::new(server.with_transfer_unit(unit))
}

fn load_client(server: Pid, n: u64, report: &Probe<RunReport>) -> Box<dyn Program> {
    Box::new(PageClient::new(
        server,
        PageOp::Load,
        IMAGE,
        n,
        0x42,
        report.clone(),
    ))
}

fn capacity_server(report: &Probe<RunReport>) -> Box<dyn Program> {
    let server = PageServer::new(PageMode::Segment, IMAGE, MIX_PATTERN, report.clone());
    Box::new(
        server
            .with_transfer_unit(16384)
            .with_fs_cpu(SimDuration::from_millis_f64(3.5)),
    )
}

fn workstation(server: Pid, n: u64, think: SimDuration, seed: u64) -> (Box<dyn Program>, Mix) {
    let report = probe(RunReport::default());
    let ws = PageClient::mix(server, n, think, seed, report.clone());
    (Box::new(ws), report)
}

/// `(pages, loads, summed page ms, summed load ms)` of one workstation.
fn mix_fields(mix: &Mix) -> (u64, u64, f64, f64) {
    let m = mix.borrow();
    (m.pages, m.loads, m.page_ms_total, m.load_ms_total)
}

// --- scenarios ---------------------------------------------------------------

/// A two-host cluster on the 3 Mb Ethernet; `thoth` runs the unmodified
/// kernel (no appended segments).
fn pair(speed: CpuSpeed, thoth: bool) -> Cluster {
    let mut cfg = ClusterConfig::three_mb().with_hosts(2, speed);
    cfg.protocol.appended_segments = !thoth;
    Cluster::new(cfg)
}

/// Spawns `server` on `server_host`, lets it reach its receive, then runs
/// `client` on host 0 to quiescence — the procedure of the tables.
fn client_server(
    mut cl: Cluster,
    server_host: usize,
    server: Box<dyn Program>,
    client: impl FnOnce(Pid) -> Box<dyn Program>,
) -> Cluster {
    let pid = cl.spawn(HostId(server_host), "server", server);
    cl.run();
    cl.spawn(HostId(0), "client", client(pid));
    cl.run();
    cl
}

struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    fn text(&mut self, s: &str) {
        for b in s.bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// One line of what a run left behind: clock, event counters, per-host
/// busy time, a digest of every host's `KernelStats`, then each report.
fn observe(cl: &Cluster, reports: &[&Probe<RunReport>], mixes: &[Mix]) -> String {
    let hosts = cl.num_hosts();
    let busy: Vec<u64> = (0..hosts)
        .map(|h| cl.cpu_busy(HostId(h)).as_nanos())
        .collect();
    let mut stats = Digest::new();
    for h in 0..hosts {
        stats.text(&format!("{:?}", cl.kernel_stats(HostId(h))));
    }
    let mut line = format!(
        "now={} ev={} sched={} busy={busy:?} kstats={:016X}",
        cl.now().as_nanos(),
        cl.events_dispatched(),
        cl.sim_stats().scheduled,
        stats.0
    );
    for r in reports {
        let r = r.borrow();
        line += &format!(
            " run=({:?},{:?},{},{},{})",
            r.started.map(|t| t.as_nanos()),
            r.finished.map(|t| t.as_nanos()),
            r.iterations,
            r.failures,
            r.integrity_errors
        );
    }
    for m in mixes {
        let (pages, loads, page_ms, load_ms) = mix_fields(m);
        line += &format!(" mix=({pages},{loads},{page_ms:?},{load_ms:?})");
    }
    line
}

fn table_6_1(mode: PageMode, op: PageOp, remote: bool) -> String {
    let (srv, cli) = (probe(RunReport::default()), probe(RunReport::default()));
    let cl = client_server(
        pair(CpuSpeed::Mc68000At10MHz, mode == PageMode::Thoth),
        remote as usize,
        page_server(mode, &srv),
        |pid| page_client(pid, op, 40, &cli),
    );
    observe(&cl, &[&srv, &cli], &[])
}

fn table_6_2(disk_ms: u64, think_ms: u64) -> String {
    let (srv, cli) = (probe(RunReport::default()), probe(RunReport::default()));
    let cl = client_server(
        pair(CpuSpeed::Mc68000At10MHz, false),
        1,
        seq_server(SimDuration::from_millis(disk_ms), &srv),
        |pid| seq_client(pid, 40, SimDuration::from_millis(think_ms), &cli),
    );
    observe(&cl, &[&srv, &cli], &[])
}

fn table_6_3(unit: u32, remote: bool) -> String {
    let (srv, cli) = (probe(RunReport::default()), probe(RunReport::default()));
    let cl = client_server(
        pair(CpuSpeed::Mc68000At8MHz, false),
        remote as usize,
        load_server(unit, &srv),
        |pid| load_client(pid, 3, &cli),
    );
    observe(&cl, &[&srv, &cli], &[])
}

fn section_7() -> String {
    let cfg = ClusterConfig::three_mb().with_hosts(4, CpuSpeed::Mc68000At10MHz);
    let mut cl = Cluster::new(cfg);
    let srv = probe(RunReport::default());
    let server = cl.spawn(HostId(0), "file-server", capacity_server(&srv));
    let mixes: Vec<Mix> = (1..=3)
        .map(|seed| {
            let (ws, mix) = workstation(server, 60, SimDuration::from_millis(20), seed);
            cl.spawn(HostId(seed as usize), "workstation", ws);
            mix
        })
        .collect();
    cl.run();
    observe(&cl, &[&srv], &mixes)
}

fn observed() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for mode in [PageMode::Segment, PageMode::Thoth] {
        for op in [PageOp::Read, PageOp::Write] {
            for remote in [false, true] {
                let name = format!("6-1 {mode:?} {op:?} remote={remote}");
                out.push((name, table_6_1(mode, op, remote)));
            }
        }
    }
    for (disk, think) in [(10, 0), (20, 0), (10, 20)] {
        out.push((
            format!("6-2 disk={disk} think={think}"),
            table_6_2(disk, think),
        ));
    }
    for unit in [1024, 16384, 65536] {
        for remote in [false, true] {
            let name = format!("6-3 unit={unit} remote={remote}");
            out.push((name, table_6_3(unit, remote)));
        }
    }
    out.push(("7 three workstations".to_string(), section_7()));
    out
}

/// `(case, line)`, recorded at the parent.
const EXPECTED: [(&str, &str); 18] = [
    (
        "6-1 Segment Read remote=false",
        "now=53042400 ev=82 sched=82 busy=[53157900, 0] kstats=90C971511CE2ACC4 run=(None,None,0,0,0) run=(Some(731500),Some(53042400),40,0,0)",
    ),
    (
        "6-1 Segment Read remote=true",
        "now=3001792469 ev=205 sched=205 busy=[91284000, 106183500] kstats=B912617FF1953DA6 run=(None,None,0,0,0) run=(Some(616000),Some(228755800),40,0,0)",
    ),
    (
        "6-1 Segment Write remote=false",
        "now=53042400 ev=82 sched=82 busy=[53157900, 0] kstats=90C971511CE2ACC4 run=(None,None,0,0,0) run=(Some(731500),Some(53042400),40,0,0)",
    ),
    (
        "6-1 Segment Write remote=true",
        "now=3004557826 ev=205 sched=205 busy=[83584000, 106183500] kstats=B912617FF1953DA6 run=(None,None,0,0,0) run=(Some(616000),Some(221055800),40,0,0)",
    ),
    (
        "6-1 Thoth Read remote=false",
        "now=56430400 ev=122 sched=122 busy=[56545900, 0] kstats=90C971511CE2ACC4 run=(None,None,0,0,0) run=(Some(731500),Some(56430400),40,0,0)",
    ),
    (
        "6-1 Thoth Read remote=true",
        "now=3001792469 ev=366 sched=366 busy=[112270400, 142877900] kstats=82093EF4286BEFAE run=(None,None,0,0,0) run=(Some(616000),Some(295802560),40,0,0)",
    ),
    (
        "6-1 Thoth Write remote=false",
        "now=56430400 ev=122 sched=122 busy=[56545900, 0] kstats=90C971511CE2ACC4 run=(None,None,0,0,0) run=(Some(731500),Some(56430400),40,0,0)",
    ),
    (
        "6-1 Thoth Write remote=true",
        "now=3001792469 ev=366 sched=366 busy=[115658400, 148729900] kstats=74D8285B0BC44CA6 run=(None,None,0,0,0) run=(Some(616000),Some(305042560),40,0,0)",
    ),
    (
        "6-2 disk=10 think=0",
        "now=3001792469 ev=245 sched=245 busy=[91284000, 100177500] kstats=B912617FF1953DA6 run=(None,None,0,0,0) run=(Some(616000),Some(451346155),40,0,0)",
    ),
    (
        "6-2 disk=20 think=0",
        "now=3001792469 ev=245 sched=245 busy=[91284000, 100177500] kstats=B912617FF1953DA6 run=(None,None,0,0,0) run=(Some(616000),Some(841346155),40,0,0)",
    ),
    (
        "6-2 disk=10 think=20",
        "now=4001792469 ev=285 sched=285 busy=[871284000, 106183500] kstats=B912617FF1953DA6 run=(None,None,0,0,0) run=(Some(616000),Some(1008755800),40,0,0)",
    ),
    (
        "6-3 unit=1024 remote=false",
        "now=245935040 ev=200 sched=200 busy=[246085040, 0] kstats=1BEBA238B58824AB run=(None,None,0,0,0) run=(Some(950000),Some(245935040),3,0,0)",
    ),
    (
        "6-3 unit=1024 remote=true",
        "now=4002281589 ev=1193 sched=1193 busy=[669790000, 711700000] kstats=C0022FEAEB72F2E4 run=(None,None,0,0,0) run=(Some(800000),Some(1670059550),3,0,0)",
    ),
    (
        "6-3 unit=16384 remote=false",
        "now=181135040 ev=20 sched=20 busy=[181285040, 0] kstats=1BEBA238B58824AB run=(None,None,0,0,0) run=(Some(950000),Some(181135040),3,0,0)",
    ),
    (
        "6-3 unit=16384 remote=true",
        "now=4002281589 ev=824 sched=824 busy=[606760960, 502870960] kstats=93CFEF0C006AE522 run=(None,None,0,0,0) run=(Some(800000),Some(1097574332),3,0,0)",
    ),
    (
        "6-3 unit=65536 remote=false",
        "now=177895040 ev=11 sched=11 busy=[178045040, 0] kstats=1BEBA238B58824AB run=(None,None,0,0,0) run=(Some(950000),Some(177895040),3,0,0)",
    ),
    (
        "6-3 unit=65536 remote=true",
        "now=4002281589 ev=809 sched=809 busy=[603706720, 492526720] kstats=93CFEF0C006AE522 run=(None,None,0,0,0) run=(Some(800000),Some(1068910106),3,0,0)",
    ),
    (
        "7 three workstations",
        "now=8001484469 ev=4300 sched=4300 busy=[2437167640, 876081580, 729887500, 436518260] kstats=F2F63EC09550BB47 run=(None,None,0,0,0) mix=(55,5,2063.6112659999994,1920.6558779999998) mix=(56,4,2071.6664809999993,1920.38398) mix=(58,2,3353.477312000006,645.772544)",
    ),
];

#[test]
fn page_programs_match_the_recorded_parent() {
    let observed = observed();
    assert_eq!(observed.len(), EXPECTED.len());
    let moved: Vec<String> = observed
        .iter()
        .zip(EXPECTED)
        .filter(|((name, line), (want_name, want))| name != want_name || line != want)
        .map(|((name, line), (_, want))| format!("{name}:\n  got  {line}\n  want {want}"))
        .collect();
    assert!(
        moved.is_empty(),
        "{} cases moved:\n{}",
        moved.len(),
        moved.join("\n")
    );
}
