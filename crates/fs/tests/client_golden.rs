//! Client golden: what the scripted file clients do to the simulated
//! system must not move when the three client state machines become one
//! client behind a route.
//!
//! Each scenario runs one deployment to quiescence and folds into one
//! digest, in order: the final clock, the event-queue counters, every
//! host's `KernelStats`, every service's `FileServerStats` and per-file
//! heat, every
//! client's full report, the cache counters and (where attached) the
//! per-operation `(completed_at_ms, latency_ms)` series. The stats
//! structs are folded through their `Debug` text, so a counter added to
//! one of them re-records the digests; the client report is folded field
//! by field. The expected values were recorded from the commit before
//! the clients were unified (`9aaca72`): one kernel call more, fewer or
//! in another order — a `GetPid`, a backoff `Delay`, a hit's `Compute`,
//! a re-issued `Send` — changes them.

use std::cell::RefCell;
use std::rc::Rc;

use v_fs::client::{FsCall, FsClient, FsClientReport, OpSeries};
use v_fs::{
    spawn_caching_client, spawn_file_server, spawn_rebalancer, BlockCache, BlockStore, CacheConfig,
    CacheMode, CacheStats, DiskModel, FileServerConfig, FileServerStats, FileServerTeam,
    MigrationLedger, RebalancerConfig, ShardMap, ShardOverlay, BLOCK_SIZE,
};
use v_kernel::{Cluster, ClusterConfig, CpuSpeed, HostId, Pid, Program};
use v_net::MeshConfig;
use v_sim::{SimDuration, SimTime};

const CPU: CpuSpeed = CpuSpeed::Mc68000At10MHz;
const BLOCK: u32 = BLOCK_SIZE as u32;

// --- spellings: the only part that differs from the recorded parent ---------
//
// At the parent these wrapped the per-deployment builders, handles,
// client types and report types that have since become one each; the
// scenarios and the digest below them are byte-for-byte what recorded
// the values.

type Report = Rc<RefCell<FsClientReport>>;

/// One shard's service, able to receive migrations.
fn spawn_shard(
    cl: &mut Cluster,
    host: HostId,
    cfg: FileServerConfig,
    store: BlockStore,
) -> FileServerTeam {
    let mut team = spawn_file_server(cl, host, cfg, store);
    team.attach_migration_agent(cl);
    team
}

fn start_rebalancer(
    cl: &mut Cluster,
    host: HostId,
    cfg: RebalancerConfig,
    shards: &[FileServerTeam],
    overlay: &Rc<RefCell<ShardOverlay>>,
) -> Rc<RefCell<MigrationLedger>> {
    spawn_rebalancer(cl, host, cfg, shards, overlay.clone())
}

fn resolving_client(
    shards: usize,
    script: Vec<FsCall>,
    report: &Report,
    overlay: &Rc<RefCell<ShardOverlay>>,
) -> Box<dyn Program> {
    Box::new(FsClient::resolving(shards, script, report.clone()).with_overlay(overlay.clone()))
}

/// Spawns a caching single-route reader; returns its cache.
fn caching_reader(
    cl: &mut Cluster,
    host: HostId,
    server: Pid,
    script: Vec<FsCall>,
    report: &Report,
    cfg: &CacheConfig,
) -> Rc<RefCell<BlockCache>> {
    let client = FsClient::new(server, script, report.clone());
    spawn_caching_client(cl, host, client, cfg)
        .cache
        .expect("a caching mode")
}

/// A caching replica-route client with its op series attached.
struct ReplicaRun {
    report: Report,
    series: OpSeries,
}

fn replica_client(
    cl: &mut Cluster,
    host: HostId,
    replicas: Vec<Pid>,
    script: Vec<FsCall>,
    cfg: &CacheConfig,
) -> (ReplicaRun, Rc<RefCell<BlockCache>>) {
    let run = ReplicaRun {
        report: report(),
        series: Default::default(),
    };
    let client = FsClient::replicated(replicas, script, run.report.clone())
        .with_op_series(run.series.clone());
    let cache = spawn_caching_client(cl, host, client, cfg)
        .cache
        .expect("a caching mode");
    (run, cache)
}

impl ReplicaRun {
    fn completed(&self) -> u64 {
        self.report.borrow().completed
    }

    fn finish(&self) -> (Folded, Vec<(f64, f64)>) {
        (
            Folded::of(&self.report.borrow()),
            self.series.borrow().clone(),
        )
    }
}

/// The client report as the digest reads it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Folded {
    completed: u64,
    errors: u64,
    integrity_errors: u64,
    done: bool,
    elapsed_ms: f64,
    stale_owner_forwards: u64,
    write_retries: u64,
    failovers: u64,
    gave_up: bool,
}

impl Folded {
    fn of(r: &FsClientReport) -> Folded {
        Folded {
            completed: r.completed,
            errors: r.errors,
            integrity_errors: r.integrity_errors,
            done: r.done,
            elapsed_ms: r.elapsed_ms,
            stale_owner_forwards: r.stale_owner_forwards,
            write_retries: r.write_retries,
            failovers: r.failovers,
            gave_up: r.gave_up,
        }
    }
}

// --- digest -----------------------------------------------------------------

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

    /// A stats struct, through its `Debug` text.
    fn stats(&mut self, s: &dyn std::fmt::Debug) {
        let text = format!("{s:?}");
        self.word(text.len() as u64);
        for b in text.bytes() {
            self.word(b as u64);
        }
    }

    /// A service: its counters through their `Debug` text, then every
    /// file's heat, field by field.
    fn server(&mut self, team: &FileServerTeam) {
        self.stats(&*team.stats.borrow());
        for (file, heat) in team.files.borrow().heat_rows() {
            for w in [file.0 as u64, heat.reads, heat.writes, heat.score.to_bits()] {
                self.word(w);
            }
        }
    }

    fn report(&mut self, r: &Folded) {
        for w in [
            r.completed,
            r.errors,
            r.integrity_errors,
            r.done as u64,
            r.elapsed_ms.to_bits(),
            r.stale_owner_forwards,
            r.write_retries,
            r.failovers,
            r.gave_up as u64,
        ] {
            self.word(w);
        }
    }

    fn series(&mut self, ops: &[(f64, f64)]) {
        self.word(ops.len() as u64);
        for (at, latency) in ops {
            self.word(at.to_bits());
            self.word(latency.to_bits());
        }
    }

    /// The cluster-wide part every scenario folds first.
    fn cluster(&mut self, cl: &Cluster) {
        self.word(cl.now().as_nanos());
        self.stats(&cl.sim_stats());
        for h in 0..cl.num_hosts() {
            self.stats(&cl.kernel_stats(HostId(h)));
        }
    }
}

fn report() -> Report {
    Rc::new(RefCell::new(FsClientReport::default()))
}

fn read(block: u32, expect: u8) -> FsCall {
    FsCall::ReadExpect {
        block,
        count: BLOCK,
        expect,
    }
}

fn write(block: u32, fill: u8) -> FsCall {
    FsCall::WriteFill {
        block,
        count: BLOCK,
        fill,
    }
}

/// What one scenario produced: the numbers a reader can check by eye,
/// and the digest that pins everything else.
#[derive(Debug, PartialEq)]
struct Outcome {
    now_ns: u64,
    events: u64,
    clients: Vec<Folded>,
    digest: u64,
}

// --- scenario 1: single route, write-invalidate cache, a writer beside it ----

fn single_route_with_cache() -> (Outcome, FileServerStats, CacheStats) {
    const FILL: u8 = 0x6C;
    let mut cl = Cluster::new(ClusterConfig::three_mb().with_hosts(3, CPU));
    let mut store = BlockStore::new();
    store
        .create_with("vol", &vec![FILL; 16 * BLOCK_SIZE])
        .unwrap();
    let cfg = FileServerConfig {
        disk: DiskModel::fixed(SimDuration::from_millis(2)),
        cache_mode: CacheMode::WriteInvalidate,
        workers: 2,
        ..FileServerConfig::default()
    };
    let team = spawn_file_server(&mut cl, HostId(2), cfg, store);
    cl.run();

    // The reader cycles six blocks through an eight-block cache, with a
    // short read, an unchecked read, a query, a large read and a write
    // of its own along the way.
    let mut script = vec![FsCall::Open("vol".into())];
    for pass in 0..30u32 {
        for b in 0..6 {
            script.push(read(b, FILL));
        }
        script.push(match pass % 5 {
            0 => FsCall::ReadAny {
                block: 7,
                count: 100,
            },
            1 => FsCall::QueryExpect(16 * BLOCK),
            2 => FsCall::ReadLargeExpect {
                block: 8,
                count: 4 * BLOCK,
                expect: FILL,
            },
            3 => write(pass % 6, FILL),
            _ => FsCall::ReadExpect {
                block: 6,
                count: 200,
                expect: FILL,
            },
        });
    }
    let rrep = report();
    let cache = caching_reader(
        &mut cl,
        HostId(0),
        team.server,
        script,
        &rrep,
        &CacheConfig::blocks(8),
    );
    let mut wscript = vec![FsCall::Open("vol".into())];
    for i in 0..12u32 {
        wscript.push(write(i % 6, FILL));
        wscript.push(read(i % 6, FILL));
    }
    let wrep = report();
    cl.spawn(
        HostId(1),
        "writer",
        Box::new(FsClient::new(team.server, wscript, wrep.clone())),
    );
    cl.run();

    let clients = vec![Folded::of(&rrep.borrow()), Folded::of(&wrep.borrow())];
    let stats = team.stats.borrow().clone();
    let cache_stats = cache.borrow().stats;
    let mut d = Digest::new();
    d.cluster(&cl);
    d.server(&team);
    for c in &clients {
        d.report(c);
    }
    d.stats(&cache_stats);
    let out = Outcome {
        now_ns: cl.now().as_nanos(),
        events: cl.sim_stats().popped,
        clients,
        digest: d.0,
    };
    (out, stats, cache_stats)
}

// --- scenario 2: resolving shards on a line mesh, a live migration -----------

struct ShardRun {
    out: Outcome,
    servers: Vec<FileServerStats>,
    ledger: MigrationLedger,
}

fn resolving_shards_across_a_migration() -> ShardRun {
    let map = ShardMap::new(3);
    // Servers on hosts 0-2, one per segment; the hot file's reader on
    // segment 0, its writer on segment 1, the bystander on segment 2.
    let mut cfg = ClusterConfig::mesh(MeshConfig::line(3));
    for seg in [0, 1, 2, 0, 1, 2] {
        cfg = cfg.with_host_on(CPU, seg);
    }
    let mut cl = Cluster::new(cfg);

    let hot = map.name_for_shard(0, "hot");
    let warm = map.name_for_shard(0, "warm");
    let side = map.name_for_shard(1, "side");
    let far = map.name_for_shard(2, "far");
    let mut shards = Vec::new();
    for shard in 0..3 {
        let mut store = BlockStore::with_id_base(map.id_base(shard));
        let files: &[(&String, u8)] = match shard {
            0 => &[(&hot, 0xA1), (&warm, 0xB2)],
            1 => &[(&side, 0xC3)],
            _ => &[(&far, 0xD4)],
        };
        for (name, fill) in files {
            store
                .create_with(name, &vec![*fill; 4 * BLOCK_SIZE])
                .unwrap();
        }
        let fs_cfg = FileServerConfig {
            disk: DiskModel::fixed(SimDuration::from_millis(1)),
            register: Some(map.logical_id(shard)),
            ..FileServerConfig::default()
        };
        shards.push(spawn_shard(&mut cl, HostId(shard), fs_cfg, store));
    }
    cl.run();

    let overlay: Rc<RefCell<ShardOverlay>> = Default::default();
    // The reader streams the hot file across the move: its cached owner
    // goes stale at the commit and the next read comes back stamped by
    // the new owner.
    let mut reader = vec![FsCall::Open(hot.clone())];
    reader.extend((0..150).map(|i| read(i % 4, 0xA1)));
    // The writer rewrites the hot file with the bytes it already holds:
    // a write that meets the drain backs off, and the one asleep across
    // the commit wakes to a dead old owner.
    let mut writer = vec![FsCall::Open(hot.clone())];
    for i in 0..40 {
        writer.push(write(i % 4, 0xA1));
        writer.push(read(i % 4, 0xA1));
    }
    // The bystander warms shard 0's second file (so moving the hot one
    // narrows the spread), touches the other two shards, and is done
    // before anything moves.
    let mut bystander = vec![FsCall::Open(warm.clone())];
    bystander.extend((0..12).map(|i| read(i % 4, 0xB2)));
    bystander.push(FsCall::Open(side.clone()));
    bystander.extend([read(0, 0xC3), write(1, 0x3C), read(1, 0x3C)]);
    bystander.push(FsCall::Open(far.clone()));
    bystander.push(read(3, 0xD4));

    let reports: Vec<Report> = [reader, writer, bystander]
        .into_iter()
        .enumerate()
        .map(|(i, script)| {
            let rep = report();
            cl.spawn(
                HostId(3 + i),
                "client",
                resolving_client(3, script, &rep, &overlay),
            );
            rep
        })
        .collect();
    let ledger = start_rebalancer(
        &mut cl,
        HostId(5),
        RebalancerConfig {
            interval: SimDuration::from_millis(120),
            rounds: 1,
            min_score: 1.0,
            max_moves_per_round: 1,
        },
        &shards,
        &overlay,
    );

    // Run to the commit, on until the reader has been corrected by a
    // forwarded reply, then kill the old owner under the writer.
    let mut t = cl.now();
    while ledger.borrow().completed == 0 || reports[0].borrow().stale_owner_forwards == 0 {
        t += SimDuration::from_millis(1);
        assert!(t <= SimTime::from_millis(2_000), "the move never committed");
        cl.run_until(t);
    }
    cl.crash_host(HostId(0));
    cl.run();

    let clients: Vec<Folded> = reports.iter().map(|r| Folded::of(&r.borrow())).collect();
    let servers: Vec<FileServerStats> = shards.iter().map(|s| s.stats.borrow().clone()).collect();
    let ledger = ledger.borrow().clone();
    let mut d = Digest::new();
    d.cluster(&cl);
    for s in &shards {
        d.server(s);
    }
    for c in &clients {
        d.report(c);
    }
    d.stats(&ledger);
    d.word(overlay.borrow().moves() as u64);
    ShardRun {
        out: Outcome {
            now_ns: cl.now().as_nanos(),
            events: cl.sim_stats().popped,
            clients,
            digest: d.0,
        },
        servers,
        ledger,
    }
}

// --- scenario 3: three replicas, the first one crashed mid-script ------------

fn replicas_across_a_crash() -> (Outcome, Vec<(f64, f64)>, CacheStats) {
    const FILL: u8 = 0x5A;
    let mut cl = Cluster::new(ClusterConfig::three_mb().with_hosts(4, CPU));
    let mut store = BlockStore::new();
    store
        .create_with("vmunix", &vec![FILL; 8 * BLOCK_SIZE])
        .unwrap();
    let cfg = FileServerConfig {
        disk: DiskModel::fixed(SimDuration::from_millis(1)),
        cache_mode: CacheMode::WriteInvalidate,
        read_only: true,
        ..FileServerConfig::default()
    };
    // What `spawn_replica_group` does, keeping the stats handles.
    let teams: Vec<_> = (0..3)
        .map(|h| spawn_file_server(&mut cl, HostId(h), cfg.clone(), store.clone()))
        .collect();
    cl.run();

    // Eight blocks through a four-block cache: two of every three reads
    // stay on blocks 0-1 (hits once warm), the third walks all eight.
    let mut script = vec![FsCall::Open("vmunix".into())];
    for i in 0..90u32 {
        script.push(read(if i % 3 == 0 { i % 8 } else { i % 2 }, FILL));
    }
    let ops = script.len() as u64;
    let (run, cache) = replica_client(
        &mut cl,
        HostId(3),
        teams.iter().map(|t| t.server).collect(),
        script,
        &CacheConfig::blocks(4),
    );
    let mut t = cl.now();
    while run.completed() < ops / 3 {
        t += SimDuration::from_millis(1);
        assert!(t <= SimTime::from_millis(2_000), "the script stalled");
        cl.run_until(t);
    }
    cl.crash_host(HostId(0));
    cl.run();

    let (client, series) = run.finish();
    let cache_stats = cache.borrow().stats;
    let mut d = Digest::new();
    d.cluster(&cl);
    for team in &teams {
        d.server(team);
    }
    d.report(&client);
    d.series(&series);
    d.stats(&cache_stats);
    let out = Outcome {
        now_ns: cl.now().as_nanos(),
        events: cl.sim_stats().popped,
        clients: vec![client],
        digest: d.0,
    };
    (out, series, cache_stats)
}

// --- recorded values ---------------------------------------------------------

const fn client(
    completed: u64,
    elapsed_ms: f64,
    stale_owner_forwards: u64,
    write_retries: u64,
    failovers: u64,
) -> Folded {
    Folded {
        completed,
        errors: 0,
        integrity_errors: 0,
        done: true,
        elapsed_ms,
        stale_owner_forwards,
        write_retries,
        failovers,
        gave_up: false,
    }
}

/// Recorded from the parent commit, scenarios 1-3 in order. The digests
/// were re-recorded once, when `FileServerStats` lost its `disk` copy
/// and `HeatEntry` its two epoch counters: they are what the commit
/// before that folds once those fields are cut from the `Debug` text it
/// hashes, and every other field here kept its recorded value. They
/// were re-recorded a second time when per-file heat left
/// `FileServerStats` for the team's file table: the parent folded with
/// its `heat` field cut from the `Debug` text and its heat rows folded
/// field by field after it, as [`Digest::server`] folds them now.
fn golden() -> [Outcome; 3] {
    [
        Outcome {
            now_ns: 4_004_003_172,
            events: 1485,
            clients: vec![
                client(211, 1080.595149, 0, 0, 0),
                client(25, 459.197543, 0, 0, 0),
            ],
            digest: 0x86DBDB7E08FFF355,
        },
        Outcome {
            now_ns: 6_135_393_006,
            events: 1812,
            clients: vec![
                client(151, 1797.454577, 1, 0, 0),
                client(81, 3552.680219, 0, 5, 1),
                client(19, 327.073895, 0, 0, 0),
            ],
            digest: 0xE1F0D998515A118D,
        },
        Outcome {
            now_ns: 5_700_807_649,
            events: 275,
            clients: vec![client(91, 2853.439605, 0, 0, 1)],
            digest: 0x554E3B7FC9F14921,
        },
    ]
}

#[test]
fn kernel_calls_stats_and_reports_match_the_recorded_parent() {
    let got = [
        single_route_with_cache().0,
        resolving_shards_across_a_migration().out,
        replicas_across_a_crash().0,
    ];
    let names = ["single+cache", "shards+migration", "replicas+crash"];
    let mut mismatches = Vec::new();
    for ((name, got), want) in names.iter().zip(&got).zip(&golden()) {
        if got != want {
            mismatches.push(format!("{name}:\n  got  {got:x?}\n  want {want:x?}"));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn the_scenarios_exercise_every_path() {
    // Single route: hits, callbacks and both workers.
    let (out, server, cache) = single_route_with_cache();
    assert!(
        out.clients.iter().all(|c| c.done && c.errors == 0),
        "{out:?}"
    );
    assert!(cache.hits > 50 && cache.misses > 10, "{cache:?}");
    assert!(
        cache.callbacks >= 1 && cache.invalidated_blocks >= 1,
        "{cache:?}"
    );
    assert!(
        server.invalidations >= 1 && server.forwarded > 0,
        "{server:?}"
    );
    assert!(server.large_reads >= 1 && server.writes > 12, "{server:?}");

    // Shards: a backoff, a forwarded correction and a dead-owner failover.
    let run = resolving_shards_across_a_migration();
    let (reader, writer, bystander) = (run.out.clients[0], run.out.clients[1], run.out.clients[2]);
    assert!(
        run.out.clients.iter().all(|c| c.done && c.errors == 0),
        "{:?}",
        run.out
    );
    assert_eq!(run.ledger.completed, 1, "{:?}", run.ledger);
    assert_eq!(run.ledger.moves[0].from_shard, 0, "{:?}", run.ledger);
    assert!(
        writer.write_retries >= 1,
        "no write met the drain: {writer:?}"
    );
    assert!(reader.stale_owner_forwards >= 1, "{reader:?}");
    assert_eq!(writer.failovers, 1, "{writer:?}");
    assert_eq!(bystander.stale_owner_forwards + bystander.failovers, 0);
    let moved: u64 = run.servers.iter().map(|s| s.moved_forwards).sum();
    assert!(moved >= 1, "{:?}", run.servers);
    assert!(
        run.servers[0].drain_write_refusals >= 1,
        "{:?}",
        run.servers
    );

    // Replicas: one failover a third of the way in, hits on both sides.
    let (out, series, cache) = replicas_across_a_crash();
    let c = out.clients[0];
    assert!(c.done && !c.gave_up && c.errors == 0, "{c:?}");
    assert_eq!(c.failovers, 1, "{c:?}");
    assert_eq!(series.len() as u64, c.completed);
    assert_eq!(series.iter().filter(|(_, lat)| *lat > 100.0).count(), 1);
    assert!(cache.hits > 20 && cache.evictions > 10, "{cache:?}");
}
