//! The six deployments, and every public item of the crates they lean on.
//!
//! This is the one file of the benchmark that builds clusters, installs
//! stores, spawns servers and clients and reads the crates' stats structs,
//! so it is also the list of names a refactor of the crates must keep
//! compiling (`README.md` repeats it). The microbenchmarks in `micro.rs`
//! call a handful of further layer functions in isolation.
//!
//! Every workload is a closed loop — a V `Send` blocks its caller, as in the
//! paper — with fixed operation counts ([`Scale`]); `seed` drives only the
//! inputs generated here (block choice, operation order, fill bytes, the
//! disk-jitter stream and `ClusterConfig::seed`). The crates receive the
//! generated scripts and configurations, never the seed's meaning.

use std::cell::RefCell;
use std::rc::Rc;

use v_fs::cache::{CacheAgent, CacheLayer};
use v_fs::client::{FsCall, FsClient, FsClientReport};
use v_fs::loader::{install_image, LoadReport, ProgramLoader};
use v_fs::team::FileServerTeam;
use v_fs::{
    spawn_file_server, BlockCache, BlockStore, CacheConfig, CacheMode, CacheStats, DiskModel,
    DiskStats, FileServerConfig, FileServerStats, ShardMap, ShardedFsClient, BLOCK_SIZE,
};
use v_kernel::{
    Api, Cluster, ClusterConfig, CpuSpeed, HostId, KernelStats, Outcome, Pid, Program, Scope,
};
use v_net::{FaultPlan, GatewayStats, MediumStats, MeshConfig};
use v_sim::{SimDuration, SimStats, SimTime, SplitMix64};
use v_workloads::echo::{EchoServer, Pinger};
use v_workloads::measure::{probe, RunReport};
use v_workloads::page::{PageClient, PageMode, PageOp, PageServer};

use crate::probe::Wrap;

const BLOCK: u32 = BLOCK_SIZE as u32;
/// Every host is the paper's 10 MHz SUN workstation.
const CPU: CpuSpeed = CpuSpeed::Mc68000At10MHz;
/// Names of the six workloads, in the order `all` runs them.
pub const WORKLOADS: [&str; 6] = [
    "exchange",
    "page_rw",
    "fs_lossy",
    "capacity",
    "cache_share",
    "storm",
];

/// Operation counts. Fixed constants, never time-boxed or tuned at run
/// time, so the host work of one repetition is the same on every commit.
/// [`Scale::FULL`] is frozen with the PR that added the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// `exchange`: message exchanges.
    pub exchange_ops: u64,
    /// `page_rw`: page reads, then as many page writes.
    pub page_ops: u64,
    /// `fs_lossy`: read/write operations per client (4 clients).
    pub lossy_ops: usize,
    /// `capacity`: operations per client (16 clients).
    pub capacity_ops: usize,
    /// `cache_share`: cycles per reader (8 readers) of
    /// open + 16 reads + open + 4 reads.
    pub cache_cycles: usize,
    /// `cache_share`: writes by the one writer.
    pub cache_writes: usize,
    /// `storm`: booting workstations.
    pub storm_clients: usize,
}

impl Scale {
    /// The benchmark's counts.
    pub const FULL: Scale = Scale {
        exchange_ops: 400_000,
        page_ops: 100_000,
        lossy_ops: 20_000,
        capacity_ops: 2_500,
        cache_cycles: 2_000,
        cache_writes: 4_000,
        storm_clients: 1_000,
    };

    /// A few thousand operations per workload, for the tests: enough
    /// writes everywhere for a p99 (1,000), and a storm `v-bench engine`
    /// also runs.
    pub const SMALL: Scale = Scale {
        exchange_ops: 2_000,
        page_ops: 1_000,
        lossy_ops: 1_200,
        capacity_ops: 700,
        cache_cycles: 50,
        cache_writes: 1_000,
        storm_clients: 64,
    };
}

/// What a client-visible operation was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// 32-byte Send-Receive-Reply.
    Exchange,
    /// Broadcast `GetPid` resolution of a server.
    Resolve,
    /// Open by name.
    Open,
    /// 512-byte page read (a cache hit or a remote read).
    Read,
    /// 512-byte page write.
    Write,
    /// Multi-block read the server pushes with `MoveTo`.
    ReadLarge,
    /// One workstation's whole boot: resolve + open + header + image.
    Boot,
}

impl Op {
    /// The name used in trace files.
    pub fn name(self) -> &'static str {
        match self {
            Op::Exchange => "exchange",
            Op::Resolve => "resolve",
            Op::Open => "open",
            Op::Read => "read",
            Op::Write => "write",
            Op::ReadLarge => "read_large",
            Op::Boot => "boot",
        }
    }

    fn of(call: &FsCall) -> Op {
        match call {
            FsCall::Open(_) | FsCall::Create(..) | FsCall::QueryExpect(_) => Op::Open,
            FsCall::ReadExpect { .. } | FsCall::ReadAny { .. } => Op::Read,
            FsCall::WriteFill { .. } => Op::Write,
            FsCall::ReadLargeExpect { .. } => Op::ReadLarge,
        }
    }
}

/// What one client is expected to do, in blocking kernel calls.
#[derive(Debug, Clone, Copy)]
pub struct ClientPlan {
    /// Leading `GetPid` resolutions.
    pub resolves: usize,
    /// Calls after them (script steps).
    pub calls: usize,
}

/// What one client reported when the run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientResult {
    /// Operations the inputs asked of it.
    pub attempted: u64,
    /// Protocol errors, integrity errors, and operations never reached
    /// because the script stopped early.
    pub failed: u64,
    /// `FsClientReport::write_retries`.
    pub write_retries: u64,
    /// `FsClientReport::stale_owner_forwards`.
    pub stale_owner_forwards: u64,
}

impl ClientResult {
    fn new(attempted: u64, completed: u64, errors: u64, done: bool) -> ClientResult {
        let unreached = if done {
            0
        } else {
            attempted.saturating_sub(completed + errors)
        };
        ClientResult {
            attempted,
            failed: (errors + unreached).min(attempted),
            write_retries: 0,
            stale_owner_forwards: 0,
        }
    }

    fn of_loop(n: u64, r: &RunReport) -> ClientResult {
        let errors = r.failures + r.integrity_errors;
        ClientResult::new(n, r.iterations, errors, r.finished.is_some())
    }

    fn of_script(resolves: usize, steps: usize, r: &FsClientReport) -> ClientResult {
        // A resolving client that never got past `GetPid` completed
        // nothing; one that did completed its resolutions too.
        let resolved = if r.completed > 0 || r.done {
            resolves as u64
        } else {
            0
        };
        ClientResult {
            write_retries: r.write_retries,
            stale_owner_forwards: r.stale_owner_forwards,
            ..ClientResult::new(
                (resolves + steps) as u64,
                resolved + r.completed,
                r.errors + r.integrity_errors,
                r.done,
            )
        }
    }
}

/// The parked server side of a deployment.
pub struct Servers {
    /// The pids clients address.
    pub pids: Vec<Pid>,
    /// The hosts servers run on; every other host is a client.
    pub hosts: Vec<HostId>,
    /// File-service handles (stats and disk), when the servers are `v-fs`.
    pub teams: Vec<FileServerTeam>,
}

/// What the run phase hands back.
pub struct RunOutcome {
    /// One entry per client, in spawn order.
    pub clients: Vec<ClientResult>,
    /// Client block caches, summed.
    pub cache: CacheStats,
}

/// One of the six workloads with its inputs already generated.
pub trait Workload {
    /// Its name.
    fn name(&self) -> &'static str;
    /// Hosts, network, faults. The build phase is `Cluster::new` of this.
    fn config(&self) -> ClusterConfig;
    /// Deploy phase: install stores, spawn servers, run until they park.
    fn deploy(&self, cl: &mut Cluster) -> Servers;
    /// Run phase: first client spawn to quiescence.
    fn run(&self, cl: &mut Cluster, servers: &Servers, wrap: &mut Wrap) -> RunOutcome;
    /// The calls each client makes, in spawn order.
    fn plan(&self) -> Vec<ClientPlan>;
    /// What `client`'s `index`-th call after its resolutions is.
    fn op(&self, client: usize, index: usize) -> Op;
    /// True when one operation is a client's whole life (`storm`), false
    /// when it is one blocking call.
    fn op_is_client(&self) -> bool {
        false
    }
    /// The 1983 rows this workload reproduces: operation, published
    /// milliseconds, where.
    fn paper_rows(&self) -> &'static [(Op, f64, &'static str)] {
        &[]
    }
    /// Checks that the mechanism the workload exists for actually fired;
    /// returns what did not.
    fn mechanism(&self, _t: &Totals) -> Vec<String> {
        Vec::new()
    }
}

/// Builds workload `name` with inputs generated from `seed`.
pub fn workload(name: &str, seed: u64, scale: Scale) -> Option<Box<dyn Workload>> {
    Some(match name {
        "exchange" => Box::new(Exchange {
            seed,
            n: scale.exchange_ops,
        }),
        "page_rw" => Box::new(PageRw {
            seed,
            n: scale.page_ops,
        }),
        "fs_lossy" => Box::new(FsLossy::new(seed, scale.lossy_ops)),
        "capacity" => Box::new(Capacity::new(seed, scale.capacity_ops)),
        "cache_share" => Box::new(CacheShare::new(
            seed,
            scale.cache_cycles,
            scale.cache_writes,
        )),
        "storm" => Box::new(Storm::new(seed, scale.storm_clients)),
        _ => return None,
    })
}

fn pair(seed: u64) -> ClusterConfig {
    ClusterConfig {
        seed,
        ..ClusterConfig::three_mb().with_hosts(2, CPU)
    }
}

// --- exchange ---------------------------------------------------------------

/// One `Pinger`/`EchoServer` pair on two hosts: the smallest message,
/// where per-packet cost is everything.
struct Exchange {
    seed: u64,
    n: u64,
}

impl Workload for Exchange {
    fn name(&self) -> &'static str {
        "exchange"
    }

    fn config(&self) -> ClusterConfig {
        pair(self.seed)
    }

    fn deploy(&self, cl: &mut Cluster) -> Servers {
        let server = cl.spawn(HostId(1), "echo", Box::new(EchoServer));
        cl.run();
        Servers {
            pids: vec![server],
            hosts: vec![HostId(1)],
            teams: Vec::new(),
        }
    }

    fn run(&self, cl: &mut Cluster, servers: &Servers, wrap: &mut Wrap) -> RunOutcome {
        let report = probe(RunReport::default());
        let pinger = Pinger::new(servers.pids[0], self.n, report.clone());
        cl.spawn(HostId(0), "pinger", wrap.client(pinger));
        cl.run();
        let r = report.borrow();
        RunOutcome {
            clients: vec![ClientResult::of_loop(self.n, &r)],
            cache: CacheStats::default(),
        }
    }

    fn plan(&self) -> Vec<ClientPlan> {
        vec![ClientPlan {
            resolves: 0,
            calls: self.n as usize,
        }]
    }

    fn op(&self, _client: usize, _index: usize) -> Op {
        Op::Exchange
    }

    fn paper_rows(&self) -> &'static [(Op, f64, &'static str)] {
        &[(Op::Exchange, 2.54, "Table 5-2, remote Send-Receive-Reply")]
    }
}

// --- page_rw ----------------------------------------------------------------

/// The Table 6-1 programs in segment mode: remote page reads, then remote
/// page writes, on the same pair of hosts.
struct PageRw {
    seed: u64,
    n: u64,
}

const PAGE_PATTERN: u8 = 0x7E;

impl Workload for PageRw {
    fn name(&self) -> &'static str {
        "page_rw"
    }

    fn config(&self) -> ClusterConfig {
        pair(self.seed)
    }

    fn deploy(&self, cl: &mut Cluster) -> Servers {
        let report = probe(RunReport::default());
        let server = PageServer::new(PageMode::Segment, BLOCK, PAGE_PATTERN, report);
        let pid = cl.spawn(HostId(1), "pageserver", Box::new(server));
        cl.run();
        Servers {
            pids: vec![pid],
            hosts: vec![HostId(1)],
            teams: Vec::new(),
        }
    }

    fn run(&self, cl: &mut Cluster, servers: &Servers, wrap: &mut Wrap) -> RunOutcome {
        let clients = [PageOp::Read, PageOp::Write]
            .into_iter()
            .map(|op| {
                let report = probe(RunReport::default());
                let client = PageClient::new(
                    servers.pids[0],
                    op,
                    BLOCK,
                    self.n,
                    PAGE_PATTERN,
                    report.clone(),
                );
                cl.spawn(HostId(0), "pageclient", wrap.client(client));
                cl.run();
                let r = report.borrow();
                ClientResult::of_loop(self.n, &r)
            })
            .collect();
        RunOutcome {
            clients,
            cache: CacheStats::default(),
        }
    }

    fn plan(&self) -> Vec<ClientPlan> {
        vec![
            ClientPlan {
                resolves: 0,
                calls: self.n as usize,
            };
            2
        ]
    }

    fn op(&self, client: usize, _index: usize) -> Op {
        if client == 0 {
            Op::Read
        } else {
            Op::Write
        }
    }

    fn paper_rows(&self) -> &'static [(Op, f64, &'static str)] {
        &[
            (Op::Read, 5.56, "Table 6-1, remote page read"),
            (Op::Write, 5.60, "Table 6-1, remote page write"),
        ]
    }
}

// --- seeded scripts ---------------------------------------------------------

/// Bytes of one `ReadLargeExpect` in `capacity` (the `MoveTo` path).
const LARGE_BYTES: u32 = 16 * 1024;
/// Fill of the never-written tail that large reads cover.
const TAIL_FILL: u8 = 0xB7;

fn nonzero_fill(rng: &mut SplitMix64) -> u8 {
    // Clients zero their buffer before a read, so a zero fill would
    // verify vacuously.
    1 + rng.below(255) as u8
}

/// Open `name`, then exactly `reads` page reads, `writes` page writes and
/// `larges` large reads in seeded order over a private file of `blocks`
/// read/write blocks (initially `fill0`) followed by a read-only tail.
/// Reads expect whatever the script itself last wrote to the block.
fn private_file_script(
    rng: &mut SplitMix64,
    name: &str,
    blocks: u32,
    fill0: u8,
    [reads, writes, larges]: [usize; 3],
) -> Vec<FsCall> {
    let mut kinds = [
        vec![Op::Read; reads],
        vec![Op::Write; writes],
        vec![Op::ReadLarge; larges],
    ]
    .concat();
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut fills = vec![fill0; blocks as usize];
    let mut script = vec![FsCall::Open(name.to_string())];
    script.extend(kinds.into_iter().map(|kind| {
        let block = rng.below(blocks as u64) as u32;
        match kind {
            Op::Write => {
                let fill = nonzero_fill(rng);
                fills[block as usize] = fill;
                FsCall::WriteFill {
                    block,
                    count: BLOCK,
                    fill,
                }
            }
            Op::ReadLarge => FsCall::ReadLargeExpect {
                block: blocks,
                count: LARGE_BYTES,
                expect: TAIL_FILL,
            },
            _ => FsCall::ReadExpect {
                block,
                count: BLOCK,
                expect: fills[block as usize],
            },
        }
    }));
    script
}

fn private_file(blocks: u32, fill0: u8, tail_bytes: u32) -> Vec<u8> {
    let mut data = vec![fill0; (blocks * BLOCK) as usize];
    data.resize(data.len() + tail_bytes as usize, TAIL_FILL);
    data
}

fn fs_report() -> Rc<RefCell<FsClientReport>> {
    Rc::new(RefCell::new(FsClientReport::default()))
}

fn script_plans(resolves: usize, scripts: &[Vec<FsCall>]) -> Vec<ClientPlan> {
    scripts
        .iter()
        .map(|s| ClientPlan {
            resolves,
            calls: s.len(),
        })
        .collect()
}

// --- fs_lossy ---------------------------------------------------------------

/// One sequential file server and four clients on a lossy, duplicating,
/// corrupting wire: retransmission, duplicate filtering, reply caching and
/// checksum drops do their work here and nowhere else.
struct FsLossy {
    seed: u64,
    scripts: Vec<Vec<FsCall>>,
}

const LOSSY_CLIENTS: usize = 4;
const PRIVATE_BLOCKS: u32 = 32;

impl FsLossy {
    fn new(seed: u64, ops: usize) -> FsLossy {
        let mut rng = SplitMix64::new(seed);
        let scripts = (0..LOSSY_CLIENTS)
            .map(|c| {
                private_file_script(
                    &mut rng.fork(c as u64),
                    &format!("private{c}"),
                    PRIVATE_BLOCKS,
                    0x11 + c as u8,
                    [ops * 3 / 4, ops / 4, 0],
                )
            })
            .collect();
        FsLossy { seed, scripts }
    }
}

impl Workload for FsLossy {
    fn name(&self) -> &'static str {
        "fs_lossy"
    }

    fn config(&self) -> ClusterConfig {
        ClusterConfig {
            seed: self.seed,
            faults: FaultPlan {
                loss: 0.01,
                duplicate: 0.005,
                corrupt: 0.005,
            },
            ..ClusterConfig::three_mb().with_hosts(1 + LOSSY_CLIENTS, CPU)
        }
    }

    fn deploy(&self, cl: &mut Cluster) -> Servers {
        let mut store = BlockStore::new();
        for c in 0..LOSSY_CLIENTS {
            store
                .create_with(
                    &format!("private{c}"),
                    &private_file(PRIVATE_BLOCKS, 0x11 + c as u8, 0),
                )
                .expect("fresh store");
        }
        let cfg = FileServerConfig {
            disk: DiskModel::fixed(SimDuration::from_millis(2)),
            read_ahead: false,
            workers: 1,
            ..FileServerConfig::default()
        };
        let team = spawn_file_server(cl, HostId(0), cfg, store);
        cl.run();
        Servers {
            pids: vec![team.server],
            hosts: vec![HostId(0)],
            teams: vec![team],
        }
    }

    fn run(&self, cl: &mut Cluster, servers: &Servers, wrap: &mut Wrap) -> RunOutcome {
        let reports: Vec<_> = self
            .scripts
            .iter()
            .enumerate()
            .map(|(c, script)| {
                let report = fs_report();
                let client = FsClient::new(servers.pids[0], script.clone(), report.clone());
                cl.spawn(HostId(1 + c), "fsclient", wrap.client(client));
                report
            })
            .collect();
        cl.run();
        script_outcome(0, &self.scripts, &reports, CacheStats::default())
    }

    fn plan(&self) -> Vec<ClientPlan> {
        script_plans(0, &self.scripts)
    }

    fn op(&self, client: usize, index: usize) -> Op {
        Op::of(&self.scripts[client][index])
    }

    fn mechanism(&self, t: &Totals) -> Vec<String> {
        let mut missing = Vec::new();
        if t.kernel.retransmissions == 0 {
            missing.push("no Send was retransmitted".to_string());
        }
        if t.medium.dropped == 0 {
            missing.push("the wire dropped no frame".to_string());
        }
        missing
    }
}

fn script_outcome(
    resolves: usize,
    scripts: &[Vec<FsCall>],
    reports: &[Rc<RefCell<FsClientReport>>],
    cache: CacheStats,
) -> RunOutcome {
    RunOutcome {
        clients: scripts
            .iter()
            .zip(reports)
            .map(|(s, r)| ClientResult::of_script(resolves, s.len(), &r.borrow()))
            .collect(),
        cache,
    }
}

// --- capacity ---------------------------------------------------------------

/// The section 7 question on the real stack: how much load do two
/// four-worker file servers with two-arm disks carry for sixteen diskless
/// clients that never think?
struct Capacity {
    seed: u64,
    names: Vec<String>,
    scripts: Vec<Vec<FsCall>>,
}

const CAPACITY_SHARDS: usize = 2;
const CAPACITY_CLIENTS: usize = 16;

impl Capacity {
    fn new(seed: u64, ops: usize) -> Capacity {
        let map = ShardMap::new(CAPACITY_SHARDS);
        let mut rng = SplitMix64::new(seed);
        let names: Vec<String> = (0..CAPACITY_CLIENTS)
            .map(|c| map.name_for_shard(c % CAPACITY_SHARDS, &format!("home{c}")))
            .collect();
        let large = ops / 10;
        let scripts = names
            .iter()
            .enumerate()
            .map(|(c, name)| {
                private_file_script(
                    &mut rng.fork(c as u64),
                    name,
                    PRIVATE_BLOCKS,
                    0x21 + c as u8,
                    [ops - 2 * large, large, large],
                )
            })
            .collect();
        Capacity {
            seed,
            names,
            scripts,
        }
    }
}

impl Workload for Capacity {
    fn name(&self) -> &'static str {
        "capacity"
    }

    fn config(&self) -> ClusterConfig {
        ClusterConfig {
            seed: self.seed,
            ..ClusterConfig::three_mb().with_hosts(CAPACITY_SHARDS + CAPACITY_CLIENTS, CPU)
        }
    }

    fn deploy(&self, cl: &mut Cluster) -> Servers {
        let map = ShardMap::new(CAPACITY_SHARDS);
        let teams: Vec<FileServerTeam> = (0..CAPACITY_SHARDS)
            .map(|s| {
                let mut store = BlockStore::with_id_base(map.id_base(s));
                for (c, name) in self.names.iter().enumerate() {
                    if c % CAPACITY_SHARDS == s {
                        store
                            .create_with(
                                name,
                                &private_file(PRIVATE_BLOCKS, 0x21 + c as u8, LARGE_BYTES),
                            )
                            .expect("fresh store");
                    }
                }
                // `spawn_shard_server` is exactly this call; it returns only
                // the pid, and the stats handles are wanted here.
                let cfg = FileServerConfig {
                    disk: DiskModel::fixed(SimDuration::from_millis(20))
                        .with_jitter(SimDuration::from_millis(5), self.seed ^ s as u64),
                    disk_arms: 2,
                    workers: 4,
                    register: Some(map.logical_id(s)),
                    ..FileServerConfig::default()
                };
                spawn_file_server(cl, HostId(s), cfg, store)
            })
            .collect();
        cl.run();
        Servers {
            pids: teams.iter().map(|t| t.server).collect(),
            hosts: (0..CAPACITY_SHARDS).map(HostId).collect(),
            teams,
        }
    }

    fn run(&self, cl: &mut Cluster, _servers: &Servers, wrap: &mut Wrap) -> RunOutcome {
        let reports: Vec<_> = self
            .scripts
            .iter()
            .enumerate()
            .map(|(c, script)| {
                let report = fs_report();
                let client =
                    ShardedFsClient::resolving(CAPACITY_SHARDS, script.clone(), report.clone());
                cl.spawn(
                    HostId(CAPACITY_SHARDS + c),
                    "shardclient",
                    wrap.client(client),
                );
                report
            })
            .collect();
        cl.run();
        script_outcome(
            CAPACITY_SHARDS,
            &self.scripts,
            &reports,
            CacheStats::default(),
        )
    }

    fn plan(&self) -> Vec<ClientPlan> {
        script_plans(CAPACITY_SHARDS, &self.scripts)
    }

    fn op(&self, client: usize, index: usize) -> Op {
        Op::of(&self.scripts[client][index])
    }

    fn mechanism(&self, t: &Totals) -> Vec<String> {
        let mut missing = Vec::new();
        if t.fs.forwarded == 0 {
            missing.push("no receptionist forwarded a request".to_string());
        }
        if t.disk.max_queue_depth <= 1 {
            missing.push("no request ever queued at a disk arm".to_string());
        }
        missing
    }
}

// --- cache_share ------------------------------------------------------------

/// Eight caching readers and one writer on a write-invalidate server:
/// reads are mostly hits that never touch the wire, and every write pays
/// a callback per holder.
struct CacheShare {
    seed: u64,
    /// The readers' scripts, then the writer's.
    scripts: Vec<Vec<FsCall>>,
}

const READERS: usize = 8;
const CACHE_BLOCKS: usize = 64;
const MOSTLY_READ: (&str, u32, u8) = ("readmostly", 32, 0xA5);
const SHARED: (&str, u32, u8) = ("shared", 8, 0x5A);
/// Reads per cycle from the read-mostly file, then from the shared one:
/// the 80 % / 20 % split, in bursts because a client works one open file
/// at a time.
const BURSTS: (usize, usize) = (16, 4);

impl CacheShare {
    fn new(seed: u64, cycles: usize, writes: usize) -> CacheShare {
        let mut master = SplitMix64::new(seed);
        let mut scripts: Vec<Vec<FsCall>> = (0..READERS)
            .map(|r| {
                let mut rng = master.fork(r as u64);
                let mut script = Vec::with_capacity(cycles * (BURSTS.0 + BURSTS.1 + 2));
                for _ in 0..cycles {
                    script.push(FsCall::Open(MOSTLY_READ.0.to_string()));
                    script.extend((0..BURSTS.0).map(|_| FsCall::ReadExpect {
                        block: rng.below(MOSTLY_READ.1 as u64) as u32,
                        count: BLOCK,
                        expect: MOSTLY_READ.2,
                    }));
                    script.push(FsCall::Open(SHARED.0.to_string()));
                    // The writer races these reads: old or new fill are
                    // both legal answers.
                    script.extend((0..BURSTS.1).map(|_| FsCall::ReadAny {
                        block: rng.below(SHARED.1 as u64) as u32,
                        count: BLOCK,
                    }));
                }
                script
            })
            .collect();
        let mut rng = master.fork(READERS as u64);
        let mut writer = vec![FsCall::Open(SHARED.0.to_string())];
        writer.extend((0..writes).map(|_| FsCall::WriteFill {
            block: rng.below(SHARED.1 as u64) as u32,
            count: BLOCK,
            fill: nonzero_fill(&mut rng),
        }));
        scripts.push(writer);
        CacheShare { seed, scripts }
    }
}

impl Workload for CacheShare {
    fn name(&self) -> &'static str {
        "cache_share"
    }

    fn config(&self) -> ClusterConfig {
        ClusterConfig {
            seed: self.seed,
            ..ClusterConfig::three_mb().with_hosts(1 + READERS + 1, CPU)
        }
    }

    fn deploy(&self, cl: &mut Cluster) -> Servers {
        let mut store = BlockStore::new();
        for (name, blocks, fill) in [MOSTLY_READ, SHARED] {
            store
                .create_with(name, &private_file(blocks, fill, 0))
                .expect("fresh store");
        }
        let cfg = FileServerConfig {
            disk: DiskModel::fixed(SimDuration::from_millis(15)),
            workers: 1,
            cache_mode: CacheMode::WriteInvalidate,
            ..FileServerConfig::default()
        };
        let team = spawn_file_server(cl, HostId(0), cfg, store);
        cl.run();
        Servers {
            pids: vec![team.server],
            hosts: vec![HostId(0)],
            teams: vec![team],
        }
    }

    fn run(&self, cl: &mut Cluster, servers: &Servers, wrap: &mut Wrap) -> RunOutcome {
        let server = servers.pids[0];
        let mut caches = Vec::new();
        let mut reports = Vec::new();
        let (writer, readers) = self.scripts.split_last().expect("a writer");
        for (r, script) in readers.iter().enumerate() {
            let host = HostId(1 + r);
            let cache = Rc::new(RefCell::new(BlockCache::new(CACHE_BLOCKS)));
            let agent = cl.spawn(
                host,
                "cache-agent",
                Box::new(CacheAgent::new(cache.clone())),
            );
            let layer = CacheLayer::new(cache.clone(), agent, CacheConfig::default_hit_cpu());
            let report = fs_report();
            let client = FsClient::new(server, script.clone(), report.clone()).with_cache(layer);
            cl.spawn(host, "reader", wrap.client(client));
            caches.push(cache);
            reports.push(report);
        }
        let report = fs_report();
        let writer = FsClient::new(server, writer.clone(), report.clone());
        cl.spawn(HostId(1 + READERS), "writer", wrap.client(writer));
        reports.push(report);
        cl.run();

        let mut cache = CacheStats::default();
        for c in &caches {
            let s = c.borrow().stats;
            cache.hits += s.hits;
            cache.misses += s.misses;
            cache.evictions += s.evictions;
            cache.callbacks += s.callbacks;
        }
        script_outcome(0, &self.scripts, &reports, cache)
    }

    fn plan(&self) -> Vec<ClientPlan> {
        script_plans(0, &self.scripts)
    }

    fn op(&self, client: usize, index: usize) -> Op {
        Op::of(&self.scripts[client][index])
    }

    fn mechanism(&self, t: &Totals) -> Vec<String> {
        let mut missing = Vec::new();
        if t.cache.hits <= t.cache.misses {
            missing.push(format!(
                "cache hit rate {:.1} % is not above 50 %",
                t.cache.hit_rate()
            ));
        }
        if t.fs.invalidations == 0 {
            missing.push("no write invalidated a holder".to_string());
        }
        missing
    }
}

// --- storm ------------------------------------------------------------------

/// The boot storm of `v_workloads::boot::run_boot_storm`, deployed here
/// from the same public pieces so each booting workstation can be wrapped:
/// `BootStormConfig::new(n)` is one shard per ~64 clients on a star mesh,
/// 64-host waves 10 ms apart, an 8 KiB image and two-arm 2 ms disks.
/// `tests/transparency.rs` holds this deployment event-identical to
/// `run_boot_storm`.
struct Storm {
    seed: u64,
    clients: usize,
    shards: usize,
    names: Vec<String>,
}

const STORM_IMAGE_BYTES: u32 = 8192;
const STORM_IMAGE_FILL: u8 = 0xB7;
const STORM_WAVE: usize = 64;
const STORM_WAVE_SPACING: SimDuration = SimDuration::from_millis(10);

impl Storm {
    fn new(seed: u64, clients: usize) -> Storm {
        let shards = (clients / 64).clamp(2, 16);
        let map = ShardMap::new(shards);
        Storm {
            seed,
            clients,
            shards,
            names: (0..shards)
                .map(|s| map.name_for_shard(s, "bootimage"))
                .collect(),
        }
    }
}

/// One booting workstation: broadcast-resolve the owning shard, then the
/// section 6.3 two-read load against it.
struct BootClient {
    logical_id: u32,
    name: String,
    report: Rc<RefCell<LoadReport>>,
    loader: Option<ProgramLoader>,
}

impl Program for BootClient {
    fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
        match (&mut self.loader, outcome) {
            (None, Outcome::Started) => api.get_pid(self.logical_id, Scope::Both),
            (None, Outcome::GetPid(Some(server))) => {
                let mut loader = ProgramLoader::new(server, self.name.clone(), self.report.clone());
                loader.resume(api, Outcome::Started);
                self.loader = Some(loader);
            }
            (None, _) => {
                self.report.borrow_mut().errors += 1;
                api.exit();
            }
            (Some(loader), outcome) => loader.resume(api, outcome),
        }
    }
}

impl Workload for Storm {
    fn name(&self) -> &'static str {
        "storm"
    }

    fn config(&self) -> ClusterConfig {
        let mut cfg = ClusterConfig::mesh(MeshConfig::star(self.shards));
        cfg.seed = self.seed;
        for s in 0..self.shards {
            cfg = cfg.with_host_on(CPU, s);
        }
        for j in 0..self.clients {
            cfg = cfg.with_host_on(CPU, j % self.shards);
        }
        cfg
    }

    fn deploy(&self, cl: &mut Cluster) -> Servers {
        let map = ShardMap::new(self.shards);
        // A replicated read-only root: one catalogue, cloned into every
        // shard, so file ids agree everywhere.
        let mut master = BlockStore::new();
        for name in &self.names {
            install_image(&mut master, name, STORM_IMAGE_BYTES, STORM_IMAGE_FILL);
        }
        let teams: Vec<FileServerTeam> = (0..self.shards)
            .map(|s| {
                let cfg = FileServerConfig {
                    disk: DiskModel::fixed(SimDuration::from_millis(2)),
                    disk_arms: 2,
                    transfer_unit: 4096,
                    register: Some(map.logical_id(s)),
                    ..FileServerConfig::default()
                };
                spawn_file_server(cl, HostId(s), cfg, master.clone())
            })
            .collect();
        cl.run();
        Servers {
            pids: teams.iter().map(|t| t.server).collect(),
            hosts: (0..self.shards).map(HostId).collect(),
            teams,
        }
    }

    fn run(&self, cl: &mut Cluster, _servers: &Servers, wrap: &mut Wrap) -> RunOutcome {
        let map = ShardMap::new(self.shards);
        let reports: Vec<Rc<RefCell<LoadReport>>> =
            (0..self.clients).map(|_| Default::default()).collect();
        for (wave, hosts) in reports.chunks(STORM_WAVE).enumerate() {
            if wave > 0 {
                let deadline = cl.now() + STORM_WAVE_SPACING;
                cl.run_until(deadline);
            }
            for (k, report) in hosts.iter().enumerate() {
                let j = wave * STORM_WAVE + k;
                let shard = j % self.shards;
                let client = BootClient {
                    logical_id: map.logical_id(shard),
                    name: self.names[shard].clone(),
                    report: report.clone(),
                    loader: None,
                };
                cl.spawn(HostId(self.shards + j), "bootclient", wrap.client(client));
            }
        }
        cl.run();
        RunOutcome {
            clients: reports
                .iter()
                .map(|r| {
                    let r = r.borrow();
                    let errors = r.errors + r.integrity_errors;
                    ClientResult::new(1, (r.loaded && errors == 0) as u64, errors, r.loaded)
                })
                .collect(),
            cache: CacheStats::default(),
        }
    }

    fn plan(&self) -> Vec<ClientPlan> {
        vec![
            ClientPlan {
                resolves: 1,
                calls: 3,
            };
            self.clients
        ]
    }

    fn op(&self, _client: usize, index: usize) -> Op {
        [Op::Open, Op::Read, Op::ReadLarge][index]
    }

    fn op_is_client(&self) -> bool {
        true
    }
}

// --- reading the stats structs ----------------------------------------------

/// Everything the crates' public stats say about a finished run.
#[derive(Debug, Clone)]
pub struct Totals {
    /// `Cluster::events_dispatched`.
    pub events_dispatched: u64,
    /// `Cluster::now` at quiescence.
    pub now: SimTime,
    /// Event-queue counters.
    pub sim: SimStats,
    /// The medium, summed over segments.
    pub medium: MediumStats,
    /// Gateways, summed (zeroes without any).
    pub gateways: GatewayStats,
    /// Network segments.
    pub segments: usize,
    /// Kernel counters, summed over hosts.
    pub kernel: KernelStats,
    /// Processor time charged on client hosts during the run phase.
    pub client_cpu: SimDuration,
    /// Processor time charged on server hosts during the run phase.
    pub server_cpu: SimDuration,
    /// Server hosts.
    pub server_hosts: usize,
    /// File-server counters, summed over servers (`parked_peak` is the
    /// largest).
    pub fs: FileServerStats,
    /// Disk counters, summed over servers and arms (`max_queue_depth` is
    /// the largest).
    pub disk: DiskStats,
    /// Disk arms over all servers.
    pub disk_arms: usize,
    /// Client caches, summed.
    pub cache: CacheStats,
}

/// Processor time charged so far on every host.
pub fn cpu_busy(cl: &Cluster) -> Vec<SimDuration> {
    (0..cl.num_hosts())
        .map(|h| cl.cpu_busy(HostId(h)))
        .collect()
}

macro_rules! sum_fields {
    ($into:expr, $from:expr, $($field:ident),+ $(,)?) => {
        $( $into.$field += $from.$field; )+
    };
}

/// Reads every stats struct after the run phase. `cpu_before` is
/// [`cpu_busy`] taken between deploy and run.
pub fn totals(
    cl: &Cluster,
    servers: &Servers,
    cpu_before: &[SimDuration],
    cache: CacheStats,
) -> Totals {
    let mut kernel = KernelStats::default();
    let mut client_cpu = SimDuration::ZERO;
    let mut server_cpu = SimDuration::ZERO;
    for (h, before) in cpu_before.iter().enumerate() {
        let k = cl.kernel_stats(HostId(h));
        sum_fields!(
            kernel,
            k,
            sends_local,
            sends_remote,
            retransmissions,
            send_timeouts,
            reply_pending_sent,
            duplicates_filtered,
            replies_retransmitted,
            forwards,
            aliens_exhausted,
            checksum_drops,
            chunks_sent,
            transfer_resumes,
            getpid_broadcasts,
            getpid_answers,
            processes_spawned,
            processes_exited,
        );
        let used = cl.cpu_busy(HostId(h)).saturating_sub(*before);
        if servers.hosts.contains(&HostId(h)) {
            server_cpu += used;
        } else {
            client_cpu += used;
        }
    }

    let mut fs = FileServerStats::default();
    let mut disk = DiskStats::default();
    let mut disk_arms = 0;
    for team in &servers.teams {
        let s = team.stats.borrow();
        sum_fields!(
            fs,
            s,
            reads,
            writes,
            large_reads,
            errors,
            forwarded,
            readahead_hits,
            invalidations,
            invalidation_failures,
        );
        fs.parked_peak = fs.parked_peak.max(s.parked_peak);
        let unit = team.disk.borrow();
        disk.absorb(&unit.stats());
        disk_arms += unit.arms();
    }

    Totals {
        events_dispatched: cl.events_dispatched(),
        now: cl.now(),
        sim: cl.sim_stats(),
        medium: cl.medium_stats(),
        gateways: cl.gateway_stats_total().unwrap_or_default(),
        segments: cl.config().num_segments(),
        kernel,
        client_cpu,
        server_cpu,
        server_hosts: servers.hosts.len(),
        fs,
        disk,
        disk_arms,
        cache,
    }
}
