//! Client-side helpers for the I/O protocol.
//!
//! Application processes access system services "through stub routines
//! that provide a procedural interface to the message primitives" (§3.4).
//! [`stub`] builds correctly-flagged request messages; [`FsClient`] is a
//! ready-made process that runs a script of file operations and verifies
//! the results. There is one such client whatever stands behind the
//! server pid: the script cursor, the cache hit path, the reply check,
//! the retry-after backoff and the bounded failover are written once,
//! and a private `Route` holds the only thing deployments differ in —
//! where the next request goes and what to do when that host is dead
//! (one server, name-hash shards, or a rotation of read-only replicas).

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use v_kernel::{naming::Scope, Access, Api, Message, Outcome, Pid, Program};
use v_sim::{SimDuration, SimTime};

use crate::cache::CacheLayer;
use crate::proto::{IoOp, IoReply, IoRequest, IoStatus, CACHE_DENY};
use crate::shard::{ShardMap, ShardOverlay};
use crate::store::FileId;
use crate::BLOCK_SIZE;

/// Stub routines: build request messages with the right segment grants.
pub mod stub {
    use super::*;

    /// Open-by-name: the name lives at `name_addr`/`name_len` in the
    /// client's space; read access is granted so it rides the request.
    pub fn open(name_addr: u32, name_len: u32, tag: u16) -> Message {
        IoRequest::new(IoOp::Open, FileId(0), tag).encode_granting(
            name_addr,
            name_len,
            Access::Read,
        )
    }

    /// Create a file of `size` bytes.
    pub fn create(name_addr: u32, name_len: u32, size: u32, tag: u16) -> Message {
        let req = IoRequest {
            aux: size,
            ..IoRequest::new(IoOp::Create, FileId(0), tag)
        };
        req.encode_granting(name_addr, name_len, Access::Read)
    }

    /// A one-block transfer between `block` and the client's `buffer`.
    fn block_io(
        op: IoOp,
        file: FileId,
        block: u32,
        count: u32,
        buffer: u32,
        aux: u32,
        tag: u16,
    ) -> IoRequest {
        IoRequest {
            block,
            count,
            buffer,
            aux,
            ..IoRequest::new(op, file, tag)
        }
    }

    /// Read one block into the buffer at `buffer` (write access granted
    /// so the server's `ReplyWithSegment`/`MoveTo` may deposit there).
    pub fn read(file: FileId, block: u32, count: u32, buffer: u32, tag: u16) -> Message {
        block_io(IoOp::Read, file, block, count, buffer, 0, tag).encode_granting(
            buffer,
            count,
            Access::Write,
        )
    }

    /// Cached read: like [`read`] but announces the client's cache
    /// agent (`agent` = its pid) so the server registers the holder
    /// and answers with a cacheability grant.
    pub fn read_cached(
        file: FileId,
        block: u32,
        count: u32,
        buffer: u32,
        agent: u32,
        tag: u16,
    ) -> Message {
        block_io(IoOp::ReadCached, file, block, count, buffer, agent, tag).encode_granting(
            buffer,
            count,
            Access::Write,
        )
    }

    /// Write one block from the buffer at `buffer` (read access granted;
    /// the kernel appends the first part to the request packet).
    /// `agent` names the writer's own cache agent (0 for uncached
    /// writers) so the server skips it during invalidation.
    pub fn write(
        file: FileId,
        block: u32,
        count: u32,
        buffer: u32,
        agent: u32,
        tag: u16,
    ) -> Message {
        block_io(IoOp::Write, file, block, count, buffer, agent, tag).encode_granting(
            buffer,
            count,
            Access::Read,
        )
    }

    /// Query a file's length.
    pub fn query(file: FileId, tag: u16) -> Message {
        IoRequest::new(IoOp::Query, file, tag).encode()
    }

    /// Large read of `count` bytes starting at block `block` into
    /// `buffer` (the server pushes with `MoveTo`s).
    pub fn read_large(file: FileId, block: u32, count: u32, buffer: u32, tag: u16) -> Message {
        block_io(IoOp::ReadLarge, file, block, count, buffer, 0, tag).encode_granting(
            buffer,
            count,
            Access::Write,
        )
    }
}

/// One step of an [`FsClient`] script.
#[derive(Debug, Clone)]
pub enum FsCall {
    /// Open by name; remembers the returned file id.
    Open(String),
    /// Create a file of the given size; remembers the id.
    Create(String, u32),
    /// Read `count` bytes of `block` into the client buffer and check
    /// every byte equals the expectation.
    ReadExpect {
        /// Block index.
        block: u32,
        /// Byte count.
        count: u32,
        /// Expected fill byte.
        expect: u8,
    },
    /// Fill the client buffer with a byte and write it to `block`.
    WriteFill {
        /// Block index.
        block: u32,
        /// Byte count.
        count: u32,
        /// Fill byte.
        fill: u8,
    },
    /// Read `count` bytes of `block` without checking the contents —
    /// used by consistency tests that race readers against writers,
    /// where either the old or the new fill is a legal answer.
    ReadAny {
        /// Block index.
        block: u32,
        /// Byte count.
        count: u32,
    },
    /// Query the file length and check it.
    QueryExpect(u32),
    /// Large read into the buffer plus a fill check.
    ReadLargeExpect {
        /// Starting block.
        block: u32,
        /// Byte count.
        count: u32,
        /// Expected fill byte.
        expect: u8,
    },
}

/// One [`FsCall`] as the client replays it: 12 bytes, where a call is 32
/// and an open's name a heap `String` besides. An open or create holds
/// its name's index into the client's name table in `block`; a create's
/// size and a query's expected length sit in `count`.
#[derive(Clone, Copy)]
pub(crate) struct Step {
    pub(crate) op: IoOp,
    /// A write's fill or the byte a read expects (`None`: checks nothing).
    pub(crate) byte: Option<u8>,
    pub(crate) block: u32,
    pub(crate) count: u32,
}

const _: () = assert!(std::mem::size_of::<Step>() <= 12);

impl Step {
    /// The name an open or create sends, from the client's table.
    fn name(self, names: &[String]) -> Option<&str> {
        let named = matches!(self.op, IoOp::Open | IoOp::Create);
        named.then(|| names[self.block as usize].as_str())
    }
}

/// Compiles a script — the one place [`FsCall`] is matched — into steps
/// and a table holding each name once (a script names a handful of
/// files, so a scan finds it). The steps go to a fresh `Vec` of exact
/// size, never in place into the script's 32-byte-a-call buffer.
fn compile(script: Vec<FsCall>) -> (Vec<Step>, Vec<String>) {
    let (mut steps, mut names) = (Vec::with_capacity(script.len()), Vec::<String>::new());
    let mut intern = |name: String| {
        let i = names.iter().position(|n| *n == name).unwrap_or(names.len());
        if i == names.len() {
            names.push(name);
        }
        i as u32
    };
    for call in script {
        let (op, byte, block, count) = match call {
            FsCall::Open(name) => (IoOp::Open, None, intern(name), 0),
            FsCall::Create(name, size) => (IoOp::Create, None, intern(name), size),
            FsCall::ReadExpect {
                block,
                count,
                expect,
            } => (IoOp::Read, Some(expect), block, count),
            FsCall::ReadAny { block, count } => (IoOp::Read, None, block, count),
            FsCall::WriteFill { block, count, fill } => (IoOp::Write, Some(fill), block, count),
            FsCall::QueryExpect(len) => (IoOp::Query, None, 0, len),
            FsCall::ReadLargeExpect {
                block,
                count,
                expect,
            } => (IoOp::ReadLarge, Some(expect), block, count),
        };
        steps.push(Step {
            op,
            byte,
            block,
            count,
        });
    }
    (steps, names)
}

/// Outcome summary of an [`FsClient`] run, on any route.
#[derive(Debug, Clone, Default)]
pub struct FsClientReport {
    /// Steps completed successfully.
    pub completed: u64,
    /// Protocol errors (bad status).
    pub errors: u64,
    /// Data mismatches.
    pub integrity_errors: u64,
    /// True once the whole script finished.
    pub done: bool,
    /// Simulated milliseconds from the first issued operation to script
    /// completion (0 until `done`).
    pub elapsed_ms: f64,
    /// Replies stamped by a different service than the one targeted:
    /// the request chased a migrated file through a server-side
    /// `Forward`, and the owner cache was corrected on the spot
    /// (sharded route only; reconciles against the servers'
    /// [`crate::FileServerStats::moved_forwards`]).
    pub stale_owner_forwards: u64,
    /// Requests refused with retry-after (file draining for migration)
    /// and re-issued after a backoff — each such write still completes
    /// exactly once.
    pub write_retries: u64,
    /// `Send`s that failed because the targeted server's host was down
    /// (`HostDown` after the kernel's retransmission budget). On the
    /// shard and replica routes each one re-routes the same step — to
    /// the file's current owner, or to the next replica.
    pub failovers: u64,
    /// True when the route ran out of servers to try and the client
    /// abandoned the script (`done` stays false).
    pub gave_up: bool,
}

/// Every completed operation of one client as `(completed_at_ms,
/// latency_ms)` on the simulation clock, in script order — shared with
/// the caller that attached it ([`FsClient::with_op_series`]).
pub type OpSeries = Rc<RefCell<Vec<(f64, f64)>>>;

/// Client buffer locations.
const NAME_BUF: u32 = 0x0100;
pub(crate) const DATA_BUF: u32 = 0x20000;

/// First backoff before re-issuing a request refused with
/// [`IoStatus::RetryAfter`] — roughly one block copy of drain time; a
/// healthy migration only freezes a file for a handful of these. The
/// backoff doubles per refusal up to [`RETRY_BACKOFF_CAP_SHIFT`]
/// doublings, so a drain stuck behind the kernel's host-down detection
/// (seconds, not milliseconds, when the copy destination crashes
/// mid-pull) is ridden out rather than declared an error.
const RETRY_BACKOFF: SimDuration = SimDuration::from_millis(2);
/// Doublings of [`RETRY_BACKOFF`] before the backoff plateaus (2 ms →
/// 64 ms).
const RETRY_BACKOFF_CAP_SHIFT: u32 = 5;
/// Retries per step before the client gives up and counts an error.
/// With the plateaued backoff this spans several seconds — past the
/// worst-case abort latency — so a drain that outlives it is a stuck
/// migration, not back-pressure.
const MAX_RETRIES_PER_STEP: u32 = 64;

/// Builds and sends the request for one step to `server`, staging an
/// open's or create's `name`, or the data buffer, in the calling
/// process's space. `file` is the client's current file id. With a
/// `cache_agent` (its pid) reads go out as `ReadCached` and writes carry
/// it, so the server skips it during invalidation; `None` builds
/// byte-for-byte the messages the pre-cache client sent.
fn issue_call(
    api: &mut Api<'_>,
    step: Step,
    name: Option<&str>,
    file: FileId,
    tag: u16,
    server: Pid,
    cache_agent: Option<u32>,
) {
    let (block, count) = (step.block, step.count);
    if let Some(name) = name {
        api.mem_write(NAME_BUF, name.as_bytes()).expect("name fits");
    }
    let name_len = name.map_or(0, |n| n.len() as u32);
    let request = match step.op {
        IoOp::Open => stub::open(NAME_BUF, name_len, tag),
        IoOp::Create => stub::create(NAME_BUF, name_len, count, tag),
        IoOp::Read => {
            api.mem_fill(DATA_BUF, count as usize, 0x00).expect("fits");
            match cache_agent {
                Some(agent) => stub::read_cached(file, block, count, DATA_BUF, agent, tag),
                None => stub::read(file, block, count, DATA_BUF, tag),
            }
        }
        IoOp::Write => {
            let fill = step.byte.expect("a write has its fill");
            api.mem_fill(DATA_BUF, count as usize, fill).expect("fits");
            stub::write(file, block, count, DATA_BUF, cache_agent.unwrap_or(0), tag)
        }
        IoOp::Query => stub::query(file, tag),
        IoOp::ReadLarge => {
            api.mem_fill(DATA_BUF, count as usize, 0x00).expect("fits");
            stub::read_large(file, block, count, DATA_BUF, tag)
        }
        op => unreachable!("a script never sends {op:?}"),
    };
    api.send(request, server);
}

/// Verifies a reply against the step that produced it, updating the
/// report. Returns whether the step succeeded (an open or create then
/// adopts the reply's file id as the current file).
fn check_reply(api: &Api<'_>, step: Step, reply: &IoReply, rep: &mut FsClientReport) -> bool {
    if reply.status != IoStatus::Ok {
        rep.errors += 1;
        return false;
    }
    let intact = match (step.op, step.byte) {
        (IoOp::Query, _) => reply.value == step.count,
        (IoOp::Write, _) => reply.value == step.count.min(BLOCK_SIZE as u32),
        (IoOp::Read | IoOp::ReadLarge, Some(byte)) => api
            .mem_is_filled(DATA_BUF, step.count as usize, byte)
            .expect("fits"),
        _ => true,
    };
    if !intact {
        rep.integrity_errors += 1;
    }
    rep.completed += 1;
    true
}

/// Where the next request goes and what to do when that host is dead —
/// everything the deployments' clients differ in.
enum Route {
    /// One server. There is nowhere else to go: a failed `Send` ends
    /// the script.
    Single(Pid),
    /// A name-hash partition over several servers (see [`ShardRoute`]).
    Shards(ShardRoute),
    /// Identical read-only replicas. All traffic goes to `current`; when
    /// its host dies the client rotates to the next and re-issues the
    /// *same* step — replica stores are clones, so file ids stay valid
    /// and a re-issued read is idempotent by construction.
    Replicas { pids: Vec<Pid>, current: usize },
}

/// The sharded route: opens and creates go to the shard owning the
/// *name*, and the server that answered is cached per returned file id
/// so block reads and writes go straight to the right machine — the
/// resolve cost is paid once per file, not per page.
struct ShardRoute {
    map: ShardMap,
    /// Shard servers by index: supplied up front, or resolved one by
    /// one with `GetPid` before the script starts.
    servers: Vec<Pid>,
    /// Owning server per file id, filled from open/create replies and
    /// self-corrected from the `owner` stamp on forwarded replies.
    owner_of: HashMap<u16, Pid>,
    /// Server the in-flight request went to.
    target: Option<Pid>,
    /// Committed-migration placement overrides, shared with the
    /// rebalancer (see [`ShardOverlay`]).
    overlay: Option<Rc<RefCell<ShardOverlay>>>,
}

impl ShardRoute {
    fn overlaid(&self, find: impl FnOnce(&ShardOverlay) -> Option<Pid>) -> Option<Pid> {
        self.overlay.as_ref().and_then(|o| find(&o.borrow()))
    }
}

impl Route {
    /// The next shard logical id to resolve with broadcast `GetPid`
    /// before the script can start (`None`: every server is known).
    fn unresolved(&self) -> Option<u32> {
        match self {
            Route::Shards(s) if s.servers.len() < s.map.shards() => {
                Some(s.map.logical_id(s.servers.len()))
            }
            _ => None,
        }
    }

    /// The server a step goes to. On the sharded route a name goes to
    /// the overlay's owner, else its hash shard; a block operation to
    /// the cached owner, else the overlay (a committed migration the
    /// rebalancer recorded), else — when both are cold (an open failed,
    /// or a script skipped its open) — the shard the file id's range
    /// belongs to, so a bad script degrades to a server-side error,
    /// never a panic. Cached-owner-first keeps the non-migrating path
    /// bit-identical to the overlay-less client.
    fn target(&mut self, name: Option<&str>, file: FileId) -> Pid {
        match self {
            Route::Single(server) => *server,
            Route::Replicas { pids, current } => pids[*current],
            Route::Shards(s) => {
                let owner = match name {
                    Some(name) => s
                        .overlaid(|o| o.owner_of_name(name))
                        .unwrap_or_else(|| s.servers[s.map.shard_of_name(name)]),
                    None => (s.owner_of.get(&file.0).copied())
                        .or_else(|| s.overlaid(|o| o.owner_of_id(file)))
                        .unwrap_or_else(|| s.servers[s.map.shard_of_id(file)]),
                };
                s.target = Some(owner);
                owner
            }
        }
    }

    /// Learns placement from a checked reply (`named`: the step was an
    /// open or create, so the reply's file id is the one it opened;
    /// `file`: the current file). Returns true when the reply was
    /// stamped by a different service than the one targeted: the request chased a migrated file
    /// through a `Forward`, and the owner cache now points at the
    /// service that actually answered, so the next op skips the hop.
    fn learn(&mut self, named: bool, file: FileId, reply: &IoReply) -> bool {
        let Route::Shards(s) = self else {
            return false;
        };
        if named && reply.status == IoStatus::Ok {
            s.owner_of
                .insert(reply.file.0, s.target.expect("request in flight"));
        }
        match Pid::from_raw(reply.owner) {
            Some(actual) if s.target.is_some_and(|t| t != actual) => {
                let key = if named { reply.file } else { file };
                s.owner_of.insert(key.0, actual);
                true
            }
            _ => false,
        }
    }

    /// Consecutive dead-host `Send` failures at which the client gives
    /// up rather than cycle forever: the first on a single server,
    /// every shard or replica tried twice otherwise.
    fn failure_bound(&self) -> usize {
        match self {
            Route::Single(_) => 1,
            Route::Shards(s) => 2 * s.map.shards(),
            Route::Replicas { pids, .. } => 2 * pids.len(),
        }
    }

    /// The targeted host is down: aim the same step elsewhere. Shards
    /// drop the stale owner-cache entry, so the overlay (or the
    /// id-range fallback) routes the re-issue to the file's current
    /// owner; replicas rotate to the next one.
    fn fail_over(&mut self, file: FileId) {
        match self {
            Route::Single(_) => {}
            Route::Shards(s) => {
                s.owner_of.remove(&file.0);
            }
            Route::Replicas { pids, current } => *current = (*current + 1) % pids.len(),
        }
    }
}

/// The scripted file-service client, optionally carrying a block cache
/// (see [`crate::cache`]). The constructor picks the route:
/// [`FsClient::new`] one server, [`FsClient::sharded`] /
/// [`FsClient::resolving`] a name-hash partition,
/// [`FsClient::replicated`] a replica group.
pub struct FsClient {
    route: Route,
    /// The script as compiled by [`compile`]; `FsCall` is only its input.
    steps: Vec<Step>,
    names: Vec<String>,
    /// Shared results.
    pub report: Rc<RefCell<FsClientReport>>,
    step: usize,
    file: FileId,
    started: Option<SimTime>,
    /// When the current step was *first* issued: a re-issue after a
    /// backoff or a failover keeps it, so the wait shows up in the op
    /// series as the client actually experienced it.
    issued_at: SimTime,
    cache: Option<CacheLayer>,
    /// Length of the cache hit deposited in [`DATA_BUF`] whose CPU
    /// charge is running.
    pending_hit: Option<u32>,
    /// Retries already burned on the current step.
    retries_this_step: u32,
    /// Consecutive `Send` failures (dead-host failover bookkeeping).
    consecutive_failures: usize,
    op_series: Option<OpSeries>,
}

impl FsClient {
    fn on(route: Route, script: Vec<FsCall>, report: Rc<RefCell<FsClientReport>>) -> FsClient {
        let (steps, names) = compile(script);
        FsClient {
            route,
            steps,
            names,
            report,
            step: 0,
            file: FileId(0),
            started: None,
            issued_at: SimTime::ZERO,
            cache: None,
            pending_hit: None,
            retries_this_step: 0,
            consecutive_failures: 0,
            op_series: None,
        }
    }

    /// A client of one server (a sequential server or a team's
    /// receptionist).
    pub fn new(server: Pid, script: Vec<FsCall>, report: Rc<RefCell<FsClientReport>>) -> FsClient {
        FsClient::on(Route::Single(server), script, report)
    }

    fn on_shards(
        map: ShardMap,
        servers: Vec<Pid>,
        script: Vec<FsCall>,
        report: Rc<RefCell<FsClientReport>>,
    ) -> FsClient {
        let route = ShardRoute {
            map,
            servers,
            owner_of: HashMap::new(),
            target: None,
            overlay: None,
        };
        FsClient::on(Route::Shards(route), script, report)
    }

    /// A client of a sharded service with the shard servers' pids
    /// supplied directly (index = shard of a [`ShardMap`] that size).
    pub fn sharded(
        servers: Vec<Pid>,
        script: Vec<FsCall>,
        report: Rc<RefCell<FsClientReport>>,
    ) -> FsClient {
        assert!(!servers.is_empty(), "need at least one shard server");
        FsClient::on_shards(ShardMap::new(servers.len()), servers, script, report)
    }

    /// A client of a sharded service that first resolves all `shards`
    /// logical ids with broadcast `GetPid` (flooded mesh-wide on a
    /// multi-segment topology), shard 0 first, then runs the script.
    pub fn resolving(
        shards: usize,
        script: Vec<FsCall>,
        report: Rc<RefCell<FsClientReport>>,
    ) -> FsClient {
        FsClient::on_shards(ShardMap::new(shards), Vec::new(), script, report)
    }

    /// A client of a replica group ([`crate::replica`]): `replicas` are
    /// tried in order, starting at the first.
    pub fn replicated(
        replicas: Vec<Pid>,
        script: Vec<FsCall>,
        report: Rc<RefCell<FsClientReport>>,
    ) -> FsClient {
        assert!(!replicas.is_empty(), "need at least one replica");
        let route = Route::Replicas {
            pids: replicas,
            current: 0,
        };
        FsClient::on(route, script, report)
    }

    /// Attaches a block cache to the read path. Cached blocks are keyed
    /// by file id, which [`ShardMap::id_base`] keeps disjoint across
    /// shards and replica clones keep identical across replicas — one
    /// cache serves every route, and a cache warmed against one replica
    /// stays valid after failover.
    pub fn with_cache(mut self, layer: CacheLayer) -> FsClient {
        self.cache = Some(layer);
        self
    }

    /// Attaches the shared placement overlay to a sharded client:
    /// committed migrations are routed directly (no forwarding hop),
    /// and block operations can fail over to a file's new owner when
    /// the old one is dead.
    pub fn with_overlay(mut self, overlay: Rc<RefCell<ShardOverlay>>) -> FsClient {
        match &mut self.route {
            Route::Shards(s) => s.overlay = Some(overlay),
            _ => panic!("only the sharded route reads a placement overlay"),
        }
        self
    }

    /// Records every completed operation into `series` — the raw data
    /// the failover benchmark classifies into before / during / after
    /// the crash. Nothing is recorded without it.
    pub fn with_op_series(mut self, series: OpSeries) -> FsClient {
        self.op_series = Some(series);
        self
    }

    /// Resolves the next unknown shard server, or starts the script.
    fn start(&mut self, api: &mut Api<'_>) {
        match self.route.unresolved() {
            Some(logical_id) => api.get_pid(logical_id, Scope::Both),
            None => self.issue(api, true),
        }
    }

    /// Issues the current step. `fresh` is false on a re-issue (after a
    /// backoff or a failover): the step keeps its first issue time.
    fn issue(&mut self, api: &mut Api<'_>, fresh: bool) {
        let started = *self.started.get_or_insert(api.now());
        let Some(&step) = self.steps.get(self.step) else {
            let mut rep = self.report.borrow_mut();
            rep.done = true;
            rep.elapsed_ms = api.now().since(started).as_millis_f64();
            drop(rep);
            api.exit();
            return;
        };
        if fresh {
            self.issued_at = api.now();
        }
        let mut agent = None;
        if let Some(layer) = self.cache.as_mut() {
            if let Some(len) = layer.hit(api, step, self.file) {
                // A hit never touches the wire: no failover, no
                // detection budget — served even while servers die.
                self.pending_hit = Some(len);
                api.compute(layer.hit_cpu());
                return;
            }
            layer.on_issue(step, self.file);
            agent = Some(layer.agent_aux());
        }
        let name = step.name(&self.names);
        let server = self.route.target(name, self.file);
        issue_call(api, step, name, self.file, self.step as u16, server, agent);
    }

    fn check(&mut self, api: &mut Api<'_>, reply: IoReply) {
        let step = self.steps[self.step];
        let mut rep = self.report.borrow_mut();
        if let Some(series) = &self.op_series {
            let latency = api.now().since(self.issued_at).as_millis_f64();
            series
                .borrow_mut()
                .push((api.now().as_millis_f64(), latency));
        }
        let named = step.name(&self.names).is_some();
        if check_reply(api, step, &reply, &mut rep) && named {
            self.file = reply.file;
        }
        if self.route.learn(named, self.file, &reply) {
            rep.stale_owner_forwards += 1;
        }
        drop(rep);
        if let Some(layer) = self.cache.as_mut() {
            layer.install_reply(api, step, self.file, &reply);
        }
    }

    /// The current step is over (completed or counted as an error):
    /// move to the next.
    fn advance(&mut self, api: &mut Api<'_>) {
        self.retries_this_step = 0;
        self.step += 1;
        self.issue(api, true);
    }
}

impl Program for FsClient {
    fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
        match outcome {
            Outcome::Started => self.start(api),
            Outcome::GetPid(found) if self.route.unresolved().is_some() => match found {
                Some(pid) => {
                    if let Route::Shards(s) = &mut self.route {
                        s.servers.push(pid);
                    }
                    self.start(api);
                }
                None => {
                    self.report.borrow_mut().errors += 1;
                    api.exit();
                }
            },
            Outcome::Send(Ok(reply)) => {
                self.consecutive_failures = 0;
                let reply = IoReply::decode(&reply);
                if reply.status == IoStatus::RetryAfter {
                    // The file is draining for migration: back off and
                    // re-issue the same step. Not a failure — the op
                    // still completes exactly once, at whichever owner
                    // holds the file by then.
                    if self.retries_this_step < MAX_RETRIES_PER_STEP {
                        let shift = self.retries_this_step.min(RETRY_BACKOFF_CAP_SHIFT);
                        self.retries_this_step += 1;
                        self.report.borrow_mut().write_retries += 1;
                        api.delay(RETRY_BACKOFF * (1u64 << shift));
                        return;
                    }
                    // Stuck drain: record the failure and move on.
                    self.report.borrow_mut().errors += 1;
                } else {
                    self.check(api, reply);
                }
                self.advance(api);
            }
            Outcome::Send(Err(_)) => {
                // The targeted server's host is presumed down: count
                // it, and unless the route has run out of places to
                // try, aim the same step elsewhere and re-issue it.
                self.consecutive_failures += 1;
                let mut rep = self.report.borrow_mut();
                rep.failovers += 1;
                if self.consecutive_failures >= self.route.failure_bound() {
                    rep.gave_up = true;
                    rep.errors += 1;
                    drop(rep);
                    api.exit();
                    return;
                }
                drop(rep);
                self.route.fail_over(self.file);
                self.issue(api, false);
            }
            // The only delay a client asks for is a retry-after backoff.
            Outcome::Delay => self.issue(api, false),
            Outcome::Compute if self.pending_hit.is_some() => {
                // Complete the hit: the cached bytes already lie where
                // the remote path would have put them, so synthesize an
                // `Ok` reply (with a `CACHE_DENY` grant so it is not
                // re-installed) and hits and misses share one check path
                // — and a hit's latency, the per-hit CPU charge, lands in
                // the op series like any other op.
                self.consecutive_failures = 0;
                let reply = IoReply {
                    status: IoStatus::Ok,
                    file: self.file,
                    value: self.pending_hit.take().expect("hit in flight"),
                    aux: CACHE_DENY,
                    owner: 0,
                    tag: self.step as u16,
                };
                self.check(api, reply);
                self.advance(api);
            }
            _ => api.exit(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::FileServerConfig;
    use crate::store::BlockStore;
    use crate::team::spawn_file_server;
    use v_kernel::{Cluster, ClusterConfig, CpuSpeed, HostId};

    fn run_script(script: Vec<FsCall>) -> FsClientReport {
        run_script_on(&[0x7E; 4 * BLOCK_SIZE], script)
    }

    /// Runs `script` against a server whose file "boot" holds `data`.
    fn run_script_on(data: &[u8], script: Vec<FsCall>) -> FsClientReport {
        let cfg = ClusterConfig::three_mb().with_hosts(2, CpuSpeed::Mc68000At10MHz);
        let mut cl = Cluster::new(cfg);
        let mut store = BlockStore::new();
        store.create_with("boot", data).unwrap();
        let server = spawn_file_server(
            &mut cl,
            HostId(1),
            FileServerConfig {
                disk: crate::disk::DiskModel::fixed(SimDuration::from_millis(1)),
                ..FileServerConfig::default()
            },
            store,
        )
        .server;
        let rep = Rc::new(RefCell::new(FsClientReport::default()));
        cl.spawn(
            HostId(0),
            "fsclient",
            Box::new(FsClient::new(server, script, rep.clone())),
        );
        cl.run();
        let r = rep.borrow().clone();
        r
    }

    #[test]
    fn open_read_write_query_round_trip() {
        let rep = run_script(vec![
            FsCall::Open("boot".into()),
            FsCall::QueryExpect(4 * BLOCK_SIZE as u32),
            FsCall::ReadExpect {
                block: 2,
                count: BLOCK_SIZE as u32,
                expect: 0x7E,
            },
            FsCall::WriteFill {
                block: 1,
                count: BLOCK_SIZE as u32,
                fill: 0x99,
            },
            FsCall::ReadExpect {
                block: 1,
                count: BLOCK_SIZE as u32,
                expect: 0x99,
            },
        ]);
        assert!(rep.done, "{rep:?}");
        assert_eq!(rep.errors, 0);
        assert_eq!(rep.integrity_errors, 0);
        assert_eq!(rep.completed, 5);
    }

    #[test]
    fn create_then_large_read() {
        let rep = run_script(vec![
            FsCall::Open("boot".into()),
            FsCall::ReadLargeExpect {
                block: 0,
                count: 4 * BLOCK_SIZE as u32,
                expect: 0x7E,
            },
            FsCall::Create("new".into(), 1024),
            FsCall::QueryExpect(1024),
            FsCall::WriteFill {
                block: 0,
                count: 512,
                fill: 0x11,
            },
            FsCall::ReadExpect {
                block: 0,
                count: 512,
                expect: 0x11,
            },
        ]);
        assert!(rep.done, "{rep:?}");
        assert_eq!(rep.errors, 0);
        assert_eq!(rep.integrity_errors, 0);
    }

    #[test]
    fn one_wrong_byte_anywhere_in_a_read_is_one_integrity_error() {
        // The fill check compares 32 bytes at a time: the first and last
        // byte of a block, one inside a chunk, and one in the tail of a
        // read that does not end on a chunk.
        let short = 3 * 32 + 7;
        let cases = [
            (0, BLOCK_SIZE),
            (16 * 32 + 5, BLOCK_SIZE),
            (BLOCK_SIZE - 1, BLOCK_SIZE),
            (short - 3, short),
            (short - 1, short),
        ];
        for (wrong, count) in cases {
            let mut data = [0x7E; 2 * BLOCK_SIZE];
            data[wrong] = 0x7F;
            let read = |block| FsCall::ReadExpect {
                block,
                count: count as u32,
                expect: 0x7E,
            };
            let rep = run_script_on(&data, vec![FsCall::Open("boot".into()), read(0), read(1)]);
            assert!(rep.done && rep.errors == 0, "{rep:?}");
            assert_eq!(rep.completed, 3);
            assert_eq!(rep.integrity_errors, 1, "byte {wrong} of {count}: {rep:?}");
        }
        // A wrong byte just past a short read is not the read's business.
        let mut data = [0x7E; BLOCK_SIZE];
        data[short] = 0x7F;
        let read = FsCall::ReadExpect {
            block: 0,
            count: short as u32,
            expect: 0x7E,
        };
        let rep = run_script_on(&data, vec![FsCall::Open("boot".into()), read]);
        assert_eq!(rep.integrity_errors, 0, "{rep:?}");
    }

    #[test]
    fn open_missing_file_reports_error() {
        let rep = run_script(vec![FsCall::Open("missing".into())]);
        assert!(rep.done);
        assert_eq!(rep.errors, 1);
        assert_eq!(rep.completed, 0);
    }
}
