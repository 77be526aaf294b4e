//! The file-server process.
//!
//! One V process serving the Verex I/O protocol over V IPC:
//!
//! * page **reads** are `Receive` → disk → `ReplyWithSegment` (two
//!   packets on the wire, §3.4);
//! * page **writes** arrive with the data appended to the request
//!   (`ReceiveWithSegment`); any remainder beyond the appended prefix is
//!   pulled with `MoveFrom`;
//! * **large reads** (program loading) are pushed with `MoveTo`s of at
//!   most one transfer unit — the paper's VAX server used 4 KB;
//! * sequential reads trigger **read-ahead**: the next block is fetched
//!   from the disk model while the client digests the current one
//!   (Table 6-2's structure).
//!
//! The same state machine serves in two roles. Standalone (the paper's
//! single sequential server, [`FileServerConfig::workers`]` == 1`), it
//! receives requests directly from clients. As a **team worker** (see
//! [`crate::team`]), it receives requests *forwarded* by a receptionist,
//! replies directly to the client, and then sends an idle notification
//! back to the receptionist — the store, disk and stats are shared
//! across the whole team.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use v_kernel::{naming, Api, Message, Outcome, Pid, Program, Scope};
use v_sim::{SimDuration, SimTime};

use crate::cache::CacheMode;
use crate::disk::DiskModel;
use crate::proto::{IoOp, IoReply, IoRequest, IoStatus, CACHE_DENY, CACHE_UNTIL_INVALIDATED};
use crate::store::{BlockStore, FileId, StoreError};
use crate::BLOCK_SIZE;

/// Where request segments (names, write data) land in the server space.
pub const SRV_IN: u32 = 0x0400;
/// Staging buffer for outgoing data.
pub const SRV_OUT: u32 = 0x10000;

/// File-server configuration.
#[derive(Debug, Clone)]
pub struct FileServerConfig {
    /// The disk behind the store.
    pub disk: DiskModel,
    /// Independent disk arms blocks are striped over. `1` (the default)
    /// keeps `disk` exactly as given — bit-identical to the historical
    /// single-arm server. `>= 2` reshapes `disk` into a striped
    /// multi-arm unit at spawn time (see [`DiskModel::with_arms`]), so
    /// a worker team's concurrent requests overlap their seeks instead
    /// of queueing behind one arm. Threaded unchanged through the team,
    /// shard and replica builders, which all take this config.
    pub disk_arms: usize,
    /// `MoveTo`/`MoveFrom` chunking for large transfers.
    pub transfer_unit: u32,
    /// Prefetch the next sequential block after each read.
    pub read_ahead: bool,
    /// Register under this logical id at startup (scope `Both`).
    pub register: Option<u32>,
    /// Worker processes serving requests. `1` (the default) is the
    /// paper's sequential server — one process does everything, and the
    /// timing is bit-identical to the pre-team implementation. `>= 2`
    /// spawns a receptionist that `Forward`s each request to an idle
    /// worker, so one request's disk wait overlaps the next request's
    /// receive and file-system processing (see [`crate::team`]).
    pub workers: usize,
    /// Refuse mutating operations (`Create`, `Write`) with
    /// [`IoStatus::ReadOnly`]. Read-only replicas of the root file
    /// service (see [`crate::replica`]) set this so the replicas can
    /// never diverge: every copy serves the same immutable image.
    pub read_only: bool,
    /// Client-cache consistency scheme (see [`CacheMode`]). `Off` (the
    /// default) never registers holders, never calls anyone back, and
    /// answers `ReadCached` with a deny grant — the write path is
    /// bit-identical to the pre-cache server.
    pub cache_mode: CacheMode,
    /// Lease granted per cached read in [`CacheMode::Leases`]; writes
    /// wait out the longest unexpired lease (plus [`LEASE_GUARD`])
    /// instead of calling holders back.
    pub lease: SimDuration,
}

impl Default for FileServerConfig {
    fn default() -> Self {
        FileServerConfig {
            disk: DiskModel::fixed(SimDuration::from_millis(15)),
            disk_arms: 1,
            transfer_unit: 4096,
            read_ahead: true,
            register: Some(naming::logical::FILE_SERVER),
            workers: 1,
            read_only: false,
            cache_mode: CacheMode::Off,
            lease: SimDuration::from_millis(500),
        }
    }
}

/// Slack a lease-mode write waits beyond the last lease expiry: covers
/// the reply's flight time, during which the client's lease clock
/// (started when the grant *arrived*) still runs.
pub const LEASE_GUARD: SimDuration = SimDuration::from_millis(10);

impl FileServerConfig {
    /// File-system processing charged per request (the paper estimates
    /// 2.5 ms at 10 MHz for a local system, 3.5 ms from LOCUS for
    /// capacity planning).
    pub const FS_CPU: SimDuration = SimDuration::from_micros(2500);

    /// The disk unit a spawn actually installs: `disk` as given for
    /// `disk_arms <= 1`, reshaped to `disk_arms` striped arms otherwise.
    pub(crate) fn build_disk(&self) -> DiskModel {
        if self.disk_arms > 1 {
            self.disk.clone().with_arms(self.disk_arms)
        } else {
            self.disk.clone()
        }
    }
}

/// One file's heat row: lifetime totals and an exponentially decayed
/// score.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HeatEntry {
    /// The file.
    pub file: FileId,
    /// Lifetime reads (page + large + cached).
    pub reads: u64,
    /// Lifetime writes.
    pub writes: u64,
    /// Exponentially decayed operation count: `+1` per operation,
    /// multiplied by the decay factor at each sampling epoch. Recent
    /// traffic dominates; ancient traffic fades geometrically — the
    /// rebalancer ranks files by this, so a file that *was* hot last
    /// minute doesn't get migrated on stale evidence.
    pub score: f64,
}

/// Per-file read/write heat, kept sorted by file id — which files a
/// server actually serves, and how hot each one runs *now*. Lifetime
/// totals never decay (cachemix reporting); the [`HeatEntry::score`]
/// ages via [`FileHeat::decay`], which the rebalancer calls once per
/// sampling interval.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FileHeat {
    /// Rows sorted by file id.
    entries: Vec<HeatEntry>,
}

impl FileHeat {
    fn slot(&mut self, file: FileId) -> &mut HeatEntry {
        let idx = match self.entries.binary_search_by_key(&file.0, |e| e.file.0) {
            Ok(i) => i,
            Err(i) => {
                self.entries.insert(
                    i,
                    HeatEntry {
                        file,
                        ..HeatEntry::default()
                    },
                );
                i
            }
        };
        &mut self.entries[idx]
    }

    /// Counts one read (page or large) of `file`.
    pub fn bump_read(&mut self, file: FileId) {
        let s = self.slot(file);
        s.reads += 1;
        s.score += 1.0;
    }

    /// Counts one write of `file`.
    pub fn bump_write(&mut self, file: FileId) {
        let s = self.slot(file);
        s.writes += 1;
        s.score += 1.0;
    }

    /// Lifetime `(reads, writes)` served for `file`.
    pub fn of(&self, file: FileId) -> (u64, u64) {
        self.entry(file).map_or((0, 0), |e| (e.reads, e.writes))
    }

    /// The decayed score of `file` (0.0 when unknown).
    pub fn score_of(&self, file: FileId) -> f64 {
        self.entry(file).map_or(0.0, |e| e.score)
    }

    /// Sum of every file's decayed score — the load this server carries
    /// on the rebalancer's clock.
    pub fn total_score(&self) -> f64 {
        self.entries.iter().map(|e| e.score).sum()
    }

    fn entry(&self, file: FileId) -> Option<&HeatEntry> {
        self.entries
            .binary_search_by_key(&file.0, |e| e.file.0)
            .ok()
            .map(|i| &self.entries[i])
    }

    /// All rows, sorted by file id.
    pub fn entries(&self) -> &[HeatEntry] {
        &self.entries
    }

    /// The file with the most total operations (ties: lowest id).
    pub fn hottest(&self) -> Option<(FileId, u64)> {
        self.entries
            .iter()
            .map(|e| (e.file, e.reads + e.writes))
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0 .0.cmp(&a.0 .0)))
    }

    /// Ages every row by one sampling epoch: scores are multiplied by
    /// `factor` (half-life = `ln 2 / ln(1/factor)` epochs). Lifetime
    /// totals are untouched.
    pub fn decay(&mut self, factor: f64) {
        for e in &mut self.entries {
            e.score *= factor;
        }
    }

    /// Removes and returns `file`'s row — the releasing half of moving
    /// a file's heat along with its blocks during migration.
    pub fn take(&mut self, file: FileId) -> Option<HeatEntry> {
        match self.entries.binary_search_by_key(&file.0, |e| e.file.0) {
            Ok(i) => Some(self.entries.remove(i)),
            Err(_) => None,
        }
    }

    /// Grafts a row taken from another server's heat table (merging if
    /// the file already has local history).
    pub fn graft(&mut self, row: HeatEntry) {
        let s = self.slot(row.file);
        s.reads += row.reads;
        s.writes += row.writes;
        s.score += row.score;
    }

    /// Folds another heat table into this one (team aggregation).
    pub fn absorb(&mut self, other: &FileHeat) {
        for &row in &other.entries {
            self.graft(row);
        }
    }
}

/// Counters the server (or the whole team) accumulates.
#[derive(Debug, Clone, Default)]
pub struct FileServerStats {
    /// Requests served, by rough class.
    pub reads: u64,
    /// Writes served.
    pub writes: u64,
    /// Large reads served.
    pub large_reads: u64,
    /// Opens/creates/queries served.
    pub meta: u64,
    /// Requests refused with an error status.
    pub errors: u64,
    /// Read-ahead hits (no disk wait).
    pub readahead_hits: u64,
    /// Requests the receptionist forwarded to workers (0 for the
    /// sequential server).
    pub forwarded: u64,
    /// Deepest backlog the receptionist parked while every worker was
    /// busy.
    pub parked_peak: u64,
    /// `ReadCached` requests served (a subset of `reads`).
    pub cached_reads: u64,
    /// Invalidation callbacks delivered to holders before writes.
    pub invalidations: u64,
    /// Callbacks that failed (dead holder host): the holder is dropped
    /// and the write proceeds.
    pub invalidation_failures: u64,
    /// Writes that waited out at least one unexpired lease.
    pub lease_waits: u64,
    /// Requests that arrived for a file this service no longer owns
    /// (it migrated away) and were `Forward`ed to the new owner. Each
    /// such request completes exactly once — at the new owner, which
    /// replies to the client directly.
    pub moved_forwards: u64,
    /// Writes refused with [`IoStatus::RetryAfter`] because the target
    /// file was draining for migration.
    pub drain_write_refusals: u64,
    /// Files this service released to another shard (migration commit).
    pub migrated_out: u64,
    /// Files this service adopted from another shard (copy completed).
    pub migrated_in: u64,
    /// Per-file read/write heat across every request class.
    pub heat: FileHeat,
}

/// One registered cache holder of a file.
#[derive(Debug, Clone, Copy)]
struct Holder {
    /// The holder's cache agent.
    agent: Pid,
    /// Lease expiry (`None` in write-invalidate mode).
    expires: Option<SimTime>,
}

/// Holder bookkeeping for one file.
#[derive(Debug, Default)]
pub(crate) struct FileHolders {
    holders: Vec<Holder>,
    /// Writes between holder-drain and commit. While nonzero, new
    /// cached reads get a deny grant — a read served concurrently with
    /// the write could otherwise install pre-write data *after* the
    /// holders were drained, with nobody left to call it back.
    write_pending: u32,
}

/// Live-migration bookkeeping one server team shares (see
/// [`crate::migrate`] for the mechanism and [`crate::rebalance`] for
/// the policy that drives it).
#[derive(Debug, Default)]
pub(crate) struct MigrationTable {
    /// Files frozen for copy-out: writes are refused with
    /// [`IoStatus::RetryAfter`] (reads keep flowing — the frozen image
    /// is exactly what the destination is copying).
    pub(crate) draining: std::collections::HashSet<u16>,
    /// Writes currently between dispatch and commit, per file — a
    /// `MigrateBegin` is refused (retry-after) while nonzero, so the
    /// copied image can never miss a write that was already in flight
    /// past the drain check on another worker.
    pub(crate) inflight_writes: HashMap<u16, u32>,
    /// file id → the service now owning it (commit flipped ownership).
    pub(crate) moved: HashMap<u16, Pid>,
    /// file name → new owner, for `Open`s arriving by name.
    pub(crate) moved_names: HashMap<String, Pid>,
}

impl MigrationTable {
    fn note_write_begin(&mut self, file: FileId) {
        *self.inflight_writes.entry(file.0).or_insert(0) += 1;
    }

    fn note_write_end(&mut self, file: FileId) {
        if let Some(n) = self.inflight_writes.get_mut(&file.0) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                self.inflight_writes.remove(&file.0);
            }
        }
    }

    fn writes_in_flight(&self, file: FileId) -> bool {
        self.inflight_writes.get(&file.0).copied().unwrap_or(0) > 0
    }

    /// Where a request for `file` should go instead, if anywhere.
    pub(crate) fn redirect_for(&self, file: FileId) -> Option<Pid> {
        self.moved.get(&file.0).copied()
    }

    /// Where an open of `name` should go instead, if anywhere.
    pub(crate) fn redirect_for_name(&self, name: &str) -> Option<Pid> {
        self.moved_names.get(name).copied()
    }
}

/// State one server team shares: the block store, the disk unit (one
/// arm or a striped set), the stats block and the read-ahead slot. The
/// sequential server owns a private copy of the same structure, so its
/// code path is identical.
#[derive(Clone)]
pub(crate) struct SharedServerState {
    pub(crate) store: Rc<RefCell<BlockStore>>,
    pub(crate) disk: Rc<RefCell<DiskModel>>,
    pub(crate) stats: Rc<RefCell<FileServerStats>>,
    /// (file, block) the pending read-ahead will satisfy, and when the
    /// disk will have it. Shared: any worker may take the hit.
    pub(crate) prefetch: Rc<RefCell<Option<(FileId, u32, SimTime)>>>,
    /// Cache holders per file id — team-shared so any worker's write
    /// invalidates holders registered through any other worker.
    pub(crate) holders: Rc<RefCell<HashMap<u16, FileHolders>>>,
    /// Migration state — team-shared so a drain set by one worker
    /// refuses writes dispatched through any other worker.
    pub(crate) migration: Rc<RefCell<MigrationTable>>,
}

impl SharedServerState {
    pub(crate) fn new(disk: DiskModel, store: BlockStore) -> SharedServerState {
        SharedServerState {
            store: Rc::new(RefCell::new(store)),
            disk: Rc::new(RefCell::new(disk)),
            stats: Default::default(),
            prefetch: Default::default(),
            holders: Default::default(),
            migration: Default::default(),
        }
    }
}

enum Phase {
    Idle,
    FsWork,
    DiskWait,
    FetchRest {
        have: u32,
    },
    Pushing {
        pushed: u32,
    },
    /// Write-invalidate: callbacks in flight, queue in
    /// `FileServer::inval_queue`; the disk write starts when it drains.
    Invalidating,
    /// Leases: waiting out the longest unexpired lease before the disk
    /// write.
    LeaseWait,
}

struct Current {
    from: Pid,
    req: IoRequest,
    seg_len: u32,
    /// The raw message as received — kept so a request for a migrated
    /// file can be `Forward`ed to the new owner verbatim, appended
    /// write data and all.
    msg: Message,
}

/// The file-server program.
pub struct FileServer {
    cfg: FileServerConfig,
    shared: SharedServerState,
    /// Team-worker mode: the receptionist to notify after each served
    /// request (None: standalone sequential server).
    notify: Option<Pid>,
    phase: Phase,
    current: Option<Current>,
    /// Holders still to call back for the in-progress write (reversed:
    /// `pop()` walks registration order).
    inval_queue: Vec<Pid>,
}

impl FileServer {
    /// Creates a standalone (sequential) file server over a
    /// pre-populated store.
    pub fn new(cfg: FileServerConfig, store: BlockStore) -> FileServer {
        let shared = SharedServerState::new(cfg.build_disk(), store);
        FileServer::with_shared(cfg, shared, None)
    }

    /// Creates a server over team-shared state; `notify` puts it in
    /// worker mode (idle notifications to the receptionist).
    pub(crate) fn with_shared(
        cfg: FileServerConfig,
        shared: SharedServerState,
        notify: Option<Pid>,
    ) -> FileServer {
        FileServer {
            cfg,
            shared,
            notify,
            phase: Phase::Idle,
            current: None,
            inval_queue: Vec::new(),
        }
    }

    /// Issues a single-block-class disk request, routed to the arm the
    /// striping assigns `(file, block)`.
    fn disk_request(&mut self, now: SimTime, file: FileId, block: u32, bytes: usize) -> SimTime {
        (self.shared.disk.borrow_mut()).request_striped(now, file.0 as u32, block, bytes)
    }

    /// Issues a multi-block span request (large reads): on a striped
    /// unit each touched arm transfers its stripes in parallel.
    fn disk_span(&mut self, now: SimTime, file: FileId, block: u32, bytes: usize) -> SimTime {
        (self.shared.disk.borrow_mut()).request_span(now, file.0 as u32, block, bytes)
    }

    fn rearm(&mut self, api: &mut Api<'_>) {
        self.phase = Phase::Idle;
        self.current = None;
        match self.notify {
            // Sequential: wait for the next client request directly.
            None => api.receive_with_segment(SRV_IN, BLOCK_SIZE as u32),
            // Team worker: report idle to the receptionist; the next
            // forwarded request arrives after its reply (see resume).
            Some(receptionist) => api.send(Message::empty(), receptionist),
        }
    }

    /// The pid clients know this service by: the receptionist for a
    /// team worker, the server itself when sequential — stamped into
    /// every reply's `owner` so a client whose request was forwarded
    /// can correct its owner cache.
    fn service_pid(&self, api: &Api<'_>) -> Pid {
        self.notify.unwrap_or_else(|| api.self_pid())
    }

    fn reply_status(&mut self, api: &mut Api<'_>, status: IoStatus, value: u32, file: FileId) {
        let owner = self.service_pid(api).raw();
        let cur = self.current.as_ref().expect("request in progress");
        // Retry-after is back-pressure, not failure: the client retries
        // and the operation still completes exactly once.
        if status != IoStatus::Ok && status != IoStatus::RetryAfter {
            self.shared.stats.borrow_mut().errors += 1;
        }
        let reply = IoReply {
            status,
            file,
            value,
            aux: 0,
            owner,
            tag: cur.req.tag,
        }
        .encode();
        let _ = api.reply(reply, cur.from);
        self.rearm(api);
    }

    fn store_status(e: StoreError) -> IoStatus {
        match e {
            StoreError::NotFound => IoStatus::NotFound,
            StoreError::Exists => IoStatus::Exists,
            StoreError::BadBlock => IoStatus::BadBlock,
            StoreError::Full => IoStatus::Error,
        }
    }

    /// Registers the requesting cache agent as a holder of the file
    /// (dispatch time, *before* the disk — so a write dispatched during
    /// this read's disk wait still finds the holder and calls it back).
    /// Reads arriving while a write is pending are not registered: the
    /// serve-time grant will deny them.
    fn register_holder(&mut self, now: SimTime, req: &IoRequest) {
        if self.cfg.cache_mode == CacheMode::Off {
            return;
        }
        let Some(agent) = Pid::from_raw(req.aux) else {
            return;
        };
        let expires = match self.cfg.cache_mode {
            CacheMode::Leases => Some(now + self.cfg.lease),
            _ => None,
        };
        let mut h = self.shared.holders.borrow_mut();
        let fh = h.entry(req.file.0).or_default();
        if fh.write_pending > 0 {
            return;
        }
        // Drop holders whose lease already lapsed while here.
        fh.holders
            .retain(|x| x.expires.map_or(true, |e| e > now) || x.agent == agent);
        match fh.holders.iter_mut().find(|x| x.agent == agent) {
            Some(x) => x.expires = expires,
            None => fh.holders.push(Holder { agent, expires }),
        }
    }

    /// The cacheability grant for a served read: deny unless the
    /// requester is (still) a registered holder with no write pending.
    fn read_grant(&self, now: SimTime, req: &IoRequest) -> u32 {
        if self.cfg.cache_mode == CacheMode::Off || req.op != IoOp::ReadCached {
            return CACHE_DENY;
        }
        let Some(agent) = Pid::from_raw(req.aux) else {
            return CACHE_DENY;
        };
        let h = self.shared.holders.borrow();
        let Some(fh) = h.get(&req.file.0) else {
            return CACHE_DENY;
        };
        if fh.write_pending > 0 {
            return CACHE_DENY;
        }
        let Some(holder) = fh.holders.iter().find(|x| x.agent == agent) else {
            return CACHE_DENY;
        };
        match holder.expires {
            None => CACHE_UNTIL_INVALIDATED,
            Some(exp) if exp > now => {
                let us = exp.since(now).as_nanos() / 1_000;
                us.min(CACHE_UNTIL_INVALIDATED as u64 - 1) as u32
            }
            Some(_) => CACHE_DENY,
        }
    }

    /// Starts the disk write for the current request (the pre-cache
    /// write path).
    fn write_disk(&mut self, api: &mut Api<'_>) {
        let (file, block, count) = {
            let cur = self.current.as_ref().expect("request in progress");
            (
                cur.req.file,
                cur.req.block,
                cur.req.count.min(BLOCK_SIZE as u32),
            )
        };
        let done = self.disk_request(api.now(), file, block, count as usize);
        self.phase = Phase::DiskWait;
        api.delay(done.since(api.now()));
    }

    /// A write's data is fully in: run the consistency protocol before
    /// committing. `Off` goes straight to the disk (bit-identical);
    /// write-invalidate drains the file's holders with callbacks;
    /// leases wait out the longest unexpired lease.
    fn begin_write_commit(&mut self, api: &mut Api<'_>) {
        if self.cfg.cache_mode == CacheMode::Off {
            self.write_disk(api);
            return;
        }
        let (file, excl) = {
            let cur = self.current.as_ref().expect("request in progress");
            (cur.req.file, cur.req.aux)
        };
        let now = api.now();
        let taken = {
            let mut h = self.shared.holders.borrow_mut();
            let fh = h.entry(file.0).or_default();
            fh.write_pending += 1;
            std::mem::take(&mut fh.holders)
        };
        // The writer's own agent (if caching) purged locally at issue.
        let excl_agent = Pid::from_raw(excl);
        match self.cfg.cache_mode {
            CacheMode::Off => unreachable!("handled above"),
            CacheMode::WriteInvalidate => {
                self.inval_queue = taken
                    .iter()
                    .filter(|x| Some(x.agent) != excl_agent)
                    .map(|x| x.agent)
                    .rev()
                    .collect();
                self.phase = Phase::Invalidating;
                self.next_invalidation(api);
            }
            CacheMode::Leases => {
                let latest = taken
                    .iter()
                    .filter(|x| Some(x.agent) != excl_agent)
                    .filter_map(|x| x.expires)
                    .filter(|&e| e > now)
                    .max();
                match latest {
                    Some(exp) => {
                        self.shared.stats.borrow_mut().lease_waits += 1;
                        self.phase = Phase::LeaseWait;
                        api.delay(exp.since(now) + LEASE_GUARD);
                    }
                    None => self.write_disk(api),
                }
            }
        }
    }

    /// Sends the next pending invalidation callback, or starts the disk
    /// write once the queue is drained.
    fn next_invalidation(&mut self, api: &mut Api<'_>) {
        match self.inval_queue.pop() {
            Some(agent) => {
                let (file, tag) = {
                    let cur = self.current.as_ref().expect("request in progress");
                    (cur.req.file, cur.req.tag)
                };
                api.send(IoRequest::new(IoOp::Invalidate, file, tag).encode(), agent);
            }
            None => self.write_disk(api),
        }
    }

    /// Balances `begin_write_commit`'s pending marker once the write
    /// commits (or fails at the store).
    fn finish_write_pending(&mut self, file: FileId) {
        if self.cfg.cache_mode == CacheMode::Off {
            return;
        }
        let mut h = self.shared.holders.borrow_mut();
        if let Some(fh) = h.get_mut(&file.0) {
            fh.write_pending = fh.write_pending.saturating_sub(1);
            if fh.write_pending == 0 && fh.holders.is_empty() {
                h.remove(&file.0);
            }
        }
    }

    /// Hands the current request — still carrying the client's reply
    /// obligation and any appended/granted segments — to the service
    /// that owns the file now. The new owner serves it and replies to
    /// the client directly; this server goes back to its queue.
    fn forward_to_owner(&mut self, api: &mut Api<'_>, new_owner: Pid) {
        let cur = self.current.as_ref().expect("request in progress");
        let (msg, from, file) = (cur.msg, cur.from, cur.req.file);
        match api.forward(msg, from, new_owner) {
            Ok(()) => {
                self.shared.stats.borrow_mut().moved_forwards += 1;
                self.rearm(api);
            }
            // The new owner is unreachable: fail the request back to
            // the client rather than leaving it blocked — its own
            // failover logic takes it from there.
            Err(_) => self.reply_status(api, IoStatus::Error, 0, file),
        }
    }

    /// Dispatch after the fs-processing charge.
    fn dispatch(&mut self, api: &mut Api<'_>) {
        let cur = self.current.as_ref().expect("request in progress");
        let req = cur.req;
        let seg_len = cur.seg_len;
        // A request addressed (by id) to a file that migrated away is
        // forwarded to its new owner — stale owner caches self-correct
        // off the reply's `owner` stamp. Opens (by name) check the
        // moved-names side of the table in their own arm below.
        if !matches!(req.op, IoOp::Open | IoOp::Create | IoOp::Invalidate) {
            let moved = self.shared.migration.borrow().redirect_for(req.file);
            if let Some(new_owner) = moved {
                self.forward_to_owner(api, new_owner);
                return;
            }
        }
        if self.cfg.read_only && matches!(req.op, IoOp::Create | IoOp::Write) {
            // Refused before any side effect: the store, the disk queue
            // and the read-ahead slot are untouched.
            self.reply_status(api, IoStatus::ReadOnly, 0, req.file);
            return;
        }
        if req.op == IoOp::Write
            && self
                .shared
                .migration
                .borrow()
                .draining
                .contains(&req.file.0)
        {
            // The file is frozen for copy-out. Refuse without side
            // effects — the client backs off and retries, and the team
            // keeps serving everything else meanwhile.
            self.shared.stats.borrow_mut().drain_write_refusals += 1;
            self.reply_status(api, IoStatus::RetryAfter, 0, req.file);
            return;
        }
        match req.op {
            IoOp::Open => {
                let name_bytes = api.mem_read(SRV_IN, seg_len as usize).expect("in buffer");
                let name = String::from_utf8_lossy(&name_bytes).into_owned();
                let moved = self.shared.migration.borrow().redirect_for_name(&name);
                if let Some(new_owner) = moved {
                    self.forward_to_owner(api, new_owner);
                    return;
                }
                self.shared.stats.borrow_mut().meta += 1;
                let opened = self.shared.store.borrow().open(&name);
                match opened {
                    Ok(id) => {
                        let len = self.shared.store.borrow().len(id).expect("exists") as u32;
                        self.reply_status(api, IoStatus::Ok, len, id);
                    }
                    Err(e) => self.reply_status(api, Self::store_status(e), 0, FileId(0)),
                }
            }
            IoOp::Create => {
                self.shared.stats.borrow_mut().meta += 1;
                let name_bytes = api.mem_read(SRV_IN, seg_len as usize).expect("in buffer");
                let name = String::from_utf8_lossy(&name_bytes).into_owned();
                let created = self
                    .shared
                    .store
                    .borrow_mut()
                    .create(&name, req.aux as usize);
                match created {
                    Ok(id) => self.reply_status(api, IoStatus::Ok, req.aux, id),
                    Err(e) => self.reply_status(api, Self::store_status(e), 0, FileId(0)),
                }
            }
            IoOp::Query => {
                self.shared.stats.borrow_mut().meta += 1;
                let len = self.shared.store.borrow().len(req.file);
                match len {
                    Ok(len) => self.reply_status(api, IoStatus::Ok, len as u32, req.file),
                    Err(e) => self.reply_status(api, Self::store_status(e), 0, req.file),
                }
            }
            IoOp::Read | IoOp::ReadCached => {
                if req.op == IoOp::ReadCached {
                    self.shared.stats.borrow_mut().cached_reads += 1;
                    self.register_holder(api.now(), &req);
                }
                // Read-ahead hit?
                let pending = *self.shared.prefetch.borrow();
                if let Some((f, b, ready)) = pending {
                    if f == req.file && b == req.block {
                        *self.shared.prefetch.borrow_mut() = None;
                        if api.now() >= ready {
                            self.shared.stats.borrow_mut().readahead_hits += 1;
                            self.serve_read(api);
                            return;
                        }
                        // Prefetch still spinning: wait out the rest.
                        self.phase = Phase::DiskWait;
                        api.delay(ready.since(api.now()));
                        return;
                    }
                }
                let done = self.disk_request(
                    api.now(),
                    req.file,
                    req.block,
                    req.count.min(BLOCK_SIZE as u32) as usize,
                );
                self.phase = Phase::DiskWait;
                api.delay(done.since(api.now()));
            }
            IoOp::Write => {
                self.shared
                    .migration
                    .borrow_mut()
                    .note_write_begin(req.file);
                let count = req.count.min(BLOCK_SIZE as u32);
                if seg_len < count {
                    // The appended prefix didn't cover the block: pull
                    // the rest from the client's granted segment.
                    self.phase = Phase::FetchRest { have: seg_len };
                    let grant_start = req.buffer; // client buffer address
                    api.move_from(
                        cur.from,
                        SRV_IN + seg_len,
                        grant_start + seg_len,
                        count - seg_len,
                    );
                } else {
                    self.begin_write_commit(api);
                }
            }
            IoOp::ReadLarge => {
                let done = self.disk_span(api.now(), req.file, req.block, req.count as usize);
                self.phase = Phase::DiskWait;
                api.delay(done.since(api.now()));
            }
            // Invalidate is a server→agent callback; a server receiving
            // one is a protocol error.
            IoOp::Invalidate => self.reply_status(api, IoStatus::Error, 0, req.file),
            IoOp::MigrateBegin => self.serve_migrate_begin(api, &req),
            IoOp::MigrateCommit => self.serve_migrate_commit(api, &req),
            IoOp::MigrateAbort => {
                // Copy failed: unfreeze and keep serving the file.
                self.shared.stats.borrow_mut().meta += 1;
                let dropped = self
                    .shared
                    .migration
                    .borrow_mut()
                    .draining
                    .remove(&req.file.0);
                let status = if dropped {
                    IoStatus::Ok
                } else {
                    IoStatus::NotFound
                };
                self.reply_status(api, status, 0, req.file);
            }
            // Pull is addressed to a destination's migration agent
            // ([`crate::migrate`]); a file server receiving one is a
            // protocol error.
            IoOp::MigratePull => self.reply_status(api, IoStatus::Error, 0, req.file),
        }
    }

    /// `MigrateBegin`: freeze writes to the file and hand the
    /// rebalancer everything the destination needs to adopt it — the
    /// length (reply `value`), and the name, deposited into the
    /// requester's write-granted buffer (length in reply `aux`).
    fn serve_migrate_begin(&mut self, api: &mut Api<'_>, req: &IoRequest) {
        if self.shared.migration.borrow().writes_in_flight(req.file) {
            // A write already passed the drain check on another worker:
            // freezing now could snapshot a torn image. Back off.
            self.reply_status(api, IoStatus::RetryAfter, 0, req.file);
            return;
        }
        let info = {
            let store = self.shared.store.borrow();
            store
                .len(req.file)
                .and_then(|len| store.name(req.file).map(|n| (len, n.to_string())))
        };
        match info {
            Err(e) => self.reply_status(api, Self::store_status(e), 0, req.file),
            Ok((len, name)) => {
                self.shared
                    .migration
                    .borrow_mut()
                    .draining
                    .insert(req.file.0);
                self.shared.stats.borrow_mut().meta += 1;
                let owner = self.service_pid(api).raw();
                let cur = self.current.as_ref().expect("request in progress");
                let n = name.len() as u32;
                api.mem_write(SRV_OUT, name.as_bytes())
                    .expect("staging fits");
                let reply = IoReply {
                    status: IoStatus::Ok,
                    file: req.file,
                    value: len as u32,
                    aux: n,
                    owner,
                    tag: req.tag,
                }
                .encode();
                if api
                    .reply_with_segment(reply, cur.from, req.buffer, SRV_OUT, n)
                    .is_err()
                {
                    // The rebalancer died mid-handshake: nobody will
                    // commit or abort this drain, so lift it here.
                    self.shared
                        .migration
                        .borrow_mut()
                        .draining
                        .remove(&req.file.0);
                    self.shared.stats.borrow_mut().errors += 1;
                }
                self.rearm(api);
            }
        }
    }

    /// `MigrateCommit`: the destination holds a complete copy — drop
    /// the local file and forward every later request for it (by id or
    /// name) to the new owner (`aux` = its raw service pid).
    fn serve_migrate_commit(&mut self, api: &mut Api<'_>, req: &IoRequest) {
        let Some(new_owner) = Pid::from_raw(req.aux) else {
            self.reply_status(api, IoStatus::Error, 0, req.file);
            return;
        };
        let name = {
            let store = self.shared.store.borrow();
            store.name(req.file).map(|n| n.to_string())
        };
        match name {
            Err(e) => self.reply_status(api, Self::store_status(e), 0, req.file),
            Ok(name) => {
                self.shared
                    .store
                    .borrow_mut()
                    .remove(req.file)
                    .expect("name() just found it");
                {
                    let mut mig = self.shared.migration.borrow_mut();
                    mig.draining.remove(&req.file.0);
                    mig.moved.insert(req.file.0, new_owner);
                    mig.moved_names.insert(name, new_owner);
                }
                // Cache holders of the file are released: the new owner
                // starts with a clean registry and clients re-register
                // on their next (forwarded) cached read.
                self.shared.holders.borrow_mut().remove(&req.file.0);
                {
                    let mut st = self.shared.stats.borrow_mut();
                    st.meta += 1;
                    st.migrated_out += 1;
                }
                self.reply_status(api, IoStatus::Ok, 0, req.file);
            }
        }
    }

    /// Completes a single-block read after the disk wait.
    fn serve_read(&mut self, api: &mut Api<'_>) {
        let cur = self.current.as_ref().expect("request in progress");
        let req = cur.req;
        let from = cur.from;
        // Store to `SRV_OUT` under the borrow: the block's one copy on
        // this host before the kernel gathers it into the reply.
        let staged = (self.shared.store.borrow())
            .read_block(req.file, req.block, req.count as usize)
            .map(|data| {
                api.mem_write(SRV_OUT, data).expect("staging fits");
                data.len() as u32
            });
        match staged {
            Err(e) => self.reply_status(api, Self::store_status(e), 0, req.file),
            Ok(n) => {
                let reply = IoReply {
                    status: IoStatus::Ok,
                    file: req.file,
                    value: n,
                    aux: self.read_grant(api.now(), &req),
                    owner: self.service_pid(api).raw(),
                    tag: req.tag,
                }
                .encode();
                if api
                    .reply_with_segment(reply, from, req.buffer, SRV_OUT, n)
                    .is_err()
                {
                    self.shared.stats.borrow_mut().errors += 1;
                }
                {
                    let mut st = self.shared.stats.borrow_mut();
                    st.reads += 1;
                    st.heat.bump_read(req.file);
                }
                // Read-ahead: start fetching the next block now. The
                // existence probe is free — no block copy.
                if self.cfg.read_ahead {
                    let next = req.block + 1;
                    if self.shared.store.borrow().has_block(req.file, next) {
                        let ready = self.disk_request(api.now(), req.file, next, BLOCK_SIZE);
                        *self.shared.prefetch.borrow_mut() = Some((req.file, next, ready));
                    }
                }
                self.rearm(api);
            }
        }
    }

    /// Completes a write after data + disk (and any invalidation
    /// callbacks / lease waits) are in.
    fn serve_write(&mut self, api: &mut Api<'_>) {
        let cur = self.current.as_ref().expect("request in progress");
        let req = cur.req;
        self.shared.migration.borrow_mut().note_write_end(req.file);
        let count = req.count.min(BLOCK_SIZE as u32);
        // `SRV_IN` to the store, the block's one copy on this host.
        let wrote = (self.shared.store.borrow_mut())
            .block_mut(req.file, req.block, count as usize)
            .map(|block| api.mem_read_into(SRV_IN, block).expect("in buffer"));
        self.finish_write_pending(req.file);
        match wrote {
            Ok(()) => {
                {
                    let mut st = self.shared.stats.borrow_mut();
                    st.writes += 1;
                    st.heat.bump_write(req.file);
                }
                self.reply_status(api, IoStatus::Ok, count, req.file);
            }
            Err(e) => self.reply_status(api, Self::store_status(e), 0, req.file),
        }
    }

    /// Starts or continues the MoveTo push of a large read.
    fn push_large(&mut self, api: &mut Api<'_>, pushed: u32) {
        let cur = self.current.as_ref().expect("request in progress");
        let req = cur.req;
        let from = cur.from;
        let n = self.cfg.transfer_unit.min(req.count - pushed);
        self.phase = Phase::Pushing { pushed };
        api.move_to(from, req.buffer + pushed, SRV_OUT + pushed, n);
    }
}

impl Program for FileServer {
    fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
        match outcome {
            Outcome::Started => {
                if let Some(id) = self.cfg.register {
                    api.set_pid(id, api.self_pid(), Scope::Both);
                }
                self.rearm(api);
            }
            Outcome::ReceiveSeg { from, msg, seg_len } => {
                let Some(req) = IoRequest::decode(&msg) else {
                    // Unknown request: answer with an error so the client
                    // is not left blocked forever.
                    self.current = Some(Current {
                        from,
                        req: IoRequest::new(IoOp::Query, FileId(0), msg.get_u16(20)),
                        seg_len: 0,
                        msg,
                    });
                    self.reply_status(api, IoStatus::Error, 0, FileId(0));
                    return;
                };
                self.current = Some(Current {
                    from,
                    req,
                    seg_len,
                    msg,
                });
                self.phase = Phase::FsWork;
                api.compute(FileServerConfig::FS_CPU);
            }
            Outcome::Compute => self.dispatch(api),
            Outcome::Delay if matches!(self.phase, Phase::LeaseWait) => {
                // Every blocking lease has now expired on the holders'
                // clocks too (the guard covers the grant flight).
                self.write_disk(api);
            }
            Outcome::Delay => {
                // Disk finished.
                let op = self.current.as_ref().expect("request in progress").req.op;
                match op {
                    IoOp::Read | IoOp::ReadCached => self.serve_read(api),
                    IoOp::Write => self.serve_write(api),
                    IoOp::ReadLarge => {
                        let (file, offset, count) = {
                            let cur = self.current.as_ref().expect("in progress");
                            (
                                cur.req.file,
                                cur.req.block as usize * BLOCK_SIZE,
                                cur.req.count as usize,
                            )
                        };
                        let staged = (self.shared.store.borrow())
                            .read_range(file, offset, count)
                            .map(|data| api.mem_write(SRV_OUT, data).expect("staging fits"));
                        match staged {
                            Err(e) => self.reply_status(api, Self::store_status(e), 0, file),
                            Ok(()) => self.push_large(api, 0),
                        }
                    }
                    _ => self.rearm(api),
                }
            }
            Outcome::Move(Ok(n)) => match self.phase {
                Phase::FetchRest { have } => {
                    let count = {
                        let cur = self.current.as_ref().expect("in progress");
                        cur.req.count.min(BLOCK_SIZE as u32)
                    };
                    let have = have + n;
                    if have < count {
                        self.phase = Phase::FetchRest { have };
                        let cur = self.current.as_ref().expect("in progress");
                        let (from, buffer) = (cur.from, cur.req.buffer);
                        api.move_from(from, SRV_IN + have, buffer + have, count - have);
                    } else {
                        self.begin_write_commit(api);
                    }
                }
                Phase::Pushing { pushed } => {
                    let (count, file) = {
                        let cur = self.current.as_ref().expect("in progress");
                        (cur.req.count, cur.req.file)
                    };
                    let pushed = pushed + n;
                    if pushed < count {
                        self.push_large(api, pushed);
                    } else {
                        {
                            let mut st = self.shared.stats.borrow_mut();
                            st.large_reads += 1;
                            st.heat.bump_read(file);
                        }
                        self.reply_status(api, IoStatus::Ok, pushed, file);
                    }
                }
                _ => self.rearm(api),
            },
            Outcome::Move(Err(_)) => {
                if matches!(self.phase, Phase::FetchRest { .. }) {
                    // The write's data pull failed: it will never reach
                    // serve_write, so balance the in-flight marker here.
                    let file = self.current.as_ref().expect("in progress").req.file;
                    self.shared.migration.borrow_mut().note_write_end(file);
                }
                self.reply_status(api, IoStatus::Error, 0, FileId(0));
            }
            // An invalidation callback completed (the holder's agent
            // replied) or failed (holder host down after the detection
            // budget): either way the holder is gone — move on. Matched
            // before the worker idle-ack arm: a worker's Send in this
            // phase is a callback, not an idle notification.
            Outcome::Send(res) if matches!(self.phase, Phase::Invalidating) => {
                {
                    let mut st = self.shared.stats.borrow_mut();
                    match res {
                        Ok(_) => st.invalidations += 1,
                        Err(_) => st.invalidation_failures += 1,
                    }
                }
                self.next_invalidation(api);
            }
            // Team worker only: the receptionist acknowledged our idle
            // notification — wait for the next forwarded request.
            Outcome::Send(Ok(_)) if self.notify.is_some() => {
                api.receive_with_segment(SRV_IN, BLOCK_SIZE as u32);
            }
            _ => api.exit(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Decay ages the score geometrically, while lifetime totals never
    /// shrink.
    #[test]
    fn heat_decay_ages_scores_and_keeps_totals() {
        let mut heat = FileHeat::default();
        let f = FileId(7);
        for _ in 0..6 {
            heat.bump_read(f);
        }
        for _ in 0..2 {
            heat.bump_write(f);
        }
        assert_eq!(heat.of(f), (6, 2));
        assert_eq!(heat.score_of(f), 8.0);

        heat.decay(0.5);
        assert_eq!(heat.of(f), (6, 2), "lifetime totals survive decay");
        assert_eq!(heat.score_of(f), 4.0, "score halves");

        // A quiet file fades geometrically toward zero...
        heat.decay(0.5);
        heat.decay(0.5);
        assert_eq!(heat.score_of(f), 1.0);

        // ...while fresh traffic immediately outweighs old history.
        let g = FileId(9);
        for _ in 0..3 {
            heat.bump_read(g);
        }
        assert!(heat.score_of(g) > heat.score_of(f));
        assert_eq!(heat.total_score(), 4.0);
    }

    /// `take` + `graft` carries a row between tables without losing
    /// operations — the heat transfer that rides each migration.
    #[test]
    fn heat_take_and_graft_conserve_history() {
        let mut src = FileHeat::default();
        let mut dst = FileHeat::default();
        let f = FileId(3);
        for _ in 0..5 {
            src.bump_read(f);
        }
        src.decay(0.5); // score 2.5, totals 5 reads

        let row = src.take(f).expect("row exists");
        assert_eq!(src.score_of(f), 0.0, "taken row leaves no residue");
        assert!(src.take(f).is_none(), "second take finds nothing");

        // The destination already served the file once (a pulled copy
        // read would do this): grafting merges, not overwrites.
        dst.bump_read(f);
        dst.graft(row);
        assert_eq!(dst.of(f), (6, 0));
        assert_eq!(dst.score_of(f), 3.5);
        assert_eq!(dst.hottest(), Some((f, 6)));
    }
}
