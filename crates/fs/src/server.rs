//! The file-server process.
//!
//! One V process serving the Verex I/O protocol over V IPC:
//!
//! * page **reads** are `Receive` → disk → `ReplyWithSegment` (two
//!   packets on the wire, §3.4);
//! * page **writes**, and the names of **opens** and **creates**, arrive
//!   appended to the request (`ReceiveWithSegment`); any remainder beyond
//!   the appended prefix is pulled with `MoveFrom`;
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

use std::cell::{RefCell, RefMut};
use std::rc::Rc;

use v_kernel::{naming, Api, Message, Outcome, Pid, Program, Scope};
use v_sim::{SimDuration, SimTime};

use crate::cache::{BeforeWrite, CacheMode, Holder};
use crate::disk::DiskModel;
use crate::proto::{IoOp, IoReply, IoRequest, IoStatus, CACHE_DENY};
use crate::shard::ShardOverlay;
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
    /// Client-cache consistency scheme (see [`CacheMode`]), a lease's
    /// term included. `Off` (the default) never registers holders, never
    /// calls anyone back, and answers `ReadCached` with a deny grant —
    /// the write path is bit-identical to the pre-cache server.
    pub cache_mode: CacheMode,
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
        }
    }
}

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

/// One file's traffic: lifetime totals and an exponentially decayed
/// score.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Heat {
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

/// Everything a server team knows about one file besides its blocks.
#[derive(Debug, Default)]
pub(crate) struct FileRow {
    file: FileId,
    heat: Heat,
    /// Registered cache holders (kept by the server's [`CacheMode`]).
    pub(crate) holders: Vec<Holder>,
    /// Frozen for copy-out: writes are refused with
    /// [`IoStatus::RetryAfter`] (reads keep flowing — the frozen image
    /// is exactly what the destination is copying).
    pub(crate) draining: bool,
    /// Writes between dispatch and commit (or their failed `MoveFrom`
    /// pull). While nonzero a cached read is denied — served beside the
    /// write, it could install pre-write data after the holders were
    /// drained — and a `MigrateBegin` is refused, so the copied image
    /// cannot miss a write already past the drain check.
    pub(crate) writes_in_flight: u32,
}

/// A server team's file table: one row per file id, sorted by id, and
/// where each file that migrated away went. Team-shared, so a drain,
/// a holder or a write in flight through one worker is seen by all.
#[derive(Debug, Default)]
pub struct FileTable {
    rows: Vec<FileRow>,
    /// Committed moves out of this service.
    pub(crate) moved: ShardOverlay,
}

impl FileTable {
    /// `file`'s row, created empty if new.
    pub(crate) fn row(&mut self, file: FileId) -> &mut FileRow {
        let i = self.find(file).unwrap_or_else(|i| {
            let row = FileRow {
                file,
                ..FileRow::default()
            };
            self.rows.insert(i, row);
            i
        });
        &mut self.rows[i]
    }

    fn find(&self, file: FileId) -> Result<usize, usize> {
        self.rows.binary_search_by_key(&file.0, |r| r.file.0)
    }

    /// Counts one served read (`write == false`) or write of `file`.
    pub(crate) fn bump(&mut self, file: FileId, write: bool) {
        let heat = &mut self.row(file).heat;
        heat.reads += u64::from(!write);
        heat.writes += u64::from(write);
        heat.score += 1.0;
    }

    /// `file`'s heat (zero when unknown).
    pub fn heat(&self, file: FileId) -> Heat {
        self.find(file)
            .map_or(Heat::default(), |i| self.rows[i].heat)
    }

    /// Every file that has served an operation, with its heat, by id.
    pub fn heat_rows(&self) -> impl Iterator<Item = (FileId, Heat)> + '_ {
        (self.rows.iter())
            .filter(|r| r.heat.reads + r.heat.writes > 0)
            .map(|r| (r.file, r.heat))
    }

    /// The heat of the file with the most operations (ties: lowest id).
    pub fn hottest(&self) -> Option<Heat> {
        let ops = |(f, h): &(FileId, Heat)| (h.reads + h.writes, std::cmp::Reverse(f.0));
        self.heat_rows().max_by_key(ops).map(|(_, heat)| heat)
    }

    /// Sum of every file's decayed score — the load this service carries
    /// on the rebalancer's clock.
    pub(crate) fn total_score(&self) -> f64 {
        self.rows.iter().map(|r| r.heat.score).sum()
    }

    /// Ages every row by one sampling epoch: scores are multiplied by
    /// `factor` (half-life = `ln 2 / ln(1/factor)` epochs). Lifetime
    /// totals are untouched.
    pub(crate) fn decay(&mut self, factor: f64) {
        for r in &mut self.rows {
            r.heat.score *= factor;
        }
    }

    /// Takes `file`'s heat, leaving zero — the releasing half of moving
    /// a file's heat along with its blocks.
    pub(crate) fn take_heat(&mut self, file: FileId) -> Heat {
        std::mem::take(&mut self.row(file).heat)
    }

    /// Adds heat taken from another service's table to `file`'s row.
    pub(crate) fn graft_heat(&mut self, file: FileId, heat: Heat) {
        let h = &mut self.row(file).heat;
        h.reads += heat.reads;
        h.writes += heat.writes;
        h.score += heat.score;
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
}

/// State one server team shares: the block store, the disk unit (one
/// arm or a striped set), the stats block, the read-ahead slot and the
/// file table. The sequential server owns a private copy of the same
/// structure, so its code path is identical.
#[derive(Clone)]
pub(crate) struct SharedServerState {
    pub(crate) store: Rc<RefCell<BlockStore>>,
    pub(crate) disk: Rc<RefCell<DiskModel>>,
    pub(crate) stats: Rc<RefCell<FileServerStats>>,
    /// (file, block) the pending read-ahead will satisfy, and when the
    /// disk will have it. Shared: any worker may take the hit.
    pub(crate) prefetch: Rc<RefCell<Option<(FileId, u32, SimTime)>>>,
    pub(crate) files: Rc<RefCell<FileTable>>,
}

impl SharedServerState {
    pub(crate) fn new(disk: DiskModel, store: BlockStore) -> SharedServerState {
        SharedServerState {
            store: Rc::new(RefCell::new(store)),
            disk: Rc::new(RefCell::new(disk)),
            stats: Default::default(),
            prefetch: Default::default(),
            files: Default::default(),
        }
    }
}

enum Phase {
    Idle,
    FsWork,
    DiskWait,
    /// Pulling what of a name or a page did not ride the request.
    FetchRest,
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

    /// `file`'s row in the team's file table.
    fn row(&self, file: FileId) -> RefMut<'_, FileRow> {
        RefMut::map(self.shared.files.borrow_mut(), |t| t.row(file))
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
            StoreError::Full | StoreError::Unissued => IoStatus::Error,
        }
    }

    /// The cache agent a `ReadCached` request speaks for.
    fn reader_agent(req: &IoRequest) -> Option<Pid> {
        Pid::from_raw(req.aux).filter(|_| req.op == IoOp::ReadCached)
    }

    /// Registers a cached read's agent as a holder of the file, unless a
    /// write to it is in flight (the served read's grant will deny it).
    fn register_holder(&mut self, now: SimTime, req: &IoRequest) {
        let Some(agent) = Self::reader_agent(req) else {
            return;
        };
        let mut row = self.row(req.file);
        if row.writes_in_flight == 0 {
            self.cfg.cache_mode.register(&mut row.holders, agent, now);
        }
    }

    /// The cacheability grant for a served read: deny unless the
    /// requester is (still) a registered holder with no write in flight.
    fn read_grant(&self, now: SimTime, req: &IoRequest) -> u32 {
        let Some(agent) = Self::reader_agent(req) else {
            return CACHE_DENY;
        };
        let row = self.row(req.file);
        match row.writes_in_flight {
            0 => self.cfg.cache_mode.grant(&row.holders, agent, now),
            _ => CACHE_DENY,
        }
    }

    /// Starts the disk write for the current request.
    fn write_disk(&mut self, api: &mut Api<'_>) {
        let req = self.current.as_ref().expect("request in progress").req;
        let count = req.count.min(BLOCK_SIZE as u32) as usize;
        let done = self.disk_request(api.now(), req.file, req.block, count);
        self.phase = Phase::DiskWait;
        api.delay(done.since(api.now()));
    }

    /// A write's data is fully in: drain the file's cache holders as the
    /// consistency scheme says, then commit.
    fn begin_write_commit(&mut self, api: &mut Api<'_>) {
        let req = self.current.as_ref().expect("request in progress").req;
        let now = api.now();
        let writer = Pid::from_raw(req.aux);
        let mode = self.cfg.cache_mode;
        let step = mode.before_write(&mut self.row(req.file).holders, writer, now);
        match step {
            BeforeWrite::Commit => self.write_disk(api),
            BeforeWrite::CallBack(agents) => {
                self.inval_queue = agents;
                self.phase = Phase::Invalidating;
                self.next_invalidation(api);
            }
            BeforeWrite::WaitUntil(t) => {
                self.shared.stats.borrow_mut().lease_waits += 1;
                self.phase = Phase::LeaseWait;
                api.delay(t.since(now));
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
            let moved = self.shared.files.borrow().moved.owner_of_id(req.file);
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
        if req.op == IoOp::Write && self.row(req.file).draining {
            // The file is frozen for copy-out. Refuse without side
            // effects — the client backs off and retries, and the team
            // keeps serving everything else meanwhile.
            self.shared.stats.borrow_mut().drain_write_refusals += 1;
            self.reply_status(api, IoStatus::RetryAfter, 0, req.file);
            return;
        }
        if req.op == IoOp::Write && matches!(self.phase, Phase::FsWork) {
            // Open the write's in-flight window, once (not again when its
            // pull brings it back here): until it commits (or its pull
            // fails), no cached read and no drain.
            self.row(req.file).writes_in_flight += 1;
        }
        // A name or a page rides the `Send` as far as it fits (in the
        // Thoth ablation, not at all): pull the rest, then dispatch again.
        let grant = cur.msg.segment().filter(|g| g.access.allows_read());
        if let (IoOp::Open | IoOp::Create | IoOp::Write, Some(g)) = (req.op, grant) {
            let len = g.len.min(BLOCK_SIZE as u32);
            if seg_len < len {
                self.phase = Phase::FetchRest;
                api.move_from(cur.from, SRV_IN + seg_len, g.start + seg_len, len - seg_len);
                return;
            }
        }
        match req.op {
            IoOp::Open => {
                let name_bytes = api.mem_read(SRV_IN, seg_len as usize).expect("in buffer");
                let name = String::from_utf8_lossy(&name_bytes).into_owned();
                let moved = self.shared.files.borrow().moved.owner_of_name(&name);
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
            IoOp::Write => self.begin_write_commit(api),
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
                let dropped = std::mem::take(&mut self.row(req.file).draining);
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
        if self.row(req.file).writes_in_flight > 0 {
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
                self.row(req.file).draining = true;
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
                    self.row(req.file).draining = false;
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
                // The drain lifts and cache holders are released: the
                // new owner starts with a clean registry and clients
                // re-register on their next (forwarded) cached read.
                {
                    let mut files = self.shared.files.borrow_mut();
                    files.moved.record_move(req.file, &name, new_owner);
                    let row = files.row(req.file);
                    row.draining = false;
                    row.holders.clear();
                }
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
                self.shared.stats.borrow_mut().reads += 1;
                self.shared.files.borrow_mut().bump(req.file, false);
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
        self.row(req.file).writes_in_flight -= 1;
        let count = req.count.min(BLOCK_SIZE as u32);
        // `SRV_IN` to the store, the block's one copy on this host.
        let wrote = (self.shared.store.borrow_mut())
            .block_mut(req.file, req.block, count as usize)
            .map(|block| api.mem_read_into(SRV_IN, block).expect("in buffer"));
        match wrote {
            Ok(()) => {
                self.shared.stats.borrow_mut().writes += 1;
                self.shared.files.borrow_mut().bump(req.file, true);
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
                    self.shared.stats.borrow_mut().errors += 1;
                    let reply = IoReply {
                        owner: self.service_pid(api).raw(),
                        ..IoReply::refusal(&msg)
                    };
                    let _ = api.reply(reply.encode(), from);
                    self.rearm(api);
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
                Phase::FetchRest => {
                    self.current.as_mut().expect("in progress").seg_len += n;
                    self.dispatch(api);
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
                        self.shared.stats.borrow_mut().large_reads += 1;
                        self.shared.files.borrow_mut().bump(file, false);
                        self.reply_status(api, IoStatus::Ok, pushed, file);
                    }
                }
                _ => self.rearm(api),
            },
            Outcome::Move(Err(_)) => {
                let req = self.current.as_ref().expect("in progress").req;
                if matches!(self.phase, Phase::FetchRest) && req.op == IoOp::Write {
                    // The write's data pull failed: it will never reach
                    // serve_write, so balance the in-flight marker here.
                    self.row(req.file).writes_in_flight -= 1;
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
        let mut files = FileTable::default();
        let f = FileId(7);
        for write in [false, false, false, false, false, false, true, true] {
            files.bump(f, write);
        }
        let heat = |files: &FileTable, f| files.heat(f);
        assert_eq!((heat(&files, f).reads, heat(&files, f).writes), (6, 2));
        assert_eq!(heat(&files, f).score, 8.0);

        files.decay(0.5);
        let h = heat(&files, f);
        assert_eq!((h.reads, h.writes), (6, 2), "lifetime totals survive decay");
        assert_eq!(h.score, 4.0, "score halves");

        // A quiet file fades geometrically toward zero...
        files.decay(0.5);
        files.decay(0.5);
        assert_eq!(heat(&files, f).score, 1.0);

        // ...while fresh traffic immediately outweighs old history.
        let g = FileId(9);
        for _ in 0..3 {
            files.bump(g, false);
        }
        assert!(heat(&files, g).score > heat(&files, f).score);
        assert_eq!(files.total_score(), 4.0);
    }

    /// `take_heat` + `graft_heat` carries a row between tables without
    /// losing operations — the heat transfer that rides each migration.
    #[test]
    fn heat_take_and_graft_conserve_history() {
        let mut src = FileTable::default();
        let mut dst = FileTable::default();
        let f = FileId(3);
        for _ in 0..5 {
            src.bump(f, false);
        }
        src.decay(0.5); // score 2.5, totals 5 reads

        let row = src.take_heat(f);
        assert_eq!(src.heat(f), Heat::default(), "taken heat leaves no residue");
        assert_eq!(src.heat_rows().count(), 0, "nor a heat row");

        // The destination already served the file once (a pulled copy
        // read would do this): grafting merges, not overwrites.
        dst.bump(f, false);
        dst.graft_heat(f, row);
        let h = dst.heat(f);
        assert_eq!((h.reads, h.writes), (6, 0));
        assert_eq!(h.score, 3.5);
        assert_eq!(dst.hottest(), Some(h));
    }

    /// Rows kept only for a holder, a drain or a write in flight carry
    /// no heat: they are not heat rows and add nothing to the load.
    #[test]
    fn rows_without_traffic_are_not_heat_rows() {
        let mut files = FileTable::default();
        files.row(FileId(1)).draining = true;
        files.row(FileId(2)).writes_in_flight = 1;
        files.bump(FileId(3), true);
        let rows: Vec<_> = files.heat_rows().map(|(f, _)| f).collect();
        assert_eq!(rows, [FileId(3)]);
        assert_eq!(files.total_score(), 1.0);
        assert_eq!(files.hottest().map(|h| h.writes), Some(1));
    }

    use crate::cache::{BlockCache, CacheAgent};
    use crate::client::{stub, FsCall, FsClient, FsClientReport};
    use crate::migrate::stub as migration;
    use crate::proto::CACHE_UNTIL_INVALIDATED;
    use crate::team::{spawn_file_server, FileServerTeam};
    use std::collections::VecDeque;
    use v_kernel::{Cluster, ClusterConfig, CpuSpeed, HostId};

    /// A message the probe builds once it knows its own pid.
    type Request = Box<dyn Fn(Pid) -> Message>;

    /// Sends each request at its instant (or as soon as the one before
    /// it is answered) and keeps every reply.
    struct Probe {
        server: Pid,
        steps: VecDeque<(SimTime, Request)>,
        replies: Rc<RefCell<Vec<IoReply>>>,
    }

    impl Program for Probe {
        fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
            if let Outcome::Send(Ok(reply)) = &outcome {
                self.replies.borrow_mut().push(IoReply::decode(reply));
            }
            match (outcome, self.steps.front()) {
                (Outcome::Delay, Some(_)) => {
                    let (_, request) = self.steps.pop_front().expect("a step");
                    api.send(request(api.self_pid()), self.server);
                }
                (Outcome::Started | Outcome::Send(Ok(_)), Some((at, _))) => {
                    api.delay(at.since(api.now()));
                }
                _ => api.exit(),
            }
        }
    }

    fn probe(
        cl: &mut Cluster,
        host: usize,
        server: Pid,
        steps: Vec<(SimTime, Request)>,
    ) -> Rc<RefCell<Vec<IoReply>>> {
        let replies: Rc<RefCell<Vec<IoReply>>> = Default::default();
        let program = Probe {
            server,
            steps: steps.into(),
            replies: replies.clone(),
        };
        cl.spawn(HostId(host), "probe", Box::new(program));
        replies
    }

    fn begin(file: FileId) -> Request {
        Box::new(move |_| migration::begin(file, 0x0100, 128, 0))
    }

    /// `file`'s (writes in flight, draining, holders) in `team`'s table.
    fn row_of(team: &FileServerTeam, file: FileId) -> (u32, bool, usize) {
        let mut files = team.files.borrow_mut();
        let row = files.row(file);
        (row.writes_in_flight, row.draining, row.holders.len())
    }

    /// With appended segments off (the Thoth ablation), an `Open`'s or a
    /// `Create`'s name does not ride its `Send`: the server pulls it with
    /// `MoveFrom`, as it pulls a write's page, and dispatches the request
    /// once it is in.
    #[test]
    fn names_are_pulled_like_pages_when_nothing_rides_the_send() {
        let mut cfg = ClusterConfig::three_mb().with_hosts(2, CpuSpeed::Mc68000At10MHz);
        cfg.protocol.appended_segments = false;
        let mut cl = Cluster::new(cfg);
        let mut store = BlockStore::new();
        store.create_with("boot", &[0x7E; 4 * BLOCK_SIZE]).unwrap();
        let team = spawn_file_server(&mut cl, HostId(0), FileServerConfig::default(), store);
        let script = vec![
            FsCall::Open("boot".into()),
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
            FsCall::Create("new".into(), 1024),
            FsCall::QueryExpect(1024),
        ];
        let rep = Rc::new(RefCell::new(FsClientReport::default()));
        cl.spawn(
            HostId(1),
            "client",
            Box::new(FsClient::new(team.server, script, rep.clone())),
        );
        cl.run();
        let r = rep.borrow().clone();
        assert!(r.done, "{r:?}");
        assert_eq!(
            (r.completed, r.errors, r.integrity_errors),
            (6, 0, 0),
            "{r:?}"
        );
        assert_eq!(
            cl.kernel_stats(HostId(1)).chunks_sent,
            3,
            "two names and a page were pulled"
        );
    }

    /// With appended segments off, a write's page does not ride its
    /// `Send`: the server pulls it with `MoveFrom` (the `FetchRest`
    /// phase) and the block reads back intact. The write is in flight
    /// from its dispatch, pull included: while a dead writer's pull
    /// fails, a cached read is denied and a `MigrateBegin` refused. Once
    /// it has failed no write is left in flight: a later `MigrateBegin`
    /// of the file is answered `Ok`, not `RetryAfter`.
    #[test]
    fn a_write_whose_page_is_pulled_commits_or_closes_its_window() {
        let mut cfg = ClusterConfig::three_mb().with_hosts(4, CpuSpeed::Mc68000At10MHz);
        cfg.protocol.appended_segments = false;
        let mut cl = Cluster::new(cfg);
        let mut store = BlockStore::new();
        let file = store.create_with("f", &[0x7E; 4 * BLOCK_SIZE]).unwrap();
        let fs_cfg = FileServerConfig {
            disk: DiskModel::fixed(SimDuration::from_millis(2)),
            workers: 2,
            cache_mode: CacheMode::WriteInvalidate,
            ..FileServerConfig::default()
        };
        let team = spawn_file_server(&mut cl, HostId(0), fs_cfg, store);
        cl.run();

        // The script starts on the id a client holds before any open,
        // which is the first file's (opens in this mode are the test
        // above's).
        assert_eq!(file, FileId(0));
        let script = vec![
            FsCall::WriteFill {
                block: 1,
                count: BLOCK_SIZE as u32,
                fill: 0x55,
            },
            FsCall::ReadExpect {
                block: 1,
                count: BLOCK_SIZE as u32,
                expect: 0x55,
            },
        ];
        let rep = Rc::new(RefCell::new(FsClientReport::default()));
        cl.spawn(
            HostId(1),
            "writer",
            Box::new(FsClient::new(team.server, script, rep.clone())),
        );
        cl.run();
        let r = rep.borrow().clone();
        assert_eq!(
            (r.completed, r.errors, r.integrity_errors),
            (2, 0, 0),
            "{r:?}"
        );
        assert!(
            cl.kernel_stats(HostId(1)).chunks_sent >= 1,
            "no page was pulled"
        );
        assert_eq!(team.stats.borrow().writes, 1);
        assert_eq!(row_of(&team, file), (0, false, 0));

        // A second writer dies while its page is being pulled.
        let doomed = vec![(
            cl.now(),
            Box::new(move |_| stub::write(file, 2, BLOCK_SIZE as u32, 0x1000, 0, 1)) as Request,
        )];
        probe(&mut cl, 2, team.server, doomed);
        let (start, mut t) = (cl.now(), cl.now());
        while row_of(&team, file).0 == 0 {
            t += SimDuration::from_micros(50);
            assert!(
                t <= start + SimDuration::from_millis(100),
                "no write opened"
            );
            cl.run_until(t);
        }
        cl.crash_host(HostId(2));
        let now = cl.now();
        let cached: Request =
            Box::new(move |me| stub::read_cached(file, 0, 512, 0x1000, me.raw(), 0));
        let during = probe(
            &mut cl,
            3,
            team.server,
            vec![(now, cached), (now, begin(file))],
        );
        while during.borrow().len() < 2 {
            t += SimDuration::from_millis(1);
            assert!(
                t <= now + SimDuration::from_millis(100),
                "the probe stalled"
            );
            cl.run_until(t);
        }
        let seen: Vec<_> = during.borrow().iter().map(|r| (r.status, r.aux)).collect();
        assert_eq!(
            seen,
            [(IoStatus::Ok, CACHE_DENY), (IoStatus::RetryAfter, 0)]
        );
        assert_eq!(
            row_of(&team, file),
            (1, false, 0),
            "the pull is still failing"
        );
        cl.run();
        assert_eq!(
            row_of(&team, file),
            (0, false, 0),
            "the failed pull closed its window"
        );
        assert_eq!(
            team.stats.borrow().writes,
            1,
            "the torn write never committed"
        );

        let now = cl.now();
        let replies = probe(&mut cl, 3, team.server, vec![(now, begin(file))]);
        cl.run();
        assert_eq!(replies.borrow()[0].status, IoStatus::Ok);
        assert_eq!(row_of(&team, file), (0, true, 0));
    }

    /// One count gates both readers of a write in flight, on a 2-worker
    /// team. While a write to the file waits at the disk, a
    /// `MigrateBegin` is refused with `RetryAfter` and sets no drain
    /// (the rebalancer's skipped-busy path), and a `ReadCached` served
    /// from the read-ahead slot is denied a grant and not registered.
    /// After the commit both are answered normally.
    #[test]
    fn one_write_in_flight_gates_the_drain_and_the_cache() {
        let cfg = ClusterConfig::three_mb().with_hosts(3, CpuSpeed::Mc68000At10MHz);
        let mut cl = Cluster::new(cfg);
        let mut store = BlockStore::new();
        let file = store.create_with("f", &[0x7E; 8 * BLOCK_SIZE]).unwrap();
        let fs_cfg = FileServerConfig {
            disk: DiskModel::fixed(SimDuration::from_millis(40)),
            workers: 2,
            cache_mode: CacheMode::WriteInvalidate,
            ..FileServerConfig::default()
        };
        let team = spawn_file_server(&mut cl, HostId(0), fs_cfg, store);
        let cache = Rc::new(RefCell::new(BlockCache::new(8)));
        let agent = cl.spawn(HostId(1), "cache-agent", Box::new(CacheAgent::new(cache)));
        cl.run();
        let t0 = cl.now();
        let at = |offset: u64| t0 + SimDuration::from_millis(offset);
        let cached = |block: u32| -> Request {
            Box::new(move |_| stub::read_cached(file, block, 512, 0x1000, agent.raw(), 0))
        };

        // Block 0 registers the agent and starts the read-ahead of
        // block 1, ready long before the write arrives at 100 ms; the
        // write's callback and disk wait hold it in flight past 140 ms.
        let replies = probe(
            &mut cl,
            1,
            team.server,
            vec![
                (at(0), cached(0)),
                (at(110), begin(file)),
                (at(120), cached(1)),
                (at(300), cached(1)),
                (at(400), begin(file)),
            ],
        );
        let write = move |_| stub::write(file, 2, BLOCK_SIZE as u32, 0x1000, 0, 9);
        let written = probe(&mut cl, 2, team.server, vec![(at(100), Box::new(write))]);
        cl.run_until(at(140));
        {
            let got = replies.borrow();
            let seen: Vec<_> = got.iter().map(|r| (r.status, r.aux)).collect();
            assert_eq!(
                seen,
                [
                    (IoStatus::Ok, CACHE_UNTIL_INVALIDATED),
                    (IoStatus::RetryAfter, 0),
                    (IoStatus::Ok, CACHE_DENY),
                ]
            );
        }
        assert_eq!(
            row_of(&team, file),
            (1, false, 0),
            "in flight, no drain, no holder"
        );
        assert!(
            written.borrow().is_empty(),
            "the write is still at the disk"
        );

        cl.run();
        assert_eq!(written.borrow()[0].status, IoStatus::Ok);
        let got = replies.borrow();
        assert_eq!(
            (got[3].status, got[3].aux),
            (IoStatus::Ok, CACHE_UNTIL_INVALIDATED)
        );
        assert_eq!(got[4].status, IoStatus::Ok);
        assert_eq!(row_of(&team, file), (0, true, 1), "drained, one holder");
        let st = team.stats.borrow();
        assert_eq!((st.readahead_hits, st.invalidations), (1, 1), "{st:?}");
    }

    /// A default server has one disk arm, and one arm installs the disk
    /// exactly as configured — no striping layer.
    #[test]
    fn one_arm_is_the_default_and_builds_the_disk_as_given() {
        let cfg = FileServerConfig {
            disk: DiskModel::fixed(SimDuration::from_millis(15)),
            ..FileServerConfig::default()
        };
        assert_eq!(FileServerConfig::default().disk_arms, 1);
        assert_eq!(cfg.disk_arms, 1);
        assert_eq!(format!("{:?}", cfg.build_disk()), format!("{:?}", cfg.disk));
    }
}
