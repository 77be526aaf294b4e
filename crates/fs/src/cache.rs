//! Client-side block caching with server-driven consistency.
//!
//! The paper (§6) argues raw page-at-a-time reads beat client caching
//! at 1983 RAM sizes; this module inverts the question. A workstation
//! gets a configurable [`BlockCache`] (capacity in blocks, LRU
//! eviction, keyed by `(file id, block)` so shard/replica id ranges
//! partition naturally), layered into the read path of [`FsClient`]
//! on any route (one server, shards, replicas).
//!
//! Consistency is the server's job, selected by [`CacheMode`]:
//!
//! * **`Off`** — no cache, no agent; the client is construction- and
//!   wire-identical to the pre-cache client ([`spawn_caching_client`]
//!   spawns it and nothing else).
//! * **`WriteInvalidate`** — cached reads go out as
//!   [`IoOp::ReadCached`] carrying the client's cache-agent pid; the
//!   server records the agent as a *holder* of the file and, before
//!   acknowledging any write, sends each holder an
//!   [`IoOp::Invalidate`] callback (an ordinary V message — no kernel
//!   or transport changes). A dead holder costs the writer one
//!   failure-detection budget and is dropped, never wedging the write.
//! * **`Leases`** — instead of callbacks the server grants each cached
//!   read a time-bounded lease (reply `aux`, microseconds). A write
//!   waits out the longest unexpired lease; crashed clients simply
//!   expire.
//!
//! Two races are closed explicitly. A read in flight across a write
//! must not install stale data: the client snapshots the cache's
//! per-file version when it issues and skips the insert if an
//! invalidation bumped it meanwhile. A read *dispatched during* a
//! pending write never becomes a holder at all: the server answers it
//! with a [`CACHE_DENY`] grant (see `write_pending` in the server).

use std::cell::RefCell;
use std::rc::Rc;

use v_kernel::{Api, Cluster, HostId, Outcome, Pid, Program};
use v_sim::{FixedMap, SimDuration, SimTime};

use crate::client::{FsCall, FsClient, DATA_BUF};
use crate::proto::{IoOp, IoReply, IoRequest, IoStatus, CACHE_DENY, CACHE_UNTIL_INVALIDATED};
use crate::store::FileId;
use crate::BLOCK_SIZE;

/// Consistency scheme for client block caches, selected on the
/// *server* ([`FileServerConfig::cache_mode`]) and honored by caching
/// clients through the reply grant.
///
/// [`FileServerConfig::cache_mode`]: crate::server::FileServerConfig::cache_mode
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheMode {
    /// No caching: clients and servers behave exactly as before the
    /// cache layer existed.
    #[default]
    Off,
    /// Server tracks holders and calls them back before every write.
    WriteInvalidate,
    /// Server grants expiring read leases and writes wait them out.
    Leases,
}

/// Client-side cache knobs.
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Scheme; `Off` spawns a plain uncached client.
    pub mode: CacheMode,
    /// Cache capacity in blocks (LRU beyond this).
    pub capacity_blocks: usize,
}

impl CacheConfig {
    /// CPU charged per cache hit: a lookup plus a 512 B memory copy —
    /// hits are fast but not free.
    pub fn default_hit_cpu() -> SimDuration {
        SimDuration::from_micros(200)
    }

    /// No cache at all.
    pub fn off() -> CacheConfig {
        CacheConfig {
            mode: CacheMode::Off,
            capacity_blocks: 0,
        }
    }

    /// Write-invalidate cache of `capacity_blocks`.
    pub fn write_invalidate(capacity_blocks: usize) -> CacheConfig {
        CacheConfig {
            mode: CacheMode::WriteInvalidate,
            capacity_blocks,
        }
    }

    /// Lease-based cache of `capacity_blocks`.
    pub fn leases(capacity_blocks: usize) -> CacheConfig {
        CacheConfig {
            mode: CacheMode::Leases,
            capacity_blocks,
        }
    }
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig::off()
    }
}

/// Counters kept by a [`BlockCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that missed (including lease expiries).
    pub misses: u64,
    /// Blocks installed.
    pub insertions: u64,
    /// Blocks evicted by LRU pressure.
    pub evictions: u64,
    /// Server `Invalidate` callbacks answered by the agent.
    pub callbacks: u64,
    /// Blocks dropped by invalidations (callbacks and local write
    /// purges).
    pub invalidated_blocks: u64,
    /// Hits rejected because the entry's lease had expired.
    pub lease_expirations: u64,
    /// Read replies not installed because the file was invalidated
    /// while the read was in flight.
    pub stale_skips: u64,
}

impl CacheStats {
    /// Hit rate over all lookups, in percent (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64 * 100.0
        }
    }
}

#[derive(Debug)]
struct Entry {
    data: Vec<u8>,
    /// LRU stamp: strictly increasing, so the coldest entry is unique.
    stamp: u64,
    /// Lease expiry; `None` = valid until invalidated.
    expires: Option<SimTime>,
}

/// A per-client block cache: LRU over `(file, block)` keys with
/// per-file version counters for in-flight-read coherence; under the
/// fixed hasher, so the same in every process down to `Debug` output.
#[derive(Debug)]
pub struct BlockCache {
    capacity: usize,
    tick: u64,
    blocks: FixedMap<(u16, u32), Entry>,
    versions: FixedMap<u16, u64>,
    /// Counters.
    pub stats: CacheStats,
}

impl BlockCache {
    /// An empty cache holding at most `capacity` blocks.
    pub fn new(capacity: usize) -> BlockCache {
        BlockCache {
            capacity,
            tick: 0,
            blocks: FixedMap::default(),
            versions: FixedMap::default(),
            stats: CacheStats::default(),
        }
    }

    /// Cached blocks currently held.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// A hit in place: hands the first `count` bytes of a block to `take`
    /// where they lie, honoring lease expiry against `now` and refreshing
    /// LRU recency — one probe of the map, and no copy but the one `take`
    /// makes. `None` (and `take` not called) is a miss.
    pub fn hit<R>(
        &mut self,
        file: FileId,
        block: u32,
        count: usize,
        now: SimTime,
        take: impl FnOnce(&[u8]) -> R,
    ) -> Option<R> {
        let key = (file.0, block);
        match self.blocks.get_mut(&key) {
            Some(e) if e.expires.is_some_and(|t| t <= now) => {
                self.blocks.remove(&key);
                self.stats.lease_expirations += 1;
            }
            Some(e) if e.data.len() >= count => {
                self.tick += 1;
                e.stamp = self.tick;
                self.stats.hits += 1;
                return Some(take(&e.data[..count]));
            }
            _ => {}
        }
        self.stats.misses += 1;
        None
    }

    /// [`BlockCache::hit`] returning an owned copy of the `n` bytes.
    pub fn lookup(&mut self, file: FileId, block: u32, n: usize, now: SimTime) -> Option<Vec<u8>> {
        self.hit(file, block, n, now, <[u8]>::to_vec)
    }

    /// Installs a block, evicting the least-recently-used entry when
    /// full. `expires` carries the lease (if any).
    pub fn insert(&mut self, file: FileId, block: u32, data: Vec<u8>, expires: Option<SimTime>) {
        if self.capacity == 0 {
            return;
        }
        let key = (file.0, block);
        if !self.blocks.contains_key(&key) && self.blocks.len() >= self.capacity {
            let victim = self
                .blocks
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| *k)
                .expect("non-empty at capacity");
            self.blocks.remove(&victim);
            self.stats.evictions += 1;
        }
        self.tick += 1;
        self.blocks.insert(
            key,
            Entry {
                data,
                stamp: self.tick,
                expires,
            },
        );
        self.stats.insertions += 1;
    }

    /// The file's invalidation version (bumped by every invalidation).
    pub fn version(&self, file: FileId) -> u64 {
        self.versions.get(&file.0).copied().unwrap_or(0)
    }

    /// Drops every cached block of `file` and bumps its version so
    /// in-flight reads refuse to install; returns the drop count.
    pub fn invalidate_file(&mut self, file: FileId) -> usize {
        *self.versions.entry(file.0).or_insert(0) += 1;
        let before = self.blocks.len();
        self.blocks.retain(|k, _| k.0 != file.0);
        let dropped = before - self.blocks.len();
        self.stats.invalidated_blocks += dropped as u64;
        dropped
    }

    /// Test/report hook: the cached bytes of a block, if held and
    /// unexpired bookkeeping aside (no stats, no LRU effect).
    pub fn peek(&self, file: FileId, block: u32) -> Option<&[u8]> {
        self.blocks.get(&(file.0, block)).map(|e| e.data.as_slice())
    }
}

/// The per-client invalidation-callback process: sits in `Receive` and
/// answers server [`IoOp::Invalidate`] messages by purging the file
/// from the shared [`BlockCache`]. Crashing its host makes the
/// server's callback fail with `HostDown` — the fault-model path the
/// consistency tests exercise.
pub struct CacheAgent {
    cache: Rc<RefCell<BlockCache>>,
}

impl CacheAgent {
    /// An agent serving `cache`.
    pub fn new(cache: Rc<RefCell<BlockCache>>) -> CacheAgent {
        CacheAgent { cache }
    }
}

impl Program for CacheAgent {
    fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
        match outcome {
            Outcome::Started => api.receive(),
            Outcome::Receive { from, msg } => {
                let reply = match IoRequest::decode(&msg) {
                    Some(req) if req.op == IoOp::Invalidate => {
                        let mut c = self.cache.borrow_mut();
                        let dropped = c.invalidate_file(req.file);
                        c.stats.callbacks += 1;
                        IoReply {
                            status: IoStatus::Ok,
                            file: req.file,
                            value: dropped as u32,
                            aux: 0,
                            owner: 0,
                            tag: req.tag,
                        }
                    }
                    _ => IoReply {
                        status: IoStatus::Error,
                        file: FileId(0),
                        value: 0,
                        aux: 0,
                        owner: 0,
                        tag: 0,
                    },
                };
                let _ = api.reply(reply.encode(), from);
                api.receive();
            }
            _ => api.exit(),
        }
    }
}

/// The cache hooks a caching client carries: the shared cache, the
/// agent's pid (advertised to servers in `ReadCached` requests), and
/// the per-hit CPU charge.
pub struct CacheLayer {
    cache: Rc<RefCell<BlockCache>>,
    agent: Pid,
    hit_cpu: SimDuration,
    /// Version snapshot taken when the in-flight read was issued.
    issued_version: u64,
}

/// Reads a cacheable single-block call's `(block, count)`.
fn cacheable_read(call: &FsCall) -> Option<(u32, u32)> {
    match call {
        FsCall::ReadExpect { block, count, .. } | FsCall::ReadAny { block, count }
            if *count as usize <= BLOCK_SIZE =>
        {
            Some((*block, *count))
        }
        _ => None,
    }
}

impl CacheLayer {
    /// A layer over `cache`, served by `agent`.
    pub fn new(cache: Rc<RefCell<BlockCache>>, agent: Pid, hit_cpu: SimDuration) -> CacheLayer {
        CacheLayer {
            cache,
            agent,
            hit_cpu,
            issued_version: 0,
        }
    }

    /// CPU charged per hit.
    pub fn hit_cpu(&self) -> SimDuration {
        self.hit_cpu
    }

    /// The agent pid as the request `aux` word.
    pub fn agent_aux(&self) -> u32 {
        self.agent.raw()
    }

    /// Serves a read from the cache if it can: the block is copied once,
    /// cache to the client's [`DATA_BUF`], and its length returned. Nobody
    /// else writes a computing client's buffer, so depositing now rather
    /// than when the hit's CPU charge has run reads the same.
    pub(crate) fn hit(&mut self, api: &mut Api<'_>, call: &FsCall, file: FileId) -> Option<u32> {
        let (block, count) = cacheable_read(call)?;
        let (now, mut cache) = (api.now(), self.cache.borrow_mut());
        cache.hit(file, block, count as usize, now, |data| {
            api.mem_write(DATA_BUF, data).expect("fits");
            count
        })
    }

    /// Bookkeeping at issue time: writes purge the file locally (the
    /// server invalidates everyone else); reads snapshot the file
    /// version for the in-flight coherence check.
    pub(crate) fn on_issue(&mut self, call: &FsCall, file: FileId) {
        match call {
            FsCall::WriteFill { .. } => {
                self.cache.borrow_mut().invalidate_file(file);
            }
            _ => self.issued_version = self.cache.borrow().version(file),
        }
    }

    /// Installs a successful read reply's data, honoring the server's
    /// cacheability grant and the in-flight version check.
    pub(crate) fn install_reply(
        &mut self,
        api: &Api<'_>,
        call: &FsCall,
        file: FileId,
        reply: &IoReply,
        now: SimTime,
    ) {
        if reply.status != IoStatus::Ok {
            return;
        }
        let Some((block, count)) = cacheable_read(call) else {
            return;
        };
        let expires = match reply.aux {
            CACHE_DENY => return,
            CACHE_UNTIL_INVALIDATED => None,
            lease_us => Some(now + SimDuration::from_micros(lease_us as u64)),
        };
        let n = reply.value.min(count) as usize;
        if n == 0 {
            return;
        }
        let mut c = self.cache.borrow_mut();
        if c.version(file) != self.issued_version {
            c.stats.stale_skips += 1;
            return;
        }
        let data = api.mem_read(DATA_BUF, n).expect("fits");
        c.insert(file, block, data, expires);
    }
}

/// Handles to a spawned caching client: the client pid plus, when a
/// cache was attached, the agent pid and the shared cache for stats.
pub struct CachingClient {
    /// The scripted client process.
    pub client: Pid,
    /// The invalidation agent (None in `Off` mode).
    pub agent: Option<Pid>,
    /// The shared cache (None in `Off` mode).
    pub cache: Option<Rc<RefCell<BlockCache>>>,
}

impl CachingClient {
    /// Snapshot of the cache counters (zeroes in `Off` mode).
    pub fn stats(&self) -> CacheStats {
        self.cache
            .as_ref()
            .map(|c| c.borrow().stats)
            .unwrap_or_default()
    }
}

/// Spawns `client` — a built [`FsClient`] of any route — on `host`. In
/// `Off` mode this spawns exactly the pre-cache client and nothing
/// else; otherwise it first spawns a [`CacheAgent`] sharing a fresh
/// [`BlockCache`] with the client.
pub fn spawn_caching_client(
    cl: &mut Cluster,
    host: HostId,
    mut client: FsClient,
    cfg: &CacheConfig,
) -> CachingClient {
    let (mut agent, mut cache) = (None, None);
    if cfg.mode != CacheMode::Off && cfg.capacity_blocks > 0 {
        let shared = Rc::new(RefCell::new(BlockCache::new(cfg.capacity_blocks)));
        let pid = cl.spawn(
            host,
            "cache-agent",
            Box::new(CacheAgent::new(shared.clone())),
        );
        client = client.with_cache(CacheLayer::new(
            shared.clone(),
            pid,
            CacheConfig::default_hit_cpu(),
        ));
        (agent, cache) = (Some(pid), Some(shared));
    }
    CachingClient {
        client: cl.spawn(host, "fsclient", Box::new(client)),
        agent,
        cache,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn lru_evicts_the_coldest_block() {
        let mut c = BlockCache::new(2);
        c.insert(FileId(1), 0, vec![0xAA; 512], None);
        c.insert(FileId(1), 1, vec![0xBB; 512], None);
        // Touch block 0 so block 1 is the LRU victim.
        assert!(c.lookup(FileId(1), 0, 512, t(0)).is_some());
        c.insert(FileId(1), 2, vec![0xCC; 512], None);
        assert_eq!(c.len(), 2);
        assert!(c.peek(FileId(1), 0).is_some());
        assert!(c.peek(FileId(1), 1).is_none(), "LRU block must go");
        assert!(c.peek(FileId(1), 2).is_some());
        assert_eq!(c.stats.evictions, 1);
    }

    #[test]
    fn leases_expire_at_lookup_time() {
        let mut c = BlockCache::new(4);
        c.insert(FileId(1), 0, vec![0xAA; 512], Some(t(10)));
        assert!(c.lookup(FileId(1), 0, 512, t(5)).is_some());
        assert!(c.lookup(FileId(1), 0, 512, t(10)).is_none());
        assert_eq!(c.stats.lease_expirations, 1);
        assert!(c.is_empty());
    }

    #[test]
    fn invalidation_bumps_the_version_and_drops_blocks() {
        let mut c = BlockCache::new(4);
        c.insert(FileId(1), 0, vec![0xAA; 512], None);
        c.insert(FileId(2), 0, vec![0xBB; 512], None);
        let v = c.version(FileId(1));
        assert_eq!(c.invalidate_file(FileId(1)), 1);
        assert_eq!(c.version(FileId(1)), v + 1);
        assert!(c.peek(FileId(1), 0).is_none());
        assert!(c.peek(FileId(2), 0).is_some(), "other files untouched");
    }

    #[test]
    fn short_reads_hit_only_when_enough_bytes_are_cached() {
        let mut c = BlockCache::new(4);
        c.insert(FileId(1), 0, vec![0xAA; 256], None);
        assert!(c.lookup(FileId(1), 0, 128, t(0)).is_some());
        assert!(c.lookup(FileId(1), 0, 512, t(0)).is_none());
    }

    /// With the cache off — by mode, or by a zero capacity — a caching
    /// client is the plain client: one process, no agent, no cache.
    #[test]
    fn a_cache_that_is_off_spawns_the_plain_client_alone() {
        use crate::client::FsClientReport;
        use v_kernel::{ClusterConfig, CpuSpeed};
        for cfg in [CacheConfig::off(), CacheConfig::write_invalidate(0)] {
            let mut cl =
                Cluster::new(ClusterConfig::three_mb().with_hosts(2, CpuSpeed::Mc68000At10MHz));
            let server = crate::team::spawn_file_server(
                &mut cl,
                HostId(1),
                Default::default(),
                Default::default(),
            )
            .server;
            let report = Rc::new(RefCell::new(FsClientReport::default()));
            let client = FsClient::new(server, vec![FsCall::Open("f".into())], report);
            let handle = spawn_caching_client(&mut cl, HostId(0), client, &cfg);
            assert_eq!(cl.kernel_stats(HostId(0)).processes_spawned, 1, "{cfg:?}");
            assert!(handle.agent.is_none(), "{cfg:?}");
            assert!(handle.cache.is_none(), "{cfg:?}");
        }
    }
}
