//! File access for diskless workstations.
//!
//! "Network interprocess communication is predominantly used for remote
//! file access since most SUN workstations at Stanford are configured
//! without a local disk." This crate provides the file-service side of
//! that arrangement, built — as the paper insists — *on top of* the
//! general-purpose V IPC rather than a specialized protocol:
//!
//! * [`disk`] — the disk model (per-request positioning latency +
//!   transfer time) standing in for the file server's spindles; a
//!   unit may stripe blocks over several independent arms
//!   ([`FileServerConfig::disk_arms`]) so concurrent requests overlap
//!   their seeks;
//! * [`store`] — an in-memory block store with a flat directory
//!   (create/lookup/read/write), the server's cache+filesystem state;
//! * [`proto`] — the Verex-style I/O protocol: file requests and replies
//!   packed into 32-byte V messages;
//! * [`server`] — the file-server process: page reads answered with
//!   `ReplyWithSegment`, page writes taken from the appended segment via
//!   `ReceiveWithSegment`, large reads broken into `MoveTo`s of at most
//!   one transfer unit (the paper's VAX server used 4 KB), sequential
//!   read-ahead against the disk model;
//! * [`team`] — server *teams*: a receptionist that `Forward`s each
//!   request to an idle worker, so disk waits on one request overlap
//!   receive and file-system processing on the next
//!   ([`FileServerConfig::workers`]; `1` = the paper's sequential
//!   server, bit-identical) — [`spawn_file_server`] is the one builder
//!   and [`FileServerTeam`] the one handle, whatever the deployment;
//! * [`client`] — the stub routines that format requests, and the one
//!   scripted [`FsClient`]: script cursor, cache hit path, reply check,
//!   retry-after backoff and bounded failover written once, with a
//!   private route (one server / name-hash shards / replica rotation)
//!   deciding only where the next request goes and what to do when that
//!   host is dead;
//! * [`shard`] — sharded placement: a name-hash [`ShardMap`] partitions
//!   the directory over several ordinary [`spawn_file_server`]s (one
//!   per segment of a mesh, typically), each registered under a
//!   distinct logical id; the client's sharded route resolves them and
//!   caches the owning server per file, and a [`ShardOverlay`] records
//!   where migrated files went;
//! * [`loader`] — program loading exactly as §6.3 describes (one block
//!   read for the header, then one large read via `MoveTo` into the new
//!   program space) and the §7 exec server that runs programs *on* the
//!   file server;
//! * [`replica`] — a replicated *read-only* root: N identical replicas
//!   spawned from clones of one [`BlockStore`] (so file ids agree
//!   everywhere); the client's replica route fails over to the next
//!   one when the kernel reports a replica's host down;
//! * [`cache`] — per-client block caching ([`BlockCache`] + the
//!   invalidation [`CacheAgent`](cache::CacheAgent)) with a
//!   write-invalidate or lease consistency protocol driven by the
//!   server ([`CacheMode`]); `Off` is bit-identical to the pre-cache
//!   client;
//! * [`migrate`] — live file migration between shards: a four-exchange
//!   drain → copy → commit protocol built from ordinary V exchanges,
//!   with a destination-side [`MigrationAgent`](migrate::MigrationAgent)
//!   ([`FileServerTeam::attach_migration_agent`]) pulling blocks as
//!   plain reads and the old owner `Forward`ing stale requests after
//!   the flip;
//! * [`rebalance`] — the policy half: a [`Rebalancer`] process samples
//!   each shard's decayed [`FileHeat`], and while the hottest shard
//!   sits outside a fixed band of the mean it issues move-plans
//!   for the hottest files until the shards converge.

pub mod cache;
pub mod client;
pub mod disk;
pub mod loader;
pub mod migrate;
pub mod proto;
pub mod rebalance;
pub mod replica;
pub mod server;
pub mod shard;
pub mod store;
pub mod team;

pub use cache::{spawn_caching_client, BlockCache, CacheConfig, CacheMode, CacheStats};
pub use client::{FsCall, FsClient, FsClientReport, OpSeries};
pub use disk::{DiskModel, DiskStats};
pub use proto::{IoReply, IoRequest, IoStatus};
pub use rebalance::{spawn_rebalancer, MigrationLedger, MoveRecord, Rebalancer, RebalancerConfig};
pub use replica::spawn_replica_group;
pub use server::{FileHeat, FileServerConfig, FileServerStats, HeatEntry};
pub use shard::{ShardMap, ShardOverlay, ShardedFsClient};
pub use store::BlockStore;
pub use team::{spawn_file_server, FileServerTeam};

/// The file system's block (page) size, matching the paper's 512-byte
/// pages.
pub const BLOCK_SIZE: usize = 512;
