//! Sharded file-service placement.
//!
//! The paper runs **one** file server on one segment; the cluster
//! deployments that followed (shared-root NFS clusters, AutoClient
//! farms) partition the file service across machines so most page reads
//! stay close to the client. This module provides that arrangement on
//! top of the ordinary V IPC — no protocol change, exactly as the paper
//! insists file access needs none:
//!
//! * [`ShardMap`] — a deterministic directory partition: file *names*
//!   hash to one of `N` shards, and each shard's file server
//!   registers under a distinct well-known logical id;
//! * [`ShardOverlay`] — per-file placement overrides on top of the
//!   hash: the record of every migration the rebalancer committed;
//! * the sharded route of [`FsClient`] ([`FsClient::sharded`] /
//!   [`FsClient::resolving`]) — each open or create goes to the owning
//!   shard by name, the owning server is **cached per file id** from
//!   the reply, and every later block operation goes to the cached
//!   owner. Owners can be supplied directly or resolved mesh-wide with
//!   broadcast `GetPid` (the flood crosses every gateway of a
//!   `v_net::MeshConfig` topology).
//!
//! A shard's server is an ordinary [`crate::team::spawn_file_server`]
//! whose config says `register: Some(map.logical_id(shard))` and whose
//! store allocates from [`ShardMap::id_base`].

use std::collections::HashMap;

use v_kernel::Pid;

use crate::client::FsClient;
use crate::store::{BlockStore, FileId};

/// First logical id of the sharded file-service range: shard `i`
/// registers as `SHARD_LOGICAL_BASE + i`. Distinct from the well-known
/// single-server ids in [`v_kernel::naming::logical`].
pub const SHARD_LOGICAL_BASE: u32 = 0x40;

/// A deterministic directory partition over `N` file-service shards.
///
/// Placement is by file *name* (FNV-1a), so every kernel computes the
/// same owner with no metadata service in the loop; the owning server
/// for an already-open file is whatever server answered the open, which
/// the client caches per file id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMap {
    shards: usize,
}

impl ShardMap {
    /// A map over `shards` servers.
    pub fn new(shards: usize) -> ShardMap {
        assert!(shards >= 1, "a shard map needs at least one shard");
        assert!(
            shards <= (u16::MAX as usize) + 1,
            "{shards} shards cannot get disjoint file-id ranges from a 16-bit id space"
        );
        ShardMap { shards }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning a file name (FNV-1a over the bytes).
    pub fn shard_of_name(&self, name: &str) -> usize {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in name.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        (h % self.shards as u64) as usize
    }

    /// The well-known logical id shard `i`'s server registers under.
    pub fn logical_id(&self, shard: usize) -> u32 {
        assert!(shard < self.shards, "shard {shard} of {}", self.shards);
        SHARD_LOGICAL_BASE + shard as u32
    }

    /// Width of each shard's disjoint file-id range:
    /// [`BlockStore::MAX_FILES`] for up to 16 shards (bit-identical to
    /// the historical fixed-width layout), narrowed to the largest
    /// power of two that still fits `shards` disjoint ranges into the
    /// 16-bit id space beyond that — the old hard 16-shard ceiling is
    /// gone. [`ShardMap::new`] rejects maps the id space cannot hold at
    /// all.
    pub fn id_range_width(&self) -> usize {
        let fit = ((u16::MAX as usize) + 1) / self.shards;
        debug_assert!(fit >= 1, "ShardMap::new caps shards at 65536");
        let pow2 = 1usize << (usize::BITS - 1 - fit.leading_zeros());
        pow2.min(BlockStore::MAX_FILES)
    }

    /// The file-id base shard `i`'s [`BlockStore`] should allocate from
    /// ([`BlockStore::with_id_range`], width
    /// [`ShardMap::id_range_width`]): disjoint ranges, so a file id
    /// never collides across shards and the client's owner cache
    /// stays sound.
    pub fn id_base(&self, shard: usize) -> u16 {
        assert!(shard < self.shards, "shard {shard} of {}", self.shards);
        (shard * self.id_range_width()) as u16
    }

    /// The shard whose id range holds `file` — the inverse of
    /// [`ShardMap::id_base`], clamped into range for ids beyond the
    /// last shard's allocation.
    pub fn shard_of_id(&self, file: FileId) -> usize {
        (file.0 as usize / self.id_range_width()).min(self.shards - 1)
    }

    /// A file name that hashes to `shard`: `stem` plus the smallest
    /// numeric suffix that lands there. Deterministic; used by tests and
    /// benches to pin a file's placement.
    pub fn name_for_shard(&self, shard: usize, stem: &str) -> String {
        assert!(shard < self.shards, "shard {shard} of {}", self.shards);
        (0u32..)
            .map(|i| format!("{stem}.{i}"))
            .find(|name| self.shard_of_name(name) == shard)
            .expect("some suffix hashes to every shard")
    }
}

/// Per-file placement overrides layered over a [`ShardMap`]: the
/// authoritative record of every migration the rebalancer has
/// committed, consulted *before* the name hash / id range when a
/// client routes a request.
///
/// Shared (`Rc<RefCell<…>>`) between the [`crate::rebalance::Rebalancer`]
/// that writes it and the sharded [`FsClient`]s that read it. A client
/// without the overlay still works — its stale request reaches the old
/// owner, which `Forward`s it to the new one and the reply's `owner`
/// stamp corrects the client's cache — the overlay just skips that
/// extra hop for files it knows about, and is the failover route when
/// the old owner is dead and can no longer forward anything.
#[derive(Debug, Clone, Default)]
pub struct ShardOverlay {
    by_id: HashMap<u16, Pid>,
    by_name: HashMap<String, Pid>,
}

impl ShardOverlay {
    /// An empty overlay (every file still lives where the hash put it).
    pub fn new() -> ShardOverlay {
        ShardOverlay::default()
    }

    /// Records a committed migration: `file` (named `name`) is now
    /// served by `new_owner`. Later moves of the same file overwrite.
    pub fn record_move(&mut self, file: FileId, name: &str, new_owner: Pid) {
        self.by_id.insert(file.0, new_owner);
        self.by_name.insert(name.to_string(), new_owner);
    }

    /// The overriding owner of `file`, if it has migrated.
    pub fn owner_of_id(&self, file: FileId) -> Option<Pid> {
        self.by_id.get(&file.0).copied()
    }

    /// The overriding owner of `name`, if it has migrated.
    pub fn owner_of_name(&self, name: &str) -> Option<Pid> {
        self.by_name.get(name).copied()
    }

    /// Number of files with overridden placement.
    pub fn moves(&self) -> usize {
        self.by_id.len()
    }
}

/// The scripted client on its sharded route. Exists only because the
/// pinned benchmark (`bench/src/deploy.rs`) spells
/// `ShardedFsClient::resolving`; everything else says [`FsClient`].
pub type ShardedFsClient = FsClient;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{FsCall, FsClientReport};
    use crate::disk::DiskModel;
    use crate::server::FileServerConfig;
    use crate::team::spawn_file_server;
    use crate::BLOCK_SIZE;
    use v_kernel::{Cluster, ClusterConfig, CpuSpeed, HostId};
    use v_net::MeshConfig;
    use v_sim::SimDuration;

    #[test]
    fn shard_map_is_deterministic_and_covers_all_shards() {
        let map = ShardMap::new(3);
        let mut hit = [false; 3];
        for i in 0..32 {
            let s = map.shard_of_name(&format!("file{i}"));
            assert!(s < 3);
            assert_eq!(s, map.shard_of_name(&format!("file{i}")), "deterministic");
            hit[s] = true;
        }
        assert!(hit.iter().all(|&h| h), "names spread over every shard");
        for s in 0..3 {
            let name = map.name_for_shard(s, "vol");
            assert_eq!(map.shard_of_name(&name), s);
        }
        assert_eq!(map.logical_id(0), SHARD_LOGICAL_BASE);
    }

    /// A 3-segment line mesh with one shard server per segment and a
    /// client on segment 0; files pinned to each shard round-trip
    /// through open → read → write → read, with owners resolved
    /// mesh-wide by broadcast `GetPid`.
    #[test]
    fn sharded_access_works_across_a_mesh() {
        let map = ShardMap::new(3);
        let mut cfg = ClusterConfig::mesh(MeshConfig::line(3));
        for seg in 0..3 {
            cfg = cfg.with_host_on(CpuSpeed::Mc68000At10MHz, seg); // servers
        }
        cfg = cfg.with_host_on(CpuSpeed::Mc68000At10MHz, 0); // client
        let mut cl = Cluster::new(cfg);

        for shard in 0..3 {
            let mut store = BlockStore::with_id_base(map.id_base(shard));
            let name = map.name_for_shard(shard, "vol");
            store
                .create_with(&name, &vec![0x7E; 4 * BLOCK_SIZE])
                .unwrap();
            let fs_cfg = FileServerConfig {
                disk: DiskModel::fixed(SimDuration::from_millis(1)),
                register: Some(map.logical_id(shard)),
                ..FileServerConfig::default()
            };
            spawn_file_server(&mut cl, HostId(shard), fs_cfg, store);
        }
        cl.run(); // let every server reach its Receive

        let mut script = Vec::new();
        for shard in 0..3 {
            script.push(FsCall::Open(map.name_for_shard(shard, "vol")));
            script.push(FsCall::ReadExpect {
                block: 1,
                count: BLOCK_SIZE as u32,
                expect: 0x7E,
            });
            script.push(FsCall::WriteFill {
                block: 2,
                count: BLOCK_SIZE as u32,
                fill: 0x40 + shard as u8,
            });
            script.push(FsCall::ReadExpect {
                block: 2,
                count: BLOCK_SIZE as u32,
                expect: 0x40 + shard as u8,
            });
        }
        let rep = std::rc::Rc::new(std::cell::RefCell::new(FsClientReport::default()));
        cl.spawn(
            HostId(3),
            "shardclient",
            Box::new(FsClient::resolving(3, script, rep.clone())),
        );
        cl.run();

        let r = rep.borrow().clone();
        assert!(r.done, "{r:?}");
        assert_eq!(r.errors, 0, "{r:?}");
        assert_eq!(r.integrity_errors, 0, "{r:?}");
        assert_eq!(r.completed, 12);
        assert!(r.elapsed_ms > 0.0);
        // Shards 1 and 2 sit across gateways: traffic crossed the mesh.
        assert!(cl.gateway_stats_total().unwrap().forwarded > 0);
    }

    /// A failed open followed by block operations must degrade to
    /// server-side errors (routed by the file id's shard range), never
    /// panic — matching `FsClient` on the same bad script.
    #[test]
    fn failed_open_degrades_to_errors_not_a_panic() {
        let map = ShardMap::new(2);
        let cfg = ClusterConfig::three_mb().with_hosts(3, CpuSpeed::Mc68000At10MHz);
        let mut cl = Cluster::new(cfg);
        let mut servers = Vec::new();
        for shard in 0..2 {
            let store = BlockStore::with_id_base(map.id_base(shard));
            let fs_cfg = FileServerConfig {
                disk: DiskModel::fixed(SimDuration::from_millis(1)),
                register: None,
                ..FileServerConfig::default()
            };
            servers.push(spawn_file_server(&mut cl, HostId(shard), fs_cfg, store).server);
        }
        cl.run();
        let script = vec![
            FsCall::Open("missing".into()),
            FsCall::ReadExpect {
                block: 0,
                count: BLOCK_SIZE as u32,
                expect: 0x00,
            },
        ];
        let rep = std::rc::Rc::new(std::cell::RefCell::new(FsClientReport::default()));
        cl.spawn(
            HostId(2),
            "client",
            Box::new(FsClient::sharded(servers, script, rep.clone())),
        );
        cl.run();
        let r = rep.borrow().clone();
        assert!(r.done, "script must run to completion: {r:?}");
        assert_eq!(r.errors, 2, "open NotFound + read NotFound: {r:?}");
        assert_eq!(r.completed, 0);
    }

    /// The owner cache routes block operations without re-resolving:
    /// with the wrong server supplied for a file's shard, reads would
    /// fail — supplying the right map routes every op to the server
    /// that owns the file.
    #[test]
    fn owner_cache_routes_block_ops_to_the_opening_server() {
        let map = ShardMap::new(2);
        let cfg = ClusterConfig::three_mb().with_hosts(3, CpuSpeed::Mc68000At10MHz);
        let mut cl = Cluster::new(cfg);
        let mut servers = Vec::new();
        for shard in 0..2 {
            let mut store = BlockStore::with_id_base(map.id_base(shard));
            store
                .create_with(
                    &map.name_for_shard(shard, "f"),
                    &vec![0x11 * (shard as u8 + 1); 2 * BLOCK_SIZE],
                )
                .unwrap();
            let fs_cfg = FileServerConfig {
                disk: DiskModel::fixed(SimDuration::from_millis(1)),
                register: None,
                ..FileServerConfig::default()
            };
            servers.push(spawn_file_server(&mut cl, HostId(shard), fs_cfg, store).server);
        }
        cl.run();

        // Interleave the two files: the cache must switch owners per file.
        let script = vec![
            FsCall::Open(map.name_for_shard(0, "f")),
            FsCall::ReadExpect {
                block: 0,
                count: BLOCK_SIZE as u32,
                expect: 0x11,
            },
            FsCall::Open(map.name_for_shard(1, "f")),
            FsCall::ReadExpect {
                block: 0,
                count: BLOCK_SIZE as u32,
                expect: 0x22,
            },
        ];
        let rep = std::rc::Rc::new(std::cell::RefCell::new(FsClientReport::default()));
        cl.spawn(
            HostId(2),
            "client",
            Box::new(FsClient::sharded(servers, script, rep.clone())),
        );
        cl.run();
        let r = rep.borrow().clone();
        assert!(r.done && r.errors == 0 && r.integrity_errors == 0, "{r:?}");
        assert_eq!(r.completed, 4);
    }
}
