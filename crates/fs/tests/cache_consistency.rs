//! The client cache's consistency contract under races and crashes.
//!
//! These tests pin the fault-model half of the caching design:
//!
//! * a write racing a caching reader never lets the reader observe
//!   stale bytes — holders are registered at dispatch and fenced by the
//!   file's in-flight write count (open from the write's dispatch to its
//!   commit), so the race resolves to an invalidation or a denied grant,
//!   never a silent stale hit;
//! * a crashed caching client cannot wedge a writer: write-invalidate
//!   pays one kernel `HostDown` detection for the dead holder's
//!   callback and moves on; leases never contact holders at all, so a
//!   crash costs the writer nothing beyond the bounded lease wait;
//! * a warm cache keeps serving across a replica crash — hits never
//!   touch the wire, so they cannot even notice the dead server, and
//!   the first *miss* afterwards pays the ordinary failover.

use std::cell::RefCell;
use std::rc::Rc;

use v_fs::client::{FsCall, FsClient, FsClientReport};
use v_fs::replica::spawn_replica_group;
use v_fs::{
    spawn_caching_client, spawn_file_server, BlockStore, CacheConfig, CacheMode, DiskModel,
    FileServerConfig, BLOCK_SIZE,
};
use v_kernel::{Cluster, ClusterConfig, CpuSpeed, HostId};
use v_sim::{SimDuration, SimTime};

const FILL: u8 = 0x6C;

fn volume() -> BlockStore {
    let mut store = BlockStore::new();
    store
        .create_with("vol", &vec![FILL; 16 * BLOCK_SIZE])
        .unwrap();
    store
}

fn server_cfg(mode: CacheMode) -> FileServerConfig {
    FileServerConfig {
        disk: DiskModel::fixed(SimDuration::from_millis(2)),
        cache_mode: mode,
        ..FileServerConfig::default()
    }
}

fn read_script(blocks: u32, passes: u32) -> Vec<FsCall> {
    let mut script = vec![FsCall::Open("vol".into())];
    for _ in 0..passes {
        for b in 0..blocks {
            script.push(FsCall::ReadExpect {
                block: b,
                count: BLOCK_SIZE as u32,
                expect: FILL,
            });
        }
    }
    script
}

fn write_script(blocks: u32) -> Vec<FsCall> {
    let mut script = vec![FsCall::Open("vol".into())];
    for b in 0..blocks {
        script.push(FsCall::WriteFill {
            block: b,
            count: BLOCK_SIZE as u32,
            fill: FILL,
        });
    }
    script
}

/// A writer racing a caching reader on a worker-team server: every
/// read the reader verifies is current (the writer re-fills the same
/// byte, so any stale short-circuit would still have to come from the
/// cache layer misbehaving, and the invalidation machinery must
/// actually fire mid-script). Workers share one file table, so a
/// write dispatched through one worker invalidates a grant issued
/// through another.
#[test]
fn write_racing_cached_reads_invalidates_instead_of_serving_stale() {
    let mut cl = Cluster::new(ClusterConfig::three_mb().with_hosts(3, CpuSpeed::Mc68000At10MHz));
    let cfg = FileServerConfig {
        workers: 2,
        ..server_cfg(CacheMode::WriteInvalidate)
    };
    let team = spawn_file_server(&mut cl, HostId(2), cfg, volume());
    cl.run();

    let rrep = Rc::new(RefCell::new(FsClientReport::default()));
    let reader = spawn_caching_client(
        &mut cl,
        HostId(0),
        FsClient::new(team.server, read_script(4, 40), rrep.clone()),
        &CacheConfig::blocks(16),
    );
    let wrep = Rc::new(RefCell::new(FsClientReport::default()));
    cl.spawn(
        HostId(1),
        "writer",
        Box::new(FsClient::new(team.server, write_script(4), wrep.clone())),
    );
    cl.run();

    let r = rrep.borrow().clone();
    let w = wrep.borrow().clone();
    assert!(r.done && r.errors == 0, "reader: {r:?}");
    assert_eq!(
        r.integrity_errors, 0,
        "stale bytes reached the reader: {r:?}"
    );
    assert!(w.done && w.errors == 0, "writer: {w:?}");
    let stats = team.stats.borrow().clone();
    assert!(
        stats.invalidations >= 1,
        "the race never exercised a callback: {stats:?}"
    );
    let cache = reader.stats();
    assert!(cache.hits > 0, "the reader never hit: {cache:?}");
    assert!(
        cache.invalidated_blocks >= 1,
        "no cached block was ever dropped by a callback: {cache:?}"
    );
}

/// A write-invalidate holder whose host crashed must not wedge a
/// writer: the invalidation callback to the dead agent fails through
/// the kernel's `HostDown` detection (one bounded wait), the holder is
/// dropped, and the write commits. A second write to the same file
/// pays nothing — the dead holder is gone.
#[test]
fn crashed_holder_costs_one_detection_and_never_wedges_the_writer() {
    let mut cl = Cluster::new(ClusterConfig::three_mb().with_hosts(3, CpuSpeed::Mc68000At10MHz));
    let team = spawn_file_server(
        &mut cl,
        HostId(2),
        server_cfg(CacheMode::WriteInvalidate),
        volume(),
    );
    cl.run();

    // Warm a caching reader, then kill its host: the server still
    // remembers the (now unreachable) holder.
    let rrep = Rc::new(RefCell::new(FsClientReport::default()));
    spawn_caching_client(
        &mut cl,
        HostId(0),
        FsClient::new(team.server, read_script(4, 1), rrep.clone()),
        &CacheConfig::blocks(16),
    );
    cl.run();
    assert!(rrep.borrow().done, "warm phase: {:?}", rrep.borrow());
    cl.crash_host(HostId(0));

    let wrep = Rc::new(RefCell::new(FsClientReport::default()));
    cl.spawn(
        HostId(1),
        "writer",
        Box::new(FsClient::new(team.server, write_script(2), wrep.clone())),
    );
    cl.run();

    let w = wrep.borrow().clone();
    assert!(w.done && w.errors == 0, "writer must complete: {w:?}");
    let stats = team.stats.borrow().clone();
    assert_eq!(
        stats.invalidation_failures, 1,
        "exactly the first write's callback hits the dead host: {stats:?}"
    );
    assert_eq!(stats.invalidations, 0, "{stats:?}");
    // The wait is the kernel's bounded failure detection, not a hang:
    // seconds, not minutes — and only the first write pays it.
    assert!(
        w.elapsed_ms > 500.0,
        "the dead holder must cost a real detection wait: {w:?}"
    );
    assert!(w.elapsed_ms < 10_000.0, "detection must be bounded: {w:?}");
}

/// Under leases a crashed holder costs a writer nothing beyond the
/// lease clock: the server never contacts holders, so the write simply
/// waits out the unexpired grant and commits well inside a second.
#[test]
fn leases_let_writes_expire_past_a_crashed_holder() {
    let mut cl = Cluster::new(ClusterConfig::three_mb().with_hosts(3, CpuSpeed::Mc68000At10MHz));
    let cfg = server_cfg(CacheMode::Leases(SimDuration::from_millis(200)));
    let team = spawn_file_server(&mut cl, HostId(2), cfg, volume());
    cl.run();

    let rrep = Rc::new(RefCell::new(FsClientReport::default()));
    spawn_caching_client(
        &mut cl,
        HostId(0),
        FsClient::new(team.server, read_script(4, 1), rrep.clone()),
        &CacheConfig::blocks(16),
    );
    // Stop while the grants are still live, then kill the holder.
    cl.run_until(SimTime::from_millis(100));
    assert!(rrep.borrow().done, "warm phase: {:?}", rrep.borrow());
    cl.crash_host(HostId(0));

    let wrep = Rc::new(RefCell::new(FsClientReport::default()));
    cl.spawn(
        HostId(1),
        "writer",
        Box::new(FsClient::new(team.server, write_script(1), wrep.clone())),
    );
    cl.run();

    let w = wrep.borrow().clone();
    assert!(w.done && w.errors == 0, "writer must complete: {w:?}");
    let stats = team.stats.borrow().clone();
    assert_eq!(stats.lease_waits, 1, "{stats:?}");
    assert_eq!(stats.invalidations, 0, "leases never call back: {stats:?}");
    assert_eq!(stats.invalidation_failures, 0, "{stats:?}");
    assert!(
        w.elapsed_ms < 1000.0,
        "the wait is bounded by the 200 ms lease, not a detection: {w:?}"
    );
}

/// A warm cache rides through a replica crash: hits never touch the
/// wire, so reads of cached blocks keep completing against a dead
/// primary, and only the first miss afterwards pays the failover.
#[test]
fn warm_cache_serves_hits_across_a_replica_crash() {
    let mut cl = Cluster::new(ClusterConfig::three_mb().with_hosts(3, CpuSpeed::Mc68000At10MHz));
    let hosts = [HostId(0), HostId(1)];
    let mut store = BlockStore::new();
    store
        .create_with("vol", &vec![FILL; 16 * BLOCK_SIZE])
        .unwrap();
    let cfg = server_cfg(CacheMode::WriteInvalidate);
    let group = spawn_replica_group(&mut cl, &hosts, &cfg, &store);
    cl.run();

    // Warm blocks 0..4, then grind 2000 hit-reads over them (pure
    // local CPU — the crash lands in this window), then touch the
    // never-cached blocks 4..8.
    let mut script = read_script(4, 1);
    for i in 0..2000u32 {
        script.push(FsCall::ReadExpect {
            block: i % 4,
            count: BLOCK_SIZE as u32,
            expect: FILL,
        });
    }
    for b in 4..8u32 {
        script.push(FsCall::ReadExpect {
            block: b,
            count: BLOCK_SIZE as u32,
            expect: FILL,
        });
    }
    let ops = script.len() as u64;

    let rep = Rc::new(RefCell::new(FsClientReport::default()));
    let replicas = group.iter().map(|t| t.server).collect();
    let client = spawn_caching_client(
        &mut cl,
        HostId(2),
        FsClient::replicated(replicas, script, rep.clone()),
        &CacheConfig::blocks(16),
    );
    // Warm completes well before 100 ms; the hit grind runs for
    // hundreds of ms after it. Kill the primary mid-grind.
    cl.run_until(SimTime::from_millis(100));
    cl.crash_host(HostId(0));
    cl.run();

    let r = rep.borrow().clone();
    assert!(r.done && !r.gave_up, "{r:?}");
    assert_eq!(r.integrity_errors, 0, "{r:?}");
    assert_eq!(r.completed, ops, "{r:?}");
    assert_eq!(
        r.failovers, 1,
        "only the first post-crash miss touches the wire: {r:?}"
    );
    let stats = client.stats();
    assert!(
        stats.hits >= 2000,
        "the grind must be served locally: {stats:?}"
    );
}
