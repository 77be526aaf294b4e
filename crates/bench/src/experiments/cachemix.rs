//! Client-side block caching under mixed workloads.
//!
//! The paper's Table 6-1 charges the network for **every** page read;
//! its §6.3 observation that program loading (read-mostly shared text)
//! dominates diskless traffic is exactly the workload a per-client
//! block cache converts from network round trips into local hits. This
//! table quantifies that conversion — and its price, the consistency
//! protocol — across the axes that matter:
//!
//! * **cache size × working set** — a working set that fits the cache
//!   hits after one cold pass; one that thrashes pays the full Table
//!   6-1 latency plus the protocol's registration overhead;
//! * **sharing ratio** — a writer invalidating (or waiting out leases
//!   on) a concurrent reader's cache, at read-mostly and write-heavy
//!   mixes, under both consistency schemes;
//! * **invalidation storm** — one write against N warm caching
//!   readers: write-invalidate pays N callbacks before the write
//!   commits, leases pay one bounded expiry wait regardless of N;
//! * **boot-storm re-timings** (full run only) — the N=256 / N=1000
//!   storms rerun with a post-load shared-text reread phase, cached vs
//!   uncached: the per-load and served-load wins client caching buys.
//!
//! The uncached rows run with the cache off: `spawn_caching_client`
//! with `CacheConfig::off()` spawns the plain client and nothing else
//! (`v_fs`'s own test).

use v_fs::client::{FsCall, FsClient};
use v_fs::{
    spawn_caching_client, spawn_file_server, BlockStore, CacheConfig, CacheMode, CacheStats,
    DiskModel, FileServerConfig, FileServerStats, BLOCK_SIZE,
};
use v_kernel::{Cluster, ClusterConfig, CpuSpeed, HostId};
use v_sim::SimDuration;
use v_workloads::boot::{run_boot_storm, BootStormConfig};

use crate::report::Comparison;

use super::{read_script, run_clients, FILL, N_PAGES};

/// Blocks in the benchmark volume (bounds every working set below).
const VOL_BLOCKS: usize = 128;

/// The benchmark volume: one file, "vol", of [`VOL_BLOCKS`] blocks of
/// [`FILL`] (every write repeats the byte, so concurrent readers can
/// keep verifying content).
fn volume() -> BlockStore {
    let mut store = BlockStore::new();
    store
        .create_with("vol", &vec![FILL; VOL_BLOCKS * BLOCK_SIZE])
        .expect("fresh store");
    store
}

/// `Open("vol")`, then `writes` block writes of [`FILL`] cycling over
/// the first 8 blocks.
fn write_script(writes: u64) -> Vec<FsCall> {
    let mut script = vec![FsCall::Open("vol".into())];
    script.extend((0..writes).map(|i| FsCall::WriteFill {
        block: (i % 8) as u32,
        count: BLOCK_SIZE as u32,
        fill: FILL,
    }));
    script
}

/// A 2 ms-per-request disk behind a server running `mode`.
fn server_cfg(mode: CacheMode) -> FileServerConfig {
    FileServerConfig {
        disk: DiskModel::fixed(SimDuration::from_millis(2)),
        cache_mode: mode,
        ..FileServerConfig::default()
    }
}

/// The read-mix outcome: mean ms per script op, client cache counters,
/// and the server team's counters.
struct MixOutcome {
    per_op_ms: f64,
    cache: CacheStats,
    server: FileServerStats,
}

/// Runs `reads` 512-byte page reads cycling over a `working_set`-block
/// file, through a client cache arranged by `client`.
fn run_read_mix(
    server_mode: CacheMode,
    client: &CacheConfig,
    working_set: u32,
    reads: u64,
) -> MixOutcome {
    let speed = CpuSpeed::Mc68000At10MHz;
    let mut cl = Cluster::new(ClusterConfig::three_mb().with_hosts(2, speed));
    let team = spawn_file_server(&mut cl, HostId(1), server_cfg(server_mode), volume());
    cl.run();

    let mut handle = None;
    let reports = run_clients(&mut cl, 1, |cl, _, slot| {
        let script = read_script("vol", reads, working_set, FILL);
        let reader = FsClient::new(team.server, script, slot);
        handle = Some(spawn_caching_client(cl, HostId(0), reader, client));
    });
    let server = team.stats.borrow().clone();
    MixOutcome {
        per_op_ms: reports[0].elapsed_ms / (reads + 1) as f64,
        cache: handle.expect("the reader was spawned").stats(),
        server,
    }
}

/// The sharing-mix outcome: the caching reader's side, the writer's
/// side, and the server's consistency counters.
struct SharedOutcome {
    reader_ms: f64,
    hit_rate: f64,
    writer_ms: f64,
    server: FileServerStats,
}

/// A caching reader (working set 8 blocks, 64-block cache) racing a
/// plain writer over one shared file, under `scheme`. The writer's
/// fills repeat the volume's byte, so the reader verifies content
/// throughout. Leases run on a 200 ms lease — long enough to cover the
/// reader's revisit cycle (hits), short enough that the writer's waits
/// resolve inside the run.
fn run_shared(scheme: CacheMode, reads: u64, writes: u64) -> SharedOutcome {
    let speed = CpuSpeed::Mc68000At10MHz;
    let mut cl = Cluster::new(ClusterConfig::three_mb().with_hosts(3, speed));
    let cfg = FileServerConfig {
        lease: SimDuration::from_millis(200),
        ..server_cfg(scheme)
    };
    let team = spawn_file_server(&mut cl, HostId(2), cfg, volume());
    cl.run();

    let cache_cfg = CacheConfig {
        mode: scheme,
        capacity_blocks: 64,
    };
    let mut cached = None;
    let reports = run_clients(&mut cl, 2, |cl, i, slot| {
        if i == 0 {
            let reader = FsClient::new(team.server, read_script("vol", reads, 8, FILL), slot);
            cached = Some(spawn_caching_client(cl, HostId(0), reader, &cache_cfg));
        } else {
            let writer = FsClient::new(team.server, write_script(writes), slot);
            cl.spawn(HostId(1), "writer", Box::new(writer));
        }
    });
    let server = team.stats.borrow().clone();
    SharedOutcome {
        reader_ms: reports[0].elapsed_ms / (reads + 1) as f64,
        hit_rate: cached.expect("the reader was spawned").stats().hit_rate(),
        writer_ms: reports[1].elapsed_ms / (writes + 1) as f64,
        server,
    }
}

/// One write against `readers` warm caching readers under `scheme`:
/// returns (writer ms per op, server stats). Write-invalidate must call
/// back every holder before the write commits; leases wait out the last
/// unexpired grant, however many holders exist. The lease arm warms
/// under a 2 s lease and stops the clock at 800 ms ([`Cluster::run_for`])
/// so the write lands while every grant is still live — the regime the
/// scheme is priced for.
fn run_invalidation_storm(scheme: CacheMode, readers: usize) -> (f64, FileServerStats) {
    let speed = CpuSpeed::Mc68000At10MHz;
    let mut cl = Cluster::new(ClusterConfig::three_mb().with_hosts(readers + 2, speed));
    let cfg = FileServerConfig {
        lease: SimDuration::from_millis(8000),
        ..server_cfg(scheme)
    };
    let team = spawn_file_server(&mut cl, HostId(readers + 1), cfg, volume());
    cl.run();

    // Warm every reader's cache (each registers as a holder).
    let cache_cfg = CacheConfig {
        mode: scheme,
        capacity_blocks: 16,
    };
    let script = read_script("vol", 4, 4, FILL);
    run_clients(&mut cl, readers, |cl, h, slot| {
        let reader = FsClient::new(team.server, script.clone(), slot);
        spawn_caching_client(cl, HostId(h), reader, &cache_cfg);
    });

    // One write: the consistency protocol runs before it commits.
    let reports = run_clients(&mut cl, 1, |cl, _, slot| {
        let writer = FsClient::new(team.server, write_script(1), slot);
        cl.spawn(HostId(readers), "storm-writer", Box::new(writer));
    });
    let stats = team.stats.borrow().clone();
    (reports[0].elapsed_ms / 2.0, stats)
}

/// Boot-storm reread re-timing at `clients` hosts: uncached vs a
/// 64-block per-client cache over the same 8-block × 4-pass shared-text
/// reread.
fn storm_rows(c: &mut Comparison, clients: usize) {
    let mut base = BootStormConfig::new(clients);
    base.reread_blocks = 8;
    base.reread_passes = 4;
    let mut cached = base.clone();
    cached.client_cache = 64;
    let r0 = run_boot_storm(&base);
    let r1 = run_boot_storm(&cached);
    assert_eq!(r0.loaded as usize, clients, "uncached storm: {r0:?}");
    assert_eq!(r1.loaded as usize, clients, "cached storm: {r1:?}");
    c.push_ours(
        format!("boot storm N={clients}: reread per op, uncached"),
        r0.reread_ms_mean,
        "ms",
    );
    c.push_ours(
        format!("boot storm N={clients}: reread per op, cached"),
        r1.reread_ms_mean,
        "ms",
    );
    c.push_ours(
        format!("boot storm N={clients}: served load, uncached"),
        r0.reread_reqs_per_s,
        "req/s",
    );
    c.push_ours(
        format!("boot storm N={clients}: served load, cached"),
        r1.reread_reqs_per_s,
        "req/s",
    );
    c.push_ours(
        format!("boot storm N={clients}: served-load gain"),
        r1.reread_reqs_per_s / r0.reread_reqs_per_s,
        "x",
    );
    c.push_ours(
        format!("boot storm N={clients}: cache hits"),
        r1.cache_hits as f64,
        "hits",
    );
}

/// The cache-mix table with the full round count, including the
/// boot-storm re-timings.
pub fn cachemix() -> Comparison {
    cachemix_impl(N_PAGES.min(256), true)
}

/// [`cachemix`] with a configurable read count and no storm rows; the
/// CI smoke job runs a handful of reads to keep the check cheap.
pub fn cachemix_with_rounds(reads: u64) -> Comparison {
    cachemix_impl(reads, false)
}

fn cachemix_impl(reads: u64, storms: bool) -> Comparison {
    let mut c = Comparison::new(
        "Cachemix",
        "client block caching & consistency under mixed workloads, 10 MHz",
    );

    // --- the uncached client ------------------------------------------
    let off = run_read_mix(CacheMode::Off, &CacheConfig::off(), 8, reads);
    c.push_ours("page read 512 B, cache off", off.per_op_ms, "ms");

    // --- cache size × working set (write-invalidate) --------------------
    let fit = run_read_mix(
        CacheMode::WriteInvalidate,
        &CacheConfig::write_invalidate(64),
        8,
        reads,
    );
    let tight = run_read_mix(
        CacheMode::WriteInvalidate,
        &CacheConfig::write_invalidate(4),
        8,
        reads,
    );
    let thrash = run_read_mix(
        CacheMode::WriteInvalidate,
        &CacheConfig::write_invalidate(16),
        128,
        reads,
    );
    c.push_ours("ws=8 in 64-block cache: per read", fit.per_op_ms, "ms");
    c.push_ours(
        "ws=8 in 64-block cache: hit rate",
        fit.cache.hit_rate(),
        "%",
    );
    c.push_ours(
        "ws=8 in 64-block cache: speedup over uncached",
        off.per_op_ms / fit.per_op_ms,
        "x",
    );
    c.push_ours("ws=8 in 4-block cache: per read", tight.per_op_ms, "ms");
    c.push_ours(
        "ws=8 in 4-block cache: hit rate",
        tight.cache.hit_rate(),
        "%",
    );
    c.push_ours("ws=128 in 16-block cache: per read", thrash.per_op_ms, "ms");
    c.push_ours(
        "ws=128 in 16-block cache: hit rate",
        thrash.cache.hit_rate(),
        "%",
    );
    c.push_ours(
        "ws=128 in 16-block cache: evictions",
        thrash.cache.evictions as f64,
        "blocks",
    );
    let (heat_reads, _) = fit
        .server
        .heat
        .hottest()
        .map(|(f, _)| fit.server.heat.of(f))
        .unwrap_or((0, 0));
    c.push_ours(
        "server heat: reads of hottest file (ws=8 fit)",
        heat_reads as f64,
        "reads",
    );

    // --- leases on the same read-mostly mix -----------------------------
    let lease_fit = run_read_mix(CacheMode::Leases, &CacheConfig::leases(64), 8, reads);
    c.push_ours(
        "ws=8 in 64-block cache (leases): per read",
        lease_fit.per_op_ms,
        "ms",
    );
    c.push_ours(
        "ws=8 in 64-block cache (leases): hit rate",
        lease_fit.cache.hit_rate(),
        "%",
    );

    // --- sharing ratio × consistency scheme -----------------------------
    let heavy_writes = (reads / 8).max(2);
    let light_writes = (reads / 64).max(1);
    for (scheme, tag) in [
        (CacheMode::WriteInvalidate, "write-invalidate"),
        (CacheMode::Leases, "leases"),
    ] {
        let light = run_shared(scheme, reads, light_writes);
        let heavy = run_shared(scheme, reads, heavy_writes);
        c.push_ours(
            format!("shared 1:{}: reader per read, {tag}", reads / light_writes),
            light.reader_ms,
            "ms",
        );
        c.push_ours(
            format!("shared 1:{}: reader hit rate, {tag}", reads / light_writes),
            light.hit_rate,
            "%",
        );
        c.push_ours(
            format!("shared 1:{}: reader per read, {tag}", reads / heavy_writes),
            heavy.reader_ms,
            "ms",
        );
        c.push_ours(
            format!("shared 1:{}: reader hit rate, {tag}", reads / heavy_writes),
            heavy.hit_rate,
            "%",
        );
        c.push_ours(
            format!("shared 1:{}: writer per op, {tag}", reads / heavy_writes),
            heavy.writer_ms,
            "ms",
        );
        let consistency = heavy.server.invalidations + heavy.server.lease_waits;
        c.push_ours(
            format!(
                "shared 1:{}: consistency actions, {tag}",
                reads / heavy_writes
            ),
            consistency as f64,
            "ops",
        );
    }

    // --- invalidation storm ---------------------------------------------
    let (wi_small_ms, _) = run_invalidation_storm(CacheMode::WriteInvalidate, 4);
    let (wi_big_ms, wi_big) = run_invalidation_storm(CacheMode::WriteInvalidate, 16);
    let (lease_small_ms, _) = run_invalidation_storm(CacheMode::Leases, 4);
    let (lease_big_ms, lease_big) = run_invalidation_storm(CacheMode::Leases, 16);
    c.push_ours(
        "storm write vs 4 warm readers, write-invalidate",
        wi_small_ms,
        "ms",
    );
    c.push_ours(
        "storm write vs 16 warm readers, write-invalidate",
        wi_big_ms,
        "ms",
    );
    c.push_ours(
        "storm invalidations delivered (N=16)",
        wi_big.invalidations as f64,
        "callbacks",
    );
    c.push_ours(
        "storm write vs 4 warm readers, leases",
        lease_small_ms,
        "ms",
    );
    c.push_ours("storm write vs 16 warm readers, leases", lease_big_ms, "ms");
    c.push_ours(
        "storm lease waits (N=16)",
        lease_big.lease_waits as f64,
        "waits",
    );

    // --- boot-storm re-timings (full run only) --------------------------
    if storms {
        storm_rows(&mut c, 256);
        storm_rows(&mut c, 1000);
    }

    c.note("server: 2 ms fixed disk; volume 128 × 512 B blocks; reads cycle the working set");
    c.note("hits cost one 200 µs local CPU charge; misses pay the full Table 6-1 path");
    c.note(
        "sharing rows: 200 ms leases; writer fills repeat the volume byte so reads keep verifying",
    );
    c.note("storm: N readers warm 4 blocks each, then one writer commits a single block write");
    c.note("storm leases run an 8 s term so the grants outlive the warm drain: the write waits out the remainder, independent of N");
    c.note("boot-storm rows: 8-block × 4-pass shared-text reread after the §6.3 image load");
    c.note("no paper counterpart — the 1983 workstations had no client block cache (§6 reads are all remote)");
    c
}
