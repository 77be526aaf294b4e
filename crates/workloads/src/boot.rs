//! Boot storm: N diskless hosts mass-loading a program image at once.
//!
//! The paper's §7 capacity argument ("a disk server of this performance
//! can adequately support a reasonable number of client workstations")
//! extrapolates from two-host benches; the cluster deployments that
//! followed — AutoClient farms, shared-root compute clusters — made the
//! scenario literal: hundreds of diskless clients power on together and
//! page their boot image off shared file servers. This module builds
//! that scenario end to end:
//!
//! * a mesh of 3 Mb segments behind a hub gateway, one file-service
//!   shard per segment and one segment per ~64 clients
//!   ([`BootStormConfig::shards`], [`v_fs::ShardMap`] placement), every
//!   shard serving a clone of the same read-only image catalogue (a
//!   replicated root, sharded routing);
//! * N client hosts spread round-robin over the segments, each running
//!   a `BootClient` program: resolve the owning shard's logical id
//!   with broadcast `GetPid`, then perform the §6.3 two-read program
//!   load ([`v_fs::loader::ProgramLoader`]) — header block, then the
//!   image via `MoveTo`;
//! * clients power on in waves of [`BootStormConfig::WAVE`], spaced
//!   [`BootStormConfig::WAVE_SPACING`] apart — the staggered ramp of a
//!   building's worth of workstations booting — every host of grade
//!   [`BootStormConfig::CPU`].
//!
//! What an experiment turns is the [`BootStormConfig`]: the client
//! count, the image size, the shard servers' disk arms and the
//! post-load reread phase with its optional client cache. The wave
//! shape, the processor and the shard count per client are constants.
//!
//! Every client's image placement hashes to the client's own segment,
//! so page traffic stays local and only the resolution broadcasts cross
//! the gateway — the arrangement the sharded placement exists to
//! produce. The run is fully deterministic; [`BootStormReport::to_json`]
//! is byte-stable across identical runs, which the determinism pinning
//! test relies on.

use std::cell::RefCell;
use std::rc::Rc;

use v_fs::client::{FsCall, FsClient, FsClientReport};
use v_fs::loader::{install_image, LoadReport, ProgramLoader};
use v_fs::{
    spawn_caching_client, spawn_file_server, BlockStore, CacheConfig, CacheMode, DiskModel,
    FileServerConfig, ShardMap, BLOCK_SIZE,
};
use v_kernel::naming::Scope;
use v_kernel::{Api, Cluster, ClusterConfig, CpuSpeed, HostId, Outcome, Pid, Program};
use v_net::MeshConfig;
use v_sim::SimDuration;

/// Shape of one boot storm.
#[derive(Debug, Clone)]
pub struct BootStormConfig {
    /// Number of diskless client hosts.
    pub clients: usize,
    /// Program image size in bytes (excluding the header block).
    pub image_size: u32,
    /// Independent disk arms per shard server
    /// ([`FileServerConfig::disk_arms`]). Storm defaults give every
    /// shard a two-arm unit: under mass load the image reads queue at
    /// the disk, and a second arm overlaps a span's block transfers.
    pub disk_arms: usize,
    /// Per-client block-cache capacity for the post-load reread phase
    /// ([`v_fs::BlockCache`], write-invalidate mode); `0` disables
    /// caching and leaves the storm bit-identical to the pre-cache
    /// engine.
    pub client_cache: usize,
    /// Shared-text blocks each client re-reads per pass after its image
    /// loads (booted workstations page the same system binaries over
    /// and over); `0` skips the reread phase entirely.
    pub reread_blocks: u32,
    /// Passes over the reread working set. The first pass faults the
    /// blocks in; later passes are where a client cache pays.
    pub reread_passes: u32,
}

impl BootStormConfig {
    /// Clients powered on per wave.
    pub const WAVE: usize = 64;
    /// Simulated spacing between waves.
    pub const WAVE_SPACING: SimDuration = SimDuration::from_millis(10);
    /// Processor grade of every host.
    pub const CPU: CpuSpeed = CpuSpeed::Mc68000At10MHz;

    /// A storm of `clients` hosts.
    pub fn new(clients: usize) -> BootStormConfig {
        assert!(clients >= 1, "a boot storm needs at least one client");
        BootStormConfig {
            clients,
            image_size: 8192,
            disk_arms: 2,
            client_cache: 0,
            reread_blocks: 0,
            reread_passes: 0,
        }
    }

    /// File-service shards (= mesh segments), each shard's server host
    /// on its own segment: one per ~64 clients, within the [`ShardMap`]
    /// id-range limit.
    pub fn shards(&self) -> usize {
        (self.clients / 64).clamp(2, 16)
    }
}

/// Aggregate outcome of a boot storm, including the engine counters the
/// `v-bench engine` throughput experiment reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BootStormReport {
    /// Clients configured.
    pub clients: usize,
    /// Shards configured.
    pub shards: usize,
    /// Image size in bytes.
    pub image_bytes: u32,
    /// Clients whose image arrived and verified.
    pub loaded: u64,
    /// Protocol errors across all loads.
    pub errors: u64,
    /// Image verification failures.
    pub integrity_errors: u64,
    /// Clients that never resolved their shard server.
    pub resolve_failures: u64,
    /// Simulated time the whole storm took, milliseconds. Quiescence
    /// time: includes draining the last protocol timers, so it is
    /// coarser than the per-load times below.
    pub sim_ms: f64,
    /// Mean per-client load time (open + header + image), milliseconds
    /// — the metric disk and transport improvements move.
    pub load_ms_mean: f64,
    /// Slowest single client load, milliseconds.
    pub load_ms_max: f64,
    /// Events scheduled by the engine ([`v_sim::SimStats::scheduled`]).
    pub events_scheduled: u64,
    /// Events popped by the engine ([`v_sim::SimStats::popped`]).
    pub events_popped: u64,
    /// Logical events dispatched ([`Cluster::events_dispatched`]) — the
    /// batching-independent count the throughput metric divides by.
    pub events_dispatched: u64,
    /// Frames transmitted across all segments.
    pub frames_sent: u64,
    /// Frame deliveries across all segments.
    pub deliveries: u64,
    /// `GetPid` broadcasts issued by clients.
    pub getpid_broadcasts: u64,
    /// Send retransmissions (contention and loss recovery).
    pub retransmissions: u64,
    /// Bulk-transfer chunks sent (the image pages).
    pub chunks_sent: u64,
    /// Reread-phase operations completed across all clients (0 when the
    /// phase is disabled).
    pub reread_ops: u64,
    /// Mean per-operation latency of the reread phase, milliseconds.
    pub reread_ms_mean: f64,
    /// Reread operations served per simulated second across the whole
    /// cluster — the served-load metric client caching moves.
    pub reread_reqs_per_s: f64,
    /// Client-cache hits during the reread phase.
    pub cache_hits: u64,
}

impl BootStormReport {
    /// Byte-stable JSON rendering (fixed field order, fixed float
    /// precision): two identical runs must serialize identically.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"clients\":{},\"shards\":{},\"image_bytes\":{},",
                "\"loaded\":{},\"errors\":{},\"integrity_errors\":{},",
                "\"resolve_failures\":{},\"sim_ms\":{:.3},",
                "\"load_ms_mean\":{:.3},\"load_ms_max\":{:.3},",
                "\"events_scheduled\":{},\"events_popped\":{},",
                "\"events_dispatched\":{},\"frames_sent\":{},",
                "\"deliveries\":{},\"getpid_broadcasts\":{},",
                "\"retransmissions\":{},\"chunks_sent\":{},",
                "\"reread_ops\":{},\"reread_ms_mean\":{:.3},",
                "\"reread_reqs_per_s\":{:.3},\"cache_hits\":{}}}"
            ),
            self.clients,
            self.shards,
            self.image_bytes,
            self.loaded,
            self.errors,
            self.integrity_errors,
            self.resolve_failures,
            self.sim_ms,
            self.load_ms_mean,
            self.load_ms_max,
            self.events_scheduled,
            self.events_popped,
            self.events_dispatched,
            self.frames_sent,
            self.deliveries,
            self.getpid_broadcasts,
            self.retransmissions,
            self.chunks_sent,
            self.reread_ops,
            self.reread_ms_mean,
            self.reread_reqs_per_s,
            self.cache_hits,
        )
    }
}

/// One booting workstation: broadcast-resolve the owning shard, then
/// run the §6.3 two-read load against it.
struct BootClient {
    logical_id: u32,
    name: String,
    report: Rc<RefCell<LoadReport>>,
    resolve_failures: Rc<RefCell<u64>>,
    inner: Option<ProgramLoader>,
}

impl Program for BootClient {
    fn resume(&mut self, api: &mut Api<'_>, outcome: Outcome) {
        match (&mut self.inner, outcome) {
            (None, Outcome::Started) => api.get_pid(self.logical_id, Scope::Both),
            (None, Outcome::GetPid(Some(server))) => {
                let mut loader = ProgramLoader::new(server, self.name.clone(), self.report.clone());
                loader.resume(api, Outcome::Started);
                self.inner = Some(loader);
            }
            (None, _) => {
                *self.resolve_failures.borrow_mut() += 1;
                api.exit();
            }
            (Some(loader), outcome) => loader.resume(api, outcome),
        }
    }
}

/// Runs one boot storm to quiescence and collects the report.
pub fn run_boot_storm(cfg: &BootStormConfig) -> BootStormReport {
    let shards = cfg.shards();
    let map = ShardMap::new(shards);

    let mut cluster_cfg = ClusterConfig::mesh(MeshConfig::star(shards));
    for s in 0..shards {
        cluster_cfg = cluster_cfg.with_host_on(BootStormConfig::CPU, s); // server host
    }
    for j in 0..cfg.clients {
        cluster_cfg = cluster_cfg.with_host_on(BootStormConfig::CPU, j % shards);
    }
    let mut cl = Cluster::new(cluster_cfg);

    // Replicated read-only root: one master catalogue holding every
    // shard's image name, cloned into every shard server, so file ids
    // agree everywhere and any shard could serve any name.
    let names: Vec<String> = (0..shards)
        .map(|s| map.name_for_shard(s, "bootimage"))
        .collect();
    let mut master = BlockStore::new();
    for name in &names {
        install_image(&mut master, name, cfg.image_size, 0xB7);
    }
    let servers: Vec<Pid> = (0..shards)
        .map(|s| {
            spawn_file_server(
                &mut cl,
                HostId(s),
                FileServerConfig {
                    register: Some(map.logical_id(s)),
                    disk: DiskModel::fixed(SimDuration::from_millis(2)),
                    disk_arms: cfg.disk_arms,
                    transfer_unit: 4096,
                    cache_mode: if cfg.client_cache > 0 {
                        CacheMode::WriteInvalidate
                    } else {
                        CacheMode::Off
                    },
                    ..FileServerConfig::default()
                },
                master.clone(),
            )
            .server
        })
        .collect();
    cl.run(); // every server parked in its Receive

    let reports: Vec<Rc<RefCell<LoadReport>>> = (0..cfg.clients)
        .map(|_| Rc::new(RefCell::new(LoadReport::default())))
        .collect();
    let resolve_failures = Rc::new(RefCell::new(0u64));

    // Power the clients on in waves.
    let mut next = 0;
    while next < cfg.clients {
        let end = (next + BootStormConfig::WAVE).min(cfg.clients);
        for (j, report) in reports.iter().enumerate().take(end).skip(next) {
            let shard = j % shards;
            cl.spawn(
                HostId(shards + j),
                "bootclient",
                Box::new(BootClient {
                    logical_id: map.logical_id(shard),
                    name: names[shard].clone(),
                    report: report.clone(),
                    resolve_failures: resolve_failures.clone(),
                    inner: None,
                }),
            );
        }
        next = end;
        if next < cfg.clients {
            let deadline = cl.now() + BootStormConfig::WAVE_SPACING;
            cl.run_until(deadline);
        }
    }
    cl.run();
    let storm_ms = cl.now().since(v_sim::SimTime::ZERO).as_millis_f64();

    // Post-load reread phase: every booted client pages the same
    // shared-text span of its image again and again (system binaries,
    // shells — the traffic §6.3 says dominates a diskless workstation's
    // life after boot). With `client_cache` set, the second and later
    // passes hit the per-client block cache instead of the shard server;
    // `reread_reqs_per_s` is the served-load win that buys.
    let mut reread_ops = 0u64;
    let mut reread_ms_mean = 0.0;
    let mut reread_reqs_per_s = 0.0;
    let mut cache_hits = 0u64;
    let mut reread_errors = 0u64;
    let mut reread_integrity = 0u64;
    if cfg.reread_blocks > 0 && cfg.reread_passes > 0 {
        let full_blocks = (cfg.image_size / BLOCK_SIZE as u32).max(1);
        let span = cfg.reread_blocks.min(full_blocks);
        let cache_cfg = CacheConfig::blocks(cfg.client_cache);
        let rr_reports: Vec<Rc<RefCell<FsClientReport>>> = (0..cfg.clients)
            .map(|_| Rc::new(RefCell::new(FsClientReport::default())))
            .collect();
        let mut handles = Vec::with_capacity(cfg.clients);
        for (j, report) in rr_reports.iter().enumerate() {
            let shard = j % shards;
            let mut script = vec![FsCall::Open(names[shard].clone())];
            for _ in 0..cfg.reread_passes {
                for b in 0..span {
                    script.push(FsCall::ReadExpect {
                        block: 1 + b,
                        count: BLOCK_SIZE as u32,
                        expect: 0xB7,
                    });
                }
            }
            handles.push(spawn_caching_client(
                &mut cl,
                HostId(shards + j),
                FsClient::new(servers[shard], script, report.clone()),
                &cache_cfg,
            ));
        }
        cl.run();
        // Served load over the phase's busy period — the slowest
        // client's script span — not quiescence time, which is
        // dominated by draining the last protocol timers and would
        // flatten the comparison.
        let mut busy_ms = 0.0f64;
        let mut ms_sum = 0.0;
        for report in &rr_reports {
            let r = report.borrow();
            reread_ops += r.completed;
            reread_errors += r.errors;
            reread_integrity += r.integrity_errors;
            if !r.done {
                reread_errors += 1;
            }
            ms_sum += r.elapsed_ms;
            busy_ms = busy_ms.max(r.elapsed_ms);
        }
        for h in &handles {
            cache_hits += h.stats().hits;
        }
        if reread_ops > 0 {
            reread_ms_mean = ms_sum / reread_ops as f64;
        }
        if busy_ms > 0.0 {
            reread_reqs_per_s = reread_ops as f64 * 1000.0 / busy_ms;
        }
    }

    let mut out = BootStormReport {
        clients: cfg.clients,
        shards,
        image_bytes: cfg.image_size,
        resolve_failures: *resolve_failures.borrow(),
        sim_ms: storm_ms,
        reread_ops,
        reread_ms_mean,
        reread_reqs_per_s,
        cache_hits,
        errors: reread_errors,
        integrity_errors: reread_integrity,
        ..BootStormReport::default()
    };
    let mut load_ms_sum = 0.0;
    for report in &reports {
        let r = report.borrow();
        out.loaded += r.loaded as u64;
        out.errors += r.errors;
        out.integrity_errors += r.integrity_errors;
        if r.loaded {
            load_ms_sum += r.elapsed_ms;
            out.load_ms_max = out.load_ms_max.max(r.elapsed_ms);
        }
    }
    if out.loaded > 0 {
        out.load_ms_mean = load_ms_sum / out.loaded as f64;
    }
    let sim = cl.sim_stats();
    out.events_scheduled = sim.scheduled;
    out.events_popped = sim.popped;
    out.events_dispatched = cl.events_dispatched();
    let medium = cl.medium_stats();
    out.frames_sent = medium.frames_sent;
    out.deliveries = medium.deliveries;
    for h in 0..cl.num_hosts() {
        let k = cl.kernel_stats(HostId(h));
        out.getpid_broadcasts += k.getpid_broadcasts;
        out.retransmissions += k.retransmissions;
        out.chunks_sent += k.chunks_sent;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_storm_loads_every_client() {
        let mut cfg = BootStormConfig::new(8);
        cfg.image_size = 2048;
        let r = run_boot_storm(&cfg);
        assert_eq!(r.loaded, 8, "{r:?}");
        assert_eq!(r.errors, 0);
        assert_eq!(r.integrity_errors, 0);
        assert_eq!(r.resolve_failures, 0);
        assert!(r.getpid_broadcasts >= 8, "every client resolves by name");
        assert!(r.chunks_sent > 0, "images move in MoveTo chunks");
        assert!(r.events_popped > 0 && r.events_scheduled >= r.events_popped);
    }

    #[test]
    fn storm_is_deterministic_run_to_run() {
        // Two in-process runs of the same 512-host storm must agree to
        // the byte: every kernel table iterates in a defined order (the
        // slab/linear-map containers replaced std::HashMap, whose order
        // varies between instances within one process), so nothing in
        // the report may wiggle. Explicitly on two-arm striped disks:
        // the per-arm queues and span splitting must be as replayable
        // as the single-spindle model they generalize.
        let mut cfg = BootStormConfig::new(512);
        cfg.image_size = 2048;
        cfg.disk_arms = 2;
        let first = run_boot_storm(&cfg).to_json();
        let second = run_boot_storm(&cfg).to_json();
        assert_eq!(first, second, "byte-identical reports across runs");
        assert!(first.contains("\"loaded\":512"), "{first}");
    }

    #[test]
    fn second_disk_arm_shortens_the_storm() {
        // The reason the storm defaults to two arms: the image span
        // splits across arms and transfers in parallel, so each load's
        // disk leg shrinks. Judged on per-load time (`load_ms_mean`) —
        // quiescence time also drains the last protocol timers, which
        // quantises away the disk leg.
        let mut one = BootStormConfig::new(2);
        one.image_size = 32 * 1024;
        one.disk_arms = 1;
        let mut two = one.clone();
        two.disk_arms = 2;
        let r1 = run_boot_storm(&one);
        let r2 = run_boot_storm(&two);
        assert_eq!(r1.loaded, 2, "{r1:?}");
        assert_eq!(r2.loaded, 2, "{r2:?}");
        assert!(
            r2.load_ms_mean < r1.load_ms_mean,
            "two arms must beat one: {} ms vs {} ms mean load",
            r2.load_ms_mean,
            r1.load_ms_mean
        );
        assert!(r2.load_ms_max <= r1.load_ms_max);
    }

    #[test]
    fn cached_reread_multiplies_served_load() {
        // Same storm, same reread traffic; only the client cache
        // differs. The cached run must serve the repeat passes locally:
        // hits appear, per-op latency drops, served load climbs.
        let mut uncached = BootStormConfig::new(8);
        uncached.image_size = 8192;
        uncached.reread_blocks = 8;
        uncached.reread_passes = 4;
        let mut cached = uncached.clone();
        cached.client_cache = 64;
        let r0 = run_boot_storm(&uncached);
        let r1 = run_boot_storm(&cached);
        assert_eq!(r0.loaded, 8, "{r0:?}");
        assert_eq!(r1.loaded, 8, "{r1:?}");
        assert_eq!(r0.errors + r0.integrity_errors, 0, "{r0:?}");
        assert_eq!(r1.errors + r1.integrity_errors, 0, "{r1:?}");
        assert_eq!(r0.reread_ops, r1.reread_ops, "identical scripts");
        assert!(r0.reread_ops > 0);
        assert_eq!(r0.cache_hits, 0, "no cache, no hits");
        // 3 of 4 passes over an 8-block set fit a 64-block cache.
        assert_eq!(r1.cache_hits, 8 * 8 * 3, "{r1:?}");
        assert!(
            r1.reread_ms_mean < r0.reread_ms_mean,
            "cached rereads must be faster per op: {} ms vs {} ms",
            r1.reread_ms_mean,
            r0.reread_ms_mean
        );
        assert!(
            r1.reread_reqs_per_s > r0.reread_reqs_per_s,
            "cache hits must raise served load: {} vs {} req/s",
            r1.reread_reqs_per_s,
            r0.reread_reqs_per_s
        );
    }

    #[test]
    fn reread_disabled_reports_zeroes() {
        let mut cfg = BootStormConfig::new(4);
        cfg.image_size = 1024;
        let r = run_boot_storm(&cfg);
        assert_eq!(r.loaded, 4, "{r:?}");
        assert_eq!(r.reread_ops, 0);
        assert_eq!(r.cache_hits, 0);
        assert_eq!(r.reread_ms_mean, 0.0);
        assert_eq!(r.reread_reqs_per_s, 0.0);
    }

    #[test]
    fn storm_crosses_the_old_station_ceiling() {
        // 300 clients + shard servers puts station addresses past the
        // 8-bit space end to end (attach, logical hosts, delivery).
        let mut cfg = BootStormConfig::new(300);
        cfg.image_size = 1024;
        let r = run_boot_storm(&cfg);
        assert_eq!(r.loaded, 300, "{r:?}");
        assert_eq!(r.errors + r.integrity_errors + r.resolve_failures, 0);
    }
}
