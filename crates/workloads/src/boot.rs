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
//! count, the image size and the shard servers' disk arms. The wave
//! shape, the processor and the shard count per client are constants.
//!
//! Every client's image placement hashes to the client's own segment,
//! so page traffic stays local and only the resolution broadcasts cross
//! the gateway — the arrangement the sharded placement exists to
//! produce. [`boot_storm`] hands back the booted cluster, quiescent,
//! with its shard servers and image names, so an experiment can run
//! what a booted workstation does next over it; [`run_boot_storm`] is
//! its report alone. The run is fully deterministic: two runs of one
//! configuration report equal values, which the determinism pinning
//! test relies on.

use std::cell::RefCell;
use std::rc::Rc;

use v_fs::loader::{install_image, LoadReport, ProgramLoader};
use v_fs::{spawn_file_server, BlockStore, CacheMode, DiskModel, FileServerConfig, ShardMap};
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
}

impl BootStormConfig {
    /// Clients powered on per wave.
    pub const WAVE: usize = 64;
    /// Simulated spacing between waves.
    pub const WAVE_SPACING: SimDuration = SimDuration::from_millis(10);
    /// Processor grade of every host.
    pub const CPU: CpuSpeed = CpuSpeed::Mc68000At10MHz;
    /// The byte every image block is filled with.
    pub const IMAGE_FILL: u8 = 0xB7;

    /// A storm of `clients` hosts.
    pub fn new(clients: usize) -> BootStormConfig {
        assert!(clients >= 1, "a boot storm needs at least one client");
        BootStormConfig {
            clients,
            image_size: 8192,
            disk_arms: 2,
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
    /// Events scheduled by the engine ([`v_sim::SimStats::scheduled`]);
    /// at quiescence every one has been popped.
    pub events_scheduled: u64,
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
}

/// A booted storm: the cluster at quiescence, every client's image
/// loaded (or failed), ready for what the workstations do next.
pub struct BootStorm {
    /// The cluster: hosts `0..shards` serve, client `j` is host
    /// `shards + j` and booted from shard `j % shards`.
    pub cluster: Cluster,
    /// Each shard's file server, by shard.
    pub servers: Vec<Pid>,
    /// Each shard's image name, by shard (every server holds them all).
    pub images: Vec<String>,
    /// What the storm measured.
    pub report: BootStormReport,
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
    boot_storm(cfg).report
}

/// Runs one boot storm to quiescence and hands back the booted cluster
/// beside the report.
pub fn boot_storm(cfg: &BootStormConfig) -> BootStorm {
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
    let images: Vec<String> = (0..shards)
        .map(|s| map.name_for_shard(s, "bootimage"))
        .collect();
    let mut master = BlockStore::new();
    for name in &images {
        install_image(
            &mut master,
            name,
            cfg.image_size,
            BootStormConfig::IMAGE_FILL,
        );
    }
    // Write-invalidate, so a booted workstation may cache what it
    // rereads; the storm itself only loads, and never asks.
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
                    cache_mode: CacheMode::WriteInvalidate,
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
                    name: images[shard].clone(),
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

    let mut out = BootStormReport {
        resolve_failures: *resolve_failures.borrow(),
        sim_ms: cl.now().since(v_sim::SimTime::ZERO).as_millis_f64(),
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
    out.events_scheduled = cl.sim_stats().scheduled;
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
    BootStorm {
        cluster: cl,
        servers,
        images,
        report: out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_storm_loads_every_client() {
        let mut cfg = BootStormConfig::new(8);
        cfg.image_size = 2048;
        let storm = boot_storm(&cfg);
        let r = &storm.report;
        assert_eq!(r.loaded, 8, "{r:?}");
        assert_eq!(r.errors, 0);
        assert_eq!(r.integrity_errors, 0);
        assert_eq!(r.resolve_failures, 0);
        assert!(r.getpid_broadcasts >= 8, "every client resolves by name");
        assert!(r.chunks_sent > 0, "images move in MoveTo chunks");
        assert!(r.events_dispatched > 0);
        assert_eq!(
            storm.cluster.sim_stats().popped,
            r.events_scheduled,
            "quiescent: every scheduled event was popped"
        );
    }

    #[test]
    fn storm_is_deterministic_run_to_run() {
        // Two in-process runs of the same 512-host storm must agree
        // exactly: every kernel table iterates in a defined order (the
        // slab/linear-map containers replaced std::HashMap, whose order
        // varies between instances within one process), so nothing in
        // the report may wiggle — not a counter, not a float's last bit.
        // Explicitly on two-arm striped disks: the per-arm queues and
        // span splitting must be as replayable as the single-spindle
        // model they generalize.
        let mut cfg = BootStormConfig::new(512);
        cfg.image_size = 2048;
        cfg.disk_arms = 2;
        let first = run_boot_storm(&cfg);
        let second = run_boot_storm(&cfg);
        assert_eq!(first, second, "equal reports across runs");
        assert_eq!(first.loaded, 512, "{first:?}");
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
