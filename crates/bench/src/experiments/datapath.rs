//! Raw speed on the data path: striped multi-arm disks and the
//! zero-copy same-host transport, each against its own ablation.
//!
//! Two independent accelerations of the paper's data path, measured
//! with their toggles off to pin the baseline and on to cap the gain:
//!
//! * **Striped arms** ([`v_fs::FileServerConfig::disk_arms`]): the Table 6-1
//!   remote-read burst of the pipelining experiment, re-run with the
//!   team's one disk reshaped to 1, 2 and 4 striped arms. With four
//!   workers feeding it, the single spindle is the queueing centre; a
//!   striped unit serves the same burst from independent per-arm
//!   queues, and throughput scales until the next stage (the wire)
//!   takes over. `arms = 1` is construction-identical to the
//!   pre-striping server — the perturbation row is pinned to exactly
//!   0.0 by the calibration suite.
//! * **Local fast path** ([`v_kernel::ProtocolConfig::local_fastpath`]):
//!   the Table 6-1 page-read pair, co-located on one host. The classic
//!   local path charges a fixed cost plus a per-byte memory copy for
//!   every data hand-off; the fast path remaps the pages for one fixed
//!   local hop. Measured in both transfer styles (reply segments and
//!   Thoth `MoveTo`), plus a remote pair under the same toggle, whose
//!   perturbation must also be exactly 0.0 — the fast path lives
//!   strictly inside the same-host branch.
//!
//! The full run also re-times the boot storm at N = 256 and N = 1000
//! with single- and two-arm shard disks — the deployment the striping
//! defaults target — reporting the per-load improvement.

use std::cell::RefCell;
use std::rc::Rc;

use v_fs::client::{FsCall, FsClient, FsClientReport};
use v_fs::disk::DiskModel;
use v_fs::server::FileServerConfig;
use v_fs::store::BlockStore;
use v_fs::team::spawn_file_server;
use v_fs::BLOCK_SIZE;
use v_kernel::{Cluster, ClusterConfig, CpuSpeed, HostId};
use v_sim::SimDuration;
use v_workloads::boot::{run_boot_storm, BootStormConfig};
use v_workloads::measure::{probe, RunReport};
use v_workloads::page::{PageClient, PageMode, PageOp, PageServer};

use crate::report::Comparison;

use super::N_PAGES;

/// Workers in the serving team (enough to keep several arms busy).
const WORKERS: usize = 4;
/// Clients fanning into the striped burst.
const CLIENTS: usize = 8;
/// Blocks per client file.
const FILE_BLOCKS: usize = 8;

/// One striped-burst run's measurements.
struct ArmBurst {
    /// Mean ms per completed script step per client.
    per_read_ms: f64,
    /// Served load over the burst.
    req_per_s: f64,
    /// Per-arm utilization over the burst.
    arm_util: Vec<f64>,
}

/// Runs the pipelining experiment's 8-client burst against a `WORKERS`
/// team whose disk has `arms` striped arms. `arms = None` leaves
/// [`FileServerConfig::disk_arms`] at its default — the pre-striping
/// construction the `Some(1)` run must match to the bit.
fn run_striped_burst(arms: Option<usize>, reads: u64) -> ArmBurst {
    let mut cl =
        Cluster::new(ClusterConfig::three_mb().with_hosts(CLIENTS + 1, CpuSpeed::Mc68000At10MHz));
    let mut store = BlockStore::new();
    for i in 0..CLIENTS {
        store
            .create_with(&format!("vol{i}"), &vec![0x7E; FILE_BLOCKS * BLOCK_SIZE])
            .expect("fresh store");
    }
    let cfg = FileServerConfig {
        disk: DiskModel::fixed(SimDuration::from_millis(15)),
        disk_arms: arms.unwrap_or(FileServerConfig::default().disk_arms),
        // Isolate queueing: no speculative disk traffic.
        read_ahead: false,
        register: None,
        workers: WORKERS,
        ..FileServerConfig::default()
    };
    let team = spawn_file_server(&mut cl, HostId(0), cfg, store);
    cl.run(); // team settled: every process blocked receiving

    let t0 = cl.now();
    let reports: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let rep = Rc::new(RefCell::new(FsClientReport::default()));
            let mut script = vec![FsCall::Open(format!("vol{i}"))];
            for j in 0..reads {
                script.push(FsCall::ReadExpect {
                    block: (j % FILE_BLOCKS as u64) as u32,
                    count: BLOCK_SIZE as u32,
                    expect: 0x7E,
                });
            }
            cl.spawn(
                HostId(1 + i),
                "burst-client",
                Box::new(FsClient::new(team.server, script, rep.clone())),
            );
            rep
        })
        .collect();
    cl.run();
    let elapsed = cl.now().since(t0);

    let reports: Vec<FsClientReport> = reports.iter().map(|r| r.borrow().clone()).collect();
    for (i, r) in reports.iter().enumerate() {
        assert!(
            r.done && r.errors == 0 && r.integrity_errors == 0,
            "striped burst client {i} failed: {r:?}"
        );
    }
    let total_ops: u64 = reports.iter().map(|r| r.completed).sum();
    let per_read_ms = reports.iter().map(|r| r.elapsed_ms).sum::<f64>() / total_ops as f64;
    let arm_util = team
        .disk
        .borrow()
        .per_arm_stats()
        .iter()
        .map(|s| s.utilization(elapsed))
        .collect();
    ArmBurst {
        per_read_ms,
        req_per_s: total_ops as f64 / elapsed.as_secs_f64(),
        arm_util,
    }
}

/// One page-access pair run: mean ms per op plus the cluster's fastpath
/// counters (sends, bytes saved).
fn run_pair(mode: PageMode, fastpath: bool, colocated: bool, rounds: u64) -> (f64, u64, u64) {
    let mut cfg = ClusterConfig::three_mb().with_hosts(2, CpuSpeed::Mc68000At10MHz);
    cfg.protocol.local_fastpath = fastpath;
    let mut cl = Cluster::new(cfg);
    let server_host = if colocated { HostId(0) } else { HostId(1) };
    let srep = probe(RunReport::default());
    let server = cl.spawn(
        server_host,
        "pageserver",
        Box::new(PageServer::new(mode, 512, 0x7E, srep.clone())),
    );
    cl.run();
    let crep = probe(RunReport::default());
    cl.spawn(
        HostId(0),
        "pageclient",
        Box::new(PageClient::new(
            server,
            PageOp::Read,
            512,
            rounds,
            0x7E,
            crep.clone(),
        )),
    );
    cl.run();
    let r = crep.borrow().clone();
    assert!(r.clean(), "page pair failed: {r:?}");
    let (mut sends, mut saved) = (0, 0);
    for h in [HostId(0), HostId(1)] {
        let s = cl.kernel_stats(h);
        sends += s.local_fastpath_sends;
        saved += s.local_fastpath_bytes_saved;
    }
    (r.per_op_ms(), sends, saved)
}

/// Re-times one boot storm at `clients` hosts with `arms` shard disk
/// arms, returning the mean per-client load time.
fn storm_load_ms(clients: usize, arms: usize) -> f64 {
    let mut cfg = BootStormConfig::new(clients);
    cfg.disk_arms = arms;
    let r = run_boot_storm(&cfg);
    assert_eq!(
        r.loaded as usize, clients,
        "storm must load every client: {r:?}"
    );
    r.load_ms_mean
}

/// The data-path table with the full round count, including the boot
/// storm re-timings.
pub fn datapath() -> Comparison {
    datapath_impl(N_PAGES.min(60), true)
}

/// [`datapath`] with a configurable round count and no storm rows; the
/// CI smoke job runs a handful of rounds to keep the check cheap.
pub fn datapath_with_rounds(reads: u64) -> Comparison {
    datapath_impl(reads, false)
}

fn datapath_impl(reads: u64, storms: bool) -> Comparison {
    let mut c = Comparison::new(
        "Datapath",
        "striped multi-arm disks + zero-copy same-host transport, 10 MHz",
    );

    // --- striped arms under the pipelined burst -------------------------
    let default_cfg = run_striped_burst(None, reads);
    let mut by_arms = Vec::new();
    for arms in [1usize, 2, 4] {
        let b = run_striped_burst(Some(arms), reads);
        c.push_ours(
            format!("burst of {CLIENTS}, arms={arms}: served load"),
            b.req_per_s,
            "req/s",
        );
        c.push_ours(
            format!("burst of {CLIENTS}, arms={arms}: per read"),
            b.per_read_ms,
            "ms",
        );
        by_arms.push(b);
    }
    c.push_ours(
        "arms=4 throughput gain over arms=1",
        by_arms[2].req_per_s / by_arms[0].req_per_s,
        "x",
    );
    for (k, util) in by_arms[2].arm_util.iter().enumerate() {
        c.push_ours(
            format!("arms=4 burst: arm {k} utilization"),
            util * 100.0,
            "%",
        );
    }
    // Pinned to exactly 0.0 by the calibration suite: a 1-arm build is
    // the pre-striping disk, not a near miss of it.
    c.push_ours(
        "arms=1 perturbation of the single-arm burst",
        by_arms[0].per_read_ms - default_cfg.per_read_ms,
        "ms",
    );

    // --- the zero-copy local fast path ----------------------------------
    let (seg_copy, _, _) = run_pair(PageMode::Segment, false, true, reads);
    let (seg_fast, seg_sends, seg_saved) = run_pair(PageMode::Segment, true, true, reads);
    let (mv_copy, _, _) = run_pair(PageMode::Thoth, false, true, reads);
    let (mv_fast, _, _) = run_pair(PageMode::Thoth, true, true, reads);
    c.push_ours("co-located page read, copy path", seg_copy, "ms");
    c.push_ours("co-located page read, fast path", seg_fast, "ms");
    c.push_ours("co-located page read speedup", seg_copy / seg_fast, "x");
    c.push_ours("co-located Thoth (MoveTo) read, copy path", mv_copy, "ms");
    c.push_ours("co-located Thoth (MoveTo) read, fast path", mv_fast, "ms");
    c.push_ours(
        "fast-path hand-offs per read",
        seg_sends as f64 / reads as f64,
        "ops",
    );
    c.push_ours(
        "copy bytes saved per read",
        seg_saved as f64 / reads as f64,
        "B",
    );

    let (remote_off, _, _) = run_pair(PageMode::Segment, false, false, reads);
    let (remote_on, remote_sends, _) = run_pair(PageMode::Segment, true, false, reads);
    c.push_ours("remote page read, fast path off", remote_off, "ms");
    c.push_ours("remote page read, fast path on", remote_on, "ms");
    // Pinned to exactly 0.0 by the calibration suite: the toggle must
    // be invisible to any exchange that touches the wire.
    c.push_ours(
        "fastpath perturbation of the remote pair",
        remote_on - remote_off,
        "ms",
    );
    assert_eq!(remote_sends, 0, "the fast path must never fire remotely");
    c.push_ours(
        "wire tax on page reads (remote minus co-located, fast path)",
        remote_off - seg_fast,
        "ms",
    );

    // --- the boot storm on striped shard disks --------------------------
    if storms {
        for clients in [256usize, 1000] {
            let one = storm_load_ms(clients, 1);
            let two = storm_load_ms(clients, 2);
            c.push_ours(format!("storm N={clients}: mean load, 1 arm"), one, "ms");
            c.push_ours(format!("storm N={clients}: mean load, 2 arms"), two, "ms");
            c.push_ours(
                format!("storm N={clients}: 2-arm improvement"),
                (one - two) / one * 100.0,
                "%",
            );
        }
    }

    c.note(format!(
        "burst: {CLIENTS} clients, one per host, each opening a private {FILE_BLOCKS}-block \
         file and reading {reads} pages through a {WORKERS}-worker team on a 15 ms disk \
         (read-ahead off); block-striped arms serve independent per-arm queues"
    ));
    c.note(
        "pair: Table 6-1 page-read procedure, 512 B; co-located = client and server on one \
         host, where data moves by page remap (one fixed local hop) instead of kernel copy",
    );
    if storms {
        c.note(
            "storm: mean per-client image load (open + header + 8 KB image) over the sharded \
             mesh; 2-arm rows are the storm's default disk shape, 1-arm the ablation",
        );
    }
    c
}
