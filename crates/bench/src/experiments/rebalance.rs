//! Heat-driven shard rebalancing under a skewed workload.
//!
//! The paper's file service is a fixed placement: a file lives where
//! its server runs, forever. Section 7's capacity analysis shows what
//! that costs when demand concentrates — one server saturates while
//! its peers idle. This experiment puts the live-migration machinery
//! ([`v_fs::migrate`]) and the heat-driven policy ([`v_fs::rebalance`])
//! against exactly that regime:
//!
//! * **skewed mix** — four shard services, but every hot file is born
//!   on shard 0 and four clients stream them flat out. *Static* serves
//!   the whole mix from one queue; *rebalanced* lets the policy
//!   process sample per-file heat and walk files to idle shards while
//!   the clients keep reading.
//! * **convergence** — per-arm disk utilization before/after: the
//!   static arm pins one disk and idles three, the rebalanced arm
//!   spreads the load until the shards sit inside the policy band.
//! * **exactly-once accounting** — every client op completes exactly
//!   once across the moves; the clients' stale-owner corrections
//!   reconcile against the servers' forward counters to the op.
//!
//! The off arm is not merely close to today's sharded deployment — it
//! **is** that deployment: standing up migration-capable services and
//! overlay-carrying clients without starting the rebalancer must
//! reproduce the agent-less, overlay-less timeline to the bit. The
//! calibration suite pins that row to exactly 0.0.

use std::cell::RefCell;
use std::rc::Rc;

use v_fs::client::{FsCall, FsClient, FsClientReport};
use v_fs::disk::DiskModel;
use v_fs::shard::ShardMap;
use v_fs::store::BlockStore;
use v_fs::{
    spawn_file_server, spawn_rebalancer, FileServerConfig, RebalancerConfig, ShardOverlay,
    BLOCK_SIZE,
};
use v_kernel::{Cluster, ClusterConfig, CpuSpeed, HostId};
use v_sim::{SimDuration, SimTime};

use crate::report::Comparison;

use super::read_script;

/// Shards (and hot files, and streaming clients).
const SHARDS: usize = 4;
/// Blocks per hot file (also the migration copy length).
const FILE_BLOCKS: usize = 4;

/// How one arm deploys the shard fleet.
#[derive(Clone, Copy, PartialEq)]
enum Arm {
    /// The plain sharded deployment: registered `spawn_file_server`s,
    /// sharded clients, no overlay, no agents.
    Baseline,
    /// Migration-capable services + overlay clients, rebalancer never
    /// started. Must be bit-identical to `Baseline`.
    Off,
    /// The full stack with the policy process running.
    On,
}

/// One arm's outcome across the whole skewed mix.
struct SkewOutcome {
    /// Mean ms per script op across the streaming clients.
    per_op_ms: f64,
    /// Total completed ops over the slowest client's elapsed time.
    served_req_s: f64,
    /// Per-shard disk utilization over the run, in percent.
    util: Vec<f64>,
    /// Files walked to another shard (ledger, On arm only).
    moves: u64,
    /// Sampling rounds until the shards sat inside the band.
    converged_after: Option<u64>,
    /// Σ clients' stale-owner corrections.
    stale_forwards: u64,
    /// Σ servers' forwarded stale requests.
    moved_forwards: u64,
    /// Σ clients' drain-refused writes that were re-issued.
    write_retries: u64,
}

/// Runs `reads` page reads per client over [`SHARDS`] hot files all
/// born on shard 0, under `arm`'s deployment. Every client opens its
/// file once and streams — the open-once pattern program loading
/// produces, and the one that makes owner caches go stale when a file
/// moves underneath them.
fn run_skew(arm: Arm, reads: u64) -> SkewOutcome {
    let speed = CpuSpeed::Mc68000At10MHz;
    // Hosts 0..SHARDS: services; next SHARDS: clients; last: rebalancer.
    // Every arm builds the identical cluster so the Off pin compares
    // like with like.
    let mut cl = Cluster::new(ClusterConfig::three_mb().with_hosts(2 * SHARDS + 1, speed));
    let map = ShardMap::new(SHARDS);

    let mut services = Vec::new();
    let mut servers = Vec::new();
    let mut disks = Vec::new();
    for shard in 0..SHARDS {
        let mut store = BlockStore::with_id_base(map.id_base(shard));
        if shard == 0 {
            for f in 0..SHARDS {
                store
                    .create_with(
                        &map.name_for_shard(0, &format!("hot{f}")),
                        &vec![0xA0 + f as u8; FILE_BLOCKS * BLOCK_SIZE],
                    )
                    .expect("fresh store");
            }
        }
        let fs_cfg = FileServerConfig {
            disk: DiskModel::fixed(SimDuration::from_millis(1)),
            register: Some(map.logical_id(shard)),
            ..FileServerConfig::default()
        };
        let mut svc = spawn_file_server(&mut cl, HostId(shard), fs_cfg, store);
        servers.push(svc.server);
        if arm != Arm::Baseline {
            svc.attach_migration_agent(&mut cl);
            disks.push(svc.disk.clone());
            services.push(svc);
        }
    }
    cl.run(); // every service blocked in Receive

    let overlay: Rc<RefCell<ShardOverlay>> = Default::default();
    let mut reports = Vec::new();
    let mut script_len = 0u64;
    for client in 0..SHARDS {
        let mut script = read_script(
            &map.name_for_shard(0, &format!("hot{client}")),
            reads,
            FILE_BLOCKS as u32,
            0xA0 + client as u8,
        );
        // Close with a write+read pair: the file must take writes
        // wherever the policy left it (and the drain's retry-after
        // path gets exercised when a write lands mid-move).
        script.push(FsCall::WriteFill {
            block: 1,
            count: BLOCK_SIZE as u32,
            fill: 0x50 + client as u8,
        });
        script.push(FsCall::ReadExpect {
            block: 1,
            count: BLOCK_SIZE as u32,
            expect: 0x50 + client as u8,
        });
        script_len = script.len() as u64;
        let rep = Rc::new(RefCell::new(FsClientReport::default()));
        let mut c = FsClient::sharded(servers.clone(), script, rep.clone());
        if arm != Arm::Baseline {
            c = c.with_overlay(overlay.clone());
        }
        cl.spawn(HostId(SHARDS + client), "skew-client", Box::new(c));
        reports.push(rep);
    }
    let ledger = (arm == Arm::On).then(|| {
        spawn_rebalancer(
            &mut cl,
            HostId(2 * SHARDS),
            RebalancerConfig {
                interval: SimDuration::from_millis(30),
                min_score: 1.0,
                ..RebalancerConfig::default()
            },
            &services,
            overlay.clone(),
        )
    });
    cl.run();

    let mut total_ms = 0.0f64;
    let mut wall_ms = 0.0f64;
    let mut stale = 0;
    let mut retries = 0;
    for (i, rep) in reports.iter().enumerate() {
        let r = rep.borrow().clone();
        assert!(
            r.done && r.errors == 0 && r.integrity_errors == 0 && r.completed == script_len,
            "skew client {i} failed: {r:?}"
        );
        total_ms += r.elapsed_ms;
        wall_ms = wall_ms.max(r.elapsed_ms);
        stale += r.stale_owner_forwards;
        retries += r.write_retries;
    }
    let per_op_ms = total_ms / (SHARDS as f64 * script_len as f64);
    let served_req_s = (SHARDS as f64 * script_len as f64) / (wall_ms / 1000.0);
    let elapsed = cl.now().since(SimTime::ZERO);
    let util = disks
        .iter()
        .map(|d| d.borrow().utilization(elapsed) * 100.0)
        .collect();
    let led = ledger.map(|l| l.borrow().clone()).unwrap_or_default();
    SkewOutcome {
        per_op_ms,
        served_req_s,
        util,
        moves: led.completed,
        converged_after: led.converged_after,
        stale_forwards: stale,
        moved_forwards: services
            .iter()
            .map(|s| s.stats.borrow().moved_forwards)
            .sum(),
        write_retries: retries,
    }
}

/// Max−min spread of per-shard disk utilization, in percentage points.
fn util_spread(util: &[f64]) -> f64 {
    let max = util.iter().cloned().fold(f64::MIN, f64::max);
    let min = util.iter().cloned().fold(f64::MAX, f64::min);
    max - min
}

/// The rebalancing table at `reads` per client: 160 in the full run;
/// the CI smoke job runs a short stream to keep the check cheap (still
/// long enough for the policy to sample, move, and converge mid-run).
pub fn rebalance_with_rounds(reads: u64) -> Comparison {
    let mut c = Comparison::new(
        "Rebalance",
        "heat-driven shard rebalancing with live migration, 4 shards, 10 MHz",
    );

    let base = run_skew(Arm::Baseline, reads);
    let off = run_skew(Arm::Off, reads);
    let on = run_skew(Arm::On, reads);

    c.push_ours("skewed mix: per op, static", off.per_op_ms, "ms");
    c.push_ours("skewed mix: per op, rebalanced", on.per_op_ms, "ms");
    c.push_ours("skewed mix: served load, static", off.served_req_s, "req/s");
    c.push_ours(
        "skewed mix: served load, rebalanced",
        on.served_req_s,
        "req/s",
    );
    c.push_ours(
        "rebalancing served-load gain",
        on.served_req_s / off.served_req_s,
        "x",
    );

    // Pinned to exactly 0.0 by the calibration suite: an idle policy
    // is not a near miss of today's deployment, it IS that deployment.
    c.push_ours(
        "rebalancer-off perturbation",
        off.per_op_ms - base.per_op_ms,
        "ms",
    );

    c.push_ours(
        "disk utilization spread, static",
        util_spread(&off.util),
        "pp",
    );
    c.push_ours(
        "disk utilization spread, rebalanced",
        util_spread(&on.util),
        "pp",
    );
    c.push_ours("files migrated", on.moves as f64, "files");
    c.push_ours(
        "rounds to convergence",
        on.converged_after.map_or(-1.0, |r| r as f64),
        "rounds",
    );
    c.push_ours(
        "stale-owner corrections (clients)",
        on.stale_forwards as f64,
        "ops",
    );
    c.push_ours(
        "forwarded stale requests (servers)",
        on.moved_forwards as f64,
        "ops",
    );
    c.push_ours("drain write retries", on.write_retries as f64, "ops");

    c.note("4 shard services, 1 ms disks; every hot file born on shard 0, one streaming client per file");
    c.note(
        "clients open once and stream — owner caches go stale when a file moves underneath them",
    );
    c.note("policy: 30 ms sampling, decay 0.5, band 1.25x mean, <= 2 moves/round; copy is 4 ordinary block reads");
    c.note("off arm = migration-capable services with the rebalancer never started (pinned 0.0 vs the agent-less deployment)");
    c.note("no paper counterpart — the 1983 file service is a fixed placement (its S7 capacity ceiling is the motivation)");
    c
}
