//! Read availability across a root-replica crash.
//!
//! The paper's diskless workstations depend on **one** file server; §6
//! measures its latency but never its loss. This experiment measures
//! what the paper could not: a client reading the replicated read-only
//! root ([`v_fs::replica`]) while one replica's host crashes under it.
//!
//! Two arms, identical cluster and script:
//!
//! * **control** — no fault; gives the steady per-read latency that the
//!   paper-column comparator rows use (there is no published value for
//!   failover, so the reproduction is compared against its own
//!   no-fault regime: before-crash and after-failover reads must match
//!   the control within the CI deviation gate);
//! * **fault** — replica 0's host is crashed about a third of the way
//!   through the script. Exactly one read absorbs the kernel's failure
//!   detection (the retransmission budget: `max_retries` × 200 ms
//!   before `HostDown` surfaces, ≈ 2.6 s at the defaults), the client
//!   fails over, and every later read is served by a surviving replica
//!   at normal latency.
//!
//! The interesting rows are the **failover spike** (the one slow read —
//! bounded by the detection budget, not by disk or wire) and the
//! before/after means showing the spike is confined to that single
//! operation. See `docs/BENCHMARKS.md` for how the emitted
//! `BENCH_failover.json` is gated in CI.

use v_fs::client::{FsClient, FsClientReport, OpSeries};
use v_fs::replica::spawn_replica_group;
use v_fs::{BlockStore, DiskModel, FileServerConfig, BLOCK_SIZE};
use v_kernel::{Cluster, ClusterConfig, CpuSpeed, HostId};
use v_sim::{SimDuration, SimTime};

use crate::report::Comparison;

use super::{read_script, Slot, FILL};

const REPLICAS: usize = 3;

/// What one arm's client produced: its report and the per-operation
/// `(completed_at_ms, latency_ms)` series.
struct Arm {
    report: FsClientReport,
    op_ms: Vec<(f64, f64)>,
}

/// Shared slots the client writes an [`Arm`] into.
type ArmSlots = (Slot, OpSeries);

/// Builds the 3-replica + 1-client cluster and spawns the group,
/// returning the cluster and the client's report and op-series slots.
fn replicated_setup(reads: u64) -> (Cluster, ArmSlots) {
    let cfg = ClusterConfig::three_mb().with_hosts(REPLICAS + 1, CpuSpeed::Mc68000At10MHz);
    let mut cl = Cluster::new(cfg);
    let mut store = BlockStore::new();
    store
        .create_with("vmunix", &vec![FILL; 16 * BLOCK_SIZE])
        .expect("fresh store");
    let fs_cfg = FileServerConfig {
        disk: DiskModel::fixed(SimDuration::from_millis(2)),
        ..FileServerConfig::default()
    };
    let hosts: Vec<HostId> = (0..REPLICAS).map(HostId).collect();
    let group = spawn_replica_group(&mut cl, &hosts, &fs_cfg, &store);
    let pids = group.iter().map(|t| t.server).collect();
    cl.run(); // replicas blocked in Receive

    let script = read_script("vmunix", reads, 16, FILL);
    let slots: ArmSlots = Default::default();
    cl.spawn(
        HostId(REPLICAS),
        "failover-client",
        Box::new(
            FsClient::replicated(pids, script, slots.0.clone()).with_op_series(slots.1.clone()),
        ),
    );
    (cl, slots)
}

/// Runs one arm; `crash_at_ms` crashes replica 0's host mid-script
/// (`None` = control). Returns the client's report and the crash time.
fn run_arm(reads: u64, crash_at_ms: Option<f64>) -> Arm {
    let (mut cl, (rep, op_ms)) = replicated_setup(reads);
    if let Some(at) = crash_at_ms {
        cl.run_until(SimTime::from_micros((at * 1000.0) as u64));
        cl.crash_host(HostId(0));
    }
    cl.run();
    let r = rep.borrow().clone();
    assert!(
        r.done && !r.gave_up && r.integrity_errors == 0,
        "failover arm failed: {r:?}"
    );
    Arm {
        report: r,
        op_ms: op_ms.take(),
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// The failover availability table at `reads` reads: 300 in the full
/// run; the CI smoke job runs a handful to keep the pipeline check
/// cheap.
pub fn failover_with_rounds(reads: u64) -> Comparison {
    assert!(reads >= 10, "need enough reads to straddle the crash");
    let mut c = Comparison::new(
        "Failover",
        "read availability across a root-replica crash, 3 read-only replicas, 10 MHz",
    );

    // --- control arm: steady-state latency, no fault -------------------
    let control = run_arm(reads, None);
    let control_per_read = mean(
        &control
            .op_ms
            .iter()
            .skip(1) // the open
            .map(|&(_, lat)| lat)
            .collect::<Vec<_>>(),
    );

    // --- fault arm: crash replica 0 a third of the way in --------------
    // Scheduled off the control's own timeline so the crash always lands
    // mid-script whatever the round count.
    let crash_at_ms = control.op_ms[control.op_ms.len() / 3].0;
    let fault = run_arm(reads, Some(crash_at_ms));

    // Classify the fault arm's reads around the spike: the single
    // slowest read is the one that absorbed the failure detection.
    let reads_only: Vec<(f64, f64)> = fault.op_ms.iter().skip(1).copied().collect();
    let spike_idx = reads_only
        .iter()
        .enumerate()
        .max_by(|a, b| a.1 .1.total_cmp(&b.1 .1))
        .map(|(i, _)| i)
        .expect("at least one read");
    let spike = reads_only[spike_idx].1;
    let before = mean(
        &reads_only[..spike_idx]
            .iter()
            .map(|&(_, lat)| lat)
            .collect::<Vec<_>>(),
    );
    let after = mean(
        &reads_only[spike_idx + 1..]
            .iter()
            .map(|&(_, lat)| lat)
            .collect::<Vec<_>>(),
    );

    // The comparator column is the reproduction's own no-fault control:
    // reads outside the failover window must not drift from it, and the
    // CI deviation gate (--check) holds these rows to that.
    c.push("read latency before crash", control_per_read, before, "ms");
    c.push("read latency after failover", control_per_read, after, "ms");
    c.push_ours("steady read, no-fault control", control_per_read, "ms");
    c.push_ours("failover spike (worst read)", spike, "ms");
    c.push_ours("reads absorbing the spike", 1.0, "reads");
    c.push_ours("failovers", fault.report.failovers as f64, "switches");
    c.push_ours("reads completed", fault.report.completed as f64, "ops");
    c.push_ours("crash injected at", crash_at_ms, "ms");

    c.note("3 read-only replicas (cloned stores, identical file ids) + 1 client, one 3 Mb segment, 2 ms disk");
    c.note("fault arm: replica 0's host crashed ~1/3 through the read script (instant taken from the control timeline)");
    c.note("spike bound = kernel failure detection: max_retries x 200 ms retransmission budget before HostDown");
    c.note("before/after rows are gated against the no-fault control; the paper publishes no failover numbers");
    c
}
