//! File-server request pipelining: sequential server vs a
//! receptionist/worker team under multi-client burst fan-in.
//!
//! §7 budgets one server's capacity as pure processor time and Table
//! 6-3 shows per-client degradation as contention grows; both assume a
//! server that does one thing at a time. The `Forward`-based server
//! team (`v_fs::team`) overlaps one request's disk wait with the next
//! request's receive and file-system processing, so the ceiling moves
//! from *sum of service stages* toward *the slowest stage* — the disk,
//! which the shared `DiskModel` now reports directly (queue depth, busy
//! time) instead of leaving utilization to be inferred.
//!
//! Procedure: K diskless clients (one per host) each open a private
//! 8-block file on one server and read pages in a tight loop — the
//! Table 6-1 remote-read shape, fanned in. The same burst runs against
//! the sequential server (`workers = 1`) and a 4-worker team; read-ahead
//! is off in both so the contrast isolates pipelining. The Datapath
//! table runs the same burst (`run_burst`) with the disk striped
//! over more arms. That `workers = 1` spawns the sequential server is
//! `v_fs`'s own test (`team::tests::workers_1_takes_the_sequential_path`).

use v_fs::client::FsClient;
use v_fs::disk::{DiskModel, DiskStats};
use v_fs::server::FileServerConfig;
use v_fs::store::BlockStore;
use v_fs::team::spawn_file_server;
use v_fs::BLOCK_SIZE;
use v_kernel::{Cluster, ClusterConfig, CpuSpeed, HostId};
use v_sim::SimDuration;

use crate::report::Comparison;

use super::{read_script, run_clients, FILL};

/// Workers in the pipelined team.
pub(crate) const WORKERS: usize = 4;
/// Blocks per client file.
pub(crate) const FILE_BLOCKS: usize = 8;

/// One burst run's measurements.
pub(crate) struct Burst {
    /// Mean ms per completed script step (open + reads) per client.
    pub per_read_ms: f64,
    /// Served load over the burst.
    pub req_per_s: f64,
    /// The server disk's counters (aggregated across arms by
    /// [`DiskStats::absorb`]).
    pub disk: DiskStats,
    /// Disk utilization over the burst.
    pub disk_util: f64,
    /// Per-arm utilization over the burst (one entry on a single-arm
    /// unit; the Datapath table sweeps wider stripes).
    pub arm_util: Vec<f64>,
}

/// Runs one burst: `clients` simultaneous clients, one per host, each
/// opening its private file and reading `reads` pages from a server
/// with `workers` workers and a disk of `arms` striped arms. The one
/// burst of both the Pipeline and the Datapath table.
pub(crate) fn run_burst(workers: usize, arms: usize, clients: usize, reads: u64) -> Burst {
    let mut cl =
        Cluster::new(ClusterConfig::three_mb().with_hosts(clients + 1, CpuSpeed::Mc68000At10MHz));
    let mut store = BlockStore::new();
    for i in 0..clients {
        store
            .create_with(&format!("vol{i}"), &vec![FILL; FILE_BLOCKS * BLOCK_SIZE])
            .expect("fresh store");
    }
    let cfg = FileServerConfig {
        disk: DiskModel::fixed(SimDuration::from_millis(15)),
        disk_arms: arms,
        // Isolate pipelining: no speculative disk traffic.
        read_ahead: false,
        register: None,
        workers,
        ..FileServerConfig::default()
    };
    let team = spawn_file_server(&mut cl, HostId(0), cfg, store);
    cl.run(); // team settled: every process blocked receiving

    let t0 = cl.now();
    let reports = run_clients(&mut cl, clients, |cl, i, slot| {
        let script = read_script(&format!("vol{i}"), reads, FILE_BLOCKS as u32, FILL);
        cl.spawn(
            HostId(1 + i),
            "burst-client",
            Box::new(FsClient::new(team.server, script, slot)),
        );
    });
    let elapsed = cl.now().since(t0);
    let total_ops: u64 = reports.iter().map(|r| r.completed).sum();
    let unit = team.disk.borrow();
    let disk = unit.stats();
    Burst {
        per_read_ms: reports.iter().map(|r| r.elapsed_ms).sum::<f64>() / total_ops as f64,
        req_per_s: total_ops as f64 / elapsed.as_secs_f64(),
        disk,
        disk_util: disk.utilization(elapsed),
        arm_util: unit
            .per_arm_stats()
            .iter()
            .map(|s| s.utilization(elapsed))
            .collect(),
    }
}

/// The pipelining table at `reads` per client: 60 in the full run; the
/// CI smoke job runs a handful to keep the pipeline check cheap.
pub fn pipeline_with_rounds(reads: u64) -> Comparison {
    let mut c = Comparison::new(
        "Pipeline",
        "file-server team pipelining under burst fan-in, 512 B reads, 10 MHz",
    );

    // --- per-read latency vs burst width, sequential vs team ------------
    let mut seq_at = Vec::new();
    let mut pipe_at = Vec::new();
    for clients in [1usize, 2, 4, 8] {
        let seq = run_burst(1, 1, clients, reads);
        let pipe = run_burst(WORKERS, 1, clients, reads);
        c.push_ours(
            format!("burst of {clients}: sequential per read"),
            seq.per_read_ms,
            "ms",
        );
        c.push_ours(
            format!("burst of {clients}: pipelined per read ({WORKERS} workers)"),
            pipe.per_read_ms,
            "ms",
        );
        seq_at.push(seq);
        pipe_at.push(pipe);
    }
    let (seq8, pipe8) = (&seq_at[3], &pipe_at[3]);
    c.push_ours(
        "burst of 4: pipelining speedup",
        seq_at[2].per_read_ms / pipe_at[2].per_read_ms,
        "x",
    );

    // --- the disk as the queueing center --------------------------------
    c.push_ours(
        "burst of 8: sequential disk utilization",
        seq8.disk_util * 100.0,
        "%",
    );
    c.push_ours(
        "burst of 8: pipelined disk utilization",
        pipe8.disk_util * 100.0,
        "%",
    );
    c.push_ours(
        "burst of 8: pipelined max disk queue depth",
        pipe8.disk.max_queue_depth as f64,
        "req",
    );
    for (k, util) in pipe8.arm_util.iter().enumerate() {
        c.push_ours(
            format!("burst of 8: pipelined disk arm {k} utilization"),
            util * 100.0,
            "%",
        );
    }
    c.push_ours(
        "burst of 8: sequential max disk queue depth",
        seq8.disk.max_queue_depth as f64,
        "req",
    );
    c.push_ours(
        "burst of 8: sequential served load",
        seq8.req_per_s,
        "req/s",
    );
    c.push_ours(
        "burst of 8: pipelined served load",
        pipe8.req_per_s,
        "req/s",
    );

    // --- the §7 capacity estimate, redone for a pipelined server --------
    // Sequential ceiling: one request's whole service path at a time.
    let seq_service_ms = seq_at[0].per_read_ms;
    // Pipelined ceiling: the slowest stage — the disk's mean service.
    let disk_service_ms = if pipe8.disk.requests == 0 {
        f64::NAN
    } else {
        pipe8.disk.busy.as_millis_f64() / pipe8.disk.requests as f64
    };
    c.push_ours(
        "capacity estimate, sequential (1000/service)",
        1000.0 / seq_service_ms,
        "req/s",
    );
    c.push_ours(
        "capacity estimate, pipelined (1000/disk service)",
        1000.0 / disk_service_ms,
        "req/s",
    );

    c.note(format!(
        "burst: K clients, one per host, each opening a private {FILE_BLOCKS}-block file and \
         reading {reads} pages (Table 6-1 remote-read shape, fanned in)"
    ));
    c.note("15 ms fixed-latency disk shared by the team (single-arm); read-ahead off in both arms");
    c.note("per read includes the amortized open; identical procedure in both arms");
    c.note("sequential serializes receive+fs CPU+disk+reply; the team overlaps all but the disk");
    c.note(
        "the pipelined capacity ceiling is per disk arm: a striped unit divides the disk \
         service across arms and the ceiling scales with arm count until the wire takes \
         over (measured in the Datapath table)",
    );
    c
}
