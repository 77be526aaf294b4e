//! One experiment per table/figure of the paper.
//!
//! Each function builds fresh clusters, runs the paper's measurement
//! procedure, and returns a [`Comparison`] of published vs measured
//! values. `docs/BENCHMARKS.md` (repository root) is the experiment
//! index: ids, paper counterparts, the JSON artifact format and the CI
//! deviation gate.

mod ablations;
mod cachemix;
mod datapath;
mod engine;
mod failover;
mod fileserver;
mod multi;
mod pipeline;
mod rebalance;
mod shard;
mod table_4_1;
mod table_5;
mod table_6_1;
mod table_6_2;
mod table_6_3;
mod ten_mb;
mod wan;

pub use ablations::{
    ip_encapsulation, netserver_relay, protocol_ablations, streaming_comparison, wfs_comparison,
};
pub use cachemix::{cachemix, cachemix_with_rounds};
pub use datapath::{datapath, datapath_with_rounds};
pub use engine::engine_with_sizes;
pub use failover::failover_with_rounds;
pub use fileserver::file_server_capacity;
pub use multi::multi_process_traffic;
pub use pipeline::pipeline_with_rounds;
pub use rebalance::rebalance_with_rounds;
pub use shard::shard_with_rounds;
pub use table_4_1::network_penalty_with_rounds;
pub use table_5::kernel_performance;
pub use table_6_1::page_access;
pub use table_6_2::sequential_access;
pub use table_6_3::program_loading;
pub use ten_mb::ten_mb_ethernet;
pub use wan::wan_with_rounds;

use std::cell::RefCell;
use std::rc::Rc;

use v_fs::{FsCall, FsClientReport, BLOCK_SIZE};
use v_kernel::{Cluster, ClusterConfig, CpuSpeed, HostId, Pid, Program};
use v_workloads::measure::{probe, CpuSnapshot, Probe, RunReport};
use v_workloads::page::{PageClient, PageMode, PageOp, PageServer};

use crate::report::Comparison;

/// Runs one experiment and returns its table.
pub type Experiment = fn() -> Comparison;

/// One experiment of `v-bench`.
pub struct Entry {
    /// What it is asked for and written as (`BENCH_<id>.json`) by.
    pub id: &'static str,
    /// The full run.
    pub run: Experiment,
    /// The tiny-round run `--smoke` makes of it, if it makes one: a cheap
    /// end-to-end exercise of the pipeline, not a measurement.
    pub smoke: Option<Experiment>,
}

const fn full(id: &'static str, run: Experiment) -> Entry {
    Entry {
        id,
        run,
        smoke: None,
    }
}

const fn both(id: &'static str, run: Experiment, smoke: Experiment) -> Entry {
    Entry {
        id,
        run,
        smoke: Some(smoke),
    }
}

/// Every experiment, in the order `all` runs them.
pub const EXPERIMENTS: [Entry; 22] = [
    both(
        "4-1",
        || network_penalty_with_rounds(300),
        || network_penalty_with_rounds(5),
    ),
    full("5-1", || kernel_performance(CpuSpeed::Mc68000At8MHz)),
    full("5-2", || kernel_performance(CpuSpeed::Mc68000At10MHz)),
    full("5-4", multi_process_traffic),
    full("6-1", page_access),
    full("6-2", sequential_access),
    full("6-3", program_loading),
    full("7", file_server_capacity),
    full("8", ten_mb_ethernet),
    full("ip", ip_encapsulation),
    full("relay", netserver_relay),
    full("wfs", wfs_comparison),
    full("streaming", streaming_comparison),
    both("wan", || wan_with_rounds(200), || wan_with_rounds(60)),
    both(
        "shard",
        || shard_with_rounds(N_PAGES),
        || shard_with_rounds(40),
    ),
    both(
        "rebalance",
        || rebalance_with_rounds(160),
        || rebalance_with_rounds(80),
    ),
    both(
        "failover",
        || failover_with_rounds(300),
        || failover_with_rounds(40),
    ),
    both(
        "pipeline",
        || pipeline_with_rounds(60),
        || pipeline_with_rounds(8),
    ),
    both("datapath", datapath, || datapath_with_rounds(8)),
    both("cachemix", cachemix, || cachemix_with_rounds(40)),
    full("ablate", protocol_ablations),
    both(
        "engine",
        || engine_with_sizes(&[64, 256, 1000]),
        || engine_with_sizes(&[48]),
    ),
];

/// Iterations used for fast message-exchange loops.
pub(crate) const N_EXCHANGES: u64 = 1000;
/// Iterations used for bulk-transfer loops.
pub(crate) const N_MOVES: u64 = 300;
/// Iterations used for page-access loops.
pub(crate) const N_PAGES: u64 = 500;
/// The byte every benchmark file and page is filled with.
pub(crate) const FILL: u8 = 0x7E;

/// A measured operation: elapsed per op plus client/server CPU per op.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Measured {
    pub elapsed_ms: f64,
    pub client_cpu_ms: f64,
    pub server_cpu_ms: f64,
}

/// Runs `client` against an already-spawned-and-settled server setup.
///
/// `setup` spawns the server side into the cluster and returns the pid the
/// client should talk to; the cluster is run to quiescence (servers
/// blocked in `Receive`) before CPU snapshots are taken, so setup costs do
/// not pollute the per-operation accounting.
pub(crate) fn run_client_server(
    mut cluster: Cluster,
    server_host: HostId,
    client_host: HostId,
    setup: impl FnOnce(&mut Cluster) -> Pid,
    client: impl FnOnce(Pid, Probe<RunReport>) -> Box<dyn Program>,
) -> (Measured, RunReport) {
    let server_pid = setup(&mut cluster);
    cluster.run(); // let the server reach its Receive
    let client_cpu = CpuSnapshot::take(&cluster, client_host);
    let server_cpu = CpuSnapshot::take(&cluster, server_host);
    let report = probe(RunReport::default());
    cluster.spawn(
        client_host,
        "bench-client",
        client(server_pid, report.clone()),
    );
    cluster.run();
    let r = report.borrow().clone();
    assert!(
        r.clean(),
        "benchmark loop failed: {r:?} (server {server_pid})"
    );
    let ops = r.iterations;
    let m = Measured {
        elapsed_ms: r.per_op_ms(),
        client_cpu_ms: client_cpu.per_op_ms(&cluster, ops),
        server_cpu_ms: server_cpu.per_op_ms(&cluster, ops),
    };
    (m, r)
}

/// A 2-host cluster of the paper's main (3 Mb) configuration.
pub(crate) fn pair_3mb(speed: CpuSpeed) -> Cluster {
    Cluster::new(ClusterConfig::three_mb().with_hosts(2, speed))
}

/// Runs `rounds` 512-byte page reads — the Table 6-1 page pair, the
/// server on `server_host` in `mode`, the client on host 0 — and returns
/// the mean ms per read and the finished cluster. Shared by the WAN,
/// shard-placement and data-path experiments, and deliberately identical
/// in procedure to the Table 6-1 remote-read loop so cross-topology rows
/// stay comparable.
pub(crate) fn run_page_reads(
    mut cl: Cluster,
    server_host: HostId,
    mode: PageMode,
    rounds: u64,
) -> (f64, Cluster) {
    let rep = probe(RunReport::default());
    let server = cl.spawn(
        server_host,
        "pageserver",
        Box::new(PageServer::new(mode, 512, FILL, rep.clone())),
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
            FILL,
            crep.clone(),
        )),
    );
    cl.run();
    let r = crep.borrow().clone();
    assert!(r.clean(), "page-read loop failed: {r:?}");
    (r.per_op_ms(), cl)
}

/// Where a scripted client writes its report.
pub(crate) type Slot = Rc<RefCell<FsClientReport>>;

/// `Open(name)`, then `reads` 512-byte reads cycling over the file's
/// first `blocks` blocks, each expecting every byte to be `fill`.
pub(crate) fn read_script(name: &str, reads: u64, blocks: u32, fill: u8) -> Vec<FsCall> {
    let mut script = vec![FsCall::Open(name.into())];
    script.extend((0..reads).map(|j| FsCall::ReadExpect {
        block: (j % u64::from(blocks)) as u32,
        count: BLOCK_SIZE as u32,
        expect: fill,
    }));
    script
}

/// Spawns `n` scripted clients — `spawn(cl, i, slot)` spawns the `i`-th,
/// reporting into `slot` — runs the cluster to quiescence and returns
/// the reports in spawn order, each asserted clean: done, with no failed
/// step and no wrong byte.
pub(crate) fn run_clients(
    cl: &mut Cluster,
    n: usize,
    mut spawn: impl FnMut(&mut Cluster, usize, Slot),
) -> Vec<FsClientReport> {
    let slots: Vec<Slot> = (0..n)
        .map(|i| {
            let slot = Slot::default();
            spawn(cl, i, slot.clone());
            slot
        })
        .collect();
    cl.run();
    slots
        .iter()
        .enumerate()
        .map(|(i, slot)| {
            let r = slot.borrow().clone();
            assert!(
                r.done && r.errors == 0 && r.integrity_errors == 0,
                "scripted client {i} failed: {r:?}"
            );
            r
        })
        .collect()
}

/// A 2-host cluster on the 10 Mb standard Ethernet (§8).
pub(crate) fn pair_10mb(speed: CpuSpeed) -> Cluster {
    Cluster::new(ClusterConfig::ten_mb().with_hosts(2, speed))
}
