//! The read path, a layer at a time, through public items that have not
//! changed shape since the client cache became a capacity with one
//! constructor (`CacheConfig::blocks`; the scheme is the server's) — so
//! that the same file builds on a parent commit and its change, and the
//! two binaries can be alternated (see "Reads without staging" in
//! `docs/BENCHMARKS.md`).
//!
//! Each sample times `Cluster::run` only, on a cluster set up afresh:
//!
//! * `cache_hit_512` — a caching [`FsClient`] rereading eight resident
//!   blocks: per hit, one cache probe, one copy into the client's buffer,
//!   the hit's `Compute` event and the fill check. The nine remote
//!   operations that open the file and fill the cache are the same on
//!   both sides and 0.2 % of the operations.
//! * `serve_read_512` — an uncached client reading blocks from a file
//!   server: per read, store → server space → Reply packet → client
//!   space, around the same exchange `page_rw` measures.
//! * `local_page_read_512` / `local_page_write_512` — Table 6-1's page
//!   server on the client's own host: the reply segment and the appended
//!   segment copied between two spaces of one kernel.

use std::cell::RefCell;
use std::rc::Rc;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use v_fs::client::{FsCall, FsClient, FsClientReport};
use v_fs::{
    spawn_caching_client, spawn_file_server, BlockStore, CacheConfig, CacheMode, DiskModel,
    FileServerConfig, BLOCK_SIZE,
};
use v_kernel::{Cluster, ClusterConfig, CpuSpeed, HostId};
use v_sim::SimDuration;
use v_workloads::measure::{probe, Probe, RunReport};
use v_workloads::page::{PageClient, PageMode, PageOp, PageServer};

const BLOCKS: u32 = 8;
const FILL: u8 = 0x6C;
const OPS: usize = 4_000;

type Report = Rc<RefCell<FsClientReport>>;

/// Two hosts, a write-invalidate file server on the first holding one
/// eight-block file, and on the second a client that opens it and reads
/// `reads` blocks round-robin — through a 64-block cache if `cached`.
fn file_client(cached: bool, reads: usize) -> (Cluster, Report) {
    let cfg = ClusterConfig::three_mb().with_hosts(2, CpuSpeed::Mc68000At10MHz);
    let mut cl = Cluster::new(cfg);
    let mut store = BlockStore::new();
    let data = vec![FILL; BLOCKS as usize * BLOCK_SIZE];
    store.create_with("vol", &data).expect("fresh store");
    let cfg = FileServerConfig {
        disk: DiskModel::fixed(SimDuration::from_millis(1)),
        cache_mode: CacheMode::WriteInvalidate,
        ..FileServerConfig::default()
    };
    let team = spawn_file_server(&mut cl, HostId(0), cfg, store);
    cl.run();
    let mut script = vec![FsCall::Open("vol".into())];
    script.extend((0..reads).map(|i| FsCall::ReadExpect {
        block: i as u32 % BLOCKS,
        count: BLOCK_SIZE as u32,
        expect: FILL,
    }));
    let report = Report::default();
    let client = FsClient::new(team.server, script, report.clone());
    let cache = match cached {
        true => CacheConfig::blocks(64),
        false => CacheConfig::off(),
    };
    spawn_caching_client(&mut cl, HostId(1), client, &cache);
    (cl, report)
}

fn run_file_client((mut cl, report): (Cluster, Report)) {
    cl.run();
    let report = report.borrow();
    assert!(report.done && report.errors + report.integrity_errors == 0);
}

/// One host, a segment-mode page server and a client doing `OPS` page
/// operations against it.
fn local_pages(op: PageOp) -> (Cluster, Probe<RunReport>) {
    let cfg = ClusterConfig::three_mb().with_hosts(1, CpuSpeed::Mc68000At10MHz);
    let mut cl = Cluster::new(cfg);
    let report = probe(RunReport::default());
    let server = PageServer::new(PageMode::Segment, 512, 0x7E, report.clone());
    let server = cl.spawn(HostId(0), "pageserver", Box::new(server));
    cl.run();
    let client = PageClient::new(server, op, 512, OPS as u64, 0x7E, report.clone());
    cl.spawn(HostId(0), "pageclient", Box::new(client));
    (cl, report)
}

fn run_local_pages((mut cl, report): (Cluster, Probe<RunReport>)) {
    cl.run();
    assert!(report.borrow().clean());
}

fn bench_read_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("read_path");
    g.sample_size(40);
    let per_sample = BatchSize::PerIteration;
    g.bench_function(&format!("cache_hit_512_x{OPS}"), |b| {
        let setup = || file_client(true, BLOCKS as usize + OPS);
        b.iter_batched(setup, run_file_client, per_sample)
    });
    g.bench_function(&format!("serve_read_512_x{OPS}"), |b| {
        b.iter_batched(|| file_client(false, OPS), run_file_client, per_sample)
    });
    for (name, op) in [("read", PageOp::Read), ("write", PageOp::Write)] {
        g.bench_function(&format!("local_page_{name}_512_x{OPS}"), |b| {
            b.iter_batched(|| local_pages(op), run_local_pages, per_sample)
        });
    }
    g.finish();
}

criterion_group!(benches, bench_read_path);
criterion_main!(benches);
