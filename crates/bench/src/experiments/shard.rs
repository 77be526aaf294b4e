//! Sharded file-service placement on a routed mesh.
//!
//! The paper's Table 6-1 measures page access with client and server on
//! one shared segment; cluster deployments of diskless clients put
//! several segments behind gateways and have to decide **where the file
//! service lives**. Two questions, two halves:
//!
//! 1. What does a gateway hop cost a page read? The Table 6-1 remote
//!    512-byte read rerun on a 3-segment line mesh with the server 0, 1
//!    and 2 hops away. The same-segment case must be **bit-identical**
//!    to the single-segment baseline — placing a mesh around the
//!    segment must not perturb the paper's numbers — and latency must
//!    be strictly ordered same-segment < 1 hop < 2 hops.
//! 2. Does partitioned placement pay? Three diskless clients (one per
//!    segment) each work a file pinned to one shard. *Centralized*
//!    places all three shard servers on segment 0, so two clients cross
//!    gateways for every page; *partitioned* places one shard per
//!    segment, so every client reads locally. Same protocol, same
//!    servers, same scripts — only placement moves.

use v_fs::client::FsClient;
use v_fs::disk::DiskModel;
use v_fs::shard::ShardMap;
use v_fs::store::BlockStore;
use v_fs::{spawn_file_server, FileServerConfig, BLOCK_SIZE};
use v_kernel::{Cluster, ClusterConfig, CpuSpeed, HostId};
use v_net::MeshConfig;
use v_sim::SimDuration;
use v_workloads::page::PageMode;

use crate::paper;
use crate::report::Comparison;

use super::{pair_3mb, read_script, run_clients, run_page_reads, FILL};

/// Mean ms per 512-byte page read with the server `hops` gateways away
/// on a 3-segment line mesh (client always on segment 0).
fn mesh_page_read(speed: CpuSpeed, hops: usize, rounds: u64) -> f64 {
    let cl = Cluster::new(
        ClusterConfig::mesh(MeshConfig::line(3))
            .with_host_on(speed, 0)
            .with_host_on(speed, hops),
    );
    run_page_reads(cl, HostId(1), PageMode::Segment, rounds).0
}

/// Runs the 3-client / 3-shard placement workload. `partitioned` puts
/// shard `i`'s server on segment `i`; centralized stacks all three on
/// segment 0. Returns (mean ms per page read across clients, gateway
/// frames forwarded).
fn run_placement(speed: CpuSpeed, reads_per_client: u64, partitioned: bool) -> (f64, u64) {
    let map = ShardMap::new(3);
    // Hosts 0–2: shard servers; hosts 3–5: one client per segment.
    let mut cfg = ClusterConfig::mesh(MeshConfig::line(3));
    for shard in 0..3 {
        cfg = cfg.with_host_on(speed, if partitioned { shard } else { 0 });
    }
    for seg in 0..3 {
        cfg = cfg.with_host_on(speed, seg);
    }
    let mut cl = Cluster::new(cfg);

    let mut servers = Vec::new();
    for shard in 0..3 {
        let mut store = BlockStore::with_id_base(map.id_base(shard));
        store
            .create_with(
                &map.name_for_shard(shard, "vol"),
                &vec![FILL; 16 * BLOCK_SIZE],
            )
            .expect("fresh store");
        let fs_cfg = FileServerConfig {
            disk: DiskModel::fixed(SimDuration::from_millis(1)),
            register: Some(map.logical_id(shard)),
            ..FileServerConfig::default()
        };
        servers.push(spawn_file_server(&mut cl, HostId(shard), fs_cfg, store).server);
    }
    cl.run(); // every server blocked in Receive

    let reports = run_clients(&mut cl, 3, |cl, client, slot| {
        // Client `i` works the file pinned to shard `i` — the placement
        // a directory partition by client home volume produces.
        let script = read_script(
            &map.name_for_shard(client, "vol"),
            reads_per_client,
            16,
            FILL,
        );
        cl.spawn(
            HostId(3 + client),
            "shard-client",
            Box::new(FsClient::sharded(servers.clone(), script, slot)),
        );
    });
    let total_ms: f64 = reports.iter().map(|r| r.elapsed_ms).sum();
    let per_read = total_ms / (3.0 * reads_per_client as f64);
    let forwarded = cl.gateway_stats_total().map_or(0, |g| g.forwarded);
    (per_read, forwarded)
}

/// The shard-placement table at `rounds` per row: `N_PAGES` in the
/// full run; the CI smoke job runs a handful to keep the pipeline check
/// cheap.
pub fn shard_with_rounds(rounds: u64) -> Comparison {
    let speed = CpuSpeed::Mc68000At10MHz;
    let mut c = Comparison::new(
        "Shard",
        "sharded file-service placement on a 3-segment routed mesh, 10 MHz",
    );

    // --- page-read latency by hop count --------------------------------
    let (baseline, _) = run_page_reads(pair_3mb(speed), HostId(1), PageMode::Segment, rounds);
    let same = mesh_page_read(speed, 0, rounds);
    let one = mesh_page_read(speed, 1, rounds);
    let two = mesh_page_read(speed, 2, rounds);
    c.push(
        "page read 512 B, same segment (mesh)",
        paper::TABLE_6_1[0].remote,
        same,
        "ms",
    );
    c.push_ours("page read 512 B, 1 hop", one, "ms");
    c.push_ours("page read 512 B, 2 hops", two, "ms");
    c.push_ours(
        "single-segment baseline (Table 6-1 procedure)",
        baseline,
        "ms",
    );
    // Pinned to exactly 0.0 by the calibration suite: the mesh fabric
    // must not perturb the paper's single-segment numbers.
    c.push_ours("mesh perturbation of baseline", same - baseline, "ms");
    c.push_ours("per-hop cost, first hop", one - same, "ms");
    c.push_ours("per-hop cost, second hop", two - one, "ms");

    // --- centralized vs partitioned placement --------------------------
    let fs_rounds = rounds.min(120);
    let (central_ms, central_fwd) = run_placement(speed, fs_rounds, false);
    let (part_ms, part_fwd) = run_placement(speed, fs_rounds, true);
    c.push_ours("centralized placement: page read", central_ms, "ms");
    c.push_ours("partitioned placement: page read", part_ms, "ms");
    c.push_ours("partitioned speedup", central_ms / part_ms, "x");
    c.push_ours(
        "centralized gateway frames forwarded",
        central_fwd as f64,
        "frames",
    );
    c.push_ours(
        "partitioned gateway frames forwarded",
        part_fwd as f64,
        "frames",
    );

    c.note("mesh: 3 × 3 Mb segments in a line, two gateways, 8-frame queues, 300 µs/frame");
    c.note("hop rows rerun the Table 6-1 remote 512 B read with the server 0/1/2 hops away");
    c.note("placement: 3 shard file servers + 3 clients (one per segment), 1 ms disk");
    c.note("partitioned = shard per segment; centralized = all shards on segment 0");
    c
}
