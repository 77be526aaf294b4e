//! Beyond the paper's single segment: message exchange (the Table 4-1
//! procedure's successor at message level) and Table 6-1 page reads
//! rerun across a store-and-forward gateway, and exchanges over a lossy
//! point-to-point WAN link.
//!
//! The paper's tables all assume one shared Ethernet; these rows
//! quantify what its protocol costs once a gateway hop or a long-haul
//! line sits between client and server. There are no published values
//! to compare against — every row is measurement-only — but the table
//! must show **nonzero added hop latency** and **loss-driven
//! retransmissions**, which the calibration suite and CI artifact keep
//! honest.

use v_kernel::{Cluster, ClusterConfig, CpuSpeed, HostId, KernelStats};
use v_net::{FaultPlan, LinkParams, MeshConfig};
use v_workloads::echo::{EchoServer, Pinger};
use v_workloads::measure::{probe, RunReport};
use v_workloads::mover::{Grantor, MoveDir, Mover};
use v_workloads::page::PageMode;

use crate::report::Comparison;

use super::{pair_3mb, run_page_reads};

/// Runs `rounds` remote exchanges (echo on host 1, pinger on host 0);
/// returns mean ms per exchange and the finished cluster for stats.
fn run_exchange(mut cl: Cluster, rounds: u64) -> (f64, Cluster) {
    let echo = cl.spawn(HostId(1), "echo", Box::new(EchoServer));
    cl.run(); // let the server reach its Receive
    let rep = probe(RunReport::default());
    cl.spawn(
        HostId(0),
        "pinger",
        Box::new(Pinger::new(echo, rounds, rep.clone())),
    );
    cl.run();
    let r = rep.borrow().clone();
    assert!(r.clean(), "exchange loop failed: {r:?}");
    (r.per_op_ms(), cl)
}

/// A client on segment 0 and a server on segment 1 of a two-segment
/// 3 Mb internetwork.
fn gateway_pair(speed: CpuSpeed) -> Cluster {
    Cluster::new(
        ClusterConfig::mesh(MeshConfig::star(2))
            .with_host_on(speed, 0)
            .with_host_on(speed, 1),
    )
}

/// The internetwork the bulk-transfer ablation runs over: a 10 Mb
/// ingress segment feeding a 3 Mb egress through the gateway, with a
/// queue deep enough to hold a whole transfer's chunks. The speed
/// mismatch makes the chunks pile up at the gateway — every serviced
/// frame has queued same-egress successors, the regime coalescing
/// exists for.
fn bulk_topology() -> MeshConfig {
    let mut cfg = MeshConfig::star(2);
    cfg.segments = vec![
        v_net::NetworkKind::Standard10Mb,
        v_net::NetworkKind::Experimental3Mb,
    ];
    cfg.gateway_queue = 64;
    cfg
}

/// Mean ms per cross-gateway bulk `MoveTo` of `size` bytes, plus the
/// gateway's coalesced-frame count. The mover (fast segment 0) pushes
/// each transfer as back-to-back chunk packets toward the grantor
/// (slow segment 1), so the chunks queue at the gateway. The mesh
/// coalesces queued frames only when `coalesce` is set.
fn run_bulk_move(speed: CpuSpeed, coalesce: bool, size: u32, rounds: u64) -> (f64, u64) {
    let mesh = if coalesce {
        bulk_topology().with_coalescing()
    } else {
        bulk_topology()
    };
    let topo = ClusterConfig::mesh(mesh);
    let mut cl = Cluster::new(topo.with_host_on(speed, 0).with_host_on(speed, 1));
    let rep = probe(RunReport::default());
    let mover = cl.spawn(
        HostId(0),
        "mover",
        Box::new(Mover::new(rounds, size, MoveDir::To, 0x5A, rep.clone())),
    );
    cl.spawn(
        HostId(1),
        "grantor",
        Box::new(Grantor {
            mover,
            size,
            pattern: 0x5A,
            dir: MoveDir::To,
            report: rep.clone(),
        }),
    );
    cl.run();
    let r = rep.borrow().clone();
    assert!(r.clean(), "bulk move loop failed: {r:?}");
    let coalesced = cl.gateway_stats_total().map_or(0, |g| g.coalesced);
    (r.per_op_ms(), coalesced)
}

/// The WAN/internetwork table at `rounds` per row: 200 in the full run;
/// the CI smoke job runs a handful to keep the pipeline check cheap.
pub fn wan_with_rounds(rounds: u64) -> Comparison {
    let speed = CpuSpeed::Mc68000At8MHz;
    let mut c = Comparison::new(
        "WAN",
        "message exchange and page reads beyond one segment, 8 MHz",
    );

    // Message exchange: one segment vs across the gateway.
    let (seg_ms, _) = run_exchange(pair_3mb(speed), rounds);
    let (gw_ms, gw_cl) = run_exchange(gateway_pair(speed), rounds);
    let g = gw_cl.gateway_stats_total().expect("gateway topology");
    c.push_ours("remote exchange, one 3 Mb segment", seg_ms, "ms");
    c.push_ours("remote exchange, across gateway", gw_ms, "ms");
    c.push_ours("added gateway hop latency", gw_ms - seg_ms, "ms");
    c.push_ours("gateway frames forwarded", g.forwarded as f64, "frames");

    // Table 6-1 page reads: one segment vs across the gateway.
    let (read_seg, _) = run_page_reads(pair_3mb(speed), HostId(1), PageMode::Segment, rounds);
    let (read_gw, _) = run_page_reads(gateway_pair(speed), HostId(1), PageMode::Segment, rounds);
    c.push_ours("page read 512 B, one segment", read_seg, "ms");
    c.push_ours("page read 512 B, across gateway", read_gw, "ms");
    c.push_ours("page read added hop latency", read_gw - read_seg, "ms");

    // Gateway frame coalescing ablation: a 16 KB cross-gateway MoveTo
    // queues its chunk packets at the gateway; with coalescing the
    // queued same-egress chunks share one forwarding charge per burst.
    let bulk_rounds = (rounds / 10).max(4);
    let (bulk_off, off_coalesced) = run_bulk_move(speed, false, 16 * 1024, bulk_rounds);
    let (bulk_on, on_coalesced) = run_bulk_move(speed, true, 16 * 1024, bulk_rounds);
    c.push_ours(
        "bulk 16 KB MoveTo across gateway, coalescing off",
        bulk_off,
        "ms",
    );
    c.push_ours(
        "bulk 16 KB MoveTo across gateway, coalescing on",
        bulk_on,
        "ms",
    );
    c.push_ours("coalescing speedup", bulk_off / bulk_on, "x");
    c.push_ours("frames coalesced, off", off_coalesced as f64, "frames");
    c.push_ours("frames coalesced, on", on_coalesced as f64, "frames");

    // A clean long-haul link: distance dominates everything.
    let clean = ClusterConfig::wan(LinkParams::T1).with_hosts(2, speed);
    let (wan_ms, _) = run_exchange(Cluster::new(clean), rounds);
    c.push_ours("exchange over clean T1 WAN (30 ms one way)", wan_ms, "ms");

    // The same link with 5% loss: the kernel's retransmission machinery
    // pays for every lost packet with a timeout.
    let lossy = ClusterConfig {
        faults: FaultPlan::with_loss(0.05),
        ..ClusterConfig::wan(LinkParams::T1)
    }
    .with_hosts(2, speed);
    let (lossy_ms, lossy_cl) = run_exchange(Cluster::new(lossy), rounds);
    let ks: KernelStats = lossy_cl.kernel_stats(HostId(0));
    let ks1: KernelStats = lossy_cl.kernel_stats(HostId(1));
    c.push_ours("exchange over T1 WAN, 5% loss", lossy_ms, "ms");
    c.push_ours(
        "loss-driven retransmissions",
        (ks.retransmissions + ks1.retransmissions + ks1.replies_retransmitted) as f64,
        "packets",
    );

    c.note("gateway: store-and-forward host joining two 3 Mb segments, bounded 8-frame queue");
    c.note("coalescing: queued same-egress frames at a gateway share one 300 µs forwarding charge");
    c.note("bulk rows: 10 Mb ingress feeding a 3 Mb egress, 64-frame queue — chunks pile up at the gateway");
    c.note("WAN: full-duplex 1.544 Mb/s link, 30 ms propagation each way");
    c.note("no paper counterpart — the 1983 evaluation never leaves one segment");
    c
}
