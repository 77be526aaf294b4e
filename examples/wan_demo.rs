//! Off the segment: V message exchanges across a store-and-forward
//! gateway and over a lossy long-haul link.
//!
//! The paper's diskless workstations share one Ethernet; this demo
//! places the client and the echo server on *different* segments joined
//! by a gateway with a bounded queue, injects loss, and shows the
//! kernel's reliability machinery absorbing both the extra hop and the
//! dropped frames — then repeats the exchange over a 30 ms WAN line
//! where distance, not protocol, dominates.
//!
//! Run with: `cargo run --example wan_demo`

use v_kernel::{Cluster, ClusterConfig, CpuSpeed, HostId};
use v_net::{FaultPlan, LinkParams, MeshConfig};
use v_sim::SimDuration;
use v_workloads::echo::{EchoServer, Pinger};
use v_workloads::measure::probe;

fn main() {
    // --- Across the gateway, through a 5% loss storm -------------------
    let mut topo = MeshConfig::star(2);
    topo.gateway_queue = 4;
    let mut cfg = ClusterConfig::mesh(topo)
        .with_host_on(CpuSpeed::Mc68000At8MHz, 0)
        .with_host_on(CpuSpeed::Mc68000At8MHz, 1);
    cfg.faults = FaultPlan::with_loss(0.05);
    cfg.protocol.retransmit_timeout = SimDuration::from_millis(20);
    let mut cluster = Cluster::new(cfg);

    let echo = cluster.spawn(HostId(1), "echo", Box::new(EchoServer));
    let rep = probe(Default::default());
    cluster.spawn(
        HostId(0),
        "pinger",
        Box::new(Pinger::new(echo, 500, rep.clone())),
    );
    cluster.run();
    let r = rep.borrow();
    assert_eq!(r.iterations, 500, "every exchange must complete");
    assert_eq!(r.failures, 0);
    assert_eq!(r.integrity_errors, 0);
    println!(
        "500/500 exchanges across the gateway under 5% loss; mean {:.2} ms",
        r.per_op_ms()
    );
    println!("  (same exchange on one clean segment: 3.22 ms)");

    let k0 = cluster.kernel_stats(HostId(0));
    let k1 = cluster.kernel_stats(HostId(1));
    let g = cluster
        .gateway_stats_total()
        .expect("internetwork topology");
    let m = cluster.medium_stats();
    println!();
    println!("what the topology did to the traffic:");
    println!(
        "  segments: {} frames on the wire, {} dropped by loss injection",
        m.frames_sent, m.dropped
    );
    println!(
        "  gateway: {} frames forwarded, {} corrupt discarded, {} queue overflows, peak queue {}",
        g.forwarded, g.corrupt_drops, g.queue_drops, g.max_queue
    );
    println!(
        "  recovery: {} client retransmissions, {} cached replies re-sent, {} duplicates filtered",
        k0.retransmissions, k1.replies_retransmitted, k1.duplicates_filtered
    );

    // --- Over a lossy long-haul line -----------------------------------
    let mut cfg = ClusterConfig::wan(LinkParams::T1).with_hosts(2, CpuSpeed::Mc68000At8MHz);
    cfg.faults = FaultPlan::with_loss(0.03);
    cfg.protocol.retransmit_timeout = SimDuration::from_millis(80);
    let mut cluster = Cluster::new(cfg);
    let echo = cluster.spawn(HostId(1), "echo", Box::new(EchoServer));
    let rep = probe(Default::default());
    cluster.spawn(
        HostId(0),
        "pinger",
        Box::new(Pinger::new(echo, 200, rep.clone())),
    );
    cluster.run();
    let r = rep.borrow();
    assert_eq!(r.iterations, 200);
    assert_eq!(r.failures, 0);
    let k0 = cluster.kernel_stats(HostId(0));
    println!();
    println!(
        "200/200 exchanges over a 1.544 Mb/s, 30 ms line with 3% loss; mean {:.1} ms",
        r.per_op_ms()
    );
    println!(
        "  {} retransmissions paid for the losses; the protocol needed no change at all",
        k0.retransmissions
    );
}
