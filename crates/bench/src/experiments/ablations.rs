//! Design-choice ablations the paper reports as single sentences:
//! IP encapsulation (§3), the process-level network server (§3),
//! the specialized page protocol (§3.4/§6.1), and streaming (§6.2).

use v_kernel::{Cluster, ClusterConfig, CpuSpeed, Encapsulation, HostId};
use v_sim::SimDuration;
use v_workloads::echo::{EchoServer, Pinger};

use crate::paper;
use crate::report::Comparison;

use super::table_5::measure_srr;
use super::table_6_2::measure_seq;
use super::{run_client_server, N_EXCHANGES, N_PAGES};

/// §3: encapsulating interkernel packets in IP headers slows the basic
/// exchange by ~20 %.
pub fn ip_encapsulation() -> Comparison {
    let speed = CpuSpeed::Mc68000At8MHz;
    let mut c = Comparison::new("Sec 3 (IP)", "IP encapsulation of interkernel packets");

    let raw = measure_srr(speed, true);

    let mut cfg = ClusterConfig::three_mb().with_hosts(2, speed);
    cfg.protocol.encapsulation = Encapsulation::Ip;
    let (ip, _) = run_client_server(
        Cluster::new(cfg),
        HostId(1),
        HostId(0),
        |cl| cl.spawn(HostId(1), "echo", Box::new(EchoServer)),
        |server, rep| Box::new(Pinger::new(server, N_EXCHANGES, rep)),
    );

    c.push_ours("raw data-link exchange", raw.elapsed_ms, "ms");
    c.push_ours("IP-encapsulated exchange", ip.elapsed_ms, "ms");
    c.push(
        "IP overhead",
        paper::IP_ENCAP_OVERHEAD_FRACTION * 100.0,
        (ip.elapsed_ms / raw.elapsed_ms - 1.0) * 100.0,
        "%",
    );
    c.note("IP mode: +20 header bytes per packet plus header build/parse processor cost");
    c.note("paper: ~20% even without the IP checksum and with trivial routing");
    c
}

/// §3: routing remote sends through user-level network-server processes
/// instead of handling them in the kernel.
pub fn netserver_relay() -> Comparison {
    let speed = CpuSpeed::Mc68000At8MHz;
    let mut c = Comparison::new("Sec 3 (relay)", "process-level network server");
    let direct = measure_srr(speed, true);
    let relayed = v_baselines::relay::measure_relayed_exchange(speed, 500);
    c.push_ours("kernel-level remote exchange", direct.elapsed_ms, "ms");
    c.push_ours("relayed remote exchange", relayed, "ms");
    c.push(
        "slowdown factor",
        paper::NETSERVER_SLOWDOWN_FACTOR,
        relayed / direct.elapsed_ms,
        "x",
    );
    c.note("two extra local exchanges plus user-level packet copying per traversal");
    c.note("the per-traversal copying constant is fitted to the paper's reported 4x");
    c
}

/// §3.4/§6.1: V IPC page access vs a WFS-style specialized two-packet
/// protocol (the lower bound).
pub fn wfs_comparison() -> Comparison {
    let speed = CpuSpeed::Mc68000At10MHz;
    let mut c = Comparison::new("Sec 6.1 (WFS)", "V IPC vs specialized page protocol");
    let v = super::table_6_1::measure_page(
        speed,
        v_workloads::page::PageOp::Read,
        v_workloads::page::PageMode::Segment,
        true,
    );
    let mut cl = Cluster::new(ClusterConfig::three_mb().with_hosts(2, speed));
    let (wfs_ms, st) = v_baselines::wfs::measure_wfs(&mut cl, N_PAGES);
    assert_eq!(st.borrow().integrity_errors, 0);

    let model = v_kernel::CostModel::for_speed(speed);
    let net = v_net::NetParams::for_kind(v_net::NetworkKind::Experimental3Mb);
    let penalty = model.network_penalty(&net, 64).as_millis_f64()
        + model.network_penalty(&net, 576).as_millis_f64();

    c.push_ours("network penalty (64B + 576B)", penalty, "ms");
    c.push_ours("WFS-style page read", wfs_ms, "ms");
    c.push_ours("V IPC page read", v.elapsed_ms, "ms");
    c.push_ours("V IPC overhead vs specialized", v.elapsed_ms - wfs_ms, "ms");
    c.note("paper's claim: V IPC within ~1.5 ms of the network-penalty lower bound,");
    c.note("so specialized protocols have little room to improve on it");
    c
}

/// §6.2: streaming vs V request-response for sequential access.
pub fn streaming_comparison() -> Comparison {
    let mut c = Comparison::new("Sec 6.2", "streaming vs synchronous request-response");
    for disk in [10u64, 15, 20] {
        let v_ms = measure_seq(disk, SimDuration::ZERO);
        let mut cl =
            Cluster::new(ClusterConfig::three_mb().with_hosts(2, CpuSpeed::Mc68000At10MHz));
        let (s_ms, st) = v_baselines::streaming::measure_streaming(
            &mut cl,
            N_PAGES as u16,
            SimDuration::from_millis(disk),
            SimDuration::ZERO,
        );
        assert_eq!(st.borrow().integrity_errors, 0);
        c.push_ours(
            format!("V request-response, disk {disk} ms"),
            v_ms,
            "ms/page",
        );
        c.push_ours(format!("streaming, disk {disk} ms"), s_ms, "ms/page");
        c.push(
            format!("streaming gain, disk {disk} ms"),
            paper::STREAMING_MAX_IMPROVEMENT * 100.0,
            (v_ms - s_ms) / v_ms * 100.0,
            "% (bound)",
        );
    }
    // The slow-reader case: 20 ms of application compute per page.
    let think = SimDuration::from_millis(20);
    let v_slow = measure_seq(10, think);
    let mut cl = Cluster::new(ClusterConfig::three_mb().with_hosts(2, CpuSpeed::Mc68000At10MHz));
    let (s_slow, _) = v_baselines::streaming::measure_streaming(
        &mut cl,
        N_PAGES as u16,
        SimDuration::from_millis(10),
        think,
    );
    c.push_ours("V, slow reader (20 ms think)", v_slow, "ms/page");
    c.push_ours("streaming, slow reader", s_slow, "ms/page");
    c.push(
        "streaming gain, slow reader",
        20.0,
        (v_slow - s_slow) / v_slow * 100.0,
        "% (bound)",
    );
    c.note("paper: streaming is capped at ~15% (fast reader) / ~20% (slow reader),");
    c.note("while adding buffering copies and cache-consistency problems");
    c
}

/// Protocol ablation: the alien reply cache, switched off via
/// [`v_kernel::ProtocolConfig::alien_keep`] to quantify what it buys.
/// (The §3.4 appended-segment optimization is Table 6-1's Thoth-mode
/// write pair and its "segment mechanism savings per write" row.)
pub fn protocol_ablations() -> Comparison {
    let speed = CpuSpeed::Mc68000At10MHz;
    let mut c = Comparison::new("Ablations", "reply caching switched off, 10 MHz");

    // Reply caching: under loss, a cached reply answers a retransmitted
    // Send directly; without it (alien keep = 0) the exchange is
    // re-delivered and the receiver re-executes.
    let loss = v_net::FaultPlan::with_loss(0.05);
    let run = |caching: bool| {
        let mut cfg = ClusterConfig::three_mb().with_hosts(2, speed);
        cfg.faults = loss;
        if !caching {
            cfg.protocol.alien_keep = SimDuration::ZERO;
        }
        cfg.protocol.retransmit_timeout = SimDuration::from_millis(20);
        let mut cl = Cluster::new(cfg);
        let echo = cl.spawn(HostId(1), "echo", Box::new(EchoServer));
        cl.run();
        let rep = v_workloads::measure::probe(Default::default());
        cl.spawn(
            HostId(0),
            "pinger",
            Box::new(Pinger::new(echo, N_EXCHANGES, rep.clone())),
        );
        cl.run();
        let r = rep.borrow().clone();
        assert!(r.clean(), "lossy exchange loop failed: {r:?}");
        (r.per_op_ms(), cl.kernel_stats(HostId(1)))
    };
    let (cached_ms, cached_ks) = run(true);
    let (uncached_ms, uncached_ks) = run(false);
    c.push_ours("exchange, 5% loss, reply cache on", cached_ms, "ms");
    c.push_ours("exchange, 5% loss, reply cache off", uncached_ms, "ms");
    c.push_ours(
        "cached replies retransmitted",
        cached_ks.replies_retransmitted as f64,
        "packets",
    );
    c.push_ours(
        "re-deliveries without the cache",
        uncached_ks
            .aliens_allocated
            .saturating_sub(cached_ks.aliens_allocated) as f64,
        "exchanges",
    );
    c.note("cache off: ProtocolConfig::alien_keep = 0 (alien freed at reply)");
    c
}
