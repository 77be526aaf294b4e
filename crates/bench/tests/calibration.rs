//! Calibration pins: every reproduced table entry must stay within
//! tolerance of the paper's published value. These tolerances encode the
//! fidelity actually achieved (documented in `docs/BENCHMARKS.md`,
//! "Fidelity"); tightening the cost model should never loosen them.

use v_bench::experiments as exp;
use v_bench::report::Comparison;
use v_kernel::CpuSpeed;

/// Looks up a metric, failing the test with a clear message when an
/// experiment renamed it out from under the pins.
fn metric_of(c: &Comparison, name: &str) -> f64 {
    c.get(name)
        .unwrap_or_else(|| panic!("{}: no row named {name:?} — renamed metric?", c.id))
}

/// Asserts a comparison row is within `tol` (fractional) of the paper.
fn pin(c: &Comparison, metric: &str, paper: f64, tol: f64) {
    let ours = metric_of(c, metric);
    let dev = (ours - paper).abs() / paper.abs();
    assert!(
        dev <= tol,
        "{} / {metric}: ours {ours:.3} vs paper {paper:.3} ({:+.1}% > ±{:.0}%)",
        c.id,
        (ours - paper) / paper * 100.0,
        tol * 100.0
    );
}

#[test]
fn table_4_1_network_penalty() {
    let c = exp::network_penalty_with_rounds(300);
    for (bytes, p8, p10) in v_bench::paper::TABLE_4_1 {
        pin(&c, &format!("{bytes} bytes, 8 MHz"), p8, 0.05);
        pin(&c, &format!("{bytes} bytes, 10 MHz"), p10, 0.06);
    }
}

#[test]
fn table_5_1_kernel_performance_8mhz() {
    let c = exp::kernel_performance(CpuSpeed::Mc68000At8MHz);
    pin(&c, "GetTime local", 0.07, 0.02);
    pin(&c, "Send-Receive-Reply local", 1.00, 0.03);
    pin(&c, "Send-Receive-Reply remote", 3.18, 0.05);
    pin(&c, "Send-Receive-Reply penalty", 1.60, 0.03);
    pin(&c, "Send-Receive-Reply client CPU", 1.79, 0.10);
    pin(&c, "Send-Receive-Reply server CPU", 2.30, 0.10);
    pin(&c, "MoveTo 1024B local", 1.26, 0.05);
    pin(&c, "MoveTo 1024B remote", 9.05, 0.10);
    pin(&c, "MoveFrom 1024B local", 1.26, 0.05);
    pin(&c, "MoveFrom 1024B remote", 9.03, 0.10);
    pin(&c, "MoveTo 1024B penalty", 8.15, 0.03);
    // CPU attribution for transfers deviates further (the paper does not
    // document its measurement loop); keep a wide honest bound: each
    // transfer CPU row at its deviation rounded up to the next 5 points.
    pin(&c, "MoveTo 1024B client CPU", 3.59, 0.25);
    pin(&c, "MoveTo 1024B server CPU", 5.87, 0.45);
    pin(&c, "MoveFrom 1024B client CPU", 3.76, 0.15);
    pin(&c, "MoveFrom 1024B server CPU", 5.69, 0.45);
}

#[test]
fn table_5_2_kernel_performance_10mhz() {
    let c = exp::kernel_performance(CpuSpeed::Mc68000At10MHz);
    pin(&c, "GetTime local", 0.06, 0.02);
    pin(&c, "Send-Receive-Reply local", 0.77, 0.03);
    pin(&c, "Send-Receive-Reply remote", 2.54, 0.05);
    pin(&c, "Send-Receive-Reply client CPU", 1.44, 0.10);
    pin(&c, "Send-Receive-Reply server CPU", 1.79, 0.10);
    pin(&c, "MoveTo 1024B local", 0.95, 0.05);
    pin(&c, "MoveTo 1024B remote", 8.00, 0.10);
    pin(&c, "MoveFrom 1024B remote", 8.00, 0.10);
    // Transfer CPU attribution, held as at 8 MHz (see "Fidelity" in
    // docs/BENCHMARKS.md for the server-CPU gap).
    pin(&c, "MoveTo 1024B client CPU", 3.17, 0.15);
    pin(&c, "MoveTo 1024B server CPU", 4.95, 0.50);
    pin(&c, "MoveFrom 1024B client CPU", 3.32, 0.10);
    pin(&c, "MoveFrom 1024B server CPU", 4.78, 0.50);
}

#[test]
fn table_6_1_page_access() {
    let c = exp::page_access();
    pin(&c, "page read local", 1.31, 0.05);
    pin(&c, "page read remote", 5.56, 0.06);
    pin(&c, "page write remote", 5.60, 0.06);
    pin(&c, "page read client CPU", 2.50, 0.20);
    pin(&c, "page read server CPU", 3.28, 0.25);
    pin(&c, "Thoth-mode page write (MoveFrom)", 8.10, 0.10);
    assert!(
        metric_of(&c, "segment mechanism savings per write") > 0.0,
        "appended segments must save a transfer round"
    );
}

#[test]
fn table_6_2_sequential_access() {
    let c = exp::sequential_access();
    for (disk, paper) in v_bench::paper::TABLE_6_2 {
        pin(&c, &format!("disk latency {disk} ms"), paper, 0.08);
    }
}

#[test]
fn table_6_3_program_loading() {
    let c = exp::program_loading();
    for (unit, local, remote, _, _) in v_bench::paper::TABLE_6_3 {
        let kb = unit / 1024;
        let tol_local = if unit == 1024 { 0.16 } else { 0.05 };
        pin(&c, &format!("{kb} KB units, local"), local, tol_local);
        pin(&c, &format!("{kb} KB units, remote"), remote, 0.11);
    }
    pin(&c, "data rate, 64 KB units", 192.0, 0.10);
}

#[test]
fn section_5_4_multi_process_traffic() {
    let c = exp::multi_process_traffic();
    pin(&c, "one pair exchange time", 3.18, 0.05);
    pin(&c, "two pairs exchange time (buggy interface)", 3.4, 0.06);
    pin(&c, "server exchange ceiling (10 MHz)", 558.0, 0.06);
}

#[test]
fn section_8_ten_mb_ethernet() {
    let c = exp::ten_mb_ethernet();
    pin(&c, "remote exchange", 2.71, 0.12);
    pin(&c, "page read", 5.72, 0.06);
    pin(&c, "64 KB load, 16 KB units", 255.0, 0.12);
}

#[test]
fn section_3_ablations() {
    let ip = exp::ip_encapsulation();
    pin(&ip, "IP overhead", 20.0, 0.35);
    let relay = exp::netserver_relay();
    pin(&relay, "slowdown factor", 4.0, 0.15);
}

#[test]
fn section_6_comparators() {
    let wfs = exp::wfs_comparison();
    // V IPC must sit within ~2 ms of the specialized protocol (which
    // legitimately runs leaner 12-byte headers, so it even undercuts the
    // 64/576-byte penalty figure slightly).
    let gap = metric_of(&wfs, "V IPC overhead vs specialized");
    assert!((0.0..2.1).contains(&gap), "V IPC vs WFS gap {gap:.2} ms");

    let streaming = exp::streaming_comparison();
    for disk in [10u64, 15, 20] {
        let gain = metric_of(&streaming, &format!("streaming gain, disk {disk} ms"));
        assert!(
            (0.0..15.0).contains(&gain),
            "disk {disk}: streaming gain {gain:.1}% outside the paper's bound"
        );
    }
}

#[test]
fn section_7_capacity() {
    let c = exp::file_server_capacity();
    pin(&c, "page request CPU (kernel + fs)", 7.0, 0.15);
    // The mix and ceiling inherit the known transfer server-CPU gap
    // (see "Fidelity" in docs/BENCHMARKS.md); bounds are wide but still
    // catch regressions.
    pin(&c, "90/10 mix average CPU", 36.0, 0.40);
    pin(&c, "requests/second (estimate)", 28.0, 0.60);
    // Simulated capacity: 10 workstations tolerable, 30 degrading hard.
    // Absolute latencies include head-of-line blocking behind 64 KB
    // loads, which the paper's CPU-budget estimate ignores entirely —
    // a reproduction finding recorded in "Fidelity", docs/BENCHMARKS.md.
    let page10 = metric_of(&c, "10 workstations: page response");
    assert!(page10 < 150.0, "10-ws page response {page10:.1} ms");
    let knee = metric_of(&c, "degradation knee (30 ws vs 10 ws response)");
    assert!(knee > 3.0, "no saturation knee: {knee:.1}x");
}

#[test]
fn wan_topologies_show_hop_latency_and_loss_recovery() {
    let c = exp::wan_with_rounds(100);
    assert!(metric_of(&c, "added gateway hop latency") > 0.0);
    assert!(metric_of(&c, "page read added hop latency") > 0.0);
    // Distance dominates: a 30 ms line makes every exchange ≥ one RTT.
    assert!(metric_of(&c, "exchange over clean T1 WAN (30 ms one way)") > 60.0);
    assert!(metric_of(&c, "loss-driven retransmissions") > 0.0);
    assert!(
        metric_of(&c, "exchange over T1 WAN, 5% loss")
            > metric_of(&c, "exchange over clean T1 WAN (30 ms one way)"),
        "loss must cost retransmission timeouts"
    );
    // With the flag on, queued same-egress chunks must share forwarding
    // charges — visibly (counter) and profitably (elapsed).
    assert!(metric_of(&c, "frames coalesced, off") == 0.0);
    assert!(metric_of(&c, "frames coalesced, on") > 0.0);
    let speedup = metric_of(&c, "coalescing speedup");
    assert!(
        speedup > 1.0,
        "coalescing must shorten the bulk transfer: {speedup:.3}x"
    );
}

#[test]
fn cachemix_hits_locally_and_pays_consistency() {
    let c = exp::cachemix_with_rounds(256);
    // The acceptance bar: a read-mostly working set that fits must hit
    // >= 90% and cut per-read latency by >= 2x against the uncached
    // client.
    let hit_rate = metric_of(&c, "ws=8 in 64-block cache: hit rate");
    assert!(
        hit_rate >= 90.0,
        "hit rate {hit_rate:.1}% below the 90% bar"
    );
    let speedup = metric_of(&c, "ws=8 in 64-block cache: speedup over uncached");
    assert!(speedup >= 2.0, "speedup {speedup:.2}x below the 2x bar");
    // A working set the cache cannot hold must not hit.
    assert!(metric_of(&c, "ws=128 in 16-block cache: hit rate") < 10.0);
    // Sharing keeps the reader honest: even against a heavy writer the
    // caching reader must still land hits under both schemes, and the
    // consistency machinery must actually run.
    assert!(metric_of(&c, "shared 1:8: reader hit rate, write-invalidate") > 50.0);
    assert!(metric_of(&c, "shared 1:8: reader hit rate, leases") > 50.0);
    assert!(metric_of(&c, "shared 1:8: consistency actions, write-invalidate") > 0.0);
    // Invalidation storms price the schemes apart: write-invalidate
    // pays one callback per warm holder (so the write slows with N),
    // leases pay one bounded expiry wait however many holders exist.
    let wi4 = metric_of(&c, "storm write vs 4 warm readers, write-invalidate");
    let wi16 = metric_of(&c, "storm write vs 16 warm readers, write-invalidate");
    assert!(
        wi16 > wi4,
        "write-invalidate storm must scale with holders: {wi4:.2} vs {wi16:.2} ms"
    );
    assert!(metric_of(&c, "storm invalidations delivered (N=16)") == 16.0);
    assert!(metric_of(&c, "storm lease waits (N=16)") == 1.0);
    let l4 = metric_of(&c, "storm write vs 4 warm readers, leases");
    let l16 = metric_of(&c, "storm write vs 16 warm readers, leases");
    assert!(
        (l16 - l4).abs() < 0.2 * l16,
        "lease storm must be ~independent of N: {l4:.0} vs {l16:.0} ms"
    );
}

#[test]
fn shard_placement_orders_by_hops_and_preserves_the_baseline() {
    let c = exp::shard_with_rounds(100);
    let same = metric_of(&c, "page read 512 B, same segment (mesh)");
    let one = metric_of(&c, "page read 512 B, 1 hop");
    let two = metric_of(&c, "page read 512 B, 2 hops");
    assert!(
        same < one && one < two,
        "hop latency must be strictly ordered: {same:.3} / {one:.3} / {two:.3} ms"
    );
    // Bit-identical: standing up the mesh around the segment must not
    // move the paper's single-segment number by even one event. Exact
    // float equality is the assertion — any perturbation is a bug.
    let perturbation = metric_of(&c, "mesh perturbation of baseline");
    assert_eq!(
        perturbation, 0.0,
        "mesh fabric perturbed the single-segment baseline by {perturbation} ms"
    );
    // Identical segments and per-hop costs: the two hop increments match.
    let hop1 = metric_of(&c, "per-hop cost, first hop");
    let hop2 = metric_of(&c, "per-hop cost, second hop");
    assert!((hop1 - hop2).abs() < 1e-9, "hops differ: {hop1} vs {hop2}");

    // Server locality dominates: partitioned placement beats hauling
    // every page across the mesh, and keeps the gateways idle.
    let central = metric_of(&c, "centralized placement: page read");
    let part = metric_of(&c, "partitioned placement: page read");
    assert!(
        part < central,
        "partitioned {part:.3} ≥ centralized {central:.3}"
    );
    assert_eq!(metric_of(&c, "partitioned gateway frames forwarded"), 0.0);
    assert!(metric_of(&c, "centralized gateway frames forwarded") > 0.0);
}

#[test]
fn rebalancing_spreads_heat_and_keeps_the_off_arm_bit_identical() {
    let c = exp::rebalance_with_rounds(100);
    // Bit-identical: migration-capable services plus overlay-carrying
    // clients with the rebalancer never started must reproduce the
    // plain sharded deployment's timeline to the event. Exact float
    // equality — any perturbation is a bug.
    let perturbation = metric_of(&c, "rebalancer-off perturbation");
    assert_eq!(
        perturbation, 0.0,
        "the idle migration stack perturbed the sharded baseline by {perturbation} ms"
    );
    // The acceptance bar: walking hot files off the loaded shard must
    // lift served load by >= 1.3x over the static placement.
    let gain = metric_of(&c, "rebalancing served-load gain");
    assert!(
        gain >= 1.3,
        "served-load gain {gain:.2}x below the 1.3x bar"
    );
    // The policy actually ran: files moved, and the shards settled
    // inside the band before the round budget ran out.
    let moved = metric_of(&c, "files migrated");
    assert!(
        (1.0..=4.0).contains(&moved),
        "expected 1–4 live migrations, saw {moved}"
    );
    assert!(
        metric_of(&c, "rounds to convergence") >= 1.0,
        "the rebalancer never converged inside its round budget"
    );
    // Per-arm utilization converges: the static arm pins one disk and
    // idles three, the rebalanced arm at most halves that spread.
    let spread_static = metric_of(&c, "disk utilization spread, static");
    let spread_reb = metric_of(&c, "disk utilization spread, rebalanced");
    assert!(
        spread_reb < spread_static / 2.0,
        "utilization spread must at least halve: {spread_static:.1} -> {spread_reb:.1} pp"
    );
    // Exactly-once accounting across the moves (the experiment already
    // asserts zero failed/duplicated/corrupted ops per client): every
    // server-side forward of a stale request is matched by exactly one
    // client-side owner correction.
    let stale = metric_of(&c, "stale-owner corrections (clients)");
    let forwarded = metric_of(&c, "forwarded stale requests (servers)");
    assert!(stale >= 1.0, "no client ever chased a moved file");
    assert_eq!(
        stale, forwarded,
        "client corrections must reconcile with server forwards to the op"
    );
}

#[test]
fn failover_bounds_the_spike_and_recovers_steady_latency() {
    let c = exp::failover_with_rounds(60);
    let control = metric_of(&c, "steady read, no-fault control");
    let before = metric_of(&c, "read latency before crash");
    let after = metric_of(&c, "read latency after failover");
    let spike = metric_of(&c, "failover spike (worst read)");
    // Reads outside the failover window track the no-fault control.
    assert!(
        (before - control).abs() / control < 0.25,
        "pre-crash reads drifted from control: {before:.3} vs {control:.3} ms"
    );
    assert!(
        (after - control).abs() / control < 0.25,
        "post-failover reads drifted from control: {after:.3} vs {control:.3} ms"
    );
    // The spike is the kernel's failure detection, bounded by the
    // retransmission budget: 13 x 200 ms ladder plus one read. It must
    // be large (the budget dominates) but bounded (no hang, no pile-up).
    assert!(
        spike > 2000.0 && spike < 3500.0,
        "spike outside the detection-budget window: {spike:.1} ms"
    );
    assert_eq!(metric_of(&c, "failovers"), 1.0, "one switch, then stable");
    assert_eq!(metric_of(&c, "reads completed"), 61.0, "open + 60 reads");
}

#[test]
fn pipelining_beats_sequential_under_fan_in() {
    let c = exp::pipeline_with_rounds(20);
    // Pipelining must win strictly wherever there is concurrency to
    // overlap (≥ 2 clients); with a single client the forward/notify
    // overhead makes it honestly a touch slower.
    for clients in [2u32, 4, 8] {
        let seq = metric_of(&c, &format!("burst of {clients}: sequential per read"));
        let pipe = metric_of(
            &c,
            &format!("burst of {clients}: pipelined per read (4 workers)"),
        );
        assert!(
            pipe < seq,
            "burst of {clients}: pipelined {pipe:.2} ms must beat sequential {seq:.2} ms"
        );
    }
    // The disk is the shared queueing center: pipelining drives it
    // harder (higher utilization, real queueing), the sequential server
    // never queues it at all.
    let seq_util = metric_of(&c, "burst of 8: sequential disk utilization");
    let pipe_util = metric_of(&c, "burst of 8: pipelined disk utilization");
    assert!(
        pipe_util > seq_util,
        "pipelined disk utilization {pipe_util:.1}% must exceed sequential {seq_util:.1}%"
    );
    assert!(metric_of(&c, "burst of 8: pipelined max disk queue depth") > 1.0);
    assert_eq!(
        metric_of(&c, "burst of 8: sequential max disk queue depth"),
        1.0
    );
    // Throughput moves toward the disk-bound ceiling.
    assert!(
        metric_of(&c, "burst of 8: pipelined served load")
            > metric_of(&c, "burst of 8: sequential served load")
    );
}

#[test]
fn protocol_ablations_quantify_their_mechanisms() {
    let c = exp::protocol_ablations();
    assert!(metric_of(&c, "cached replies retransmitted") > 0.0);
    assert!(metric_of(&c, "re-deliveries without the cache") > 0.0);
}

#[test]
fn datapath_scales_with_arms_and_keeps_the_remote_pair_bit_identical() {
    let c = exp::datapath_with_rounds(40);
    // Bit-identical ablation arm: the fast path must be invisible to any
    // exchange that touches the wire — same remote timeline with the
    // toggle on or off. Exact float equality.
    let remote = metric_of(&c, "fastpath perturbation of the remote pair");
    assert_eq!(
        remote, 0.0,
        "local_fastpath perturbed a remote exchange by {remote} ms"
    );
    // Striping caps the queueing centre: with 4 workers feeding it, a
    // 4-arm unit must serve the same burst at >= 1.5x the single-arm
    // throughput (the acceptance bar for this experiment).
    let gain = metric_of(&c, "arms=4 throughput gain over arms=1");
    assert!(
        gain >= 1.5,
        "arms=4 throughput gain {gain:.2}x fell below the 1.5x bar"
    );
    // Each additional arm must also shorten the per-read latency.
    let one = metric_of(&c, "burst of 8, arms=1: per read");
    let two = metric_of(&c, "burst of 8, arms=2: per read");
    let four = metric_of(&c, "burst of 8, arms=4: per read");
    assert!(
        four < two && two < one,
        "per read must fall with arm count: {one:.2} / {two:.2} / {four:.2} ms"
    );
    // The zero-copy hand-off must strictly beat the copying local path
    // in both transfer styles, and never fire on the remote pair.
    let seg_copy = metric_of(&c, "co-located page read, copy path");
    let seg_fast = metric_of(&c, "co-located page read, fast path");
    assert!(
        seg_fast < seg_copy,
        "fast path {seg_fast:.3} ms must strictly beat the copy path {seg_copy:.3} ms"
    );
    let mv_copy = metric_of(&c, "co-located Thoth (MoveTo) read, copy path");
    let mv_fast = metric_of(&c, "co-located Thoth (MoveTo) read, fast path");
    assert!(
        mv_fast < mv_copy,
        "Thoth fast path {mv_fast:.3} ms must strictly beat the copy path {mv_copy:.3} ms"
    );
    assert!(metric_of(&c, "fast-path hand-offs per read") > 0.0);
    assert!(metric_of(&c, "copy bytes saved per read") >= 512.0);
}
