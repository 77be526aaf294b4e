//! §7: file-server capacity — the paper's processor-budget estimate plus
//! an actual multi-workstation simulation.

use v_kernel::{Cluster, ClusterConfig, CpuSpeed, HostId};
use v_sim::SimDuration;
use v_workloads::measure::{probe, RunReport};
use v_workloads::page::{PageClient, PageMode, PageOp, PageServer, IMAGE, MIX_PATTERN};

use crate::paper;
use crate::report::Comparison;

use super::table_6_1::measure_page;
use super::table_6_3::measure_load;

/// File-system processing per request the paper takes from LOCUS.
const FS_CPU: f64 = 3.5;

/// Runs `k` workstations with `think` between requests against one
/// server; returns (requests/s, mean page ms, server utilization).
fn simulate_capacity(k: usize, requests_per_ws: u64, think: SimDuration) -> (f64, f64, f64) {
    let cfg = ClusterConfig::three_mb().with_hosts(k + 1, CpuSpeed::Mc68000At10MHz);
    let mut cl = Cluster::new(cfg);
    let rep = probe(Default::default());
    let server = cl.spawn(
        HostId(0),
        "file-server",
        Box::new(
            PageServer::new(PageMode::Segment, IMAGE, MIX_PATTERN, rep.clone())
                .with_transfer_unit(16384)
                .with_fs_cpu(SimDuration::from_millis_f64(FS_CPU)),
        ),
    );
    let stats: Vec<_> = (0..k)
        .map(|i| {
            let st = probe(RunReport::default());
            cl.spawn(
                HostId(i + 1),
                "workstation",
                Box::new(PageClient::mix(
                    server,
                    requests_per_ws,
                    think,
                    (i + 1) as u64,
                    st.clone(),
                )),
            );
            st
        })
        .collect();
    let t0 = cl.now();
    cl.run();
    let elapsed_s = cl.now().since(t0).as_secs_f64();
    assert_eq!(rep.borrow().failures, 0);
    for st in &stats {
        let st = st.borrow();
        assert!(st.clean(), "a workstation failed: {st:?}");
    }
    let total: u64 = stats.iter().map(|s| s.borrow().requests()).sum();
    let page_ms = stats.iter().map(|s| s.borrow().page_ms()).sum::<f64>() / k as f64;
    let util = cl.cpu_utilization(HostId(0));
    (total as f64 / elapsed_s, page_ms, util)
}

/// Reproduces the §7 capacity analysis.
pub fn file_server_capacity() -> Comparison {
    let mut c = Comparison::new("Sec 7", "file server capacity (processor budget)");

    // The paper's estimate, recomputed from *our measured* components.
    let page = measure_page(
        CpuSpeed::Mc68000At10MHz,
        PageOp::Read,
        PageMode::Segment,
        true,
    );
    let page_cpu = page.server_cpu_ms + FS_CPU;
    c.push(
        "page request CPU (kernel + fs)",
        paper::FS_PAGE_REQUEST_CPU_MS,
        page_cpu,
        "ms",
    );

    // The paper's load figure comes from the 8 MHz Table 6-3 plus
    // per-4KB-block file-system work; mirror that arithmetic.
    let cfg = ClusterConfig::three_mb().with_hosts(2, CpuSpeed::Mc68000At8MHz);
    let load = measure_load(cfg, 16384, true);
    let load_cpu = load.server_cpu_ms + FS_CPU * (65536.0 / 4096.0);
    c.push(
        "64 KB load CPU (kernel + fs)",
        paper::FS_PROGRAM_LOAD_CPU_MS,
        load_cpu,
        "ms",
    );

    let mix_cpu = 0.9 * page_cpu + 0.1 * load_cpu;
    c.push(
        "90/10 mix average CPU",
        paper::FS_MIX_AVG_CPU_MS,
        mix_cpu,
        "ms",
    );
    c.push(
        "requests/second (estimate)",
        paper::FS_REQUESTS_PER_SEC,
        1000.0 / mix_cpu,
        "req/s",
    );

    // The simulation the authors could not run: actual workstations.
    // Each thinks ~600 ms between requests (≈ 1.5 req/s offered), so 10
    // stations sit comfortably under the ~28 req/s ceiling and 30 push
    // through it — the paper's "10 satisfactory / 30 excessive" claim.
    let (rps10, page10, util10) = simulate_capacity(10, 60, SimDuration::from_millis(600));
    c.push_ours("10 workstations: served load", rps10, "req/s");
    c.push_ours("10 workstations: page response", page10, "ms");
    c.push_ours("10 workstations: server utilization", util10 * 100.0, "%");

    let (rps30, page30, util30) = simulate_capacity(30, 40, SimDuration::from_millis(600));
    c.push_ours("30 workstations: served load", rps30, "req/s");
    c.push_ours("30 workstations: page response", page30, "ms");
    c.push_ours("30 workstations: server utilization", util30 * 100.0, "%");
    c.push(
        "degradation knee (30 ws vs 10 ws response)",
        3.0, // "excessive delays": at least severalfold
        page30 / page10,
        "x",
    );

    c.note("fs processing per request: 3.5 ms (the paper's LOCUS-derived figure)");
    c.note("workstations think 600 ms between requests; 90% page reads, 10% 64 KB loads");
    c.note("paper: ~10 workstations per server satisfactory, 30+ excessive; the simulated");
    c.note("knee also shows head-of-line blocking behind 64 KB loads, which the paper's");
    c.note("pure CPU-budget estimate ignores");
    c
}
