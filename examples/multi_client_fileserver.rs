//! §7 live: one file server, a growing crowd of diskless workstations
//! running the 90 % page-read / 10 % program-load mix. Watch response
//! times stay flat to ~10 workstations and degrade past saturation.
//!
//! Run with: `cargo run --release --example multi_client_fileserver`

use v_kernel::{Cluster, ClusterConfig, CpuSpeed, HostId};
use v_sim::SimDuration;
use v_workloads::measure::{probe, RunReport};
use v_workloads::page::{PageClient, PageMode, PageServer, IMAGE, MIX_PATTERN};

fn run(workstations: usize) -> (f64, f64, f64) {
    let cfg = ClusterConfig::three_mb().with_hosts(workstations + 1, CpuSpeed::Mc68000At10MHz);
    let mut cluster = Cluster::new(cfg);
    let server_rep = probe(RunReport::default());
    let server = cluster.spawn(
        HostId(0),
        "fileserver",
        Box::new(
            PageServer::new(PageMode::Segment, IMAGE, MIX_PATTERN, server_rep.clone())
                .with_transfer_unit(16384)
                .with_fs_cpu(SimDuration::from_millis_f64(3.5)),
        ),
    );
    let stats: Vec<_> = (0..workstations)
        .map(|i| {
            let st = probe(RunReport::default());
            cluster.spawn(
                HostId(i + 1),
                "workstation",
                Box::new(PageClient::mix(
                    server,
                    50,
                    SimDuration::from_millis(300),
                    i as u64 + 1,
                    st.clone(),
                )),
            );
            st
        })
        .collect();
    let t0 = cluster.now();
    cluster.run();
    let secs = cluster.now().since(t0).as_secs_f64();
    assert_eq!(server_rep.borrow().failures, 0);
    for st in &stats {
        let st = st.borrow();
        assert!(st.clean(), "a workstation failed: {st:?}");
    }
    let total: u64 = stats.iter().map(|s| s.borrow().requests()).sum();
    let page_ms = stats.iter().map(|s| s.borrow().page_ms()).sum::<f64>() / workstations as f64;
    (
        total as f64 / secs,
        page_ms,
        cluster.cpu_utilization(HostId(0)),
    )
}

fn main() {
    println!("workstations | served req/s | page response ms | server CPU");
    println!("-------------+--------------+------------------+-----------");
    for k in [1usize, 2, 5, 10, 20, 30] {
        let (rps, page, util) = run(k);
        println!(
            "{k:>12} | {rps:>12.1} | {page:>16.2} | {:>8.1}%",
            util * 100.0
        );
    }
    println!();
    println!("paper §7: ~28 requests/s ceiling; ~10 workstations satisfactory,");
    println!("30+ lead to excessive delays — look for the response-time knee.");
}
