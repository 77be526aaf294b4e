//! Table 6-3: program loading — a 64 KB read chunked into `MoveTo`s.

use v_kernel::{Cluster, ClusterConfig, CpuSpeed, HostId};
use v_workloads::page::{PageClient, PageMode, PageOp, PageServer, IMAGE};

use crate::paper;
use crate::report::Comparison;

use super::{run_client_server, Measured};

/// Number of 64 KB reads per measurement.
const N_LOADS: u64 = 10;

/// Measures a 64 KB read with the given `MoveTo` transfer unit.
pub(crate) fn measure_load(cfg: ClusterConfig, unit: u32, remote: bool) -> Measured {
    let cl = Cluster::new(cfg);
    let server_host = HostId(if remote { 1 } else { 0 });
    let (m, _) = run_client_server(
        cl,
        server_host,
        HostId(0),
        |cl| {
            cl.spawn(
                server_host,
                "loadserver",
                Box::new(
                    PageServer::new(PageMode::Segment, IMAGE, 0x42, Default::default())
                        .with_transfer_unit(unit),
                ),
            )
        },
        |server, rep| {
            Box::new(PageClient::new(
                server,
                PageOp::Load,
                IMAGE,
                N_LOADS,
                0x42,
                rep,
            ))
        },
    );
    m
}

/// Reproduces Table 6-3 (8 MHz, 3 Mb Ethernet): 64 KB reads vs transfer
/// unit.
pub fn program_loading() -> Comparison {
    let mut c = Comparison::new("Table 6-3", "64 KB read (program loading), 8 MHz");
    let cfg = || ClusterConfig::three_mb().with_hosts(2, CpuSpeed::Mc68000At8MHz);
    let mut remote64_ms = f64::NAN;
    for (unit, p_local, p_remote, p_client, p_server) in paper::TABLE_6_3 {
        let kb = unit / 1024;
        let local = measure_load(cfg(), unit, false);
        let remote = measure_load(cfg(), unit, true);
        if unit == 65536 {
            remote64_ms = remote.elapsed_ms;
        }
        c.push(
            format!("{kb} KB units, local"),
            p_local,
            local.elapsed_ms,
            "ms",
        );
        c.push(
            format!("{kb} KB units, remote"),
            p_remote,
            remote.elapsed_ms,
            "ms",
        );
        c.push(
            format!("{kb} KB units, client CPU"),
            p_client,
            remote.client_cpu_ms,
            "ms",
        );
        c.push(
            format!("{kb} KB units, server CPU"),
            p_server,
            remote.server_cpu_ms,
            "ms",
        );
    }
    // Paper: large-unit remote loading runs at ~192 KB/s.
    c.push(
        "data rate, 64 KB units",
        192.0,
        64.0 / (remote64_ms / 1000.0),
        "KB/s",
    );
    c.note("network penalty is not defined for multi-packet transfers (paper footnote)");
    c.note("client = requesting workstation; server = the host running the MoveTo loop");
    c
}
