//! Table 6-2: sequential page access against a read-ahead file server.

use v_kernel::{CpuSpeed, HostId};
use v_sim::SimDuration;
use v_workloads::page::{PageClient, PageMode, PageOp, PageServer, Think};

use crate::paper;
use crate::report::Comparison;

use super::{pair_3mb, run_client_server, N_PAGES};

/// Measures sequential reading with the given server-side disk latency.
pub(crate) fn measure_seq(disk_ms: u64, think: SimDuration) -> f64 {
    let cl = pair_3mb(CpuSpeed::Mc68000At10MHz);
    let (m, _) = run_client_server(
        cl,
        HostId(1),
        HostId(0),
        |cl| {
            cl.spawn(
                HostId(1),
                "seqserver",
                Box::new(
                    PageServer::new(PageMode::Segment, 512, 0x11, Default::default())
                        .with_read_ahead(SimDuration::from_millis(disk_ms)),
                ),
            )
        },
        |server, rep| {
            Box::new(
                PageClient::new(server, PageOp::Read, 512, N_PAGES, 0x11, rep)
                    .with_think(Think::Compute(think)),
            )
        },
    );
    m.elapsed_ms
}

/// Reproduces Table 6-2: elapsed time per page vs disk latency.
pub fn sequential_access() -> Comparison {
    let mut c = Comparison::new(
        "Table 6-2",
        "sequential access, 512 B pages, read-ahead server",
    );
    for (disk, paper_ms) in paper::TABLE_6_2 {
        let ms = measure_seq(disk, SimDuration::ZERO);
        c.push(format!("disk latency {disk} ms"), paper_ms, ms, "ms/page");
        c.push(
            format!("overhead over disk at {disk} ms"),
            paper_ms - disk as f64,
            ms - disk as f64,
            "ms",
        );
    }
    c.note("server interposes the disk latency between reply and next receive (read-ahead)");
    c.note("paper: within 10-15% of the disk latency floor => streaming gains are capped there");
    c
}
