//! Raw speed on the data path: striped multi-arm disks and the
//! zero-copy same-host transport, each against its own ablation.
//!
//! Two independent accelerations of the paper's data path, measured
//! with their toggles off to pin the baseline and on to cap the gain:
//!
//! * **Striped arms** ([`v_fs::FileServerConfig::disk_arms`]): the Table 6-1
//!   remote-read burst of the pipelining experiment, re-run with the
//!   team's one disk reshaped to 1, 2 and 4 striped arms. With four
//!   workers feeding it, the single spindle is the queueing centre; a
//!   striped unit serves the same burst from independent per-arm
//!   queues, and throughput scales until the next stage (the wire)
//!   takes over. The burst is the pipelining experiment's own
//!   (`pipeline::run_burst`); that one arm builds the disk as given is
//!   `v_fs`'s own test.
//! * **Local fast path** ([`v_kernel::ProtocolConfig::local_fastpath`]):
//!   the Table 6-1 page-read pair, co-located on one host. The classic
//!   local path charges a fixed cost plus a per-byte memory copy for
//!   every data hand-off; the fast path remaps the pages for one fixed
//!   local hop. Measured in both transfer styles (reply segments and
//!   Thoth `MoveTo`), plus a remote pair under the same toggle, whose
//!   perturbation must be exactly 0.0 — the fast path lives
//!   strictly inside the same-host branch.
//!
//! The full run also re-times the boot storm at N = 256 and N = 1000
//! with single- and two-arm shard disks — the deployment the striping
//! defaults target — reporting the per-load improvement.

use v_kernel::{Cluster, ClusterConfig, CpuSpeed, HostId};
use v_workloads::boot::{run_boot_storm, BootStormConfig};
use v_workloads::page::PageMode;

use crate::report::Comparison;

use super::pipeline::{run_burst, FILE_BLOCKS, WORKERS};
use super::{run_page_reads, N_PAGES};

/// Clients fanning into the striped burst.
const CLIENTS: usize = 8;

/// One page-pair run with the server co-located on the client's host or
/// remote: mean ms per read plus the cluster's fast-path counters
/// (hand-offs, bytes saved).
fn fastpath_reads(mode: PageMode, fastpath: bool, colocated: bool, rounds: u64) -> (f64, u64, u64) {
    let mut cfg = ClusterConfig::three_mb().with_hosts(2, CpuSpeed::Mc68000At10MHz);
    cfg.protocol.local_fastpath = fastpath;
    let server_host = if colocated { HostId(0) } else { HostId(1) };
    let (ms, cl) = run_page_reads(Cluster::new(cfg), server_host, mode, rounds);
    let (mut sends, mut saved) = (0, 0);
    for h in [HostId(0), HostId(1)] {
        let s = cl.kernel_stats(h);
        sends += s.local_fastpath_sends;
        saved += s.local_fastpath_bytes_saved;
    }
    (ms, sends, saved)
}

/// Re-times one boot storm at `clients` hosts with `arms` shard disk
/// arms, returning the mean per-client load time.
fn storm_load_ms(clients: usize, arms: usize) -> f64 {
    let mut cfg = BootStormConfig::new(clients);
    cfg.disk_arms = arms;
    let r = run_boot_storm(&cfg);
    assert_eq!(
        r.loaded as usize, clients,
        "storm must load every client: {r:?}"
    );
    r.load_ms_mean
}

/// The data-path table with the full round count, including the boot
/// storm re-timings.
pub fn datapath() -> Comparison {
    datapath_impl(N_PAGES.min(60), true)
}

/// [`datapath`] with a configurable round count and no storm rows; the
/// CI smoke job runs a handful of rounds to keep the check cheap.
pub fn datapath_with_rounds(reads: u64) -> Comparison {
    datapath_impl(reads, false)
}

fn datapath_impl(reads: u64, storms: bool) -> Comparison {
    let mut c = Comparison::new(
        "Datapath",
        "striped multi-arm disks + zero-copy same-host transport, 10 MHz",
    );

    // --- striped arms under the pipelined burst -------------------------
    let mut by_arms = Vec::new();
    for arms in [1usize, 2, 4] {
        let b = run_burst(WORKERS, arms, CLIENTS, reads);
        c.push_ours(
            format!("burst of {CLIENTS}, arms={arms}: served load"),
            b.req_per_s,
            "req/s",
        );
        c.push_ours(
            format!("burst of {CLIENTS}, arms={arms}: per read"),
            b.per_read_ms,
            "ms",
        );
        by_arms.push(b);
    }
    c.push_ours(
        "arms=4 throughput gain over arms=1",
        by_arms[2].req_per_s / by_arms[0].req_per_s,
        "x",
    );
    for (k, util) in by_arms[2].arm_util.iter().enumerate() {
        c.push_ours(
            format!("arms=4 burst: arm {k} utilization"),
            util * 100.0,
            "%",
        );
    }

    // --- the zero-copy local fast path ----------------------------------
    let (seg_copy, _, _) = fastpath_reads(PageMode::Segment, false, true, reads);
    let (seg_fast, seg_sends, seg_saved) = fastpath_reads(PageMode::Segment, true, true, reads);
    let (mv_copy, _, _) = fastpath_reads(PageMode::Thoth, false, true, reads);
    let (mv_fast, _, _) = fastpath_reads(PageMode::Thoth, true, true, reads);
    c.push_ours("co-located page read, copy path", seg_copy, "ms");
    c.push_ours("co-located page read, fast path", seg_fast, "ms");
    c.push_ours("co-located page read speedup", seg_copy / seg_fast, "x");
    c.push_ours("co-located Thoth (MoveTo) read, copy path", mv_copy, "ms");
    c.push_ours("co-located Thoth (MoveTo) read, fast path", mv_fast, "ms");
    c.push_ours(
        "fast-path hand-offs per read",
        seg_sends as f64 / reads as f64,
        "ops",
    );
    c.push_ours(
        "copy bytes saved per read",
        seg_saved as f64 / reads as f64,
        "B",
    );

    let (remote_off, _, _) = fastpath_reads(PageMode::Segment, false, false, reads);
    let (remote_on, remote_sends, _) = fastpath_reads(PageMode::Segment, true, false, reads);
    c.push_ours("remote page read, fast path off", remote_off, "ms");
    c.push_ours("remote page read, fast path on", remote_on, "ms");
    // Pinned to exactly 0.0 by the calibration suite: the toggle must
    // be invisible to any exchange that touches the wire.
    c.push_ours(
        "fastpath perturbation of the remote pair",
        remote_on - remote_off,
        "ms",
    );
    assert_eq!(remote_sends, 0, "the fast path must never fire remotely");
    c.push_ours(
        "wire tax on page reads (remote minus co-located, fast path)",
        remote_off - seg_fast,
        "ms",
    );

    // --- the boot storm on striped shard disks --------------------------
    if storms {
        for clients in [256usize, 1000] {
            let one = storm_load_ms(clients, 1);
            let two = storm_load_ms(clients, 2);
            c.push_ours(format!("storm N={clients}: mean load, 1 arm"), one, "ms");
            c.push_ours(format!("storm N={clients}: mean load, 2 arms"), two, "ms");
            c.push_ours(
                format!("storm N={clients}: 2-arm improvement"),
                (one - two) / one * 100.0,
                "%",
            );
        }
    }

    c.note(format!(
        "burst: {CLIENTS} clients, one per host, each opening a private {FILE_BLOCKS}-block \
         file and reading {reads} pages through a {WORKERS}-worker team on a 15 ms disk \
         (read-ahead off); block-striped arms serve independent per-arm queues"
    ));
    c.note(
        "pair: Table 6-1 page-read procedure, 512 B; co-located = client and server on one \
         host, where data moves by page remap (one fixed local hop) instead of kernel copy",
    );
    if storms {
        c.note(
            "storm: mean per-client image load (open + header + 8 KB image) over the sharded \
             mesh; 2-arm rows are the storm's default disk shape, 1-arm the ablation",
        );
    }
    c
}
