//! The simulation engine under boot-storm scale.
//!
//! Unlike every other experiment here, this one has no paper column:
//! it exercises the *reproduction itself* on the diskless boot storm
//! ([`v_workloads::boot`]), the heaviest workload in the repository.
//! N clients concurrently broadcast-resolve their file-service shard
//! and page a program image across a multi-segment mesh; the rows
//! report clients booted, shards, simulated time and simulated events
//! dispatched for N ∈ {64, 256, 1000}.
//!
//! Every row is measurement-only (`push_ours`), so the CI deviation
//! gate treats the emitted `BENCH_engine.json` as a must-complete
//! smoke artifact rather than a fidelity comparison — correctness
//! (every client loads, zero errors) is asserted here instead of gated
//! on deviation. Every row is simulated, so the table is identical on
//! every machine. How fast the host runs the storm is the `storm`
//! workload of the repository benchmark (`bench/`), measured as paired
//! medians of warm repetitions.

use v_workloads::boot::{run_boot_storm, BootStormConfig};

use crate::report::Comparison;

/// The engine experiment at caller-chosen storm sizes: N ∈ {64, 256,
/// 1000} in the full run; the smoke run uses one small N so CI stays
/// fast.
pub fn engine_with_sizes(sizes: &[usize]) -> Comparison {
    let mut c = Comparison::new(
        "engine",
        "Simulation-engine throughput: diskless boot storm",
    );
    for &n in sizes {
        let cfg = BootStormConfig::new(n);
        let r = run_boot_storm(&cfg);
        assert_eq!(
            r.loaded as usize, n,
            "boot storm must load every client: {r:?}"
        );
        assert_eq!(
            r.errors + r.integrity_errors + r.resolve_failures,
            0,
            "boot storm must be error-free: {r:?}"
        );
        c.push_ours(format!("N={n}: clients booted"), r.loaded as f64, "hosts");
        c.push_ours(format!("N={n}: shards"), cfg.shards() as f64, "servers");
        c.push_ours(format!("N={n}: simulated time"), r.sim_ms, "ms");
        c.push_ours(
            format!("N={n}: events dispatched"),
            r.events_dispatched as f64,
            "events",
        );
    }
    c.note(
        "measurement-only experiment: no paper column; gates that the boot storm completes \
         error-free at every N; the host's speed on it is the benchmark's storm workload",
    );
    c.note(
        "storm shape: one file-service shard per ~64 clients, one 3 Mb segment per shard behind \
         a hub gateway, replicated read-only image catalogue, clients powered on in 64-host \
         waves, 8 KiB image via broadcast GetPid + open/read/MoveTo page-in",
    );
    c
}
