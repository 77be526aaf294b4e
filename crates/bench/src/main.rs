//! `v-bench` — regenerate the paper's tables and figures.
//!
//! ```text
//! v-bench [all|4-1|5-1|5-2|5-4|6-1|6-2|6-3|7|8|ip|relay|wfs|streaming|wan|shard|rebalance|failover|pipeline|datapath|cachemix|ablate|engine]...
//!         [--json DIR] [--check PCT]
//! v-bench --smoke [--json DIR] [--check PCT]
//! ```
//!
//! `--json DIR` additionally writes each experiment's comparison as
//! `DIR/BENCH_<id>.json` (machine-readable: id, title, rows with
//! paper/ours/deviation, notes) so CI can diff reproduced values against
//! the paper across commits.
//!
//! `--check PCT` exits nonzero if any produced table's worst deviation
//! from the paper exceeds `PCT` percent — the CI regression gate.
//!
//! `--smoke` runs Table 4-1, the WAN table, the shard-placement table,
//! the rebalancing table, the replica-failover table, the server-team
//! pipelining table, a
//! small boot-storm engine-throughput run and the cache-mix table with
//! tiny round counts: a
//! cheap end-to-end exercise of the experiment pipeline for CI, not a
//! measurement. It cannot be combined with experiment ids, but accepts
//! `--json` / `--check`.

use std::path::PathBuf;

use v_bench::experiments::{self as exp, Experiment};
use v_bench::report::Comparison;
use v_kernel::CpuSpeed;

/// Every experiment by id, in the order `all` runs them.
const EXPERIMENTS: [(&str, Experiment); 22] = [
    ("4-1", exp::network_penalty),
    ("5-1", || exp::kernel_performance(CpuSpeed::Mc68000At8MHz)),
    ("5-2", || exp::kernel_performance(CpuSpeed::Mc68000At10MHz)),
    ("5-4", exp::multi_process_traffic),
    ("6-1", exp::page_access),
    ("6-2", exp::sequential_access),
    ("6-3", exp::program_loading),
    ("7", exp::file_server_capacity),
    ("8", exp::ten_mb_ethernet),
    ("ip", exp::ip_encapsulation),
    ("relay", exp::netserver_relay),
    ("wfs", exp::wfs_comparison),
    ("streaming", exp::streaming_comparison),
    ("wan", exp::wan_topologies),
    ("shard", exp::shard_placement),
    ("rebalance", exp::rebalance),
    ("failover", exp::failover),
    ("pipeline", exp::pipeline_contention),
    ("datapath", exp::datapath),
    ("cachemix", exp::cachemix),
    ("ablate", exp::protocol_ablations),
    ("engine", exp::engine_throughput),
];

fn comparison_for(id: &str) -> Option<Comparison> {
    let found = EXPERIMENTS.iter().find(|(name, _)| *name == id);
    if found.is_none() {
        eprintln!("unknown experiment: {id}");
    }
    found.map(|(_, run)| run())
}

/// Parsed command line.
struct Opts {
    smoke: bool,
    /// Directory to write `BENCH_<id>.json` files into.
    json_dir: Option<PathBuf>,
    /// Worst-deviation gate, as a fraction (e.g. 0.5 for `--check 50`).
    check: Option<f64>,
    ids: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        smoke: false,
        json_dir: None,
        check: None,
        ids: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => opts.smoke = true,
            "--json" => {
                let dir = it.next().ok_or("--json requires a directory argument")?;
                opts.json_dir = Some(PathBuf::from(dir));
            }
            "--check" => {
                let pct: f64 = it
                    .next()
                    .ok_or("--check requires a percentage argument")?
                    .parse()
                    .map_err(|e| format!("--check: {e}"))?;
                if !pct.is_finite() || pct <= 0.0 {
                    return Err("--check requires a positive percentage".into());
                }
                opts.check = Some(pct / 100.0);
            }
            other if other.starts_with("--") => return Err(format!("unknown flag: {other}")),
            other => opts.ids.push(other.to_string()),
        }
    }
    if opts.smoke && !opts.ids.is_empty() {
        return Err(
            "--smoke runs only the fixed smoke check and cannot be combined with experiment ids"
                .into(),
        );
    }
    Ok(opts)
}

/// Prints a comparison and applies the `--json` / `--check` side
/// channels. Returns false if the deviation gate tripped.
fn process(c: &Comparison, file_id: &str, opts: &Opts) -> bool {
    println!("{c}");
    if let Some(dir) = &opts.json_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return false;
        }
        let path = dir.join(format!("BENCH_{file_id}.json"));
        if let Err(e) = std::fs::write(&path, c.to_json()) {
            eprintln!("cannot write {}: {e}", path.display());
            return false;
        }
    }
    if let Some(limit) = opts.check {
        let worst = c.worst_deviation();
        if worst > limit {
            eprintln!(
                "DEVIATION GATE: {} worst deviation {:.1}% exceeds --check {:.1}%",
                c.id,
                worst * 100.0,
                limit * 100.0
            );
            return false;
        }
    }
    true
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };

    if opts.smoke {
        let c = exp::network_penalty_with_rounds(5);
        let mut ok = process(&c, "4-1", &opts);
        let w = exp::wan_with_rounds(60);
        ok &= process(&w, "wan", &opts);
        let s = exp::shard_with_rounds(40);
        ok &= process(&s, "shard", &opts);
        let rb = exp::rebalance_with_rounds(80);
        ok &= process(&rb, "rebalance", &opts);
        let f = exp::failover_with_rounds(40);
        ok &= process(&f, "failover", &opts);
        let p = exp::pipeline_with_rounds(8);
        ok &= process(&p, "pipeline", &opts);
        let d = exp::datapath_with_rounds(8);
        ok &= process(&d, "datapath", &opts);
        let e = exp::engine_with_sizes(&[48]);
        ok &= process(&e, "engine", &opts);
        let cm = exp::cachemix_with_rounds(40);
        ok &= process(&cm, "cachemix", &opts);
        if !ok {
            std::process::exit(2);
        }
        println!(
            "smoke OK: Table 4-1, WAN, shard, rebalance, failover, server-team \
             pipelines, the data-path table, the boot-storm engine gate and the \
             cache-mix table ran end to end (tiny rounds, not a measurement)"
        );
        return;
    }

    let ids: Vec<&str> = if opts.ids.is_empty() || opts.ids.iter().any(|a| a == "all") {
        EXPERIMENTS.iter().map(|(id, _)| *id).collect()
    } else {
        opts.ids.iter().map(|s| s.as_str()).collect()
    };
    let mut ok = true;
    for id in ids {
        match comparison_for(id) {
            Some(c) => ok &= process(&c, id, &opts),
            None => ok = false,
        }
    }
    if !ok {
        std::process::exit(2);
    }
}
