//! The command line.
//!
//! ```text
//! v-benchmark all [--seed N] [--json FILE]       every workload, each in a fresh process
//! v-benchmark <workload> [--seed N] [--json FILE]
//! v-benchmark check-baseline                     simulated rows against baseline/sim.json
//! v-benchmark write-baseline                     rewrite baseline/sim.json
//! v-benchmark agree A.json B.json                compare two result sets
//! v-benchmark --workload W --seed N --seconds S --trace 0|1
//!                                                one run for the acceptance driver
//! ```

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::deploy::{workload, Scale, Workload, WORKLOADS};
use crate::json;
use crate::report::{self, Row};
use crate::run::{self, Budget, Measured, Spans, MEASURED_REPS};

/// Seed of the committed baseline and of `all` when none is given.
pub const DEFAULT_SEED: u64 = 1983;

/// The end-to-end metrics the acceptance driver bounds (`BENCHMARK.json`,
/// `end_to_end`): the host-clock ones. The simulated-clock end-to-end
/// metrics repeat to the last digit for a seed — on three workloads for
/// every seed — and the driver refuses a time that reads the same on every
/// run, so it gets them in its `per_layer` list, unbounded; this
/// benchmark's own `agree` and `check-baseline` hold them exactly.
pub const DRIVER_END_TO_END: [&str; 4] =
    ["host_events_per_s", "host_run_ms", "peak_rss_mb", "setup_s"];

/// Rows the driver never sees: they exist on some workloads only, and the
/// driver wants every metric from every workload. Failed operations reach
/// it as `attempted` / `failed` instead.
const NOT_FOR_DRIVER: [&str; 2] = ["paper_dev_pct", "ops_failed_share"];

/// Reported to the driver as 0 by the workloads that write nothing.
const WRITE_LATENCIES: [&str; 2] = ["write_ms_p50", "write_ms_p99"];

fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn out_dir() -> std::io::Result<PathBuf> {
    let dir = package_dir().join("out");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn baseline_path() -> PathBuf {
    package_dir().join("baseline").join("sim.json")
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    let at = args.iter().position(|a| a == name)?;
    args.get(at + 1).map(String::as_str)
}

fn seed_of(args: &[String]) -> Result<u64, String> {
    match flag(args, "--seed") {
        None => Ok(DEFAULT_SEED),
        Some(s) => s.parse().map_err(|_| format!("bad --seed `{s}`")),
    }
}

fn build(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    workload(name, seed, Scale::FULL)
        .ok_or_else(|| format!("unknown workload `{name}`; the workloads are {WORKLOADS:?}"))
}

/// Runs the program; returns its exit code.
pub fn main(args: &[String]) -> i32 {
    let result = match args.first().map(String::as_str) {
        _ if flag(args, "--workload").is_some() => driver_run(args),
        Some("all") => all(args),
        Some("check-baseline") => check_baseline(),
        Some("write-baseline") => write_baseline(),
        Some("agree") => agree(args),
        Some(name) if WORKLOADS.contains(&name) => one(name, args),
        _ => Err(format!(
            "usage: v-benchmark all|<workload>|check-baseline|write-baseline|agree A B \
             [--seed N] [--json FILE]\nworkloads: {WORKLOADS:?}"
        )),
    };
    match result {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("v-benchmark: {e}");
            1
        }
    }
}

/// Checks outputs, assembles rows, prints them, writes the trace. Returns
/// the rows and what was wrong with the outputs.
fn finish(w: &dyn Workload, m: &Measured) -> Result<(Vec<Row>, Vec<String>), String> {
    let bad = run::violations(w, m);
    let rows = run::rows(w, m).map_err(|e| format!("{}: {e}", w.name()))?;
    let timed = m.host.as_ref().map_or(&[][..], |h| &h.timed);
    println!(
        "{}: {} repetitions ({} timed), {} operations each",
        w.name(),
        m.reps().count(),
        timed.len(),
        m.discarded[0].attempted()
    );
    let run_ms: Vec<String> = timed
        .iter()
        .map(|r| format!("{:.1}", r.phases.run))
        .collect();
    println!("  run ms per timed repetition: {}", run_ms.join(" "));
    print!("{}", report::table(&rows));
    if let Some(traced) = &m.traced {
        if let Ok(spans) = Spans::of(w, traced) {
            let path = out_dir()
                .map_err(|e| e.to_string())?
                .join(format!("trace_{}.jsonl", w.name()));
            run::write_trace(&path, w.name(), &traced.phases, &spans)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            println!("  trace: {}", path.display());
        }
    }
    for b in &bad {
        println!("  WRONG: {}: {b}", w.name());
    }
    Ok((rows, bad))
}

fn write_json(path: &Path, seed: u64, rows: &[Row]) -> Result<(), String> {
    std::fs::write(path, report::to_json(seed, rows))
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn one(name: &str, args: &[String]) -> Result<(), String> {
    let seed = seed_of(args)?;
    let w = build(name, seed)?;
    let m = run::measure(&*w, Budget::Reps(MEASURED_REPS), true, true);
    let (rows, bad) = finish(&*w, &m)?;
    if let Some(path) = flag(args, "--json") {
        write_json(Path::new(path), seed, &rows)?;
    }
    if bad.is_empty() {
        Ok(())
    } else {
        Err(format!("{name}: outputs are wrong"))
    }
}

fn all(args: &[String]) -> Result<(), String> {
    let seed = seed_of(args)?;
    let started = Instant::now();
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = out_dir().map_err(|e| e.to_string())?;
    let mut rows = Vec::new();
    let mut failed = Vec::new();
    // One workload at a time, each in a fresh process, so every one gets
    // its own cold repetition, resident high-water mark and allocator.
    for name in WORKLOADS {
        let part = out.join(format!("result_{name}.json"));
        let status = std::process::Command::new(&exe)
            .arg(name)
            .args(["--seed", &seed.to_string(), "--json"])
            .arg(&part)
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        if !status.success() {
            failed.push(name);
        }
        if let Ok(text) = std::fs::read_to_string(&part) {
            rows.extend(report::from_json(&text)?.1);
        }
    }
    let path = flag(args, "--json").map_or(out.join("results.json"), PathBuf::from);
    write_json(&path, seed, &rows)?;
    println!(
        "all: seed {seed}, {:.1} s, results in {}",
        started.elapsed().as_secs_f64(),
        path.display()
    );
    if failed.is_empty() {
        Ok(())
    } else {
        Err(format!("outputs are wrong or missing for {failed:?}"))
    }
}

/// The simulated-clock rows of every workload at the baseline seed.
fn sim_rows_now() -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for name in WORKLOADS {
        let w = build(name, DEFAULT_SEED)?;
        let m = run::measure_sim_only(&*w);
        let bad = run::violations(&*w, &m);
        if !bad.is_empty() {
            return Err(format!("{name}: outputs are wrong: {bad:?}"));
        }
        rows.extend(report::sim_section(&run::rows(&*w, &m)?));
        println!("{name}: simulated rows taken");
    }
    Ok(rows)
}

fn write_baseline() -> Result<(), String> {
    let rows = sim_rows_now()?;
    write_json(&baseline_path(), DEFAULT_SEED, &rows)?;
    println!(
        "{} rows written to {}",
        rows.len(),
        baseline_path().display()
    );
    Ok(())
}

fn check_baseline() -> Result<(), String> {
    let path = baseline_path();
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let (seed, baseline) = report::from_json(&text)?;
    if seed != DEFAULT_SEED {
        return Err(format!("baseline seed is {seed}, expected {DEFAULT_SEED}"));
    }
    let now = sim_rows_now()?;
    let diff = report::disagreements(&baseline, &now);
    for d in &diff {
        println!("  {d}");
    }
    if diff.is_empty() {
        println!(
            "check-baseline: {} simulated rows identical",
            baseline.len()
        );
        Ok(())
    } else {
        Err(format!(
            "{} simulated rows differ from {}",
            diff.len(),
            path.display()
        ))
    }
}

fn agree(args: &[String]) -> Result<(), String> {
    let [_, a, b] = args else {
        return Err("usage: v-benchmark agree A.json B.json".to_string());
    };
    let read = |p: &String| -> Result<(u64, Vec<Row>), String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        report::from_json(&text).map_err(|e| format!("{p}: {e}"))
    };
    let ((seed_a, rows_a), (seed_b, rows_b)) = (read(a)?, read(b)?);
    if seed_a != seed_b {
        return Err(format!("seeds differ: {seed_a} and {seed_b}"));
    }
    let diff = report::disagreements(&rows_a, &rows_b);
    for d in &diff {
        println!("  {d}");
    }
    if diff.is_empty() {
        println!("agree: {} rows, none disagrees", rows_a.len());
        Ok(())
    } else {
        Err(format!("{} rows disagree", diff.len()))
    }
}

/// The metrics of one driver run, by `--trace`: the bounded end-to-end
/// metrics untraced, everything else traced.
pub fn driver_metrics(rows: &[Row], trace: bool) -> Vec<(String, f64, String)> {
    let bounded = |r: &Row| DRIVER_END_TO_END.contains(&r.name.as_str());
    let mut out: Vec<(String, f64, String)> = rows
        .iter()
        .filter(|r| bounded(r) != trace && !NOT_FOR_DRIVER.contains(&r.name.as_str()))
        .map(|r| (r.name.clone(), r.value, r.unit.clone()))
        .collect();
    if trace {
        for name in WRITE_LATENCIES {
            if !out.iter().any(|m| m.0 == name) {
                out.push((name.to_string(), 0.0, "ms".to_string()));
            }
        }
    }
    out
}

fn driver_run(args: &[String]) -> Result<(), String> {
    let name = flag(args, "--workload").expect("checked by the caller");
    let seed = seed_of(args)?;
    let seconds: f64 = flag(args, "--seconds")
        .ok_or("--seconds is missing")?
        .parse()
        .map_err(|_| "bad --seconds")?;
    let trace = match flag(args, "--trace") {
        Some("0") => false,
        Some("1") => true,
        _ => return Err("--trace must be 0 or 1".to_string()),
    };
    let w = build(name, seed)?;
    let m = run::measure(&*w, Budget::Seconds(seconds), trace, trace);
    let (rows, bad) = finish(&*w, &m)?;
    let failed = m.reps().map(|r| r.failed()).max().unwrap_or(0);
    let metrics: Vec<String> = driver_metrics(&rows, trace)
        .iter()
        .map(|(n, v, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json::quote(n),
                json::number(*v),
                json::quote(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        bad.is_empty(),
        m.discarded[0].attempted(),
        metrics.join(",")
    );
    if bad.is_empty() {
        Ok(())
    } else {
        Err(format!("{name}: outputs are wrong"))
    }
}
