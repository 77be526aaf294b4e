//! Seeds and determinism, and `BENCHMARK.json` against what the program
//! actually prints.

use std::collections::BTreeSet;

use v_benchmark::cli::{driver_metrics, DRIVER_END_TO_END};
use v_benchmark::deploy::{workload, Scale, WORKLOADS};
use v_benchmark::json::{self, Value};
use v_benchmark::micro::MICROBENCHMARKS;
use v_benchmark::report::{sim_section, to_json, Row};
use v_benchmark::run::{measure_sim_only, rep, rows, Budget};

/// Workloads whose inputs the seed shapes (the other three have none to
/// shape: a fault-free pair or storm draws nothing).
const SEEDED: [&str; 3] = ["fs_lossy", "capacity", "cache_share"];

fn sim_json(name: &str, seed: u64) -> String {
    let w = workload(name, seed, Scale::SMALL).expect("known workload");
    let rows = rows(&*w, &measure_sim_only(&*w)).expect("rows");
    to_json(seed, &sim_section(&rows))
}

#[test]
fn the_same_seed_gives_a_byte_identical_sim_section() {
    for name in WORKLOADS.iter().filter(|n| **n != "storm") {
        let (a, b) = (sim_json(name, 42), sim_json(name, 42));
        assert!(a.contains("op_ms_p99"), "{name}: {a}");
        assert_eq!(a, b, "{name}: two runs of seed 42 differ");
    }
}

#[test]
fn another_seed_gives_other_inputs_with_the_same_counts() {
    for name in SEEDED {
        let run = |seed| {
            let w = workload(name, seed, Scale::SMALL).expect("known workload");
            rep(&*w, false)
        };
        let (a, b) = (run(1), run(2));
        assert_eq!(a.attempted(), b.attempted(), "{name}: operation counts");
        assert_eq!((a.failed(), b.failed()), (0, 0), "{name}");
        assert_ne!(
            (a.totals.now, a.totals.events_dispatched),
            (b.totals.now, b.totals.events_dispatched),
            "{name}: seeds 1 and 2 ran the same simulation"
        );
    }
}

fn names(list: &Value) -> Vec<String> {
    list.as_array()
        .expect("a list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

/// Every row one process can print for `name`, microbenchmarks by name
/// only (their values need an optimized build to mean anything).
fn printable_rows(name: &str) -> Vec<Row> {
    let w = workload(name, 1983, Scale::SMALL).expect("known workload");
    let m = v_benchmark::run::measure(&*w, Budget::Reps(1), true, false);
    let mut all = rows(&*w, &m).expect("rows");
    let template = all
        .iter()
        .find(|r| r.name == "kernel.run_ms")
        .expect("a host layer row")
        .clone();
    all.extend(MICROBENCHMARKS.iter().map(|(n, unit)| Row {
        name: n.to_string(),
        unit: unit.to_string(),
        ..template.clone()
    }));
    all
}

#[test]
fn benchmark_json_lists_what_the_program_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("JSON");

    let paths = doc.get("paths").and_then(Value::as_array).expect("paths");
    assert_eq!(paths, [Value::String("bench".to_string())]);
    assert_eq!(names(doc.get("workloads").expect("workloads")), WORKLOADS);

    let end_to_end = doc.get("end_to_end").expect("end_to_end");
    assert_eq!(names(end_to_end), DRIVER_END_TO_END);
    let per_layer = doc.get("per_layer").expect("per_layer");

    // `cache_share` writes and caches, `exchange` does neither: both must
    // print exactly the listed metrics, with the listed unit and direction.
    for workload in ["cache_share", "exchange"] {
        let printed = printable_rows(workload);
        for (list, trace) in [(end_to_end, false), (per_layer, true)] {
            let metrics = driver_metrics(&printed, trace);
            let got: BTreeSet<&str> = metrics.iter().map(|m| m.0.as_str()).collect();
            let listed = names(list);
            let want: BTreeSet<&str> = listed.iter().map(String::as_str).collect();
            assert_eq!(got, want, "{workload}, --trace {}", trace as u8);
            for entry in list.as_array().expect("a list") {
                let field = |k| entry.get(k).and_then(Value::as_str).expect("field");
                let (_, _, unit) = metrics
                    .iter()
                    .find(|m| m.0 == field("name"))
                    .expect("listed");
                assert_eq!(unit, field("unit"), "{}", field("name"));
                if let Some(row) = printed.iter().find(|r| r.name == field("name")) {
                    assert_eq!(row.better.name(), field("better"), "{}", field("name"));
                    if !trace {
                        let bound = entry.get("bound").and_then(Value::as_f64);
                        assert_eq!(row.bound, bound, "{}", field("name"));
                    }
                }
            }
        }
    }
}
