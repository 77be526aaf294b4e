//! Metric rows: printing them, writing and reading result sets, and
//! comparing two sets by the benchmark's own bounds.

use std::fmt::Write as _;

use crate::json::{self, Value};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as `BENCHMARK.json` spells it.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The workload.
    pub workload: String,
    /// The metric.
    pub name: String,
    /// True on the simulated 1983 clock (deterministic for a seed), false
    /// on the host clock (wall time of the simulator on this machine).
    pub sim: bool,
    /// The unit.
    pub unit: String,
    /// Direction.
    pub better: Better,
    /// End-to-end metrics only: the share of the median by which the
    /// metric may worsen before it is a regression.
    pub bound: Option<f64>,
    /// The value, as measured.
    pub value: f64,
    /// Sample count, quartiles or the like, for people.
    pub detail: String,
}

impl Row {
    fn clock(&self) -> &'static str {
        if self.sim {
            "sim"
        } else {
            "host"
        }
    }
}

/// A table of `rows` for people: end-to-end metrics first.
pub fn table(rows: &[Row]) -> String {
    let mut out = String::new();
    for end_to_end in [true, false] {
        let title = if end_to_end {
            "end to end"
        } else {
            "per layer"
        };
        let _ = writeln!(out, "  -- {title}");
        for r in rows.iter().filter(|r| r.bound.is_some() == end_to_end) {
            let _ = writeln!(
                out,
                "  {:<32} {:>16} {:<10} [{:<4}] {}",
                r.name,
                r.value,
                r.unit,
                r.clock(),
                r.detail
            );
        }
    }
    out
}

fn row_json(r: &Row) -> String {
    format!(
        "{{\"workload\":{},\"metric\":{},\"clock\":\"{}\",\"unit\":{},\"better\":\"{}\",\
         \"bound\":{},\"value\":{}}}",
        json::quote(&r.workload),
        json::quote(&r.name),
        r.clock(),
        json::quote(&r.unit),
        r.better.name(),
        r.bound.map_or("null".to_string(), |b| b.to_string()),
        json::number(r.value),
    )
}

/// A result set as JSON: one row per line, so two sets diff line by line.
pub fn to_json(seed: u64, rows: &[Row]) -> String {
    let lines: Vec<String> = rows.iter().map(row_json).collect();
    format!("{{\"seed\":{seed},\"rows\":[\n{}\n]}}\n", lines.join(",\n"))
}

/// Reads a result set written by [`to_json`].
pub fn from_json(text: &str) -> Result<(u64, Vec<Row>), String> {
    let doc = json::parse(text)?;
    let seed = doc
        .get("seed")
        .and_then(Value::as_f64)
        .ok_or("result set has no seed")? as u64;
    let rows = doc
        .get("rows")
        .and_then(Value::as_array)
        .ok_or("result set has no rows")?
        .iter()
        .map(|r| {
            let text = |k: &str| {
                r.get(k)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or(format!("row without {k}"))
            };
            Ok(Row {
                workload: text("workload")?,
                name: text("metric")?,
                sim: text("clock")? == "sim",
                unit: text("unit")?,
                better: if text("better")? == "higher" {
                    Better::Higher
                } else {
                    Better::Lower
                },
                bound: r.get("bound").and_then(Value::as_f64),
                value: r
                    .get("value")
                    .and_then(Value::as_f64)
                    .ok_or("row without value")?,
                detail: String::new(),
            })
        })
        .collect::<Result<Vec<Row>, String>>()?;
    Ok((seed, rows))
}

/// Only the simulated-clock rows: the part of a result set that must
/// repeat to the last digit, and what the committed baseline holds.
pub fn sim_section(rows: &[Row]) -> Vec<Row> {
    rows.iter().filter(|r| r.sim).cloned().collect()
}

/// Compares result set `b` against `a` by the benchmark's own rules and
/// returns one line per row that disagrees: simulated-clock rows must be
/// identical, host-clock end-to-end rows may differ by their bound in
/// either direction, host-clock layer rows are machine noise and are not
/// compared. A row present on one side only disagrees.
pub fn disagreements(a: &[Row], b: &[Row]) -> Vec<String> {
    let key = |r: &Row| (r.workload.clone(), r.name.clone());
    let mut out = Vec::new();
    for ra in a {
        let Some(rb) = b.iter().find(|r| key(r) == key(ra)) else {
            if ra.sim || ra.bound.is_some() {
                out.push(format!(
                    "{}/{}: only in the first set",
                    ra.workload, ra.name
                ));
            }
            continue;
        };
        let (differs, rule) = match (ra.sim, ra.bound) {
            (true, _) => (
                ra.value != rb.value,
                "simulated, must be identical".to_string(),
            ),
            (false, Some(bound)) => (
                (rb.value - ra.value).abs() > bound * ra.value.abs(),
                format!("host, bound {} %", 100.0 * bound),
            ),
            // Host layer rows are machine noise.
            (false, None) => continue,
        };
        if differs {
            out.push(format!(
                "{}/{}: {} vs {} {} ({rule})",
                ra.workload, ra.name, ra.value, rb.value, ra.unit
            ));
        }
    }
    for rb in b {
        if (rb.sim || rb.bound.is_some()) && !a.iter().any(|r| key(r) == key(rb)) {
            out.push(format!(
                "{}/{}: only in the second set",
                rb.workload, rb.name
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &str, sim: bool, bound: Option<f64>, value: f64) -> Row {
        Row {
            workload: "w".to_string(),
            name: name.to_string(),
            sim,
            unit: "ms".to_string(),
            better: Better::Lower,
            bound,
            value,
            detail: String::new(),
        }
    }

    #[test]
    fn result_sets_round_trip_to_the_last_digit() {
        let rows = vec![
            row("op_ms_p50", true, Some(0.01), 2.5400000000000005),
            row("host_run_ms", false, Some(0.1), 1234.56789),
            row("kernel.forwards", true, None, 4111051.0),
        ];
        let (seed, back) = from_json(&to_json(1983, &rows)).unwrap();
        assert_eq!(seed, 1983);
        assert_eq!(back, rows);
    }

    #[test]
    fn sim_rows_must_match_exactly_and_host_rows_within_bound() {
        let a = vec![
            row("op_ms_p50", true, Some(0.01), 2.54),
            row("host_run_ms", false, Some(0.10), 100.0),
            row("wire.encode_ns_msg", false, None, 50.0),
        ];
        let mut b = a.clone();
        b[1].value = 109.0; // within 10 %
        b[2].value = 500.0; // host layer row: not compared
        assert!(disagreements(&a, &b).is_empty());
        b[1].value = 111.0;
        assert_eq!(disagreements(&a, &b).len(), 1);
        b[1].value = 100.0;
        b[0].value = 2.5400000000000005;
        let d = disagreements(&a, &b);
        assert_eq!(d.len(), 1);
        assert!(d[0].contains("op_ms_p50"), "{d:?}");
    }

    #[test]
    fn a_missing_row_disagrees() {
        let a = vec![row("op_ms_p50", true, Some(0.01), 2.54)];
        assert_eq!(disagreements(&a, &[]).len(), 1);
        assert_eq!(disagreements(&[], &a).len(), 1);
    }
}
