//! Paper-vs-measured comparison tables.

use std::fmt;

/// One compared quantity.
#[derive(Debug, Clone)]
pub struct Row {
    /// What is being compared (e.g. "Send-Receive-Reply remote").
    pub metric: String,
    /// The paper's published value (`None` for quantities the paper does
    /// not report, e.g. multi-packet penalties).
    pub paper: Option<f64>,
    /// The reproduction's measured value.
    pub ours: f64,
    /// Unit label.
    pub unit: &'static str,
}

impl Row {
    /// Builds a compared row.
    pub fn new(metric: impl Into<String>, paper: f64, ours: f64, unit: &'static str) -> Row {
        Row {
            metric: metric.into(),
            paper: Some(paper),
            ours,
            unit,
        }
    }

    /// Builds a measurement-only row.
    pub fn ours_only(metric: impl Into<String>, ours: f64, unit: &'static str) -> Row {
        Row {
            metric: metric.into(),
            paper: None,
            ours,
            unit,
        }
    }

    /// Relative deviation from the paper value, if comparable.
    pub fn deviation(&self) -> Option<f64> {
        let p = self.paper?;
        if p == 0.0 {
            return None;
        }
        Some((self.ours - p) / p)
    }
}

/// A titled comparison between a paper table and the reproduction.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Experiment id, e.g. "Table 5-1".
    pub id: String,
    /// Descriptive title.
    pub title: String,
    /// Compared rows.
    pub rows: Vec<Row>,
    /// Free-form notes (substitutions, interpretation caveats).
    pub notes: Vec<String>,
}

impl Comparison {
    /// Creates an empty comparison.
    pub fn new(id: impl Into<String>, title: impl Into<String>) -> Comparison {
        Comparison {
            id: id.into(),
            title: title.into(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Adds a compared row.
    pub fn push(&mut self, metric: impl Into<String>, paper: f64, ours: f64, unit: &'static str) {
        self.rows.push(Row::new(metric, paper, ours, unit));
    }

    /// Adds a measurement-only row.
    pub fn push_ours(&mut self, metric: impl Into<String>, ours: f64, unit: &'static str) {
        self.rows.push(Row::ours_only(metric, ours, unit));
    }

    /// Adds a note.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Largest absolute relative deviation across comparable rows. A
    /// row whose deviation is not finite — a NaN or infinite
    /// measurement — counts as infinitely far off, so no gate passes it.
    pub fn worst_deviation(&self) -> f64 {
        self.rows
            .iter()
            .filter_map(|r| r.deviation())
            .map(|d| {
                if d.is_finite() {
                    d.abs()
                } else {
                    f64::INFINITY
                }
            })
            .fold(0.0, f64::max)
    }

    /// Looks up a row's measured value by metric name. `None` when no
    /// row carries that metric — callers decide whether that is a test
    /// failure or a recoverable miss; a renamed metric must never be
    /// able to abort the whole bench binary.
    pub fn get(&self, metric: &str) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.metric == metric)
            .map(|r| r.ours)
    }

    /// Serializes the comparison as a JSON object (id, title, rows with
    /// paper/ours/deviation, notes, worst deviation) for machine
    /// consumption — CI diffs these across commits.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"id\": {},\n", json_str(&self.id)));
        out.push_str(&format!("  \"title\": {},\n", json_str(&self.title)));
        out.push_str(&format!(
            "  \"worst_deviation\": {},\n",
            json_num(self.worst_deviation())
        ));
        out.push_str("  \"rows\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            let sep = if i + 1 == self.rows.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{\"metric\": {}, \"paper\": {}, \"ours\": {}, \"deviation\": {}, \"unit\": {}}}{sep}\n",
                json_str(&r.metric),
                r.paper.map_or("null".to_string(), json_num),
                json_num(r.ours),
                r.deviation().map_or("null".to_string(), json_num),
                json_str(r.unit),
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"notes\": [");
        for (i, n) in self.notes.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_str(n));
        }
        out.push_str("]\n}\n");
        out
    }
}

/// JSON string literal with the escapes our ids/titles/notes can need.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number: finite values print plainly; non-finite become null
/// (JSON has no NaN/Infinity).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} — {} ==", self.id, self.title)?;
        writeln!(
            f,
            "{:<44} {:>10} {:>10} {:>8}  unit",
            "metric", "paper", "ours", "delta"
        )?;
        for r in &self.rows {
            let paper = match r.paper {
                Some(p) => format!("{p:.2}"),
                None => "-".to_string(),
            };
            let delta = match r.deviation() {
                Some(d) => format!("{:+.1}%", d * 100.0),
                None => "-".to_string(),
            };
            writeln!(
                f,
                "{:<44} {:>10} {:>10.2} {:>8}  {}",
                r.metric, paper, r.ours, delta, r.unit
            )?;
        }
        for n in &self.notes {
            writeln!(f, "  note: {n}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deviation_math() {
        let r = Row::new("x", 2.0, 2.2, "ms");
        assert!((r.deviation().unwrap() - 0.1).abs() < 1e-9);
        assert_eq!(Row::ours_only("y", 1.0, "ms").deviation(), None);
    }

    #[test]
    fn worst_deviation_and_get() {
        let mut c = Comparison::new("T", "test");
        c.push("a", 1.0, 1.05, "ms");
        c.push("b", 2.0, 1.6, "ms");
        c.push_ours("c", 9.0, "ms");
        assert!((c.worst_deviation() - 0.2).abs() < 1e-9);
        assert_eq!(c.get("c"), Some(9.0));
    }

    #[test]
    fn a_nan_measurement_fails_every_gate() {
        let mut clean = Comparison::new("T", "t");
        clean.push("x", 1.0, 1.0, "ms");
        assert_eq!(clean.worst_deviation(), 0.0);
        let mut c = Comparison::new("T", "t");
        c.push("x", 1.0, f64::NAN, "ms");
        assert!(c.worst_deviation() > f64::MAX, "{}", c.worst_deviation());
    }

    #[test]
    fn renders_without_panicking() {
        let mut c = Comparison::new("Table X", "demo");
        c.push("metric", 1.0, 1.1, "ms");
        c.note("a note");
        let s = c.to_string();
        assert!(s.contains("Table X"));
        assert!(s.contains("+10.0%"));
        assert!(s.contains("a note"));
    }

    #[test]
    fn get_missing_row_is_none() {
        assert_eq!(Comparison::new("T", "t").get("missing"), None);
    }

    #[test]
    fn json_shape() {
        let mut c = Comparison::new("Table X", "a \"quoted\" demo");
        c.push("metric one", 1.0, 1.1, "ms");
        c.push_ours("extra", 9.0, "KB/s");
        c.note("line\nbreak");
        let j = c.to_json();
        assert!(j.contains("\"id\": \"Table X\""));
        assert!(j.contains("\\\"quoted\\\""));
        assert!(j.contains("\"paper\": 1, \"ours\": 1.1"));
        assert!(j.contains("\"paper\": null"));
        assert!(j.contains("\"deviation\": null"));
        assert!(j.contains("\\nbreak"));
        assert!(j.contains("\"worst_deviation\":"));
        // Balanced braces/brackets: a cheap structural sanity check.
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                j.matches(open).count(),
                j.matches(close).count(),
                "unbalanced {open}{close} in {j}"
            );
        }
    }

    #[test]
    fn json_non_finite_is_null() {
        let mut c = Comparison::new("T", "t");
        c.push("x", 0.0, f64::NAN, "ms");
        let j = c.to_json();
        assert!(j.contains("\"ours\": null"));
        assert!(!j.contains("NaN"));
    }
}
