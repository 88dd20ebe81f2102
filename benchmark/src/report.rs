//! Results: the one-line record the driver reads, the results file
//! `compare` reads, and the comparison itself.

use serde_json::{json, Map, Value};

/// One measured figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (operations, requests, repetitions).
    pub samples: u64,
    /// A count that must repeat bit-for-bit between runs of one seed.
    pub exact: bool,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str, samples: u64) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
            exact: false,
        }
    }

    #[cfg(test)]
    pub fn exact(name: &str, value: u64) -> Metric {
        Metric {
            exact: true,
            ..Metric::new(name, value as f64, "count", 1)
        }
    }
}

/// What one (workload, mode) run produced.
#[derive(Debug, Clone, Default)]
pub struct RunOutcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The metrics `BENCHMARK.json` names for this mode.
    pub metrics: Vec<Metric>,
    /// Further figures worth printing; never gated.
    pub details: Vec<Metric>,
    /// What went wrong, one line per failed operation.
    pub failures: Vec<String>,
}

fn metric_map(metrics: &[Metric], full: bool) -> Value {
    let mut map = Map::new();
    for m in metrics {
        let mut entry = json!({"value": m.value, "unit": m.unit});
        if full {
            entry["samples"] = json!(m.samples);
            entry["exact"] = json!(m.exact);
        }
        map.insert(m.name.clone(), entry);
    }
    Value::Object(map)
}

impl RunOutcome {
    /// The record the driver reads as the last line of standard
    /// output: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn contract_line(&self) -> String {
        json!({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metric_map(&self.metrics, false),
        })
        .to_string()
    }

    /// The record kept in a results file.
    pub fn to_value(&self, workload: &str, traced: bool) -> Value {
        json!({
            "workload": workload,
            "trace": u8::from(traced),
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "error_rate": self.failed as f64 / self.attempted.max(1) as f64,
            "metrics": metric_map(&self.metrics, true),
            "details": metric_map(&self.details, true),
            "failures": self.failures.iter().take(MAX_FAILURES_KEPT).collect::<Vec<_>>(),
        })
    }

    /// Every metric by name with unit, workload and sample count, for
    /// a person reading standard error.
    pub fn render(&self, workload: &str, traced: bool) -> String {
        let mode = if traced { "per-layer" } else { "end-to-end" };
        let mut out = format!(
            "== {workload} ({mode}): {} — attempted {}, failed {}\n",
            if self.correct { "correct" } else { "INCORRECT" },
            self.attempted,
            self.failed
        );
        for (section, metrics) in [("", &self.metrics), ("detail ", &self.details)] {
            for m in metrics {
                out += &format!(
                    "  {section}{:<34} {:>16.4} {:<6} workload={workload} samples={}{}\n",
                    m.name,
                    m.value,
                    m.unit,
                    m.samples,
                    if m.exact { " exact" } else { "" }
                );
            }
        }
        for f in self.failures.iter().take(MAX_FAILURES_KEPT) {
            out += &format!("  FAILED {f}\n");
        }
        out
    }
}

const MAX_FAILURES_KEPT: usize = 20;

/// Version of the results-file layout.
pub const RESULTS_SCHEMA: u64 = 1;

pub fn results_file(seed: u64, seconds: f64, nproc: usize, runs: Vec<Value>) -> Value {
    json!({
        "schema": RESULTS_SCHEMA,
        "seed": seed,
        "seconds": seconds,
        "nproc": nproc,
        "runs": runs,
    })
}

/// The regression bound of an end-to-end metric, read from
/// `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub bound: f64,
}

pub fn bounds_from_spec(spec: &Value) -> Result<Vec<Bound>, String> {
    spec["end_to_end"]
        .as_array()
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Ok(Bound {
                name: m["name"]
                    .as_str()
                    .ok_or("end_to_end entry without a name")?
                    .to_string(),
                bound: m["bound"]
                    .as_f64()
                    .ok_or("end_to_end entry without a bound")?,
            })
        })
        .collect()
}

/// One row of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: Option<f64>,
    pub b: Option<f64>,
    /// What the row is held to: "exact", "bound 5%", or "-".
    pub rule: String,
    pub ok: bool,
}

fn run_key(run: &Value) -> (String, u64) {
    (
        run["workload"].as_str().unwrap_or("?").to_string(),
        run["trace"].as_u64().unwrap_or(0),
    )
}

/// Diff two results files: exact counters must be equal, end-to-end
/// metrics of `b` must not be worse than `a` by more than the metric's
/// bound (nor `a` worse than `b`: two sets of runs of one commit must
/// agree both ways), other timings are shown and not judged, and every
/// run must be correct.
pub fn compare(a: &Value, b: &Value, bounds: &[Bound]) -> Result<Vec<Row>, String> {
    for (name, file) in [("first", a), ("second", b)] {
        if file["schema"] != RESULTS_SCHEMA {
            return Err(format!(
                "the {name} file is not a schema-{RESULTS_SCHEMA} results file"
            ));
        }
    }
    let runs = |file: &Value| -> Result<Vec<Value>, String> {
        file["runs"]
            .as_array()
            .cloned()
            .ok_or_else(|| "results file without runs".to_string())
    };
    let (runs_a, runs_b) = (runs(a)?, runs(b)?);
    let mut rows = Vec::new();
    for ra in &runs_a {
        let key = run_key(ra);
        let workload = format!("{}{}", key.0, if key.1 == 1 { " (traced)" } else { "" });
        let Some(rb) = runs_b.iter().find(|r| run_key(r) == key) else {
            rows.push(Row {
                workload,
                metric: "(run)".to_string(),
                a: Some(1.0),
                b: None,
                rule: "present in both".to_string(),
                ok: false,
            });
            continue;
        };
        for (which, run) in [("a", ra), ("b", rb)] {
            rows.push(Row {
                workload: workload.clone(),
                metric: format!("error_rate ({which})"),
                a: run["error_rate"].as_f64(),
                b: None,
                rule: "0".to_string(),
                ok: run["correct"] == true && run["failed"] == 0u64,
            });
        }
        let empty = Map::new();
        let ma = ra["metrics"].as_object().unwrap_or(&empty);
        let mb = rb["metrics"].as_object().unwrap_or(&empty);
        for (name, entry) in ma {
            let va = entry["value"].as_f64();
            let vb = mb.get(name).and_then(|e| e["value"].as_f64());
            let (rule, ok) = match (va, vb) {
                (Some(x), Some(y)) if entry["exact"] == true => ("exact".to_string(), x == y),
                (Some(x), Some(y)) => match bounds.iter().find(|bd| &bd.name == name) {
                    Some(bd) if key.1 == 0 => {
                        let (lo, hi) = if x < y { (x, y) } else { (y, x) };
                        (
                            format!("bound {:.0}%", bd.bound * 100.0),
                            hi <= lo * (1.0 + bd.bound),
                        )
                    }
                    _ => ("-".to_string(), true),
                },
                _ => ("present in both".to_string(), false),
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: name.clone(),
                a: va,
                b: vb,
                rule,
                ok,
            });
        }
    }
    for rb in &runs_b {
        if !runs_a.iter().any(|r| run_key(r) == run_key(rb)) {
            rows.push(Row {
                workload: run_key(rb).0,
                metric: "(run)".to_string(),
                a: None,
                b: Some(1.0),
                rule: "present in both".to_string(),
                ok: false,
            });
        }
    }
    Ok(rows)
}

pub fn render_rows(rows: &[Row]) -> String {
    let num = |v: Option<f64>| v.map_or("-".to_string(), |x| format!("{x:.4}"));
    let mut out = format!(
        "{:<26} {:<34} {:>16} {:>16} {:>8}  {:<16} {}\n",
        "workload", "metric", "a", "b", "b/a", "rule", "verdict"
    );
    for r in rows {
        let ratio = match (r.a, r.b) {
            (Some(a), Some(b)) if a != 0.0 => format!("{:.3}", b / a),
            _ => "-".to_string(),
        };
        out += &format!(
            "{:<26} {:<34} {:>16} {:>16} {:>8}  {:<16} {}\n",
            r.workload,
            r.metric,
            num(r.a),
            num(r.b),
            ratio,
            r.rule,
            if r.ok { "ok" } else { "VIOLATION" }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(ops: f64, compares: u64) -> RunOutcome {
        RunOutcome {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![
                Metric::new("ops_per_s", ops, "1/s", 10),
                Metric::exact("phases.full_compares", compares),
            ],
            details: vec![Metric::new("passes", 2.0, "count", 2)],
            failures: vec![],
        }
    }

    fn file(ops: f64, compares: u64) -> Value {
        results_file(
            1,
            10.0,
            2,
            vec![outcome(ops, compares).to_value("w", false)],
        )
    }

    fn bounds() -> Vec<Bound> {
        vec![Bound {
            name: "ops_per_s".to_string(),
            bound: 0.05,
        }]
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys_and_two_per_metric() {
        let line = outcome(12.5, 3).contract_line();
        let v: Value = serde_json::from_str(&line).unwrap();
        let keys: Vec<&String> = v.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let m = v["metrics"]["ops_per_s"].as_object().unwrap();
        assert_eq!(m.keys().collect::<Vec<_>>(), ["unit", "value"]);
        assert_eq!(m["value"], 12.5);
        assert!(!line.contains('\n'));
    }

    #[test]
    fn results_schema_round_trips_through_value() {
        let original = file(100.0, 7);
        let text = serde_json::to_string_pretty(&original).unwrap();
        let back: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(back, original);
        assert_eq!(
            back["runs"][0]["metrics"]["phases.full_compares"]["exact"],
            true
        );
        assert_eq!(back["runs"][0]["metrics"]["ops_per_s"]["samples"], 10u64);
        assert_eq!(back["runs"][0]["error_rate"], 0.0);
    }

    #[test]
    fn compare_holds_counters_exactly_and_timings_to_their_bound() {
        let verdict = |a: &Value, b: &Value| compare(a, b, &bounds()).unwrap().iter().all(|r| r.ok);
        assert!(verdict(&file(100.0, 7), &file(104.0, 7)));
        assert!(verdict(&file(104.0, 7), &file(100.0, 7)), "symmetric");
        assert!(
            !verdict(&file(100.0, 7), &file(106.0, 7)),
            "6% apart under a 5% bound"
        );
        assert!(
            !verdict(&file(100.0, 7), &file(100.0, 8)),
            "counter differs"
        );
        let mut failed = outcome(100.0, 7);
        failed.failed = 1;
        failed.correct = false;
        let bad = results_file(1, 10.0, 2, vec![failed.to_value("w", false)]);
        assert!(
            !verdict(&file(100.0, 7), &bad),
            "a failed operation is a violation"
        );
        let other = results_file(1, 10.0, 2, vec![outcome(100.0, 7).to_value("x", false)]);
        assert!(!verdict(&file(100.0, 7), &other), "runs must pair up");
        assert!(compare(&json!({}), &file(1.0, 1), &bounds()).is_err());
    }
}
