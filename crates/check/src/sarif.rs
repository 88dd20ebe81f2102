//! SARIF 2.1.0 export and baseline suppression.
//!
//! [`to_sarif`] renders a [`CheckReport`] as a SARIF 2.1.0 log so the
//! checker plugs into anything that speaks the format (GitHub code
//! scanning, IDE problem matchers, result diffing tools). The output is
//! **byte-stable**: the log is a `json!` value (object keys sorted)
//! written by `serde_json`, rules come from a closed sorted table,
//! results keep the report's canonical order, and nothing
//! nondeterministic (timestamps, absolute paths, machine names)
//! appears. The same report always renders the same bytes — CI
//! snapshots it.
//!
//! [`Baseline`] is the suppression side: a sorted list of
//! [`Diagnostic::fingerprint`]s. [`apply_baseline`] drops findings whose
//! fingerprint is listed, so the checker can be adopted on a codebase
//! with pre-existing findings and fail CI only on *new* ones.

use crate::diag::{Diagnostic, Severity};
use crate::engine::CheckReport;
use crate::rules::RULES;
use serde::{Deserialize, Serialize};
use serde_json::{json, Value};

/// The SARIF schema version this module emits.
pub const SARIF_VERSION: &str = "2.1.0";
const SARIF_SCHEMA: &str =
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json";

fn level_of(s: Severity) -> &'static str {
    match s {
        Severity::Error => "error",
        Severity::Warning => "warning",
        Severity::Info => "note",
    }
}

/// Render a report as a SARIF 2.1.0 log (two-space-indented JSON with a
/// trailing newline). Byte-stable: the same report always produces the
/// same bytes.
pub fn to_sarif(report: &CheckReport) -> String {
    // Rule list: the closed table, then any codes the report carries
    // that the table does not (user rule families), in first-appearance
    // order — result ruleIndex entries index the emitted list.
    let mut rules: Vec<(&str, &str)> = RULES.iter().map(|&(id, _, d)| (id, d)).collect();
    for d in &report.diagnostics {
        if !rules.iter().any(|(id, _)| *id == d.code) {
            rules.push((&d.code, "(rule outside the shipped set)"));
        }
    }
    let index_of = |code: &str| {
        rules
            .iter()
            .position(|(id, _)| *id == code)
            .expect("every code was indexed")
    };

    let rules: Vec<Value> = rules
        .iter()
        .map(|(id, desc)| json!({"id": id, "shortDescription": {"text": desc}}))
        .collect();
    let results: Vec<Value> = report
        .diagnostics
        .iter()
        .map(|d| {
            let mut message = d.message.clone();
            if let Some(hint) = &d.suggestion {
                message.push_str(&format!(" (hint: {hint})"));
            }
            json!({
                "ruleId": d.code,
                "ruleIndex": index_of(&d.code),
                "level": level_of(d.severity),
                "message": {"text": message},
                "locations": [{"logicalLocations": [
                    {"fullyQualifiedName": d.location.to_string(), "kind": "element"}
                ]}],
                "fingerprints": {"pas2p/v1": d.fingerprint()},
            })
        })
        .collect();
    let log = json!({
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {"driver": {
                "name": "pas2p-check",
                "informationUri": "https://example.org/pas2p-rs",
                "rules": rules,
            }},
            "results": results,
        }],
    });
    pretty(&log)
}

/// `value` as two-space-indented JSON with a trailing newline.
fn pretty<T: Serialize>(value: &T) -> String {
    let mut s = serde_json::to_string_pretty(value).expect("serializing to a string cannot fail");
    s.push('\n');
    s
}

/// A suppression baseline: the fingerprints of findings to ignore.
///
/// Stored sorted and deduplicated so the file diffs cleanly under
/// version control.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Baseline {
    /// Format version of the baseline file.
    pub version: u32,
    /// Suppressed finding fingerprints ([`Diagnostic::fingerprint`]).
    pub suppressed: Vec<String>,
}

/// Current baseline file format version.
pub const BASELINE_VERSION: u32 = 1;

impl Baseline {
    /// Capture every finding of `report` as suppressed.
    pub fn from_report(report: &CheckReport) -> Baseline {
        let mut suppressed: Vec<String> = report
            .diagnostics
            .iter()
            .map(Diagnostic::fingerprint)
            .collect();
        suppressed.sort();
        suppressed.dedup();
        Baseline {
            version: BASELINE_VERSION,
            suppressed,
        }
    }

    /// Serialize to the on-disk JSON form (sorted, trailing newline).
    pub fn to_json(&self) -> String {
        pretty(self)
    }

    /// Parse the on-disk JSON form.
    pub fn from_json(s: &str) -> Result<Baseline, String> {
        let mut baseline: Baseline =
            serde_json::from_str(s).map_err(|e| format!("baseline parse error: {e}"))?;
        if baseline.version != BASELINE_VERSION {
            return Err(format!(
                "baseline version {} unsupported (expected {BASELINE_VERSION})",
                baseline.version
            ));
        }
        baseline.suppressed.sort();
        baseline.suppressed.dedup();
        Ok(baseline)
    }

    /// True when the finding is suppressed.
    pub fn contains(&self, d: &Diagnostic) -> bool {
        self.suppressed.binary_search(&d.fingerprint()).is_ok()
    }
}

/// Drop baselined findings from a report. Returns the filtered report
/// and how many findings the baseline absorbed.
pub fn apply_baseline(report: CheckReport, baseline: &Baseline) -> (CheckReport, usize) {
    let before = report.diagnostics.len();
    let diagnostics: Vec<Diagnostic> = report
        .diagnostics
        .into_iter()
        .filter(|d| !baseline.contains(d))
        .collect();
    let absorbed = before - diagnostics.len();
    (CheckReport { diagnostics }, absorbed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::{Location, Severity};

    fn report() -> CheckReport {
        CheckReport {
            diagnostics: vec![
                Diagnostic::new(
                    "MSG-RACE-001",
                    Severity::Warning,
                    Location::event(0, 3),
                    "racy receive",
                )
                .with_suggestion("name the source"),
                Diagnostic::new(
                    "WILD-RECV-001",
                    Severity::Info,
                    Location::rank(0),
                    "wildcards",
                ),
            ],
        }
    }

    #[test]
    fn sarif_is_byte_stable_and_well_formed() {
        let a = to_sarif(&report());
        let b = to_sarif(&report());
        assert_eq!(a, b);
        let v: serde_json::Value = serde_json::from_str(&a).unwrap();
        assert_eq!(v["version"].as_str(), Some("2.1.0"));
        let run = &v["runs"].as_array().unwrap()[0];
        let results = run["results"].as_array().unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0]["ruleId"].as_str(), Some("MSG-RACE-001"));
        assert_eq!(results[0]["level"].as_str(), Some("warning"));
        assert_eq!(results[1]["level"].as_str(), Some("note"));
        // ruleIndex points into the emitted rule list.
        let idx = results[0]["ruleIndex"].as_u64().unwrap() as usize;
        let rules = run["tool"]["driver"]["rules"].as_array().unwrap();
        assert_eq!(rules[idx]["id"].as_str(), Some("MSG-RACE-001"));
        assert!(a.contains("hint: name the source"));
    }

    #[test]
    fn unknown_codes_get_a_synthesized_rule() {
        let r = CheckReport {
            diagnostics: vec![Diagnostic::new(
                "CUSTOM-999",
                Severity::Error,
                Location::none(),
                "user rule",
            )],
        };
        let s = to_sarif(&r);
        let v: serde_json::Value = serde_json::from_str(&s).unwrap();
        let run = &v["runs"].as_array().unwrap()[0];
        let idx = run["results"].as_array().unwrap()[0]["ruleIndex"]
            .as_u64()
            .unwrap() as usize;
        assert_eq!(
            run["tool"]["driver"]["rules"].as_array().unwrap()[idx]["id"].as_str(),
            Some("CUSTOM-999")
        );
    }

    #[test]
    fn baseline_roundtrip_suppresses() {
        let r = report();
        let b = Baseline::from_report(&r);
        let b2 = Baseline::from_json(&b.to_json()).unwrap();
        assert_eq!(b, b2);
        let (filtered, absorbed) = apply_baseline(r, &b2);
        assert_eq!(absorbed, 2);
        assert!(filtered.diagnostics.is_empty());
    }

    #[test]
    fn baseline_rejects_future_versions() {
        assert!(Baseline::from_json("{\"version\": 99, \"suppressed\": []}").is_err());
        // 2^32 + 1 is not version 1 read through a wrapping cast.
        assert!(Baseline::from_json("{\"version\": 4294967297, \"suppressed\": []}").is_err());
    }

    #[test]
    fn escapes_control_and_quote_characters() {
        let r = CheckReport {
            diagnostics: vec![Diagnostic::new(
                "X-001",
                Severity::Info,
                Location::none(),
                "a \"quoted\"\nline\twith\\slashes",
            )],
        };
        let s = to_sarif(&r);
        let v: serde_json::Value = serde_json::from_str(&s).unwrap();
        let run = &v["runs"].as_array().unwrap()[0];
        assert_eq!(
            run["results"].as_array().unwrap()[0]["message"]["text"].as_str(),
            Some("a \"quoted\"\nline\twith\\slashes")
        );
    }
}
