//! The rule engine: artifacts in, report out.
//!
//! [`CheckEngine::run`] calls the five rule families — ingest, trace,
//! happens-before, model, signature — in that order on the calling
//! thread; none reads another's findings. Determinism is non-negotiable
//! for a linter (CI diffs reports byte-for-byte), and it does not rest
//! on the production order either:
//!
//! 1. the findings get a **canonical total sort** — severity
//!    (descending), then code, location, message, suggestion — under
//!    which any production order yields the same bytes;
//! 2. duplicate findings (same code, same location) collapse to the
//!    canonically first one.

use crate::diag::{Diagnostic, Severity};
use pas2p_model::LogicalTrace;
use pas2p_obs::Counter;
use pas2p_phases::{PhaseAnalysis, PhaseTable, SimilarityConfig};
use pas2p_trace::{IngestReport, Trace};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

static RUNS: Counter = Counter::new("check.runs");
static FINDINGS: Counter = Counter::new("check.findings");

/// Everything a rule may look at. Each stage is optional so the engine
/// can check whatever subset of the pipeline the caller has — rules skip
/// silently when their inputs are absent.
#[derive(Clone, Copy)]
pub struct Artifacts<'a> {
    /// The physical trace (stage 1 output).
    pub trace: Option<&'a Trace>,
    /// The logically ordered trace (stage 2 output).
    pub logical: Option<&'a LogicalTrace>,
    /// The phase analysis (stage 3 output).
    pub analysis: Option<&'a PhaseAnalysis>,
    /// The phase table / signature contents (stage 4 output).
    pub table: Option<&'a PhaseTable>,
    /// Similarity thresholds the analysis was produced with — signature
    /// rules re-apply them.
    pub similarity: SimilarityConfig,
    /// What the recovering decoder did to the input (stage 0 output);
    /// present only when the trace came through `decode_recovering`.
    pub ingest: Option<&'a IngestReport>,
}

impl<'a> Artifacts<'a> {
    /// No artifacts at all (rules all skip; the report is clean).
    pub fn empty() -> Artifacts<'a> {
        Artifacts {
            trace: None,
            logical: None,
            analysis: None,
            table: None,
            similarity: SimilarityConfig::default(),
            ingest: None,
        }
    }
}

/// The result of one engine run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CheckReport {
    /// All findings, most severe first.
    pub diagnostics: Vec<Diagnostic>,
}

impl CheckReport {
    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.count(Severity::Warning)
    }

    fn count(&self, s: Severity) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == s).count()
    }

    /// True when nothing rose above Info.
    pub fn is_clean(&self) -> bool {
        self.errors() == 0 && self.warnings() == 0
    }

    /// Whether any finding carries the given code.
    pub fn has_code(&self, code: &str) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Process exit code semantics: 0 clean, 1 warnings only, 2 errors.
    pub fn exit_code(&self) -> u8 {
        if self.errors() > 0 {
            2
        } else if self.warnings() > 0 {
            1
        } else {
            0
        }
    }

    /// Render the human-readable table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} error(s), {} warning(s), {} finding(s) total\n",
            self.errors(),
            self.warnings(),
            self.diagnostics.len()
        ));
        out
    }
}

/// The canonical total order of a report: severity descending, then
/// code, location, message, suggestion. Total (no ties between distinct
/// diagnostics), so the sorted report is independent of production
/// order.
fn canonical_key(d: &Diagnostic) -> impl Ord + '_ {
    (
        std::cmp::Reverse(d.severity),
        &d.code,
        d.location.rank,
        d.location.event,
        d.location.tick,
        d.location.phase,
        &d.message,
        &d.suggestion,
    )
}

/// The diagnostics engine: the shipped rule families, run in order.
#[derive(Default)]
pub struct CheckEngine;

impl CheckEngine {
    /// The full shipped rule set: ingest, trace, happens-before, model,
    /// and signature families.
    pub fn with_default_rules() -> CheckEngine {
        CheckEngine
    }

    /// Accepted and ignored: the families run on the calling thread.
    /// The benchmark harness still spells it.
    pub fn with_workers(self, _workers: usize) -> CheckEngine {
        self
    }

    /// Run every rule family over the artifacts.
    ///
    /// When `pas2p-obs` is enabled, bumps a `check.hit.*` counter per
    /// finding and `check.runs` once.
    pub fn run(&self, artifacts: &Artifacts<'_>) -> CheckReport {
        let mut diagnostics = Vec::new();
        crate::ingest_rules::check(artifacts, &mut diagnostics);
        crate::trace_rules::check(artifacts, &mut diagnostics);
        crate::race_rules::check(artifacts, &mut diagnostics);
        crate::model_rules::check(artifacts, &mut diagnostics);
        crate::signature_rules::check(artifacts, &mut diagnostics);
        canonical_report(diagnostics)
    }
}

/// Sort the findings canonically and collapse duplicates.
fn canonical_report(mut diagnostics: Vec<Diagnostic>) -> CheckReport {
    for d in &diagnostics {
        crate::rules::hits(&d.code).inc();
    }
    diagnostics.sort_by(|a, b| canonical_key(a).cmp(&canonical_key(b)));
    // Identical (code, severity, location) triples are one finding
    // reported twice — e.g. two rule paths seeing the same broken
    // event; the canonical sort makes "first" deterministic.
    let mut seen: HashSet<(String, Severity, crate::diag::Location)> = HashSet::new();
    diagnostics.retain(|d| seen.insert((d.code.clone(), d.severity, d.location.clone())));
    RUNS.inc();
    FINDINGS.add(diagnostics.len() as u64);
    CheckReport { diagnostics }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Location;

    fn fixed(severity: Severity) -> Diagnostic {
        Diagnostic::new("X-001", severity, Location::none(), "x")
    }

    #[test]
    fn empty_artifacts_check_clean() {
        let report = CheckEngine::with_default_rules().run(&Artifacts::empty());
        assert!(report.is_clean());
        assert_eq!(report.exit_code(), 0);
    }

    #[test]
    fn report_sorts_and_counts_by_severity() {
        let r = canonical_report(vec![
            fixed(Severity::Info),
            fixed(Severity::Error),
            fixed(Severity::Warning),
        ]);
        assert_eq!(r.diagnostics[0].severity, Severity::Error);
        assert_eq!(r.errors(), 1);
        assert_eq!(r.warnings(), 1);
        assert_eq!(r.exit_code(), 2);
        assert!(!r.is_clean());
        assert!(r.has_code("X-001"));
    }

    #[test]
    fn warning_only_exit_code_is_one() {
        let r = canonical_report(vec![fixed(Severity::Warning)]);
        assert_eq!(r.exit_code(), 1);
        assert!(r.render().contains("1 warning(s)"));
    }

    /// Distinct messages at the same (code, location) collapse to the
    /// canonically first; distinct locations survive.
    #[test]
    fn dedup_collapses_same_code_and_location() {
        let r = canonical_report(vec![
            Diagnostic::new("D-001", Severity::Warning, Location::rank(1), "b"),
            Diagnostic::new("D-001", Severity::Warning, Location::rank(1), "a"),
            Diagnostic::new("D-001", Severity::Warning, Location::rank(2), "c"),
        ]);
        assert_eq!(r.diagnostics.len(), 2);
        assert_eq!(r.diagnostics[0].message, "a");
        assert_eq!(r.diagnostics[1].message, "c");
    }
}
