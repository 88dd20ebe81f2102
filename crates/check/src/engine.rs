//! The rule engine: artifacts in, report out.
//!
//! Rule families are independent — none reads another's findings — so
//! the engine fans them out over the workspace's farm
//! ([`CheckEngine::with_workers`]). Determinism is non-negotiable for a
//! linter (CI diffs reports byte-for-byte), and it is guaranteed
//! structurally rather than by scheduling luck:
//!
//! 1. every family is one farm task producing its own findings list, so
//!    no interleaving of worker progress mixes outputs;
//! 2. the lists come back, and merge, in family-insertion order;
//! 3. the merged list gets a **canonical total sort** — severity
//!    (descending), then code, location, message, suggestion — under
//!    which any merge order yields the same bytes;
//! 4. duplicate findings (same code, same location) collapse to the
//!    canonically first one.
//!
//! The same report comes out at 1 worker or 8; `tests/checker_tests.rs`
//! locks that in.

use crate::diag::{Diagnostic, Severity};
use pas2p_model::LogicalTrace;
use pas2p_phases::{PhaseAnalysis, PhaseTable, SimilarityConfig};
use pas2p_trace::{IngestReport, Trace};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

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

/// One family of related rules, run as a unit over the artifacts.
///
/// `Send + Sync` because families run concurrently on borrowed
/// artifacts; rules are pure functions of their inputs, so this costs
/// nothing in practice.
pub trait Checker: Send + Sync {
    /// Stable name of the rule family (shows up in metrics).
    fn name(&self) -> &'static str;
    /// Inspect the artifacts, pushing one diagnostic per finding.
    fn check(&self, artifacts: &Artifacts<'_>, out: &mut Vec<Diagnostic>);
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
/// order — the keystone of worker-count invariance.
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

/// The diagnostics engine: an ordered list of rule families and a
/// worker count.
pub struct CheckEngine {
    checkers: Vec<Box<dyn Checker>>,
    workers: usize,
}

impl CheckEngine {
    /// An engine with no rules (add with [`CheckEngine::push`]) running
    /// single-threaded.
    pub fn new() -> CheckEngine {
        CheckEngine {
            checkers: Vec::new(),
            workers: 1,
        }
    }

    /// The full shipped rule set: ingest, trace, happens-before, model,
    /// and signature families.
    pub fn with_default_rules() -> CheckEngine {
        let mut e = CheckEngine::new();
        e.push(Box::new(crate::ingest_rules::IngestRules));
        e.push(Box::new(crate::trace_rules::TraceRules));
        e.push(Box::new(crate::race_rules::HbRules));
        e.push(Box::new(crate::model_rules::ModelRules));
        e.push(Box::new(crate::signature_rules::SignatureRules));
        e
    }

    /// Set the number of worker threads (clamped to at least 1). The
    /// report is byte-identical at any setting; workers only change
    /// wall-clock time.
    pub fn with_workers(mut self, workers: usize) -> CheckEngine {
        self.workers = workers.max(1);
        self
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Append a rule family; families run in insertion order.
    pub fn push(&mut self, c: Box<dyn Checker>) {
        self.checkers.push(c);
    }

    /// Run every rule family over the artifacts.
    ///
    /// When `pas2p-obs` is enabled, bumps a `check.hit.*` counter per
    /// finding, `check.runs` once, and the `check.par.workers` gauge.
    pub fn run(&self, artifacts: &Artifacts<'_>) -> CheckReport {
        // One task per family, results in family order: the farm's task
        // order — not worker identity or finish order — carries the
        // merge order, so scheduling cannot leak into the report.
        let families = self.checkers.iter().map(|c| c.as_ref()).collect();
        let slots =
            pas2p_obs::farm::map(self.workers, "check worker", families, |c: &dyn Checker| {
                let mut out = Vec::new();
                c.check(artifacts, &mut out);
                out
            });

        let mut diagnostics: Vec<Diagnostic> = slots.into_iter().flatten().collect();
        if pas2p_obs::enabled() {
            for d in &diagnostics {
                pas2p_obs::counter(crate::rules::hit_metric(&d.code)).add(1);
            }
        }
        diagnostics.sort_by(|a, b| canonical_key(a).cmp(&canonical_key(b)));
        // Identical (code, severity, location) triples are one finding
        // reported twice — e.g. two rule paths seeing the same broken
        // event; the canonical sort makes "first" deterministic.
        let mut seen: HashSet<(String, Severity, crate::diag::Location)> = HashSet::new();
        diagnostics.retain(|d| seen.insert((d.code.clone(), d.severity, d.location.clone())));
        if pas2p_obs::enabled() {
            pas2p_obs::counter("check.runs").add(1);
            pas2p_obs::counter("check.findings").add(diagnostics.len() as u64);
            pas2p_obs::gauge("check.par.workers").set(self.workers as f64);
        }
        CheckReport { diagnostics }
    }
}

impl Default for CheckEngine {
    fn default() -> Self {
        CheckEngine::with_default_rules()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Location;

    struct Fixed(Severity);
    impl Checker for Fixed {
        fn name(&self) -> &'static str {
            "fixed"
        }
        fn check(&self, _a: &Artifacts<'_>, out: &mut Vec<Diagnostic>) {
            out.push(Diagnostic::new("X-001", self.0, Location::none(), "x"));
        }
    }

    #[test]
    fn empty_artifacts_check_clean() {
        let report = CheckEngine::with_default_rules().run(&Artifacts::empty());
        assert!(report.is_clean());
        assert_eq!(report.exit_code(), 0);
    }

    #[test]
    fn report_sorts_and_counts_by_severity() {
        let mut e = CheckEngine::new();
        e.push(Box::new(Fixed(Severity::Info)));
        e.push(Box::new(Fixed(Severity::Error)));
        e.push(Box::new(Fixed(Severity::Warning)));
        let r = e.run(&Artifacts::empty());
        assert_eq!(r.diagnostics[0].severity, Severity::Error);
        assert_eq!(r.errors(), 1);
        assert_eq!(r.warnings(), 1);
        assert_eq!(r.exit_code(), 2);
        assert!(!r.is_clean());
        assert!(r.has_code("X-001"));
    }

    #[test]
    fn warning_only_exit_code_is_one() {
        let mut e = CheckEngine::new();
        e.push(Box::new(Fixed(Severity::Warning)));
        let r = e.run(&Artifacts::empty());
        assert_eq!(r.exit_code(), 1);
        assert!(r.render().contains("1 warning(s)"));
    }

    /// Distinct messages at the same (code, location) collapse to the
    /// canonically first; distinct locations survive.
    #[test]
    fn dedup_collapses_same_code_and_location() {
        struct Dup;
        impl Checker for Dup {
            fn name(&self) -> &'static str {
                "dup"
            }
            fn check(&self, _a: &Artifacts<'_>, out: &mut Vec<Diagnostic>) {
                out.push(Diagnostic::new(
                    "D-001",
                    Severity::Warning,
                    Location::rank(1),
                    "b",
                ));
                out.push(Diagnostic::new(
                    "D-001",
                    Severity::Warning,
                    Location::rank(1),
                    "a",
                ));
                out.push(Diagnostic::new(
                    "D-001",
                    Severity::Warning,
                    Location::rank(2),
                    "c",
                ));
            }
        }
        let mut e = CheckEngine::new();
        e.push(Box::new(Dup));
        let r = e.run(&Artifacts::empty());
        assert_eq!(r.diagnostics.len(), 2);
        assert_eq!(r.diagnostics[0].message, "a");
        assert_eq!(r.diagnostics[1].message, "c");
    }

    /// The fan-out path produces the same report as sequential for any
    /// worker count, including more workers than families.
    #[test]
    fn worker_count_does_not_change_report() {
        fn build() -> CheckEngine {
            let mut e = CheckEngine::new();
            e.push(Box::new(Fixed(Severity::Info)));
            e.push(Box::new(Fixed(Severity::Error)));
            e.push(Box::new(Fixed(Severity::Warning)));
            e
        }
        let base = build().run(&Artifacts::empty());
        for w in [2, 3, 8] {
            let r = build().with_workers(w).run(&Artifacts::empty());
            assert_eq!(base, r, "report changed at {} workers", w);
        }
    }
}
