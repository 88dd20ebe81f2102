//! Rules over the phase analysis and phase table: the bookkeeping that
//! makes the signature's prediction equation sound (paper §3.3–§4).
//!
//! PET = Σ PhaseETᵢ × Wᵢ only predicts the application when the weights
//! count real occurrences, the occurrences tile the logical trace, the
//! similarity dedup actually merged what it claims to have merged, and
//! the table rows agree with the analysis they were derived from.

use crate::diag::{Diagnostic, Location, Severity};
use crate::engine::Artifacts;
use pas2p_model::LogicalTrace;
use pas2p_phases::{CellSig, Phase, PhaseAnalysis, SimilarityConfig};

/// Coverage below this fraction of the AET is worth a note: the signature
/// will represent too little of the application for the prediction to be
/// trusted (the paper's relevant phases cover well above this).
const COVERAGE_FLOOR: f64 = 0.9;

/// Relative tolerance of the PET reconstruction identity. Occurrences
/// tile the trace, so Σ weight × mean duration must reproduce the AET up
/// to float summation error.
const PET_TOLERANCE: f64 = 1e-6;

/// The signature-level rule family (`SIG-*`, `PET-EQ-001`).
pub(crate) fn check(artifacts: &Artifacts<'_>, out: &mut Vec<Diagnostic>) {
    let Some(analysis) = artifacts.analysis else {
        return;
    };
    check_weights(analysis, out);
    check_tiling(analysis, artifacts.logical, out);
    check_mutual_similarity(analysis, &artifacts.similarity, out);
    if let Some(logical) = artifacts.logical {
        check_patterns_match_trace(analysis, logical, &artifacts.similarity, out);
    }
    check_coverage(analysis, artifacts, out);
    check_pet_identity(analysis, out);
    if let Some(table) = artifacts.table {
        check_table_consistency(analysis, table, out);
        check_table_rows(table, out);
    }
}

/// SIG-ROW-001: a table row must carry at least one measure window — the
/// signature constructor has no endpoint to detect otherwise and skips
/// the row. `from_analysis` never builds such a row, so one can only come
/// from a deserialized or hand-edited table.
fn check_table_rows(table: &pas2p_phases::PhaseTable, out: &mut Vec<Diagnostic>) {
    for row in &table.rows {
        if row.windows.is_empty() {
            out.push(
                Diagnostic::new(
                    "SIG-ROW-001",
                    Severity::Error,
                    Location::phase(row.phase_id),
                    format!(
                        "table row for phase {} has no measure windows",
                        row.phase_id
                    ),
                )
                .with_suggestion(
                    "the constructor will skip this row; rebuild the table from the analysis",
                ),
            );
        }
    }
}

/// SIG-W-001: a phase's weight is its repetition count — exactly the
/// number of recorded occurrences.
fn check_weights(analysis: &PhaseAnalysis, out: &mut Vec<Diagnostic>) {
    for p in &analysis.phases {
        if p.weight as usize != p.occurrences.len() {
            out.push(Diagnostic::new(
                "SIG-W-001",
                Severity::Error,
                Location::phase(p.id),
                format!(
                    "phase {} claims weight {} but records {} occurrence(s)",
                    p.id,
                    p.weight,
                    p.occurrences.len()
                ),
            ));
        }
    }
}

/// SIG-OCC-001: occurrences of all phases together tile the logical
/// trace — contiguous, non-overlapping, starting at tick 0 and (when the
/// logical trace is at hand) ending at its last tick.
fn check_tiling(
    analysis: &PhaseAnalysis,
    logical: Option<&LogicalTrace>,
    out: &mut Vec<Diagnostic>,
) {
    let mut spans: Vec<(usize, usize, u32)> = analysis
        .phases
        .iter()
        .flat_map(|p| {
            p.occurrences
                .iter()
                .map(move |o| (o.start_tick, o.end_tick, p.id))
        })
        .collect();
    if spans.is_empty() {
        return;
    }
    spans.sort_unstable();
    if spans[0].0 != 0 {
        out.push(Diagnostic::new(
            "SIG-OCC-001",
            Severity::Error,
            Location::phase(spans[0].2),
            format!("first occurrence starts at tick {}, not 0", spans[0].0),
        ));
    }
    for w in spans.windows(2) {
        let (a, b) = (w[0], w[1]);
        if a.1 != b.0 {
            out.push(Diagnostic::new(
                "SIG-OCC-001",
                Severity::Error,
                Location::phase(b.2),
                format!(
                    "occurrences do not tile: one ends at tick {} and the next \
                     (phase {}) starts at tick {}",
                    a.1, b.2, b.0
                ),
            ));
        }
    }
    if let Some(l) = logical {
        let last = spans.last().unwrap();
        if last.1 != l.len() {
            out.push(Diagnostic::new(
                "SIG-OCC-001",
                Severity::Error,
                Location::phase(last.2),
                format!(
                    "last occurrence ends at tick {} but the logical trace has {} tick(s)",
                    last.1,
                    l.len()
                ),
            ));
        }
    }
}

/// SIG-SIM-001: two *distinct* phases that are mutually similar should
/// have been merged by the dedup — their coexistence splits one weight
/// across two table rows.
fn check_mutual_similarity(
    analysis: &PhaseAnalysis,
    cfg: &SimilarityConfig,
    out: &mut Vec<Diagnostic>,
) {
    for (i, a) in analysis.phases.iter().enumerate() {
        for b in &analysis.phases[i + 1..] {
            if cfg.phases_similar(&a.pattern, &b.pattern) {
                out.push(
                    Diagnostic::new(
                        "SIG-SIM-001",
                        Severity::Warning,
                        Location::phase(a.id),
                        format!(
                            "phases {} and {} are mutually similar but were not merged",
                            a.id, b.id
                        ),
                    )
                    .with_suggestion(
                        "first-match dedup can leave similar representatives; \
                         weights are split between them",
                    ),
                );
            }
        }
    }
}

/// Rebuild the `[tick][process]` cell pattern of a tick span from the
/// logical trace — the same construction the extractor uses.
fn pattern_of(
    logical: &LogicalTrace,
    start: usize,
    end: usize,
    nprocs: u32,
) -> Vec<Vec<Option<CellSig>>> {
    logical.ticks[start..end.min(logical.ticks.len())]
        .iter()
        .map(|tick| {
            (0..nprocs)
                .map(|p| tick.event_of(p).map(|e| CellSig::of(e, nprocs)))
                .collect()
        })
        .collect()
}

/// SIG-SIM-002: each recorded occurrence, re-read from the logical trace,
/// must still be similar to its phase's representative pattern — the
/// weight is otherwise counting ticks that do not repeat the phase.
fn check_patterns_match_trace(
    analysis: &PhaseAnalysis,
    logical: &LogicalTrace,
    cfg: &SimilarityConfig,
    out: &mut Vec<Diagnostic>,
) {
    for p in &analysis.phases {
        for o in &p.occurrences {
            if o.end_tick > logical.len() {
                out.push(Diagnostic::new(
                    "SIG-SIM-002",
                    Severity::Error,
                    Location::phase(p.id),
                    format!(
                        "phase {} records an occurrence at ticks {}..{} beyond the \
                         logical trace ({} ticks)",
                        p.id,
                        o.start_tick,
                        o.end_tick,
                        logical.len()
                    ),
                ));
                continue;
            }
            let pat = pattern_of(logical, o.start_tick, o.end_tick, analysis.nprocs);
            if !cfg.phases_similar(&p.pattern, &pat) {
                out.push(Diagnostic::new(
                    "SIG-SIM-002",
                    Severity::Error,
                    Location::phase(p.id),
                    format!(
                        "occurrence of phase {} at ticks {}..{} is not similar to \
                         the phase's representative pattern",
                        p.id, o.start_tick, o.end_tick
                    ),
                ));
            }
        }
    }
}

/// SIG-COV-001: how much of the AET the relevant phases represent.
fn check_coverage(analysis: &PhaseAnalysis, artifacts: &Artifacts<'_>, out: &mut Vec<Diagnostic>) {
    let threshold = artifacts
        .table
        .map(|t| t.relevance_threshold)
        .unwrap_or(0.01);
    let cov = analysis.relevant_coverage(threshold);
    if analysis.aet > 0.0 && cov < COVERAGE_FLOOR {
        out.push(
            Diagnostic::new(
                "SIG-COV-001",
                Severity::Info,
                Location::none(),
                format!(
                    "relevant phases cover {:.1}% of the execution time \
                     (floor {:.0}%)",
                    cov * 100.0,
                    COVERAGE_FLOOR * 100.0
                ),
            )
            .with_suggestion("a prediction from this signature misses much of the application"),
        );
    }
}

/// PET-EQ-001: the reconstruction identity. Occurrences tile the trace,
/// so Σ weight × mean duration over *all* phases equals the AET.
///
/// PET-EQ-002: a degenerate AET (≤ 0) with a non-trivial phase analysis.
/// The identity cannot be checked and any prediction-error percentage
/// (PETE) over this run is undefined — `report_from` yields
/// `pete_percent = None` rather than a fake 0 %.
fn check_pet_identity(analysis: &PhaseAnalysis, out: &mut Vec<Diagnostic>) {
    if analysis.aet <= 0.0 {
        if !analysis.phases.is_empty() {
            out.push(
                Diagnostic::new(
                    "PET-EQ-002",
                    Severity::Warning,
                    Location::none(),
                    format!(
                        "AET is {:.6}s but the analysis has {} phase(s); the Eq-1 \
                         identity and PETE are undefined over this run",
                        analysis.aet,
                        analysis.phases.len()
                    ),
                )
                .with_suggestion("a zero-duration run cannot anchor a prediction error"),
            );
        }
        return;
    }
    let reconstructed = analysis.reconstructed_aet();
    let rel = (reconstructed - analysis.aet).abs() / analysis.aet;
    if rel > PET_TOLERANCE {
        out.push(Diagnostic::new(
            "PET-EQ-001",
            Severity::Error,
            Location::none(),
            format!(
                "Σ weight × PhaseET = {:.6}s but AET = {:.6}s (relative error {:.2e})",
                reconstructed, analysis.aet, rel
            ),
        ));
    }
}

/// SIG-REL-001: the table's rows are exactly the analysis's relevant
/// phases — same ids, same weights, same order.
fn check_table_consistency(
    analysis: &PhaseAnalysis,
    table: &pas2p_phases::PhaseTable,
    out: &mut Vec<Diagnostic>,
) {
    let relevant: Vec<&Phase> = analysis.relevant(table.relevance_threshold);
    if relevant.len() != table.rows.len() {
        out.push(Diagnostic::new(
            "SIG-REL-001",
            Severity::Error,
            Location::none(),
            format!(
                "table has {} row(s) but the analysis finds {} relevant phase(s) \
                 at threshold {}",
                table.rows.len(),
                relevant.len(),
                table.relevance_threshold
            ),
        ));
        return;
    }
    for (row, phase) in table.rows.iter().zip(&relevant) {
        if row.phase_id != phase.id || row.weight != phase.weight {
            out.push(Diagnostic::new(
                "SIG-REL-001",
                Severity::Error,
                Location::phase(row.phase_id),
                format!(
                    "table row (phase {}, weight {}) disagrees with the analysis \
                     (phase {}, weight {})",
                    row.phase_id, row.weight, phase.id, phase.weight
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CheckEngine;
    use pas2p_phases::{extract_phases, Occurrence, PhaseTable};

    /// A tiny hand-built analysis: one phase, two occurrences, weights
    /// consistent, spanning ticks 0..4.
    fn tiny_analysis() -> PhaseAnalysis {
        let occ = |s: usize, e: usize, t0: f64, t1: f64| Occurrence {
            start_tick: s,
            end_tick: e,
            t_start: t0,
            t_end: t1,
            start_counts: vec![0],
            end_counts: vec![1],
        };
        PhaseAnalysis {
            nprocs: 1,
            phases: vec![Phase {
                id: 0,
                pattern: vec![vec![None], vec![None]],
                weight: 2,
                occurrences: vec![occ(0, 2, 0.0, 1.0), occ(2, 4, 1.0, 2.0)],
            }],
            aet: 2.0,
            analysis_seconds: 0.0,
            negative_spans: 0,
        }
    }

    fn run(analysis: &PhaseAnalysis, table: Option<&PhaseTable>) -> Vec<Diagnostic> {
        let artifacts = Artifacts {
            analysis: Some(analysis),
            table,
            ..Artifacts::empty()
        };
        CheckEngine::with_default_rules()
            .run(&artifacts)
            .diagnostics
    }

    #[test]
    fn consistent_analysis_has_no_errors() {
        let a = tiny_analysis();
        let ds = run(&a, None);
        assert!(
            ds.iter().all(|d| d.severity != Severity::Error),
            "unexpected: {:?}",
            ds
        );
    }

    #[test]
    fn inflated_weight_is_flagged() {
        let mut a = tiny_analysis();
        a.phases[0].weight = 99;
        let ds = run(&a, None);
        assert!(ds.iter().any(|d| d.code == "SIG-W-001"));
        // The PET identity breaks with it.
        assert!(ds.iter().any(|d| d.code == "PET-EQ-001"));
    }

    #[test]
    fn gap_in_tiling_is_flagged() {
        let mut a = tiny_analysis();
        a.phases[0].occurrences[1].start_tick = 3; // 2..3 uncovered
        let ds = run(&a, None);
        assert!(ds.iter().any(|d| d.code == "SIG-OCC-001"));
    }

    #[test]
    fn pet_identity_detects_inflated_duration() {
        let mut a = tiny_analysis();
        a.phases[0].occurrences[0].t_end = 5.0; // mean duration now wrong
        let ds = run(&a, None);
        assert!(ds.iter().any(|d| d.code == "PET-EQ-001"));
    }

    #[test]
    fn table_row_mismatch_is_flagged() {
        let a = tiny_analysis();
        let mut table = PhaseTable::from_analysis(&a, 0.01, 0, 1);
        table.rows[0].weight += 1;
        let ds = run(&a, Some(&table));
        assert!(ds.iter().any(|d| d.code == "SIG-REL-001"));
    }

    #[test]
    fn dropped_table_row_is_flagged() {
        let a = tiny_analysis();
        let mut table = PhaseTable::from_analysis(&a, 0.01, 0, 1);
        table.rows.clear();
        let ds = run(&a, Some(&table));
        assert!(ds.iter().any(|d| d.code == "SIG-REL-001"));
    }

    #[test]
    fn empty_windows_row_is_flagged() {
        let a = tiny_analysis();
        let mut table = PhaseTable::from_analysis(&a, 0.01, 0, 1);
        table.rows[0].windows.clear();
        let ds = run(&a, Some(&table));
        assert!(ds.iter().any(|d| d.code == "SIG-ROW-001"), "{ds:?}");
    }

    #[test]
    fn degenerate_aet_with_phases_is_flagged() {
        let mut a = tiny_analysis();
        a.aet = 0.0;
        let ds = run(&a, None);
        assert!(ds.iter().any(|d| d.code == "PET-EQ-002"), "{ds:?}");
        // ...but an empty analysis with aet 0 stays clean.
        let empty = PhaseAnalysis {
            nprocs: 1,
            phases: vec![],
            aet: 0.0,
            analysis_seconds: 0.0,
            negative_spans: 0,
        };
        let ds = run(&empty, None);
        assert!(ds.iter().all(|d| d.code != "PET-EQ-002"), "{ds:?}");
    }

    #[test]
    fn extractor_output_checks_clean_end_to_end() {
        // A real extraction over a synthetic logical trace must satisfy
        // every signature rule including SIG-SIM-002 against the trace.
        use pas2p_model::pas2p_order;
        use pas2p_trace::{EventKind, ProcessTrace, Trace, TraceEvent};
        let ev = |number: u64, process: u32, kind: EventKind, peer: u32, msg_id: u64, t: f64| {
            TraceEvent {
                number,
                process,
                t_post: t,
                t_complete: t + 0.01,
                kind,
                peer: Some(peer),
                tag: 0,
                size: 64,
                involved: 1,
                msg_id,
                comm_id: 0,
                wildcard: false,
            }
        };
        // 8 identical rounds of a 2-rank ping.
        let mut p0 = Vec::new();
        let mut p1 = Vec::new();
        for r in 0..8u64 {
            let t = r as f64 * 0.1;
            p0.push(ev(r, 0, EventKind::Send, 1, r + 1, t));
            p1.push(ev(r, 1, EventKind::Recv, 0, r + 1, t + 0.02));
        }
        let trace = Trace {
            nprocs: 2,
            machine: "t".into(),
            procs: vec![
                ProcessTrace {
                    process: 0,
                    end_time: 1.0,
                    events: p0,
                },
                ProcessTrace {
                    process: 1,
                    end_time: 1.0,
                    events: p1,
                },
            ],
        };
        let logical = pas2p_order(&trace);
        let cfg = SimilarityConfig::default();
        let analysis = extract_phases(&logical, &cfg);
        let table = PhaseTable::from_analysis(&analysis, 0.01, 0, 1);
        let artifacts = Artifacts {
            trace: Some(&trace),
            logical: Some(&logical),
            analysis: Some(&analysis),
            table: Some(&table),
            similarity: cfg,
            ingest: None,
        };
        let report = CheckEngine::with_default_rules().run(&artifacts);
        assert_eq!(
            report.errors(),
            0,
            "real pipeline output must be error-free: {}",
            report.render()
        );
    }
}
