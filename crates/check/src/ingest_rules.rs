//! Ingest rules: findings over an
//! [`IngestReport`](pas2p_trace::IngestReport) from the recovering
//! decoder (`pas2p_trace::decode_recovering`).
//!
//! These rules inspect what ingest *did* rather than what the artifacts
//! *are*: a quarantined record or a missing rank is already repaired by
//! the time the trace reaches the pipeline, but the repair itself is a
//! finding — downstream numbers describe a subset of the run and the
//! operator must know.
//!
//! * `INGEST-FATAL-001` (error) — the buffer's header was unusable;
//!   nothing was recovered.
//! * `INGEST-RANK-001` (error) — a rank's section never appeared; the
//!   analysis proceeds without it.
//! * `INGEST-TRUNC-001` (warning) — a rank's section ended early; its
//!   tail records are gone.
//! * `INGEST-REC-001` (warning) — records were quarantined as
//!   undecodable or implausible.
//! * `INGEST-DUP-001` (warning) — recovered records carried duplicate or
//!   out-of-sequence numbers and were renumbered.

use crate::diag::{Diagnostic, Location, Severity};
use crate::engine::Artifacts;
use pas2p_trace::RankHealth;

/// The ingest rule family. Skips silently when no [`Artifacts::ingest`]
/// report is present (the trace came through the strict decoder).
pub(crate) fn check(artifacts: &Artifacts<'_>, out: &mut Vec<Diagnostic>) {
    let Some(report) = artifacts.ingest else {
        return;
    };
    if let Some(why) = &report.fatal {
        out.push(Diagnostic::new(
            "INGEST-FATAL-001",
            Severity::Error,
            Location::none(),
            format!("trace buffer unusable: {}", why),
        ));
        return;
    }
    for r in &report.ranks {
        match r.health {
            RankHealth::Intact => {}
            RankHealth::Missing => {
                out.push(
                    Diagnostic::new(
                        "INGEST-RANK-001",
                        Severity::Error,
                        Location::rank(r.rank),
                        format!(
                            "rank {} never appeared in the trace; analysis proceeds \
                             with the surviving ranks",
                            r.rank
                        ),
                    )
                    .with_suggestion(
                        "results are degraded-confidence; re-collect the trace to \
                         restore the full run",
                    ),
                );
            }
            RankHealth::Truncated => {
                out.push(Diagnostic::new(
                    "INGEST-TRUNC-001",
                    Severity::Warning,
                    Location::rank(r.rank),
                    format!(
                        "rank {} section truncated: {}/{} records recovered",
                        r.rank, r.records_recovered, r.records_expected
                    ),
                ));
            }
            RankHealth::Recovered => {}
        }
        if r.records_quarantined > 0 {
            out.push(Diagnostic::new(
                "INGEST-REC-001",
                Severity::Warning,
                Location::rank(r.rank),
                format!(
                    "rank {}: {} record(s) quarantined as undecodable",
                    r.rank, r.records_quarantined
                ),
            ));
        }
        if r.records_renumbered > 0 {
            out.push(Diagnostic::new(
                "INGEST-DUP-001",
                Severity::Warning,
                Location::rank(r.rank),
                format!(
                    "rank {}: {} record(s) renumbered (duplicate or out-of-sequence \
                     event numbers)",
                    r.rank, r.records_renumbered
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CheckEngine;
    use pas2p_trace::{IngestReport, RankIngest};

    fn rank(rank: u32, health: RankHealth) -> RankIngest {
        RankIngest {
            rank,
            health,
            records_expected: 10,
            records_recovered: if health == RankHealth::Missing { 0 } else { 8 },
            records_quarantined: 0,
            records_renumbered: 0,
        }
    }

    fn run(report: &IngestReport) -> crate::engine::CheckReport {
        let artifacts = Artifacts {
            ingest: Some(report),
            ..Artifacts::empty()
        };
        CheckEngine::with_default_rules().run(&artifacts)
    }

    #[test]
    fn clean_ingest_raises_nothing() {
        let report = IngestReport {
            nprocs: 2,
            ranks: vec![rank(0, RankHealth::Intact), rank(1, RankHealth::Intact)],
            bytes_total: 100,
            ..IngestReport::default()
        };
        assert!(run(&report).is_clean());
    }

    #[test]
    fn fatal_ingest_is_an_error() {
        let report = IngestReport {
            fatal: Some("not a PAS2P trace (bad magic)".into()),
            ..IngestReport::default()
        };
        let r = run(&report);
        assert!(r.has_code("INGEST-FATAL-001"));
        assert_eq!(r.exit_code(), 2);
    }

    #[test]
    fn missing_rank_is_an_error() {
        let report = IngestReport {
            nprocs: 2,
            ranks: vec![rank(0, RankHealth::Intact), rank(1, RankHealth::Missing)],
            ..IngestReport::default()
        };
        let r = run(&report);
        assert!(r.has_code("INGEST-RANK-001"));
        assert_eq!(r.exit_code(), 2);
    }

    #[test]
    fn truncation_and_quarantine_are_warnings() {
        let mut quarantined = rank(0, RankHealth::Recovered);
        quarantined.records_quarantined = 3;
        let mut renumbered = rank(1, RankHealth::Recovered);
        renumbered.records_renumbered = 2;
        let report = IngestReport {
            nprocs: 3,
            ranks: vec![quarantined, renumbered, rank(2, RankHealth::Truncated)],
            ..IngestReport::default()
        };
        let r = run(&report);
        assert!(r.has_code("INGEST-REC-001"));
        assert!(r.has_code("INGEST-DUP-001"));
        assert!(r.has_code("INGEST-TRUNC-001"));
        assert_eq!(r.errors(), 0);
        assert_eq!(r.exit_code(), 1);
    }

    #[test]
    fn absent_report_skips_the_family() {
        assert!(CheckEngine::with_default_rules()
            .run(&Artifacts::empty())
            .is_clean());
    }
}
