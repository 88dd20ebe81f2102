//! Golden degraded-mode coverage: for every catalog application, losing
//! one rank's trace section must not kill the analysis. The recovering
//! ingest path fills the hole with an empty section, the model falls
//! back to local time for the orphaned communication, and the result is
//! a `Degraded` analysis carrying a populated `IngestReport` that names
//! the missing rank.

use pas2p::prelude::*;
use pas2p::Pas2p;
use pas2p_apps::CATALOG;
use pas2p_trace::RankHealth;

const DROPPED: u32 = 1;

#[test]
fn dropping_one_rank_degrades_but_never_kills_any_app() {
    let pas2p = Pas2p::default();
    let base = cluster_a();
    for name in CATALOG {
        let app = pas2p_apps::by_name(name, 8).expect("catalog app");
        let (trace, _) = run_traced(
            app.as_ref(),
            &base,
            MappingPolicy::Block,
            pas2p.instrumentation,
        );
        let plan = FaultPlan::new(0xD0D0).with(FaultKind::DropRank { rank: DROPPED });
        let (bytes, _log) = plan.inject(&trace);

        let analysis = pas2p
            .analyze_bytes(&app.name(), &app.workload(), &bytes)
            .unwrap_or_else(|e| panic!("{name}: degraded analysis failed: {e}"));

        assert_eq!(
            analysis.confidence,
            Confidence::Degraded,
            "{name}: a missing rank must degrade confidence"
        );
        let ingest = analysis
            .ingest
            .as_ref()
            .unwrap_or_else(|| panic!("{name}: degraded analysis must carry an ingest report"));
        assert!(ingest.is_degraded(), "{name}");
        assert_eq!(ingest.missing_ranks(), vec![DROPPED], "{name}");
        assert_eq!(ingest.ranks[DROPPED as usize].health, RankHealth::Missing);
        // The surviving ranks still produce a real analysis.
        assert_eq!(analysis.nprocs, 8, "{name}");
        assert!(analysis.trace_events > 0, "{name}");
        assert!(analysis.total_phases() > 0, "{name}");
    }
}

#[test]
fn degraded_confidence_rides_into_signature_and_prediction() {
    let pas2p = Pas2p::default();
    let base = cluster_a();
    let app = pas2p_apps::by_name("cg", 8).expect("catalog app");
    let (trace, _) = run_traced(
        app.as_ref(),
        &base,
        MappingPolicy::Block,
        pas2p.instrumentation,
    );
    let plan = FaultPlan::new(7).with(FaultKind::DropRank { rank: DROPPED });
    let (bytes, _) = plan.inject(&trace);
    let analysis = pas2p
        .analyze_bytes(&app.name(), &app.workload(), &bytes)
        .expect("cg survives a dropped rank");
    assert_eq!(analysis.confidence, Confidence::Degraded);

    let (signature, _) =
        pas2p.build_signature(app.as_ref(), &analysis, &base, MappingPolicy::Block);
    assert_eq!(
        signature.confidence,
        Confidence::Degraded,
        "the signature inherits the analysis confidence"
    );
    let prediction = pas2p
        .predict(app.as_ref(), &signature, &cluster_b(), MappingPolicy::Block)
        .expect("degraded signature still executes");
    assert_eq!(
        prediction.confidence,
        Confidence::Degraded,
        "the prediction inherits the signature confidence"
    );
}
