//! Extraction stays on the calling thread: `extract_phases` must not
//! start a single worker — whatever `parallelism` says — because an
//! idle pool per 13-phase catalog app costs every cold request
//! 0.1–0.3 ms. (Event tracing is process-global, so this test lives in
//! a binary of its own.)

use pas2p::prelude::*;

#[test]
fn extraction_starts_no_worker() {
    let app = pas2p_apps::by_name("cg", 8).expect("catalog app");
    let (trace, _) = run_traced(
        app.as_ref(),
        &cluster_a(),
        MappingPolicy::Block,
        InstrumentationModel::default(),
    );
    let logical = pas2p_order(&trace);
    for parallelism in [None, Some(4)] {
        let cfg = SimilarityConfig {
            parallelism,
            ..SimilarityConfig::default()
        };
        pas2p_obs::events::clear();
        pas2p_obs::set_tracing(true);
        let analysis = extract_phases(&logical, &cfg);
        pas2p_obs::set_tracing(false);
        let events = pas2p_obs::events::take();
        assert!(analysis.total_phases() > 0);
        assert!(
            events.iter().any(|e| e.name == "extract_phases"),
            "the stage span was recorded, so tracing was on"
        );
        let lanes: Vec<&str> = events
            .iter()
            .filter(|e| e.cat == pas2p_obs::CAT_HOST_WORKER)
            .map(|e| e.name.as_str())
            .collect();
        assert!(
            lanes.is_empty(),
            "parallelism {parallelism:?}: worker lanes {lanes:?} for {} phases",
            analysis.total_phases()
        );
    }
}
