//! A stage is its own cancellation boundary: Stage A over a faulted
//! trace buffer, checked by the default engine under a live deadline,
//! records the checkpoint gaps of every stage it enters under that
//! stage's own name, and under no name that is not a stage.
//!
//! One test in a file of its own: the obs registry is process-global.

use pas2p::prelude::*;
use pas2p::{with_cancel, CancelToken, Pas2p};
use std::time::Duration;

const GAP: &str = "cancel.checkpoint_gap_us.";

#[test]
fn every_checkpoint_gap_is_named_after_a_stage() {
    let pas2p = Pas2p::default();
    let app = pas2p_apps::by_name("cg", 4).expect("catalog app");
    let (clean, _) = run_traced(
        app.as_ref(),
        &cluster_a(),
        MappingPolicy::Block,
        pas2p.instrumentation,
    );
    let engine = CheckEngine::with_default_rules();

    pas2p_obs::set_enabled(true);
    pas2p_obs::global().reset();
    let deadline = CancelToken::with_deadline(Duration::from_secs(3600));
    let recovered = with_cancel(&deadline, || {
        fault_matrix(1).into_iter().find_map(|(_label, plan)| {
            let (bytes, _log) = plan.inject(&clean);
            pas2p
                .analyze_buffer("cg", "faulted", &bytes, Some(&engine))
                .ok()
        })
    });
    let snapshot = pas2p_obs::global().snapshot();
    pas2p_obs::set_enabled(false);

    let (analysis, _trace) = recovered.expect("the matrix salvages a trace");
    assert!(analysis.check.is_some(), "the engine ran");
    for stage in ["ingest", "pas2p_order", "extract_phases", "table", "check"] {
        let gaps = snapshot
            .histograms
            .get(&format!("{GAP}{stage}"))
            .map_or(0, |h| h.count);
        assert!(gaps >= 1, "no checkpoint gap recorded for `{stage}`");
    }
    for name in snapshot.histograms.keys() {
        if let Some(stage) = name.strip_prefix(GAP) {
            assert!(
                snapshot.stages.iter().any(|s| s.name == stage),
                "`{name}` names no stage of the snapshot"
            );
        }
    }
}
