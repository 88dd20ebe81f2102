//! Observation must never perturb the simulation: the `Analysis` for
//! cg/16 on machine A must be byte-identical with observability enabled
//! vs disabled, once the host-wall-clock fields (which legitimately vary
//! run to run) are normalized out. Every virtual-clock quantity — trace
//! shape, phase structure, AET, the phase table — has to match exactly.
//! And off, nothing registers: the disabled run leaves the registry
//! empty.

use pas2p::prelude::*;
use pas2p::{Analysis, Pas2p};
use pas2p_apps::{CgApp, Class};

/// Zero the host-clock fields and drop the embedded snapshot so the
/// comparison covers only simulation-derived state.
fn normalized_json(mut analysis: Analysis) -> String {
    analysis.tfat_seconds = 0.0;
    analysis.analysis.analysis_seconds = 0.0;
    analysis.metrics = None;
    serde_json::to_string_pretty(&analysis).unwrap()
}

#[test]
fn observability_does_not_perturb_the_analysis() {
    let app = CgApp {
        class: Class::A,
        nprocs: 16,
        iters: 15,
    };
    let pas2p = Pas2p::default();
    let base = cluster_a();

    pas2p_obs::set_enabled(false);
    let disabled = pas2p.analyze(&app, &base, MappingPolicy::Block);
    assert!(disabled.metrics.is_none());
    // Off, an instrument records nothing and registers nothing: the
    // registry of this process is still empty.
    let idle = pas2p_obs::global().snapshot();
    assert!(idle.counters.is_empty(), "{:?}", idle.counters);
    assert!(idle.gauges.is_empty(), "{:?}", idle.gauges);
    assert!(idle.histograms.is_empty(), "{:?}", idle.histograms);
    assert!(idle.stages.is_empty(), "{:?}", idle.stages);

    pas2p_obs::set_enabled(true);
    pas2p_obs::global().reset();
    let enabled = pas2p.analyze(&app, &base, MappingPolicy::Block);
    pas2p_obs::set_enabled(false);

    // With collection on, the snapshot rides along and is populated.
    let snap = enabled.metrics.clone().expect("snapshot missing");
    assert!(snap.counters["mpisim.messages"] > 0);
    assert!(!snap.stages.is_empty());

    assert_eq!(
        normalized_json(disabled),
        normalized_json(enabled),
        "observability changed the simulation outcome"
    );
}
