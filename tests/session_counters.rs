//! The session counters `mpisim.messages`, `mpisim.bytes` and
//! `mpisim.collectives` are the sums of the completed runs' reports,
//! exactly. A harness-aborted run (a signature execution stops once its
//! phase is measured) adds nothing to them, because how far its ranks
//! got before they noticed depends on the schedule; it counts itself in
//! `mpisim.runs_aborted` instead.
//!
//! The obs registry is process-global, so the tests take turns.

use pas2p::prelude::*;
use pas2p::Pas2p;
use pas2p_apps::{by_name, CATALOG};
use std::sync::{Mutex, MutexGuard};

static REGISTRY: Mutex<()> = Mutex::new(());

/// The registry to this test alone, with metrics on.
fn take_registry() -> MutexGuard<'static, ()> {
    let guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    pas2p_obs::set_enabled(true);
    guard
}

/// A counter's value, 0 while nothing has recorded it.
fn counter(name: &str) -> u64 {
    let counters = pas2p_obs::global().snapshot().counters;
    counters.get(name).copied().unwrap_or(0)
}

fn traffic() -> (u64, u64, u64) {
    (
        counter("mpisim.messages"),
        counter("mpisim.bytes"),
        counter("mpisim.collectives"),
    )
}

#[test]
fn the_catalog_counts_its_traffic_exactly() {
    let _registry = take_registry();
    pas2p_obs::global().reset();
    let base = cluster_a();
    let (mut msgs, mut bytes, mut colls) = (0, 0, 0);
    for name in CATALOG {
        for nprocs in [4u32, 8] {
            let app = by_name(name, nprocs).expect("catalog app");
            let plain = run_plain(app.as_ref(), &base, MappingPolicy::Block);
            let (_trace, traced) = run_traced(
                app.as_ref(),
                &base,
                MappingPolicy::Block,
                InstrumentationModel::default(),
            );
            assert_eq!(traced.total_bytes, plain.total_bytes, "{name}/{nprocs}");
            for report in [plain, traced] {
                msgs += report.total_msgs;
                bytes += report.total_bytes;
                colls += report.total_colls;
            }
        }
    }
    assert!(bytes > 1 << 30, "the catalog moves gigabytes");
    assert_eq!(traffic(), (msgs, bytes, colls));
    assert_eq!(counter("mpisim.runs"), 2 * 2 * CATALOG.len() as u64);
    assert_eq!(counter("mpisim.runs_aborted"), 0);
}

#[test]
fn an_aborted_run_adds_no_traffic() {
    let _registry = take_registry();
    let app = by_name("cg", 4).expect("catalog app");
    let (base, policy) = (cluster_a(), MappingPolicy::Block);
    let pas2p = Pas2p::default();
    let analysis = pas2p.analyze(app.as_ref(), &base, policy.clone());
    let (signature, _) = pas2p.build_signature(app.as_ref(), &analysis, &base, policy.clone());
    assert_eq!(signature.entries.len(), 1, "one measurement run");

    pas2p_obs::global().reset();
    let (_trace, traced) = run_traced(
        app.as_ref(),
        &base,
        policy.clone(),
        InstrumentationModel::default(),
    );
    pas2p
        .predict(app.as_ref(), &signature, &cluster_b(), policy)
        .expect("prediction");
    assert_eq!(counter("mpisim.runs"), 2);
    assert_eq!(counter("mpisim.runs_aborted"), 1);
    assert_eq!(
        traffic(),
        (traced.total_msgs, traced.total_bytes, traced.total_colls)
    );
}
