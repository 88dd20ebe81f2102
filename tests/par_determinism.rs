//! Parallelism must be an implementation detail: the analysis pipeline
//! and the batch driver have to produce identical results for any worker
//! count. This suite pins that for all eleven catalog applications
//! (extraction parallelism None/1/4/8) and for the batch driver (worker
//! count and submission order).

use pas2p::prelude::*;
use pas2p::{run_batch_with, BatchJob, BatchOptions, Pas2p};
use pas2p_apps::CATALOG;
use pas2p_phases::PhaseAnalysis;

/// Event tracing is process-global: while a timeline test has it
/// enabled, *any* concurrently running test would record its stage
/// spans into the shared stream and corrupt the byte-identity
/// comparison. Every test in this binary therefore serializes on this
/// lock.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// Zero the host-clock field so the comparison covers only
/// simulation-derived structure.
fn strip_timing(mut analysis: PhaseAnalysis) -> PhaseAnalysis {
    analysis.analysis_seconds = 0.0;
    analysis
}

fn tool_with_parallelism(parallelism: Option<usize>) -> Pas2p {
    let mut pas2p = Pas2p::default();
    pas2p.similarity.parallelism = parallelism;
    pas2p
}

#[test]
fn extraction_is_parallelism_invariant_for_every_app() {
    let _serial = serial();
    let base = cluster_a();
    for name in CATALOG {
        let app = pas2p_apps::by_name(name, 8).expect("catalog app");
        let sequential = tool_with_parallelism(Some(1));
        let baseline = sequential.analyze(app.as_ref(), &base, MappingPolicy::Block);
        for parallelism in [None, Some(4), Some(8)] {
            let tool = tool_with_parallelism(parallelism);
            let par = tool.analyze(app.as_ref(), &base, MappingPolicy::Block);
            assert_eq!(
                strip_timing(baseline.analysis.clone()),
                strip_timing(par.analysis.clone()),
                "{name}: parallelism {parallelism:?} changed the phase analysis"
            );
            assert_eq!(
                baseline.table, par.table,
                "{name}: parallelism {parallelism:?} changed the phase table"
            );
            assert_eq!(baseline.trace_events, par.trace_events, "{name}");
            assert_eq!(
                baseline.aet_instrumented, par.aet_instrumented,
                "{name}: parallelism {parallelism:?} changed the virtual clock"
            );
        }
    }
}

/// Batch options at `workers`, otherwise the defaults.
fn at(workers: Option<usize>) -> BatchOptions {
    BatchOptions {
        workers,
        ..BatchOptions::default()
    }
}

/// The batch determinism surface: everything but host timing and the
/// metrics snapshot.
fn batch_keys(report: &pas2p::BatchReport) -> Vec<(usize, String, usize, PhaseAnalysis)> {
    report
        .results
        .iter()
        .map(|r| {
            let a = r.analysis.as_ref().expect("catalog jobs complete");
            (
                r.index,
                a.app_name.clone(),
                a.trace_events,
                strip_timing(a.analysis.clone()),
            )
        })
        .collect()
}

#[test]
fn batch_is_worker_count_invariant_over_the_catalog() {
    let _serial = serial();
    let pas2p = Pas2p::default();
    let jobs = || -> Vec<BatchJob> {
        CATALOG
            .iter()
            .map(|n| BatchJob::new(pas2p_apps::by_name(n, 8).expect("catalog app"), cluster_a()))
            .collect()
    };
    let baseline = run_batch_with(&pas2p, jobs(), at(Some(1)));
    assert_eq!(baseline.results.len(), CATALOG.len());
    for workers in [4, 11] {
        let par = run_batch_with(&pas2p, jobs(), at(Some(workers)));
        assert_eq!(
            batch_keys(&baseline),
            batch_keys(&par),
            "worker count {workers} changed the batch report"
        );
    }
}

/// Run `f` with event tracing on and return the recorded host events.
/// Callers hold the [`serial`] lock, so the drained stream contains
/// only this closure's events.
fn traced<T>(f: impl FnOnce() -> T) -> (T, Vec<pas2p_obs::events::Event>) {
    pas2p_obs::events::clear();
    pas2p_obs::set_tracing(true);
    let out = f();
    pas2p_obs::set_tracing(false);
    let events = pas2p_obs::events::take();
    (out, events)
}

/// The normalized timeline export must be byte-identical across
/// extraction parallelism: host wall-clock detail is stripped by
/// `normalized()`, and the virtual-time application tracks (including
/// the remapped message-flow ids and phase overlays) are deterministic
/// by construction.
#[test]
fn timeline_export_is_parallelism_invariant() {
    let _serial = serial();
    let base = cluster_a();
    let export = |parallelism: Option<usize>| -> String {
        let tool = tool_with_parallelism(parallelism);
        let app = pas2p_apps::by_name("cg", 8).expect("catalog app");
        let ((analysis, trace, _), events) =
            traced(|| tool.analyze_full(app.as_ref(), &base, MappingPolicy::Block));
        let doc = pas2p::compose_timeline(&events, Some(&trace), Some(&analysis.analysis), "cg");
        doc.normalized().to_json()
    };
    let baseline = export(Some(1));
    pas2p::validate_chrome_json(&baseline).expect("normalized export is valid Trace Event JSON");
    assert!(
        baseline.contains("\"rank 0\"") && baseline.contains("\"phases\""),
        "app tracks and phase overlay present"
    );
    assert!(
        baseline.contains("extract_phases"),
        "pipeline stage spans present"
    );
    for parallelism in [None, Some(4), Some(8)] {
        assert_eq!(
            baseline,
            export(parallelism),
            "extraction parallelism {parallelism:?} changed the normalized timeline"
        );
    }
}

/// Same contract for the batch driver: the self-profile timeline of a
/// batch run, normalized, must not depend on the worker count.
#[test]
fn batch_timeline_is_worker_count_invariant() {
    let _serial = serial();
    let pas2p = Pas2p::default();
    let export = |workers: usize| -> String {
        let jobs: Vec<BatchJob> = ["cg", "ft", "moldy"]
            .iter()
            .map(|n| BatchJob::new(pas2p_apps::by_name(n, 8).expect("catalog app"), cluster_a()))
            .collect();
        let (_, events) = traced(|| run_batch_with(&pas2p, jobs, at(Some(workers))));
        let doc = pas2p::compose_timeline(&events, None, None, "batch");
        doc.normalized().to_json()
    };
    let baseline = export(1);
    pas2p::validate_chrome_json(&baseline).expect("valid Trace Event JSON");
    assert!(baseline.contains("\"job 0: CG\""), "job spans present");
    for workers in [2, 3] {
        assert_eq!(
            baseline,
            export(workers),
            "worker count {workers} changed the normalized batch timeline"
        );
    }
}

#[test]
fn batch_is_submission_order_invariant() {
    let _serial = serial();
    let pas2p = Pas2p::default();
    let jobs = |names: &[&str]| -> Vec<BatchJob> {
        names
            .iter()
            .map(|n| BatchJob::new(pas2p_apps::by_name(n, 8).expect("catalog app"), cluster_a()))
            .collect()
    };
    let forward = run_batch_with(&pas2p, jobs(&["cg", "ft", "moldy"]), at(Some(3)));
    let reverse = run_batch_with(&pas2p, jobs(&["moldy", "ft", "cg"]), at(Some(3)));
    let fwd = batch_keys(&forward);
    let rev = batch_keys(&reverse);
    for (f, r) in fwd.iter().zip(rev.iter().rev()) {
        // Same job, mirrored submission slot: identical analysis.
        assert_eq!(f.1, r.1);
        assert_eq!(f.2, r.2);
        assert_eq!(f.3, r.3);
    }
}
