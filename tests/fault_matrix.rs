//! The resilience acceptance gate: the seeded fault matrix (truncation,
//! bit corruption, a dropped rank, duplicated events) crossed with three
//! catalog applications must run to completion with zero panics, classify
//! every job as `Degraded`/`Failed`/`TimedOut` with an `IngestReport`
//! attached, and produce a byte-identical batch digest for 1, 4 and 8
//! workers. Every trace the recovering decoder salvages must also
//! survive the full check engine — happens-before rules included — with
//! a report that a second run reproduces.

use pas2p::prelude::*;
use pas2p::{run_batch_with, BatchJob, BatchOptions, BatchStatus, Pas2p};

const APPS: &[&str] = &["cg", "moldy", "masterworker"];
const SEED: u64 = 42;

fn matrix_jobs() -> Vec<BatchJob> {
    let base = cluster_a();
    let mut jobs = Vec::new();
    for name in APPS {
        for (_label, plan) in fault_matrix(SEED) {
            let app = pas2p_apps::by_name(name, 8).expect("catalog app");
            jobs.push(BatchJob::new(app, base.clone()).with_fault(plan));
        }
    }
    jobs
}

#[test]
fn fault_matrix_completes_classified_and_deterministic() {
    let pas2p = Pas2p::default();
    let baseline = run_batch_with(
        &pas2p,
        matrix_jobs(),
        BatchOptions {
            workers: Some(1),
            ..BatchOptions::default()
        },
    );
    assert_eq!(baseline.results.len(), APPS.len() * 4);

    for r in &baseline.results {
        assert!(
            matches!(
                r.status,
                BatchStatus::Degraded | BatchStatus::Failed | BatchStatus::TimedOut
            ),
            "job {} ({}) under an injected fault must not report full \
             confidence, got {:?}",
            r.index,
            r.app_name,
            r.status
        );
        let ingest = r
            .ingest
            .as_ref()
            .unwrap_or_else(|| panic!("job {} ({}) carries no ingest report", r.index, r.app_name));
        assert!(
            ingest.is_degraded(),
            "job {} ({}): the injected fault left no ingest trail",
            r.index,
            r.app_name
        );
    }

    let digest = baseline.digest();
    assert!(!digest.is_empty());
    for workers in [4, 8] {
        let par = run_batch_with(
            &pas2p,
            matrix_jobs(),
            BatchOptions {
                workers: Some(workers),
                ..BatchOptions::default()
            },
        );
        assert_eq!(
            digest,
            par.digest(),
            "the batch digest must be byte-identical at {workers} workers"
        );
    }
}

/// Every faulted trace the recovering decoder can salvage goes through
/// the full check engine: no panics, and the report — including the
/// happens-before rules over a damaged trace — is the same on a second
/// run over the same artifacts.
#[test]
fn recovered_faulted_traces_survive_the_full_check_engine() {
    let base = cluster_a();
    let pas2p = Pas2p::default();
    let mut salvaged = 0usize;
    for name in APPS {
        let app = pas2p_apps::by_name(name, 8).expect("catalog app");
        let (clean, _) = run_traced(
            app.as_ref(),
            &base,
            MappingPolicy::Block,
            pas2p.instrumentation,
        );
        for (label, plan) in fault_matrix(SEED) {
            let (bytes, _log) = plan.inject(&clean);
            let (trace, ingest) = decode_recovering(&bytes);
            let Some(trace) = trace else {
                continue; // nothing salvaged: nothing for the engine to chew
            };
            salvaged += 1;
            let artifacts = Artifacts {
                trace: Some(&trace),
                ingest: Some(&ingest),
                ..Artifacts::empty()
            };
            let first = CheckEngine::with_default_rules().run(&artifacts);
            let second = CheckEngine::with_default_rules().run(&artifacts);
            assert_eq!(
                first.render(),
                second.render(),
                "{name}/{label}: two runs must render the same check report"
            );
            assert_eq!(first.diagnostics, second.diagnostics);
        }
    }
    assert!(
        salvaged >= APPS.len(),
        "the matrix must salvage at least one trace per app, got {salvaged}"
    );
}
