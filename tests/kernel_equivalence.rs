//! The differential oracle for the SoA similarity kernel.
//!
//! The scalar cell-by-cell walk (`SimilarityKernel::Scalar`) is retained
//! in `crates/phases` purely as the reference implementation; this suite
//! pins the SoA kernel — columnar layout, band prefilters, LSH
//! bucketing, and its parallel fan-out — to it: over all eleven catalog
//! applications, clean *and* fault-recovered traces, and extraction
//! parallelism {None, 1, 4, 8}, the `PhaseAnalysis` and the rendered
//! `PhaseTable` must be byte-identical to what the sequential scalar
//! oracle produces. The skip counters the SoA kernel maintains must be
//! visible in the metrics snapshot.

use pas2p::prelude::*;
use pas2p::Pas2p;
use pas2p_apps::CATALOG;
use pas2p_phases::SimilarityKernel;

const PARALLELISM: &[Option<usize>] = &[None, Some(1), Some(4), Some(8)];
const NPROCS: u32 = 8;
const SEED: u64 = 42;

fn strip_timing(mut analysis: PhaseAnalysis) -> PhaseAnalysis {
    analysis.analysis_seconds = 0.0;
    analysis
}

fn cfg(kernel: SimilarityKernel, parallelism: Option<usize>) -> SimilarityConfig {
    SimilarityConfig {
        kernel,
        parallelism,
        ..SimilarityConfig::default()
    }
}

fn table_of(analysis: &PhaseAnalysis) -> PhaseTable {
    let sig = Pas2p::default().signature;
    PhaseTable::from_analysis(
        analysis,
        sig.relevance_threshold,
        sig.warmup_occurrences,
        sig.measure_occurrences,
    )
}

/// The differential check for one logical trace: the sequential scalar
/// walk is the oracle; every kernel × parallelism combination must
/// reproduce its `PhaseAnalysis` and `PhaseTable` byte for byte.
fn assert_kernels_equivalent(label: &str, lt: &LogicalTrace) -> PhaseAnalysis {
    let oracle = strip_timing(extract_phases(lt, &cfg(SimilarityKernel::Scalar, Some(1))));
    let oracle_json = serde_json::to_string(&oracle).expect("serialize oracle analysis");
    let oracle_table = table_of(&oracle).to_json();
    for &parallelism in PARALLELISM {
        for kernel in [SimilarityKernel::Scalar, SimilarityKernel::Soa] {
            let run = strip_timing(extract_phases(lt, &cfg(kernel, parallelism)));
            assert_eq!(
                oracle, run,
                "{label}: {kernel:?} kernel at parallelism {parallelism:?} \
                 diverged from the sequential scalar oracle"
            );
            assert_eq!(
                oracle_json.as_bytes(),
                serde_json::to_string(&run)
                    .expect("serialize analysis")
                    .as_bytes(),
                "{label}: {kernel:?}/{parallelism:?} analysis JSON must be byte-identical"
            );
            assert_eq!(
                oracle_table.as_bytes(),
                table_of(&run).to_json().as_bytes(),
                "{label}: {kernel:?}/{parallelism:?} phase table must be byte-identical"
            );
        }
    }
    oracle
}

/// Clean traces: every catalog application at 8 ranks.
#[test]
fn soa_kernel_is_byte_identical_to_oracle_on_all_apps() {
    let base = cluster_a();
    let pas2p = Pas2p::default();
    for name in CATALOG {
        let app = pas2p_apps::by_name(name, NPROCS).expect("catalog app");
        let (trace, _) = run_traced(
            app.as_ref(),
            &base,
            MappingPolicy::Block,
            pas2p.instrumentation,
        );
        let lt = pas2p_order(&trace);
        let oracle = assert_kernels_equivalent(name, &lt);
        assert!(
            oracle.total_phases() > 0,
            "{name}: the equivalence run must exercise a non-trivial table"
        );
    }
}

/// Fault-recovered traces: the seeded fault matrix over every catalog
/// application; each salvaged trace that still orders goes through the
/// same differential check.
#[test]
fn soa_kernel_is_byte_identical_to_oracle_on_fault_recovered_traces() {
    let base = cluster_a();
    let pas2p = Pas2p::default();
    let mut salvaged = 0usize;
    for name in CATALOG {
        let app = pas2p_apps::by_name(name, NPROCS).expect("catalog app");
        let (clean, _) = run_traced(
            app.as_ref(),
            &base,
            MappingPolicy::Block,
            pas2p.instrumentation,
        );
        for (label, plan) in fault_matrix(SEED) {
            let (bytes, _log) = plan.inject(&clean);
            let (trace, _ingest) = decode_recovering(&bytes);
            let Some(trace) = trace else {
                continue; // nothing salvaged: nothing to extract from
            };
            let Ok(lt) = try_pas2p_order(&trace) else {
                continue; // salvage too damaged to order
            };
            salvaged += 1;
            assert_kernels_equivalent(&format!("{name}/{label}"), &lt);
        }
    }
    assert!(
        salvaged >= CATALOG.len(),
        "the fault matrix must salvage at least one orderable trace per \
         app on average, got {salvaged}"
    );
}

/// The SoA kernel's skip counters must land in the metrics snapshot —
/// `extract.band.rejects` and `extract.lsh.skipped` are the observable
/// evidence the prefilters are wired in, `extract.soa.compares` the
/// count of full comparisons that survived them.
#[test]
fn skip_counters_are_visible_in_metrics() {
    let base = cluster_a();
    let pas2p = Pas2p::default();
    let app = pas2p_apps::by_name("cg", NPROCS).expect("catalog app");
    let (trace, _) = run_traced(
        app.as_ref(),
        &base,
        MappingPolicy::Block,
        pas2p.instrumentation,
    );
    let lt = pas2p_order(&trace);
    pas2p_obs::set_enabled(true);
    let analysis = extract_phases(&lt, &cfg(SimilarityKernel::Soa, Some(1)));
    let snapshot = pas2p_obs::global().snapshot();
    pas2p_obs::set_enabled(false);
    assert!(analysis.total_phases() > 0);
    for key in [
        "extract.band.rejects",
        "extract.lsh.skipped",
        "extract.soa.compares",
    ] {
        assert!(
            snapshot.counters.contains_key(key),
            "counter {key} missing from the metrics snapshot: {:?}",
            snapshot.counters.keys().collect::<Vec<_>>()
        );
    }
    assert!(
        snapshot.counters["extract.soa.compares"] > 0,
        "a non-trivial extraction must execute full comparisons"
    );
}
