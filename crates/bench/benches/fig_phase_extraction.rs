//! Regenerates Fig 6 (phase extraction on a master/worker application)
//! and Fig 7 (the phase table), plus the §6 single-phase observation.

use pas2p::prelude::*;
use pas2p::Pas2p;
use pas2p_apps::MasterWorkerApp;
use pas2p_bench::paper_reference;
use pas2p_model::pas2p_order;
use pas2p_phases::{extract_phases, PhaseTable, SimilarityConfig};

fn analyze(app: &dyn MpiApp) -> pas2p_phases::PhaseAnalysis {
    let base = cluster_a();
    let (trace, _) = run_traced(
        app,
        &base,
        MappingPolicy::Block,
        InstrumentationModel::free(),
    );
    let logical = pas2p_order(&trace);
    extract_phases(&logical, &SimilarityConfig::default())
}

fn main() {
    println!("================================================================");
    println!("Fig 6-7: phase extraction on master/worker + the phase table");
    println!("================================================================");

    // The paper's one-shot master/worker (§6): one phase, weight 1.
    let one_shot = MasterWorkerApp::one_shot(4);
    let analysis = analyze(&one_shot);
    println!("\none-shot master/worker (4 procs):");
    println!(
        "  phases: {} | dominant weight: {}",
        analysis.total_phases(),
        analysis.phases.iter().map(|p| p.weight).max().unwrap_or(0)
    );
    for p in &analysis.phases {
        println!(
            "  phase {}: {} ticks, weight {}, {:.1}% of AET",
            p.id,
            p.len_ticks(),
            p.weight,
            100.0 * p.contribution() / analysis.aet
        );
    }
    assert!(
        analysis.total_phases() <= 2,
        "one-shot master/worker must not fragment"
    );
    assert_eq!(
        analysis.phases.iter().map(|p| p.weight).max().unwrap(),
        1,
        "single occurrence => weight 1 (paper §6)"
    );

    // A repeated master/worker: the same code becomes a weighted phase.
    let repeated = MasterWorkerApp {
        nprocs: 4,
        rounds: 12,
        task_flops: 5e8,
    };
    let analysis = analyze(&repeated);
    println!("\nrepeated master/worker (12 rounds):");
    println!("  phases: {}", analysis.total_phases());
    let dominant = analysis.phases.iter().max_by_key(|p| p.weight).unwrap();
    println!(
        "  dominant phase weight {} (~rounds), covers {:.1}% of AET",
        dominant.weight,
        100.0 * dominant.contribution() / analysis.aet
    );
    assert!(dominant.weight >= 10);

    // Fig 7: the phase table, startpoints/endpoints as event counts.
    let table = PhaseTable::from_analysis(&analysis, 0.01, 1, 24);
    println!("\nFig 7 analog:\n{}", table);

    // And the end of the §6 story: the signature of a weight-1 app costs
    // as much as the app itself.
    let pas2p = Pas2p::default();
    let base = cluster_a();
    let a1 = pas2p.analyze(&one_shot, &base, MappingPolicy::Block);
    let (sig, _) = pas2p.build_signature(&one_shot, &a1, &base, MappingPolicy::Block);
    let report = pas2p
        .validate(&one_shot, &sig, &base, MappingPolicy::Block)
        .unwrap();
    println!(
        "one-shot: SET {:.2}s vs AET {:.2}s ({:.0}% — no shortcut without repetitiveness)",
        report.prediction.set, report.aet, report.set_vs_aet_percent
    );

    paper_reference(&[
        "§6: \"PAS2P detects one phase with a weight of 1 and executing this",
        "phase will be the same as to execute the whole application\"",
        "Fig 7: rows of per-process send counts (startpoint | endpoint | id | weight)",
    ]);
}
