//! Ablation: the 1 % relevance cut-off (DESIGN.md ablation 3).
//!
//! Dropping non-relevant phases is where most of the paper's residual
//! error comes from (§5: "If we take all the application phases … this
//! prediction error is reduced"). Sweeping the cut-off trades SET
//! against PETE.

use pas2p::prelude::*;
use pas2p_apps::MoldyApp;
use pas2p_bench::{banner, paper_reference};
use pas2p_model::pas2p_order;
use pas2p_phases::{extract_phases, PhaseTable, SimilarityConfig};
use pas2p_signature::construct_signature;

fn main() {
    let base = cluster_a();
    banner("Ablation: relevance cut-off (the 1% rule)", &base, None);

    let app = MoldyApp {
        nprocs: 16,
        steps: 60,
        rebuild_every: 10,
        atoms_per_proc: 512,
    };
    let (trace, _) = run_traced(
        &app,
        &base,
        MappingPolicy::Block,
        InstrumentationModel::free(),
    );
    let logical = pas2p_order(&trace);
    let analysis = extract_phases(&logical, &SimilarityConfig::default());
    let aet = run_plain(&app, &base, MappingPolicy::Block).makespan;

    println!(
        "\n{:>10} {:>9} {:>11} {:>9} {:>8} {:>11}",
        "cut-off", "relevant", "coverage(%)", "PETE(%)", "SET(s)", "SET/AET(%)"
    );
    let mut results = Vec::new();
    for threshold in [0.20, 0.05, 0.01, 0.001, 0.0] {
        let table = PhaseTable::from_analysis(&analysis, threshold, 1, 24);
        if table.rows.is_empty() {
            println!("{:>10.3} {:>9} (no phases pass)", threshold, 0);
            continue;
        }
        let (signature, _) = construct_signature(
            &app,
            &table,
            &base,
            MappingPolicy::Block,
            SignatureConfig::default(),
        );
        let prediction = execute_signature(&app, &signature, &base, MappingPolicy::Block).unwrap();
        let pete = 100.0 * (prediction.pet - aet).abs() / aet;
        println!(
            "{:>10.3} {:>9} {:>11.1} {:>9.2} {:>8.2} {:>11.2}{}",
            threshold,
            table.relevant_phases(),
            100.0 * analysis.relevant_coverage(threshold),
            pete,
            prediction.set,
            100.0 * prediction.set / aet,
            if threshold == 0.01 {
                "   <- paper setting"
            } else {
                ""
            }
        );
        results.push((threshold, table.relevant_phases(), pete, prediction.set));
    }

    // Lower cut-offs keep more phases and must not shrink the signature.
    let counts: Vec<usize> = results.iter().map(|&(_, c, _, _)| c).collect();
    assert!(
        counts.windows(2).all(|w| w[0] <= w[1]),
        "relevant-phase count must grow as the cut-off drops: {:?}",
        counts
    );

    paper_reference(&[
        "§3.3: \"A phase representativeness is given if the phase represents",
        "1 percent or more of the entire application execution time.\"",
        "§5: taking all phases (cut-off 0) reduces the prediction error at",
        "the cost of a longer signature.",
    ]);
}
