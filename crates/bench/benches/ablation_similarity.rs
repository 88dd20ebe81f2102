//! Ablation: the similarity thresholds (DESIGN.md ablation 2).
//!
//! The paper fixes compute-time similarity at 85 % and the similar-event
//! fraction at 80 % ("configurable value"). Sweeping them shows the
//! trade-off: stricter thresholds fragment phases (bigger signature,
//! longer SET); looser ones merge genuinely different behaviour (higher
//! prediction error).

use pas2p::prelude::*;
use pas2p_apps::GromacsApp;
use pas2p_bench::{banner, paper_reference};
use pas2p_model::pas2p_order;
use pas2p_phases::{extract_phases, PhaseTable, SimilarityConfig};
use pas2p_signature::construct_signature;

fn main() {
    let base = cluster_a();
    banner(
        "Ablation: similarity thresholds (85% compute / 80% events)",
        &base,
        None,
    );

    // GROMACS mixes phase families (PME vs non-PME steps): sensitive to
    // similarity settings.
    let app = GromacsApp {
        nprocs: 16,
        steps: 40,
        pme_every: 4,
        dlb_every: 20,
    };
    let (trace, _) = run_traced(
        &app,
        &base,
        MappingPolicy::Block,
        InstrumentationModel::free(),
    );
    let logical = pas2p_order(&trace);
    let aet = run_plain(&app, &base, MappingPolicy::Block).makespan;

    println!(
        "\n{:>13} {:>13} {:>8} {:>9} {:>9} {:>8}",
        "compute_ratio", "event_frac", "phases", "relevant", "PETE(%)", "SET(s)"
    );
    let mut petes = Vec::new();
    for (compute_ratio, event_fraction) in [
        (0.50, 0.50),
        (0.70, 0.70),
        (0.85, 0.80), // the paper's setting
        (0.95, 0.95),
        (0.999, 0.999),
    ] {
        let cfg = SimilarityConfig {
            compute_ratio,
            event_fraction,
            ..SimilarityConfig::default()
        };
        let analysis = extract_phases(&logical, &cfg);
        let table = PhaseTable::from_analysis(&analysis, 0.01, 1, 24);
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
            "{:>13.3} {:>13.3} {:>8} {:>9} {:>9.2} {:>8.2}{}",
            compute_ratio,
            event_fraction,
            analysis.total_phases(),
            table.relevant_phases(),
            pete,
            prediction.set,
            if (compute_ratio, event_fraction) == (0.85, 0.80) {
                "   <- paper setting"
            } else {
                ""
            }
        );
        petes.push((compute_ratio, pete, analysis.total_phases()));
    }

    // Stricter thresholds must not *reduce* the phase count.
    let counts: Vec<usize> = petes.iter().map(|&(_, _, c)| c).collect();
    assert!(
        counts.windows(2).all(|w| w[0] <= w[1]),
        "phase count must be monotone in strictness: {:?}",
        counts
    );

    paper_reference(&[
        "§3.3 step 5: compute-time similarity >= 85%, phase similar when",
        ">= 80% of events similar (\"configurable value\"). The paper chose",
        "these to maximize merging without mixing distinct behaviour.",
    ]);
}
