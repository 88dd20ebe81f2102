//! Regenerates Table 3: "Extraction and Execution of Phases on Cluster C"
//! — the MD Moldy analysis (trace size, analysis time, total/relevant
//! phases, per-phase ET×weight, AET vs SET).

use pas2p::experiment::human_bytes;
use pas2p::prelude::*;
use pas2p::Pas2p;
use pas2p_apps::MoldyApp;
use pas2p_bench::{banner, paper_reference, shrink};

fn main() {
    let machine = cluster_c();
    banner(
        "Table 3: MD Moldy analysis + signature execution on cluster C",
        &machine,
        None,
    );

    let nprocs = 256 / shrink();
    let app = MoldyApp::tip4p(nprocs);
    let pas2p = Pas2p::default();

    let analysis = pas2p.analyze(&app, &machine, MappingPolicy::Block);
    println!("\nMD Moldy analysis");
    println!(
        "Number of processes: {}, Input data: tip4p (scaled)",
        nprocs
    );
    println!("Size of log trace: {}", human_bytes(analysis.trace_bytes));
    println!(
        "Time to analyze the log trace: {:.3} s",
        analysis.tfat_seconds
    );
    println!(
        "Total of phases: {}, Relevant phases: {}",
        analysis.total_phases(),
        analysis.relevant_phases()
    );

    let (signature, _) = pas2p.build_signature(&app, &analysis, &machine, MappingPolicy::Block);
    let report = pas2p
        .validate(&app, &signature, &machine, MappingPolicy::Block)
        .unwrap();

    println!(
        "\n{:<10} {:>14} {:>10} {:>22}",
        "Phase ID", "PhaseET (s)", "Weight", "(PhaseET)*(Weight) (s)"
    );
    for m in &report.prediction.measurements {
        println!(
            "{:<10} {:>14.6} {:>10} {:>22.2}",
            m.phase_id,
            m.phase_et,
            m.weight,
            m.contribution()
        );
    }
    println!("\nApplication Execution Time (s): {:.2}", report.aet);
    println!(
        "Signature Execution Time (s):   {:.2}",
        report.prediction.set
    );
    println!(
        "SET/AET: {:.2}% | PETE: {:.2}%",
        report.set_vs_aet_percent,
        report.pete_or_inf()
    );

    // Shape assertions mirroring the paper's profile.
    assert!(analysis.total_phases() > analysis.relevant_phases());
    assert!(report.set_vs_aet_percent < 25.0);
    assert!(report.pete_or_inf() < 15.0);

    paper_reference(&[
        "256 processes, tip4p | trace 5.2 GB | analysis 336.78 s",
        "13 total phases, 4 relevant",
        "phase 1: 0.003018 s x 100000 = 301.80 s",
        "phase 2: 0.006131 s x  89976 = 551.64 s",
        "phase 3: 0.000949 s x 199998 = 189.79 s",
        "phase 4: 0.009387 s x   9998 =  93.85 s",
        "AET 1169.31 s | SET 1.69 s",
    ]);
}
