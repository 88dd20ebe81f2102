//! Phase explorer: the developer-facing use of PAS2P (§1, §7) — let the
//! user "concentrate on the significant portions of the application".
//!
//! Traces an application, shows the logical-trace statistics, dumps every
//! extracted phase with its weight, duration and share of the runtime,
//! and prints the Fig 7-style phase table.
//!
//! Run with: `cargo run --release --example phase_explorer [app] [nprocs]`

use pas2p::prelude::*;
use pas2p_model::pas2p_order;
use pas2p_phases::{extract_phases, PhaseTable, SimilarityConfig};

fn main() {
    let mut args = std::env::args().skip(1);
    let app_name = args.next().unwrap_or_else(|| "gromacs".to_string());
    let nprocs: u32 = args.next().and_then(|s| s.parse().ok()).unwrap_or(16);

    let app = pas2p_apps::by_name(&app_name, nprocs)
        .unwrap_or_else(|| panic!("unknown application '{}'", app_name));
    let base = cluster_a();

    println!(
        "tracing {} ({}) on {}…",
        app.name(),
        app.workload(),
        base.name
    );
    let (trace, report) = run_traced(
        app.as_ref(),
        &base,
        MappingPolicy::Block,
        InstrumentationModel::default(),
    );
    println!(
        "trace: {} events, {}, AET(PAS2P) {:.2}s",
        trace.total_events(),
        pas2p::experiment::human_bytes(trace.size_bytes()),
        report.makespan
    );

    let logical = pas2p_order(&trace);
    println!("logical trace: {} ticks", logical.len());

    let analysis = extract_phases(&logical, &SimilarityConfig::default());
    println!(
        "\n{} unique phases (analysis took {:.3}s):",
        analysis.total_phases(),
        analysis.analysis_seconds
    );
    println!(
        "{:<6} {:>7} {:>8} {:>12} {:>12} {:>9}",
        "phase", "ticks", "weight", "PhaseET(s)", "W*ET(s)", "share(%)"
    );
    for p in &analysis.phases {
        println!(
            "{:<6} {:>7} {:>8} {:>12.6} {:>12.3} {:>9.2}{}",
            p.id,
            p.len_ticks(),
            p.weight,
            p.mean_duration(),
            p.contribution(),
            100.0 * p.contribution() / analysis.aet,
            if p.contribution() >= 0.01 * analysis.aet {
                "  <- relevant"
            } else {
                ""
            }
        );
    }
    println!(
        "\ncoverage of relevant phases: {:.1}% of AET",
        100.0 * analysis.relevant_coverage(0.01)
    );

    let table = PhaseTable::from_analysis(&analysis, 0.01, 1, 24);
    println!("\n{}", table);
}
