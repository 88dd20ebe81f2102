//! Regenerates the Appendix D analog: the LU and GROMACS analyses —
//! phase inventory, weights, and the resulting prediction.

use pas2p::experiment::human_bytes;
use pas2p::prelude::*;
use pas2p::Pas2p;
use pas2p_apps::{GromacsApp, LuApp};
use pas2p_bench::{banner, paper_reference, shrink};

fn show(pas2p: &Pas2p, app: &dyn MpiApp, base: &pas2p_machine::MachineModel) {
    let analysis = pas2p.analyze(app, base, MappingPolicy::Block);
    println!(
        "\n== {} ({} procs, {}) ==",
        app.name(),
        app.nprocs(),
        app.workload()
    );
    println!(
        "trace {} | TFAT {:.3}s | {} phases / {} relevant",
        human_bytes(analysis.trace_bytes),
        analysis.tfat_seconds,
        analysis.total_phases(),
        analysis.relevant_phases()
    );
    println!(
        "{:<8} {:>8} {:>14} {:>12} {:>9}",
        "phase", "weight", "PhaseET(s)", "W*ET(s)", "share(%)"
    );
    for row in &analysis.table.rows {
        println!(
            "{:<8} {:>8} {:>14.6} {:>12.2} {:>9.2}",
            row.phase_id,
            row.weight,
            row.phase_et_base,
            row.weight as f64 * row.phase_et_base,
            100.0 * row.weight as f64 * row.phase_et_base / analysis.table.aet_base
        );
    }

    let (signature, _) = pas2p.build_signature(app, &analysis, base, MappingPolicy::Block);
    let report = pas2p
        .validate(app, &signature, base, MappingPolicy::Block)
        .unwrap();
    println!(
        "prediction on {}: PET {:.2}s vs AET {:.2}s -> PETE {:.2}%",
        base.name,
        report.prediction.pet,
        report.aet,
        report.pete_or_inf()
    );
    assert!(report.pete_or_inf() < 15.0);
}

fn main() {
    let base = cluster_c();
    banner("Appendix D analog: LU and GROMACS analyses", &base, None);

    let pas2p = Pas2p::default();
    let k = shrink();
    show(&pas2p, &LuApp::class_d(256 / k), &base);
    show(&pas2p, &GromacsApp::benchmark(128 / k), &base);

    paper_reference(&[
        "Appendix D tabulates, per application, the relevant phases with",
        "their weights and PhaseETs used to construct the signature, and",
        "the resulting predicted execution time. LU: 25 phases, only 2",
        "relevant (deep prologue); GROMACS: multiple phase families from",
        "the PME/non-PME step mix.",
    ]);
}
