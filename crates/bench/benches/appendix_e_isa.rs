//! Regenerates the Appendix E analog: predicting for cluster D, whose
//! Itanium ISA differs from the x86-64 base machines. The checkpointed
//! signature cannot be ported; PAS2P reconstructs it on the target from
//! the phase table (phases + weights), then predicts as usual.

use pas2p::prelude::*;
use pas2p::Pas2p;
use pas2p_apps::{CgApp, Sweep3dApp};
use pas2p_bench::{banner, paper_reference, shrink};
use pas2p_signature::rebuild_signature;

fn main() {
    let base = cluster_c();
    let itanium = cluster_d();
    banner(
        "Appendix E analog: different-ISA target (cluster D, IA-64)",
        &base,
        Some(&itanium),
    );

    let pas2p = Pas2p::default();
    let k = shrink();
    let apps: Vec<Box<dyn MpiApp>> = vec![
        Box::new(CgApp::class_d(64 / (k.min(4)))),
        Box::new(Sweep3dApp::sweep200(64 / (k.min(4)))),
    ];

    println!(
        "\n{:<10} {:>10} {:>10} {:>9}   note",
        "app", "PET(s)", "AET(s)", "PETE(%)"
    );
    for app in &apps {
        let analysis = pas2p.analyze(app.as_ref(), &base, MappingPolicy::Block);
        let (signature, _) =
            pas2p.build_signature(app.as_ref(), &analysis, &base, MappingPolicy::Block);

        // Direct execution must be refused.
        let err = pas2p
            .predict(app.as_ref(), &signature, &itanium, MappingPolicy::Block)
            .unwrap_err();
        println!(
            "{:<10} {:>10} {:>10} {:>9}   refused: {}",
            app.name(),
            "-",
            "-",
            "-",
            err
        );

        // Reconstruct on the target from the ported phase table.
        let (rebuilt, stats) =
            rebuild_signature(app.as_ref(), &signature, &itanium, MappingPolicy::Block);
        let report = pas2p
            .validate(app.as_ref(), &rebuilt, &itanium, MappingPolicy::Block)
            .unwrap();
        println!(
            "{:<10} {:>10.2} {:>10.2} {:>9.2}   rebuilt on {} (SCT {:.2}s)",
            app.name(),
            report.prediction.pet,
            report.aet,
            report.pete_or_inf(),
            itanium.name,
            stats.sct
        );
        assert!(report.pete_or_inf() < 15.0);
    }

    paper_reference(&[
        "§7: \"we cannot port the signature to the target machine since the",
        "target machine has a different ISA than the base machine. In this",
        "case, we can just construct the signature again, using the",
        "information from the phases and weight extracted in the base machine.\"",
    ]);
}
