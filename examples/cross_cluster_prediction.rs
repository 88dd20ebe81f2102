//! Cross-cluster prediction: build one signature per application on a
//! base machine and predict each application's runtime on every other
//! cluster — including the ISA-mismatch path (cluster D is Itanium, so
//! the signature must be reconstructed there, paper Appendix E).
//!
//! Run with: `cargo run --release --example cross_cluster_prediction`

use pas2p::prelude::*;
use pas2p::Pas2p;
use pas2p_apps::{CgApp, Class, Sweep3dApp};
use pas2p_signature::rebuild_signature;

fn main() {
    let pas2p = Pas2p::default();
    let base = cluster_a();
    let targets = [cluster_b(), cluster_c(), cluster_d()];

    let apps: Vec<Box<dyn MpiApp>> = vec![
        Box::new(CgApp {
            class: Class::B,
            nprocs: 16,
            iters: 30,
        }),
        Box::new(Sweep3dApp {
            nprocs: 16,
            grid_n: 60,
            iters: 6,
            k_blocks: 2,
        }),
    ];

    println!(
        "{:<10} {:<12} {:>10} {:>10} {:>8}  note",
        "app", "target", "PET(s)", "AET(s)", "PETE(%)"
    );
    for app in &apps {
        let analysis = pas2p.analyze(app.as_ref(), &base, MappingPolicy::Block);
        let (signature, _) =
            pas2p.build_signature(app.as_ref(), &analysis, &base, MappingPolicy::Block);

        for target in &targets {
            // Try the signature as-is; on an ISA mismatch, rebuild it on
            // the target from the ported phase table (Appendix E).
            let (report, note) =
                match pas2p.validate(app.as_ref(), &signature, target, MappingPolicy::Block) {
                    Ok(r) => (r, ""),
                    Err(_) => {
                        let (rebuilt, _) = rebuild_signature(
                            app.as_ref(),
                            &signature,
                            target,
                            MappingPolicy::Block,
                        );
                        let r = pas2p
                            .validate(app.as_ref(), &rebuilt, target, MappingPolicy::Block)
                            .expect("rebuilt signature matches ISA");
                        (r, "rebuilt for IA-64")
                    }
                };
            println!(
                "{:<10} {:<12} {:>10.2} {:>10.2} {:>8.2}  {}",
                app.name(),
                target.name,
                report.prediction.pet,
                report.aet,
                report.pete_or_inf(),
                note
            );
        }
    }
}
