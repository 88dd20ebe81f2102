//! Mapping policies (paper Fig 12: "we execute the signature in target
//! machine changing the mapping policies"): the same signature predicts
//! the application under different process→core placements, and the
//! prediction tracks what placement actually does to the runtime.

use pas2p::experiment::first_cores_mapping;
use pas2p::prelude::*;
use pas2p::Pas2p;
use pas2p_apps::{CgApp, Class, Smg2000App};
use pas2p_bench::{banner, paper_reference};

fn main() {
    let base = cluster_a();
    let target = cluster_b();
    banner(
        "Mapping policies: one signature, several placements (Fig 12)",
        &base,
        Some(&target),
    );

    let pas2p = Pas2p::default();
    let apps: Vec<Box<dyn MpiApp>> = vec![
        // SMG2000's halo pattern is placement-sensitive: neighbours on the
        // same node talk over shared memory under Block.
        Box::new(Smg2000App {
            nprocs: 16,
            n: 80,
            levels: 3,
            iters: 20,
        }),
        Box::new(CgApp {
            class: Class::B,
            nprocs: 16,
            iters: 40,
        }),
    ];

    for app in &apps {
        let analysis = pas2p.analyze(app.as_ref(), &base, MappingPolicy::Block);
        let (sig, _) = pas2p.build_signature(app.as_ref(), &analysis, &base, MappingPolicy::Block);

        println!(
            "\n{} ({} procs) on {}:",
            app.name(),
            app.nprocs(),
            target.name
        );
        println!(
            "{:<26} {:>10} {:>10} {:>9}",
            "placement", "PET(s)", "AET(s)", "PETE(%)"
        );
        let mut results = Vec::new();
        let placements: Vec<(&str, MappingPolicy)> = vec![
            ("block (fill nodes)", MappingPolicy::Block),
            ("cyclic (spread nodes)", MappingPolicy::Cyclic),
            (
                "packed on half the cores",
                first_cores_mapping(&target, app.nprocs(), app.nprocs() / 2),
            ),
        ];
        for (label, policy) in placements {
            let report = pas2p.validate(app.as_ref(), &sig, &target, policy).unwrap();
            println!(
                "{:<26} {:>10.2} {:>10.2} {:>9.2}",
                label,
                report.prediction.pet,
                report.aet,
                report.pete_or_inf()
            );
            results.push((label, report));
        }

        // The prediction must rank placements the way reality does,
        // wherever reality actually separates them (>5% AET difference;
        // block vs cyclic can be a tie on small node counts).
        for i in 0..results.len() {
            for j in (i + 1)..results.len() {
                let (la, a) = &results[i];
                let (lb, b) = &results[j];
                if (a.aet - b.aet).abs() / a.aet.min(b.aet) > 0.05 {
                    assert_eq!(
                        a.prediction.pet < b.prediction.pet,
                        a.aet < b.aet,
                        "{}: prediction misranks '{}' vs '{}'",
                        app.name(),
                        la,
                        lb
                    );
                }
            }
        }
        for (label, r) in &results {
            assert!(
                r.pete_or_inf() < 12.0,
                "{} under '{}': PETE {:.2}%",
                app.name(),
                label,
                r.pete_or_inf()
            );
        }
        // Oversubscription genuinely hurts, and the signature knows it.
        let packed = &results[2].1;
        let block = &results[0].1;
        assert!(packed.aet > block.aet * 1.5);
        assert!(packed.prediction.pet > block.prediction.pet * 1.5);
    }

    paper_reference(&[
        "Fig 12: \"we execute the signature in target machine changing the",
        "mapping policies to obtain the predicted execution time\"; §7: \"the",
        "signature is able to execute using different mappings, increasing",
        "or decreasing the number of CPUs\".",
    ]);
}
