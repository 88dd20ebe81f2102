//! The workload effect (paper reference [2] and §7's limitation): a
//! signature predicts only the analyzed data set; the companion method
//! fits per-phase weight functions from a few analyses and extrapolates
//! to unseen workload sizes.

use pas2p::prelude::*;
use pas2p::workload::WorkloadModel;
use pas2p::Pas2p;
use pas2p_apps::MoldyApp;
use pas2p_bench::{banner, paper_reference};

fn moldy(steps: u64) -> MoldyApp {
    MoldyApp {
        nprocs: 16,
        steps,
        rebuild_every: 10,
        atoms_per_proc: 1024,
    }
}

fn main() {
    let base = cluster_a();
    let target = cluster_b();
    banner(
        "Workload effect [2]: extrapolating weights to unseen workload sizes",
        &base,
        Some(&target),
    );

    let pas2p = Pas2p::default();

    // Analyze at two workload sizes; fit weight(w).
    let fit_points = [60u64, 120];
    let mut tables = Vec::new();
    for &steps in &fit_points {
        let analysis = pas2p.analyze(&moldy(steps), &base, MappingPolicy::Block);
        tables.push((steps as f64, analysis));
    }
    let obs: Vec<(f64, &pas2p_phases::PhaseTable)> =
        tables.iter().map(|(w, a)| (*w, &a.table)).collect();
    let model = WorkloadModel::fit(&obs).expect("same phase structure");
    println!("\nfitted on {:?} steps:", fit_points);
    for f in &model.fits {
        println!(
            "  phase {}: weight(w) = {:.3}·w + {:.2}",
            f.phase_id, f.a, f.b
        );
    }

    // One signature (at the larger fitted workload) measured on the target.
    let ref_app = moldy(fit_points[1]);
    let (signature, _) = pas2p.build_signature(&ref_app, &tables[1].1, &base, MappingPolicy::Block);
    let measured = pas2p
        .predict(&ref_app, &signature, &target, MappingPolicy::Block)
        .unwrap();

    // Extrapolate to unseen workloads and compare with reality; also show
    // the naive alternative (reusing the fitted-workload prediction).
    println!(
        "\n{:>7} {:>12} {:>12} {:>9} {:>17}",
        "steps", "model PET(s)", "real AET(s)", "err(%)", "naive-reuse err(%)"
    );
    for steps in [240u64, 480] {
        let app = moldy(steps);
        let aet = run_plain(&app, &target, MappingPolicy::Block).makespan;
        let pet = model.predict_at(&measured, steps as f64);
        let err = 100.0 * (pet - aet).abs() / aet;
        let naive_err = 100.0 * (measured.pet - aet).abs() / aet;
        println!(
            "{:>7} {:>12.2} {:>12.2} {:>9.2} {:>17.2}",
            steps, pet, aet, err, naive_err
        );
        assert!(
            err < 10.0,
            "workload extrapolation to {} steps off by {:.1}%",
            steps,
            err
        );
        assert!(err < naive_err, "the model must beat naive signature reuse");
    }

    paper_reference(&[
        "§7: \"The prediction that the signature gives would only be useful",
        "for the data set employed in the construction of the application",
        "signature\"; reference [2] lifts this for iteration-count workload",
        "changes by modeling the weights as functions of the workload.",
    ]);
}
