//! Head-to-head comparison against the related-work baselines (paper §2):
//! the PAS2P signature vs a Dimemas-like trace replay [14] vs partial
//! execution [17], predicting cluster-B runtimes from cluster-A analyses.
//!
//! The paper's qualitative claims, checked quantitatively here:
//! * the signature runs *real code* on the target, so it stays accurate
//!   when machine balance shifts (replay's single compute-scale factor
//!   drifts);
//! * the signature analyzes the *entire* execution, so periodic
//!   off-prefix behaviour (Moldy's neighbour-list rebuilds) is captured
//!   (partial execution misses it).

use pas2p::baselines::{predict_by_partial_execution, predict_by_replay};
use pas2p::prelude::*;
use pas2p::Pas2p;
use pas2p_apps::{CgApp, Class, MoldyApp};
use pas2p_bench::{banner, paper_reference};

struct Row {
    app: String,
    method: &'static str,
    pet: f64,
    err: f64,
    cost: f64,
}

fn main() {
    let base = cluster_a();
    let target = cluster_b();
    banner(
        "Baseline comparison: signature vs trace replay vs partial execution",
        &base,
        Some(&target),
    );

    let pas2p = Pas2p::default();
    let apps: Vec<Box<dyn MpiApp>> = vec![
        Box::new(CgApp {
            class: Class::B,
            nprocs: 16,
            iters: 60,
        }),
        Box::new(MoldyApp {
            nprocs: 16,
            steps: 200,
            rebuild_every: 10,
            atoms_per_proc: 1024,
        }),
    ];

    let mut rows: Vec<Row> = Vec::new();
    for app in &apps {
        let aet = run_plain(app.as_ref(), &target, MappingPolicy::Block).makespan;

        // PAS2P signature.
        let analysis = pas2p.analyze(app.as_ref(), &base, MappingPolicy::Block);
        let (sig, _) = pas2p.build_signature(app.as_ref(), &analysis, &base, MappingPolicy::Block);
        let pred = pas2p
            .predict(app.as_ref(), &sig, &target, MappingPolicy::Block)
            .unwrap();
        rows.push(Row {
            app: app.name(),
            method: "PAS2P signature",
            pet: pred.pet,
            err: 100.0 * (pred.pet - aet).abs() / aet,
            cost: pred.set,
        });

        // Dimemas-like replay of the base trace.
        let (trace, _) = run_traced(
            app.as_ref(),
            &base,
            MappingPolicy::Block,
            InstrumentationModel::free(),
        );
        let replay = predict_by_replay(&trace, &base, &target, MappingPolicy::Block);
        rows.push(Row {
            app: app.name(),
            method: "trace replay [14]",
            pet: replay.pet,
            err: 100.0 * (replay.pet - aet).abs() / aet,
            cost: 0.0, // no target-machine time, but needs the full trace
        });

        // Partial execution on the target.
        let partial =
            predict_by_partial_execution(app.as_ref(), &target, MappingPolicy::Block, 2, 5);
        rows.push(Row {
            app: app.name(),
            method: "partial exec [17]",
            pet: partial.pet,
            err: 100.0 * (partial.pet - aet).abs() / aet,
            cost: partial.observation_time,
        });

        println!(
            "\n{} ({} procs, {}): AET on {} = {:.2}s",
            app.name(),
            app.nprocs(),
            app.workload(),
            target.name,
            aet
        );
        println!(
            "{:<20} {:>10} {:>9} {:>18}",
            "method", "PET(s)", "err(%)", "target-time cost(s)"
        );
        for r in rows
            .iter()
            .rev()
            .take(3)
            .collect::<Vec<_>>()
            .into_iter()
            .rev()
        {
            println!(
                "{:<20} {:>10.2} {:>9.2} {:>18.2}",
                r.method, r.pet, r.err, r.cost
            );
        }
    }

    // Quantitative shape checks.
    let err_of = |app: &str, method: &str| {
        rows.iter()
            .find(|r| r.app == app && r.method.starts_with(method))
            .map(|r| r.err)
            .unwrap()
    };
    // Moldy: partial execution observing 5 steps misses the every-10-step
    // rebuild family; the signature captures it.
    let sig_moldy = err_of("Moldy", "PAS2P");
    let partial_moldy = err_of("Moldy", "partial");
    println!(
        "\nMoldy: signature err {:.2}% vs partial-execution err {:.2}%",
        sig_moldy, partial_moldy
    );
    assert!(
        sig_moldy < partial_moldy,
        "the signature must beat short partial execution on phase-rich apps"
    );
    // The signature stays within the paper's band everywhere.
    for app in ["CG", "Moldy"] {
        assert!(
            err_of(app, "PAS2P") < 10.0,
            "{} signature err out of band",
            app
        );
    }

    paper_reference(&[
        "§2 on [14]: \"we create a signature that represents the application;",
        "this signature can be executed on different systems quickly without",
        "needing a simulator\"",
        "§2 on [17]: \"Our signature intends to analyze the entire execution",
        "to provide better prediction quality.\"",
    ]);
}
