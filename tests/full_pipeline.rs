//! Cross-crate integration tests: real applications through the full
//! PAS2P pipeline across machines.

use pas2p::prelude::*;
use pas2p::Pas2p;
use pas2p_apps::{by_name, CgApp, Class, MoldyApp, PopApp};

#[test]
fn every_catalog_app_completes_the_pipeline() {
    // Every application must run, analyze, construct and predict on a
    // small configuration without errors.
    let pas2p = Pas2p::default();
    let base = cluster_a();
    for name in [
        "cg", "bt", "sp", "lu", "ft", "sweep3d", "smg2000", "pop", "moldy", "gromacs",
    ] {
        let app = by_name(name, 8).unwrap();
        let (analysis, report) = pas2p
            .analyze_and_validate(app.as_ref(), &base, &base, MappingPolicy::Block)
            .unwrap_or_else(|e| panic!("{}: {}", name, e));
        assert!(analysis.total_phases() >= 1, "{}: no phases found", name);
        assert!(
            report.pete_or_inf() < 25.0,
            "{}: PETE {:.1}% out of band",
            name,
            report.pete_or_inf()
        );
    }
}

#[test]
fn prediction_differentiates_machines() {
    // The predicted times must track the target machine: CG moved to a
    // faster-network cluster should be predicted (and measured) faster.
    let pas2p = Pas2p::default();
    let base = cluster_a();
    let app = CgApp {
        class: Class::B,
        nprocs: 16,
        iters: 30,
    };
    let analysis = pas2p.analyze(&app, &base, MappingPolicy::Block);
    let (sig, _) = pas2p.build_signature(&app, &analysis, &base, MappingPolicy::Block);

    let ra = pas2p
        .validate(&app, &sig, &cluster_a(), MappingPolicy::Block)
        .unwrap();
    let rc = pas2p
        .validate(&app, &sig, &cluster_c(), MappingPolicy::Block)
        .unwrap();
    // The two machines genuinely differ for this app…
    assert!(
        (rc.aet - ra.aet).abs() / ra.aet > 0.02,
        "machines indistinguishable: {} vs {}",
        rc.aet,
        ra.aet
    );
    // …and the predictions must rank them the same way reality does.
    assert_eq!(
        rc.prediction.pet < ra.prediction.pet,
        rc.aet < ra.aet,
        "prediction must preserve the machines' ranking: PET {} vs {} | AET {} vs {}",
        rc.prediction.pet,
        ra.prediction.pet,
        rc.aet,
        ra.aet
    );
}

#[test]
fn signature_construction_is_cheaper_than_full_run_for_repetitive_apps() {
    let pas2p = Pas2p::default();
    let base = cluster_a();
    let app = MoldyApp {
        nprocs: 8,
        steps: 400,
        rebuild_every: 10,
        atoms_per_proc: 512,
    };
    let aet = run_plain(&app, &base, MappingPolicy::Block).makespan;
    let analysis = pas2p.analyze(&app, &base, MappingPolicy::Block);
    let (_, stats) = pas2p.build_signature(&app, &analysis, &base, MappingPolicy::Block);
    // Construction terminates after the last phase's measurement window;
    // for a long repetitive run that is well before the end.
    assert!(
        stats.run_makespan < 0.9 * aet,
        "construction {} !< AET {}",
        stats.run_makespan,
        aet
    );
}

#[test]
fn oversubscribed_prediction_tracks_oversubscribed_reality() {
    // The Table 7 scenario: predict for a target with half the cores.
    let pas2p = Pas2p::default();
    let base = cluster_c();
    let target = cluster_a();
    let app = PopApp {
        nprocs: 16,
        iters: 25,
        inner: 3,
    };
    let analysis = pas2p.analyze(&app, &base, MappingPolicy::Block);
    let (sig, _) = pas2p.build_signature(&app, &analysis, &base, MappingPolicy::Block);

    let full = pas2p::experiment::prediction_row(&app, &sig, &target, 16);
    let half = pas2p::experiment::prediction_row(&app, &sig, &target, 8);
    assert!(half.aet > full.aet, "halving cores must slow the app");
    assert!(half.pet > full.pet, "prediction must track the slowdown");
    assert!(half.pete < 15.0, "PETE {:.1}%", half.pete);
}

#[test]
fn analysis_is_deterministic_end_to_end() {
    let pas2p = Pas2p::default();
    let base = cluster_b();
    let app = CgApp {
        class: Class::A,
        nprocs: 8,
        iters: 20,
    };
    let a1 = pas2p.analyze(&app, &base, MappingPolicy::Block);
    let a2 = pas2p.analyze(&app, &base, MappingPolicy::Block);
    assert_eq!(a1.trace_events, a2.trace_events);
    assert_eq!(a1.total_phases(), a2.total_phases());
    assert_eq!(a1.table.rows.len(), a2.table.rows.len());
    for (r1, r2) in a1.table.rows.iter().zip(&a2.table.rows) {
        assert_eq!(r1.weight, r2.weight);
        assert_eq!(r1.start_counts(), r2.start_counts());
    }
}

#[test]
fn phase_table_json_is_portable() {
    // The phase table survives serialization — it is what ports across
    // ISAs (paper Appendix E).
    let pas2p = Pas2p::default();
    let base = cluster_a();
    let app = CgApp {
        class: Class::A,
        nprocs: 8,
        iters: 15,
    };
    let analysis = pas2p.analyze(&app, &base, MappingPolicy::Block);
    let json = analysis.table.to_json();
    let back = pas2p_phases::PhaseTable::from_json(&json).unwrap();
    assert_eq!(back, analysis.table);
}

#[test]
fn workload_change_requires_reanalysis() {
    // §7: "the prediction … would only be useful for the data set
    // employed in the construction of the signature". A signature built
    // for a small workload must underpredict a larger one.
    let pas2p = Pas2p::default();
    let base = cluster_a();
    let small = CgApp {
        class: Class::A,
        nprocs: 8,
        iters: 20,
    };
    let large = CgApp {
        class: Class::A,
        nprocs: 8,
        iters: 60,
    };
    let analysis = pas2p.analyze(&small, &base, MappingPolicy::Block);
    let (sig, _) = pas2p.build_signature(&small, &analysis, &base, MappingPolicy::Block);
    let pet_small = pas2p
        .predict(&small, &sig, &base, MappingPolicy::Block)
        .unwrap()
        .pet;
    let aet_large = run_plain(&large, &base, MappingPolicy::Block).makespan;
    assert!(
        pet_small < 0.6 * aet_large,
        "a small-workload signature cannot describe a 3x larger run"
    );
}
