//! Every replay of the traced communication, pinned. The check engine's
//! replays (`WFG-CYCLE-001`, the happens-before clocks, `DLK-POT-001`)
//! and the Dimemas-like baseline must print exactly what
//! `tests/golden/catalog_replays.txt` records:
//!
//! * for each catalog (app, nprocs) on base A, the rendered check report
//!   of `analyze_run` with the default engine and the baseline's A → B replay (`pet`,
//!   `events`) over a trace recorded without instrumentation overhead;
//! * for each plan of `fault_matrix(42)` over cg, moldy and masterworker
//!   at 8 ranks, the rendered report of `analyze_buffer` with the
//!   default engine on the injected bytes, or its error reason and ingest report followed by
//!   the engine's report over the recovered trace itself. Damaged traces
//!   are where a replay wedges and the clocks stop short.
//!
//! On a mismatch the test writes what it got to
//! `$CARGO_TARGET_TMPDIR/catalog_replays.actual.txt`.

use pas2p::baselines::predict_by_replay;
use pas2p::prelude::*;
use pas2p::Pas2p;
use pas2p_apps::CATALOG;

const FAULTED: [&str; 3] = ["cg", "moldy", "masterworker"];

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/catalog_replays.txt"
);

fn catalog(pas2p: &Pas2p, out: &mut String) {
    let engine = CheckEngine::with_default_rules();
    let base = cluster_a();
    let target = cluster_b();
    for app in CATALOG {
        for nprocs in [4u32, 8] {
            let program = pas2p_apps::by_name(app, nprocs).expect("catalog app");
            let (analysis, _, _) =
                pas2p.analyze_run(program.as_ref(), &base, MappingPolicy::Block, Some(&engine));
            let report = analysis.check.expect("an engine attaches a report");
            out.push_str(&format!("== {app} {nprocs} A check\n{}", report.render()));
            let (trace, _) = run_traced(
                program.as_ref(),
                &base,
                MappingPolicy::Block,
                InstrumentationModel::free(),
            );
            let replay = predict_by_replay(&trace, &base, &target, MappingPolicy::Block);
            out.push_str(&format!(
                "== {app} {nprocs} A replay B pet {:?} events {}\n",
                replay.pet, replay.events
            ));
        }
    }
}

fn faulted(pas2p: &Pas2p, out: &mut String) {
    let engine = CheckEngine::with_default_rules();
    let base = cluster_a();
    for app in FAULTED {
        let program = pas2p_apps::by_name(app, 8).expect("catalog app");
        let (clean, _) = run_traced(
            program.as_ref(),
            &base,
            MappingPolicy::Block,
            pas2p.instrumentation,
        );
        for (label, plan) in fault_matrix(42) {
            let (bytes, _log) = plan.inject(&clean);
            out.push_str(&format!("== {app} 8 A fault {label} analyze\n"));
            let e = match pas2p.analyze_buffer(app, label, &bytes, Some(&engine)) {
                Ok((analysis, _)) => {
                    out.push_str(&analysis.check.expect("checked").render());
                    continue;
                }
                Err(e) => e,
            };
            out.push_str(&format!("error: {}\n{}", e.reason, e.ingest.render()));
            // The pipeline stopped before its check: run the engine over
            // what the decoder salvaged, as `pas2p-cli check` would.
            if let (Some(trace), ingest) = decode_recovering(&bytes) {
                let report = CheckEngine::with_default_rules().run(&Artifacts {
                    trace: Some(&trace),
                    ingest: Some(&ingest),
                    ..Artifacts::empty()
                });
                out.push_str(&format!(
                    "== {app} 8 A fault {label} recovered trace\n{}",
                    report.render()
                ));
            }
        }
    }
}

#[test]
fn catalog_replays_match_the_golden_reports() {
    let pas2p = Pas2p::default();
    let mut actual = String::from("# rendered check reports and A -> B replay predictions\n");
    catalog(&pas2p, &mut actual);
    faulted(&pas2p, &mut actual);

    let golden = std::fs::read_to_string(GOLDEN).unwrap_or_default();
    if actual != golden {
        let out =
            std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("catalog_replays.actual.txt");
        std::fs::write(&out, &actual).expect("write actual");
        for (a, g) in actual.lines().zip(golden.lines()) {
            assert_eq!(
                a,
                g,
                "first differing line (full output in {})",
                out.display()
            );
        }
        panic!(
            "{} lines, golden has {} (full output in {})",
            actual.lines().count(),
            golden.lines().count(),
            out.display()
        );
    }
}
