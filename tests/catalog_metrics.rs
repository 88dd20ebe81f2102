//! The work the catalog session does, pinned: after the 155-line
//! session of `session/mod.rs`, run over the stdin loop on a fresh store
//! with metrics on, every counter and every stage's `calls` must equal
//! `tests/golden/catalog_metrics.txt`. `catalog_session` pins the bytes
//! the session returns; this pins the work it took to return them, so a
//! change that adds a store read, a compare or a simulated run to each
//! request moves a named line.
//!
//! The counters DESIGN.md's catalogue classes schedule-dependent are
//! left out: the parks, the park sleeps and the two wildcard commit
//! counters. Histograms and gauges are not pinned.
//!
//! One test in a file of its own: the obs registry is process-global.

mod session;

use pas2p::{Pas2p, PredictionService};
use pas2p_store::SignatureStore;
use std::io::Cursor;
use std::path::Path;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/catalog_metrics.txt"
);

/// Counters whose value depends on the schedule of the rank threads.
const SCHEDULE: [&str; 4] = [
    "mpisim.parks",
    "mpisim.park_sleeps",
    "mpisim.wildcard.clock_commits",
    "mpisim.wildcard.quiescence_commits",
];

#[test]
fn the_catalog_session_does_the_golden_work() {
    let root = std::env::temp_dir().join(format!("pas2p-catalog-metrics-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = SignatureStore::open(&root).expect("open store");
    let svc = PredictionService::new(Pas2p::default(), store, Box::new(pas2p_apps::by_name));
    let input = session::session().join("\n") + "\n";

    pas2p_obs::set_enabled(true);
    pas2p_obs::global().reset();
    svc.serve(Cursor::new(input), &mut Vec::new())
        .expect("serve");
    let snapshot = pas2p_obs::global().snapshot();
    pas2p_obs::set_enabled(false);
    drop(svc);
    let _ = std::fs::remove_dir_all(&root);

    let mut actual = String::from("# kind name value\n");
    for (name, value) in &snapshot.counters {
        if !SCHEDULE.contains(&name.as_str()) {
            actual.push_str(&format!("counter {name} {value}\n"));
        }
    }
    let mut stages: Vec<_> = snapshot.stages.iter().collect();
    stages.sort_by(|a, b| a.name.cmp(&b.name));
    for stage in stages {
        actual.push_str(&format!("stage {} {}\n", stage.name, stage.calls));
    }

    let golden = std::fs::read_to_string(GOLDEN).unwrap_or_default();
    if actual != golden {
        let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("catalog_metrics.actual.txt");
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
