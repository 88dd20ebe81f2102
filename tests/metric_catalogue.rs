//! DESIGN.md's "Metric catalogue" lists every instrument, and only
//! instruments: a metrics-on run of a catalog `submit` and its `predict`
//! through the service (under a deadline, so the checkpoint gaps are
//! recorded), a `batch` with one faulted job and a `check` of a wildcard
//! application must emit no counter, gauge or histogram that the table
//! lacks, and each under the kind the table gives it. Read against the
//! source, the table and the declarations match both ways: every row's
//! module declares its name with the constructor of its kind, and every
//! instrument non-test code declares with a literal name has its row.
//!
//! Two tests, one of them metrics-on: the obs registry is process-global,
//! and the source test reads none of it.

use pas2p::prelude::*;
use pas2p::{run_batch_with, BatchJob, BatchOptions, Pas2p, PredictionService};
use pas2p_store::SignatureStore;
use std::path::Path;
use std::time::Duration;

/// `(name, kind, module)` of every row of the catalogue table.
fn catalogue() -> Vec<(String, String, String)> {
    let design = include_str!("../DESIGN.md");
    let section = design
        .split("### Metric catalogue")
        .nth(1)
        .expect("DESIGN.md has a metric catalogue");
    section
        .lines()
        .skip_while(|line| !line.starts_with("| name |"))
        .skip(2)
        .take_while(|line| line.starts_with('|'))
        .map(|row| {
            let cells: Vec<&str> = row.split('|').map(str::trim).collect();
            let [name, kind, module] =
                [cells[1], cells[2], cells[4]].map(|cell| cell.trim_matches('`').to_string());
            (name, kind, module)
        })
        .collect()
}

/// The `(kind, module)` the table gives `name`: its own row's, or its
/// family's (`check.hit.<code>` covers every `check.hit.` name).
fn tabled<'a>(table: &'a [(String, String, String)], name: &str) -> Option<(&'a str, &'a str)> {
    table
        .iter()
        .find(|(row, _, _)| match row.split_once('<') {
            Some((family, _)) => name.starts_with(family),
            None => row == name,
        })
        .map(|(_, kind, module)| (kind.as_str(), module.as_str()))
}

/// The constructor of an instrument of `kind`.
fn constructor(kind: &str) -> &'static str {
    match kind {
        "counter" => "Counter::new(",
        "gauge" => "Gauge::new(",
        "histogram" => "Histogram::new(",
        other => panic!("no instrument kind {other}"),
    }
}

/// A source file's non-test code: the text above its first
/// `#[cfg(test)]`, comment lines dropped.
fn non_test_code(path: &Path) -> String {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let code = text.split("#[cfg(test)]").next().unwrap_or_default();
    code.lines()
        .filter(|line| !line.trim_start().starts_with("//"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Every `.rs` file under `dir`.
fn rust_files(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, files);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            files.push(path);
        }
    }
}

#[test]
fn the_catalogue_and_the_declared_instruments_match_both_ways() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let table = catalogue();
    for (name, kind, module) in &table {
        let code = non_test_code(&root.join(module));
        let declared = match name.split_once('<') {
            // A family is declared once, its name computed from a prefix.
            Some((family, _)) => {
                code.contains(constructor(kind)) && code.contains(&format!("\"{family}"))
            }
            None => code.contains(&format!("{}\"{name}\")", constructor(kind))),
        };
        assert!(
            declared,
            "DESIGN.md's row {name} ({kind}) names no instrument in {module}"
        );
    }

    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    for krate in std::fs::read_dir(root.join("crates")).expect("crates") {
        rust_files(&krate.expect("crate").path().join("src"), &mut files);
    }
    for path in files {
        let code = non_test_code(&path);
        let module = path.strip_prefix(root).ok().and_then(Path::to_str);
        let module = module.expect("a UTF-8 path under the root");
        for kind in ["counter", "gauge", "histogram"] {
            let open = format!("{}\"", constructor(kind));
            for (at, _) in code.match_indices(&open) {
                let rest = &code[at + open.len()..];
                let name = &rest[..rest.find('"').expect("a closing quote")];
                assert_eq!(
                    tabled(&table, name),
                    Some((kind, module)),
                    "{name}: DESIGN.md"
                );
            }
        }
    }
}

#[test]
fn every_emitted_metric_is_in_the_catalogue() {
    let root = std::env::temp_dir().join(format!("pas2p-metric-catalogue-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = SignatureStore::open(&root).expect("open store");
    let svc = PredictionService::new(Pas2p::default(), store, Box::new(pas2p_apps::by_name))
        .with_deadline(Some(Duration::from_secs(600)));
    let app = pas2p_apps::by_name("masterworker", 4).expect("catalog app");
    let (trace, _) = run_traced(
        app.as_ref(),
        &cluster_a(),
        MappingPolicy::Block,
        InstrumentationModel::default(),
    );
    let plan = FaultPlan::new(7).with(FaultKind::DropRank { rank: 1 });

    pas2p_obs::set_enabled(true);
    pas2p_obs::global().reset();
    for line in [
        r#"{"op":"submit","app":"masterworker","nprocs":4,"base":"A"}"#,
        r#"{"op":"predict","app":"masterworker","nprocs":4,"base":"A","target":"B"}"#,
        r#"{"op":"predict","app":"masterworker","nprocs":4,"base":"A","target":"B"}"#,
    ] {
        let (response, _) = svc.handle_line(line);
        assert!(response.render().contains(r#""ok":true"#), "{line}");
    }
    let job = BatchJob::new(app, cluster_a()).with_fault(plan);
    let batch = run_batch_with(&Pas2p::default(), vec![job], BatchOptions::default());
    let report = CheckEngine::with_default_rules().run(&Artifacts {
        trace: Some(&trace),
        ..Artifacts::empty()
    });
    let snapshot = pas2p_obs::global().snapshot();
    pas2p_obs::set_enabled(false);
    let _ = std::fs::remove_dir_all(&root);
    assert!(batch.all_completed(), "{}", batch.render());
    assert!(report.has_code("WILD-RECV-001"));

    let table = catalogue();
    let emitted = [
        ("counter", snapshot.counters.keys().collect::<Vec<_>>()),
        ("gauge", snapshot.gauges.keys().collect()),
        ("histogram", snapshot.histograms.keys().collect()),
    ];
    for (kind, names) in emitted {
        for name in names {
            assert_eq!(
                tabled(&table, name).map(|(kind, _)| kind),
                Some(kind),
                "{name}: DESIGN.md"
            );
        }
    }
    // The run reaches every layer, the computed families included.
    for name in [
        "mpisim.parks",
        "store.hit",
        "serve.requests",
        "fault.ranks_dropped",
        "batch.degraded",
        "check.hit.wild_recv_001",
    ] {
        assert!(snapshot.counters.contains_key(name), "{name} not emitted");
    }
    let gap = "cancel.checkpoint_gap_us.pas2p_order";
    assert!(snapshot.histograms.contains_key(gap), "{gap} not emitted");
}
