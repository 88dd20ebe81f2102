//! DESIGN.md's "Metric catalogue" lists every instrument: a metrics-on
//! run of a catalog `submit` and its `predict` through the service
//! (under a deadline, so the checkpoint gaps are recorded), a `batch`
//! with one faulted job and a `check` of a wildcard application must
//! emit no counter, gauge or histogram that the table lacks, and each
//! under the kind the table gives it.
//!
//! One test in a file of its own: the obs registry is process-global.

use pas2p::prelude::*;
use pas2p::{run_batch_with, BatchJob, BatchOptions, Pas2p, PredictionService};
use pas2p_store::SignatureStore;
use std::time::Duration;

/// `(name, kind)` of every row of the catalogue table.
fn catalogue() -> Vec<(String, String)> {
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
            (cells[1].trim_matches('`').to_string(), cells[2].to_string())
        })
        .collect()
}

/// The kind the table gives `name`: its own row, or the row of its
/// family (`check.hit.<code>` covers every `check.hit.` name).
fn tabled<'a>(table: &'a [(String, String)], name: &str) -> Option<&'a str> {
    table
        .iter()
        .find(|(row, _)| match row.split_once('<') {
            Some((family, _)) => name.starts_with(family),
            None => row == name,
        })
        .map(|(_, kind)| kind.as_str())
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
    assert!(table.len() > 80, "{} catalogue rows", table.len());
    let emitted = [
        ("counter", snapshot.counters.keys().collect::<Vec<_>>()),
        ("gauge", snapshot.gauges.keys().collect()),
        ("histogram", snapshot.histograms.keys().collect()),
    ];
    for (kind, names) in emitted {
        for name in names {
            assert_eq!(tabled(&table, name), Some(kind), "{name}: DESIGN.md");
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
