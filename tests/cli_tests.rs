//! End-to-end tests of the `pas2p-cli` binary.

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pas2p-cli"))
}

#[test]
fn list_shows_catalog() {
    let out = cli().arg("list").output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in ["cg", "sweep3d", "moldy"] {
        assert!(stdout.contains(name), "missing {} in:\n{}", name, stdout);
    }
    assert!(stdout.contains("A, B, C, D"));
}

#[test]
fn bad_usage_exits_nonzero() {
    let out = cli().output().unwrap();
    assert!(!out.status.success());
    let out = cli().args(["analyze", "--app", "cg"]).output().unwrap();
    assert!(!out.status.success());
    let out = cli()
        .args([
            "analyze", "--app", "nonesuch", "--nprocs", "4", "--base", "A",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown application"));
}

#[test]
fn analyze_emits_analysis_json() {
    let out = cli()
        .args([
            "analyze",
            "--app",
            "masterworker",
            "--nprocs",
            "4",
            "--base",
            "A",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let analysis: pas2p::Analysis = serde_json::from_str(&stdout).unwrap();
    assert_eq!(analysis.nprocs, 4);
    assert_eq!(analysis.table.nprocs, 4);
    // Observability was not requested: no snapshot in the JSON.
    assert!(analysis.metrics.is_none());
}

#[test]
fn help_and_version_exit_zero() {
    let out = cli().arg("--help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage:"));
    let out = cli().args(["analyze", "--help"]).output().unwrap();
    assert!(out.status.success());
    let out = cli().arg("--version").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("pas2p-cli"));
}

#[test]
fn malformed_flags_name_the_culprit() {
    let out = cli().args(["analyze", "--app"]).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("'--app' is missing its value"),
        "{}",
        stderr
    );

    let out = cli().args(["analyze", "app", "cg"]).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("expected a --flag, got 'app'"),
        "{}",
        stderr
    );

    let out = cli()
        .args(["analyze", "--app", "cg", "--app", "lu"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("'--app' given twice"), "{}", stderr);

    // A flag the usage text does not spell is a typo, not an option to
    // ignore; a value of the wrong type names its flag.
    for (args, message) in [
        ("serve --store s --wokers 8", "unknown flag '--wokers'"),
        (
            "batch --apps cg --nprocs 4 --base A --deadline-ms soon",
            "bad --deadline-ms 'soon'",
        ),
        (
            "batch --apps cg --nprocs 4 --base A --workers 0",
            "bad --workers '0'",
        ),
        ("analyze --app cg --nprocs -1", "bad --nprocs '-1'"),
        ("analyze --app cg", "missing --nprocs"),
        // The retired second harness: its subcommand and its flags are
        // gone, not ignored (measurements live in `benchmark/`).
        ("bench-report", "unknown command 'bench-report'"),
        ("list --label t", "unknown flag '--label'"),
        ("list --record BENCH_x.json", "unknown flag '--record'"),
        (
            "analyze --app cg --nprocs 4 --base A --kernel scalar",
            "unknown flag '--kernel'",
        ),
        // A job is attempted once, and fault plans come from a seed.
        (
            "batch --apps cg --nprocs 4 --base A --retries 1",
            "unknown flag '--retries'",
        ),
        (
            "batch --apps cg --nprocs 4 --base A --faults plans.txt",
            "unknown flag '--faults'",
        ),
        // A flag of another command is refused too, not ignored.
        ("list --socket /tmp/nowhere", "unknown flag '--socket'"),
        ("list --fault-seed 3", "unknown flag '--fault-seed'"),
        ("list --normalize", "unknown flag '--normalize'"),
        (
            "analyze --app cg --nprocs 4 --base A --store s",
            "unknown flag '--store'",
        ),
        (
            "validate --app cg --nprocs 4 --base A --target B --workers 2",
            "unknown flag '--workers'",
        ),
        // The check engine's fan-out only ever slowed a check down.
        (
            "check --app cg --nprocs 4 --base A --workers 2",
            "unknown flag '--workers'",
        ),
        ("frob --app cg", "unknown command 'frob'"),
    ] {
        let out = cli().args(args.split(' ')).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(message), "{args}: {stderr}");
        assert!(stderr.contains("usage:"), "{args}: {stderr}");
    }
    // An observability flag belongs to every command.
    let out = cli()
        .args(["list", "--log-level", "warn"])
        .output()
        .unwrap();
    assert!(out.status.success());
}

#[test]
fn metrics_flag_writes_snapshot_and_subcommand_renders_it() {
    let dir = std::env::temp_dir().join("pas2p-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let analysis_path = dir.join("mw.analysis.json");
    let metrics_path = dir.join("mw.metrics.json");

    let out = cli()
        .args([
            "analyze",
            "--app",
            "masterworker",
            "--nprocs",
            "4",
            "--base",
            "A",
            "--out",
            analysis_path.to_str().unwrap(),
            "--metrics",
            metrics_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The standalone snapshot file has stage profiles and counters from
    // several crates.
    let snap: pas2p_obs::MetricsSnapshot =
        serde_json::from_str(&std::fs::read_to_string(&metrics_path).unwrap()).unwrap();
    assert!(snap.enabled);
    let stage_names: Vec<&str> = snap.stages.iter().map(|s| s.name.as_str()).collect();
    for required in ["run_traced", "pas2p_order", "extract_phases", "table"] {
        assert!(stage_names.contains(&required), "missing stage {required}");
    }
    assert!(snap.counters["mpisim.messages"] > 0);
    assert!(snap.counters["trace.events"] > 0);
    assert!(snap.counters["model.events_ordered"] > 0);
    assert!(snap.counters["phases.unique"] > 0);
    let distinct = snap.counters.len() + snap.histograms.len();
    assert!(distinct >= 10, "only {distinct} instruments in snapshot");

    // The analysis JSON embeds the same snapshot, and the `metrics`
    // subcommand renders it.
    let analysis: pas2p::Analysis =
        serde_json::from_str(&std::fs::read_to_string(&analysis_path).unwrap()).unwrap();
    assert!(analysis.metrics.is_some());

    let out = cli()
        .args(["metrics", "--analysis", analysis_path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("stages:"), "{}", stdout);
    assert!(stdout.contains("mpisim.messages"), "{}", stdout);
}

#[test]
fn signature_then_predict_roundtrip() {
    let dir = std::env::temp_dir().join("pas2p-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let sig_path = dir.join("mw.sig.json");
    let sig_str = sig_path.to_str().unwrap();

    let out = cli()
        .args([
            "signature",
            "--app",
            "masterworker",
            "--nprocs",
            "4",
            "--base",
            "A",
            "--out",
            sig_str,
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = cli()
        .args([
            "predict",
            "--app",
            "masterworker",
            "--nprocs",
            "4",
            "--signature",
            sig_str,
            "--target",
            "B",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("PET"), "{}", stdout);
}

#[test]
fn validate_reports_pete() {
    let out = cli()
        .args([
            "validate",
            "--app",
            "masterworker",
            "--nprocs",
            "4",
            "--base",
            "A",
            "--target",
            "B",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("PETE"), "{}", stdout);
}

#[test]
fn isa_mismatch_is_reported() {
    let dir = std::env::temp_dir().join("pas2p-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let sig_path = dir.join("mw-isa.sig.json");
    let sig_str = sig_path.to_str().unwrap();
    let out = cli()
        .args([
            "signature",
            "--app",
            "masterworker",
            "--nprocs",
            "4",
            "--base",
            "A",
            "--out",
            sig_str,
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = cli()
        .args([
            "predict",
            "--app",
            "masterworker",
            "--nprocs",
            "4",
            "--signature",
            sig_str,
            "--target",
            "D",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot run on"), "{}", stderr);
}

/// A signature file that decodes but cannot run, or that is not of this
/// version's shape, is a bad input: exit 2, one line, no usage dump.
#[test]
fn a_signature_file_that_cannot_run_is_refused() {
    let dir = std::env::temp_dir().join(format!("pas2p-cli-sig-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sig_path = dir.join("lu.sig.json");
    let sig_str = sig_path.to_str().unwrap();
    let out = cli()
        .args(["signature", "--app", "lu", "--nprocs", "4", "--base", "A"])
        .args(["--out", sig_str])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = std::fs::read_to_string(&sig_path).unwrap();
    let mut windowless: serde_json::Value = serde_json::from_str(&text).unwrap();
    windowless["entries"][1]["row"]["windows"] = serde_json::json!([]);
    for (file, says) in [
        (
            serde_json::to_string(&windowless).unwrap(),
            "signature entry 1 has no measurement window",
        ),
        (
            text.replacen(r#""checkpoints":"#, r#""checkpointz":"#, 1),
            "missing field `checkpoints`",
        ),
    ] {
        std::fs::write(&sig_path, file).unwrap();
        let out = cli()
            .args(["predict", "--app", "lu", "--nprocs", "4"])
            .args(["--signature", sig_str, "--target", "B"])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(says), "{stderr}");
        assert_eq!(stderr.lines().count(), 1, "{stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn check_reports_clean_apps_and_json_mode() {
    let out = cli()
        .args(["check", "--app", "cg", "--nprocs", "8", "--base", "A"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 error(s)"), "{}", stdout);

    let out = cli()
        .args([
            "check", "--app", "cg", "--nprocs", "8", "--base", "A", "--json",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report: pas2p_check::CheckReport =
        serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).unwrap();
    assert!(report.is_clean());
}

/// `check --sarif` reproduces the golden SARIF snapshot byte for byte
/// (the simulator, the deterministic wildcard commit, and the SARIF
/// writer are all stable).
#[test]
fn check_sarif_matches_golden_snapshot() {
    let dir = std::env::temp_dir().join("pas2p-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let sarif_path = dir.join("mw.sarif");

    let out = cli()
        .args([
            "check",
            "--app",
            "masterworker",
            "--nprocs",
            "8",
            "--base",
            "A",
            "--sarif",
            sarif_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let got = std::fs::read_to_string(&sarif_path).unwrap();
    let golden = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden/masterworker_check.sarif"),
    )
    .unwrap();
    assert_eq!(
        got, golden,
        "SARIF output diverged from the golden snapshot; \
         regenerate tests/golden/masterworker_check.sarif if the change is intended"
    );
}

/// `--write-baseline` captures the current findings; a subsequent run
/// with `--baseline` absorbs them and exits clean.
#[test]
fn check_baseline_roundtrip_suppresses_known_findings() {
    let dir = std::env::temp_dir().join("pas2p-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let baseline_path = dir.join("mw.baseline.json");
    let baseline_str = baseline_path.to_str().unwrap();
    let app = [
        "check",
        "--app",
        "masterworker",
        "--nprocs",
        "8",
        "--base",
        "A",
    ];

    let out = cli()
        .args(app)
        .args(["--write-baseline", baseline_str])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let baseline: pas2p_check::Baseline =
        pas2p_check::Baseline::from_json(&std::fs::read_to_string(&baseline_path).unwrap())
            .unwrap();
    assert!(
        !baseline.suppressed.is_empty(),
        "masterworker has wildcard infos to capture"
    );

    let out = cli()
        .args(app)
        .args(["--baseline", baseline_str])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("baseline absorbed"),
        "expected absorption note, got:\n{stderr}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("0 finding(s) total"),
        "all findings were baselined, got:\n{stdout}"
    );

    // A garbage baseline is an input error: exit 2, one diagnostic line.
    std::fs::write(&baseline_path, "not json").unwrap();
    let out = cli()
        .args(app)
        .args(["--baseline", baseline_str])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}

/// Bad input files (as opposed to bad flags) exit 2 with exactly one
/// diagnostic line and no usage dump.
#[test]
fn unreadable_inputs_exit_two_with_one_line_diagnostic() {
    for args in [
        ["check", "--trace", "/nonexistent/pas2p.trace"].as_slice(),
        ["check", "--logical", "/nonexistent/pas2p.model.json"].as_slice(),
        ["metrics", "--analysis", "/nonexistent/pas2p.analysis.json"].as_slice(),
    ] {
        let out = cli().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("error: reading"), "{args:?}: {stderr}");
        assert!(
            !stderr.contains("usage:"),
            "{args:?}: input errors must not dump usage:\n{stderr}"
        );
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    }
}

#[test]
fn empty_and_corrupt_traces_are_diagnosed() {
    let dir = std::env::temp_dir().join("pas2p-cli-test");
    std::fs::create_dir_all(&dir).unwrap();

    // An empty trace file: one line, exit 2, no usage dump.
    let empty = dir.join("empty.trace");
    std::fs::write(&empty, b"").unwrap();
    let out = cli()
        .args(["check", "--trace", empty.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("is empty"), "{stderr}");
    assert!(!stderr.contains("usage:"), "{stderr}");

    // Garbage bytes: the recovering decoder reports a fatal ingest and
    // the INGEST rule family names it.
    let garbage = dir.join("garbage.trace");
    std::fs::write(&garbage, vec![0xA5u8; 256]).unwrap();
    let out = cli()
        .args(["check", "--trace", garbage.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("INGEST-FATAL-001"), "{stdout}");
}

#[test]
fn batch_fault_seed_runs_the_matrix_and_stays_deterministic() {
    let run = |workers: &str| {
        let out = cli()
            .args([
                "batch",
                "--apps",
                "masterworker",
                "--nprocs",
                "4",
                "--base",
                "A",
                "--fault-seed",
                "42",
                "--workers",
                workers,
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stderr).to_string()
    };
    let sequential = run("1");
    // One job per matrix entry, each classified, none at full confidence.
    assert!(sequential.contains("4 job(s)"), "{sequential}");
    assert!(
        !sequential.contains("[ok]"),
        "fault jobs must not report full confidence:\n{sequential}"
    );
    assert!(
        sequential.contains("[degraded]") || sequential.contains("FAILED"),
        "{sequential}"
    );
    let parallel = run("4");
    // The per-job lines are identical for any worker count, modulo the
    // host-clock fields (TFAT/AET and the trailing wall-time summary).
    let body = |s: &str| {
        s.lines()
            // Drop the wall-time summary and the log lines, whose
            // interleaving depends on worker scheduling.
            .filter(|l| !l.contains("worker(s)") && !l.starts_with('['))
            .map(|l| l.split(" TFAT").next().unwrap().to_string())
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(body(&sequential), body(&parallel));
}

/// The timeline acceptance path: export a timeline for a live run, have
/// the CLI validate it, and confirm both domains are present — pipeline
/// stage spans (wall clock) and per-rank application tracks with the
/// phase overlay (virtual time).
#[test]
fn timeline_exports_validate_and_carry_both_domains() {
    let dir = std::env::temp_dir().join("pas2p-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cg.timeline.json");
    let path_str = path.to_str().unwrap();

    let out = cli()
        .args([
            "timeline", "--app", "cg", "--nprocs", "8", "--base", "A", "--out", path_str,
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let json = std::fs::read_to_string(&path).unwrap();
    let stats = pas2p::validate_chrome_json(&json).expect("exported timeline is valid");
    assert!(stats.slices > 0 && stats.metadata > 0);
    assert_eq!(stats.pids, 2, "host and app process lanes");
    // Pipeline self-profile on the wall clock…
    for stage in ["run_traced", "pas2p_order", "extract_phases", "table"] {
        assert!(json.contains(stage), "missing stage span {stage}");
    }
    // …and the application in virtual time, with the phase overlay.
    assert!(json.contains("\"rank 0\"") && json.contains("\"rank 7\""));
    assert!(json.contains("\"phases\""));
    assert!(json.contains("\"phase "), "phase occurrence slices present");

    // The CLI validator agrees.
    let out = cli()
        .args(["timeline", "--validate", path_str])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("valid Chrome Trace JSON"));

    // A non-timeline file is rejected with a one-line diagnostic.
    let bogus = dir.join("bogus.json");
    std::fs::write(&bogus, "{\"traceEvents\": 3}").unwrap();
    let out = cli()
        .args(["timeline", "--validate", bogus.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(!String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

/// A trace file that lost a rank goes through Stage A's byte path, so
/// its collectives are repaired and the timeline still exports.
#[test]
fn timeline_from_a_trace_missing_a_rank_exports_and_validates() {
    use pas2p::prelude::*;
    let dir = std::env::temp_dir().join("pas2p-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("cg8.drop1.trace");
    let path = dir.join("cg8.drop1.timeline.json");

    let app = pas2p_apps::by_name("cg", 8).unwrap();
    let (trace, _) = run_traced(
        app.as_ref(),
        &cluster_a(),
        MappingPolicy::Block,
        InstrumentationModel::default(),
    );
    let plan = FaultPlan::new(7).with(FaultKind::DropRank { rank: 1 });
    std::fs::write(&trace_path, plan.inject(&trace).0).unwrap();

    let out = cli()
        .args(["timeline", "--trace", trace_path.to_str().unwrap()])
        .args(["--out", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = cli()
        .args(["timeline", "--validate", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// The live timeline and `--trace-out` record in one bracket: both get
/// the command's events.
#[test]
fn timeline_with_trace_out_writes_the_recorded_events() {
    let dir = std::env::temp_dir().join("pas2p-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cg8.selfprofile.json");

    let out = cli()
        .args(["timeline", "--app", "cg", "--nprocs", "8", "--base", "A"])
        .args([
            "--out",
            dir.join("cg8.tout.timeline.json").to_str().unwrap(),
        ])
        .args(["--trace-out", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&path).unwrap();
    let stats = pas2p::validate_chrome_json(&json).expect("self-profile is valid");
    assert!(stats.slices > 0, "no events in {json}");
}

/// `--trace-out` on an ordinary command records the pipeline
/// self-profile without changing the command's own output.
#[test]
fn trace_out_flag_writes_host_timeline() {
    let dir = std::env::temp_dir().join("pas2p-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("mw.selfprofile.json");

    let out = cli()
        .args([
            "analyze",
            "--app",
            "masterworker",
            "--nprocs",
            "4",
            "--base",
            "A",
            "--out",
            dir.join("mw.tout.analysis.json").to_str().unwrap(),
            "--trace-out",
            path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&path).unwrap();
    let stats = pas2p::validate_chrome_json(&json).expect("self-profile is valid");
    assert!(stats.slices > 0);
    assert!(json.contains("run_traced"), "stage spans recorded");
    assert!(json.contains("\"rank 0\""), "rank threads recorded");
}

#[test]
fn metrics_format_prom_emits_exposition() {
    let dir = std::env::temp_dir().join("pas2p-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let analysis_path = dir.join("mw.prom.analysis.json");
    let out = cli()
        .args([
            "analyze",
            "--app",
            "masterworker",
            "--nprocs",
            "4",
            "--base",
            "A",
            "--out",
            analysis_path.to_str().unwrap(),
            "--metrics",
            dir.join("mw.prom.metrics.json").to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = cli()
        .args([
            "metrics",
            "--analysis",
            analysis_path.to_str().unwrap(),
            "--format",
            "prom",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("# TYPE pas2p_mpisim_messages counter"),
        "{stdout}"
    );
    assert!(
        stdout.contains("pas2p_stage_wall_seconds{stage=\"run_traced\"}"),
        "{stdout}"
    );

    let out = cli()
        .args([
            "metrics",
            "--analysis",
            analysis_path.to_str().unwrap(),
            "--format",
            "xml",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success(), "unknown format must fail");
}

/// The acceptance scenario: export the logical model, corrupt it, and the
/// checker exits non-zero naming the violated rule.
#[test]
fn check_corrupted_logical_trace_exits_nonzero() {
    let dir = std::env::temp_dir().join("pas2p-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let model_path = dir.join("cg.model.json");
    let model_str = model_path.to_str().unwrap();

    let out = cli()
        .args([
            "check",
            "--app",
            "cg",
            "--nprocs",
            "8",
            "--base",
            "A",
            "--logical-out",
            model_str,
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The exported model itself checks clean.
    let out = cli()
        .args(["check", "--logical", model_str])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );

    // Swap two ticks: receives now precede their sends and per-process
    // event numbering is no longer monotone.
    let mut model: pas2p::prelude::LogicalTrace =
        serde_json::from_str(&std::fs::read_to_string(&model_path).unwrap()).unwrap();
    let mid = model.ticks.len() / 2;
    model.ticks.swap(0, mid);
    std::fs::write(&model_path, serde_json::to_string(&model).unwrap()).unwrap();

    let out = cli()
        .args(["check", "--logical", model_str])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("LT-RECV-001") || stdout.contains("MODEL-ORDER-001"),
        "expected a named rule violation, got:\n{}",
        stdout
    );
}

#[test]
fn serve_answers_ndjson_and_hits_the_cache() {
    use std::io::Write;
    use std::process::Stdio;

    let store = std::env::temp_dir().join(format!("pas2p-cli-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let mut child = cli()
        .args(["serve", "--store", store.to_str().unwrap()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(
            concat!(
                r#"{"op":"submit","app":"cg","nprocs":4}"#,
                "\n",
                r#"{"op":"predict","app":"cg","nprocs":4,"target":"B"}"#,
                "\n",
                r#"{"op":"predict","app":"cg","nprocs":4,"target":"B"}"#,
                "\n",
                r#"{"op":"shutdown"}"#,
                "\n",
            )
            .as_bytes(),
        )
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<serde_json::Value> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    assert_eq!(lines.len(), 4, "one response line per request");
    assert_eq!(lines[0]["op"], serde_json::json!("submit"));
    assert_eq!(lines[0]["ok"], serde_json::json!(true));
    assert_eq!(lines[0]["result"]["cached"], serde_json::json!(false));
    // The submit stored the signature: the first predict skips Stage A.
    assert_eq!(
        lines[1]["result"]["signature_cached"],
        serde_json::json!(true)
    );
    assert_eq!(lines[1]["result"]["cached"], serde_json::json!(false));
    // The second predict is a pure cache hit with identical values.
    assert_eq!(lines[2]["result"]["cached"], serde_json::json!(true));
    assert_eq!(
        lines[1]["result"]["prediction"],
        lines[2]["result"]["prediction"]
    );
    let _ = std::fs::remove_dir_all(&store);
}

/// With collection on, a signature's sidecar embeds the registry's
/// snapshot. The registry keeps one aggregate per stage name and a name
/// is a literal, so once a submit, a predict and a batch have run every
/// stage, a later sidecar holds no more stage entries than an earlier
/// one, however many requests — or batches of another shape — ran
/// between.
#[test]
fn serve_sidecars_do_not_grow_with_the_request_count() {
    use std::io::Write;
    use std::process::Stdio;

    let store = std::env::temp_dir().join(format!("pas2p-cli-sidecar-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let mut child = cli()
        .args(["serve", "--store", store.to_str().unwrap()])
        .env("PAS2P_OBS", "1")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let submit =
        |nprocs: u32| format!(r#"{{"op":"submit","app":"masterworker","nprocs":{nprocs}}}"#);
    let predict = r#"{"op":"predict","app":"masterworker","nprocs":2,"target":"B"}"#.to_string();
    let batch = |apps: &str| format!(r#"{{"op":"batch","apps":[{apps}],"nprocs":2}}"#);
    let mut session = vec![submit(2), predict.clone(), batch(r#""cg""#), submit(3)];
    session.extend(std::iter::repeat_n(predict, 20));
    session.extend([batch(r#""ft","lu""#), submit(4)]);
    let stdin = child.stdin.as_mut().unwrap();
    stdin
        .write_all((session.join("\n") + "\n").as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let replies: Vec<serde_json::Value> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    assert_eq!(replies.len(), 26);
    let stage_entries = |reply: &serde_json::Value| {
        let digest = reply["result"]["digest"].as_str().expect("a submit reply");
        let object = std::fs::read_to_string(store.join(format!("objects/{digest}.json"))).unwrap();
        let object: serde_json::Value = serde_json::from_str(&object).unwrap();
        object["sidecar"]["metrics"]["stages"]
            .as_array()
            .expect("a snapshot")
            .len()
    };
    let (second, third) = (stage_entries(&replies[3]), stage_entries(&replies[25]));
    assert!(second > 0);
    assert!(
        third <= second,
        "{second} stage entries, then {third}, twenty predicts and a batch later"
    );
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn predict_with_store_caches_across_invocations() {
    let store = std::env::temp_dir().join(format!("pas2p-cli-predict-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let args = [
        "predict",
        "--app",
        "ft",
        "--nprocs",
        "4",
        "--store",
        store.to_str().unwrap(),
        "--target",
        "B",
    ];
    let cold = cli().args(args).output().unwrap();
    assert!(
        cold.status.success(),
        "{}",
        String::from_utf8_lossy(&cold.stderr)
    );
    let cold_stdout = String::from_utf8_lossy(&cold.stdout).into_owned();
    assert!(cold_stdout.contains("[prediction: computed, signature: computed]"));

    let warm = cli().args(args).output().unwrap();
    assert!(warm.status.success());
    let warm_stdout = String::from_utf8_lossy(&warm.stdout).into_owned();
    assert!(
        warm_stdout.contains("[prediction: cache hit, signature: cache hit]"),
        "{warm_stdout}"
    );
    // Same PET down to the printed precision.
    assert_eq!(
        cold_stdout.split(" [").next(),
        warm_stdout.split(" [").next()
    );
    let _ = std::fs::remove_dir_all(&store);
}
