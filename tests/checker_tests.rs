//! Integration tests of the `pas2p-check` diagnostics engine: golden
//! clean runs over the shipped applications, and corruption tests
//! asserting that specific defects trip the expected rule codes.

use pas2p::prelude::*;
use pas2p::Pas2p;
use pas2p_apps::CATALOG;
use pas2p_check::{Artifacts, CheckEngine};
use pas2p_phases::extract_phases;
use pas2p_trace::{EventKind, TraceEvent};

/// Run the full analyze pipeline with checking and return the report.
fn checked_report(name: &str, nprocs: u32) -> CheckReport {
    let app = pas2p_apps::by_name(name, nprocs).unwrap_or_else(|| panic!("unknown app {}", name));
    let base = cluster_a();
    let engine = CheckEngine::with_default_rules();
    let (analysis, _, _) =
        Pas2p::default().analyze_run(app.as_ref(), &base, MappingPolicy::Block, Some(&engine));
    analysis.check.expect("an engine attaches a report")
}

/// Assert `report` carries none of the happens-before warning codes.
fn assert_no_hb_warnings(name: &str, report: &CheckReport) {
    for code in [
        "MSG-RACE-001",
        "MSG-RACE-002",
        "DLK-POT-001",
        "SIG-STAB-001",
    ] {
        assert!(
            !report.has_code(code),
            "{} must not trip {}, got:\n{}",
            name,
            code,
            report.render()
        );
    }
}

/// The NPB kernels named in the issue check clean: no errors, no
/// warnings (Info-level findings like wildcard receives are allowed),
/// and in particular no message-race or potential-deadlock findings.
#[test]
fn npb_apps_check_clean() {
    for name in &CATALOG[..5] {
        let report = checked_report(name, 8);
        assert!(
            report.is_clean(),
            "{} must check clean, got:\n{}",
            name,
            report.render()
        );
        assert_no_hb_warnings(name, &report);
    }
}

/// Every other shipped application also checks clean.
#[test]
fn remaining_apps_check_clean() {
    for name in &CATALOG[5..] {
        let report = checked_report(name, 8);
        assert!(
            report.is_clean(),
            "{} must check clean, got:\n{}",
            name,
            report.render()
        );
        assert_no_hb_warnings(name, &report);
    }
}

/// The master/worker app posts wildcard receives; the checker must see
/// them. WILD-RECV-001 is the informational census, WILD-RECV-002 the
/// symmetric (same-size, interchangeable) race at the master — both
/// Info, so the report stays clean: the actionable MSG-RACE/DLK-POT
/// warnings must NOT fire for a symmetric master/worker.
#[test]
fn masterworker_wildcards_are_visible() {
    let report = checked_report("masterworker", 4);
    assert!(
        report.has_code("WILD-RECV-001"),
        "expected WILD-RECV-001 info, got:\n{}",
        report.render()
    );
    assert!(
        report.has_code("WILD-RECV-002"),
        "expected WILD-RECV-002 info (symmetric race), got:\n{}",
        report.render()
    );
    assert_no_hb_warnings("masterworker", &report);
    assert_eq!(report.exit_code(), 0);
}

/// Build the full artifact set for one small app, run the corruption
/// closure over the pieces, and return the resulting report.
fn corrupted_report(
    corrupt: impl FnOnce(&mut Trace, &mut LogicalTrace, &mut PhaseAnalysis, &mut PhaseTable),
) -> CheckReport {
    let app = pas2p_apps::by_name("cg", 8).unwrap();
    let base = cluster_a();
    let policy = MappingPolicy::Block;
    let (mut trace, _) = run_traced(app.as_ref(), &base, policy, InstrumentationModel::default());
    let mut logical = pas2p_order(&trace);
    let cfg = SimilarityConfig::default();
    let mut analysis = extract_phases(&logical, &cfg);
    let mut table = PhaseTable::from_analysis(&analysis, 0.01, 0, 1);
    corrupt(&mut trace, &mut logical, &mut analysis, &mut table);
    let artifacts = Artifacts {
        trace: Some(&trace),
        logical: Some(&logical),
        analysis: Some(&analysis),
        table: Some(&table),
        similarity: cfg,
        ingest: None,
    };
    CheckEngine::with_default_rules().run(&artifacts)
}

/// Dropping a receive from the physical trace leaves its send unmatched.
#[test]
fn dropped_recv_trips_p2p_match() {
    let report = corrupted_report(|trace, _, _, _| {
        // Remove the first receive of rank 0 and renumber the remainder so
        // only the matching invariant (not numbering) is violated.
        let events = &mut trace.procs[0].events;
        let i = events
            .iter()
            .position(|e| e.kind == EventKind::Recv)
            .expect("cg rank 0 receives");
        events.remove(i);
        for (n, e) in events.iter_mut().enumerate() {
            e.number = n as u64;
        }
    });
    assert!(
        report.has_code("P2P-MATCH-001"),
        "expected P2P-MATCH-001, got:\n{}",
        report.render()
    );
    assert!(report.exit_code() > 0);
}

/// Swapping two ticks of the logical trace places receives before their
/// sends and breaks program order.
#[test]
fn swapped_ticks_trip_model_rules() {
    let report = corrupted_report(|_, logical, _, _| {
        let n = logical.ticks.len();
        assert!(n >= 2);
        logical.ticks.swap(0, n / 2);
    });
    assert!(
        report.has_code("LT-RECV-001") || report.has_code("MODEL-ORDER-001"),
        "expected causality or program-order findings, got:\n{}",
        report.render()
    );
    assert_eq!(report.exit_code(), 2);
}

/// Inflating a phase weight breaks the occurrence bookkeeping and the
/// PET reconstruction identity.
#[test]
fn inflated_weight_trips_signature_rules() {
    let report = corrupted_report(|_, _, analysis, _| {
        analysis.phases[0].weight *= 3;
    });
    assert!(
        report.has_code("SIG-W-001"),
        "expected SIG-W-001, got:\n{}",
        report.render()
    );
    assert_eq!(report.exit_code(), 2);
}

/// Tampering with a table row's weight desynchronizes it from the
/// analysis it claims to represent.
#[test]
fn tampered_table_trips_sig_rel() {
    let report = corrupted_report(|_, _, _, table| {
        table.rows[0].weight += 7;
    });
    assert!(
        report.has_code("SIG-REL-001"),
        "expected SIG-REL-001, got:\n{}",
        report.render()
    );
}

/// A synthetic deadlock (crossed blocking receives) is detected from the
/// trace alone.
#[test]
fn crossed_receives_trip_wfg_cycle() {
    let ev =
        |number: u64, process: u32, kind: EventKind, peer: u32, msg_id: u64, t: f64| TraceEvent {
            number,
            process,
            t_post: t,
            t_complete: t + 0.1,
            kind,
            peer: Some(peer),
            tag: 0,
            size: 8,
            involved: 1,
            msg_id,
            comm_id: 0,
            wildcard: false,
        };
    let trace = Trace {
        nprocs: 2,
        machine: "synthetic".into(),
        procs: vec![
            pas2p_trace::ProcessTrace {
                process: 0,
                events: vec![
                    ev(0, 0, EventKind::Recv, 1, 2, 0.0),
                    ev(1, 0, EventKind::Send, 1, 1, 1.0),
                ],
                end_time: 1.1,
            },
            pas2p_trace::ProcessTrace {
                process: 1,
                events: vec![
                    ev(0, 1, EventKind::Recv, 0, 1, 0.0),
                    ev(1, 1, EventKind::Send, 0, 2, 1.0),
                ],
                end_time: 1.1,
            },
        ],
    };
    let artifacts = Artifacts {
        trace: Some(&trace),
        ..Artifacts::empty()
    };
    let report = CheckEngine::with_default_rules().run(&artifacts);
    assert!(
        report.has_code("WFG-CYCLE-001"),
        "expected WFG-CYCLE-001, got:\n{}",
        report.render()
    );
    assert_eq!(report.exit_code(), 2);
}

/// A master/worker variant seeded with a structure-changing race: the
/// workers' result payloads differ in size, so the order the master's
/// wildcard receives commit changes the communication structure.
struct RacyApp {
    nprocs: u32,
    rounds: u64,
}

struct RacyRank {
    rank: u32,
    nprocs: u32,
    rounds: u64,
}

impl MpiApp for RacyApp {
    fn name(&self) -> String {
        "SeededRace".into()
    }
    fn nprocs(&self) -> u32 {
        self.nprocs
    }
    fn make_rank(&self, rank: u32) -> Box<dyn RankProgram> {
        Box::new(RacyRank {
            rank,
            nprocs: self.nprocs,
            rounds: self.rounds,
        })
    }
}

impl RankProgram for RacyRank {
    fn prologue(&mut self, _ctx: &mut dyn Mpi) {}
    fn steps(&self) -> u64 {
        self.rounds
    }
    fn step(&mut self, _s: u64, ctx: &mut dyn Mpi) {
        if self.rank == 0 {
            for w in 1..self.nprocs {
                ctx.send(w, 1, &[0u8; 64]);
            }
            for _ in 1..self.nprocs {
                ctx.recv(None, Some(2));
            }
        } else {
            ctx.recv(Some(0), Some(1));
            // Result payloads differ per worker: whichever send the
            // wildcard commits first changes the received volumes.
            ctx.send(0, 2, &vec![0u8; 256 * self.rank as usize]);
        }
    }
    fn epilogue(&mut self, _ctx: &mut dyn Mpi) {}
    fn snapshot(&self) -> Vec<u8> {
        Vec::new()
    }
    fn restore(&mut self, _bytes: &[u8]) {}
}

/// The seeded race app trips MSG-RACE-001 end to end, SIG-STAB-001
/// marks the affected phases, and the pipeline downgrades the analysis
/// confidence to order-sensitive.
#[test]
fn seeded_race_app_is_order_sensitive() {
    let app = RacyApp {
        nprocs: 4,
        rounds: 5,
    };
    let base = cluster_a();
    let engine = CheckEngine::with_default_rules();
    let (analysis, _, _) =
        Pas2p::default().analyze_run(&app, &base, MappingPolicy::Block, Some(&engine));
    let report = analysis.check.as_ref().expect("report");
    assert!(
        report.has_code("MSG-RACE-001"),
        "expected MSG-RACE-001, got:\n{}",
        report.render()
    );
    assert!(
        report.has_code("SIG-STAB-001"),
        "expected SIG-STAB-001 over the racy phases, got:\n{}",
        report.render()
    );
    assert!(!report.is_clean());
    assert_eq!(report.exit_code(), 1, "warnings, not errors");
    assert_eq!(
        analysis.confidence,
        Confidence::OrderSensitive,
        "a structure-changing race inside a phase weakens the signature claim"
    );
}

/// A wildcard receive that can steal the message a named receive
/// depends on: the committed replay completed, but the adversarial
/// match-set replay wedges — MSG-RACE-002 plus DLK-POT-001.
#[test]
fn seeded_steal_trips_potential_deadlock() {
    let ev = |number: u64,
              process: u32,
              kind: EventKind,
              peer: u32,
              msg_id: u64,
              t: f64,
              wildcard: bool| TraceEvent {
        number,
        process,
        t_post: t,
        t_complete: t + 0.1,
        kind,
        peer: Some(peer),
        tag: 0,
        size: 8,
        involved: 1,
        msg_id,
        comm_id: 0,
        wildcard,
    };
    // Ranks 1 and 2 each send one message to rank 0; rank 0 posts a
    // wildcard receive (committed against rank 2's message) and then a
    // named receive from rank 1. If the wildcard instead steals rank
    // 1's only message, the named receive starves.
    let trace = Trace {
        nprocs: 3,
        machine: "synthetic".into(),
        procs: vec![
            pas2p_trace::ProcessTrace {
                process: 0,
                events: vec![
                    ev(0, 0, EventKind::Recv, 2, 2, 0.2, true),
                    ev(1, 0, EventKind::Recv, 1, 1, 0.4, false),
                ],
                end_time: 0.6,
            },
            pas2p_trace::ProcessTrace {
                process: 1,
                events: vec![ev(0, 1, EventKind::Send, 0, 1, 0.0, false)],
                end_time: 0.2,
            },
            pas2p_trace::ProcessTrace {
                process: 2,
                events: vec![ev(0, 2, EventKind::Send, 0, 2, 0.0, false)],
                end_time: 0.2,
            },
        ],
    };
    let artifacts = Artifacts {
        trace: Some(&trace),
        ..Artifacts::empty()
    };
    let report = CheckEngine::with_default_rules().run(&artifacts);
    assert!(
        report.has_code("MSG-RACE-002"),
        "expected MSG-RACE-002 (stolen message), got:\n{}",
        report.render()
    );
    assert!(
        report.has_code("DLK-POT-001"),
        "expected DLK-POT-001 (adversarial replay wedges), got:\n{}",
        report.render()
    );
    assert!(
        !report.has_code("WFG-CYCLE-001"),
        "the committed execution is deadlock-free, got:\n{}",
        report.render()
    );
    assert_eq!(report.exit_code(), 1, "potential, not observed: warning");
}

/// The parallel check engine is an implementation detail: the rendered
/// report and the SARIF export are byte-identical at any worker count,
/// over a real application's full artifact set.
#[test]
fn check_report_is_worker_count_invariant_end_to_end() {
    let app = pas2p_apps::by_name("masterworker", 8).unwrap();
    let base = cluster_a();
    let (trace, _) = run_traced(
        app.as_ref(),
        &base,
        MappingPolicy::Block,
        InstrumentationModel::default(),
    );
    let logical = pas2p_order(&trace);
    let cfg = SimilarityConfig::default();
    let analysis = extract_phases(&logical, &cfg);
    let table = PhaseTable::from_analysis(&analysis, 0.01, 0, 1);
    let artifacts = Artifacts {
        trace: Some(&trace),
        logical: Some(&logical),
        analysis: Some(&analysis),
        table: Some(&table),
        similarity: cfg,
        ingest: None,
    };
    let baseline = CheckEngine::with_default_rules().run(&artifacts);
    let rendered = baseline.render();
    let sarif = pas2p_check::to_sarif(&baseline);
    assert!(!baseline.diagnostics.is_empty(), "wildcard infos expected");
    for workers in [1usize, 4, 8] {
        let report = CheckEngine::with_default_rules()
            .with_workers(workers)
            .run(&artifacts);
        assert_eq!(
            report.render(),
            rendered,
            "rendered report differs at {workers} workers"
        );
        assert_eq!(
            pas2p_check::to_sarif(&report),
            sarif,
            "SARIF export differs at {workers} workers"
        );
    }
}
