//! Rules over the logical trace: the invariants of the PAS2P ordering
//! (paper §3.2).
//!
//! The logical trace is only useful if it is a faithful relayout of the
//! physical one: each (process, tick) holds at most one event, program
//! order survives on the tick axis, causality is respected (no receive in
//! a tick before its send), collectives occupy a single tick, and no
//! event was lost or invented.

use crate::diag::{Diagnostic, Location, Severity};
use crate::engine::Artifacts;
use pas2p_model::LogicalTrace;
use pas2p_trace::EventKind;
use std::collections::HashMap;

/// The model-level rule family (`MODEL-*`, `LT-RECV-001`, `LT-COLL-001`).
pub(crate) fn check(artifacts: &Artifacts<'_>, out: &mut Vec<Diagnostic>) {
    if let Some(analysis) = artifacts.analysis {
        check_negative_spans(analysis, out);
    }
    let Some(logical) = artifacts.logical else {
        return;
    };
    check_tick_exclusivity(logical, out);
    check_program_order(logical, out);
    check_causality(logical, out);
    check_collective_alignment(logical, out);
    if let Some(trace) = artifacts.trace {
        check_conservation(logical, trace, out);
    }
}

/// MODEL-SPAN-001: phase occurrences whose global span came out negative
/// (end boundary before start boundary). Extraction clamps them to zero
/// duration, so PET stays finite — but the clamp means the input clocks
/// disagree with the logical order and timings are suspect.
fn check_negative_spans(analysis: &pas2p_phases::PhaseAnalysis, out: &mut Vec<Diagnostic>) {
    if analysis.negative_spans > 0 {
        out.push(
            Diagnostic::new(
                "MODEL-SPAN-001",
                Severity::Warning,
                Location::none(),
                format!(
                    "{} phase occurrence(s) had negative global spans clamped to zero",
                    analysis.negative_spans
                ),
            )
            .with_suggestion(
                "input timestamps regress against the logical order; check for clock \
                 skew or corrupted times in the trace",
            ),
        );
    }
}

/// MODEL-TICK-001: "there can only be one event for each process at a
/// particular LT".
fn check_tick_exclusivity(logical: &LogicalTrace, out: &mut Vec<Diagnostic>) {
    for (t, tick) in logical.ticks.iter().enumerate() {
        let mut seen: HashMap<u32, u64> = HashMap::new();
        for e in &tick.events {
            if let Some(&first) = seen.get(&e.process) {
                out.push(Diagnostic::new(
                    "MODEL-TICK-001",
                    Severity::Error,
                    Location {
                        rank: Some(e.process),
                        tick: Some(t),
                        ..Location::default()
                    },
                    format!(
                        "tick holds two events of process {} (numbers {} and {})",
                        e.process, first, e.number
                    ),
                ));
            } else {
                seen.insert(e.process, e.number);
            }
        }
    }
}

/// MODEL-ORDER-001: per process, event numbers strictly increase along
/// the tick axis (program order survives the relayout).
fn check_program_order(logical: &LogicalTrace, out: &mut Vec<Diagnostic>) {
    let mut last: HashMap<u32, (u64, usize)> = HashMap::new();
    for (t, tick) in logical.ticks.iter().enumerate() {
        for e in &tick.events {
            if let Some(&(n, prev_t)) = last.get(&e.process) {
                if e.number <= n {
                    out.push(Diagnostic::new(
                        "MODEL-ORDER-001",
                        Severity::Error,
                        Location {
                            rank: Some(e.process),
                            event: Some(e.number),
                            tick: Some(t),
                            ..Location::default()
                        },
                        format!(
                            "process {} event {} at tick {} breaks program order \
                             (event {} already placed at tick {})",
                            e.process, e.number, t, n, prev_t
                        ),
                    ));
                }
            }
            last.insert(e.process, (e.number, t));
        }
    }
}

/// LT-RECV-001: a receive may not be placed in an earlier tick than its
/// send. (The PAS2P rule fixes a reception at send LT + 1; permutation
/// and program-order clamping may legally move it to the *same* tick or
/// later, but never before the send.)
fn check_causality(logical: &LogicalTrace, out: &mut Vec<Diagnostic>) {
    let mut send_tick: HashMap<u64, usize> = HashMap::new();
    for (t, tick) in logical.ticks.iter().enumerate() {
        for e in &tick.events {
            if e.kind == EventKind::Send && e.msg_id != 0 {
                send_tick.entry(e.msg_id).or_insert(t);
            }
        }
    }
    for (t, tick) in logical.ticks.iter().enumerate() {
        for e in &tick.events {
            if e.kind != EventKind::Recv || e.msg_id == 0 {
                continue;
            }
            if let Some(&s) = send_tick.get(&e.msg_id) {
                if t < s {
                    out.push(
                        Diagnostic::new(
                            "LT-RECV-001",
                            Severity::Error,
                            Location {
                                rank: Some(e.process),
                                event: Some(e.number),
                                tick: Some(t),
                                ..Location::default()
                            },
                            format!(
                                "receive of message {} at tick {} precedes its send at tick {}",
                                e.msg_id, t, s
                            ),
                        )
                        .with_suggestion("causality violated: the logical ordering is corrupt"),
                    );
                }
            }
        }
    }
}

/// LT-COLL-001: a collective synchronizes its members onto one tick
/// (`max(LT) + 1` for all); members of one occurrence scattered across
/// ticks mean the ordering mis-grouped them.
///
/// Occurrences repeat on the same communicator, so grouping is per tick:
/// within a tick, the members present for a `comm_id` must be the full
/// `involved` count.
fn check_collective_alignment(logical: &LogicalTrace, out: &mut Vec<Diagnostic>) {
    for (t, tick) in logical.ticks.iter().enumerate() {
        let mut groups: HashMap<u64, (u32, u32)> = HashMap::new(); // comm → (count, involved)
        for e in &tick.events {
            if e.kind.is_collective() {
                let g = groups.entry(e.comm_id).or_insert((0, e.involved));
                g.0 += 1;
            }
        }
        for (comm_id, (count, involved)) in groups {
            if count != involved {
                out.push(Diagnostic::new(
                    "LT-COLL-001",
                    Severity::Error,
                    Location::tick(t),
                    format!(
                        "collective on communicator {} has {} of {} members at tick {}",
                        comm_id, count, involved, t
                    ),
                ));
            }
        }
    }
}

/// MODEL-CONS-001: conservation — every physical event appears in the
/// logical trace exactly once, per process.
fn check_conservation(
    logical: &LogicalTrace,
    trace: &pas2p_trace::Trace,
    out: &mut Vec<Diagnostic>,
) {
    let mut counts = vec![0usize; trace.procs.len()];
    for tick in &logical.ticks {
        for e in &tick.events {
            if let Some(c) = counts.get_mut(e.process as usize) {
                *c += 1;
            }
        }
    }
    for (rank, p) in trace.procs.iter().enumerate() {
        if counts[rank] != p.events.len() {
            out.push(Diagnostic::new(
                "MODEL-CONS-001",
                Severity::Error,
                Location::rank(rank as u32),
                format!(
                    "process {} has {} events in the logical trace but {} in the source",
                    rank,
                    counts[rank],
                    p.events.len()
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CheckEngine;
    use pas2p_model::{pas2p_order, LogicalEvent, Tick};
    use pas2p_trace::{ProcessTrace, Trace, TraceEvent};

    fn ev(
        number: u64,
        process: u32,
        kind: EventKind,
        peer: Option<u32>,
        msg_id: u64,
        t: f64,
    ) -> TraceEvent {
        TraceEvent {
            number,
            process,
            t_post: t,
            t_complete: t + 0.1,
            kind,
            peer,
            tag: 0,
            size: 8,
            involved: 1,
            msg_id,
            comm_id: 0,
            wildcard: false,
        }
    }

    fn trace_of(procs: Vec<Vec<TraceEvent>>) -> Trace {
        Trace {
            nprocs: procs.len() as u32,
            machine: "test".into(),
            procs: procs
                .into_iter()
                .enumerate()
                .map(|(r, events)| ProcessTrace {
                    process: r as u32,
                    end_time: events.last().map(|e| e.t_complete).unwrap_or(0.0),
                    events,
                })
                .collect(),
        }
    }

    fn le(process: u32, number: u64, kind: EventKind, msg_id: u64) -> LogicalEvent {
        LogicalEvent {
            process,
            number,
            kind,
            peer: None,
            size: 8,
            involved: 1,
            msg_id,
            comm_id: 0,
            compute_before: 0.0,
            duration: 0.1,
            t_post: 0.0,
            t_complete: 0.1,
        }
    }

    fn run(trace: Option<&Trace>, logical: &LogicalTrace) -> Vec<Diagnostic> {
        let artifacts = Artifacts {
            trace,
            logical: Some(logical),
            ..Artifacts::empty()
        };
        CheckEngine::with_default_rules()
            .run(&artifacts)
            .diagnostics
    }

    #[test]
    fn ordered_exchange_checks_clean() {
        let t = trace_of(vec![
            vec![ev(0, 0, EventKind::Send, Some(1), 1, 0.0)],
            vec![ev(0, 1, EventKind::Recv, Some(0), 1, 1.0)],
        ]);
        let l = pas2p_order(&t);
        assert!(run(Some(&t), &l).is_empty());
    }

    #[test]
    fn swapped_ticks_violate_causality() {
        // Hand-built logical trace with the recv BEFORE the send.
        let l = LogicalTrace {
            nprocs: 2,
            ticks: vec![
                Tick {
                    events: vec![le(1, 0, EventKind::Recv, 1)],
                },
                Tick {
                    events: vec![le(0, 0, EventKind::Send, 1)],
                },
            ],
        };
        let ds = run(None, &l);
        assert!(ds.iter().any(|d| d.code == "LT-RECV-001"));
    }

    #[test]
    fn duplicate_process_in_tick_is_flagged() {
        let l = LogicalTrace {
            nprocs: 1,
            ticks: vec![Tick {
                events: vec![le(0, 0, EventKind::Send, 1), le(0, 1, EventKind::Send, 2)],
            }],
        };
        let ds = run(None, &l);
        assert!(ds.iter().any(|d| d.code == "MODEL-TICK-001"));
    }

    #[test]
    fn reversed_numbers_break_program_order() {
        let l = LogicalTrace {
            nprocs: 1,
            ticks: vec![
                Tick {
                    events: vec![le(0, 1, EventKind::Send, 1)],
                },
                Tick {
                    events: vec![le(0, 0, EventKind::Send, 2)],
                },
            ],
        };
        let ds = run(None, &l);
        assert!(ds.iter().any(|d| d.code == "MODEL-ORDER-001"));
    }

    #[test]
    fn split_collective_is_flagged() {
        let coll = |p: u32| LogicalEvent {
            involved: 2,
            comm_id: 9,
            ..le(
                p,
                0,
                EventKind::Coll(pas2p_machine::CollectiveKind::Barrier),
                0,
            )
        };
        let l = LogicalTrace {
            nprocs: 2,
            ticks: vec![
                Tick {
                    events: vec![coll(0)],
                },
                Tick {
                    events: vec![coll(1)],
                },
            ],
        };
        let ds = run(None, &l);
        assert_eq!(
            ds.iter().filter(|d| d.code == "LT-COLL-001").count(),
            2,
            "each half-tick is misaligned"
        );
    }

    #[test]
    fn dropped_event_breaks_conservation() {
        let t = trace_of(vec![
            vec![ev(0, 0, EventKind::Send, Some(1), 1, 0.0)],
            vec![ev(0, 1, EventKind::Recv, Some(0), 1, 1.0)],
        ]);
        let mut l = pas2p_order(&t);
        l.ticks.pop(); // lose the receive
        let ds = run(Some(&t), &l);
        assert!(ds.iter().any(|d| d.code == "MODEL-CONS-001"));
    }

    #[test]
    fn negative_spans_raise_a_warning() {
        let analysis = pas2p_phases::PhaseAnalysis {
            nprocs: 1,
            phases: vec![],
            aet: 1.0,
            analysis_seconds: 0.0,
            negative_spans: 2,
        };
        let artifacts = Artifacts {
            analysis: Some(&analysis),
            ..Artifacts::empty()
        };
        let r = crate::engine::CheckEngine::with_default_rules().run(&artifacts);
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.code == "MODEL-SPAN-001")
            .expect("MODEL-SPAN-001 raised");
        assert_eq!(d.severity, Severity::Warning);
        // Zero spans stay silent.
        let clean = pas2p_phases::PhaseAnalysis {
            negative_spans: 0,
            ..analysis
        };
        let artifacts = Artifacts {
            analysis: Some(&clean),
            ..Artifacts::empty()
        };
        let r = crate::engine::CheckEngine::with_default_rules().run(&artifacts);
        assert!(!r.has_code("MODEL-SPAN-001"));
    }
}
