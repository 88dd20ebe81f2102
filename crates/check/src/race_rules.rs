//! Happens-before rules: message races, potential deadlocks, and
//! signature order-stability.
//!
//! These rules attack the paper's central assumption — that the traced
//! logical order *is* the application's order. A wildcard receive admits
//! any compatible concurrent send; the run commits one. The rules here
//! classify how much that commitment matters:
//!
//! * `MSG-RACE-001` — a wildcard receive has an alternative concurrent
//!   send of a **different size** than the committed one: another
//!   interleaving records a different event structure, so the phase
//!   analysis and signature built from this trace are order-dependent.
//! * `MSG-RACE-002` — a send consumed by a **deterministic** (named
//!   source) receive is a feasible alternative for a wildcard receive:
//!   the wildcard can steal it, changing the deterministic receive's
//!   message — the matching is order-dependent across receives.
//! * `WILD-RECV-002` (Info) — the match set is order-dependent but
//!   *structurally symmetric*: every concurrent alternative carries the
//!   same size and no deterministic receive competes, so any commit
//!   yields the same event structure and the signature is stable.
//! * `DLK-POT-001` — match-set exploration found an interleaving in
//!   which a blocking operation's every candidate match is transitively
//!   blocked: the committed run completed, but an adversarial wildcard
//!   matching wedges. `WFG-CYCLE-001` replays only the committed
//!   interleaving and cannot see these. Both walk the events through
//!   the one replay, [`pas2p_trace::replay`].
//! * `SIG-STAB-001` — a phase's occurrences overlap a message-race
//!   window, so its PhaseET/weight — and every prediction using them —
//!   are order-sensitive. The pipeline downgrades the analysis
//!   [`Confidence`](pas2p_trace::Confidence) to `OrderSensitive` when
//!   this fires.

use crate::diag::{Diagnostic, Location, Severity};
use crate::engine::Artifacts;
use crate::hb::HbAnalysis;
use pas2p_obs::Counter;
use pas2p_trace::{
    match_sets, replay, CandidateSend, EventKind, MatchSets, Trace, TraceEvent, WildcardMatch,
};
use std::collections::{BTreeMap, HashMap, VecDeque};

static WILDCARDS: Counter = Counter::new("check.hb.wildcards");
static CANDIDATES: Counter = Counter::new("check.hb.candidates");
static RACES: Counter = Counter::new("check.hb.races");
static POTENTIAL_DEADLOCKS: Counter = Counter::new("check.hb.potential_deadlocks");
static STEALS: Counter = Counter::new("check.hb.steals");

/// The happens-before rule family (`MSG-RACE-00x`, `DLK-POT-001`,
/// `WILD-RECV-002`, `SIG-STAB-001`).
pub(crate) fn check(artifacts: &Artifacts<'_>, out: &mut Vec<Diagnostic>) {
    let Some(trace) = artifacts.trace else {
        return;
    };
    let sets = match_sets(trace);
    if sets.is_deterministic() {
        // No wildcard receives: the committed order is the only
        // order; nothing here can fire and the (quadratic in
        // match-set size) clock analysis is skipped entirely.
        return;
    }
    WILDCARDS.add(sets.wildcards.len() as u64);
    CANDIDATES.add(sets.total_candidates() as u64);
    let hb = HbAnalysis::compute(trace);
    let race_events = check_races(trace, &sets, &hb, out);
    if hb.complete {
        check_potential_deadlock(trace, &sets, out);
    }
    check_sig_stability(artifacts, &race_events, out);
}

/// A structure-changing race at one wildcard receive: the receive plus
/// the concurrent alternatives, in trace coordinates — the raw material
/// for `SIG-STAB-001` windows.
struct RaceWindow {
    recv: (u32, usize),
    alts: Vec<(u32, usize)>,
}

/// Feasibility of an alternative candidate `s` for wildcard receive `w`:
/// the run could have delivered `s` to `w` instead of the committed
/// message.
fn feasible(w: &WildcardMatch, s: &CandidateSend, sets: &MatchSets, hb: &HbAnalysis) -> bool {
    if s.msg_id == w.committed_msg {
        return false;
    }
    // Same-channel alternatives are serialized by MPI's non-overtaking
    // rule: swapping them permutes nothing observable at this receive.
    if Some(s.src) == w.committed_src {
        return false;
    }
    // A send causally after the receive can never have matched it.
    if hb.happens_before((w.rank, w.index), (s.src, s.index)) {
        return false;
    }
    // A send the committed run delivered to a deterministic receive that
    // happens-before `w` was already consumed when `w` matched; only
    // wildcard consumers (whose own match was a free choice) or
    // not-yet-ordered consumers leave the message up for grabs.
    !matches!(
        sets.committed.get(&s.msg_id),
        Some(r) if !r.wildcard && hb.happens_before((r.rank, r.index), (w.rank, w.index))
    )
}

/// MSG-RACE-001/002 and WILD-RECV-002 over every wildcard receive.
/// Returns the structure-changing race windows for `SIG-STAB-001`.
fn check_races(
    trace: &Trace,
    sets: &MatchSets,
    hb: &HbAnalysis,
    out: &mut Vec<Diagnostic>,
) -> Vec<RaceWindow> {
    let mut windows = Vec::new();
    // Symmetric (Info-level) races aggregate per rank to keep reports
    // readable: rank → (symmetric receives, max candidate count).
    let mut symmetric: BTreeMap<u32, (usize, usize)> = BTreeMap::new();

    for w in &sets.wildcards {
        let committed = w.candidates.iter().find(|c| c.msg_id == w.committed_msg);
        let alts: Vec<&CandidateSend> = w
            .candidates
            .iter()
            .filter(|c| feasible(w, c, sets, hb))
            .collect();
        // The race condition proper: an alternative concurrent with the
        // committed send (or, with no committed send recorded — a
        // damaged relation — two mutually concurrent alternatives).
        let racy: Vec<&CandidateSend> = match committed {
            Some(c) => alts
                .iter()
                .copied()
                .filter(|a| hb.concurrent((c.src, c.index), (a.src, a.index)))
                .collect(),
            None => {
                let mut mutual = Vec::new();
                for (i, a) in alts.iter().enumerate() {
                    if alts
                        .iter()
                        .skip(i + 1)
                        .any(|b| hb.concurrent((a.src, a.index), (b.src, b.index)))
                        || mutual.iter().any(|m: &&CandidateSend| {
                            hb.concurrent((m.src, m.index), (a.src, a.index))
                        })
                    {
                        mutual.push(*a);
                    }
                }
                mutual
            }
        };
        if racy.is_empty() {
            continue;
        }
        let committed_size = committed.map_or_else(
            || trace.procs[w.rank as usize].events[w.index].size,
            |c| c.size,
        );
        let size_changing: Vec<&&CandidateSend> =
            racy.iter().filter(|a| a.size != committed_size).collect();
        let stolen: Vec<&&CandidateSend> = racy
            .iter()
            .filter(|a| sets.committed.get(&a.msg_id).is_some_and(|r| !r.wildcard))
            .collect();

        if !size_changing.is_empty() {
            let a = size_changing[0];
            out.push(
                Diagnostic::new(
                    "MSG-RACE-001",
                    Severity::Warning,
                    Location::event(w.rank, w.number),
                    format!(
                        "wildcard receive committed to rank {} ({} bytes) but {} concurrent \
                         send(s) could have matched instead, e.g. rank {} event {} ({} bytes): \
                         the recorded event structure is one of several the program admits",
                        w.committed_src.map_or(-1i64, |s| s as i64),
                        committed_size,
                        racy.len(),
                        a.src,
                        a.number,
                        a.size
                    ),
                )
                .with_suggestion(
                    "phases and signatures built from this trace are order-dependent; \
                     name the source or make the payloads symmetric",
                ),
            );
            windows.push(RaceWindow {
                recv: (w.rank, w.index),
                alts: racy.iter().map(|a| (a.src, a.index)).collect(),
            });
        } else if !stolen.is_empty() {
            let a = stolen[0];
            out.push(
                Diagnostic::new(
                    "MSG-RACE-002",
                    Severity::Warning,
                    Location::event(w.rank, w.number),
                    format!(
                        "wildcard receive can steal the message of rank {} event {}, which the \
                         committed run delivered to a deterministic receive: the matching is \
                         order-dependent across receives",
                        a.src, a.number
                    ),
                )
                .with_suggestion(
                    "a named-source receive competes with this wildcard for the same \
                     message; see DLK-POT-001 for the deadlock this can cause",
                ),
            );
            windows.push(RaceWindow {
                recv: (w.rank, w.index),
                alts: racy.iter().map(|a| (a.src, a.index)).collect(),
            });
        } else {
            let entry = symmetric.entry(w.rank).or_insert((0, 0));
            entry.0 += 1;
            entry.1 = entry.1.max(racy.len() + 1);
        }
    }

    for (rank, (recvs, set)) in symmetric {
        out.push(
            Diagnostic::new(
                "WILD-RECV-002",
                Severity::Info,
                Location::rank(rank),
                format!(
                    "{} wildcard receive(s) have concurrent match sets (up to {} candidate \
                     senders) that are structurally symmetric: any commit records the same \
                     event sizes, so the signature is order-stable",
                    recvs, set
                ),
            )
            .with_suggestion(
                "benign nondeterminism: only the source permutation varies between runs",
            ),
        );
    }

    if !windows.is_empty() {
        RACES.add(windows.len() as u64);
    }
    windows
}

/// `DLK-POT-001`: adversarial match-set replay.
///
/// Replays the traced communication ([`pas2p_trace::replay`]) with
/// wildcard receives matched *adversarially*: when a wildcard can fire,
/// it consumes from the compatible channel with the least surplus
/// (remaining sends minus remaining deterministic demand), i.e. it steals
/// the messages named receives depend on. Channel FIFO and collective
/// completion are respected, so any wedge found corresponds to a legal
/// interleaving the committed replay never explored. A greedy single
/// pass — complete match-set enumeration is exponential — so a clean
/// result is not a proof of deadlock freedom; a wedge is a real hazard.
fn check_potential_deadlock(trace: &Trace, sets: &MatchSets, out: &mut Vec<Diagnostic>) {
    let n = trace.procs.len();
    // Live channel state: queued msg_ids, produced-so-far, remaining
    // deterministic demand. Totals come from the match-set accounting.
    struct Chan {
        queue: VecDeque<u64>,
        produced: u64,
        total: u64,
        det_left: u64,
    }
    let mut chans: HashMap<(u32, u32, u32), Chan> = sets
        .channels
        .iter()
        .map(|(&k, s)| {
            (
                k,
                Chan {
                    queue: VecDeque::new(),
                    produced: 0,
                    total: s.sends,
                    det_left: s.det_recvs,
                },
            )
        })
        .collect();

    let mut steals = 0u64;
    let mut first_steal: Option<(u32, u64, u32)> = None; // (wild rank, number, victim src)
    let step = |chans: &mut HashMap<(u32, u32, u32), Chan>, _, _, e: &TraceEvent| {
        if e.kind == EventKind::Send {
            if let Some(c) = e
                .peer
                .and_then(|dst| chans.get_mut(&(e.process, dst, e.tag)))
            {
                c.queue.push_back(e.msg_id);
                c.produced += 1;
            }
            return true;
        }
        if !e.wildcard {
            // No send ever targets this channel (or the receive names no
            // source): the unmatched receive is P2P-MATCH-002's finding,
            // not a deadlock of this replay.
            let Some(c) = e
                .peer
                .and_then(|src| chans.get_mut(&(src, e.process, e.tag)))
            else {
                return true;
            };
            // Sends still coming, or already consumed (stolen): wait — a
            // permanent wait is the wedge this replay exists to find.
            if c.queue.pop_front().is_none() && c.total != 0 {
                return false;
            }
            c.det_left = c.det_left.saturating_sub(1);
            return true;
        }
        // Wildcard: adversary picks among non-empty compatible channels
        // the one with the least surplus, stealing contested messages
        // first.
        let mut any_possible = false;
        let best = chans
            .iter()
            .filter(|(&(_, dst, tag), _)| dst == e.process && tag == e.tag)
            .filter_map(|(&key, c)| {
                let remaining = c.queue.len() as i64 + (c.total - c.produced) as i64;
                any_possible |= remaining > 0;
                let surplus = remaining - c.det_left as i64;
                // One channel per source here, so the key has no ties.
                (!c.queue.is_empty()).then_some(((surplus, key.0), key))
            })
            .min();
        let Some(((surplus, _), key)) = best else {
            // Messages still coming: wait. None will ever exist: mirror
            // the committed replay's missing-send bypass.
            return !any_possible;
        };
        let c = chans.get_mut(&key).expect("selected channel exists");
        c.queue.pop_front();
        if surplus <= 0 && c.det_left > 0 {
            steals += 1;
            first_steal.get_or_insert((e.process, e.number, key.0));
        }
        true
    };
    let idx = replay(trace, &mut chans, step, |_, _, _| {});

    let stuck: Vec<usize> = (0..n)
        .filter(|&r| idx[r] < trace.procs[r].events.len())
        .collect();
    if stuck.is_empty() {
        return;
    }
    let steal_note = match first_steal {
        Some((wr, wn, victim)) => format!(
            " (the wildcard receive at rank {} event {} can take the message rank {} was \
             counted on to provide)",
            wr, wn, victim
        ),
        None => String::new(),
    };
    let ops: Vec<String> = stuck
        .iter()
        .map(|&r| {
            let e = &trace.procs[r].events[idx[r]];
            format!("rank {} event {}", r, e.number)
        })
        .collect();
    out.push(
        Diagnostic::new(
            "DLK-POT-001",
            Severity::Warning,
            Location::event(
                stuck[0] as u32,
                trace.procs[stuck[0]].events[idx[stuck[0]]].number,
            ),
            format!(
                "potential deadlock: under an alternative wildcard matching, {} block(s) \
                 forever with every candidate match transitively blocked ({}){}",
                stuck.len(),
                ops.join(", "),
                steal_note
            ),
        )
        .with_suggestion(
            "the committed run completed, but the match set admits a wedging \
             interleaving; order the receives or name their sources",
        ),
    );
    POTENTIAL_DEADLOCKS.inc();
    STEALS.add(steals);
}

/// `SIG-STAB-001`: phases whose occurrences overlap a race window.
fn check_sig_stability(artifacts: &Artifacts<'_>, races: &[RaceWindow], out: &mut Vec<Diagnostic>) {
    if races.is_empty() {
        return;
    }
    let (Some(trace), Some(logical), Some(analysis)) =
        (artifacts.trace, artifacts.logical, artifacts.analysis)
    else {
        return;
    };
    let positions = logical.tick_positions();
    let tick_of = |(rank, index): (u32, usize)| -> Option<usize> {
        let number = trace.procs.get(rank as usize)?.events.get(index)?.number;
        positions.get(&(rank, number)).copied()
    };
    // A race window spans the ticks of the receive and every racy send.
    let mut windows: Vec<(usize, usize)> = Vec::new();
    for r in races {
        let mut ticks: Vec<usize> = r.alts.iter().copied().filter_map(tick_of).collect();
        if let Some(t) = tick_of(r.recv) {
            ticks.push(t);
        }
        if let (Some(&lo), Some(&hi)) = (ticks.iter().min(), ticks.iter().max()) {
            windows.push((lo, hi));
        }
    }
    if windows.is_empty() {
        return;
    }
    for phase in &analysis.phases {
        let affected = phase
            .occurrences
            .iter()
            .filter(|o| {
                windows
                    .iter()
                    .any(|&(lo, hi)| o.start_tick <= hi && lo < o.end_tick)
            })
            .count();
        if affected > 0 {
            out.push(
                Diagnostic::new(
                    "SIG-STAB-001",
                    Severity::Warning,
                    Location::phase(phase.id),
                    format!(
                        "{} of {} occurrence(s) of this phase overlap a message-race window: \
                         its PhaseET and weight — and any prediction using them — are \
                         order-sensitive",
                        affected,
                        phase.occurrences.len()
                    ),
                )
                .with_suggestion(
                    "the analysis confidence is downgraded to order-sensitive; re-run \
                     with deterministic matching or average across interleavings",
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CheckEngine;
    use pas2p_trace::{ProcessTrace, TraceEvent};

    /// One event, each field the tests vary an argument.
    #[allow(clippy::too_many_arguments)]
    fn ev(
        number: u64,
        process: u32,
        kind: EventKind,
        peer: Option<u32>,
        tag: u32,
        msg_id: u64,
        size: u64,
        wildcard: bool,
    ) -> TraceEvent {
        TraceEvent {
            number,
            process,
            t_post: number as f64,
            t_complete: number as f64 + 0.1,
            kind,
            peer,
            tag,
            size,
            involved: 1,
            msg_id,
            comm_id: 0,
            wildcard,
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

    fn run(trace: &Trace) -> Vec<Diagnostic> {
        let artifacts = Artifacts {
            trace: Some(trace),
            ..Artifacts::empty()
        };
        CheckEngine::with_default_rules()
            .run(&artifacts)
            .diagnostics
    }

    /// Two concurrent senders with different payloads racing for two
    /// wildcard receives: the committed structure is one of two.
    fn racy_trace() -> Trace {
        trace_of(vec![
            vec![
                ev(0, 0, EventKind::Recv, Some(1), 9, 1, 512, true),
                ev(1, 0, EventKind::Recv, Some(2), 9, 2, 2048, true),
            ],
            vec![ev(0, 1, EventKind::Send, Some(0), 9, 1, 512, false)],
            vec![ev(0, 2, EventKind::Send, Some(0), 9, 2, 2048, false)],
        ])
    }

    #[test]
    fn size_changing_race_is_msg_race_001() {
        let ds = run(&racy_trace());
        assert!(
            ds.iter()
                .any(|d| d.code == "MSG-RACE-001" && d.severity == Severity::Warning),
            "got: {:?}",
            ds
        );
        assert!(!ds.iter().any(|d| d.code == "WILD-RECV-002"));
    }

    #[test]
    fn symmetric_race_is_info_only() {
        // Same payloads: order-dependent match, stable structure.
        let t = trace_of(vec![
            vec![
                ev(0, 0, EventKind::Recv, Some(1), 9, 1, 64, true),
                ev(1, 0, EventKind::Recv, Some(2), 9, 2, 64, true),
            ],
            vec![ev(0, 1, EventKind::Send, Some(0), 9, 1, 64, false)],
            vec![ev(0, 2, EventKind::Send, Some(0), 9, 2, 64, false)],
        ]);
        let ds = run(&t);
        assert!(ds
            .iter()
            .any(|d| d.code == "WILD-RECV-002" && d.severity == Severity::Info));
        assert!(!ds.iter().any(|d| d.code.starts_with("MSG-RACE")));
        assert!(!ds.iter().any(|d| d.code == "DLK-POT-001"));
    }

    #[test]
    fn wildcard_steal_starves_named_receive() {
        // Rank 0: wildcard recv (committed to rank 2's message), then a
        // named recv from rank 1. If the wildcard takes rank 1's
        // message instead, the named receive blocks forever.
        let t = trace_of(vec![
            vec![
                ev(0, 0, EventKind::Recv, Some(2), 5, 2, 64, true),
                ev(1, 0, EventKind::Recv, Some(1), 5, 1, 64, false),
            ],
            vec![ev(0, 1, EventKind::Send, Some(0), 5, 1, 64, false)],
            vec![ev(0, 2, EventKind::Send, Some(0), 5, 2, 64, false)],
        ]);
        let ds = run(&t);
        assert!(ds.iter().any(|d| d.code == "DLK-POT-001"), "got: {:?}", ds);
        assert!(ds.iter().any(|d| d.code == "MSG-RACE-002"));
        // The committed interleaving completes, so no WFG cycle.
        assert!(!ds.iter().any(|d| d.code == "WFG-CYCLE-001"));
    }

    #[test]
    fn ordered_senders_do_not_race() {
        // Rank 1 sends, rank 2 receives a token from rank 1 before its
        // own send: the two candidate sends are HB-ordered, not racy.
        let t = trace_of(vec![
            vec![
                ev(0, 0, EventKind::Recv, Some(1), 9, 1, 64, true),
                ev(1, 0, EventKind::Recv, Some(2), 9, 3, 128, true),
            ],
            vec![
                ev(0, 1, EventKind::Send, Some(0), 9, 1, 64, false),
                ev(1, 1, EventKind::Send, Some(2), 7, 2, 8, false),
            ],
            vec![
                ev(0, 2, EventKind::Recv, Some(1), 7, 2, 8, false),
                ev(1, 2, EventKind::Send, Some(0), 9, 3, 128, false),
            ],
        ]);
        let ds = run(&t);
        assert!(
            !ds.iter().any(|d| d.code.starts_with("MSG-RACE")),
            "HB-ordered senders must not race, got: {:?}",
            ds
        );
    }

    #[test]
    fn deterministic_trace_emits_nothing() {
        let t = trace_of(vec![
            vec![ev(0, 0, EventKind::Send, Some(1), 0, 1, 8, false)],
            vec![ev(0, 1, EventKind::Recv, Some(0), 0, 1, 8, false)],
        ]);
        assert!(run(&t).is_empty());
    }
}
