//! Rules over the physical trace: point-to-point matching, wildcard
//! receives, and communication deadlock (wait-for-graph) analysis.
//!
//! These are the checks a PMPI-level linter can make before any modeling:
//! every receive needs a send, matched pairs must agree on endpoints, tag
//! and volume, and the message-passing order must admit at least one
//! deadlock-free execution: `WFG-CYCLE-001` walks the events through
//! [`pas2p_trace::replay`] under the committed matching rule it shares
//! with the happens-before clocks (`Committed`).

use crate::diag::{Diagnostic, Location, Severity};
use crate::engine::Artifacts;
use crate::hb::Committed;
use pas2p_trace::{replay, EventKind, Trace, TraceEvent};
use std::collections::HashMap;

/// The trace-level rule family (`P2P-MATCH-*`, `WILD-RECV-001`,
/// `WFG-CYCLE-001`).
pub(crate) fn check(artifacts: &Artifacts<'_>, out: &mut Vec<Diagnostic>) {
    let Some(trace) = artifacts.trace else {
        return;
    };
    check_p2p_matching(trace, out);
    check_wildcards(trace, out);
    check_deadlock(trace, out);
}

/// A p2p event's matching-relevant fields.
struct End<'a> {
    e: &'a TraceEvent,
}

fn p2p_events(trace: &Trace, kind: EventKind) -> HashMap<u64, Vec<End<'_>>> {
    let mut map: HashMap<u64, Vec<End<'_>>> = HashMap::new();
    for p in &trace.procs {
        for e in &p.events {
            // msg_id 0 means "no relation recorded" (the model skips these
            // too); such events cannot be matched and are not flagged.
            if e.kind == kind && e.msg_id != 0 {
                map.entry(e.msg_id).or_default().push(End { e });
            }
        }
    }
    map
}

fn check_p2p_matching(trace: &Trace, out: &mut Vec<Diagnostic>) {
    let sends = p2p_events(trace, EventKind::Send);
    let mut recvs = p2p_events(trace, EventKind::Recv);

    let mut msg_ids: Vec<u64> = sends.keys().copied().collect();
    msg_ids.sort_unstable();
    for msg_id in msg_ids {
        let ss = &sends[&msg_id];
        let rs = recvs.remove(&msg_id).unwrap_or_default();
        // Pair in order; extras on either side are unmatched.
        for (s, r) in ss.iter().zip(&rs) {
            check_pair(msg_id, s.e, r.e, out);
        }
        for s in ss.iter().skip(rs.len()) {
            out.push(
                Diagnostic::new(
                    "P2P-MATCH-001",
                    Severity::Warning,
                    Location::event(s.e.process, s.e.number),
                    format!(
                        "send of message {} to rank {} has no matching receive",
                        msg_id,
                        s.e.peer.map_or(-1i64, |p| p as i64)
                    ),
                )
                .with_suggestion("the message is still in flight at exit or the receive was lost"),
            );
        }
        for r in rs.iter().skip(ss.len()) {
            unmatched_recv(msg_id, r.e, out);
        }
    }
    let mut rest: Vec<u64> = recvs.keys().copied().collect();
    rest.sort_unstable();
    for msg_id in rest {
        for r in &recvs[&msg_id] {
            unmatched_recv(msg_id, r.e, out);
        }
    }
}

fn unmatched_recv(msg_id: u64, r: &TraceEvent, out: &mut Vec<Diagnostic>) {
    out.push(
        Diagnostic::new(
            "P2P-MATCH-002",
            Severity::Error,
            Location::event(r.process, r.number),
            format!("receive of message {} has no matching send", msg_id),
        )
        .with_suggestion("a send event is missing from the trace; the relation field is broken"),
    );
}

fn check_pair(msg_id: u64, s: &TraceEvent, r: &TraceEvent, out: &mut Vec<Diagnostic>) {
    if s.size != r.size {
        out.push(Diagnostic::new(
            "P2P-MATCH-003",
            Severity::Error,
            Location::event(r.process, r.number),
            format!(
                "message {}: send carries {} bytes but receive records {}",
                msg_id, s.size, r.size
            ),
        ));
    }
    let endpoints_ok = s.peer == Some(r.process) && r.peer == Some(s.process);
    if !endpoints_ok {
        out.push(Diagnostic::new(
            "P2P-MATCH-004",
            Severity::Error,
            Location::event(r.process, r.number),
            format!(
                "message {}: send {}→{:?} does not line up with receive on rank {} from {:?}",
                msg_id, s.process, s.peer, r.process, r.peer
            ),
        ));
    }
    if s.tag != r.tag {
        out.push(Diagnostic::new(
            "P2P-MATCH-005",
            Severity::Error,
            Location::event(r.process, r.number),
            format!(
                "message {}: send tagged {} but receive tagged {}",
                msg_id, s.tag, r.tag
            ),
        ));
    }
}

fn check_wildcards(trace: &Trace, out: &mut Vec<Diagnostic>) {
    for p in &trace.procs {
        let n = p
            .events
            .iter()
            .filter(|e| e.wildcard && e.kind == EventKind::Recv)
            .count();
        if n > 0 {
            out.push(
                Diagnostic::new(
                    "WILD-RECV-001",
                    Severity::Info,
                    Location::rank(p.process),
                    format!(
                        "{} receive(s) posted with a wildcard source (MPI_ANY_SOURCE)",
                        n
                    ),
                )
                .with_suggestion(
                    "informational census of wildcard receives; the \
                     happens-before rules (MSG-RACE-*, DLK-POT-*) report \
                     the actionable subset whose match set actually admits \
                     more than one concurrent sender",
                ),
            );
        }
    }
}

/// The committed replay ([`pas2p_trace::replay`] under `Committed`):
/// if it wedges, the traced order admits no deadlock-free execution, and
/// the wait-for graph among the stuck ranks says whether they wait on
/// each other in a cycle.
fn check_deadlock(trace: &Trace, out: &mut Vec<Diagnostic>) {
    let n = trace.procs.len();
    let mut rule = Committed::new(trace);
    let idx = replay(trace, &mut rule, |rule, _, _, e| rule.step(e), |_, _, _| {});

    let stuck: Vec<usize> = (0..n)
        .filter(|&p| idx[p] < trace.procs[p].events.len())
        .collect();
    if stuck.is_empty() {
        return;
    }

    // Wait-for edges among stuck processes.
    let mut waits: HashMap<usize, Vec<usize>> = HashMap::new();
    for &p in &stuck {
        let e = &trace.procs[p].events[idx[p]];
        match e.kind {
            EventKind::Recv => {
                if let Some(&q) = rule.sender.get(&e.msg_id) {
                    waits.entry(p).or_default().push(q as usize);
                }
            }
            EventKind::Coll(_) => {
                // Waits on every stuck process that still has this
                // collective ahead of it but is not at it yet.
                for &q in &stuck {
                    if q == p {
                        continue;
                    }
                    let has_it_later = trace.procs[q].events[idx[q]..]
                        .iter()
                        .any(|x| x.kind.is_collective() && x.comm_id == e.comm_id);
                    let at_it = trace.procs[q].events[idx[q]].kind.is_collective()
                        && trace.procs[q].events[idx[q]].comm_id == e.comm_id;
                    if has_it_later && !at_it {
                        waits.entry(p).or_default().push(q);
                    }
                }
            }
            EventKind::Send => {}
        }
    }

    let cycle = find_cycle(&stuck, &waits);
    let (loc, message) = match cycle {
        Some(c) => (
            Location::rank(c[0] as u32),
            format!(
                "communication deadlock: ranks {} wait on each other in a cycle",
                c.iter()
                    .map(|p| p.to_string())
                    .collect::<Vec<_>>()
                    .join(" → ")
            ),
        ),
        None => (
            Location::rank(stuck[0] as u32),
            format!(
                "replay wedged: rank(s) {} block forever (peer exited or collective \
                 never completes)",
                stuck
                    .iter()
                    .map(|p| p.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
    };
    out.push(
        Diagnostic::new("WFG-CYCLE-001", Severity::Error, loc, message)
            .with_suggestion("the traced order admits no deadlock-free execution"),
    );
}

/// DFS for a cycle in the wait-for graph; returns the cycle's nodes.
fn find_cycle(stuck: &[usize], waits: &HashMap<usize, Vec<usize>>) -> Option<Vec<usize>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Grey,
        Black,
    }
    let mut mark: HashMap<usize, Mark> = stuck.iter().map(|&p| (p, Mark::White)).collect();
    let mut stack: Vec<usize> = Vec::new();

    fn dfs(
        u: usize,
        waits: &HashMap<usize, Vec<usize>>,
        mark: &mut HashMap<usize, Mark>,
        stack: &mut Vec<usize>,
    ) -> Option<Vec<usize>> {
        mark.insert(u, Mark::Grey);
        stack.push(u);
        if let Some(vs) = waits.get(&u).cloned() {
            for v in vs {
                match mark.get(&v).copied() {
                    Some(Mark::Grey) => {
                        let pos = stack.iter().position(|&x| x == v).unwrap_or(0);
                        return Some(stack[pos..].to_vec());
                    }
                    Some(Mark::White) => {
                        if let Some(c) = dfs(v, waits, mark, stack) {
                            return Some(c);
                        }
                    }
                    _ => {}
                }
            }
        }
        mark.insert(u, Mark::Black);
        stack.pop();
        None
    }

    for &p in stuck {
        if matches!(mark.get(&p), Some(Mark::White)) {
            if let Some(c) = dfs(p, waits, &mut mark, &mut stack) {
                return Some(c);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CheckEngine;
    use pas2p_trace::ProcessTrace;

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

    fn run(trace: &Trace) -> Vec<Diagnostic> {
        let artifacts = Artifacts {
            trace: Some(trace),
            ..Artifacts::empty()
        };
        CheckEngine::with_default_rules()
            .run(&artifacts)
            .diagnostics
    }

    #[test]
    fn matched_exchange_is_clean() {
        let t = trace_of(vec![
            vec![ev(0, 0, EventKind::Send, Some(1), 1, 0.0)],
            vec![ev(0, 1, EventKind::Recv, Some(0), 1, 1.0)],
        ]);
        assert!(run(&t).is_empty());
    }

    #[test]
    fn dropped_recv_flags_unmatched_send() {
        let t = trace_of(vec![
            vec![ev(0, 0, EventKind::Send, Some(1), 1, 0.0)],
            vec![],
        ]);
        let ds = run(&t);
        assert!(ds.iter().any(|d| d.code == "P2P-MATCH-001"));
    }

    #[test]
    fn recv_without_send_is_an_error() {
        let t = trace_of(vec![
            vec![],
            vec![ev(0, 1, EventKind::Recv, Some(0), 1, 1.0)],
        ]);
        let ds = run(&t);
        assert!(ds
            .iter()
            .any(|d| d.code == "P2P-MATCH-002" && d.severity == Severity::Error));
    }

    #[test]
    fn size_and_tag_mismatches_are_flagged() {
        let mut s = ev(0, 0, EventKind::Send, Some(1), 1, 0.0);
        s.size = 100;
        s.tag = 7;
        let t = trace_of(vec![
            vec![s],
            vec![ev(0, 1, EventKind::Recv, Some(0), 1, 1.0)],
        ]);
        let ds = run(&t);
        assert!(ds.iter().any(|d| d.code == "P2P-MATCH-003"));
        assert!(ds.iter().any(|d| d.code == "P2P-MATCH-005"));
    }

    #[test]
    fn endpoint_swap_is_flagged() {
        // Send claims dest 1 but the receive happens on rank 2 (corrupted
        // relation).
        let t = trace_of(vec![
            vec![ev(0, 0, EventKind::Send, Some(1), 1, 0.0)],
            vec![],
            vec![ev(0, 2, EventKind::Recv, Some(0), 1, 1.0)],
        ]);
        let ds = run(&t);
        assert!(ds.iter().any(|d| d.code == "P2P-MATCH-004"));
    }

    #[test]
    fn wildcard_recvs_are_reported_as_info() {
        let mut r = ev(0, 1, EventKind::Recv, Some(0), 1, 1.0);
        r.wildcard = true;
        let t = trace_of(vec![
            vec![ev(0, 0, EventKind::Send, Some(1), 1, 0.0)],
            vec![r],
        ]);
        let ds = run(&t);
        let w: Vec<_> = ds.iter().filter(|d| d.code == "WILD-RECV-001").collect();
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].severity, Severity::Info);
    }

    #[test]
    fn crossed_recv_order_deadlocks() {
        // P0 receives m2 before sending m1; P1 receives m1 before sending
        // m2 — the classic head-to-head deadlock.
        let t = trace_of(vec![
            vec![
                ev(0, 0, EventKind::Recv, Some(1), 2, 0.0),
                ev(1, 0, EventKind::Send, Some(1), 1, 1.0),
            ],
            vec![
                ev(0, 1, EventKind::Recv, Some(0), 1, 0.0),
                ev(1, 1, EventKind::Send, Some(0), 2, 1.0),
            ],
        ]);
        let ds = run(&t);
        assert!(ds
            .iter()
            .any(|d| d.code == "WFG-CYCLE-001" && d.message.contains("cycle")));
    }

    #[test]
    fn a_receive_no_send_carries_is_not_a_deadlock() {
        let t = trace_of(vec![
            vec![],
            vec![ev(0, 1, EventKind::Recv, Some(0), 1, 1.0)],
        ]);
        let ds = run(&t);
        assert!(ds.iter().any(|d| d.code == "P2P-MATCH-002"));
        assert!(!ds.iter().any(|d| d.code == "WFG-CYCLE-001"), "{ds:?}");
    }

    #[test]
    fn a_duplicated_msg_id_waits_on_its_first_sender() {
        // Ranks 1 and 2 both send message 5 (a corrupt relation), each
        // after a receive rank 0 sends only once it got message 5. The
        // wait-for edge goes to the first send in trace order: rank 1.
        let t = trace_of(vec![
            vec![
                ev(0, 0, EventKind::Recv, Some(1), 5, 0.0),
                ev(1, 0, EventKind::Send, Some(1), 7, 1.0),
                ev(2, 0, EventKind::Send, Some(2), 8, 2.0),
            ],
            vec![
                ev(0, 1, EventKind::Recv, Some(0), 7, 0.0),
                ev(1, 1, EventKind::Send, Some(0), 5, 1.0),
            ],
            vec![
                ev(0, 2, EventKind::Recv, Some(0), 8, 0.0),
                ev(1, 2, EventKind::Send, Some(0), 5, 1.0),
            ],
        ]);
        let ds = run(&t);
        assert!(
            ds.iter().any(|d| d.code == "WFG-CYCLE-001"
                && d.message.contains("ranks 0 → 1 wait on each other")),
            "{ds:?}"
        );
    }

    #[test]
    fn collectives_and_p2p_interleave_without_deadlock() {
        let coll = |p: u32, n: u64, t: f64| TraceEvent {
            involved: 2,
            comm_id: 42,
            ..ev(
                n,
                p,
                EventKind::Coll(pas2p_machine::CollectiveKind::Barrier),
                None,
                0,
                t,
            )
        };
        let t = trace_of(vec![
            vec![ev(0, 0, EventKind::Send, Some(1), 1, 0.0), coll(0, 1, 1.0)],
            vec![ev(0, 1, EventKind::Recv, Some(0), 1, 0.5), coll(1, 1, 1.0)],
        ]);
        assert!(run(&t).is_empty());
    }

    #[test]
    fn missing_collective_member_wedges_replay() {
        let coll = |p: u32, n: u64, t: f64| TraceEvent {
            involved: 2,
            comm_id: 42,
            ..ev(
                n,
                p,
                EventKind::Coll(pas2p_machine::CollectiveKind::Barrier),
                None,
                0,
                t,
            )
        };
        // Rank 1 never reaches the barrier.
        let t = trace_of(vec![vec![coll(0, 0, 1.0)], vec![]]);
        let ds = run(&t);
        assert!(ds.iter().any(|d| d.code == "WFG-CYCLE-001"));
    }
}
