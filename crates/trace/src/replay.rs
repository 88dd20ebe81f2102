//! One replay of the traced communication: the rule for when a traced
//! event can happen, stated once.
//!
//! A point-to-point event runs when the caller's `step` accepts it: a
//! send at once, a receive after whatever the caller says it waits for.
//! A collective runs once every one of its `involved` members sits at the
//! same communicator. The replay repeats both until nothing moves; a rank
//! that stopped short of its last event is wedged.
//!
//! Every rule that walks a trace in an executable order is a caller and
//! keeps only what differs: `WFG-CYCLE-001` (the committed matching and a
//! wait-for graph), the happens-before clocks, `DLK-POT-001` (adversarial
//! wildcard matching over channel queues) in `pas2p-check`, and the
//! Dimemas-like baseline (re-timing on a target machine) in `pas2p`.

use crate::event::{Trace, TraceEvent};
use std::collections::BTreeMap;

/// Replay `trace` and return each rank's stop position: the index of the
/// first event it never ran, or its event count when it ran them all.
///
/// A pass first advances each rank, in rank order, while
/// `step(state, rank, index, event)` accepts its next point-to-point
/// event; a collective stops the rank. Then, in communicator order, each
/// communicator at which at least `involved` ranks sit fires:
/// `fire(state, members, positions)` sees the members in rank order and
/// every rank's position (a member's is its collective), after which the
/// members move past it. Passes repeat until one moves nothing. `state`
/// is what both callbacks change.
pub fn replay<S>(
    trace: &Trace,
    state: &mut S,
    mut step: impl FnMut(&mut S, usize, usize, &TraceEvent) -> bool,
    mut fire: impl FnMut(&mut S, &[usize], &[usize]),
) -> Vec<usize> {
    let mut pos = vec![0usize; trace.procs.len()];
    loop {
        let mut moved = false;
        for (r, p) in trace.procs.iter().enumerate() {
            while let Some(e) = p.events.get(pos[r]) {
                if e.kind.is_collective() || !step(state, r, pos[r], e) {
                    break;
                }
                pos[r] += 1;
                moved = true;
            }
        }
        let mut at_coll: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (r, p) in trace.procs.iter().enumerate() {
            if let Some(e) = p.events.get(pos[r]).filter(|e| e.kind.is_collective()) {
                at_coll.entry(e.comm_id).or_default().push(r);
            }
        }
        for members in at_coll.into_values() {
            let involved = trace.procs[members[0]].events[pos[members[0]]].involved as usize;
            if members.len() >= involved {
                fire(state, &members, &pos);
                for &r in &members {
                    pos[r] += 1;
                }
                moved = true;
            }
        }
        if !moved {
            return pos;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, ProcessTrace};
    use pas2p_machine::CollectiveKind;

    fn ev(process: u32, kind: EventKind, msg_id: u64, comm_id: u64, involved: u32) -> TraceEvent {
        TraceEvent {
            number: 0,
            process,
            t_post: 0.0,
            t_complete: 0.0,
            kind,
            peer: None,
            tag: 0,
            size: 8,
            involved,
            msg_id,
            comm_id,
            wildcard: false,
        }
    }

    fn p2p(process: u32, kind: EventKind, msg_id: u64) -> TraceEvent {
        ev(process, kind, msg_id, 0, 1)
    }

    fn barrier(process: u32, comm_id: u64, involved: u32) -> TraceEvent {
        ev(
            process,
            EventKind::Coll(CollectiveKind::Barrier),
            0,
            comm_id,
            involved,
        )
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
                    events,
                    end_time: 0.0,
                })
                .collect(),
        }
    }

    /// Sends run at once, a receive once its message was sent.
    fn sent_first(sent: &mut Vec<u64>, _: usize, _: usize, e: &TraceEvent) -> bool {
        if e.kind == EventKind::Send {
            sent.push(e.msg_id);
        }
        e.kind == EventKind::Send || sent.contains(&e.msg_id)
    }

    #[test]
    fn a_receive_waits_for_a_later_rank_and_then_runs() {
        // Rank 0 receives what rank 1 sends: the first pass stops rank 0,
        // the second runs it.
        let t = trace_of(vec![
            vec![p2p(0, EventKind::Recv, 1)],
            vec![p2p(1, EventKind::Send, 1)],
        ]);
        let mut steps = Vec::new();
        let stop = replay(
            &t,
            &mut Vec::new(),
            |sent, r, i, e| {
                steps.push((r, i));
                sent_first(sent, r, i, e)
            },
            |_, _, _| panic!("no collective"),
        );
        assert_eq!(stop, vec![1, 1]);
        assert_eq!(steps, vec![(0, 0), (1, 0), (0, 0)]);
    }

    #[test]
    fn a_refused_step_wedges_its_rank() {
        let t = trace_of(vec![vec![
            p2p(0, EventKind::Recv, 7),
            p2p(0, EventKind::Send, 1),
        ]]);
        let stop = replay(&t, &mut Vec::new(), sent_first, |_, _, _| {});
        assert_eq!(stop, vec![0]);
    }

    #[test]
    fn a_collective_waits_for_every_member() {
        // Rank 1 reaches the barrier only after receiving rank 0's
        // message; rank 2 never does.
        let t = trace_of(vec![
            vec![p2p(0, EventKind::Send, 1), barrier(0, 5, 2)],
            vec![p2p(1, EventKind::Recv, 1), barrier(1, 5, 2)],
            vec![barrier(2, 6, 2)],
        ]);
        let mut fired = Vec::new();
        let stop = replay(&t, &mut Vec::new(), sent_first, |_, members, pos| {
            fired.push((members.to_vec(), pos.to_vec()));
        });
        assert_eq!(stop, vec![2, 2, 0]);
        assert_eq!(fired, vec![(vec![0, 1], vec![1, 1, 0])]);
    }

    #[test]
    fn communicators_fire_in_communicator_order_and_share_the_state() {
        let t = trace_of(vec![
            vec![barrier(0, 9, 2)],
            vec![barrier(1, 3, 2)],
            vec![barrier(2, 9, 2)],
            vec![barrier(3, 3, 2)],
        ]);
        let mut order = Vec::new();
        let stop = replay(
            &t,
            &mut order,
            |_, _, _, _| panic!("no point-to-point event"),
            |order, members, _| order.push(members.to_vec()),
        );
        assert_eq!(stop, vec![1; 4]);
        assert_eq!(order, vec![vec![1, 3], vec![0, 2]]);
    }
}
