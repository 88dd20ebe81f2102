//! The queue-based logical-time assignment algorithm (paper §3.2,
//! Table 1, Appendix A).
//!
//! Events are processed through a FIFO queue primed with the first event
//! of every process; dequeuing an event assigns its logical time (LT) and
//! inserts the next event of that process. The assignment rules are:
//!
//! * **Send** — next free LT of its process; the paired Receive is
//!   immediately pre-assigned `LT + 1` ("and never afterwards", Fig 3).
//! * **Receive** — takes its pre-assigned LT. If its Send has not been
//!   processed yet the event is deferred to the back of the queue (the
//!   real execution guarantees progress, so deferral always terminates).
//! * **Collective** — participants buffer until all `K` involved processes
//!   arrive; then every member's event gets `max(member LTs) + 1` and the
//!   members resume.
//!
//! Afterwards, receive LTs are permuted into ascending program order per
//! process and ticks are split so each (process, tick) holds at most one
//! event, producing the final [`LogicalTrace`].

use crate::logical::{assemble, LogicalEvent, LogicalTrace};
use pas2p_obs::Counter;
use pas2p_trace::{EventKind, ProcessTrace, Trace, TraceEvent};
use std::collections::{HashMap, VecDeque};

static EVENTS_ORDERED: Counter = Counter::new("model.events_ordered");
static DEFERRED_RECVS: Counter = Counter::new("model.deferred_recvs");
static UNMATCHED_RECVS: Counter = Counter::new("model.unmatched_recvs");
static RECV_PERMUTATIONS: Counter = Counter::new("model.recv_permutations");
static TICK_SPLITS: Counter = Counter::new("model.tick_splits");
static TICKS: Counter = Counter::new("model.ticks");

/// Which logical-clock rule the engine applies to receives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Rule {
    /// The paper's ordering: receive fixed at `send LT + 1`.
    Pas2p,
    /// Classic Lamport happened-before: receive at
    /// `max(local next, send LT + 1)`.
    Lamport,
}

/// Structural defects that make a trace impossible to order. These are
/// the conditions the panicking entry points abort on; the `try_` family
/// surfaces them as values so callers (notably `pas2p-check`) can report
/// instead of crash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// A collective never completed: some member's event stream ran out
    /// before all `involved` processes arrived at the communicator.
    CollectiveIncomplete {
        /// Communicator whose collective is stuck.
        comm_id: u64,
        /// How many members had arrived when the queue drained.
        arrived: u32,
        /// How many the collective requires.
        involved: u32,
    },
    /// An event was never assigned a logical time (the queue drained
    /// around it — only possible for events stranded behind an incomplete
    /// collective).
    Unordered {
        /// Process owning the stranded event.
        process: u32,
        /// Its per-process event number.
        number: u64,
    },
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::CollectiveIncomplete {
                comm_id,
                arrived,
                involved,
            } => write!(
                f,
                "collective on communicator {} never completed: {} of {} members arrived",
                comm_id, arrived, involved
            ),
            ModelError::Unordered { process, number } => write!(
                f,
                "event {} of process {} was never assigned a logical time",
                number, process
            ),
        }
    }
}

impl std::error::Error for ModelError {}

/// Apply the PAS2P ordering to a physical trace.
///
/// Panics on a structurally broken trace; use [`try_pas2p_order`] when
/// the input is untrusted.
pub fn pas2p_order(trace: &Trace) -> LogicalTrace {
    pas2p_order_logged(trace).0
}

/// Fallible form of [`pas2p_order`].
pub fn try_pas2p_order(trace: &Trace) -> Result<LogicalTrace, ModelError> {
    try_order_with_rule(trace, Rule::Pas2p).map(|(l, _)| l)
}

/// Apply the PAS2P ordering, also returning the dequeue log as
/// `(process, event number)` pairs — the first column of the paper's
/// Table 1.
///
/// Panics on a structurally broken trace.
pub fn pas2p_order_logged(trace: &Trace) -> (LogicalTrace, Vec<(u32, u64)>) {
    order_with_rule(trace, Rule::Pas2p)
}

pub(crate) fn order_with_rule(trace: &Trace, rule: Rule) -> (LogicalTrace, Vec<(u32, u64)>) {
    try_order_with_rule(trace, rule).unwrap_or_else(|e| panic!("{}", e))
}

pub(crate) fn try_order_with_rule(
    trace: &Trace,
    rule: Rule,
) -> Result<(LogicalTrace, Vec<(u32, u64)>), ModelError> {
    let nprocs = trace.nprocs;
    let n = nprocs as usize;

    // Per-event assigned LTs, indexed [process][event index].
    let mut lt: Vec<Vec<Option<u64>>> = trace
        .procs
        .iter()
        .map(|p| vec![None; p.events.len()])
        .collect();
    // Next free logical time per process.
    let mut proc_next: Vec<u64> = vec![0; n];
    // Where each message's receive lives: msg_id → (process, index).
    let recv_index = build_recv_index(trace);

    // The processing queue: (process, event index).
    let mut queue: VecDeque<(usize, usize)> = VecDeque::new();
    for p in 0..n {
        if !trace.procs[p].events.is_empty() {
            queue.push_back((p, 0));
        }
    }
    // Collective staging: comm_id → buffered (process, index) pairs.
    let mut coll_pending: HashMap<u64, Vec<(usize, usize)>> = HashMap::new();
    let mut log: Vec<(u32, u64)> = Vec::new();
    // Consecutive deferrals; if the whole queue cycles without progress the
    // trace is malformed (an unmatched receive) and we fall back to local
    // time so analysis can continue.
    let mut stall = 0usize;
    let mut deferred: u64 = 0;
    let mut unmatched: u64 = 0;

    while let Some((p, i)) = queue.pop_front() {
        let e = &trace.procs[p].events[i];
        match e.kind {
            EventKind::Send => {
                let t = proc_next[p];
                lt[p][i] = Some(t);
                proc_next[p] = t + 1;
                if rule == Rule::Pas2p {
                    if let Some(&(q, j)) = recv_index.get(&e.msg_id) {
                        // "Its reception is modeled to arrive at LT + 1 and
                        // never afterwards."
                        lt[q][j] = Some(t + 1);
                    }
                }
                log.push((p as u32, i as u64));
                push_next(&mut queue, trace, p, i);
                stall = 0;
            }
            EventKind::Recv => {
                let assigned = match rule {
                    Rule::Pas2p => lt[p][i],
                    Rule::Lamport => {
                        // Need the send's LT; resolve through the relation.
                        send_lt_of(trace, &lt, e).map(|s| s + 1)
                    }
                };
                match assigned {
                    Some(t) => {
                        let t = match rule {
                            Rule::Pas2p => t,
                            Rule::Lamport => t.max(proc_next[p]),
                        };
                        lt[p][i] = Some(t);
                        proc_next[p] = proc_next[p].max(t + 1);
                        log.push((p as u32, i as u64));
                        push_next(&mut queue, trace, p, i);
                        stall = 0;
                    }
                    None if stall <= queue.len() => {
                        // Send not processed yet: defer.
                        queue.push_back((p, i));
                        stall += 1;
                        deferred += 1;
                    }
                    None => {
                        // Unmatched receive (malformed trace): local time.
                        unmatched += 1;
                        let t = proc_next[p];
                        lt[p][i] = Some(t);
                        proc_next[p] = t + 1;
                        log.push((p as u32, i as u64));
                        push_next(&mut queue, trace, p, i);
                        stall = 0;
                    }
                }
            }
            EventKind::Coll(_) => {
                let members = coll_pending.entry(e.comm_id).or_default();
                members.push((p, i));
                if members.len() == e.involved as usize {
                    // "Select from all processes the event with the biggest
                    // LT and assign LT + 1 to the events that compose the
                    // collective communication."
                    let members = coll_pending.remove(&e.comm_id).unwrap();
                    let biggest = members
                        .iter()
                        .map(|&(q, _)| proc_next[q])
                        .max()
                        .unwrap_or(0);
                    // proc_next is "last assigned + 1", so the collective
                    // lands at max(last assigned) + 1 = max(proc_next).
                    let t = biggest;
                    for &(q, j) in &members {
                        lt[q][j] = Some(t);
                        proc_next[q] = t + 1;
                        log.push((q as u32, j as u64));
                        push_next(&mut queue, trace, q, j);
                    }
                    stall = 0;
                }
                // Member stays blocked until the collective completes; its
                // next event is inserted above on completion.
            }
        }
    }
    if let Some((&comm_id, members)) = coll_pending.iter().next() {
        let (q, j) = members[0];
        let involved = trace.procs[q].events[j].involved;
        return Err(ModelError::CollectiveIncomplete {
            comm_id,
            arrived: members.len() as u32,
            involved,
        });
    }

    let mut resolved: Vec<Vec<u64>> = Vec::with_capacity(lt.len());
    for (p, v) in lt.into_iter().enumerate() {
        let mut out = Vec::with_capacity(v.len());
        for (i, o) in v.into_iter().enumerate() {
            out.push(o.ok_or(ModelError::Unordered {
                process: p as u32,
                number: i as u64,
            })?);
        }
        resolved.push(out);
    }
    let mut lt = resolved;

    let (permuted, splits, keyed) = finish_ranks(trace, &mut lt, rule);
    let logical = assemble(trace.nprocs, keyed);
    EVENTS_ORDERED.add(log.len() as u64);
    DEFERRED_RECVS.add(deferred);
    UNMATCHED_RECVS.add(unmatched);
    RECV_PERMUTATIONS.add(permuted);
    TICK_SPLITS.add(splits);
    TICKS.add(logical.len() as u64);
    Ok((logical, log))
}

/// Build the msg_id → receive location index; ranks are scanned in
/// order, so a duplicate msg_id resolves to its last receive.
fn build_recv_index(trace: &Trace) -> HashMap<u64, (usize, usize)> {
    let mut recv_index = HashMap::new();
    for (p, pt) in trace.procs.iter().enumerate() {
        for (i, e) in pt.events.iter().enumerate() {
            if e.kind == EventKind::Recv && e.msg_id != 0 {
                recv_index.insert(e.msg_id, (p, i));
            }
        }
    }
    recv_index
}

/// The per-rank post-processing after the global queue merge: receive-LT
/// permutation, program-order clamping and tick-key construction, rank
/// by rank, concatenated in rank order.
fn finish_ranks(
    trace: &Trace,
    lt: &mut [Vec<u64>],
    rule: Rule,
) -> (u64, u64, Vec<(u64, u64, LogicalEvent)>) {
    let mut permuted = 0u64;
    let mut splits = 0u64;
    let mut keyed = Vec::with_capacity(trace.total_events());
    for (lts, pt) in lt.iter_mut().zip(&trace.procs) {
        let (m, sp, k) = finish_rank(pt, lts, rule);
        permuted += m;
        splits += sp;
        keyed.extend(k);
    }
    (permuted, splits, keyed)
}

/// One rank's post-processing; see [`finish_ranks`].
fn finish_rank(
    pt: &ProcessTrace,
    lts: &mut [u64],
    rule: Rule,
) -> (u64, u64, Vec<(u64, u64, LogicalEvent)>) {
    let permuted = if rule == Rule::Pas2p {
        permute_rank_recvs(pt, lts)
    } else {
        0
    };
    clamp_rank_program_order(lts);
    let (splits, keyed) = key_rank_ticks(pt, lts);
    (permuted, splits, keyed)
}

fn push_next(queue: &mut VecDeque<(usize, usize)>, trace: &Trace, p: usize, i: usize) {
    if i + 1 < trace.procs[p].events.len() {
        queue.push_back((p, i + 1));
    }
}

fn send_lt_of(trace: &Trace, lt: &[Vec<Option<u64>>], recv: &TraceEvent) -> Option<u64> {
    let src = recv.peer? as usize;
    // The send with this msg_id lives in the peer's stream.
    let pt = trace.procs.get(src)?;
    let idx = pt
        .events
        .iter()
        .position(|e| e.kind == EventKind::Send && e.msg_id == recv.msg_id)?;
    lt[src][idx]
}

/// Reassign one process's receive LTs in ascending program order
/// (Fig 4 → Fig 5: "a permutation only inside the LTRecvs … so that the
/// reception events are in ascending order"). Returns how many receive
/// LTs actually moved.
fn permute_rank_recvs(pt: &ProcessTrace, lts: &mut [u64]) -> u64 {
    let mut moved = 0u64;
    let recv_idx: Vec<usize> = pt
        .events
        .iter()
        .enumerate()
        .filter(|(_, e)| e.kind == EventKind::Recv)
        .map(|(i, _)| i)
        .collect();
    let mut recv_lts: Vec<u64> = recv_idx.iter().map(|&i| lts[i]).collect();
    recv_lts.sort_unstable();
    for (&i, &t) in recv_idx.iter().zip(&recv_lts) {
        if lts[i] != t {
            moved += 1;
        }
        lts[i] = t;
    }
    moved
}

/// Program order must survive on the tick axis: clamp each event's LT to
/// at least its predecessor's (ties are separated by tick splitting).
fn clamp_rank_program_order(lts: &mut [u64]) {
    for i in 1..lts.len() {
        if lts[i] < lts[i - 1] {
            lts[i] = lts[i - 1];
        }
    }
}

/// "There can only be one event for each process at a particular LT":
/// events sharing (process, LT) are fanned out to sub-ticks in program
/// order; [`assemble`] densely renumbers the (LT, sub) pairs. Also
/// returns how many events needed a sub-tick.
fn key_rank_ticks(pt: &ProcessTrace, lts: &[u64]) -> (u64, Vec<(u64, u64, LogicalEvent)>) {
    let mut splits = 0u64;
    let mut keyed = Vec::with_capacity(pt.events.len());
    let mut prev_lt = u64::MAX;
    let mut sub = 0u64;
    for (i, e) in pt.events.iter().enumerate() {
        let t = lts[i];
        sub = if t == prev_lt { sub + 1 } else { 0 };
        if sub > 0 {
            splits += 1;
        }
        prev_lt = t;
        keyed.push((
            t,
            sub,
            LogicalEvent {
                process: e.process,
                number: e.number,
                kind: e.kind,
                peer: e.peer,
                size: e.size,
                involved: e.involved,
                msg_id: e.msg_id,
                comm_id: e.comm_id,
                compute_before: pt.compute_before(i),
                duration: (e.t_complete - e.t_post).max(0.0),
                t_post: e.t_post,
                t_complete: e.t_complete,
            },
        ));
    }
    (splits, keyed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pas2p_machine::CollectiveKind;
    use pas2p_trace::ProcessTrace;

    /// Build an event quickly for synthetic traces.
    #[allow(clippy::too_many_arguments)]
    fn ev(
        number: u64,
        process: u32,
        kind: EventKind,
        peer: Option<u32>,
        msg_id: u64,
        comm_id: u64,
        involved: u32,
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
            involved,
            msg_id,
            comm_id,
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

    /// Table 1 walkthrough: with four processes of independent events the
    /// queue dequeues round-robin — ids 1, 7, 13, 19, 2, 8, 14, 20, 3, …
    /// (paper ids are process*6 + number + 1).
    #[test]
    fn table1_walkthrough() {
        let procs: Vec<Vec<TraceEvent>> = (0..4u32)
            .map(|p| {
                (0..6u64)
                    .map(|i| ev(i, p, EventKind::Send, Some((p + 1) % 4), 0, 0, 1, i as f64))
                    .collect()
            })
            .collect();
        let t = trace_of(procs);
        let (_, log) = pas2p_order_logged(&t);
        let paper_ids: Vec<u64> = log.iter().map(|&(p, n)| p as u64 * 6 + n + 1).collect();
        assert_eq!(
            &paper_ids[..9],
            &[1, 7, 13, 19, 2, 8, 14, 20, 3],
            "dequeue order must match Table 1"
        );
        assert_eq!(paper_ids.len(), 24);
    }

    /// Fig 3: the reception of a message sent at LT is fixed at LT + 1,
    /// even if the receiver is logically far ahead.
    #[test]
    fn recv_is_fixed_at_send_lt_plus_one() {
        // P0: three sends to P2 (unpaired fillers), then send msg 42 to P1.
        // P1: busy with 5 sends first, then receives msg 42.
        let p0: Vec<TraceEvent> = (0..3)
            .map(|i| ev(i, 0, EventKind::Send, Some(2), 100 + i, 0, 1, i as f64))
            .chain(std::iter::once(ev(
                3,
                0,
                EventKind::Send,
                Some(1),
                42,
                0,
                1,
                3.0,
            )))
            .collect();
        let p1: Vec<TraceEvent> = (0..5)
            .map(|i| ev(i, 1, EventKind::Send, Some(2), 200 + i, 0, 1, i as f64))
            .chain(std::iter::once(ev(
                5,
                1,
                EventKind::Recv,
                Some(0),
                42,
                0,
                1,
                6.0,
            )))
            .collect();
        let p2: Vec<TraceEvent> = (0..8)
            .map(|i| {
                ev(
                    i,
                    2,
                    EventKind::Recv,
                    Some(if i < 3 { 0 } else { 1 }),
                    if i < 3 { 100 + i } else { 200 + i - 3 },
                    0,
                    1,
                    10.0 + i as f64,
                )
            })
            .collect();
        let t = trace_of(vec![p0, p1, p2]);
        let logical = pas2p_order(&t);
        logical.validate_against(&t).unwrap();
        // The send (P0 #3) has LT 3; in the pre-permutation model the recv
        // is at LT 4, but P1 already used LTs 0–4, so after program-order
        // clamping the recv cannot precede P1's own sends. What must hold:
        // the recv appears in a tick >= the send's tick.
        let tick_of = |proc: u32, number: u64| {
            logical
                .ticks
                .iter()
                .position(|tk| {
                    tk.events
                        .iter()
                        .any(|e| e.process == proc && e.number == number)
                })
                .unwrap()
        };
        assert!(tick_of(1, 5) > tick_of(0, 3));
    }

    /// Simple paired send/recv: recv at send LT + 1 exactly.
    #[test]
    fn paired_recv_lands_one_tick_after_send() {
        let p0 = vec![ev(0, 0, EventKind::Send, Some(1), 7, 0, 1, 0.0)];
        let p1 = vec![ev(0, 1, EventKind::Recv, Some(0), 7, 0, 1, 1.0)];
        let t = trace_of(vec![p0, p1]);
        let logical = pas2p_order(&t);
        assert_eq!(logical.len(), 2);
        assert_eq!(logical.ticks[0].events[0].kind, EventKind::Send);
        assert_eq!(logical.ticks[1].events[0].kind, EventKind::Recv);
    }

    /// Collectives synchronize: all members land on the same tick at
    /// max(LT) + 1.
    #[test]
    fn collective_takes_biggest_lt_plus_one() {
        let coll = |p: u32, n: u64, t: f64| {
            ev(
                n,
                p,
                EventKind::Coll(CollectiveKind::Allreduce),
                None,
                0,
                99,
                3,
                t,
            )
        };
        // P0 has 2 sends first; P1 and P2 go straight to the collective.
        let p0 = vec![
            ev(0, 0, EventKind::Send, Some(1), 11, 0, 1, 0.0),
            ev(1, 0, EventKind::Send, Some(2), 12, 0, 1, 1.0),
            coll(0, 2, 2.0),
        ];
        let p1 = vec![
            ev(0, 1, EventKind::Recv, Some(0), 11, 0, 1, 0.5),
            coll(1, 1, 2.0),
        ];
        let p2 = vec![
            ev(0, 2, EventKind::Recv, Some(0), 12, 0, 1, 1.5),
            coll(2, 1, 2.0),
        ];
        let t = trace_of(vec![p0, p1, p2]);
        let logical = pas2p_order(&t);
        logical.validate_against(&t).unwrap();
        // Find the tick holding the collective: all three processes present.
        let coll_ticks: Vec<usize> = logical
            .ticks
            .iter()
            .enumerate()
            .filter(|(_, tk)| tk.events.iter().any(|e| e.kind.is_collective()))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(coll_ticks.len(), 1, "collective must occupy a single tick");
        let tk = &logical.ticks[coll_ticks[0]];
        assert_eq!(tk.events.len(), 3);
    }

    /// Receive permutation: out-of-order pre-assigned receive LTs are
    /// reordered ascending within the process.
    #[test]
    fn recv_lts_ascend_in_program_order() {
        // P0 sends m1 then m2 to P1. P1 receives m2 first, then m1 (as a
        // network reordering would deliver). PAS2P pre-assigns m2's recv a
        // LARGER lt than m1's; permutation restores ascending order.
        let p0 = vec![
            ev(0, 0, EventKind::Send, Some(1), 1, 0, 1, 0.0),
            ev(1, 0, EventKind::Send, Some(1), 2, 0, 1, 1.0),
        ];
        let p1 = vec![
            ev(0, 1, EventKind::Recv, Some(0), 2, 0, 1, 2.0),
            ev(1, 1, EventKind::Recv, Some(0), 1, 0, 1, 3.0),
        ];
        let t = trace_of(vec![p0, p1]);
        let logical = pas2p_order(&t);
        logical.validate_against(&t).unwrap();
        // Program order on the tick axis is guaranteed by validate; also
        // both recvs exist.
        let recvs: Vec<&LogicalEvent> = logical
            .ticks
            .iter()
            .flat_map(|tk| tk.events.iter())
            .filter(|e| e.kind == EventKind::Recv)
            .collect();
        assert_eq!(recvs.len(), 2);
    }

    /// The same physical behavior with permuted reception order yields the
    /// same logical shape — the property motivating the PAS2P ordering.
    #[test]
    fn pas2p_ordering_is_insensitive_to_reception_order() {
        let sends = |swap: bool| {
            let p0 = vec![
                ev(0, 0, EventKind::Send, Some(1), 1, 0, 1, 0.0),
                ev(1, 0, EventKind::Send, Some(1), 2, 0, 1, 1.0),
            ];
            let (a, b) = if swap { (2, 1) } else { (1, 2) };
            let p1 = vec![
                ev(0, 1, EventKind::Recv, Some(0), a, 0, 1, 2.0),
                ev(1, 1, EventKind::Recv, Some(0), b, 0, 1, 3.0),
            ];
            trace_of(vec![p0, p1])
        };
        let l1 = pas2p_order(&sends(false));
        let l2 = pas2p_order(&sends(true));
        // Tick-level shape: same number of ticks and same per-tick event
        // kind layout.
        assert_eq!(l1.len(), l2.len());
        for (a, b) in l1.ticks.iter().zip(&l2.ticks) {
            let ka: Vec<_> = a.events.iter().map(|e| (e.process, e.kind)).collect();
            let kb: Vec<_> = b.events.iter().map(|e| (e.process, e.kind)).collect();
            assert_eq!(ka, kb);
        }
    }

    #[test]
    fn empty_trace_orders_to_empty() {
        let t = trace_of(vec![vec![], vec![]]);
        let logical = pas2p_order(&t);
        assert!(logical.is_empty());
    }
}
