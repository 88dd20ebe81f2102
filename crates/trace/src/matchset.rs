//! Match-set extraction: which sends *could* have matched each receive.
//!
//! The recorded trace commits every wildcard receive to one concrete
//! sender, but an `MPI_ANY_SOURCE` receive admits any compatible send —
//! the commit is one of several legal outcomes. This module recovers the
//! full candidate structure from a [`Trace`]: for every wildcard receive,
//! the set of sends that target its rank with its tag; for every channel
//! `(src, dst, tag)`, how many sends it carries and how many *named*
//! (deterministic) receives demand them. The happens-before analyzer in
//! `pas2p-check` prunes these raw candidate sets down to the matches that
//! are actually reachable under the partial order.

use crate::event::{EventKind, Trace};
use std::collections::BTreeMap;

/// A send event viewed as a wildcard-match candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CandidateSend {
    /// Rank the send was posted on.
    pub src: u32,
    /// Index of the send in its rank's event list.
    pub index: usize,
    /// Per-process event number of the send.
    pub number: u64,
    /// The message id (relation field) of the send.
    pub msg_id: u64,
    /// Message size in bytes — differing candidate sizes make a race
    /// structure-changing for the signature.
    pub size: u64,
}

/// One wildcard receive together with every send compatible with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WildcardMatch {
    /// Rank the receive was posted on.
    pub rank: u32,
    /// Index of the receive in its rank's event list.
    pub index: usize,
    /// Per-process event number of the receive.
    pub number: u64,
    /// Tag the receive was posted with.
    pub tag: u32,
    /// The source the run happened to commit (`peer` of the event).
    pub committed_src: Option<u32>,
    /// The message id the run happened to commit.
    pub committed_msg: u64,
    /// Every send targeting this rank with this tag, committed one
    /// included, in (src, index) order.
    pub candidates: Vec<CandidateSend>,
}

/// Where a sent message was committed: the receive that consumed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommittedRecv {
    /// Rank of the consuming receive.
    pub rank: u32,
    /// Index of the receive in its rank's event list.
    pub index: usize,
    /// True when the consuming receive was posted with a wildcard
    /// source — i.e. the commit was a choice, not a constraint.
    pub wildcard: bool,
}

/// Per-channel send/demand accounting. A channel is one ordered message
/// stream `(src, dst, tag)`; MPI's non-overtaking rule serializes
/// matching inside it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStat {
    /// Sends the trace records on this channel.
    pub sends: u64,
    /// Receives naming this channel's source explicitly (no wildcard).
    pub det_recvs: u64,
}

/// The complete match-set view of a trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MatchSets {
    /// Every wildcard receive with its raw candidate set, in
    /// (rank, index) order.
    pub wildcards: Vec<WildcardMatch>,
    /// Channel accounting keyed by `(src, dst, tag)`.
    pub channels: BTreeMap<(u32, u32, u32), ChannelStat>,
    /// msg_id → the receive that consumed it in the committed run.
    /// Messages whose receive is missing from the trace are absent.
    pub committed: BTreeMap<u64, CommittedRecv>,
}

impl MatchSets {
    /// True when the trace posts no wildcard receives at all — the
    /// committed order is the only order and race analysis is moot.
    pub fn is_deterministic(&self) -> bool {
        self.wildcards.is_empty()
    }

    /// Total number of raw candidates across all wildcard receives.
    pub fn total_candidates(&self) -> usize {
        self.wildcards.iter().map(|w| w.candidates.len()).sum()
    }
}

/// Extract the match sets of a trace. Deterministic: all collections are
/// ordered by rank and event index. Tolerant of damaged traces — events
/// with `msg_id == 0` (no relation recorded) produce no candidate or
/// committed entry, and duplicate msg_ids keep the first receive seen in
/// rank order.
pub fn match_sets(trace: &Trace) -> MatchSets {
    let mut sets = MatchSets::default();
    // Candidate sends bucketed by (dst, tag); channel + commit tables.
    let mut by_dst_tag: BTreeMap<(u32, u32), Vec<CandidateSend>> = BTreeMap::new();
    for p in &trace.procs {
        for (i, e) in p.events.iter().enumerate() {
            match e.kind {
                EventKind::Send => {
                    let Some(dst) = e.peer else { continue };
                    let stat = sets.channels.entry((e.process, dst, e.tag)).or_default();
                    stat.sends += 1;
                    if e.msg_id != 0 {
                        by_dst_tag
                            .entry((dst, e.tag))
                            .or_default()
                            .push(CandidateSend {
                                src: e.process,
                                index: i,
                                number: e.number,
                                msg_id: e.msg_id,
                                size: e.size,
                            });
                    }
                }
                EventKind::Recv => {
                    if !e.wildcard {
                        if let Some(src) = e.peer {
                            sets.channels
                                .entry((src, e.process, e.tag))
                                .or_default()
                                .det_recvs += 1;
                        }
                    }
                    if e.msg_id != 0 {
                        sets.committed.entry(e.msg_id).or_insert(CommittedRecv {
                            rank: e.process,
                            index: i,
                            wildcard: e.wildcard,
                        });
                    }
                }
                EventKind::Coll(_) => {}
            }
        }
    }
    for p in &trace.procs {
        for (i, e) in p.events.iter().enumerate() {
            if e.kind == EventKind::Recv && e.wildcard {
                let candidates = by_dst_tag
                    .get(&(e.process, e.tag))
                    .cloned()
                    .unwrap_or_default();
                sets.wildcards.push(WildcardMatch {
                    rank: e.process,
                    index: i,
                    number: e.number,
                    tag: e.tag,
                    committed_src: e.peer,
                    committed_msg: e.msg_id,
                    candidates,
                });
            }
        }
    }
    sets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ProcessTrace, TraceEvent};

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

    #[test]
    fn deterministic_trace_has_no_wildcards() {
        let t = trace_of(vec![
            vec![ev(0, 0, EventKind::Send, Some(1), 0, 1, 8, false)],
            vec![ev(0, 1, EventKind::Recv, Some(0), 0, 1, 8, false)],
        ]);
        let ms = match_sets(&t);
        assert!(ms.is_deterministic());
        assert_eq!(ms.channels[&(0, 1, 0)].sends, 1);
        assert_eq!(ms.channels[&(0, 1, 0)].det_recvs, 1);
        assert_eq!(ms.committed[&1].rank, 1);
        assert!(!ms.committed[&1].wildcard);
    }

    #[test]
    fn wildcard_collects_all_compatible_sends() {
        // Two senders to rank 0 on tag 9; rank 0 posts two wildcard
        // receives. Each wildcard's raw candidate set holds both sends.
        let t = trace_of(vec![
            vec![
                ev(0, 0, EventKind::Recv, Some(1), 9, 1, 8, true),
                ev(1, 0, EventKind::Recv, Some(2), 9, 2, 8, true),
            ],
            vec![ev(0, 1, EventKind::Send, Some(0), 9, 1, 8, false)],
            vec![ev(0, 2, EventKind::Send, Some(0), 9, 2, 8, false)],
        ]);
        let ms = match_sets(&t);
        assert_eq!(ms.wildcards.len(), 2);
        assert_eq!(ms.total_candidates(), 4);
        assert_eq!(ms.wildcards[0].committed_msg, 1);
        assert_eq!(ms.wildcards[0].candidates.len(), 2);
        assert!(ms.committed[&2].wildcard);
    }

    #[test]
    fn tag_mismatch_excludes_candidates() {
        let t = trace_of(vec![
            vec![ev(0, 0, EventKind::Recv, Some(1), 9, 1, 8, true)],
            vec![ev(0, 1, EventKind::Send, Some(0), 9, 1, 8, false)],
            vec![ev(0, 2, EventKind::Send, Some(0), 4, 2, 8, false)],
        ]);
        let ms = match_sets(&t);
        assert_eq!(ms.wildcards[0].candidates.len(), 1);
        assert_eq!(ms.wildcards[0].candidates[0].src, 1);
    }
}
