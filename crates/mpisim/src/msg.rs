//! Point-to-point messages and the per-rank mailbox.

use crate::park::Candidate;

/// Message tag (the MPI tag). [`ANY_TAG`] in a receive matches anything.
pub type Tag = u32;

/// Wildcard tag constant for documentation purposes; receives take
/// `Option<Tag>` where `None` is the wildcard.
pub const ANY_TAG: Option<Tag> = None;

/// A delivered message, as seen by the receiving application.
#[derive(Debug, Clone)]
pub struct Message {
    /// Sending rank (world).
    pub src: u32,
    /// Receiving rank (world).
    pub dest: u32,
    /// Message tag.
    pub tag: Tag,
    /// Length in bytes — all a message carries.
    pub len: usize,
    /// Sender's virtual clock at departure.
    pub depart: f64,
    /// Receiver's virtual clock at matching completion.
    pub arrive: f64,
    /// Globally unique message id — the paper's *relation* field linking a
    /// Send event to its Receive event.
    pub msg_id: u64,
}

/// A posted nonblocking receive (`MPI_Irecv` analog). Matching happens at
/// [`Mpi::wait`](crate::Mpi::wait); `posted_at` records when the receive
/// was posted so the trace layer can attribute the wait interval
/// correctly. (Deviation from MPI: the match is resolved at wait time,
/// not post time — equivalent for the deterministic-source receives the
/// workloads use.)
#[derive(Debug, Clone)]
pub struct RecvRequest {
    /// Source filter (`None` = `MPI_ANY_SOURCE`).
    pub src: Option<u32>,
    /// Tag filter (`None` = `MPI_ANY_TAG`).
    pub tag: Option<Tag>,
    /// Virtual time the receive was posted.
    pub posted_at: f64,
}

/// An in-flight message (before matching).
#[derive(Debug)]
pub(crate) struct Envelope {
    pub src: u32,
    pub dest: u32,
    pub tag: Tag,
    pub len: usize,
    pub depart: f64,
    pub msg_id: u64,
    /// Precomputed wire cost (seconds) for this message on this machine
    /// and mapping, including the sender-side jitter draw so the cost is
    /// deterministic regardless of the receiving thread's schedule.
    pub wire_cost: f64,
}

/// Messages that have physically arrived at a rank but have not yet been
/// matched by a receive. Matching follows MPI semantics: FIFO per
/// (src, tag) pair; wildcard receives pick the earliest-departed arrival,
/// which is where receive nondeterminism (the paper's motivation for the
/// PAS2P logical ordering) enters.
#[derive(Debug, Default)]
pub(crate) struct PendingQueue {
    items: Vec<Envelope>,
}

impl PendingQueue {
    pub fn push(&mut self, env: Envelope) {
        self.items.push(env);
    }

    /// Number of unmatched arrivals (queue-depth metric and diagnostics).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Find and remove the best match for a receive of (`src`, `tag`).
    ///
    /// For fully-specified receives this is the earliest arrival from that
    /// source with that tag (per-pair FIFO is preserved because senders
    /// deliver in order and we scan in arrival order). For wildcard
    /// receives we choose the minimum `(depart, src, msg_id)` so matching
    /// reflects which message was sent first — mirroring a network where
    /// earlier sends tend to arrive earlier, while still being
    /// deterministic given the same set of arrivals.
    pub fn take_match(&mut self, src: Option<u32>, tag: Option<Tag>) -> Option<Envelope> {
        self.find_match(src, tag).map(|i| self.items.remove(i))
    }

    /// Index of the best match for a receive of (`src`, `tag`) without
    /// removing it — the wildcard receive path inspects the candidate's
    /// sort key before committing (see `RankCtx::recv_wildcard`).
    pub fn find_match(&self, src: Option<u32>, tag: Option<Tag>) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, e) in self.items.iter().enumerate() {
            if let Some(s) = src {
                if e.src != s {
                    continue;
                }
            }
            if let Some(t) = tag {
                if e.tag != t {
                    continue;
                }
            }
            match best {
                None => best = Some(i),
                Some(b) => {
                    let eb = &self.items[b];
                    let cand = (e.depart, e.src, e.msg_id);
                    let cur = (eb.depart, eb.src, eb.msg_id);
                    if cand < cur {
                        best = Some(i);
                    }
                }
            }
        }
        best
    }

    /// Wildcard sort key of the queued arrival at `i`.
    pub fn key_of(&self, i: usize) -> Candidate {
        let e = &self.items[i];
        Candidate {
            depart: e.depart,
            src: e.src,
            msg_id: e.msg_id,
        }
    }

    /// Remove and return the queued arrival at `i` (an index obtained
    /// from [`PendingQueue::find_match`]).
    pub fn remove(&mut self, i: usize) -> Envelope {
        self.items.remove(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(src: u32, tag: Tag, depart: f64, msg_id: u64) -> Envelope {
        Envelope {
            src,
            dest: 0,
            tag,
            len: 0,
            depart,
            msg_id,
            wire_cost: 0.0,
        }
    }

    #[test]
    fn exact_match_respects_src_and_tag() {
        let mut q = PendingQueue::default();
        q.push(env(1, 10, 0.0, 1));
        q.push(env(2, 10, 0.0, 2));
        q.push(env(1, 20, 0.0, 3));
        let m = q.take_match(Some(1), Some(20)).unwrap();
        assert_eq!(m.msg_id, 3);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn no_match_returns_none() {
        let mut q = PendingQueue::default();
        q.push(env(1, 10, 0.0, 1));
        assert!(q.take_match(Some(2), None).is_none());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn wildcard_picks_earliest_departure() {
        let mut q = PendingQueue::default();
        q.push(env(3, 10, 5.0, 7));
        q.push(env(1, 10, 2.0, 8));
        q.push(env(2, 10, 9.0, 9));
        let m = q.take_match(None, None).unwrap();
        assert_eq!(m.src, 1);
    }

    #[test]
    fn wildcard_tie_breaks_by_src_then_id() {
        let mut q = PendingQueue::default();
        q.push(env(2, 10, 1.0, 5));
        q.push(env(1, 10, 1.0, 6));
        let m = q.take_match(None, None).unwrap();
        assert_eq!(m.src, 1);
    }

    #[test]
    fn per_pair_fifo_preserved_for_exact_match() {
        let mut q = PendingQueue::default();
        q.push(env(1, 10, 1.0, 100));
        q.push(env(1, 10, 2.0, 101));
        let a = q.take_match(Some(1), Some(10)).unwrap();
        let b = q.take_match(Some(1), Some(10)).unwrap();
        assert_eq!(a.msg_id, 100);
        assert_eq!(b.msg_id, 101);
    }
}
