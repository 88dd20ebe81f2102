//! The per-rank execution context.

use crate::coll::{keyed_unit_noise, Arrival, CollInput, CollOp, CollOutput, CollSlot};
use crate::group::Group;
use crate::harness::{Counters, HarnessAction};
use crate::msg::{Envelope, Message, PendingQueue, Tag};
use crate::park::Wait;
use crate::runtime::{Shared, SimAbort};
use crate::Mpi;
use pas2p_machine::jitter::JitterStream;
use pas2p_machine::Work;
use pas2p_obs::{Counter, Histogram};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;

static CLOCK_COMMITS: Counter = Counter::new("mpisim.wildcard.clock_commits");
static QUIESCENCE_COMMITS: Counter = Counter::new("mpisim.wildcard.quiescence_commits");
static MSG_BYTES: Histogram = Histogram::new("mpisim.msg_bytes");
/// Depth of the unexpected-message queue at match time — the
/// asynchrony signal Afzal et al. analyze.
static QUEUE_DEPTH: Histogram = Histogram::new("mpisim.unexpected_queue_depth");

/// A running rank reads the caller's cancellation deadline once per
/// this many communication events (and whenever it is about to park).
const CANCEL_CHECK_EVERY: u64 = 64;

/// The execution context handed to each rank's closure: implements [`Mpi`]
/// directly against the simulated machine.
pub struct RankCtx {
    rank: u32,
    size: u32,
    clock: f64,
    /// The clock value last handed to the park registry.
    published: f64,
    pending: PendingQueue,
    rx: Receiver<Envelope>,
    senders: Arc<Vec<Sender<Envelope>>>,
    shared: Arc<Shared>,
    jitter: JitterStream,
    counters: Counters,
    core_share: u32,
    /// Per-rank send sequence number, the low bits of every msg id this
    /// rank allocates. Kept local (not a shared counter) so msg ids are
    /// a function of the program, not of thread scheduling — traces of
    /// the same logical run must be byte-identical.
    next_msg_seq: u64,
}

impl RankCtx {
    pub(crate) fn new(
        rank: u32,
        size: u32,
        rx: Receiver<Envelope>,
        senders: Arc<Vec<Sender<Envelope>>>,
        shared: Arc<Shared>,
    ) -> RankCtx {
        let jitter = shared.machine.jitter.stream(rank);
        let core_share = shared.mapping.core_share(rank);
        RankCtx {
            rank,
            size,
            clock: 0.0,
            published: 0.0,
            pending: PendingQueue::default(),
            rx,
            senders,
            shared,
            jitter,
            counters: Counters::default(),
            core_share,
            next_msg_seq: 0,
        }
    }

    /// Allocate the next message id: `(rank + 1) << 40 | sequence`.
    /// Deterministic (each rank numbers its own sends in program order),
    /// globally unique, and never 0 — checkers use msg id 0 for "no
    /// message relation". Within one sender ids stay monotone in send
    /// order, the only ordering property wildcard matching's
    /// `(depart, src, msg_id)` tie-break relies on across runs.
    fn alloc_msg_id(&mut self) -> u64 {
        let seq = self.next_msg_seq;
        self.next_msg_seq += 1;
        debug_assert!(seq < 1 << 40, "per-rank send sequence overflowed");
        (u64::from(self.rank) + 1) << 40 | seq
    }

    /// Final virtual clock (used by the runtime after the closure returns).
    pub(crate) fn final_clock(&self) -> f64 {
        self.clock
    }

    /// The rank's program has returned (runtime only).
    pub(crate) fn finish(&self) {
        if let Err(deadlock) = self.shared.park.finish(self.rank, self.published) {
            panic!("{deadlock}");
        }
    }

    fn check_abort(&self) {
        if self.shared.park.aborted() {
            std::panic::panic_any(SimAbort);
        }
    }

    /// Abort the run — waking the parked ranks — if the caller's token
    /// has been cancelled. Reads the clock, waits for nothing.
    fn check_cancel(&self) {
        let shared = &self.shared;
        if shared.cancel.as_ref().is_some_and(|t| t.is_cancelled())
            && !shared.cancelled.swap(true, Ordering::SeqCst)
        {
            shared.park.abort();
        }
    }

    fn after_comm_event(&mut self) {
        // A rank asks the token before it parks and on every
        // `CANCEL_CHECK_EVERY`th event in between: often enough that
        // one noticing is soon, rarely enough that the clock reads
        // cost a cold run nothing measurable.
        if self.counters.comm_ops().is_multiple_of(CANCEL_CHECK_EVERY) {
            self.check_cancel();
        }
        self.check_abort();
        if let Some(h) = &self.shared.harness {
            if h.on_comm_event(self.rank, &self.counters, self.clock) == HarnessAction::AbortAll {
                self.shared.park.abort();
                std::panic::panic_any(SimAbort);
            }
        }
    }

    fn drain_arrivals(&mut self) {
        while let Ok(env) = self.rx.try_recv() {
            self.pending.push(env);
        }
    }

    /// Publish this rank's virtual clock for wildcard receivers. Must be
    /// called only *after* any envelope departing at the current clock
    /// has been handed to the channel: a reader that observes a
    /// published clock `> d` concludes every message from this rank
    /// departing at or before `d` is already delivered.
    fn publish_clock(&mut self) {
        self.shared
            .park
            .publish(self.rank, self.published, self.clock);
        self.published = self.clock;
    }

    /// Block until a wake token beyond `seen` is issued to this rank.
    /// `seen` must have been read before the caller last examined what
    /// it waits for. If this park completes an application deadlock,
    /// panics with the report naming every rank's wait.
    fn park(&self, seen: u64, wait: Wait) {
        // An abort issues this rank a token, so the park below returns
        // at once and the caller's loop unwinds.
        self.check_cancel();
        if let Err(deadlock) = self.shared.park.park(self.rank, seen, wait) {
            panic!("{deadlock}");
        }
    }

    /// Block in a wait that lives outside the `Mpi` interface — a
    /// driver-level barrier such as the checkpoint coordinator's — until
    /// `ready` returns true. `what` names the wait in a deadlock report.
    ///
    /// The wait joins the run's park/wake protocol: `ready` is evaluated
    /// again after every [`wake`](Self::wake) addressed to this rank, and
    /// a harness abort unwinds it like any other blocked operation.
    /// Whoever makes `ready` true must be a rank of the same run and
    /// must call `wake` *afterwards*; a rank parked here counts as
    /// blocked when the runtime decides whether the run is quiescent.
    pub fn park_until(&mut self, what: &'static str, mut ready: impl FnMut() -> bool) {
        loop {
            let seen = self.shared.park.tokens(self.rank);
            self.check_abort();
            if ready() {
                return;
            }
            self.park(seen, Wait::External(what));
        }
    }

    /// Make `rank` re-evaluate the condition it is parked on in
    /// [`park_until`](Self::park_until). Call after the condition changed.
    pub fn wake(&self, rank: u32) {
        self.shared.park.wake(rank);
    }

    /// `MPI_ANY_SOURCE` receive with a deterministic match.
    ///
    /// The physical race — whichever sender's envelope lands first wins —
    /// is exactly the receive nondeterminism the paper targets with its
    /// logical ordering, but the *simulator* must stay reproducible: the
    /// batch driver promises byte-identical reports for any worker
    /// count. So a wildcard commits in virtual time. The best pending
    /// candidate (minimum `(depart, src, msg_id)`) is taken
    ///
    /// * by the *clock rule*: once every other rank's published clock is
    ///   strictly past the candidate's departure, no rank can ever
    ///   produce an earlier-departing message (clocks are monotone, and
    ///   published only after the channel send); or
    /// * at *quiescence*: every other rank is finished or parked with no
    ///   wake token outstanding and this candidate is the smallest one
    ///   any parked wildcard receive holds (`park::Registry::settle`).
    ///
    /// Either way the match depends only on virtual times, never on
    /// thread scheduling or on how long anything took.
    fn recv_wildcard(&mut self, tag: Option<Tag>) -> Envelope {
        let me = self.rank;
        loop {
            let seen = self.shared.park.tokens(me);
            self.check_abort();
            self.drain_arrivals();
            let found = self.pending.find_match(None, tag);
            let found = found.map(|i| (i, self.pending.key_of(i)));
            if let Some((i, c)) = found {
                let park = &self.shared.park;
                // Watch first, read the clocks second: a clock that
                // moves past the departure after this read wakes us.
                park.watch(me, c.depart);
                let by_clock = park.clocks_past(me, c.depart);
                if by_clock || park.take_grant(me) == c.msg_id {
                    park.unwatch(me);
                    // The clocks were read after the drain above, and a
                    // clock is published only after the sends before it:
                    // a message that departs before `c` may have reached
                    // the channel in between. Take it in; if it beats
                    // `c`, match again.
                    self.drain_arrivals();
                    if self.pending.find_match(None, tag) != Some(i) {
                        continue;
                    }
                    if by_clock {
                        CLOCK_COMMITS.inc();
                    } else {
                        QUIESCENCE_COMMITS.inc();
                    }
                    return self.pending.remove(i);
                }
            }
            let candidate = found.map(|(_, c)| c);
            let wait = Wait::Recv {
                src: None,
                tag,
                candidate,
            };
            self.park(seen, wait);
            if candidate.is_some() {
                self.shared.park.unwatch(me);
            }
        }
    }

    fn coll_slot(&self, group: &Group) -> Arc<CollSlot> {
        let mut slots = self.shared.slots.lock();
        slots
            .entry(group.clone())
            .or_insert_with(|| Arc::new(CollSlot::new(group.len())))
            .clone()
    }
}

impl Mpi for RankCtx {
    fn rank(&self) -> u32 {
        self.rank
    }

    fn size(&self) -> u32 {
        self.size
    }

    fn now(&self) -> f64 {
        self.clock
    }

    fn compute(&mut self, work: Work) {
        self.check_abort();
        if work.is_zero() {
            return;
        }
        let t = self.shared.machine.compute_time(work, self.core_share);
        self.clock += t * self.jitter.compute_factor();
        self.publish_clock();
    }

    fn elapse(&mut self, seconds: f64) {
        debug_assert!(seconds >= 0.0);
        self.clock += seconds;
        self.publish_clock();
    }

    fn send_sized(&mut self, dest: u32, tag: Tag, len: usize) -> u64 {
        assert!(dest < self.size, "send to rank {} of {}", dest, self.size);
        self.check_abort();
        let msg_id = self.alloc_msg_id();
        let machine = &self.shared.machine;
        let mapping = &self.shared.mapping;
        let base = machine.p2p_cost(mapping, self.rank, dest, len as u64);
        let wire_cost = base * self.jitter.comm_factor();
        // Sender-side CPU overhead: injecting the message costs roughly the
        // per-message overhead of the link used.
        let overhead = if mapping.loc(self.rank).node == mapping.loc(dest).node {
            machine.intra.per_msg_overhead
        } else {
            machine.network.per_msg_overhead
        };
        self.clock += overhead;
        self.shared.total_msgs.fetch_add(1, Ordering::Relaxed);
        self.shared
            .total_bytes
            .fetch_add(len as u64, Ordering::Relaxed);
        let env = Envelope {
            src: self.rank,
            dest,
            tag,
            len,
            depart: self.clock,
            msg_id,
            wire_cost,
        };
        // Unbounded channels: an eager send never blocks. A hung-up
        // receiver during a harness abort just means the peer unwound
        // first; propagate the abort instead of failing.
        if self.senders[dest as usize].send(env).is_err() {
            self.check_abort();
            panic!(
                "rank {} exited while rank {} still had messages for it",
                dest, self.rank
            );
        }
        // Token after the envelope is in the channel, clock after both:
        // a parked receiver that observed this token has the envelope,
        // and wildcard receivers never conclude it cannot exist.
        self.shared.park.wake(dest);
        self.publish_clock();
        self.counters.sends += 1;
        MSG_BYTES.record(len as u64);
        self.after_comm_event();
        msg_id
    }

    fn recv(&mut self, src: Option<u32>, tag: Option<Tag>) -> Message {
        if let Some(s) = src {
            assert!(s < self.size, "recv from rank {} of {}", s, self.size);
        }
        self.check_abort();
        let env = if src.is_some() {
            // Fully-specified receive: per-(src, tag) FIFO, so the first
            // matching arrival is the only possible answer — commit
            // immediately.
            loop {
                let seen = self.shared.park.tokens(self.rank);
                self.check_abort();
                self.drain_arrivals();
                if let Some(env) = self.pending.take_match(src, tag) {
                    break env;
                }
                self.park(
                    seen,
                    Wait::Recv {
                        src,
                        tag,
                        candidate: None,
                    },
                );
            }
        } else {
            self.recv_wildcard(tag)
        };
        // Virtual completion: the message physically arrives at
        // depart + wire time; the receive completes no earlier than the
        // receiver posted it.
        let arrive = (env.depart + env.wire_cost).max(self.clock);
        debug_assert_eq!(env.dest, self.rank, "misrouted message");
        self.clock = arrive;
        self.publish_clock();
        self.counters.recvs += 1;
        QUEUE_DEPTH.record(self.pending.len() as u64);
        let msg = Message {
            src: env.src,
            dest: env.dest,
            tag: env.tag,
            len: env.len,
            depart: env.depart,
            arrive,
            msg_id: env.msg_id,
        };
        self.after_comm_event();
        msg
    }

    /// One collective round: arrive at the group's slot, park until the
    /// last member completes the round, and return this rank's output.
    fn collective_in(&mut self, group: &Group, op: CollOp, input: CollInput) -> CollOutput {
        self.check_abort();
        let pos = group
            .position(self.rank)
            .unwrap_or_else(|| panic!("rank {} is not in group {:?}", self.rank, group.ranks()));
        let slot = self.coll_slot(group);
        let shared = self.shared.clone();
        let group_hash = {
            let mut h = DefaultHasher::new();
            group.ranks().hash(&mut h);
            h.finish()
        };
        let machine = &shared.machine;
        let mapping = &shared.mapping;
        let sigma = machine.jitter.comm_sigma;
        let seed = machine.jitter.seed;
        let cost_of = |generation: u64, max_bytes: u64| -> f64 {
            let base = machine.collective_cost(mapping, op.kind(), group.ranks(), max_bytes);
            let factor = (1.0 + sigma * keyed_unit_noise(seed, group_hash, generation)).max(0.05);
            base * factor
        };
        let res = match slot.arrive(group, pos, op, input, self.clock, cost_of) {
            Arrival::Completed(res) => {
                // Last arrival: the round's result is in the slot, so
                // the members parked on it can be woken.
                for &member in group.ranks() {
                    if member != self.rank {
                        shared.park.wake(member);
                    }
                }
                res
            }
            Arrival::Pending(round) => loop {
                let seen = shared.park.tokens(self.rank);
                self.check_abort();
                if let Some(res) = slot.result(pos, round) {
                    break res;
                }
                let members = group.len();
                self.park(seen, Wait::Coll { op, members });
            },
        };
        self.clock = res.out_clock;
        self.publish_clock();
        self.counters.colls += 1;
        self.shared.total_colls.fetch_add(1, Ordering::Relaxed);
        self.after_comm_event();
        res.output
    }

    fn counters(&self) -> Counters {
        self.counters
    }
}
