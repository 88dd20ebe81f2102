//! The per-run park/wake protocol: every blocking wait of a simulated run
//! goes through here, and none of them is timed.
//!
//! A rank that cannot proceed — in a receive, a collective, or an
//! out-of-band wait such as the checkpoint coordinator's barrier —
//! *parks*: it records what it waits for together with the number of wake
//! *tokens* it had observed when it last looked at the world. Whoever may
//! unblock it (a sender, the last arrival of a collective, the completer
//! of an external barrier, an abort, a clock moving past a wildcard
//! candidate) first makes the change visible, then issues a token, then
//! wakes it. Two invariants follow:
//!
//! * a rank parked with `observed == issued` has seen everything that
//!   was ever addressed to it, and nobody is about to wake it;
//! * a rank with `observed < issued` is as good as running: it will wake
//!   (or never sleep), look again, and park again with a fresh count.
//!
//! The run is *quiescent* when every rank is finished or parked with no
//! token outstanding. Nothing can change from then on except by a
//! decision taken here, so quiescence is where a wildcard receive that
//! the clock rule cannot settle is committed (only the globally smallest
//! candidate — see [`Registry::settle`]) and where an application
//! deadlock is reported instead of hanging.
//!
//! A parked rank yields its CPU a bounded number of times
//! (`PARK_YIELDS`) before it sleeps on its condvar, and stops yielding
//! as soon as a token arrives. The rank it waits for is usually runnable
//! on the same CPU: yielding hands it the CPU at once, so the token
//! often lands before the waiter ever sleeps, and the run does not pay a
//! cross-CPU futex wake-up for it. The rank stays `Parked` throughout,
//! so quiescence, wildcard commits, deadlock reports and aborts see
//! exactly what they would see of a sleeper. The yield is counted, not
//! timed: no wait here is bounded by a clock.

use crate::coll::CollOp;
use crate::msg::Tag;
use parking_lot::{Condvar, Mutex};
use pas2p_obs::{Counter, Histogram};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

static PARKS: Counter = Counter::new("mpisim.parks");
static SLEEPS: Counter = Counter::new("mpisim.park_sleeps");
static WAIT_US: Histogram = Histogram::new("mpisim.park_wait_us");

/// Sort key of a wildcard candidate: the match is the minimum over
/// `(depart, src, msg_id)`.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub(crate) struct Candidate {
    pub depart: f64,
    pub src: u32,
    pub msg_id: u64,
}

/// What a parked rank is waiting for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Wait {
    /// A point-to-point receive; `candidate` is the best pending match
    /// of a wildcard receive that the clock rule has not released.
    Recv {
        src: Option<u32>,
        tag: Option<Tag>,
        candidate: Option<Candidate>,
    },
    /// A collective round that has not completed.
    Coll { op: CollOp, members: usize },
    /// An out-of-band wait ([`RankCtx::park_until`](crate::RankCtx::park_until)).
    External(&'static str),
}

impl fmt::Display for Wait {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Wait::Recv { src, tag, .. } => write!(f, "recv(src={src:?}, tag={tag:?})"),
            Wait::Coll { op, members } => write!(f, "{op:?} over {members} ranks"),
            Wait::External(what) => write!(f, "{what}"),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    Running,
    Parked { observed: u64, wait: Wait },
    Finished,
}

/// `watch` value of a rank that has no wildcard candidate waiting on the
/// clock rule: a NaN, so every comparison with it is false.
const NO_WATCH: u64 = f64::NAN.to_bits();

/// How many times a parked rank yields its CPU before it sleeps on its
/// condvar. Chosen from the yield-count sweep over {0, 1, 2, 4, …, 64}
/// in EXPERIMENTS.md: the runs plateau from 2, and 8 read fastest.
const PARK_YIELDS: u32 = 8;

struct Slot {
    /// Wake tokens issued to this rank so far.
    issued: AtomicU64,
    state: Mutex<State>,
    cv: Condvar,
    /// The rank's published virtual clock (f64 bits; `INFINITY` once its
    /// program has returned). Published only *after* any envelope
    /// departing at that clock is in the destination's channel, so a
    /// reader that sees `clock > d` knows every message from this rank
    /// departing at or before `d` has been delivered.
    clock: AtomicU64,
    /// Departure (f64 bits) of the wildcard candidate this rank wants
    /// the other clocks to pass, or [`NO_WATCH`].
    watch: AtomicU64,
    /// Msg id of the candidate a quiescence decision released (0: none).
    grant: AtomicU64,
}

/// Park/wake state of one run.
pub(crate) struct Registry {
    slots: Vec<Slot>,
    /// Serializes quiescence decisions.
    decide: Mutex<()>,
    /// Ranks with a `watch` set; lets `publish` skip the scan.
    watchers: AtomicUsize,
    abort: AtomicBool,
}

impl Registry {
    pub fn new(n: usize) -> Registry {
        Registry {
            slots: (0..n)
                .map(|_| Slot {
                    issued: AtomicU64::new(0),
                    state: Mutex::new(State::Running),
                    cv: Condvar::new(),
                    clock: AtomicU64::new(0f64.to_bits()),
                    watch: AtomicU64::new(NO_WATCH),
                    grant: AtomicU64::new(0),
                })
                .collect(),
            decide: Mutex::new(()),
            watchers: AtomicUsize::new(0),
            abort: AtomicBool::new(false),
        }
    }

    /// Tokens issued to `rank`. A waiter reads this *before* it looks at
    /// the condition it waits for and hands the value to [`park`](Self::park).
    pub fn tokens(&self, rank: u32) -> u64 {
        self.slots[rank as usize].issued.load(Ordering::SeqCst)
    }

    /// Issue a token to `rank` and wake it if it sleeps. Call only after
    /// the change the rank should see is visible: the token is what
    /// tells a quiescence snapshot that the rank still has work to do.
    pub fn wake(&self, rank: u32) {
        let slot = &self.slots[rank as usize];
        slot.issued.fetch_add(1, Ordering::SeqCst);
        // Under the lock, so the notification cannot fall between the
        // sleeper's token check and its wait.
        let st = slot.state.lock();
        if matches!(*st, State::Parked { .. }) {
            slot.cv.notify_one();
        }
    }

    /// Whether the run is being torn down.
    pub fn aborted(&self) -> bool {
        self.abort.load(Ordering::SeqCst)
    }

    /// Tear the run down: every rank unwinds at its next `Mpi` call, and
    /// parked ranks are woken to make it now.
    pub fn abort(&self) {
        self.abort.store(true, Ordering::SeqCst);
        for rank in 0..self.slots.len() {
            self.wake(rank as u32);
        }
    }

    /// Sleep until a token beyond `observed` has been issued to `rank`.
    /// Returns at once if one already has. `Err` carries the report of an
    /// application deadlock this park completed; the run is already
    /// aborting and the caller panics with it.
    pub fn park(&self, rank: u32, observed: u64, wait: Wait) -> Result<(), String> {
        let slot = &self.slots[rank as usize];
        {
            let mut st = slot.state.lock();
            if slot.issued.load(Ordering::SeqCst) != observed {
                return Ok(());
            }
            *st = State::Parked { observed, wait };
        }
        // This park may be the one that makes the run quiescent.
        let verdict = self.settle();
        let timed = pas2p_obs::enabled().then(Instant::now);
        // Still `Parked`: a yield changes no state anyone reads.
        for _ in 0..PARK_YIELDS {
            if slot.issued.load(Ordering::SeqCst) != observed {
                break;
            }
            std::thread::yield_now();
        }
        let mut slept = false;
        let mut st = slot.state.lock();
        while slot.issued.load(Ordering::SeqCst) == observed {
            slept = true;
            slot.cv.wait(&mut st);
        }
        *st = State::Running;
        drop(st);
        if let Some(since) = timed {
            PARKS.inc();
            if slept {
                SLEEPS.inc();
            }
            WAIT_US.record(since.elapsed().as_micros() as u64);
        }
        verdict
    }

    /// `rank`'s program has returned: it will never send again. Same
    /// verdict as [`park`](Self::park).
    pub fn finish(&self, rank: u32, last_clock: f64) -> Result<(), String> {
        self.publish(rank, last_clock, f64::INFINITY);
        *self.slots[rank as usize].state.lock() = State::Finished;
        self.settle()
    }

    /// One pass over the ranks: every rank's state, or `None` unless each
    /// is finished or parked with no token outstanding.
    fn collect(&self) -> Option<Vec<State>> {
        self.slots
            .iter()
            .map(|slot| {
                let st = *slot.state.lock();
                match st {
                    State::Running => None,
                    State::Finished => Some(st),
                    State::Parked { observed, .. } => {
                        (slot.issued.load(Ordering::SeqCst) == observed).then_some(st)
                    }
                }
            })
            .collect()
    }

    /// Decide what happens if the run is quiescent; called by whoever
    /// just parked or finished, so the last one to do so always sees it.
    ///
    /// The ranks are read one at a time, so a single pass can pair a
    /// rank seen parked early with a rank that woke it and parked
    /// afterwards. Two passes that agree cannot: token counts only grow
    /// and a parked rank leaves that state only through a new token, so
    /// equal passes mean every rank held its state from its first read
    /// to its second — in particular at the instant between the passes.
    ///
    /// At quiescence every pending candidate of a wildcard receive is
    /// final for its receiver *as long as nobody moves*. The receiver
    /// holding the globally smallest `(depart, src, msg_id)` is released:
    /// whatever any rank does from here on happens after that commit, at
    /// virtual times no earlier than that departure, so no message that
    /// would sort before it can still appear. Other wildcard receivers
    /// stay parked — the released rank may yet send them something that
    /// departs before their own candidate. With no candidate anywhere
    /// and a rank still parked, the application has deadlocked.
    fn settle(&self) -> Result<(), String> {
        let Some(first) = self.collect() else {
            return Ok(());
        };
        let _deciding = self.decide.lock();
        if self.aborted() || self.collect().as_ref() != Some(&first) {
            return Ok(());
        }
        let states = first;
        let best = states
            .iter()
            .enumerate()
            .filter_map(|(rank, st)| match st {
                State::Parked {
                    wait:
                        Wait::Recv {
                            candidate: Some(c), ..
                        },
                    ..
                } => Some((*c, rank)),
                _ => None,
            })
            .min_by(|a, b| a.partial_cmp(b).expect("departures are never NaN"));
        if let Some((candidate, rank)) = best {
            self.slots[rank]
                .grant
                .store(candidate.msg_id, Ordering::SeqCst);
            self.wake(rank as u32);
            return Ok(());
        }
        if states.iter().all(|st| *st == State::Finished) {
            return Ok(());
        }
        let mut report = String::from("deadlock: every rank is blocked or finished:");
        for (rank, st) in states.iter().enumerate() {
            match st {
                State::Parked { wait, .. } => report.push_str(&format!(" rank {rank} in {wait};")),
                _ => report.push_str(&format!(" rank {rank} finished;")),
            }
        }
        self.abort();
        Err(report)
    }

    /// Publish `rank`'s clock moving from `old` to `new` and wake every
    /// wildcard receiver whose candidate's departure it just passed.
    pub fn publish(&self, rank: u32, old: f64, new: f64) {
        self.slots[rank as usize]
            .clock
            .store(new.to_bits(), Ordering::SeqCst);
        // SeqCst on both sides: a receiver sets its watch and then reads
        // the clocks, we store the clock and then read the watches, so
        // one of the two sees the other.
        if self.watchers.load(Ordering::SeqCst) == 0 {
            return;
        }
        for (r, slot) in self.slots.iter().enumerate() {
            let depart = f64::from_bits(slot.watch.load(Ordering::SeqCst));
            if r != rank as usize && old <= depart && depart < new {
                self.wake(r as u32);
            }
        }
    }

    /// Ask to be woken when a clock passes `depart`. Set before
    /// [`clocks_past`](Self::clocks_past) is consulted.
    pub fn watch(&self, rank: u32, depart: f64) {
        self.slots[rank as usize]
            .watch
            .store(depart.to_bits(), Ordering::SeqCst);
        self.watchers.fetch_add(1, Ordering::SeqCst);
    }

    /// Withdraw [`watch`](Self::watch).
    pub fn unwatch(&self, rank: u32) {
        self.slots[rank as usize]
            .watch
            .store(NO_WATCH, Ordering::SeqCst);
        self.watchers.fetch_sub(1, Ordering::SeqCst);
    }

    /// The clock rule: every rank but `rank` has published a clock
    /// strictly past `depart` (or has finished), so none of them can
    /// still produce a message departing at or before it.
    pub fn clocks_past(&self, rank: u32, depart: f64) -> bool {
        self.slots.iter().enumerate().all(|(r, slot)| {
            r == rank as usize || f64::from_bits(slot.clock.load(Ordering::SeqCst)) > depart
        })
    }

    /// Consume the quiescence grant addressed to `rank`, if any.
    pub fn take_grant(&self, rank: u32) -> u64 {
        self.slots[rank as usize].grant.swap(0, Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    const RECV: Wait = Wait::Recv {
        src: Some(1),
        tag: None,
        candidate: None,
    };

    #[test]
    fn a_token_issued_before_the_park_keeps_the_rank_awake() {
        let reg = Registry::new(2);
        let seen = reg.tokens(0);
        reg.wake(0);
        // Would sleep forever (rank 1 is running) if the token were lost.
        assert_eq!(reg.park(0, seen, RECV), Ok(()));
    }

    #[test]
    fn a_parked_rank_sleeps_until_woken() {
        let reg = Arc::new(Registry::new(2));
        let seen = reg.tokens(0);
        let sleeper = {
            let reg = reg.clone();
            std::thread::spawn(move || reg.park(0, seen, RECV))
        };
        // Wait for the park to be visible, then wake it.
        while reg.collect_one(0) != Some(seen) {
            std::thread::yield_now();
        }
        reg.wake(0);
        assert_eq!(sleeper.join().unwrap(), Ok(()));
    }

    #[test]
    fn quiescence_releases_only_the_smallest_candidate() {
        let reg = Arc::new(Registry::new(3));
        let cand = |depart, src, msg_id| Wait::Recv {
            src: None,
            tag: None,
            candidate: Some(Candidate {
                depart,
                src,
                msg_id,
            }),
        };
        let early = {
            let reg = reg.clone();
            let seen = reg.tokens(0);
            std::thread::spawn(move || {
                reg.park(0, seen, cand(1.0, 2, 7)).unwrap();
                reg.take_grant(0)
            })
        };
        let seen = reg.tokens(1);
        let late = {
            let reg = reg.clone();
            std::thread::spawn(move || {
                reg.park(1, seen, cand(2.0, 2, 8)).unwrap();
                reg.take_grant(1)
            })
        };
        while reg.collect_one(0).is_none() || reg.collect_one(1).is_none() {
            std::thread::yield_now();
        }
        // The last rank finishing makes the run quiescent.
        reg.finish(2, 0.0).unwrap();
        assert_eq!(early.join().unwrap(), 7, "the smaller candidate is granted");
        assert_eq!(
            reg.collect_one(1),
            Some(seen),
            "the larger one stays parked"
        );
        // Rank 0 returning leaves rank 1 alone with its candidate.
        reg.finish(0, 1.0).unwrap();
        assert_eq!(late.join().unwrap(), 8);
    }

    /// Each park settles after it parks, so whichever of the two ranks
    /// settles last sees both parked and delivers the verdict; the
    /// other is woken by the abort.
    #[test]
    fn all_parked_without_a_candidate_is_a_deadlock() {
        let reg = Arc::new(Registry::new(2));
        let other = {
            let reg = reg.clone();
            let seen = reg.tokens(1);
            std::thread::spawn(move || reg.park(1, seen, Wait::External("a barrier")))
        };
        let mine = reg.park(0, reg.tokens(0), RECV);
        let theirs = other.join().unwrap();
        let report = match (mine, theirs) {
            (Err(report), Ok(())) | (Ok(()), Err(report)) => report,
            verdicts => panic!("exactly one park reports the deadlock: {verdicts:?}"),
        };
        assert!(
            report.contains("rank 0 in recv(src=Some(1), tag=None)"),
            "{report}"
        );
        assert!(report.contains("rank 1 in a barrier"), "{report}");
        assert!(reg.aborted());
    }

    #[test]
    fn a_clock_passing_the_watched_departure_issues_a_token() {
        let reg = Registry::new(3);
        reg.watch(0, 1.5);
        assert!(!reg.clocks_past(0, 1.5));
        let seen = reg.tokens(0);
        reg.publish(1, 0.0, 1.5);
        assert_eq!(reg.tokens(0), seen, "equal is not past");
        reg.publish(1, 1.5, 2.0);
        assert_eq!(reg.tokens(0), seen + 1);
        reg.publish(1, 2.0, 3.0);
        assert_eq!(reg.tokens(0), seen + 1, "one token per crossing");
        reg.finish(2, 0.0).unwrap();
        assert_eq!(reg.tokens(0), seen + 2, "finishing passes everything");
        assert!(reg.clocks_past(0, 1.5));
        reg.unwatch(0);
    }

    impl Registry {
        /// `rank`'s observed count if it is parked with no token outstanding.
        fn collect_one(&self, rank: usize) -> Option<u64> {
            match *self.slots[rank].state.lock() {
                State::Parked { observed, .. }
                    if self.slots[rank].issued.load(Ordering::SeqCst) == observed =>
                {
                    Some(observed)
                }
                _ => None,
            }
        }
    }
}
