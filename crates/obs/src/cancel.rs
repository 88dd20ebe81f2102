//! Cooperative cancellation: a flag and a deadline, checked where the
//! work runs.
//!
//! A [`CancelToken`] is a shared flag beside an optional clock reading.
//! Nothing watches it from outside: the thread doing the work installs
//! it ([`with_cancel`]) and asks at *checkpoints* — [`enter`] at every
//! pipeline stage boundary, [`checkpoint`] inside the long loops,
//! [`cancelled`] where an error return suits better than an unwind, and
//! the simulator's rank threads through the token [`current`] hands
//! them. A check past the deadline latches the flag and unwinds the run
//! with the [`CANCELLED`] payload; whoever installed the token catches
//! it at the panic boundary it already has. A deadline therefore costs
//! no thread, no channel and no hand-over of buffered trace events — and
//! an expired request is answered *late rather than never*: at the
//! first checkpoint past the deadline.
//!
//! That lateness is measured, not assumed. While metrics are
//! [`enabled`](crate::enabled), every check records the time since the
//! token was last checked — by any thread — into the log2 histogram of
//! the [`Stage`] the run is in, so a stretch that never asks shows up as
//! a long gap under its stage's name. Code outside a [`with_cancel`]
//! scope pays one thread-local read that finds `None`.

use crate::metrics::Histogram;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// The panic payload that unwinds a cancelled run. Panic boundaries
/// catch it like any other; the message makes the classification
/// self-describing if it ever surfaces in an error string.
pub const CANCELLED: &str = "pas2p: run cancelled";

/// The pipeline stage a run is in — the label of its
/// `cancel.checkpoint_gap_us.*` histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// The instrumented application run (checked on every rank's
    /// communication events).
    RunTraced = 1,
    /// The PAS2P logical ordering.
    Pas2pOrder,
    /// Phase extraction (checked once per candidate window).
    ExtractPhases,
    /// The checkpointing re-run.
    ConstructSignature,
    /// Stage B: the signature's phases on a target machine.
    ExecuteSignature,
    /// Store lookups and publishes (checked by gated IO).
    Store,
}

/// Gap histogram names, indexed by `Stage as usize - 1`.
const GAP_HISTOGRAMS: [&str; 6] = [
    "cancel.checkpoint_gap_us.run_traced",
    "cancel.checkpoint_gap_us.pas2p_order",
    "cancel.checkpoint_gap_us.extract_phases",
    "cancel.checkpoint_gap_us.construct_signature",
    "cancel.checkpoint_gap_us.execute_signature",
    "cancel.checkpoint_gap_us.store",
];

fn gap_histogram(stage: u8) -> Option<&'static Histogram> {
    static GAPS: OnceLock<[Arc<Histogram>; 6]> = OnceLock::new();
    let index = usize::from(stage).checked_sub(1)?;
    Some(&*GAPS.get_or_init(|| GAP_HISTOGRAMS.map(crate::histogram))[index])
}

#[derive(Debug)]
struct Inner {
    /// Set by [`CancelToken::cancel`], or by the first check that found
    /// the deadline passed.
    flag: AtomicBool,
    deadline: Option<Instant>,
    created: Instant,
    /// When the token was last checked by any thread, in nanoseconds
    /// after `created`. Maintained only while metrics are enabled.
    checked_ns: AtomicU64,
    /// `Stage as u8` of the stage the run is in; 0 before the first
    /// [`enter`] (gaps are not recorded there).
    stage: AtomicU8,
}

/// A shared cancellation flag with an optional deadline. Clone it
/// freely: all clones observe the same flag, deadline and stage.
#[derive(Clone, Debug)]
pub struct CancelToken(Arc<Inner>);

impl Default for CancelToken {
    fn default() -> CancelToken {
        CancelToken::new()
    }
}

impl CancelToken {
    fn build(created: Instant, deadline: Option<Instant>) -> CancelToken {
        CancelToken(Arc::new(Inner {
            flag: AtomicBool::new(false),
            deadline,
            created,
            checked_ns: AtomicU64::new(0),
            stage: AtomicU8::new(0),
        }))
    }

    /// A fresh token that is cancelled only by [`CancelToken::cancel`].
    pub fn new() -> CancelToken {
        CancelToken::build(Instant::now(), None)
    }

    /// A fresh token that also counts as cancelled from `after` from now
    /// on.
    pub fn with_deadline(after: Duration) -> CancelToken {
        let now = Instant::now();
        CancelToken::build(now, Some(now + after))
    }

    /// Request cancellation. Idempotent.
    pub fn cancel(&self) {
        self.0.flag.store(true, Ordering::SeqCst);
    }

    /// One check: true once [`CancelToken::cancel`] has been called on
    /// any clone or the deadline has passed. Reads the clock only when
    /// there is a deadline (or a gap to record).
    pub fn is_cancelled(&self) -> bool {
        let inner = &*self.0;
        let measured = crate::enabled();
        if inner.deadline.is_none() && !measured {
            return inner.flag.load(Ordering::SeqCst);
        }
        let now = Instant::now();
        if measured {
            self.record_gap(now);
        }
        if inner.flag.load(Ordering::SeqCst) {
            return true;
        }
        let expired = inner.deadline.is_some_and(|deadline| now >= deadline);
        if expired {
            inner.flag.store(true, Ordering::SeqCst);
        }
        expired
    }

    /// True once a check has found the token cancelled (or `cancel` was
    /// called): the run was told to stop, as opposed to merely running
    /// past its deadline unasked. Never reads the clock.
    pub fn tripped(&self) -> bool {
        self.0.flag.load(Ordering::SeqCst)
    }

    /// How far past the deadline it is (zero before it, `None` without
    /// one).
    pub fn overrun(&self) -> Option<Duration> {
        self.0.deadline.map(|deadline| deadline.elapsed())
    }

    /// Time left until the deadline (zero past it, `None` without one).
    pub fn remaining(&self) -> Option<Duration> {
        let deadline = self.0.deadline?;
        Some(deadline.saturating_duration_since(Instant::now()))
    }

    /// Charge the time since the previous check to the current stage.
    fn record_gap(&self, now: Instant) {
        let inner = &*self.0;
        let now_ns = now.saturating_duration_since(inner.created).as_nanos() as u64;
        let before_ns = inner.checked_ns.swap(now_ns, Ordering::Relaxed);
        if let Some(gaps) = gap_histogram(inner.stage.load(Ordering::Relaxed)) {
            gaps.record(now_ns.saturating_sub(before_ns) / 1_000);
        }
    }
}

thread_local! {
    static CURRENT: RefCell<Option<CancelToken>> = const { RefCell::new(None) };
}

/// Run `f` with `token` installed as this thread's cancellation token;
/// the previous token (if any) is restored afterwards, even on unwind.
pub fn with_cancel<T>(token: &CancelToken, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<CancelToken>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let ended = CURRENT.with(|c| std::mem::replace(&mut *c.borrow_mut(), self.0.take()));
            // The end of the scope closes the last gap.
            if let (Some(token), true) = (ended, crate::enabled()) {
                token.record_gap(Instant::now());
            }
        }
    }
    let previous = CURRENT.with(|c| c.borrow_mut().replace(token.clone()));
    let _restore = Restore(previous);
    f()
}

/// The token this thread runs under, for work it hands to threads of
/// its own (the simulator's ranks).
pub fn current() -> Option<CancelToken> {
    CURRENT.with(|c| c.borrow().clone())
}

/// True when the current thread runs under a cancelled token. For code
/// that gives up by returning an error (gated store IO, the batch retry
/// loop).
pub fn cancelled() -> bool {
    CURRENT.with(|c| c.borrow().as_ref().is_some_and(CancelToken::is_cancelled))
}

/// Time left until the current thread's deadline, for waits that must
/// not outlast it.
pub fn remaining() -> Option<Duration> {
    CURRENT.with(|c| c.borrow().as_ref().and_then(CancelToken::remaining))
}

/// Unwind out of a cancelled run. A no-op on threads without an
/// installed token.
pub fn checkpoint() {
    if cancelled() {
        std::panic::panic_any(CANCELLED);
    }
}

/// [`checkpoint`] at a stage boundary: the time up to here belongs to
/// the stage being left, what follows to `stage`.
pub fn enter(stage: Stage) {
    let hit = CURRENT.with(|c| {
        c.borrow().as_ref().is_some_and(|token| {
            let hit = token.is_cancelled();
            token.0.stage.store(stage as u8, Ordering::Relaxed);
            hit
        })
    });
    if hit {
        std::panic::panic_any(CANCELLED);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn token_is_shared_across_clones() {
        let t = CancelToken::new();
        let c = t.clone();
        assert!(!t.is_cancelled());
        c.cancel();
        assert!(t.is_cancelled());
        t.cancel(); // idempotent
        assert!(c.is_cancelled());
    }

    #[test]
    fn checkpoint_is_a_noop_without_a_token() {
        assert!(!cancelled());
        assert_eq!(remaining(), None);
        checkpoint(); // must not panic
        enter(Stage::Store);
    }

    #[test]
    fn checkpoint_unwinds_under_a_cancelled_token() {
        let token = CancelToken::new();
        token.cancel();
        let result = catch_unwind(AssertUnwindSafe(|| with_cancel(&token, checkpoint)));
        let payload = result.expect_err("cancelled checkpoint must unwind");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&CANCELLED));
        // The token is uninstalled again after the unwind.
        assert!(!cancelled());
        assert!(current().is_none());
    }

    #[test]
    fn a_passed_deadline_cancels_at_the_first_check_and_not_before() {
        let token = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!token.is_cancelled());
        assert!(token.remaining().expect("has a deadline") > Duration::from_secs(3000));
        assert_eq!(token.overrun(), Some(Duration::ZERO));

        let token = CancelToken::with_deadline(Duration::ZERO);
        // Past its deadline, but nobody has asked yet.
        assert!(!token.tripped());
        assert_eq!(token.remaining(), Some(Duration::ZERO));
        let result = catch_unwind(AssertUnwindSafe(|| {
            with_cancel(&token, || enter(Stage::RunTraced))
        }));
        let payload = result.expect_err("an expired stage boundary must unwind");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&CANCELLED));
        assert!(token.tripped(), "the check latched the flag");
        assert!(token.clone().is_cancelled());
    }

    #[test]
    fn a_check_charges_the_time_since_the_last_one_to_the_stage_being_left() {
        crate::set_enabled(true);
        with_cancel(&CancelToken::new(), || {
            enter(Stage::Pas2pOrder);
            std::thread::sleep(Duration::from_millis(5));
            enter(Stage::ExtractPhases);
        });
        crate::set_enabled(false);
        let order = crate::histogram("cancel.checkpoint_gap_us.pas2p_order").summary();
        assert!(order.count >= 1 && order.max >= 5_000, "{order:?}");
        // The scope's end closed the gap of the stage it ended in.
        let extract = crate::histogram("cancel.checkpoint_gap_us.extract_phases").summary();
        assert!(extract.count >= 1, "{extract:?}");
    }

    #[test]
    fn previous_token_is_restored() {
        let outer = CancelToken::new();
        let inner = CancelToken::new();
        with_cancel(&outer, || {
            with_cancel(&inner, || {
                inner.cancel();
                assert!(cancelled());
            });
            // Back under the (live) outer token.
            assert!(!cancelled());
        });
        assert!(!cancelled());
    }
}
