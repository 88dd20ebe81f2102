//! Cooperative cancellation: a deadline, checked where the work runs.
//!
//! A [`CancelToken`] is a clock reading beside a latch. Nothing watches
//! it from outside: the thread doing the work installs it
//! ([`with_cancel`]) and asks at *checkpoints* — every stage boundary
//! (entering a [`stage`](crate::stage) is one), [`checkpoint`] inside
//! the long loops, [`cancelled`] where an error return suits better
//! than an unwind, and the simulator's rank threads through the token
//! [`current`] hands them. A check past the deadline latches the token
//! and unwinds the run with the [`CANCELLED`] payload; whoever
//! installed the token catches it at the panic boundary it already has.
//! A deadline therefore costs no thread, no channel and no hand-over of
//! buffered trace events — and an expired request is answered *late
//! rather than never*: at the first checkpoint past the deadline.
//!
//! That lateness is measured, not assumed. While metrics are
//! [`enabled`](crate::enabled), every check records the time since the
//! token was last checked — by any thread — into
//! `cancel.checkpoint_gap_us.<stage>`, named after the stage the run
//! last entered, so a stretch that never asks shows up as a long gap
//! under the name its stage profile has. Code outside a [`with_cancel`]
//! scope pays one thread-local read that finds `None`.

use crate::metrics::Histogram;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// The panic payload that unwinds a cancelled run. Panic boundaries
/// catch it like any other; the message makes the classification
/// self-describing if it ever surfaces in an error string.
pub const CANCELLED: &str = "pas2p: run cancelled";

/// Gap histograms by stage name (each slot is its histogram's static
/// home), filled the first time a stage is entered under a token with
/// metrics on. Stage names are literals, so the code bounds the table;
/// a check reads its slot without a lock.
static GAPS: [OnceLock<(&str, Histogram)>; 64] = [const { OnceLock::new() }; 64];

/// The slot of a token that has entered no stage (or one past a full
/// table): its gaps are not recorded.
const NO_STAGE: usize = usize::MAX;

/// The [`GAPS`] slot of `stage`, filling it on first use.
fn gap_slot(stage: &'static str) -> usize {
    GAPS.iter()
        .position(|slot| {
            let (name, _) = slot.get_or_init(|| {
                let histogram = format!("cancel.checkpoint_gap_us.{stage}");
                (stage, Histogram::new(Box::leak(histogram.into_boxed_str())))
            });
            *name == stage
        })
        .unwrap_or(NO_STAGE)
}

#[derive(Debug)]
struct Inner {
    /// Set by the first check that found the deadline passed.
    tripped: AtomicBool,
    deadline: Instant,
    created: Instant,
    /// When the token was last checked by any thread, in nanoseconds
    /// after `created`. Maintained only while metrics are enabled.
    checked_ns: AtomicU64,
    /// The [`GAPS`] slot of the stage the run last entered (Relaxed:
    /// the slot's `OnceLock` publishes its histogram).
    stage: AtomicUsize,
}

/// A shared deadline. Clone it freely: all clones observe the same
/// deadline, latch and stage.
#[derive(Clone, Debug)]
pub struct CancelToken(Arc<Inner>);

impl CancelToken {
    /// A fresh token that counts as cancelled from `after` from now on.
    pub fn with_deadline(after: Duration) -> CancelToken {
        let created = Instant::now();
        CancelToken(Arc::new(Inner {
            tripped: AtomicBool::new(false),
            deadline: created + after,
            created,
            checked_ns: AtomicU64::new(0),
            stage: AtomicUsize::new(NO_STAGE),
        }))
    }

    /// One check: true once the deadline has passed.
    pub fn is_cancelled(&self) -> bool {
        let now = Instant::now();
        if crate::enabled() {
            self.record_gap(now);
        }
        let expired = now >= self.0.deadline;
        if expired {
            self.0.tripped.store(true, Ordering::SeqCst);
        }
        expired
    }

    /// True once a check has found the deadline passed: the run was
    /// told to stop, as opposed to merely running past its deadline
    /// unasked. Never reads the clock.
    pub fn tripped(&self) -> bool {
        self.0.tripped.load(Ordering::SeqCst)
    }

    /// How far past the deadline it is (zero before it).
    pub fn overrun(&self) -> Duration {
        self.0.deadline.elapsed()
    }

    /// Time left until the deadline (zero past it).
    pub fn remaining(&self) -> Duration {
        self.0.deadline.saturating_duration_since(Instant::now())
    }

    /// Charge the time since the previous check to the current stage.
    fn record_gap(&self, now: Instant) {
        let inner = &*self.0;
        let now_ns = now.saturating_duration_since(inner.created).as_nanos() as u64;
        let before_ns = inner.checked_ns.swap(now_ns, Ordering::Relaxed);
        let slot = GAPS.get(inner.stage.load(Ordering::Relaxed));
        if let Some((_, gaps)) = slot.and_then(OnceLock::get) {
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
    CURRENT.with(|c| c.borrow().as_ref().map(CancelToken::remaining))
}

/// Unwind out of a cancelled run. A no-op on threads without an
/// installed token.
pub fn checkpoint() {
    if cancelled() {
        std::panic::panic_any(CANCELLED);
    }
}

/// [`checkpoint`] at the boundary into `stage`, which
/// [`stage`](crate::stage) takes: the time up to
/// here belongs to the stage being left, what follows to `stage`.
pub(crate) fn enter(stage: &'static str) {
    let hit = CURRENT.with(|c| {
        c.borrow().as_ref().is_some_and(|token| {
            let hit = token.is_cancelled();
            let slot = if crate::enabled() {
                gap_slot(stage)
            } else {
                NO_STAGE
            };
            token.0.stage.store(slot, Ordering::Relaxed);
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

    const FAR: Duration = Duration::from_secs(3600);

    #[test]
    fn token_is_shared_across_clones() {
        let t = CancelToken::with_deadline(Duration::ZERO);
        let c = t.clone();
        assert!(!c.tripped());
        assert!(t.is_cancelled());
        assert!(c.tripped(), "a check through one clone latches them all");
        assert!(c.is_cancelled());
    }

    #[test]
    fn checkpoint_is_a_noop_without_a_token() {
        assert!(!cancelled());
        assert_eq!(remaining(), None);
        checkpoint(); // must not panic
        enter("store");
    }

    #[test]
    fn checkpoint_unwinds_under_a_cancelled_token() {
        let token = CancelToken::with_deadline(Duration::ZERO);
        let result = catch_unwind(AssertUnwindSafe(|| with_cancel(&token, checkpoint)));
        let payload = result.expect_err("cancelled checkpoint must unwind");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&CANCELLED));
        // The token is uninstalled again after the unwind.
        assert!(!cancelled());
        assert!(current().is_none());
    }

    #[test]
    fn a_passed_deadline_cancels_at_the_first_check_and_not_before() {
        let token = CancelToken::with_deadline(FAR);
        assert!(!token.is_cancelled());
        assert!(token.remaining() > Duration::from_secs(3000));
        assert_eq!(token.overrun(), Duration::ZERO);

        let token = CancelToken::with_deadline(Duration::ZERO);
        // Past its deadline, but nobody has asked yet.
        assert!(!token.tripped());
        assert_eq!(token.remaining(), Duration::ZERO);
        let result = catch_unwind(AssertUnwindSafe(|| {
            with_cancel(&token, || enter("run_traced"))
        }));
        let payload = result.expect_err("an expired stage boundary must unwind");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&CANCELLED));
        assert!(token.tripped(), "the check latched the token");
        assert!(token.clone().is_cancelled());
    }

    #[test]
    fn a_check_charges_the_time_since_the_last_one_to_the_stage_being_left() {
        let _g = crate::events::test_guard();
        crate::set_enabled(true);
        with_cancel(&CancelToken::with_deadline(FAR), || {
            enter("pas2p_order");
            std::thread::sleep(Duration::from_millis(5));
            enter("extract_phases");
        });
        crate::set_enabled(false);
        let gaps = crate::global().snapshot().histograms;
        let order = &gaps["cancel.checkpoint_gap_us.pas2p_order"];
        assert!(order.count >= 1 && order.max >= 5_000, "{order:?}");
        // The scope's end closed the gap of the stage it ended in.
        let extract = &gaps["cancel.checkpoint_gap_us.extract_phases"];
        assert!(extract.count >= 1, "{extract:?}");
    }

    #[test]
    fn previous_token_is_restored() {
        let outer = CancelToken::with_deadline(FAR);
        let inner = CancelToken::with_deadline(Duration::ZERO);
        with_cancel(&outer, || {
            with_cancel(&inner, || assert!(cancelled()));
            // Back under the (live) outer token.
            assert!(!cancelled());
        });
        assert!(!cancelled());
    }
}
