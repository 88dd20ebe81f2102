//! Deadlines for batch jobs and service requests.
//!
//! The mechanism lives in [`pas2p_obs::cancel`], below every layer that
//! has to ask: a [`CancelToken`] is a deadline, the thread that runs a
//! job or a request installs it with [`with_cancel`], and the work
//! itself checks it — the pipeline at every stage boundary (entering a
//! `pas2p_obs::stage` is one), phase extraction once per candidate
//! window, the simulator on every rank's communication events (an
//! expired token takes the run's abort path, which wakes parked ranks)
//! and gated store IO through
//! [`cancelled`](pas2p_obs::cancel::cancelled). A check past the deadline
//! unwinds with [`CANCELLED`] to the panic boundary of whoever
//! installed the token — `guarded`, which a batch job, a service
//! request and each task of a service `batch` all run under, and which
//! alone decides between timed out, failed and panicked.
//!
//! No thread is started and nothing is abandoned: the job or request
//! stops on the thread it ran on, answers
//! [`TimedOut`](crate::batch::BatchStatus::TimedOut) / `code:"timeout"`
//! at the first checkpoint past its deadline, and is over when it has
//! answered. The cost is that a stretch which never checks overruns;
//! `cancel.checkpoint_gap_us.<stage>` and `serve.timeout_overrun_us`
//! measure by how much.

pub(crate) use pas2p_obs::cancel::remaining;
pub use pas2p_obs::cancel::{with_cancel, CancelToken, CANCELLED};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// How work run under [`guarded`] failed.
pub(crate) enum Stopped<E> {
    /// A checkpoint found the deadline passed: the message every
    /// timeout answers with, and how late the stop came.
    TimedOut { error: String, overrun: Duration },
    /// The work returned its own error.
    Failed(E),
    /// The work panicked; the rendered payload.
    Panicked(String),
}

/// Run `work` once on this thread under a panic boundary and — with a
/// `deadline` — a token that expires with it. Work that finished keeps
/// its result even when the deadline passed meanwhile; work that failed
/// in any way after a checkpoint found the token expired timed out.
pub(crate) fn guarded<T, E>(
    deadline: Option<Duration>,
    work: impl FnOnce() -> Result<T, E>,
) -> Result<T, Stopped<E>> {
    let token = deadline.map(CancelToken::with_deadline);
    let boundary = || catch_unwind(AssertUnwindSafe(work));
    let caught = match &token {
        Some(token) => with_cancel(token, boundary),
        None => boundary(),
    };
    match (caught, deadline.zip(token)) {
        (Ok(Ok(done)), _) => Ok(done),
        (_, Some((deadline, token))) if token.tripped() => Err(Stopped::TimedOut {
            error: format!("deadline of {:.3}s expired", deadline.as_secs_f64()),
            overrun: token.overrun(),
        }),
        (Ok(Err(error)), _) => Err(Stopped::Failed(error)),
        (Err(payload), _) => Err(Stopped::Panicked(panic_message(payload))),
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        format!("panicked: {}", s)
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panicked: {}", s)
    } else {
        "panicked".to_string()
    }
}
