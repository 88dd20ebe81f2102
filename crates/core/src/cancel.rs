//! Deadlines and cancellation for batch jobs and service requests.
//!
//! The mechanism lives in [`pas2p_obs::cancel`], below every layer that
//! has to ask: a [`CancelToken`] carries a flag and an optional
//! deadline, the thread that runs a job or a request installs it with
//! [`with_cancel`], and the work itself checks it — the pipeline at
//! every stage boundary (`cancel::enter`), phase extraction once per
//! candidate window, the simulator on every rank's communication
//! events (an expired token takes the run's abort path, which wakes
//! parked ranks), gated store IO and the batch retry loop through
//! [`cancelled`]. A check past the deadline unwinds with [`CANCELLED`]
//! to the panic boundary of whoever installed the token: the batch
//! driver's per-attempt `catch_unwind`, the service's per-request one.
//!
//! No thread is started and nothing is abandoned: the job or request
//! stops on the thread it ran on, answers
//! [`TimedOut`](crate::batch::BatchStatus::TimedOut) / `code:"timeout"`
//! at the first checkpoint past its deadline, and is over when it has
//! answered. The cost is that a stretch which never checks overruns;
//! `cancel.checkpoint_gap_us.*` and `serve.timeout_overrun_us` measure
//! by how much.

pub use pas2p_obs::cancel::{cancelled, with_cancel, CancelToken, CANCELLED};
pub(crate) use pas2p_obs::cancel::{checkpoint, enter, remaining, Stage};
