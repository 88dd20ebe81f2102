//! Runtime observation hooks.
//!
//! The signature machinery (`pas2p-signature`) needs to watch a running
//! application from outside: it detects when per-rank communication
//! counters cross a phase's startpoint/endpoint (the paper's phase table
//! addresses phases by send counts, Fig 7) and terminates the run once the
//! last phase has been measured ("the signature terminates the execution
//! because it is not necessary to continue", §3.4). A [`SimHarness`]
//! installed in the [`SimConfig`](crate::SimConfig) receives a callback
//! after every communication event.

use serde::{Deserialize, Serialize};

/// Per-rank communication-event counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counters {
    /// Point-to-point sends issued.
    pub sends: u64,
    /// Point-to-point receives completed.
    pub recvs: u64,
    /// Collective operations completed.
    pub colls: u64,
}

impl Counters {
    /// Total communication events (sends + receives + collectives) — the
    /// coordinate system used for phase start/endpoints.
    pub fn comm_ops(&self) -> u64 {
        self.sends + self.recvs + self.colls
    }
}

/// What the harness wants the runtime to do after an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HarnessAction {
    /// Keep running.
    Continue,
    /// Abort every rank as soon as possible (used once the last phase of a
    /// signature has been measured).
    AbortAll,
}

/// Observer installed into a simulation run.
///
/// Callbacks may be invoked concurrently from different rank threads;
/// implementations must be `Sync`.
pub trait SimHarness: Send + Sync {
    /// Invoked after each communication event (send, receive or
    /// collective) completes on `rank`, with the rank's updated counters
    /// and virtual clock.
    fn on_comm_event(&self, rank: u32, counters: &Counters, clock: f64) -> HarnessAction {
        let _ = (rank, counters, clock);
        HarnessAction::Continue
    }

    /// Invoked when a rank finishes its program normally.
    fn on_rank_done(&self, rank: u32, clock: f64) {
        let _ = (rank, clock);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comm_ops_sums_all_classes() {
        let c = Counters {
            sends: 3,
            recvs: 2,
            colls: 4,
        };
        assert_eq!(c.comm_ops(), 9);
    }

    #[test]
    fn default_counters_are_zero() {
        assert_eq!(Counters::default().comm_ops(), 0);
    }

    struct Noop;
    impl SimHarness for Noop {}

    #[test]
    fn default_harness_continues() {
        let h = Noop;
        let c = Counters::default();
        assert_eq!(h.on_comm_event(0, &c, 0.0), HarnessAction::Continue);
        h.on_rank_done(0, 1.0);
    }
}
