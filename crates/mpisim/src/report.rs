//! Run summary returned by [`run_app`](crate::run_app).

use serde::{Deserialize, Serialize};

/// Outcome of a simulated application run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Number of ranks executed.
    pub nprocs: u32,
    /// Final virtual clock per rank, seconds.
    pub rank_clocks: Vec<f64>,
    /// Virtual makespan: the maximum final rank clock. This is the
    /// *application execution time* (AET) of the run on the modeled
    /// machine.
    pub makespan: f64,
    /// Total point-to-point messages delivered.
    pub total_msgs: u64,
    /// Total point-to-point bytes: the sum of the message lengths.
    pub total_bytes: u64,
    /// Total collective participations (counted per rank per collective).
    pub total_colls: u64,
    /// True if the run was terminated early by a harness abort. The
    /// clocks and traffic totals of such a run record how far each
    /// rank's thread got before it noticed, which is not reproducible.
    pub aborted: bool,
    /// Real (host) seconds the simulation took.
    pub wall_seconds: f64,
}

impl RunReport {
    /// Load imbalance: (max − min) / max final clock, 0 for perfectly
    /// balanced runs.
    pub fn imbalance(&self) -> f64 {
        let max = self.rank_clocks.iter().cloned().fold(f64::MIN, f64::max);
        let min = self.rank_clocks.iter().cloned().fold(f64::MAX, f64::min);
        if max <= 0.0 {
            0.0
        } else {
            (max - min) / max
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(clocks: Vec<f64>) -> RunReport {
        let makespan = clocks.iter().cloned().fold(f64::MIN, f64::max);
        RunReport {
            nprocs: clocks.len() as u32,
            rank_clocks: clocks,
            makespan,
            total_msgs: 0,
            total_bytes: 0,
            total_colls: 0,
            aborted: false,
            wall_seconds: 0.0,
        }
    }

    #[test]
    fn mean_and_imbalance() {
        let r = report(vec![1.0, 2.0, 3.0]);
        assert!((r.imbalance() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn balanced_run_has_zero_imbalance() {
        let r = report(vec![5.0, 5.0]);
        assert_eq!(r.imbalance(), 0.0);
    }

    #[test]
    fn empty_report_yields_zeros() {
        // No rank clocks at all: the imbalance must degrade to 0 rather
        // than return NaN/-inf from the folds.
        let r = report(vec![]);
        assert_eq!(r.imbalance(), 0.0);
    }

    #[test]
    fn single_rank_is_perfectly_balanced() {
        let r = report(vec![3.5]);
        assert_eq!(r.imbalance(), 0.0);
    }

    #[test]
    fn all_zero_clocks_yield_zero_imbalance() {
        // max == 0 would make (max - min) / max a 0/0; the guard must
        // report 0, not NaN.
        let r = report(vec![0.0, 0.0, 0.0]);
        assert_eq!(r.imbalance(), 0.0);
        assert!(!r.imbalance().is_nan());
    }
}
