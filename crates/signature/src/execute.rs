//! Signature execution on a target machine (paper §4, Figs 9b–11).
//!
//! "Run the signature means executing its constituent phases": each
//! checkpoint restarts on the target, the machine warms up, measurement
//! runs from the phase's startpoint to its endpoint events, and the
//! checkpointed execution is terminated. Finally Equation (1) turns the
//! measured PhaseETs and the weights into the predicted execution time.

use crate::app::{drive_full, MpiApp};
use crate::checkpoint::CheckpointData;
use crate::construct::{construct_signature, Signature};
use crate::predict::{PhaseMeasurement, Prediction};
use parking_lot::Mutex;
use pas2p_machine::{IsaKind, MachineModel, MappingPolicy};
use pas2p_mpisim::{run_app, Counters, HarnessAction, Mpi, SimConfig, SimHarness};
use pas2p_obs::{Counter, Histogram};
use std::sync::Arc;
use std::time::Instant;

static RESTARTS: Counter = Counter::new("signature.restarts");
static PHASE_MEASUREMENTS: Counter = Counter::new("signature.phase_measurements");
static PHASE_ET_US: Histogram = Histogram::new("signature.phase_et_us");

/// Errors from signature execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The signature's checkpoints were built for a different ISA; it
    /// cannot be ported (paper §7). Use [`rebuild_signature`].
    IsaMismatch {
        /// ISA the signature was built on.
        signature: IsaKind,
        /// ISA of the requested target.
        target: IsaKind,
    },
    /// An entry that cannot be executed: no measurement window, a
    /// checkpoint past the end, or counts and states not one per process.
    /// Only a signature read from outside the program can carry one.
    InvalidEntry {
        /// Position of the entry in [`Signature::entries`].
        entry: usize,
        /// What is wrong with it.
        reason: &'static str,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::IsaMismatch { signature, target } => write!(
                f,
                "signature built for {} cannot run on {} — reconstruct it from the phase table \
                 (paper Appendix E)",
                signature, target
            ),
            ExecError::InvalidEntry { entry, reason } => {
                write!(f, "signature entry {entry} {reason}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Watches a restarted run's per-rank event counters and timestamps the
/// startpoint/endpoint crossings of every measurement window of one
/// phase; aborts the run once every rank passed the last window's
/// endpoint. The PhaseET is the mean over the windows of
/// `max(end crossings) − max(start crossings)` — the same global-boundary
/// convention the analysis stage uses.
struct MeasureHarness {
    base: Vec<u64>,
    windows: Vec<pas2p_phases::MeasureWindow>,
    state: Mutex<MeasureState>,
}

struct MeasureState {
    /// Per-rank index of the next window to cross.
    win_idx: Vec<usize>,
    /// `start_clock[w][rank]` — clock at the rank's start crossing of
    /// window `w`.
    start_clock: Vec<Vec<Option<f64>>>,
    end_clock: Vec<Vec<Option<f64>>>,
    /// Ranks that have not yet finished their last window.
    remaining: usize,
    /// The last of them left its last window by a crossing: the
    /// measurement is complete and the run is to be terminated.
    terminated: bool,
}

impl MeasureHarness {
    fn new(base: Vec<u64>, windows: Vec<pas2p_phases::MeasureWindow>) -> MeasureHarness {
        let n = base.len();
        let w = windows.len();
        assert!(w > 0, "phase row without measurement windows");
        MeasureHarness {
            base,
            windows,
            state: Mutex::new(MeasureState {
                win_idx: vec![0; n],
                start_clock: vec![vec![None; n]; w],
                end_clock: vec![vec![None; n]; w],
                remaining: n,
                terminated: false,
            }),
        }
    }

    /// Advance rank `r`'s window pointer given its absolute event count.
    /// Returns `AbortAll` when the last rank finishes its last window.
    fn advance(&self, r: usize, abs: u64, clock: f64, st: &mut MeasureState) -> HarnessAction {
        while st.win_idx[r] < self.windows.len() {
            let w = st.win_idx[r];
            let win = &self.windows[w];
            if st.start_clock[w][r].is_none() && abs >= win.start_counts[r] {
                st.start_clock[w][r] = Some(clock);
            }
            if abs >= win.end_counts[r] {
                if st.end_clock[w][r].is_none() {
                    st.end_clock[w][r] = Some(clock);
                }
                st.win_idx[r] += 1;
                if st.win_idx[r] == self.windows.len() {
                    st.remaining -= 1;
                    if st.remaining == 0 {
                        st.terminated = true;
                        return HarnessAction::AbortAll;
                    }
                }
            } else {
                break;
            }
        }
        HarnessAction::Continue
    }

    /// Record crossings already satisfied at the checkpoint boundary (a
    /// phase can begin right where the restart begins). A rank whose
    /// windows all end at the boundary may be the last to leave — its
    /// thread started after the others crossed — and cannot abort from
    /// here: the next communication event of any rank does.
    fn prime(&self, rank: u32, clock: f64) {
        let r = rank as usize;
        let mut st = self.state.lock();
        let _ = self.advance(r, self.base[r], clock, &mut st);
    }

    /// Mean measured phase execution time over the windows.
    fn phase_et(&self) -> f64 {
        let st = self.state.lock();
        let mut sum = 0.0;
        let mut n = 0usize;
        for w in 0..self.windows.len() {
            let start = st.start_clock[w]
                .iter()
                .filter_map(|c| *c)
                .fold(0.0f64, f64::max);
            let end = st.end_clock[w]
                .iter()
                .filter_map(|c| *c)
                .fold(0.0f64, f64::max);
            if end > 0.0 || start > 0.0 {
                sum += (end - start).max(0.0);
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    fn all_measured(&self) -> bool {
        self.state.lock().remaining == 0
    }

    /// True once the measurement completed by a crossing — whichever
    /// rank's, and whether or not the run went on to unwind a thread.
    fn terminated(&self) -> bool {
        self.state.lock().terminated
    }

    /// Virtual time at which the last rank left the last window — the
    /// instant the measurement run is terminated.
    fn terminated_at(&self) -> f64 {
        let st = self.state.lock();
        let last = st.end_clock.last().expect("at least one window");
        last.iter().filter_map(|c| *c).fold(0.0f64, f64::max)
    }
}

impl SimHarness for MeasureHarness {
    fn on_comm_event(&self, rank: u32, counters: &Counters, clock: f64) -> HarnessAction {
        let r = rank as usize;
        let abs = self.base[r] + counters.comm_ops();
        // Fast path: nothing to record before the first window's start.
        {
            let st = self.state.lock();
            if st.win_idx[r] >= self.windows.len() {
                return if st.terminated {
                    HarnessAction::AbortAll
                } else {
                    HarnessAction::Continue
                };
            }
            let w = st.win_idx[r];
            if st.start_clock[w][r].is_some() {
                // fall through to full handling below
            } else if abs < self.windows[w].start_counts[r] {
                return HarnessAction::Continue;
            }
        }
        let mut st = self.state.lock();
        self.advance(r, abs, clock, &mut st)
    }

    fn on_rank_done(&self, rank: u32, clock: f64) {
        // A rank may finish its program exactly at (or before) the last
        // window's end; close its measurement so the run can conclude.
        let r = rank as usize;
        let mut st = self.state.lock();
        if st.win_idx[r] < self.windows.len() {
            for w in st.win_idx[r]..self.windows.len() {
                if st.start_clock[w][r].is_none() {
                    st.start_clock[w][r] = Some(clock);
                }
                if st.end_clock[w][r].is_none() {
                    st.end_clock[w][r] = Some(clock);
                }
            }
            st.win_idx[r] = self.windows.len();
            st.remaining -= 1;
        }
    }
}

/// The checkpoint each entry resumes from, once every entry is known to
/// be executable.
fn resume_points(signature: &Signature) -> Result<Vec<Option<&CheckpointData>>, ExecError> {
    let n = signature.nprocs as usize;
    let per_rank = |counts: &[u64]| counts.len() == n;
    let window_fits =
        |w: &pas2p_phases::MeasureWindow| per_rank(&w.start_counts) && per_rank(&w.end_counts);
    let fits = |d: &CheckpointData| {
        per_rank(&d.base_counts) && d.clock_offsets.len() == n && d.states.len() == n
    };
    let mut points = Vec::with_capacity(signature.entries.len());
    for (entry, e) in signature.entries.iter().enumerate() {
        let invalid = |reason| Err(ExecError::InvalidEntry { entry, reason });
        if e.row.windows.is_empty() {
            return invalid("has no measurement window");
        }
        let checkpoint = e.checkpoint.map(|at| signature.checkpoints.get(at));
        if checkpoint.is_some_and(|d| d.is_none()) {
            return invalid("names a checkpoint past the end");
        }
        let checkpoint = checkpoint.flatten();
        if !e.row.windows.iter().all(window_fits) || !checkpoint.is_none_or(fits) {
            return invalid("is not one count and one state per process");
        }
        points.push(checkpoint);
    }
    Ok(points)
}

/// Execute the signature on `target`: restart every checkpoint, measure
/// its phase, and apply Equation (1).
pub fn execute_signature(
    app: &dyn MpiApp,
    signature: &Signature,
    target: &MachineModel,
    policy: MappingPolicy,
) -> Result<Prediction, ExecError> {
    if signature.isa != target.isa {
        return Err(ExecError::IsaMismatch {
            signature: signature.isa,
            target: target.isa,
        });
    }
    let started = Instant::now();
    let cfg = signature.config;
    let n = signature.nprocs;
    let mut measurements = Vec::with_capacity(signature.entries.len());

    for (entry, checkpoint) in signature.entries.iter().zip(resume_points(signature)?) {
        let base = checkpoint.map_or_else(|| vec![0; n as usize], |d| d.base_counts.clone());
        let restart_cost = cfg.restart_latency
            + checkpoint.map_or(0, CheckpointData::size_bytes) as f64 / cfg.disk_bandwidth;

        let harness = Arc::new(MeasureHarness::new(base, entry.row.windows.clone()));
        let sim = SimConfig::new(target.clone(), n, policy.clone()).with_harness(harness.clone());
        let report = run_app(&sim, |ctx| {
            let rank = ctx.rank();
            let mut prog = app.make_rank(rank);
            match checkpoint {
                Some(d) => {
                    // Restart: restore state, re-apply the boundary's
                    // clock skew, resume the main loop.
                    prog.restore(&d.states[rank as usize]);
                    ctx.elapse(d.clock_offsets[rank as usize]);
                    harness.prime(rank, ctx.now());
                    for s in d.step..prog.steps() {
                        prog.step(s, ctx);
                    }
                    prog.epilogue(ctx);
                }
                None => {
                    harness.prime(rank, ctx.now());
                    drive_full(prog.as_mut(), ctx);
                }
            }
        });
        debug_assert!(
            harness.all_measured() || !report.aborted,
            "aborted without completing measurement"
        );
        // A terminated run's rank clocks record how far each thread
        // happened to get before it noticed the abort; the span of the
        // run is the virtual instant the termination was decided.
        let measured_span = if harness.terminated() {
            harness.terminated_at()
        } else {
            report.makespan
        };

        pas2p_obs::instant("host.signature", "phase measured", || {
            vec![
                ("phase", entry.row.phase_id.to_string()),
                ("weight", entry.row.weight.to_string()),
                ("phase_et_virtual_s", format!("{:.6}", harness.phase_et())),
                ("restart_cost_s", format!("{:.6}", restart_cost)),
            ]
        });
        measurements.push(PhaseMeasurement {
            phase_id: entry.row.phase_id,
            weight: entry.row.weight,
            phase_et: harness.phase_et(),
            measured_span,
            restart_cost,
        });
    }

    RESTARTS.add(signature.entries.len() as u64);
    PHASE_MEASUREMENTS.add(measurements.len() as u64);
    for m in &measurements {
        PHASE_ET_US.record((m.phase_et * 1e6) as u64);
    }
    let mut prediction = Prediction::from_measurements(
        signature.app_name.clone(),
        signature.base_machine.clone(),
        target.name.clone(),
        n,
        measurements,
        started.elapsed().as_secs_f64(),
    );
    // A prediction is only as trustworthy as the trace it rests on.
    prediction.confidence = signature.confidence;
    Ok(prediction)
}

/// Rebuild a signature on a machine with a different ISA, "using the
/// information from the phases and weight extracted in the base machine"
/// (paper §7): the phase table ports, the checkpoints are recreated by a
/// construction run on the new machine.
pub fn rebuild_signature(
    app: &dyn MpiApp,
    signature: &Signature,
    new_base: &MachineModel,
    policy: MappingPolicy,
) -> (Signature, crate::construct::ConstructionStats) {
    construct_signature(app, &signature.table, new_base, policy, signature.config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pas2p_phases::MeasureWindow;

    fn win(start: &[u64], end: &[u64]) -> MeasureWindow {
        MeasureWindow {
            start_counts: start.to_vec(),
            end_counts: end.to_vec(),
        }
    }

    fn feed(h: &MeasureHarness, rank: u32, abs_counts: &[(u64, f64)]) -> bool {
        // Feed absolute counts by synthesizing counter deltas; returns
        // true if an abort was requested.
        let mut aborted = false;
        for &(abs, clock) in abs_counts {
            let c = Counters {
                sends: abs - h.base[rank as usize],
                recvs: 0,
                colls: 0,
            };
            if h.on_comm_event(rank, &c, clock) == HarnessAction::AbortAll {
                aborted = true;
            }
        }
        aborted
    }

    #[test]
    fn a_late_prime_still_terminates_the_run() {
        // Rank 1's window ends where its restart begins (end == base).
        let h = MeasureHarness::new(vec![0, 7], vec![win(&[2, 7], &[4, 7])]);
        // Rank 0 crosses its whole window before rank 1's thread primes.
        assert!(!feed(&h, 0, &[(2, 1.0), (4, 2.0)]));
        assert!(!h.terminated());
        h.prime(1, 0.5);
        assert!(h.all_measured() && h.terminated());
        // Whichever rank communicates next stops the run.
        assert!(feed(&h, 0, &[(5, 2.5)]));
        assert_eq!(h.terminated_at(), 2.0);
    }

    #[test]
    fn single_window_measures_max_minus_max() {
        let h = MeasureHarness::new(vec![0, 0], vec![win(&[2, 3], &[4, 5])]);
        // rank 0 crosses start at t=1.0, end at t=2.0
        feed(&h, 0, &[(1, 0.5), (2, 1.0), (4, 2.0)]);
        // rank 1 crosses start at t=1.5, end at t=3.0 (last → abort)
        let aborted = feed(&h, 1, &[(3, 1.5), (5, 3.0)]);
        assert!(aborted);
        assert!(h.all_measured());
        // max(start)=1.5, max(end)=3.0
        assert!((h.phase_et() - 1.5).abs() < 1e-12);
        assert_eq!(h.terminated_at(), 3.0);
    }

    #[test]
    fn multi_window_averages() {
        let h = MeasureHarness::new(vec![0], vec![win(&[0], &[2]), win(&[4], &[6])]);
        // window 1: start 0 (primed), end at t=1; window 2: start t=3,
        // end t=5 → ETs 1.0 and 2.0 → mean 1.5.
        h.prime(0, 0.0);
        let aborted = feed(&h, 0, &[(2, 1.0), (4, 3.0), (6, 5.0)]);
        assert!(aborted);
        assert!((h.phase_et() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn one_event_can_cross_multiple_windows() {
        // A rank whose counter jumps past several windows at once (e.g. a
        // rank with no events inside the phase) must close them all.
        let h = MeasureHarness::new(vec![0], vec![win(&[1], &[2]), win(&[3], &[4])]);
        let aborted = feed(&h, 0, &[(10, 7.0)]);
        assert!(aborted);
        assert!(h.all_measured());
        // Both windows collapse to the same instant: ET 0.
        assert_eq!(h.phase_et(), 0.0);
    }

    #[test]
    fn base_offsets_are_applied() {
        let h = MeasureHarness::new(vec![100], vec![win(&[102], &[104])]);
        // counters are relative to the restart; abs = base + ops.
        let c1 = Counters {
            sends: 2,
            recvs: 0,
            colls: 0,
        };
        assert_eq!(h.on_comm_event(0, &c1, 1.0), HarnessAction::Continue);
        let c2 = Counters {
            sends: 4,
            recvs: 0,
            colls: 0,
        };
        assert_eq!(h.on_comm_event(0, &c2, 2.0), HarnessAction::AbortAll);
        assert!((h.phase_et() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rank_done_closes_remaining_windows() {
        let h = MeasureHarness::new(vec![0, 0], vec![win(&[1, 1], &[2, 2])]);
        feed(&h, 0, &[(2, 1.0)]);
        assert!(!h.all_measured());
        h.on_rank_done(1, 4.0);
        assert!(h.all_measured());
        // rank 1's crossings default to its final clock.
        assert!((h.phase_et() - (4.0 - 4.0)).abs() < 1e-9);
    }

    #[test]
    fn prime_records_boundary_aligned_starts() {
        // Phase starts exactly at the checkpoint: base == start counts.
        let h = MeasureHarness::new(vec![5], vec![win(&[5], &[7])]);
        h.prime(0, 0.25);
        let aborted = feed(&h, 0, &[(7, 1.25)]);
        assert!(aborted);
        assert!((h.phase_et() - 1.0).abs() < 1e-12);
    }
}
