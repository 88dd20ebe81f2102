//! Coordinated checkpoints — the DMTCP substitute.
//!
//! DMTCP snapshots whole processes at a globally consistent point. Here a
//! checkpoint is the set of all ranks' [`RankProgram`](crate::RankProgram)
//! snapshots taken at the same step boundary, plus the metadata needed to
//! resume and to interpret the phase table's absolute event counts:
//! the boundary's step index, each rank's communication-event count, and
//! each rank's virtual-clock skew relative to the earliest rank (restored
//! on restart so the resumed execution keeps the original imbalance).

use parking_lot::Mutex;
use pas2p_mpisim::{Mpi, RankCtx};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Where a phase's measurement run begins.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum CheckpointPoint {
    /// No usable checkpoint (the phase starts inside the prologue): the
    /// signature re-runs the application from its entry point.
    Start,
    /// Resume from a coordinated checkpoint.
    Data(CheckpointData),
}

/// A coordinated snapshot of every rank at one step boundary.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CheckpointData {
    /// Number of main-loop steps completed at the boundary.
    pub step: u64,
    /// Per-rank communication-event counts at the boundary (absolute,
    /// from application start) — the offset added to a restarted run's
    /// counters when matching phase-table coordinates.
    pub base_counts: Vec<u64>,
    /// Per-rank virtual-clock skew at the boundary, relative to the
    /// earliest rank.
    pub clock_offsets: Vec<f64>,
    /// Per-rank serialized program state.
    pub states: Arc<Vec<Vec<u8>>>,
}

impl CheckpointData {
    /// Total serialized size in bytes (drives the modeled checkpoint
    /// write/restart cost).
    pub fn size_bytes(&self) -> u64 {
        self.states.iter().map(|s| s.len() as u64).sum()
    }
}

/// Outcome of one boundary round, delivered to every rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundaryOutcome {
    /// True once every phase-table row has a finalized checkpoint — the
    /// construction run can stop ("the signature terminates the execution
    /// because it is not necessary to continue", §3.4).
    pub all_finalized: bool,
}

/// Per-row targets the construction driver watches.
#[derive(Debug, Clone)]
pub(crate) struct RowTargets {
    pub ckpt_counts: Vec<u64>,
    pub end_counts: Vec<u64>,
}

struct SyncState {
    generation: u64,
    arrived: usize,
    counts: Vec<u64>,
    clocks: Vec<f64>,
    snaps: Vec<Vec<u8>>,
    /// Whether ranks should bring snapshots to the *next* round.
    snapshot_next: bool,
    candidates: Vec<Option<CheckpointData>>,
    finalized: Vec<bool>,
    outcome: BoundaryOutcome,
    step: u64,
}

/// The construction-time coordinator: a driver-level barrier at every step
/// boundary that maintains, per phase-table row, the latest checkpoint not
/// beyond the row's checkpoint coordinates. It lives *outside* the MPI
/// interface — like DMTCP's coordinator process — so it adds no
/// communication events and does not disturb the event counts the phase
/// table addresses. Ranks that wait at it park through the run's own
/// park/wake protocol ([`RankCtx::park_until`]), so the simulator knows
/// they are blocked rather than computing.
pub(crate) struct CkptCoordinator {
    n: usize,
    rows: Vec<RowTargets>,
    state: Mutex<SyncState>,
}

impl CkptCoordinator {
    pub fn new(n: usize, rows: Vec<RowTargets>) -> CkptCoordinator {
        let nrows = rows.len();
        CkptCoordinator {
            n,
            rows,
            state: Mutex::new(SyncState {
                generation: 0,
                arrived: 0,
                counts: vec![0; n],
                clocks: vec![0.0; n],
                snaps: vec![Vec::new(); n],
                snapshot_next: true,
                candidates: vec![None; nrows],
                finalized: vec![false; nrows],
                outcome: BoundaryOutcome { all_finalized: nrows == 0 },
                step: 0,
            }),
        }
    }

    /// Whether ranks should serialize their state before arriving at the
    /// next boundary.
    pub fn wants_snapshot(&self) -> bool {
        self.state.lock().snapshot_next
    }

    /// The rank behind `ctx` reaches a step boundary having completed
    /// `step` steps, with `comm_ops` events on its counter and virtual
    /// clock `clock`. `snapshot` must be `Some` when
    /// [`wants_snapshot`](Self::wants_snapshot) returned true before the
    /// call. Blocks until all ranks arrive; returns the round outcome.
    pub fn boundary(
        &self,
        ctx: &mut RankCtx,
        step: u64,
        comm_ops: u64,
        clock: f64,
        snapshot: Option<Vec<u8>>,
    ) -> BoundaryOutcome {
        let rank = ctx.rank();
        let my_gen = {
            let mut st = self.state.lock();
            st.counts[rank as usize] = comm_ops;
            st.clocks[rank as usize] = clock;
            if let Some(s) = snapshot {
                st.snaps[rank as usize] = s;
            }
            st.step = step;
            st.arrived += 1;
            if st.arrived == self.n {
                self.complete_round(&mut st);
                let outcome = st.outcome;
                drop(st);
                // The round is visible; now the waiters may look.
                for waiter in (0..self.n as u32).filter(|&r| r != rank) {
                    ctx.wake(waiter);
                }
                return outcome;
            }
            st.generation
        };
        ctx.park_until("the checkpoint boundary", || {
            self.state.lock().generation != my_gen
        });
        // Stable until the next round completes, which needs this rank.
        self.state.lock().outcome
    }

    fn complete_round(&self, st: &mut SyncState) {
        let took_snaps = st.snapshot_next;
        let shared_states: Option<Arc<Vec<Vec<u8>>>> = if took_snaps {
            Some(Arc::new(std::mem::replace(
                &mut st.snaps,
                vec![Vec::new(); self.n],
            )))
        } else {
            None
        };
        let min_clock = st.clocks.iter().cloned().fold(f64::MAX, f64::min);
        let offsets: Vec<f64> = st.clocks.iter().map(|c| c - min_clock).collect();

        let mut any_updatable = false;
        for (r, row) in self.rows.iter().enumerate() {
            if st.finalized[r] {
                continue;
            }
            let within_ckpt_window = row
                .ckpt_counts
                .iter()
                .zip(&st.counts)
                .all(|(&target, &have)| have <= target);
            if within_ckpt_window {
                any_updatable = true;
                if let Some(states) = &shared_states {
                    st.candidates[r] = Some(CheckpointData {
                        step: st.step,
                        base_counts: st.counts.clone(),
                        clock_offsets: offsets.clone(),
                        states: states.clone(),
                    });
                }
            }
            let past_end = row
                .end_counts
                .iter()
                .zip(&st.counts)
                .all(|(&target, &have)| have >= target);
            if past_end {
                st.finalized[r] = true;
            }
        }
        st.snapshot_next = any_updatable;
        st.outcome = BoundaryOutcome {
            all_finalized: st.finalized.iter().all(|&f| f),
        };
        st.arrived = 0;
        st.generation += 1;
    }

    /// Consume the coordinator, returning per-row checkpoints
    /// ([`CheckpointPoint::Start`] where no boundary preceded the row's
    /// checkpoint coordinates).
    pub fn into_checkpoints(self) -> Vec<CheckpointPoint> {
        let st = self.state.into_inner();
        st.candidates
            .into_iter()
            .map(|c| match c {
                Some(data) => CheckpointPoint::Data(data),
                None => CheckpointPoint::Start,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pas2p_machine::{cluster_a, MappingPolicy};
    use pas2p_mpisim::{run_app, SimConfig};

    fn coordinator(rows: Vec<RowTargets>) -> Arc<CkptCoordinator> {
        Arc::new(CkptCoordinator::new(2, rows))
    }

    /// Drive both ranks of a two-rank run through the boundaries.
    fn run_boundaries(
        c: &Arc<CkptCoordinator>,
        // (step, [counts per rank], [clock per rank])
        boundaries: &[(u64, [u64; 2], [f64; 2])],
    ) -> Vec<BoundaryOutcome> {
        let cfg = SimConfig::new(cluster_a(), 2, MappingPolicy::Block);
        let outcomes = Mutex::new(vec![Vec::new(); 2]);
        run_app(&cfg, |ctx| {
            let r = ctx.rank() as usize;
            for &(step, counts, clocks) in boundaries {
                let snap = c.wants_snapshot().then(|| vec![r as u8, step as u8]);
                let o = c.boundary(ctx, step, counts[r], clocks[r], snap);
                outcomes.lock()[r].push(o);
            }
        });
        let mut outcomes = outcomes.into_inner();
        assert_eq!(outcomes[0], outcomes[1], "both ranks see every outcome");
        outcomes.remove(0)
    }

    #[test]
    fn keeps_latest_checkpoint_before_target() {
        let c = coordinator(vec![RowTargets {
            ckpt_counts: vec![10, 10],
            end_counts: vec![20, 20],
        }]);
        let outs = run_boundaries(
            &c,
            &[
                (0, [0, 0], [0.0, 0.0]),
                (1, [4, 4], [1.0, 1.5]),
                (2, [8, 8], [2.0, 2.5]),
                (3, [12, 12], [3.0, 3.5]), // past ckpt window
                (4, [22, 22], [4.0, 4.5]), // past end → finalized
            ],
        );
        assert!(outs[4].all_finalized);
        let cps = match Arc::into_inner(c).unwrap().into_checkpoints().remove(0) {
            CheckpointPoint::Data(d) => d,
            CheckpointPoint::Start => panic!("expected data"),
        };
        assert_eq!(cps.step, 2, "latest boundary with counts <= 10");
        assert_eq!(cps.base_counts, vec![8, 8]);
        assert_eq!(cps.clock_offsets, vec![0.0, 0.5]);
        assert_eq!(&*cps.states, &vec![vec![0u8, 2], vec![1u8, 2]]);
    }

    #[test]
    fn phase_before_any_boundary_falls_back_to_start() {
        let c = coordinator(vec![RowTargets {
            // Checkpoint would need counts <= 1, but even the first
            // boundary has more events.
            ckpt_counts: vec![1, 1],
            end_counts: vec![3, 3],
        }]);
        run_boundaries(&c, &[(0, [5, 5], [0.0, 0.0])]);
        let cp = Arc::into_inner(c).unwrap().into_checkpoints().remove(0);
        assert!(matches!(cp, CheckpointPoint::Start));
    }

    #[test]
    fn snapshotting_stops_after_all_windows_pass() {
        let c = coordinator(vec![RowTargets {
            ckpt_counts: vec![4, 4],
            end_counts: vec![100, 100],
        }]);
        assert!(c.wants_snapshot());
        run_boundaries(&c, &[(0, [2, 2], [0.0, 0.0])]);
        assert!(c.wants_snapshot(), "still inside the window");
        run_boundaries(&c, &[(1, [6, 6], [0.0, 0.0])]);
        assert!(!c.wants_snapshot(), "window passed, stop serializing");
    }

    #[test]
    fn multiple_rows_finalize_independently() {
        let c = coordinator(vec![
            RowTargets { ckpt_counts: vec![2, 2], end_counts: vec![6, 6] },
            RowTargets { ckpt_counts: vec![10, 10], end_counts: vec![14, 14] },
        ]);
        let outs = run_boundaries(
            &c,
            &[
                (0, [0, 0], [0.0, 0.0]),
                (1, [4, 4], [0.0, 0.0]),
                (2, [8, 8], [0.0, 0.0]), // row 0 finalized (counts ≥ 6)
                (3, [16, 16], [0.0, 0.0]), // row 1 finalized
            ],
        );
        assert!(!outs[2].all_finalized);
        assert!(outs[3].all_finalized);
        let cps = Arc::into_inner(c).unwrap().into_checkpoints();
        match (&cps[0], &cps[1]) {
            (CheckpointPoint::Data(a), CheckpointPoint::Data(b)) => {
                assert_eq!(a.step, 0);
                assert_eq!(b.step, 2);
            }
            other => panic!("unexpected {:?}", other),
        }
    }

    #[test]
    fn no_rows_is_immediately_finalized() {
        let c = coordinator(vec![]);
        let outs = run_boundaries(&c, &[(0, [0, 0], [0.0, 0.0])]);
        assert!(outs[0].all_finalized);
    }

    #[test]
    fn checkpoint_size_sums_states() {
        let data = CheckpointData {
            step: 0,
            base_counts: vec![0, 0],
            clock_offsets: vec![0.0, 0.0],
            states: Arc::new(vec![vec![0u8; 100], vec![0u8; 28]]),
        };
        assert_eq!(data.size_bytes(), 128);
    }
}
