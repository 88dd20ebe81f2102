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
use serde::{Deserialize, Error, Serialize, Sink, Value};

/// A coordinated snapshot of every rank at one step boundary. A signature
/// holds each once, however many of its phases resume from it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    pub states: Vec<RankState>,
}

impl CheckpointData {
    /// Total serialized size in bytes (drives the modeled checkpoint
    /// write/restart cost).
    pub fn size_bytes(&self) -> u64 {
        self.states.iter().map(|s| s.len() as u64).sum()
    }
}

/// One rank's serialized program state, written as one lowercase hex
/// string: two characters a byte and one JSON value to read, where an
/// array of numbers takes about 3.5 characters and one value a byte.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RankState(pub Vec<u8>);

impl std::ops::Deref for RankState {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl Serialize for RankState {
    fn serialize(&self, out: &mut dyn Sink) {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let mut text = String::with_capacity(2 * self.0.len());
        for &b in &self.0 {
            text.extend([HEX[usize::from(b >> 4)], HEX[usize::from(b & 15)]].map(char::from));
        }
        out.str(&text);
    }
}

impl Deserialize for RankState {
    fn deserialize(v: Value) -> Result<Self, Error> {
        let text = String::deserialize(v)?;
        let digit = |c: u8| (c as char).to_digit(16).filter(|_| !c.is_ascii_uppercase());
        let pairs = text.as_bytes().chunks_exact(2);
        let bytes = pairs.map(|p| Some((digit(p[0])? << 4 | digit(p[1])?) as u8));
        match bytes.collect::<Option<Vec<u8>>>() {
            Some(bytes) if text.len() % 2 == 0 => Ok(RankState(bytes)),
            _ => Err(Error::custom("a state not of lowercase hex digit pairs")),
        }
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
    snaps: Vec<RankState>,
    /// Whether ranks should bring snapshots to the *next* round.
    snapshot_next: bool,
    /// The checkpoints some row resumes from, in boundary order.
    checkpoints: Vec<CheckpointData>,
    /// Per row, the position in `checkpoints` of its latest checkpoint.
    candidates: Vec<Option<usize>>,
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
                snaps: vec![RankState::default(); n],
                snapshot_next: true,
                checkpoints: Vec::new(),
                candidates: vec![None; nrows],
                finalized: vec![false; nrows],
                outcome: BoundaryOutcome {
                    all_finalized: nrows == 0,
                },
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
                st.snaps[rank as usize] = RankState(s);
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
        // Rows still within their checkpoint window move to this boundary.
        let updatable: Vec<usize> = (0..self.rows.len())
            .filter(|&r| {
                let targets = &self.rows[r].ckpt_counts;
                !st.finalized[r] && targets.iter().zip(&st.counts).all(|(t, have)| have <= t)
            })
            .collect();
        if st.snapshot_next && !updatable.is_empty() {
            let min_clock = st.clocks.iter().cloned().fold(f64::MAX, f64::min);
            let states = std::mem::replace(&mut st.snaps, vec![RankState::default(); self.n]);
            st.checkpoints.push(CheckpointData {
                step: st.step,
                base_counts: st.counts.clone(),
                clock_offsets: st.clocks.iter().map(|c| c - min_clock).collect(),
                states,
            });
            let at = st.checkpoints.len() - 1;
            for &r in &updatable {
                st.candidates[r] = Some(at);
            }
            // A row that did not move is past its window for good, so only
            // the previous checkpoint can have lost its last row.
            if at > 0 && !st.candidates.contains(&Some(at - 1)) {
                st.checkpoints.remove(at - 1);
                for c in st.candidates.iter_mut().flatten().filter(|c| **c == at) {
                    *c = at - 1;
                }
            }
        }
        for (r, row) in self.rows.iter().enumerate() {
            if row
                .end_counts
                .iter()
                .zip(&st.counts)
                .all(|(t, have)| have >= t)
            {
                st.finalized[r] = true;
            }
        }
        st.snapshot_next = !updatable.is_empty();
        st.outcome = BoundaryOutcome {
            all_finalized: st.finalized.iter().all(|&f| f),
        };
        st.arrived = 0;
        st.generation += 1;
    }

    /// Consume the coordinator, returning each checkpoint once, in
    /// boundary order, and per row the position of its own (`None` where
    /// no boundary preceded the row's checkpoint coordinates).
    pub fn into_checkpoints(self) -> (Vec<CheckpointData>, Vec<Option<usize>>) {
        let st = self.state.into_inner();
        (st.checkpoints, st.candidates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pas2p_machine::{cluster_a, MappingPolicy};
    use pas2p_mpisim::{run_app, SimConfig};
    use std::sync::Arc;

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
        let (checkpoints, rows) = Arc::into_inner(c).unwrap().into_checkpoints();
        assert_eq!(rows, [Some(0)]);
        assert_eq!(checkpoints.len(), 1, "superseded boundaries are not kept");
        let cps = &checkpoints[0];
        assert_eq!(cps.step, 2, "latest boundary with counts <= 10");
        assert_eq!(cps.base_counts, vec![8, 8]);
        assert_eq!(cps.clock_offsets, vec![0.0, 0.5]);
        assert_eq!(cps.states, [RankState(vec![0, 2]), RankState(vec![1, 2])]);
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
        let (checkpoints, rows) = Arc::into_inner(c).unwrap().into_checkpoints();
        assert!(checkpoints.is_empty());
        assert_eq!(rows, [None]);
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
            RowTargets {
                ckpt_counts: vec![2, 2],
                end_counts: vec![6, 6],
            },
            RowTargets {
                ckpt_counts: vec![10, 10],
                end_counts: vec![14, 14],
            },
        ]);
        let outs = run_boundaries(
            &c,
            &[
                (0, [0, 0], [0.0, 0.0]),
                (1, [4, 4], [0.0, 0.0]),
                (2, [8, 8], [0.0, 0.0]),   // row 0 finalized (counts ≥ 6)
                (3, [16, 16], [0.0, 0.0]), // row 1 finalized
            ],
        );
        assert!(!outs[2].all_finalized);
        assert!(outs[3].all_finalized);
        let (checkpoints, rows) = Arc::into_inner(c).unwrap().into_checkpoints();
        let steps: Vec<u64> = checkpoints.iter().map(|d| d.step).collect();
        assert_eq!(steps, [0, 2], "step 1 was superseded for row 1");
        assert_eq!(rows, [Some(0), Some(1)]);
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
            states: vec![RankState(vec![0; 100]), RankState(vec![0; 28])],
        };
        assert_eq!(data.size_bytes(), 128);
    }

    #[test]
    fn a_state_is_one_lowercase_hex_string() {
        let state = RankState(vec![0x00, 0x7f, 0xa5, 0xff]);
        let text = serde_json::to_string(&state).unwrap();
        assert_eq!(text, r#""007fa5ff""#);
        assert_eq!(serde_json::from_str::<RankState>(&text).unwrap(), state);
        assert_eq!(
            serde_json::from_str::<RankState>(r#""""#).unwrap(),
            RankState::default()
        );
    }

    #[test]
    fn a_state_not_of_lowercase_hex_pairs_is_refused() {
        for text in [
            r#""007""#,
            r#""007F""#,
            r#""0g""#,
            r#""0 ""#,
            "[0,127]",
            "null",
        ] {
            assert!(serde_json::from_str::<RankState>(text).is_err(), "{text}");
        }
    }
}
