//! Signature construction (paper §3.4, Figs 8–9a).
//!
//! "To construct the signature, we re-run the application loading the
//! Libpas2p library and the phase table to instrument and detect where the
//! phases occur" — at each relevant phase's startpoint a coordinated
//! checkpoint is created, and "after completing the checkpoint for the
//! last phase, the signature terminates the execution because it is not
//! necessary to continue".

use crate::app::MpiApp;
use crate::checkpoint::{CheckpointData, CkptCoordinator, RowTargets};
use pas2p_machine::{IsaKind, MachineModel, MappingPolicy};
use pas2p_mpisim::{run_app, Mpi, SimConfig};
use pas2p_obs::Counter;
use pas2p_phases::{PhaseRow, PhaseTable};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

static ROWS_SKIPPED_EMPTY: Counter = Counter::new("signature.rows_skipped_empty");
static CONSTRUCT_RUNS: Counter = Counter::new("signature.construct_runs");
static CHECKPOINTS: Counter = Counter::new("signature.checkpoints");
static CHECKPOINT_BYTES: Counter = Counter::new("signature.checkpoint_bytes");

/// Tunables of signature construction and execution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SignatureConfig {
    /// Fraction of AET a phase must contribute to be relevant (paper: 1 %).
    pub relevance_threshold: f64,
    /// Minimum occurrences to skip after restart before measurement
    /// (machine warm-up; paper places the checkpoint before the phase
    /// start and lets the phase occur "a series of times").
    pub warmup_occurrences: usize,
    /// Maximum consecutive occurrences measured and averaged per phase.
    pub measure_occurrences: usize,
    /// Modeled disk bandwidth for checkpoint writes/restores, bytes/s.
    pub disk_bandwidth: f64,
    /// Fixed cost of creating one coordinated checkpoint, seconds.
    pub ckpt_latency: f64,
    /// Fixed cost of restarting one checkpoint, seconds.
    pub restart_latency: f64,
}

impl Default for SignatureConfig {
    fn default() -> Self {
        SignatureConfig {
            relevance_threshold: 0.01,
            warmup_occurrences: 1,
            measure_occurrences: 24,
            disk_bandwidth: 200e6,
            ckpt_latency: 0.08,
            restart_latency: 0.12,
        }
    }
}

/// One relevant phase inside a signature: its table row plus the
/// checkpoint that resumes execution just before it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SignatureEntry {
    /// The phase-table row (weights, coordinates, base PhaseET).
    pub row: PhaseRow,
    /// Where the measurement run starts: a position in
    /// [`Signature::checkpoints`], or `None` for the application's start
    /// (the phase begins inside the prologue).
    pub checkpoint: Option<usize>,
}

/// The parallel application signature: executable phase measurements plus
/// the metadata to predict from them. "The signature is the real code of
/// the application": executing it resumes the actual program state and
/// runs the actual kernel on the target machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Signature {
    /// Application name.
    pub app_name: String,
    /// Workload description used during analysis.
    pub workload: String,
    /// Number of processes.
    pub nprocs: u32,
    /// Machine the signature was constructed on.
    pub base_machine: String,
    /// ISA of the base machine — checkpoints only restart on the same ISA
    /// (paper §7 / Appendix E).
    pub isa: IsaKind,
    /// The phase table the signature was built from.
    pub table: PhaseTable,
    /// One entry per relevant phase.
    pub entries: Vec<SignatureEntry>,
    /// The coordinated checkpoints the entries resume from, each once, in
    /// boundary order.
    pub checkpoints: Vec<CheckpointData>,
    /// Configuration used to build (and later execute) the signature.
    pub config: SignatureConfig,
    /// Confidence inherited from the analysis the signature was built
    /// from: `Degraded` when the trace went through the recovering
    /// ingest path and lost data on the way.
    #[serde(default)]
    pub confidence: pas2p_trace::Confidence,
}

impl Signature {
    /// Total checkpoint payload in bytes, summed per entry as SCT models
    /// it: a checkpoint two phases resume from counts for each.
    pub fn checkpoint_bytes(&self) -> u64 {
        let resumed = self
            .entries
            .iter()
            .filter_map(|e| self.checkpoints.get(e.checkpoint?));
        resumed.map(CheckpointData::size_bytes).sum()
    }

    /// Number of relevant phases in the signature.
    pub fn phase_count(&self) -> usize {
        self.entries.len()
    }
}

/// Timing of the construction run.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ConstructionStats {
    /// The paper's SCT: virtual time of the (early-terminated)
    /// construction re-run plus modeled checkpoint write costs.
    pub sct: f64,
    /// Virtual makespan of the construction run alone.
    pub run_makespan: f64,
    /// Modeled checkpoint write cost, seconds.
    pub ckpt_write_seconds: f64,
    /// Total checkpoint bytes written.
    pub ckpt_bytes: u64,
    /// Host wall-clock seconds construction took.
    pub wall_seconds: f64,
}

/// Re-run the application on `machine` with `table` loaded, creating the
/// coordinated checkpoints, and assemble the signature.
pub fn construct_signature(
    app: &dyn MpiApp,
    table: &PhaseTable,
    machine: &MachineModel,
    policy: MappingPolicy,
    config: SignatureConfig,
) -> (Signature, ConstructionStats) {
    let started = Instant::now();
    let n = app.nprocs();
    assert_eq!(n, table.nprocs, "phase table is for a different run size");

    // Rows without measure windows (possible in a deserialized table;
    // `pas2p-check` flags them as SIG-ROW-001) have no endpoint to detect
    // and nothing to measure, so they get no entry.
    let (rows, targets): (Vec<PhaseRow>, Vec<RowTargets>) = table
        .rows
        .iter()
        .filter_map(|r| match r.end_counts() {
            Some(end) => Some((
                r.clone(),
                RowTargets {
                    ckpt_counts: r.ckpt_counts.clone(),
                    end_counts: end.to_vec(),
                },
            )),
            None => {
                ROWS_SKIPPED_EMPTY.inc();
                None
            }
        })
        .unzip();
    let coord = Arc::new(CkptCoordinator::new(n as usize, targets));

    let sim = SimConfig::new(machine.clone(), n, policy);
    let coord_ref = coord.clone();
    let report = run_app(&sim, move |ctx| {
        let rank = ctx.rank();
        let mut prog = app.make_rank(rank);
        prog.prologue(ctx);

        let boundary =
            |prog: &dyn crate::app::RankProgram, ctx: &mut pas2p_mpisim::RankCtx, step: u64| {
                let snap = coord_ref.wants_snapshot().then(|| prog.snapshot());
                let (ops, now) = (ctx.counters().comm_ops(), ctx.now());
                coord_ref.boundary(ctx, step, ops, now, snap).all_finalized
            };

        if boundary(prog.as_ref(), ctx, 0) {
            return;
        }
        let steps = prog.steps();
        for s in 0..steps {
            prog.step(s, ctx);
            if boundary(prog.as_ref(), ctx, s + 1) {
                return;
            }
        }
        prog.epilogue(ctx);
        // Final boundary so trailing rows finalize on complete traces.
        boundary(prog.as_ref(), ctx, steps + 1);
    });

    let (checkpoints, positions) = Arc::into_inner(coord)
        .expect("coordinator still shared")
        .into_checkpoints();
    let entries: Vec<SignatureEntry> = rows
        .into_iter()
        .zip(positions)
        .map(|(row, checkpoint)| SignatureEntry { row, checkpoint })
        .collect();

    let signature = Signature {
        app_name: app.name(),
        workload: app.workload(),
        nprocs: n,
        base_machine: machine.name.clone(),
        isa: machine.isa,
        table: table.clone(),
        entries,
        checkpoints,
        config,
        confidence: pas2p_trace::Confidence::Full,
    };

    let ckpt_bytes = signature.checkpoint_bytes();
    let ckpt_write_seconds = signature.entries.len() as f64 * config.ckpt_latency
        + ckpt_bytes as f64 / config.disk_bandwidth;
    let stats = ConstructionStats {
        sct: report.makespan + ckpt_write_seconds,
        run_makespan: report.makespan,
        ckpt_write_seconds,
        ckpt_bytes,
        wall_seconds: started.elapsed().as_secs_f64(),
    };
    CONSTRUCT_RUNS.inc();
    CHECKPOINTS.add(signature.entries.len() as u64);
    CHECKPOINT_BYTES.add(ckpt_bytes);
    pas2p_obs::instant("host.signature", "signature constructed", || {
        vec![
            ("app", signature.app_name.clone()),
            ("checkpoints", signature.entries.len().to_string()),
            ("ckpt_bytes", ckpt_bytes.to_string()),
            ("sct_virtual_s", format!("{:.6}", stats.sct)),
        ]
    });
    (signature, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::testutil::RingApp;
    use crate::execute::{execute_signature, ExecError};
    use pas2p_machine::cluster_a;
    use pas2p_phases::MeasureWindow;

    fn app() -> RingApp {
        RingApp {
            nprocs: 4,
            iters: 16,
            flops_per_step: 1e7,
            msg_bytes: 128,
        }
    }

    /// A row checkpointed at the boundary after `ckpt` steps and measured
    /// over step `at`: the ring's every rank has `1 + 3k` events after `k`
    /// steps (the broadcast, then a send, a receive and an allreduce each).
    fn row(phase_id: u32, ckpt: u64, at: u64) -> PhaseRow {
        let counts = |steps: u64| vec![1 + 3 * steps; 4];
        PhaseRow {
            phase_id,
            weight: 10,
            phase_et_base: 0.0,
            ckpt_counts: counts(ckpt),
            windows: vec![MeasureWindow {
                start_counts: counts(at),
                end_counts: counts(at + 1),
            }],
        }
    }

    fn construct(rows: Vec<PhaseRow>) -> Signature {
        let table = PhaseTable {
            nprocs: 4,
            aet_base: 1.0,
            total_phases: rows.len(),
            relevance_threshold: 0.01,
            rows,
        };
        let config = SignatureConfig::default();
        construct_signature(&app(), &table, &cluster_a(), MappingPolicy::Block, config).0
    }

    /// Rows 1 and 2 share the boundary after step 5.
    fn rows() -> Vec<PhaseRow> {
        vec![row(1, 2, 3), row(2, 5, 6), row(3, 5, 7), row(4, 9, 10)]
    }

    /// Each entry's row and the checkpoint it resumes from.
    fn resumes(s: &Signature) -> Vec<(PhaseRow, Option<CheckpointData>)> {
        let of = |e: &SignatureEntry| e.checkpoint.map(|at| s.checkpoints[at].clone());
        s.entries.iter().map(|e| (e.row.clone(), of(e))).collect()
    }

    #[test]
    fn rows_on_one_boundary_name_one_checkpoint() {
        let sig = construct(rows());
        let positions: Vec<Option<usize>> = sig.entries.iter().map(|e| e.checkpoint).collect();
        assert_eq!(positions, [Some(0), Some(1), Some(1), Some(2)]);
        let steps: Vec<u64> = sig.checkpoints.iter().map(|d| d.step).collect();
        assert_eq!(steps, [2, 5, 9], "one checkpoint per boundary, in order");
        // Each of the four ranks snapshots 16 bytes; a checkpoint two
        // entries resume from counts for both.
        assert_eq!(sig.checkpoint_bytes(), 4 * 64);
    }

    #[test]
    fn a_signature_round_trips_with_its_sharing() {
        let sig = construct(rows());
        let text = serde_json::to_string(&sig).unwrap();
        assert_eq!(text.matches(r#""step":5"#).count(), 1, "{text}");
        let back: Signature = serde_json::from_str(&text).unwrap();
        assert_eq!(back, sig);
        assert_eq!(back.entries[1].checkpoint, back.entries[2].checkpoint);
    }

    #[test]
    fn a_row_without_windows_gets_no_entry_and_shifts_no_other() {
        let full = construct(rows());
        let mut holed = rows();
        holed[0].windows.clear();
        let holed = construct(holed);
        assert_eq!(resumes(&holed), resumes(&full)[1..]);
        let prediction = execute_signature(&app(), &holed, &cluster_a(), MappingPolicy::Block)
            .expect("every entry executes");
        let measured: Vec<u32> = prediction.measurements.iter().map(|m| m.phase_id).collect();
        assert_eq!(measured, [2, 3, 4]);
    }

    #[test]
    fn an_entry_that_cannot_run_is_refused_by_name() {
        let sig = construct(rows());
        let run = |sig: &Signature| {
            execute_signature(&app(), sig, &cluster_a(), MappingPolicy::Block).unwrap_err()
        };
        let mut windowless = sig.clone();
        windowless.entries[1].row.windows.clear();
        let mut past_the_end = sig.clone();
        past_the_end.entries[2].checkpoint = Some(sig.checkpoints.len());
        let mut short = sig.clone();
        short.checkpoints[0].states.pop();
        for (sig, entry, reason) in [
            (windowless, 1, "has no measurement window"),
            (past_the_end, 2, "names a checkpoint past the end"),
            (short, 0, "is not one count and one state per process"),
        ] {
            assert_eq!(run(&sig), ExecError::InvalidEntry { entry, reason });
        }
    }
}
