//! Partial-execution prediction (related work \[17\], Yang et al.).
//!
//! "They argued that it is enough to observe partial executions of a
//! parallel application because codes are iterative and behave
//! predictably after an algorithm initialization period." The predictor
//! runs the application's prologue plus the first `observe_steps`
//! timesteps on the target, measures the steady per-step time, and
//! extrapolates linearly over the remaining steps.
//!
//! Its blind spot — the paper's argument for analyzing the *entire*
//! execution — is any behaviour outside the observed prefix: periodic
//! neighbour-list rebuilds, solver regime switches, epilogues. The
//! `baseline_comparison` bench shows this directly on Moldy.

use parking_lot::Mutex;
use pas2p_machine::{MachineModel, MappingPolicy};
use pas2p_mpisim::{run_app, Mpi, SimConfig};
use pas2p_signature::MpiApp;
use serde::{Deserialize, Serialize};

/// Outcome of a partial execution.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PartialPrediction {
    /// Predicted application execution time, seconds.
    pub pet: f64,
    /// Timesteps actually executed on the target.
    pub observed_steps: u64,
    /// Total timesteps of the application.
    pub total_steps: u64,
    /// Time spent in the observation run (the method's "SET" analog).
    pub observation_time: f64,
}

/// Run the prologue + the first `observe_steps` steps (after discarding
/// `skip_steps` as initialization, per the method) and extrapolate.
pub fn predict_by_partial_execution(
    app: &dyn MpiApp,
    target: &MachineModel,
    policy: MappingPolicy,
    skip_steps: u64,
    observe_steps: u64,
) -> PartialPrediction {
    assert!(observe_steps > 0);
    let n = app.nprocs();
    // Per-rank clocks at the skip boundary and at the observation end.
    let marks: Mutex<Vec<(f64, f64, f64)>> = Mutex::new(vec![(0.0, 0.0, 0.0); n as usize]);
    let total_steps = app.make_rank(0).steps();
    let observed = observe_steps
        .min(total_steps.saturating_sub(skip_steps))
        .max(1);

    let cfg = SimConfig::new(target.clone(), n, policy);
    run_app(&cfg, |ctx| {
        let rank = ctx.rank();
        let mut prog = app.make_rank(rank);
        prog.prologue(ctx);
        let prologue_t = ctx.now();
        for s in 0..skip_steps.min(total_steps) {
            prog.step(s, ctx);
        }
        let skip_t = ctx.now();
        for s in skip_steps..(skip_steps + observed).min(total_steps) {
            prog.step(s, ctx);
        }
        let end_t = ctx.now();
        marks.lock()[rank as usize] = (prologue_t, skip_t, end_t);
    });

    let marks = marks.into_inner();
    let prologue = marks.iter().map(|m| m.0).fold(0.0f64, f64::max);
    let skip_end = marks.iter().map(|m| m.1).fold(0.0f64, f64::max);
    let observe_end = marks.iter().map(|m| m.2).fold(0.0f64, f64::max);
    let per_step = (observe_end - skip_end) / observed as f64;

    PartialPrediction {
        pet: prologue + per_step * total_steps as f64,
        observed_steps: observed,
        total_steps,
        observation_time: observe_end,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pas2p_machine::{cluster_a, JitterModel, Work};
    use pas2p_mpisim::ReduceOp;
    use pas2p_signature::{run_plain, RankProgram};

    fn quiet() -> MachineModel {
        let mut m = cluster_a();
        m.jitter = JitterModel::none();
        m
    }

    /// Perfectly uniform iterative app: partial execution is exact.
    struct Uniform {
        steps: u64,
    }
    struct UniformRank {
        rank: u32,
        steps: u64,
    }
    impl MpiApp for Uniform {
        fn name(&self) -> String {
            "uniform".into()
        }
        fn nprocs(&self) -> u32 {
            4
        }
        fn make_rank(&self, rank: u32) -> Box<dyn RankProgram> {
            Box::new(UniformRank {
                rank,
                steps: self.steps,
            })
        }
    }
    impl RankProgram for UniformRank {
        fn prologue(&mut self, ctx: &mut dyn Mpi) {
            ctx.barrier();
        }
        fn steps(&self) -> u64 {
            self.steps
        }
        fn step(&mut self, _s: u64, ctx: &mut dyn Mpi) {
            ctx.compute(Work::flops(2e7));
            let next = (self.rank + 1) % 4;
            let prev = (self.rank + 3) % 4;
            ctx.send_sized(next, 0, 512);
            ctx.recv(Some(prev), Some(0));
            ctx.allreduce_f64(&[1.0], ReduceOp::Sum);
        }
        fn epilogue(&mut self, _ctx: &mut dyn Mpi) {}
        fn snapshot(&self) -> Vec<u8> {
            Vec::new()
        }
        fn restore(&mut self, _b: &[u8]) {}
    }

    /// An app with a heavy burst every 10 steps — invisible to a short
    /// observation window.
    struct Bursty {
        steps: u64,
    }
    struct BurstyRank {
        inner: UniformRank,
    }
    impl MpiApp for Bursty {
        fn name(&self) -> String {
            "bursty".into()
        }
        fn nprocs(&self) -> u32 {
            4
        }
        fn make_rank(&self, rank: u32) -> Box<dyn RankProgram> {
            Box::new(BurstyRank {
                inner: UniformRank {
                    rank,
                    steps: self.steps,
                },
            })
        }
    }
    impl RankProgram for BurstyRank {
        fn prologue(&mut self, ctx: &mut dyn Mpi) {
            self.inner.prologue(ctx);
        }
        fn steps(&self) -> u64 {
            self.inner.steps
        }
        fn step(&mut self, s: u64, ctx: &mut dyn Mpi) {
            self.inner.step(s, ctx);
            if (s + 1).is_multiple_of(10) {
                ctx.compute(Work::flops(4e8)); // 20x a normal step
            }
        }
        fn epilogue(&mut self, ctx: &mut dyn Mpi) {
            self.inner.epilogue(ctx);
        }
        fn snapshot(&self) -> Vec<u8> {
            Vec::new()
        }
        fn restore(&mut self, _b: &[u8]) {}
    }

    #[test]
    fn partial_execution_is_exact_for_uniform_apps() {
        let m = quiet();
        let app = Uniform { steps: 50 };
        let aet = run_plain(&app, &m, MappingPolicy::Block).makespan;
        let p = predict_by_partial_execution(&app, &m, MappingPolicy::Block, 2, 5);
        let err = (p.pet - aet).abs() / aet;
        assert!(
            err < 0.03,
            "pet {} vs aet {} ({:.1}%)",
            p.pet,
            aet,
            err * 100.0
        );
        assert!(p.observation_time < aet);
        assert_eq!(p.total_steps, 50);
    }

    #[test]
    fn partial_execution_misses_periodic_bursts() {
        // Observing 5 steps misses the every-10-step burst entirely: the
        // prediction must underestimate badly — the PAS2P argument.
        let m = quiet();
        let app = Bursty { steps: 50 };
        let aet = run_plain(&app, &m, MappingPolicy::Block).makespan;
        let p = predict_by_partial_execution(&app, &m, MappingPolicy::Block, 2, 5);
        assert!(
            p.pet < 0.75 * aet,
            "short observation should miss the bursts: pet {} vs aet {}",
            p.pet,
            aet
        );
    }

    #[test]
    fn observation_clamps_to_available_steps() {
        let m = quiet();
        let app = Uniform { steps: 4 };
        let p = predict_by_partial_execution(&app, &m, MappingPolicy::Block, 2, 100);
        assert_eq!(p.observed_steps, 2);
    }
}
