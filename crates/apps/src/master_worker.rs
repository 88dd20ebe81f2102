//! Master/worker: the paper's illustrative counter-example (§6).
//!
//! "The master sends the job to the workers, then the workers compute and
//! when they end the job send their results to the master. In this kind
//! of application PAS2P detects one phase with a weight of 1 and
//! executing this phase will be the same as to execute the whole
//! application."
//!
//! The one-shot variant reproduces exactly that behaviour; a repeated
//! variant (rounds > 1) turns the same code into a weighted phase,
//! useful for testing how weight changes the prediction.

use crate::util::{SplitMix, StateReader, StateWriter};
use pas2p_machine::Work;
use pas2p_mpisim::Mpi;
use pas2p_signature::{MpiApp, RankProgram};

/// The master/worker application.
pub struct MasterWorkerApp {
    /// Number of processes (rank 0 is the master).
    pub nprocs: u32,
    /// Task distribution rounds; 1 reproduces the paper's single-phase,
    /// weight-1 scenario.
    pub rounds: u64,
    /// Worker compute per task, flops.
    pub task_flops: f64,
}

impl MasterWorkerApp {
    /// The paper's one-shot scenario.
    pub fn one_shot(nprocs: u32) -> MasterWorkerApp {
        MasterWorkerApp {
            nprocs,
            rounds: 1,
            task_flops: 5e9,
        }
    }
}

impl MpiApp for MasterWorkerApp {
    fn name(&self) -> String {
        "MasterWorker".into()
    }
    fn nprocs(&self) -> u32 {
        self.nprocs
    }
    fn workload(&self) -> String {
        format!("{} rounds", self.rounds)
    }
    fn make_rank(&self, rank: u32) -> Box<dyn RankProgram> {
        Box::new(MwRank {
            rank,
            nprocs: self.nprocs,
            rounds: self.rounds,
            task_flops: self.task_flops,
            result: SplitMix::new(rank as u64).next_f64(),
            step_no: 0,
        })
    }
}

struct MwRank {
    rank: u32,
    nprocs: u32,
    rounds: u64,
    task_flops: f64,
    result: f64,
    step_no: u64,
}

impl RankProgram for MwRank {
    fn prologue(&mut self, _ctx: &mut dyn Mpi) {}

    fn steps(&self) -> u64 {
        self.rounds
    }

    fn step(&mut self, _s: u64, ctx: &mut dyn Mpi) {
        if self.rank == 0 {
            // Distribute one task to each worker, then collect results.
            // ANY_SOURCE receives: the nondeterministic pattern §3.2
            // motivates.
            for w in 1..self.nprocs {
                ctx.send_sized(w, 1, 4096);
            }
            for _ in 1..self.nprocs {
                let m = ctx.recv(None, Some(2));
                self.result += m.len as f64;
            }
        } else {
            ctx.recv(Some(0), Some(1));
            // Unbalanced tasks: worker w computes w units.
            ctx.compute(Work::flops(
                self.task_flops * self.rank as f64 / self.nprocs as f64,
            ));
            self.result = self.result * 0.5 + self.rank as f64;
            ctx.send_sized(0, 2, 1024);
        }
        self.step_no += 1;
    }

    fn epilogue(&mut self, _ctx: &mut dyn Mpi) {}

    fn snapshot(&self) -> Vec<u8> {
        let mut w = StateWriter::new();
        w.u64(self.step_no).f64(self.result);
        w.finish()
    }

    fn restore(&mut self, bytes: &[u8]) {
        let mut r = StateReader::new(bytes);
        self.step_no = r.u64();
        self.result = r.f64();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pas2p_machine::{cluster_a, JitterModel, MappingPolicy};
    use pas2p_signature::run_plain;

    #[test]
    fn master_worker_completes() {
        let mut m = cluster_a();
        m.jitter = JitterModel::none();
        let app = MasterWorkerApp::one_shot(8);
        let r = run_plain(&app, &m, MappingPolicy::Block);
        assert!(!r.aborted);
        // 7 task sends + 7 result sends.
        assert_eq!(r.total_msgs, 14);
    }

    #[test]
    fn imbalance_shows_in_clocks() {
        let mut m = cluster_a();
        m.jitter = JitterModel::none();
        let app = MasterWorkerApp::one_shot(8);
        let r = run_plain(&app, &m, MappingPolicy::Block);
        // Worker 7 computes 7× worker 1's load; the master waits for all.
        assert!(r.imbalance() > 0.1);
    }

    #[test]
    fn mw_snapshot_roundtrips() {
        let app = MasterWorkerApp::one_shot(4);
        let p = app.make_rank(0);
        let snap = p.snapshot();
        let mut q = app.make_rank(0);
        q.restore(&snap);
        assert_eq!(q.snapshot(), snap);
    }
}
