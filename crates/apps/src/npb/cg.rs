//! NPB CG: conjugate gradient with an unstructured sparse matrix.
//!
//! Communication structure per CG iteration (faithful to the NPB 2-D
//! process-grid implementation):
//!
//! * sparse mat-vec: local SpMV compute, then a `log2(cols)`-stage pairwise
//!   reduce-scatter within the process row, then one transpose exchange
//!   with the conjugate rank;
//! * two dot products (`MPI_Allreduce`) and the vector updates.

use crate::npb::Class;
use crate::util::{near_square_grid, SplitMix, StateReader, StateWriter};
use pas2p_machine::Work;
use pas2p_mpisim::Mpi;
use pas2p_signature::{MpiApp, RankProgram};

/// The CG application at a fixed class and process count.
pub struct CgApp {
    /// NPB class.
    pub class: Class,
    /// Number of processes (power of two in NPB).
    pub nprocs: u32,
    /// Outer CG iterations (scaled from NPB's 75).
    pub iters: u64,
}

impl CgApp {
    /// The paper's Table 4 configuration (Class C, 64 processes), with a
    /// scaled iteration count.
    pub fn class_c(nprocs: u32) -> CgApp {
        CgApp {
            class: Class::C,
            nprocs,
            iters: 60,
        }
    }

    /// The paper's Table 6 configuration (Class D, 256 processes).
    pub fn class_d(nprocs: u32) -> CgApp {
        CgApp {
            class: Class::D,
            nprocs,
            iters: 40,
        }
    }
}

impl MpiApp for CgApp {
    fn name(&self) -> String {
        "CG".into()
    }
    fn nprocs(&self) -> u32 {
        self.nprocs
    }
    fn workload(&self) -> String {
        format!("Class {} ({} iters)", self.class.letter(), self.iters)
    }
    fn make_rank(&self, rank: u32) -> Box<dyn RankProgram> {
        let (rows, cols) = near_square_grid(self.nprocs);
        // Scaled problem: the declared work models the class size; the
        // local arrays stay small but carry real arithmetic.
        let local_n = 512usize;
        let mut rng = SplitMix::new(0xC6 ^ rank as u64);
        let x: Vec<f64> = (0..local_n).map(|_| rng.next_f64()).collect();
        Box::new(CgRank {
            rank,
            rows,
            cols,
            iters: self.iters,
            // Class-A CG ≈ 2·nnz flops per SpMV; nnz/P per rank.
            spmv_flops: 5.0e8 * self.class.work_factor() / self.nprocs as f64,
            axpy_flops: 6.0e7 * self.class.work_factor() / self.nprocs as f64,
            mem_bytes: 4.0e8 * self.class.work_factor() / self.nprocs as f64,
            msg_bytes: (16384.0 * self.class.size_factor()) as usize,
            x,
            p: vec![0.0; local_n],
            rho: 1.0,
            step_no: 0,
        })
    }
}

struct CgRank {
    rank: u32,
    rows: u32,
    cols: u32,
    iters: u64,
    spmv_flops: f64,
    axpy_flops: f64,
    mem_bytes: f64,
    msg_bytes: usize,
    x: Vec<f64>,
    p: Vec<f64>,
    rho: f64,
    step_no: u64,
}

impl CgRank {
    fn row(&self) -> u32 {
        self.rank / self.cols
    }
    fn col(&self) -> u32 {
        self.rank % self.cols
    }
    /// Reduce-scatter partners within the process row: XOR ladder.
    fn row_partner(&self, stage: u32) -> Option<u32> {
        let peer_col = self.col() ^ (1 << stage);
        (peer_col < self.cols).then(|| self.row() * self.cols + peer_col)
    }
    /// The transpose-exchange partner of the NPB CG mat-vec. The pairing
    /// must be an involution (partner-of-partner = self) so both sides
    /// post matching sends/receives; we pair each rank with the rank half
    /// the grid away, the degenerate single-process case pairing with
    /// itself (skipped by the caller).
    fn transpose_partner(&self) -> u32 {
        let n = self.rows * self.cols;
        if n.is_multiple_of(2) {
            (self.rank + n / 2) % n
        } else {
            self.rank
        }
    }

    fn local_spmv(&mut self) {
        // Real (scaled) arithmetic keeping the state alive: a banded
        // mat-vec over the local vector.
        let n = self.x.len();
        for i in 0..n {
            let prev = self.x[(i + n - 1) % n];
            let next = self.x[(i + 1) % n];
            self.p[i] = 0.5 * self.x[i] + 0.25 * (prev + next);
        }
    }
}

impl RankProgram for CgRank {
    fn prologue(&mut self, ctx: &mut dyn Mpi) {
        // makea + initial residual norm.
        ctx.compute(Work::new(self.spmv_flops * 2.0, self.mem_bytes));
        ctx.allreduce_f64(&[self.rho], pas2p_mpisim::ReduceOp::Sum);
    }

    fn steps(&self) -> u64 {
        self.iters
    }

    fn step(&mut self, _s: u64, ctx: &mut dyn Mpi) {
        // SpMV: compute then row reduce-scatter ladder + transpose.
        self.local_spmv();
        ctx.compute(Work::new(self.spmv_flops, self.mem_bytes));
        // floor(log2(cols)) reduce-scatter stages.
        let stages = 31 - self.cols.leading_zeros();
        for stage in 0..stages {
            if let Some(peer) = self.row_partner(stage) {
                ctx.send_sized(peer, 10 + stage, self.msg_bytes >> stage.min(4));
                ctx.recv(Some(peer), Some(10 + stage));
                ctx.compute(Work::flops(self.axpy_flops * 0.1));
            }
        }
        let tp = self.transpose_partner();
        if tp != self.rank {
            ctx.send_sized(tp, 20, self.msg_bytes);
            ctx.recv(Some(tp), Some(20));
        }
        // Two dot products + vector updates.
        let d1 = ctx.allreduce_f64(&[self.p[0] * self.p[0]], pas2p_mpisim::ReduceOp::Sum);
        ctx.compute(Work::flops(self.axpy_flops));
        let d2 = ctx.allreduce_f64(&[self.x[0] * self.p[0]], pas2p_mpisim::ReduceOp::Sum);
        ctx.compute(Work::flops(self.axpy_flops));
        let alpha = if d2[0].abs() > 1e-300 {
            d1[0] / d2[0]
        } else {
            0.0
        };
        for (xi, pi) in self.x.iter_mut().zip(&self.p) {
            *xi += 1e-3 * alpha.clamp(-10.0, 10.0) * pi;
        }
        self.rho = d1[0];
        self.step_no += 1;
    }

    fn epilogue(&mut self, ctx: &mut dyn Mpi) {
        // Final residual norm (the benchmark's verification value).
        ctx.compute(Work::flops(self.axpy_flops));
        ctx.reduce_f64(0, &[self.rho], pas2p_mpisim::ReduceOp::Sum);
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut w = StateWriter::new();
        w.u64(self.step_no)
            .f64(self.rho)
            .f64s(&self.x)
            .f64s(&self.p);
        w.finish()
    }

    fn restore(&mut self, bytes: &[u8]) {
        let mut r = StateReader::new(bytes);
        self.step_no = r.u64();
        self.rho = r.f64();
        self.x = r.f64s();
        self.p = r.f64s();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pas2p_machine::{cluster_a, JitterModel, MappingPolicy};
    use pas2p_signature::run_plain;

    #[test]
    fn cg_runs_and_is_deterministic() {
        let mut m = cluster_a();
        m.jitter = JitterModel::none();
        let app = CgApp {
            class: Class::A,
            nprocs: 8,
            iters: 5,
        };
        let a = run_plain(&app, &m, MappingPolicy::Block);
        let b = run_plain(&app, &m, MappingPolicy::Block);
        assert_eq!(a.rank_clocks, b.rank_clocks);
        assert!(a.makespan > 0.0);
        assert!(!a.aborted);
    }

    #[test]
    fn cg_snapshot_roundtrips() {
        let app = CgApp {
            class: Class::A,
            nprocs: 4,
            iters: 5,
        };
        let p = app.make_rank(1);
        let snap = p.snapshot();
        let mut q = app.make_rank(1);
        q.restore(&snap);
        assert_eq!(q.snapshot(), snap);
    }

    #[test]
    fn transpose_partner_is_stable_under_grid() {
        let app = CgApp {
            class: Class::A,
            nprocs: 16,
            iters: 1,
        };
        for r in 0..16 {
            let prog = app.make_rank(r);
            // Exercise snapshot to confirm construction works per rank.
            assert!(!prog.snapshot().is_empty());
        }
    }

    #[test]
    fn class_factors_are_monotone() {
        assert!(Class::D.work_factor() > Class::C.work_factor());
        assert!(Class::C.work_factor() > Class::B.work_factor());
    }
}
