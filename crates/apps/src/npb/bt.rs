//! NPB BT: block-tridiagonal ADI solver on a square process grid
//! (multi-partition decomposition).
//!
//! Per iteration: compute the right-hand side, then perform forward
//! elimination and back substitution sweeps in each of the three spatial
//! dimensions. Every sweep exchanges face blocks with the ±direction
//! neighbours (cyclic, as the multi-partition scheme wraps partitions).

use crate::npb::Class;
use crate::util::{near_square_grid, SplitMix, StateReader, StateWriter};
use pas2p_machine::Work;
use pas2p_mpisim::Mpi;
use pas2p_signature::{MpiApp, RankProgram};

/// The BT application. NPB BT requires a square process count; other
/// counts run on the nearest rows×cols grid.
pub struct BtApp {
    /// NPB class.
    pub class: Class,
    /// Number of processes.
    pub nprocs: u32,
    /// Time steps (scaled from NPB's 200).
    pub iters: u64,
}

impl BtApp {
    /// Table 4 configuration: Class C, 64 processes.
    pub fn class_c(nprocs: u32) -> BtApp {
        BtApp {
            class: Class::C,
            nprocs,
            iters: 40,
        }
    }

    /// Table 6 configuration: Class D, 256 processes.
    pub fn class_d(nprocs: u32) -> BtApp {
        BtApp {
            class: Class::D,
            nprocs,
            iters: 30,
        }
    }
}

impl MpiApp for BtApp {
    fn name(&self) -> String {
        "BT".into()
    }
    fn nprocs(&self) -> u32 {
        self.nprocs
    }
    fn workload(&self) -> String {
        format!("Class {} ({} steps)", self.class.letter(), self.iters)
    }
    fn make_rank(&self, rank: u32) -> Box<dyn RankProgram> {
        let (rows, cols) = near_square_grid(self.nprocs);
        let local = 384usize;
        let mut rng = SplitMix::new(0xB7 ^ rank as u64);
        Box::new(AdiRank {
            rank,
            rows,
            cols,
            iters: self.iters,
            rhs_flops: 9.0e8 * self.class.work_factor() / self.nprocs as f64,
            solve_flops: 6.0e8 * self.class.work_factor() / self.nprocs as f64,
            mem_bytes: 5.0e8 * self.class.work_factor() / self.nprocs as f64,
            // BT exchanges 5x5 block faces: large messages.
            msg_bytes: (40960.0 * self.class.size_factor()) as usize,
            sweeps_per_dim: 1,
            u: (0..local).map(|_| rng.next_f64()).collect(),
            step_no: 0,
        })
    }
}

/// Shared rank program for the ADI-style solvers (BT and SP): they differ
/// in message sizes, sweep counts and flop balance.
pub(crate) struct AdiRank {
    pub rank: u32,
    pub rows: u32,
    pub cols: u32,
    pub iters: u64,
    pub rhs_flops: f64,
    pub solve_flops: f64,
    pub mem_bytes: f64,
    pub msg_bytes: usize,
    /// Forward+backward exchange rounds per dimension (SP pipelines in
    /// more, smaller stages than BT).
    pub sweeps_per_dim: u32,
    pub u: Vec<f64>,
    pub step_no: u64,
}

impl AdiRank {
    fn row(&self) -> u32 {
        self.rank / self.cols
    }
    fn col(&self) -> u32 {
        self.rank % self.cols
    }
    fn east(&self) -> u32 {
        self.row() * self.cols + (self.col() + 1) % self.cols
    }
    fn west(&self) -> u32 {
        self.row() * self.cols + (self.col() + self.cols - 1) % self.cols
    }
    fn south(&self) -> u32 {
        ((self.row() + 1) % self.rows) * self.cols + self.col()
    }
    fn north(&self) -> u32 {
        ((self.row() + self.rows - 1) % self.rows) * self.cols + self.col()
    }

    fn relax_local(&mut self) {
        let n = self.u.len();
        for i in 0..n {
            let a = self.u[(i + n - 1) % n];
            let b = self.u[(i + 1) % n];
            self.u[i] = 0.9 * self.u[i] + 0.05 * (a + b);
        }
    }

    /// One forward+backward sweep along a dimension: exchange with the
    /// dimension's neighbours around a block solve.
    fn sweep(&mut self, ctx: &mut dyn Mpi, fwd: u32, bwd: u32, tag: u32) {
        for s in 0..self.sweeps_per_dim {
            let t = tag + s;
            if fwd != self.rank {
                ctx.send_sized(fwd, t, self.msg_bytes);
                ctx.recv(Some(bwd), Some(t));
            }
            ctx.compute(Work::new(
                self.solve_flops / self.sweeps_per_dim as f64,
                self.mem_bytes * 0.2 / self.sweeps_per_dim as f64,
            ));
            if bwd != self.rank {
                ctx.send_sized(bwd, t + 100, self.msg_bytes);
                ctx.recv(Some(fwd), Some(t + 100));
            }
            ctx.compute(Work::flops(
                self.solve_flops * 0.5 / self.sweeps_per_dim as f64,
            ));
        }
    }
}

impl RankProgram for AdiRank {
    fn prologue(&mut self, ctx: &mut dyn Mpi) {
        // Grid setup + initial conditions + one setup exchange.
        ctx.compute(Work::new(self.rhs_flops, self.mem_bytes));
        ctx.barrier();
    }

    fn steps(&self) -> u64 {
        self.iters
    }

    fn step(&mut self, _s: u64, ctx: &mut dyn Mpi) {
        self.relax_local();
        // compute_rhs
        ctx.compute(Work::new(self.rhs_flops, self.mem_bytes));
        // x / y / z solves: x,y live in the grid plane; the z dimension is
        // rank-local in the 2-D multi-partition layout but still costs the
        // block solve.
        let (e, w, s, n) = (self.east(), self.west(), self.south(), self.north());
        self.sweep(ctx, e, w, 10);
        self.sweep(ctx, s, n, 30);
        ctx.compute(Work::new(self.solve_flops * 1.5, self.mem_bytes * 0.2));
        // add: update the solution.
        ctx.compute(Work::flops(self.rhs_flops * 0.2));
        self.step_no += 1;
    }

    fn epilogue(&mut self, ctx: &mut dyn Mpi) {
        // Verification: residual norms.
        ctx.compute(Work::flops(self.rhs_flops * 0.5));
        ctx.allreduce_f64(&[self.u[0]], pas2p_mpisim::ReduceOp::Sum);
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut w = StateWriter::new();
        w.u64(self.step_no).f64s(&self.u);
        w.finish()
    }

    fn restore(&mut self, bytes: &[u8]) {
        let mut r = StateReader::new(bytes);
        self.step_no = r.u64();
        self.u = r.f64s();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pas2p_machine::{cluster_a, JitterModel, MappingPolicy};
    use pas2p_signature::run_plain;

    #[test]
    fn bt_runs_on_square_grid() {
        let mut m = cluster_a();
        m.jitter = JitterModel::none();
        let app = BtApp {
            class: Class::A,
            nprocs: 16,
            iters: 3,
        };
        let r = run_plain(&app, &m, MappingPolicy::Block);
        assert!(r.makespan > 0.0);
        assert!(!r.aborted);
        // every rank sends 2 msgs per sweep × 2 sweeps × 3 iters (when
        // neighbours differ).
        assert_eq!(r.total_msgs, 16 * 4 * 3);
    }

    #[test]
    fn bt_snapshot_roundtrips() {
        let app = BtApp {
            class: Class::A,
            nprocs: 4,
            iters: 1,
        };
        let p = app.make_rank(3);
        let snap = p.snapshot();
        let mut q = app.make_rank(3);
        q.restore(&snap);
        assert_eq!(q.snapshot(), snap);
    }

    #[test]
    fn bt_is_deterministic() {
        let mut m = cluster_a();
        m.jitter = JitterModel::none();
        let app = BtApp {
            class: Class::A,
            nprocs: 4,
            iters: 4,
        };
        let a = run_plain(&app, &m, MappingPolicy::Block);
        let b = run_plain(&app, &m, MappingPolicy::Block);
        assert_eq!(a.rank_clocks, b.rank_clocks);
    }
}
