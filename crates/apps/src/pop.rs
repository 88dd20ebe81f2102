//! POP: the Parallel Ocean Program (synthetic configuration).
//!
//! Each timestep has two regimes with very different communication
//! signatures — exactly the multi-phase structure PAS2P thrives on:
//!
//! * **baroclinic**: heavy 3-D tracer computation with one large
//!   4-neighbour halo exchange;
//! * **barotropic**: an implicit free-surface solve — several cheap
//!   conjugate-gradient inner iterations, each a small halo plus two
//!   global reductions.
//!
//! The paper runs a synthetic benchmark with 150 iterations on 64
//! processes (Table 4).

use crate::util::{near_square_grid, SplitMix, StateReader, StateWriter};
use pas2p_machine::Work;
use pas2p_mpisim::Mpi;
use pas2p_signature::{MpiApp, RankProgram};

/// The POP application.
pub struct PopApp {
    /// Number of processes (2-D grid).
    pub nprocs: u32,
    /// Timesteps (the paper's synthetic input: 150).
    pub iters: u64,
    /// Inner barotropic CG iterations per timestep.
    pub inner: u32,
}

impl PopApp {
    /// Table 4 configuration: synthetic, 150 iterations (scaled to 50).
    pub fn synthetic(nprocs: u32) -> PopApp {
        PopApp {
            nprocs,
            iters: 50,
            inner: 4,
        }
    }
}

impl MpiApp for PopApp {
    fn name(&self) -> String {
        "POP".into()
    }
    fn nprocs(&self) -> u32 {
        self.nprocs
    }
    fn workload(&self) -> String {
        format!("Synthetic with {} iterations", self.iters)
    }
    fn make_rank(&self, rank: u32) -> Box<dyn RankProgram> {
        let (rows, cols) = near_square_grid(self.nprocs);
        let local = 256usize;
        let mut rng = SplitMix::new(0xB0 ^ rank as u64);
        Box::new(PopRank {
            rank,
            rows,
            cols,
            iters: self.iters,
            inner: self.inner,
            baroclinic_flops: 2.0e10 / self.nprocs as f64,
            barotropic_flops: 6.0e8 / self.nprocs as f64,
            mem_bytes: 1.2e10 / self.nprocs as f64,
            halo_bytes: 32768,
            eta: (0..local).map(|_| rng.next_f64()).collect(),
            step_no: 0,
        })
    }
}

struct PopRank {
    rank: u32,
    rows: u32,
    cols: u32,
    iters: u64,
    inner: u32,
    baroclinic_flops: f64,
    barotropic_flops: f64,
    mem_bytes: f64,
    halo_bytes: usize,
    eta: Vec<f64>,
    step_no: u64,
}

impl PopRank {
    fn row(&self) -> u32 {
        self.rank / self.cols
    }
    fn col(&self) -> u32 {
        self.rank % self.cols
    }
    /// POP is periodic east–west (the globe) and bounded north–south.
    fn neighbour(&self, dr: i64, dc: i64) -> Option<u32> {
        let r = self.row() as i64 + dr;
        if r < 0 || r >= self.rows as i64 {
            return None;
        }
        let c = (self.col() as i64 + dc).rem_euclid(self.cols as i64);
        Some((r as u32) * self.cols + c as u32)
    }

    /// POP's boundary update uses the nonblocking pattern: post all
    /// receives, send all faces, then wait — letting the wire time of the
    /// four exchanges overlap.
    fn halo(&mut self, ctx: &mut dyn Mpi, bytes: usize, tag: u32) {
        let pairs = [(-1i64, 0i64), (1, 0), (0, -1), (0, 1)];
        let mut reqs = Vec::with_capacity(4);
        for (i, &(dr, dc)) in pairs.iter().enumerate() {
            let mirror = [1usize, 0, 3, 2][i];
            if let Some(p) = self.neighbour(dr, dc) {
                reqs.push(ctx.irecv(Some(p), Some(tag + mirror as u32)));
            }
        }
        for (i, &(dr, dc)) in pairs.iter().enumerate() {
            if let Some(p) = self.neighbour(dr, dc) {
                ctx.send_sized(p, tag + i as u32, bytes);
            }
        }
        ctx.waitall(reqs);
    }

    fn advance_eta(&mut self) {
        let n = self.eta.len();
        for i in 0..n {
            let a = self.eta[(i + 1) % n];
            let b = self.eta[(i + n - 1) % n];
            self.eta[i] = 0.96 * self.eta[i] + 0.02 * (a + b);
        }
    }
}

impl RankProgram for PopRank {
    fn prologue(&mut self, ctx: &mut dyn Mpi) {
        // Grid/topography/forcing initialization.
        ctx.compute(Work::new(self.baroclinic_flops, self.mem_bytes));
        self.halo(ctx, self.halo_bytes, 900);
        ctx.barrier();
    }

    fn steps(&self) -> u64 {
        self.iters
    }

    fn step(&mut self, _s: u64, ctx: &mut dyn Mpi) {
        self.advance_eta();
        // Baroclinic: 3-D tracers, one big halo, heavy compute.
        self.halo(ctx, self.halo_bytes, 10);
        ctx.compute(Work::new(self.baroclinic_flops, self.mem_bytes));
        // Barotropic: CG inner iterations — small halo + 2 reductions.
        for _ in 0..self.inner {
            self.halo(ctx, self.halo_bytes / 8, 40);
            ctx.compute(Work::flops(self.barotropic_flops / self.inner as f64));
            ctx.allreduce_f64(&[self.eta[0]], pas2p_mpisim::ReduceOp::Sum);
            ctx.allreduce_f64(&[self.eta[1]], pas2p_mpisim::ReduceOp::Sum);
        }
        self.step_no += 1;
    }

    fn epilogue(&mut self, ctx: &mut dyn Mpi) {
        // Diagnostics output gather.
        ctx.reduce_f64(0, &[self.eta[0]], pas2p_mpisim::ReduceOp::Sum);
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut w = StateWriter::new();
        w.u64(self.step_no).f64s(&self.eta);
        w.finish()
    }

    fn restore(&mut self, bytes: &[u8]) {
        let mut r = StateReader::new(bytes);
        self.step_no = r.u64();
        self.eta = r.f64s();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pas2p_machine::{cluster_a, JitterModel, MappingPolicy};
    use pas2p_signature::run_plain;

    #[test]
    fn pop_runs_both_regimes() {
        let mut m = cluster_a();
        m.jitter = JitterModel::none();
        let app = PopApp {
            nprocs: 16,
            iters: 3,
            inner: 2,
        };
        let r = run_plain(&app, &m, MappingPolicy::Block);
        assert!(!r.aborted);
        // 2 allreduces per inner iter per step per rank + prologue barrier
        // + epilogue reduce.
        assert_eq!(r.total_colls as u32, 16 * (3 * 2 * 2 + 2));
    }

    #[test]
    fn pop_periodic_east_west() {
        let app = PopApp {
            nprocs: 4,
            iters: 1,
            inner: 1,
        };
        let prog = app.make_rank(0);
        assert!(!prog.snapshot().is_empty());
        // Indirect check: the app runs on a 1-row grid where east-west
        // wraps; a bounded grid would deadlock on mismatched sends.
        let mut m = cluster_a();
        m.jitter = JitterModel::none();
        let r = run_plain(
            &PopApp {
                nprocs: 2,
                iters: 2,
                inner: 1,
            },
            &m,
            MappingPolicy::Block,
        );
        assert!(!r.aborted);
    }

    #[test]
    fn pop_snapshot_roundtrips() {
        let app = PopApp::synthetic(4);
        let p = app.make_rank(1);
        let snap = p.snapshot();
        let mut q = app.make_rank(1);
        q.restore(&snap);
        assert_eq!(q.snapshot(), snap);
    }
}
