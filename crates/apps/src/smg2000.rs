//! SMG2000: semicoarsening multigrid solver (the ASC Purple benchmark).
//!
//! Each solver iteration is a V-cycle: relaxation with nearest-neighbour
//! halo exchanges on every level, with grids (and therefore message sizes
//! and compute) shrinking level by level, then the mirrored up-phase, and
//! a residual allreduce. The paper runs `-n 200 solver 3` on 64 and 256
//! processes.

use crate::util::{grid_neighbour, near_square_grid, SplitMix, StateReader, StateWriter};
use pas2p_machine::Work;
use pas2p_mpisim::Mpi;
use pas2p_signature::{MpiApp, RankProgram};

/// The SMG2000 application.
pub struct Smg2000App {
    /// Number of processes (2-D grid).
    pub nprocs: u32,
    /// Per-process grid points per dimension (`-n N`).
    pub n: u32,
    /// Multigrid levels in the V-cycle.
    pub levels: u32,
    /// Solver iterations.
    pub iters: u64,
}

impl Smg2000App {
    /// Table 4 configuration: `-n 200 solver 3`, 64 processes (scaled
    /// iterations).
    pub fn n200(nprocs: u32) -> Smg2000App {
        Smg2000App {
            nprocs,
            n: 200,
            levels: 4,
            iters: 30,
        }
    }

    /// Table 6 configuration: `-n 200 solver 3`, 1200 iterations (scaled).
    pub fn n200_long(nprocs: u32) -> Smg2000App {
        Smg2000App {
            nprocs,
            n: 200,
            levels: 4,
            iters: 60,
        }
    }
}

impl MpiApp for Smg2000App {
    fn name(&self) -> String {
        "SMG2000".into()
    }
    fn nprocs(&self) -> u32 {
        self.nprocs
    }
    fn workload(&self) -> String {
        format!("-n {} solver 3 ({} iters)", self.n, self.iters)
    }
    fn make_rank(&self, rank: u32) -> Box<dyn RankProgram> {
        let (rows, cols) = near_square_grid(self.nprocs);
        let n = self.n as f64;
        let local = 256usize;
        let mut rng = SplitMix::new(0x56 ^ rank as u64);
        Box::new(SmgRank {
            rank,
            rows,
            cols,
            iters: self.iters,
            levels: self.levels,
            relax_flops: 60.0 * n * n * n,
            mem_bytes: 40.0 * n * n * n,
            msg_bytes: (8.0 * n * n) as usize,
            x: (0..local).map(|_| rng.next_f64()).collect(),
            step_no: 0,
        })
    }
}

struct SmgRank {
    rank: u32,
    rows: u32,
    cols: u32,
    iters: u64,
    levels: u32,
    relax_flops: f64,
    mem_bytes: f64,
    msg_bytes: usize,
    x: Vec<f64>,
    step_no: u64,
}

impl SmgRank {
    fn neighbour(&self, dr: i64, dc: i64) -> Option<u32> {
        grid_neighbour(self.rank, self.rows, self.cols, dr, dc)
    }

    /// Halo exchange at level `level` (semicoarsening halves one
    /// dimension per level, shrinking messages and compute by ~2×).
    fn halo(&mut self, ctx: &mut dyn Mpi, level: u32, tag: u32) {
        let shrink = 1usize << level;
        let bytes = (self.msg_bytes / shrink).max(64);
        // Ordered neighbour exchange avoids send/recv cycles: send to
        // lower-ranked neighbours first, then receive, then the reverse.
        let pairs = [(-1i64, 0i64), (1, 0), (0, -1), (0, 1)];
        for (i, &(dr, dc)) in pairs.iter().enumerate() {
            if let Some(p) = self.neighbour(dr, dc) {
                let t = tag + i as u32;
                ctx.send_sized(p, t, bytes);
            }
        }
        for (i, &(dr, dc)) in pairs.iter().enumerate() {
            // Matching receive: the neighbour sent with the mirrored
            // direction index.
            let mirror = [1usize, 0, 3, 2][i];
            if let Some(p) = self.neighbour(dr, dc) {
                ctx.recv(Some(p), Some(tag + mirror as u32));
            }
        }
    }

    fn relax(&mut self, ctx: &mut dyn Mpi, level: u32) {
        let shrink = (1u64 << level) as f64;
        let n = self.x.len();
        for i in 0..n {
            let a = self.x[(i + n - 1) % n];
            let b = self.x[(i + 1) % n];
            self.x[i] = 0.8 * self.x[i] + 0.1 * (a + b);
        }
        ctx.compute(Work::new(
            self.relax_flops / shrink,
            self.mem_bytes / shrink,
        ));
    }
}

impl RankProgram for SmgRank {
    fn prologue(&mut self, ctx: &mut dyn Mpi) {
        // Grid + operator setup: one halo and a heavy local assembly.
        ctx.compute(Work::new(self.relax_flops * 2.0, self.mem_bytes * 2.0));
        self.halo(ctx, 0, 900);
        ctx.barrier();
    }

    fn steps(&self) -> u64 {
        self.iters
    }

    fn step(&mut self, _s: u64, ctx: &mut dyn Mpi) {
        // Down-cycle: relax + halo per level, coarsening as we go.
        for level in 0..self.levels {
            self.halo(ctx, level, 10 + level * 10);
            self.relax(ctx, level);
        }
        // Coarsest solve.
        ctx.compute(Work::flops(self.relax_flops / (1u64 << self.levels) as f64));
        // Up-cycle: interpolate + relax back up.
        for level in (0..self.levels).rev() {
            self.halo(ctx, level, 500 + level * 10);
            self.relax(ctx, level);
        }
        // Convergence check.
        ctx.allreduce_f64(&[self.x[0]], pas2p_mpisim::ReduceOp::Sum);
        self.step_no += 1;
    }

    fn epilogue(&mut self, ctx: &mut dyn Mpi) {
        ctx.reduce_f64(0, &[self.x[0]], pas2p_mpisim::ReduceOp::Sum);
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut w = StateWriter::new();
        w.u64(self.step_no).f64s(&self.x);
        w.finish()
    }

    fn restore(&mut self, bytes: &[u8]) {
        let mut r = StateReader::new(bytes);
        self.step_no = r.u64();
        self.x = r.f64s();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pas2p_machine::{cluster_a, JitterModel, MappingPolicy};
    use pas2p_signature::run_plain;

    #[test]
    fn smg_vcycle_completes() {
        let mut m = cluster_a();
        m.jitter = JitterModel::none();
        let app = Smg2000App {
            nprocs: 16,
            n: 40,
            levels: 3,
            iters: 2,
        };
        let r = run_plain(&app, &m, MappingPolicy::Block);
        assert!(!r.aborted);
        assert!(r.makespan > 0.0);
    }

    #[test]
    fn more_levels_means_more_messages() {
        let mut m = cluster_a();
        m.jitter = JitterModel::none();
        let shallow = Smg2000App {
            nprocs: 9,
            n: 40,
            levels: 2,
            iters: 2,
        };
        let deep = Smg2000App {
            nprocs: 9,
            n: 40,
            levels: 4,
            iters: 2,
        };
        let rs = run_plain(&shallow, &m, MappingPolicy::Block);
        let rd = run_plain(&deep, &m, MappingPolicy::Block);
        assert!(rd.total_msgs > rs.total_msgs);
    }

    #[test]
    fn smg_snapshot_roundtrips() {
        let app = Smg2000App::n200(4);
        let p = app.make_rank(2);
        let snap = p.snapshot();
        let mut q = app.make_rank(2);
        q.restore(&snap);
        assert_eq!(q.snapshot(), snap);
    }
}
