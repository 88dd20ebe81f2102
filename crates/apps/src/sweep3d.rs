//! Sweep3D: the ASCI 3-D discrete-ordinates neutron-transport kernel.
//!
//! The domain is decomposed over a 2-D process grid (i, j); the k
//! dimension and the angular octants pipeline through it as wavefronts.
//! For each timestep and each of the 8 octants, a rank receives the
//! upstream i- and j-fluxes, computes its k-blocks of angles, and sends
//! downstream — the classic diagonal pipeline the paper analyzes
//! (workloads `sweep.250`/`sweep.200`/`sweep.150`, 13 iterations).

use crate::util::{grid_neighbour, near_square_grid, SplitMix, StateReader, StateWriter};
use pas2p_machine::Work;
use pas2p_mpisim::Mpi;
use pas2p_signature::{MpiApp, RankProgram};

/// The Sweep3D application.
pub struct Sweep3dApp {
    /// Number of processes (2-D grid).
    pub nprocs: u32,
    /// Grid points per dimension — the paper's `sweep.N` input.
    pub grid_n: u32,
    /// Timestep iterations (the paper uses 13).
    pub iters: u64,
    /// k-blocks per octant sweep.
    pub k_blocks: u32,
}

impl Sweep3dApp {
    /// `sweep.250`, 13 iterations — Table 4 (32 processes).
    pub fn sweep250(nprocs: u32) -> Sweep3dApp {
        Sweep3dApp {
            nprocs,
            grid_n: 250,
            iters: 13,
            k_blocks: 4,
        }
    }

    /// `sweep.200`, 13 iterations — Table 6 (256 processes).
    pub fn sweep200(nprocs: u32) -> Sweep3dApp {
        Sweep3dApp {
            nprocs,
            grid_n: 200,
            iters: 13,
            k_blocks: 4,
        }
    }

    /// `sweep.150` — the §6 tool-performance workload.
    pub fn sweep150(nprocs: u32) -> Sweep3dApp {
        Sweep3dApp {
            nprocs,
            grid_n: 150,
            iters: 13,
            k_blocks: 4,
        }
    }
}

impl MpiApp for Sweep3dApp {
    fn name(&self) -> String {
        "Sweep3D".into()
    }
    fn nprocs(&self) -> u32 {
        self.nprocs
    }
    fn workload(&self) -> String {
        format!("sweep.{} {} iterations", self.grid_n, self.iters)
    }
    fn make_rank(&self, rank: u32) -> Box<dyn RankProgram> {
        let (rows, cols) = near_square_grid(self.nprocs);
        let n = self.grid_n as f64;
        let local = 256usize;
        let mut rng = SplitMix::new(0x3D ^ rank as u64);
        Box::new(SweepRank {
            rank,
            rows,
            cols,
            iters: self.iters,
            k_blocks: self.k_blocks,
            // n³ cells × ~60 flops per cell-angle × angles per octant,
            // split over ranks and k-blocks.
            block_flops: 600.0 * n * n * n / (self.nprocs as f64 * self.k_blocks as f64),
            mem_bytes: 120.0 * n * n * n / (self.nprocs as f64 * self.k_blocks as f64),
            // Face fluxes: n²/P doubles per boundary.
            msg_bytes: (8.0 * n * n / (self.nprocs as f64).sqrt()) as usize,
            flux: (0..local).map(|_| rng.next_f64()).collect(),
            step_no: 0,
        })
    }
}

struct SweepRank {
    rank: u32,
    rows: u32,
    cols: u32,
    iters: u64,
    k_blocks: u32,
    block_flops: f64,
    mem_bytes: f64,
    msg_bytes: usize,
    flux: Vec<f64>,
    step_no: u64,
}

impl SweepRank {
    fn neighbour(&self, dr: i64, dc: i64) -> Option<u32> {
        grid_neighbour(self.rank, self.rows, self.cols, dr, dc)
    }

    fn relax(&mut self) {
        let n = self.flux.len();
        for i in 0..n {
            let a = self.flux[(i + 1) % n];
            self.flux[i] = 0.98 * self.flux[i] + 0.02 * a;
        }
    }

    /// Sweep one octant: directions (di, dj) give the upstream/downstream
    /// neighbours in the grid.
    fn octant(&mut self, ctx: &mut dyn Mpi, di: i64, dj: i64, tag: u32) {
        let up_i = self.neighbour(-di, 0);
        let up_j = self.neighbour(0, -dj);
        let down_i = self.neighbour(di, 0);
        let down_j = self.neighbour(0, dj);
        for kb in 0..self.k_blocks {
            let t = tag + kb;
            if let Some(p) = up_i {
                ctx.recv(Some(p), Some(t));
            }
            if let Some(p) = up_j {
                ctx.recv(Some(p), Some(t + 500));
            }
            ctx.compute(Work::new(self.block_flops, self.mem_bytes));
            if let Some(p) = down_i {
                ctx.send_sized(p, t, self.msg_bytes);
            }
            if let Some(p) = down_j {
                ctx.send_sized(p, t + 500, self.msg_bytes);
            }
        }
    }
}

impl RankProgram for SweepRank {
    fn prologue(&mut self, ctx: &mut dyn Mpi) {
        // Input decks + flux initialization.
        ctx.compute(Work::new(
            self.block_flops * self.k_blocks as f64,
            self.mem_bytes,
        ));
        ctx.barrier();
    }

    fn steps(&self) -> u64 {
        self.iters
    }

    fn step(&mut self, _s: u64, ctx: &mut dyn Mpi) {
        self.relax();
        // 8 octants: all four diagonal direction pairs, each twice (±k).
        let dirs = [(1i64, 1i64), (1, -1), (-1, 1), (-1, -1)];
        for (o, &(di, dj)) in dirs.iter().enumerate() {
            let tag = 10 + (o as u32) * 1000;
            self.octant(ctx, di, dj, tag);
            self.octant(ctx, di, dj, tag + 100); // the ±k mirror octant
        }
        // Flux error check each timestep.
        ctx.allreduce_f64(&[self.flux[0]], pas2p_mpisim::ReduceOp::Max);
        self.step_no += 1;
    }

    fn epilogue(&mut self, ctx: &mut dyn Mpi) {
        ctx.reduce_f64(0, &[self.flux[0]], pas2p_mpisim::ReduceOp::Sum);
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut w = StateWriter::new();
        w.u64(self.step_no).f64s(&self.flux);
        w.finish()
    }

    fn restore(&mut self, bytes: &[u8]) {
        let mut r = StateReader::new(bytes);
        self.step_no = r.u64();
        self.flux = r.f64s();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pas2p_machine::{cluster_a, JitterModel, MappingPolicy};
    use pas2p_signature::run_plain;

    #[test]
    fn sweep_pipelines_without_deadlock() {
        let mut m = cluster_a();
        m.jitter = JitterModel::none();
        let app = Sweep3dApp {
            nprocs: 16,
            grid_n: 50,
            iters: 2,
            k_blocks: 2,
        };
        let r = run_plain(&app, &m, MappingPolicy::Block);
        assert!(!r.aborted);
        assert!(r.makespan > 0.0);
    }

    #[test]
    fn corner_ranks_skip_missing_neighbours() {
        let mut m = cluster_a();
        m.jitter = JitterModel::none();
        // 1-D degenerate grids also work.
        let app = Sweep3dApp {
            nprocs: 2,
            grid_n: 30,
            iters: 1,
            k_blocks: 2,
        };
        let r = run_plain(&app, &m, MappingPolicy::Block);
        assert!(!r.aborted);
    }

    #[test]
    fn larger_input_means_longer_run() {
        let mut m = cluster_a();
        m.jitter = JitterModel::none();
        let small = Sweep3dApp {
            nprocs: 4,
            grid_n: 40,
            iters: 2,
            k_blocks: 2,
        };
        let large = Sweep3dApp {
            nprocs: 4,
            grid_n: 80,
            iters: 2,
            k_blocks: 2,
        };
        let rs = run_plain(&small, &m, MappingPolicy::Block);
        let rl = run_plain(&large, &m, MappingPolicy::Block);
        assert!(rl.makespan > rs.makespan * 2.0);
    }

    #[test]
    fn sweep_snapshot_roundtrips() {
        let app = Sweep3dApp::sweep150(4);
        let p = app.make_rank(3);
        let snap = p.snapshot();
        let mut q = app.make_rank(3);
        q.restore(&snap);
        assert_eq!(q.snapshot(), snap);
    }
}
