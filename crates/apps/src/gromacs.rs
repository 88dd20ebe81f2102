//! GROMACS-like molecular dynamics with PME electrostatics.
//!
//! Distinguishes itself from Moldy by the particle-mesh-Ewald long-range
//! solver: every step does the short-range halo + force work, and every
//! `pme_every` steps the charge grid is redistributed with row/column
//! `MPI_Alltoall` transposes (the 3-D FFT inside PME) — giving the
//! application two strongly different phase families plus an occasional
//! load-balancing broadcast.

use crate::util::{near_square_grid, SplitMix, StateReader, StateWriter};
use pas2p_machine::Work;
use pas2p_mpisim::{Group, Mpi};
use pas2p_signature::{MpiApp, RankProgram};

/// The GROMACS-like application.
pub struct GromacsApp {
    /// Number of processes.
    pub nprocs: u32,
    /// MD steps.
    pub steps: u64,
    /// PME long-range solve every this many steps.
    pub pme_every: u64,
    /// Dynamic load balancing broadcast every this many steps.
    pub dlb_every: u64,
}

impl GromacsApp {
    /// A scaled configuration comparable to the paper's GROMACS runs
    /// (Appendix D).
    pub fn benchmark(nprocs: u32) -> GromacsApp {
        GromacsApp {
            nprocs,
            steps: 80,
            pme_every: 4,
            dlb_every: 20,
        }
    }
}

impl MpiApp for GromacsApp {
    fn name(&self) -> String {
        "GROMACS".into()
    }
    fn nprocs(&self) -> u32 {
        self.nprocs
    }
    fn workload(&self) -> String {
        format!("{} steps, PME every {}", self.steps, self.pme_every)
    }
    fn make_rank(&self, rank: u32) -> Box<dyn RankProgram> {
        let (rows, cols) = near_square_grid(self.nprocs);
        let n_local = 128usize;
        let mut rng = SplitMix::new(0x6A ^ rank as u64);
        Box::new(GromacsRank {
            rank,
            rows,
            cols,
            steps: self.steps,
            pme_every: self.pme_every,
            dlb_every: self.dlb_every,
            force_flops: 3.0e9 / self.nprocs as f64,
            pme_flops: 1.0e9 / self.nprocs as f64,
            mem_bytes: 1.5e9 / self.nprocs as f64,
            halo_bytes: 16384,
            pme_block: 8192,
            q: (0..n_local).map(|_| rng.next_f64()).collect(),
            step_no: 0,
        })
    }
}

struct GromacsRank {
    rank: u32,
    rows: u32,
    cols: u32,
    steps: u64,
    pme_every: u64,
    dlb_every: u64,
    force_flops: f64,
    pme_flops: f64,
    mem_bytes: f64,
    halo_bytes: usize,
    pme_block: usize,
    q: Vec<f64>,
    step_no: u64,
}

impl GromacsRank {
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

    fn short_range(&mut self, ctx: &mut dyn Mpi) {
        // Neighbour halo (ring along the row; GROMACS DD pulses).
        let (e, w) = (self.east(), self.west());
        if e != self.rank {
            ctx.send_sized(e, 10, self.halo_bytes);
            ctx.recv(Some(w), Some(10));
            ctx.send_sized(w, 11, self.halo_bytes);
            ctx.recv(Some(e), Some(11));
        }
        // Nonbonded kernels.
        let n = self.q.len();
        for i in 0..n {
            let a = self.q[(i + 1) % n];
            self.q[i] = 0.97 * self.q[i] + 0.03 * a * a / (a * a + 1.0);
        }
        ctx.compute(Work::new(self.force_flops, self.mem_bytes));
    }

    fn pme(&mut self, ctx: &mut dyn Mpi) {
        let rg = Group::grid_row(self.rank, self.rows, self.cols);
        let cg = Group::grid_col(self.rank, self.rows, self.cols);
        ctx.alltoall_in(&rg, vec![self.pme_block; rg.len()]);
        ctx.compute(Work::flops(self.pme_flops));
        ctx.alltoall_in(&cg, vec![self.pme_block; cg.len()]);
        ctx.compute(Work::flops(self.pme_flops * 0.5));
    }
}

impl RankProgram for GromacsRank {
    fn prologue(&mut self, ctx: &mut dyn Mpi) {
        // Topology distribution.
        ctx.bcast(0, (self.rank == 0).then_some(4096));
        ctx.compute(Work::new(self.force_flops, self.mem_bytes));
        ctx.barrier();
    }

    fn steps(&self) -> u64 {
        self.steps
    }

    fn step(&mut self, s: u64, ctx: &mut dyn Mpi) {
        self.short_range(ctx);
        if (s + 1).is_multiple_of(self.pme_every) {
            self.pme(ctx);
        }
        // Energy/virial reduction + integration.
        ctx.allreduce_f64(&[self.q[0]], pas2p_mpisim::ReduceOp::Sum);
        ctx.compute(Work::flops(self.force_flops * 0.05));
        if (s + 1).is_multiple_of(self.dlb_every) {
            ctx.bcast(0, (self.rank == 0).then_some(512));
        }
        self.step_no += 1;
    }

    fn epilogue(&mut self, ctx: &mut dyn Mpi) {
        ctx.gather(0, 256);
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut w = StateWriter::new();
        w.u64(self.step_no).f64s(&self.q);
        w.finish()
    }

    fn restore(&mut self, bytes: &[u8]) {
        let mut r = StateReader::new(bytes);
        self.step_no = r.u64();
        self.q = r.f64s();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pas2p_machine::{cluster_a, JitterModel, MappingPolicy};
    use pas2p_signature::run_plain;

    #[test]
    fn gromacs_mixes_phase_families() {
        let mut m = cluster_a();
        m.jitter = JitterModel::none();
        let app = GromacsApp {
            nprocs: 8,
            steps: 8,
            pme_every: 2,
            dlb_every: 4,
        };
        let r = run_plain(&app, &m, MappingPolicy::Block);
        assert!(!r.aborted);
        // Collectives: prologue (bcast+barrier)=2; per step allreduce=8;
        // PME: 4 rounds × 2 alltoall = 8; DLB: 2 bcasts; epilogue gather=1.
        assert_eq!(r.total_colls, 8 * (2 + 8 + 8 + 2 + 1));
    }

    #[test]
    fn gromacs_snapshot_roundtrips() {
        let app = GromacsApp::benchmark(4);
        let p = app.make_rank(3);
        let snap = p.snapshot();
        let mut q = app.make_rank(3);
        q.restore(&snap);
        assert_eq!(q.snapshot(), snap);
    }
}
