//! NPB FT: 3-D FFT via pencil transposes.
//!
//! Per iteration: local 1-D FFTs, an `MPI_Alltoall` transpose within the
//! process row, more local FFTs, an alltoall within the process column,
//! and a checksum allreduce. Few but very large communication events —
//! the paper's Table 8 shows FT with the smallest tracefile (512 KB) and
//! only 5 phases with low weights, making its signature construction
//! relatively expensive (Table 9's 2.62× overhead).

use crate::npb::Class;
use crate::util::{near_square_grid, SplitMix, StateReader, StateWriter};
use pas2p_machine::Work;
use pas2p_mpisim::{Group, Mpi};
use pas2p_signature::{MpiApp, RankProgram};

/// The FT application.
pub struct FtApp {
    /// NPB class.
    pub class: Class,
    /// Number of processes (2-D pencil grid).
    pub nprocs: u32,
    /// FFT iterations (NPB class D runs 25; the paper's FT phase weights
    /// top out at ~20).
    pub iters: u64,
}

impl FtApp {
    /// Table 8 configuration: Class D-like, scaled.
    pub fn class_d(nprocs: u32) -> FtApp {
        FtApp {
            class: Class::D,
            nprocs,
            iters: 20,
        }
    }
}

impl MpiApp for FtApp {
    fn name(&self) -> String {
        "FT".into()
    }
    fn nprocs(&self) -> u32 {
        self.nprocs
    }
    fn workload(&self) -> String {
        format!("Class {} ({} iters)", self.class.letter(), self.iters)
    }
    fn make_rank(&self, rank: u32) -> Box<dyn RankProgram> {
        let (rows, cols) = near_square_grid(self.nprocs);
        let local = 512usize;
        let mut rng = SplitMix::new(0xF7 ^ rank as u64);
        Box::new(FtRank {
            rank,
            rows,
            cols,
            iters: self.iters,
            fft_flops: 1.6e9 * self.class.work_factor() / self.nprocs as f64,
            mem_bytes: 8.0e8 * self.class.work_factor() / self.nprocs as f64,
            // Transpose blocks: each rank sends 1/P of its pencil to every
            // row/col member — large blocks.
            block_bytes: (65536.0 * self.class.size_factor()) as usize,
            re: (0..local).map(|_| rng.next_f64()).collect(),
            im: (0..local).map(|_| rng.next_f64()).collect(),
            step_no: 0,
        })
    }
}

struct FtRank {
    rank: u32,
    rows: u32,
    cols: u32,
    iters: u64,
    fft_flops: f64,
    mem_bytes: f64,
    block_bytes: usize,
    re: Vec<f64>,
    im: Vec<f64>,
    step_no: u64,
}

impl FtRank {
    fn row_group(&self) -> Group {
        Group::grid_row(self.rank, self.rows, self.cols)
    }
    fn col_group(&self) -> Group {
        Group::grid_col(self.rank, self.rows, self.cols)
    }

    /// A real (scaled) butterfly pass over the local pencil.
    fn local_fft_pass(&mut self) {
        let n = self.re.len();
        let half = n / 2;
        for i in 0..half {
            let (ar, ai) = (self.re[i], self.im[i]);
            let (br, bi) = (self.re[i + half], self.im[i + half]);
            self.re[i] = ar + br;
            self.im[i] = ai + bi;
            self.re[i + half] = (ar - br) * 0.9999;
            self.im[i + half] = (ai - bi) * 0.9999;
        }
    }

    fn transpose(&mut self, ctx: &mut dyn Mpi, group: &Group) {
        ctx.alltoall_in(group, vec![self.block_bytes; group.len()]);
    }
}

impl RankProgram for FtRank {
    fn prologue(&mut self, ctx: &mut dyn Mpi) {
        // compute_initial_conditions + plan setup + warm-up transpose.
        ctx.compute(Work::new(self.fft_flops * 0.5, self.mem_bytes));
        let g = self.row_group();
        self.transpose(ctx, &g);
    }

    fn steps(&self) -> u64 {
        self.iters
    }

    fn step(&mut self, _s: u64, ctx: &mut dyn Mpi) {
        self.local_fft_pass();
        // FFT along the local dimension.
        ctx.compute(Work::new(self.fft_flops, self.mem_bytes));
        // Transpose within the row, FFT, transpose within the column, FFT.
        let rg = self.row_group();
        self.transpose(ctx, &rg);
        ctx.compute(Work::new(self.fft_flops, self.mem_bytes * 0.5));
        let cg = self.col_group();
        self.transpose(ctx, &cg);
        ctx.compute(Work::new(self.fft_flops * 0.5, self.mem_bytes * 0.5));
        // Checksum.
        ctx.allreduce_f64(&[self.re[0], self.im[0]], pas2p_mpisim::ReduceOp::Sum);
        self.step_no += 1;
    }

    fn epilogue(&mut self, ctx: &mut dyn Mpi) {
        ctx.reduce_f64(0, &[self.re[0]], pas2p_mpisim::ReduceOp::Sum);
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut w = StateWriter::new();
        w.u64(self.step_no).f64s(&self.re).f64s(&self.im);
        w.finish()
    }

    fn restore(&mut self, bytes: &[u8]) {
        let mut r = StateReader::new(bytes);
        self.step_no = r.u64();
        self.re = r.f64s();
        self.im = r.f64s();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pas2p_machine::{cluster_a, JitterModel, MappingPolicy};
    use pas2p_signature::run_plain;

    #[test]
    fn ft_runs_with_few_events() {
        let mut m = cluster_a();
        m.jitter = JitterModel::none();
        let app = FtApp {
            class: Class::A,
            nprocs: 16,
            iters: 3,
        };
        let r = run_plain(&app, &m, MappingPolicy::Block);
        assert!(!r.aborted);
        // FT is collective-only: no p2p messages at all.
        assert_eq!(r.total_msgs, 0);
        assert!(r.total_colls > 0);
    }

    #[test]
    fn ft_snapshot_roundtrips() {
        let app = FtApp {
            class: Class::A,
            nprocs: 4,
            iters: 1,
        };
        let p = app.make_rank(1);
        let snap = p.snapshot();
        let mut q = app.make_rank(1);
        q.restore(&snap);
        assert_eq!(q.snapshot(), snap);
    }

    #[test]
    fn ft_state_evolves_across_steps() {
        let mut m = cluster_a();
        m.jitter = JitterModel::none();
        let app = FtApp {
            class: Class::A,
            nprocs: 4,
            iters: 2,
        };
        // Drive two ranks' programs manually through the simulator.
        let before = app.make_rank(0).snapshot();
        let after = std::sync::Mutex::new(Vec::new());
        let after_ref = &after;
        let cfg = pas2p_mpisim::SimConfig::new(m, 4, MappingPolicy::Block);
        pas2p_mpisim::run_app(&cfg, move |ctx| {
            let mut p = app.make_rank(ctx.rank());
            pas2p_signature::app::drive_full(p.as_mut(), ctx);
            if ctx.rank() == 0 {
                *after_ref.lock().unwrap() = p.snapshot();
            }
        });
        assert_ne!(*after.lock().unwrap(), before);
    }
}
