//! NPB LU: SSOR solver with wavefront pipelining.
//!
//! LU exchanges one small message per k-block per neighbour per sweep —
//! by far the most communication events of the NPB suite, which is why
//! the paper's Table 8 shows LU with the largest tracefile (5.2 GB) and
//! Table 9 with the highest instrumentation overhead (1.96×).
//!
//! Per iteration: a lower-triangular sweep (receive from north/west,
//! compute a wavefront block, send to south/east, repeated per k-block)
//! and the mirrored upper-triangular sweep, plus a residual allreduce.

use crate::npb::Class;
use crate::util::{grid_neighbour, near_square_grid, SplitMix, StateReader, StateWriter};
use pas2p_machine::Work;
use pas2p_mpisim::Mpi;
use pas2p_signature::{MpiApp, RankProgram};

/// The LU application.
pub struct LuApp {
    /// NPB class.
    pub class: Class,
    /// Number of processes (2-D grid).
    pub nprocs: u32,
    /// SSOR iterations (scaled from NPB's 250-300).
    pub iters: u64,
    /// k-blocks per sweep (NPB pipelines the full nz extent; more blocks
    /// = more, smaller messages).
    pub k_blocks: u32,
}

impl LuApp {
    /// Table 8 configuration: Class D-like, scaled.
    pub fn class_d(nprocs: u32) -> LuApp {
        LuApp {
            class: Class::D,
            nprocs,
            iters: 25,
            k_blocks: 8,
        }
    }

    /// Smaller preset for cross-machine prediction runs.
    pub fn class_c(nprocs: u32) -> LuApp {
        LuApp {
            class: Class::C,
            nprocs,
            iters: 30,
            k_blocks: 6,
        }
    }
}

impl MpiApp for LuApp {
    fn name(&self) -> String {
        "LU".into()
    }
    fn nprocs(&self) -> u32 {
        self.nprocs
    }
    fn workload(&self) -> String {
        format!(
            "Class {} ({} iters, {} k-blocks)",
            self.class.letter(),
            self.iters,
            self.k_blocks
        )
    }
    fn make_rank(&self, rank: u32) -> Box<dyn RankProgram> {
        let (rows, cols) = near_square_grid(self.nprocs);
        let local = 256usize;
        let mut rng = SplitMix::new(0x17 ^ rank as u64);
        Box::new(LuRank {
            rank,
            rows,
            cols,
            iters: self.iters,
            k_blocks: self.k_blocks,
            block_flops: 2.5e8 * self.class.work_factor()
                / (self.nprocs as f64 * self.k_blocks as f64),
            rhs_flops: 4.0e8 * self.class.work_factor() / self.nprocs as f64,
            mem_bytes: 2.0e8 * self.class.work_factor() / self.nprocs as f64,
            msg_bytes: (2048.0 * self.class.size_factor()) as usize,
            u: (0..local).map(|_| rng.next_f64()).collect(),
            step_no: 0,
        })
    }
}

struct LuRank {
    rank: u32,
    rows: u32,
    cols: u32,
    iters: u64,
    k_blocks: u32,
    block_flops: f64,
    rhs_flops: f64,
    mem_bytes: f64,
    msg_bytes: usize,
    u: Vec<f64>,
    step_no: u64,
}

impl LuRank {
    fn neighbour(&self, dr: i64, dc: i64) -> Option<u32> {
        grid_neighbour(self.rank, self.rows, self.cols, dr, dc)
    }

    fn smooth_local(&mut self) {
        let n = self.u.len();
        for i in 0..n {
            let a = self.u[(i + n - 1) % n];
            self.u[i] = 0.95 * self.u[i] + 0.05 * a;
        }
    }

    /// One triangular sweep: wavefront order over k-blocks, receiving
    /// from the upstream neighbours and forwarding downstream.
    #[allow(clippy::too_many_arguments)]
    fn sweep(
        &mut self,
        ctx: &mut dyn Mpi,
        up_r: Option<u32>,
        up_c: Option<u32>,
        down_r: Option<u32>,
        down_c: Option<u32>,
        tag: u32,
    ) {
        for kb in 0..self.k_blocks {
            let t = tag + kb;
            if let Some(p) = up_r {
                ctx.recv(Some(p), Some(t));
            }
            if let Some(p) = up_c {
                ctx.recv(Some(p), Some(t + 1000));
            }
            ctx.compute(Work::new(
                self.block_flops,
                self.mem_bytes / self.k_blocks as f64,
            ));
            if let Some(p) = down_r {
                ctx.send_sized(p, t, self.msg_bytes);
            }
            if let Some(p) = down_c {
                ctx.send_sized(p, t + 1000, self.msg_bytes);
            }
        }
    }
}

impl RankProgram for LuRank {
    fn prologue(&mut self, ctx: &mut dyn Mpi) {
        ctx.compute(Work::new(self.rhs_flops, self.mem_bytes));
        ctx.barrier();
    }

    fn steps(&self) -> u64 {
        self.iters
    }

    fn step(&mut self, _s: u64, ctx: &mut dyn Mpi) {
        self.smooth_local();
        // rhs + jacobian assembly.
        ctx.compute(Work::new(self.rhs_flops, self.mem_bytes));
        // Lower-triangular sweep: wavefront from (0,0).
        let north = self.neighbour(-1, 0);
        let west = self.neighbour(0, -1);
        let south = self.neighbour(1, 0);
        let east = self.neighbour(0, 1);
        self.sweep(ctx, north, west, south, east, 10);
        // Upper-triangular sweep: wavefront from (rows-1, cols-1).
        self.sweep(ctx, south, east, north, west, 200);
        // Residual norm every iteration.
        ctx.allreduce_f64(&[self.u[0]], pas2p_mpisim::ReduceOp::Sum);
        self.step_no += 1;
    }

    fn epilogue(&mut self, ctx: &mut dyn Mpi) {
        ctx.compute(Work::flops(self.rhs_flops * 0.3));
        ctx.reduce_f64(0, &[self.u[0]], pas2p_mpisim::ReduceOp::Max);
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
    fn lu_wavefront_completes_without_deadlock() {
        let mut m = cluster_a();
        m.jitter = JitterModel::none();
        let app = LuApp {
            class: Class::A,
            nprocs: 16,
            iters: 2,
            k_blocks: 4,
        };
        let r = run_plain(&app, &m, MappingPolicy::Block);
        assert!(!r.aborted);
        assert!(r.makespan > 0.0);
    }

    #[test]
    fn lu_has_many_more_events_than_cg() {
        // The property behind Table 8/9: LU's trace dwarfs the others.
        let mut m = cluster_a();
        m.jitter = JitterModel::none();
        let lu = LuApp {
            class: Class::A,
            nprocs: 16,
            iters: 3,
            k_blocks: 8,
        };
        let cg = crate::npb::cg::CgApp {
            class: Class::A,
            nprocs: 16,
            iters: 3,
        };
        let rl = run_plain(&lu, &m, MappingPolicy::Block);
        let rc = run_plain(&cg, &m, MappingPolicy::Block);
        assert!(
            rl.total_msgs > 2 * rc.total_msgs,
            "LU {} vs CG {}",
            rl.total_msgs,
            rc.total_msgs
        );
    }

    #[test]
    fn lu_snapshot_roundtrips() {
        let app = LuApp {
            class: Class::A,
            nprocs: 4,
            iters: 1,
            k_blocks: 2,
        };
        let p = app.make_rank(2);
        let snap = p.snapshot();
        let mut q = app.make_rank(2);
        q.restore(&snap);
        assert_eq!(q.snapshot(), snap);
    }
}
