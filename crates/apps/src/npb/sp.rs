//! NPB SP: scalar-pentadiagonal ADI solver.
//!
//! Same multi-partition structure as BT but with scalar (not 5×5 block)
//! systems: more pipeline stages with smaller messages and a lower
//! flop-to-byte ratio — which is why the paper's SP rows show smaller
//! SETs and different phase counts than BT.

use crate::npb::bt::AdiRank;
use crate::npb::Class;
use crate::util::{near_square_grid, SplitMix};
use pas2p_signature::{MpiApp, RankProgram};

/// The SP application.
pub struct SpApp {
    /// NPB class.
    pub class: Class,
    /// Number of processes.
    pub nprocs: u32,
    /// Time steps (scaled from NPB's 400).
    pub iters: u64,
}

impl SpApp {
    /// Table 4 configuration: Class C, 64 processes.
    pub fn class_c(nprocs: u32) -> SpApp {
        SpApp {
            class: Class::C,
            nprocs,
            iters: 50,
        }
    }

    /// Table 6 configuration: Class D, 256 processes.
    pub fn class_d(nprocs: u32) -> SpApp {
        SpApp {
            class: Class::D,
            nprocs,
            iters: 35,
        }
    }
}

impl MpiApp for SpApp {
    fn name(&self) -> String {
        "SP".into()
    }
    fn nprocs(&self) -> u32 {
        self.nprocs
    }
    fn workload(&self) -> String {
        format!("Class {} ({} steps)", self.class.letter(), self.iters)
    }
    fn make_rank(&self, rank: u32) -> Box<dyn RankProgram> {
        let (rows, cols) = near_square_grid(self.nprocs);
        let local = 320usize;
        let mut rng = SplitMix::new(0x59 ^ rank as u64);
        Box::new(AdiRank {
            rank,
            rows,
            cols,
            iters: self.iters,
            // Scalar systems: ~1/3 the flops of BT's block solves.
            rhs_flops: 3.5e8 * self.class.work_factor() / self.nprocs as f64,
            solve_flops: 2.0e8 * self.class.work_factor() / self.nprocs as f64,
            mem_bytes: 3.0e8 * self.class.work_factor() / self.nprocs as f64,
            // Smaller messages, exchanged in two pipeline stages per dim.
            msg_bytes: (12288.0 * self.class.size_factor()) as usize,
            sweeps_per_dim: 2,
            u: (0..local).map(|_| rng.next_f64()).collect(),
            step_no: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pas2p_machine::{cluster_a, JitterModel, MappingPolicy};
    use pas2p_signature::run_plain;

    #[test]
    fn sp_runs_with_more_messages_than_bt() {
        let mut m = cluster_a();
        m.jitter = JitterModel::none();
        let sp = SpApp {
            class: Class::A,
            nprocs: 16,
            iters: 3,
        };
        let bt = crate::npb::bt::BtApp {
            class: Class::A,
            nprocs: 16,
            iters: 3,
        };
        let rs = run_plain(&sp, &m, MappingPolicy::Block);
        let rb = run_plain(&bt, &m, MappingPolicy::Block);
        assert!(
            rs.total_msgs > rb.total_msgs,
            "{} !> {}",
            rs.total_msgs,
            rb.total_msgs
        );
    }

    #[test]
    fn sp_snapshot_roundtrips() {
        let app = SpApp {
            class: Class::A,
            nprocs: 4,
            iters: 1,
        };
        let p = app.make_rank(0);
        let snap = p.snapshot();
        let mut q = app.make_rank(0);
        q.restore(&snap);
        assert_eq!(q.snapshot(), snap);
    }
}
