//! Interconnection network cost models.
//!
//! Point-to-point transfers use the classic latency + size/bandwidth model
//! with a per-message CPU overhead. Collectives are costed with stage
//! models matching the algorithms production MPIs use: `ceil(log2 p)`
//! stages for tree/doubling collectives and `p − 1` exchange steps for
//! all-to-all.

use serde::{Deserialize, Serialize};

/// Which collective operation is being costed. Mirrors the MPI collectives
/// the paper's trace layer intercepts (`MPI_Bcast`, `MPI_Allreduce`,
/// `MPI_Alltoall`, barriers, …), and is also the trace's collective class:
/// `pas2p_trace::EventKind::Coll` carries it, so its variant names are the
/// trace's JSON names and its variant order the phase table's key codes.
/// The binary trace format spells its codes out (`pas2p_trace::format`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CollectiveKind {
    /// Synchronization only; no payload.
    Barrier,
    /// One-to-all broadcast (binomial tree).
    Bcast,
    /// All-to-one reduction (binomial tree).
    Reduce,
    /// All-to-all reduction (recursive doubling).
    Allreduce,
    /// Each process receives every process's block (ring).
    Allgather,
    /// Personalised all-to-all exchange (pairwise).
    Alltoall,
    /// All-to-one gather (binomial tree).
    Gather,
    /// One-to-all scatter (binomial tree).
    Scatter,
}

/// A latency/bandwidth link model.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct NetworkModel {
    /// One-way small-message latency in seconds.
    pub latency: f64,
    /// Sustained bandwidth in bytes/s.
    pub bandwidth: f64,
    /// Per-message sender/receiver CPU overhead in seconds (the `o` of the
    /// LogP family). Charged once per message on top of the wire time.
    pub per_msg_overhead: f64,
}

impl NetworkModel {
    /// Time for one point-to-point message of `bytes` payload.
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        self.latency + bytes as f64 / self.bandwidth + self.per_msg_overhead
    }

    /// Time for a collective of `procs` participants each contributing
    /// `bytes` of payload.
    pub fn collective_time(&self, kind: CollectiveKind, procs: u32, bytes: u64) -> f64 {
        if procs <= 1 {
            return self.per_msg_overhead;
        }
        let stages = (procs as f64).log2().ceil();
        match kind {
            CollectiveKind::Barrier => stages * (self.latency + self.per_msg_overhead),
            CollectiveKind::Bcast
            | CollectiveKind::Reduce
            | CollectiveKind::Gather
            | CollectiveKind::Scatter => stages * self.transfer_time(bytes),
            CollectiveKind::Allreduce => {
                // Recursive doubling: log2(p) stages of full-size exchange.
                stages * self.transfer_time(bytes)
            }
            CollectiveKind::Allgather => {
                // Ring: p-1 steps of one block each.
                (procs - 1) as f64 * self.transfer_time(bytes)
            }
            CollectiveKind::Alltoall => {
                // Pairwise exchange: p-1 steps, each sending one block.
                (procs - 1) as f64 * self.transfer_time(bytes)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gige() -> NetworkModel {
        NetworkModel {
            latency: 50e-6,
            bandwidth: 110e6,
            per_msg_overhead: 2e-6,
        }
    }

    #[test]
    fn transfer_time_is_latency_plus_wire() {
        let n = gige();
        let t = n.transfer_time(110_000_000);
        assert!((t - (50e-6 + 1.0 + 2e-6)).abs() < 1e-9);
    }

    #[test]
    fn zero_bytes_still_costs_latency() {
        let n = gige();
        assert!(n.transfer_time(0) >= n.latency);
    }

    #[test]
    fn barrier_scales_logarithmically() {
        let n = gige();
        let b8 = n.collective_time(CollectiveKind::Barrier, 8, 0);
        let b64 = n.collective_time(CollectiveKind::Barrier, 64, 0);
        assert!((b64 / b8 - 2.0).abs() < 1e-9, "log2(64)/log2(8) = 2");
    }

    #[test]
    fn alltoall_scales_linearly() {
        let n = gige();
        let a8 = n.collective_time(CollectiveKind::Alltoall, 8, 1024);
        let a16 = n.collective_time(CollectiveKind::Alltoall, 16, 1024);
        assert!((a16 / a8 - 15.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn single_process_collective_is_trivial() {
        let n = gige();
        assert!(n.collective_time(CollectiveKind::Allreduce, 1, 1 << 20) < 1e-5);
    }

    #[test]
    fn bcast_cheaper_than_alltoall_at_scale() {
        let n = gige();
        let b = n.collective_time(CollectiveKind::Bcast, 64, 4096);
        let a = n.collective_time(CollectiveKind::Alltoall, 64, 4096);
        assert!(b < a);
    }
}
