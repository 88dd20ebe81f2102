//! Machine models for the PAS2P reproduction.
//!
//! The PAS2P paper evaluates on four real clusters (Table 2): cluster A
//! (Dual-Core Xeon 5150, Gigabit Ethernet, 128 cores), cluster B (2× quad
//! Xeon E5430, Gigabit Ethernet, 64 cores), cluster C (4× quad Xeon E7350,
//! InfiniBand, 256 cores) and cluster D (Itanium Montvale NUMA,
//! InfiniBand). This crate models those machines so that the simulated
//! message-passing runtime (`pas2p-mpisim`) can charge *virtual time* for
//! computation and communication, producing per-machine execution times the
//! way the real clusters would.
//!
//! A [`MachineModel`] is composed of:
//!
//! * a topology (nodes × sockets × cores),
//! * a [`ComputeModel`] converting abstract [`Work`] into seconds,
//! * two [`NetworkModel`]s (inter-node fabric and intra-node shared memory),
//! * a [`JitterModel`] adding deterministic, seeded noise (OS noise,
//!   network contention) so that repeated phases exhibit the small
//!   variability that makes prediction error non-trivial, and
//! * an instruction-set tag ([`IsaKind`]) used to reproduce the paper's
//!   Appendix E restriction that a signature cannot be ported across ISAs.
//!
//! Process placement is described by a [`Mapping`] produced from a
//! [`MappingPolicy`]; oversubscription (e.g. the paper's 256-process
//! signature on the 128-core cluster A) multiplies compute cost by the
//! number of processes sharing a core.

#![forbid(unsafe_code)]

pub mod compute;
pub mod jitter;
pub mod mapping;
pub mod network;
pub mod presets;

pub use compute::{ComputeModel, Work};
pub use jitter::JitterModel;
pub use mapping::{CoreLoc, Mapping, MappingPolicy};
pub use network::{CollectiveKind, NetworkModel};
pub use presets::{cluster_a, cluster_b, cluster_c, cluster_d, preset_by_name};

use serde::{Deserialize, Serialize};

/// Instruction-set architecture of a machine.
///
/// PAS2P signatures contain checkpointed binaries, so they only run on the
/// ISA they were built on (paper §7): porting to a different ISA requires
/// reconstructing the signature from the extracted phases and weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IsaKind {
    /// x86-64 (clusters A, B, C in the paper).
    X86_64,
    /// Itanium IA-64 (cluster D in the paper).
    Ia64,
}

impl std::fmt::Display for IsaKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IsaKind::X86_64 => write!(f, "x86_64"),
            IsaKind::Ia64 => write!(f, "ia64"),
        }
    }
}

/// A full machine (cluster) model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MachineModel {
    /// Human-readable name, e.g. `"cluster-A"`.
    pub name: String,
    /// Number of physical nodes in the cluster.
    pub nodes: u32,
    /// CPU sockets per node.
    pub sockets_per_node: u32,
    /// Cores per socket.
    pub cores_per_socket: u32,
    /// Per-core compute model.
    pub compute: ComputeModel,
    /// Inter-node interconnection network.
    pub network: NetworkModel,
    /// Intra-node (shared-memory) transfer model.
    pub intra: NetworkModel,
    /// Noise model for compute and communication segments.
    pub jitter: JitterModel,
    /// Instruction-set architecture.
    pub isa: IsaKind,
}

impl MachineModel {
    /// Total number of cores in the machine.
    pub fn total_cores(&self) -> u32 {
        self.nodes * self.sockets_per_node * self.cores_per_socket
    }

    /// Cores on a single node.
    pub fn cores_per_node(&self) -> u32 {
        self.sockets_per_node * self.cores_per_socket
    }

    /// Build a process→core mapping for `nprocs` processes under `policy`.
    ///
    /// More processes than cores is allowed (oversubscription); the mapping
    /// records how many processes share each core so compute time can be
    /// scaled accordingly.
    pub fn map(&self, nprocs: u32, policy: MappingPolicy) -> Mapping {
        Mapping::build(self, nprocs, policy)
    }

    /// Point-to-point message cost in seconds between two mapped ranks.
    ///
    /// Chooses the intra-node or inter-node model depending on placement.
    pub fn p2p_cost(&self, mapping: &Mapping, from: u32, to: u32, bytes: u64) -> f64 {
        if from == to {
            // A self-message costs only a local copy.
            return self.intra.transfer_time(bytes) * 0.5;
        }
        let a = mapping.loc(from);
        let b = mapping.loc(to);
        if a.node == b.node {
            self.intra.transfer_time(bytes)
        } else {
            self.network.transfer_time(bytes)
        }
    }

    /// Cost of a collective operation over `procs` mapped processes moving
    /// `bytes` per process.
    ///
    /// Uses tree/stage models (`ceil(log2 p)` stages for rooted and
    /// doubling collectives, `p-1` exchange steps for all-to-all) over the
    /// slowest link class actually used by the mapping: a collective that
    /// spans several nodes is dominated by the inter-node fabric.
    pub fn collective_cost(
        &self,
        mapping: &Mapping,
        kind: CollectiveKind,
        procs: &[u32],
        bytes: u64,
    ) -> f64 {
        let spans_nodes = procs
            .iter()
            .map(|&r| mapping.loc(r).node)
            .collect::<std::collections::HashSet<_>>()
            .len()
            > 1;
        let link = if spans_nodes {
            &self.network
        } else {
            &self.intra
        };
        link.collective_time(kind, procs.len() as u32, bytes)
    }

    /// Compute time in seconds for `work` executed by a rank whose core is
    /// shared by `core_share` processes (1 = dedicated core).
    pub fn compute_time(&self, work: Work, core_share: u32) -> f64 {
        self.compute.time(work) * core_share as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_core_counts_match_table2() {
        assert_eq!(cluster_a().total_cores(), 128);
        assert_eq!(cluster_b().total_cores(), 64);
        assert_eq!(cluster_c().total_cores(), 256);
        // Cluster D is a 169-core NUMA machine in the paper; we round to a
        // regular topology (see presets.rs).
        assert!(cluster_d().total_cores() >= 160);
    }

    #[test]
    fn isa_tags_match_paper() {
        assert_eq!(cluster_a().isa, IsaKind::X86_64);
        assert_eq!(cluster_b().isa, IsaKind::X86_64);
        assert_eq!(cluster_c().isa, IsaKind::X86_64);
        assert_eq!(cluster_d().isa, IsaKind::Ia64);
    }

    #[test]
    fn intra_node_is_cheaper_than_inter_node() {
        for m in [cluster_a(), cluster_b(), cluster_c(), cluster_d()] {
            let map = m.map(m.total_cores(), MappingPolicy::Block);
            // Rank 0 and 1 share a node under block mapping.
            let intra = m.p2p_cost(&map, 0, 1, 4096);
            // Rank 0 and the last rank are on different nodes.
            let inter = m.p2p_cost(&map, 0, m.total_cores() - 1, 4096);
            assert!(
                intra < inter,
                "{}: intra {} !< inter {}",
                m.name,
                intra,
                inter
            );
        }
    }

    #[test]
    fn infiniband_beats_gige() {
        let a = cluster_a(); // GigE
        let c = cluster_c(); // InfiniBand
        let map_a = a.map(64, MappingPolicy::Block);
        let map_c = c.map(64, MappingPolicy::Block);
        let far_a = a.p2p_cost(&map_a, 0, 63, 1 << 20);
        let far_c = c.p2p_cost(&map_c, 0, 63, 1 << 20);
        // Different nodes in both cases (4 cores/node on A, 16 on C).
        assert!(far_c < far_a, "IB {} !< GigE {}", far_c, far_a);
    }

    #[test]
    fn oversubscription_slows_compute() {
        let m = cluster_a();
        let w = Work::flops(1e9);
        assert!((m.compute_time(w, 2) - 2.0 * m.compute_time(w, 1)).abs() < 1e-12);
    }

    #[test]
    fn self_message_is_cheapest() {
        let m = cluster_b();
        let map = m.map(16, MappingPolicy::Block);
        assert!(m.p2p_cost(&map, 3, 3, 1024) < m.p2p_cost(&map, 3, 4, 1024));
    }

    #[test]
    fn collective_cost_grows_with_processes() {
        let m = cluster_c();
        let map = m.map(64, MappingPolicy::Block);
        let small: Vec<u32> = (0..8).collect();
        let large: Vec<u32> = (0..64).collect();
        let cs = m.collective_cost(&map, CollectiveKind::Allreduce, &small, 4096);
        let cl = m.collective_cost(&map, CollectiveKind::Allreduce, &large, 4096);
        assert!(cl > cs);
    }

    #[test]
    fn machine_model_roundtrips_through_serde() {
        let m = cluster_c();
        let json = serde_json::to_string(&m).unwrap();
        let back: MachineModel = serde_json::from_str(&json).unwrap();
        assert_eq!(back.name, m.name);
        assert_eq!(back.total_cores(), m.total_cores());
    }
}
