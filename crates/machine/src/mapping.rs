//! Process → core placement.
//!
//! The paper's experimental methodology (Fig 12) executes the signature on
//! the target machine "changing the mapping policies", including
//! oversubscribed runs (256-process signatures on the 128-core cluster A,
//! two processes per core — Table 7). A [`Mapping`] records for every rank
//! the node/socket/core it lands on plus the number of ranks sharing that
//! core.

use crate::MachineModel;
use serde::{Deserialize, Serialize};

/// Physical location of one rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CoreLoc {
    /// Node index within the cluster.
    pub node: u32,
    /// Socket index within the node.
    pub socket: u32,
    /// Core index within the socket.
    pub core: u32,
}

/// How ranks are laid out over the machine.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum MappingPolicy {
    /// Fill each node completely before moving to the next (MPI "by node" /
    /// sequential fill). Neighbouring ranks share nodes — good for
    /// nearest-neighbour communication patterns.
    Block,
    /// Deal ranks round-robin across nodes (MPI "by slot" cyclic).
    /// Neighbouring ranks land on different nodes.
    Cyclic,
    /// Explicit per-rank core assignment, as `(node, socket, core)`.
    Explicit(Vec<CoreLoc>),
}

/// A concrete placement of `n` ranks on a machine.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mapping {
    locs: Vec<CoreLoc>,
    /// Ranks sharing the core of each rank (>= 1). Index by rank.
    share: Vec<u32>,
    /// Name of the machine this mapping was built for.
    pub machine: String,
}

impl Mapping {
    /// Build a mapping for `nprocs` ranks on `machine` under `policy`.
    ///
    /// Oversubscription wraps around the core list; `share(r)` then
    /// reports how many ranks ended up on rank `r`'s core.
    pub fn build(machine: &MachineModel, nprocs: u32, policy: MappingPolicy) -> Mapping {
        assert!(nprocs > 0, "mapping requires at least one process");
        let cps = machine.cores_per_socket;
        let spn = machine.sockets_per_node;
        let cpn = machine.cores_per_node();
        let total = machine.total_cores();

        let locs: Vec<CoreLoc> = match policy {
            MappingPolicy::Block => (0..nprocs)
                .map(|r| {
                    let flat = r % total;
                    CoreLoc {
                        node: flat / cpn,
                        socket: (flat % cpn) / cps,
                        core: flat % cps,
                    }
                })
                .collect(),
            MappingPolicy::Cyclic => (0..nprocs)
                .map(|r| {
                    let flat = r % total;
                    let node = flat % machine.nodes;
                    let within = flat / machine.nodes;
                    CoreLoc {
                        node,
                        socket: (within / cps) % spn,
                        core: within % cps,
                    }
                })
                .collect(),
            MappingPolicy::Explicit(locs) => {
                assert_eq!(
                    locs.len(),
                    nprocs as usize,
                    "explicit mapping must cover every rank"
                );
                for l in &locs {
                    assert!(l.node < machine.nodes, "node {} out of range", l.node);
                    assert!(l.socket < spn, "socket {} out of range", l.socket);
                    assert!(l.core < cps, "core {} out of range", l.core);
                }
                locs
            }
        };

        // Count ranks per physical core to derive sharing factors.
        let mut counts = std::collections::HashMap::new();
        for l in &locs {
            *counts.entry(*l).or_insert(0u32) += 1;
        }
        let share = locs.iter().map(|l| counts[l]).collect();

        Mapping {
            locs,
            share,
            machine: machine.name.clone(),
        }
    }

    /// Number of mapped ranks.
    pub fn nprocs(&self) -> u32 {
        self.locs.len() as u32
    }

    /// Physical location of `rank`.
    pub fn loc(&self, rank: u32) -> CoreLoc {
        self.locs[rank as usize]
    }

    /// How many ranks share `rank`'s core (1 = dedicated).
    pub fn core_share(&self, rank: u32) -> u32 {
        self.share[rank as usize]
    }

    /// True if any core hosts more than one rank.
    pub fn is_oversubscribed(&self) -> bool {
        self.share.iter().any(|&s| s > 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::{cluster_a, cluster_c};

    #[test]
    fn block_mapping_fills_nodes_sequentially() {
        let m = cluster_a(); // 4 cores/node
        let map = m.map(8, MappingPolicy::Block);
        assert_eq!(map.loc(0).node, 0);
        assert_eq!(map.loc(3).node, 0);
        assert_eq!(map.loc(4).node, 1);
        assert!(!map.is_oversubscribed());
    }

    #[test]
    fn cyclic_mapping_spreads_across_nodes() {
        let m = cluster_a();
        let map = m.map(8, MappingPolicy::Cyclic);
        assert_eq!(map.loc(0).node, 0);
        assert_eq!(map.loc(1).node, 1);
        assert_ne!(map.loc(0).node, map.loc(1).node);
    }

    #[test]
    fn oversubscription_doubles_share() {
        // 256 ranks on 128-core cluster A: the paper's Table 7 setup.
        let m = cluster_a();
        let map = m.map(256, MappingPolicy::Block);
        assert!(map.is_oversubscribed());
        for r in 0..256 {
            assert_eq!(map.core_share(r), 2, "rank {} share", r);
        }
    }

    #[test]
    fn exact_fill_is_dedicated() {
        let m = cluster_c();
        let map = m.map(m.total_cores(), MappingPolicy::Block);
        for r in 0..m.total_cores() {
            assert_eq!(map.core_share(r), 1);
        }
    }

    #[test]
    fn explicit_mapping_respected() {
        let m = cluster_a();
        let locs = vec![
            CoreLoc {
                node: 5,
                socket: 0,
                core: 1,
            },
            CoreLoc {
                node: 5,
                socket: 0,
                core: 1,
            },
        ];
        let map = m.map(2, MappingPolicy::Explicit(locs));
        assert_eq!(map.loc(0).node, 5);
        assert_eq!(map.core_share(0), 2);
        assert_eq!(map.core_share(1), 2);
    }

    #[test]
    #[should_panic(expected = "explicit mapping must cover every rank")]
    fn explicit_mapping_wrong_len_panics() {
        let m = cluster_a();
        m.map(
            3,
            MappingPolicy::Explicit(vec![CoreLoc {
                node: 0,
                socket: 0,
                core: 0,
            }]),
        );
    }

    #[test]
    fn socket_indices_stay_in_range() {
        let m = cluster_c();
        for policy in [MappingPolicy::Block, MappingPolicy::Cyclic] {
            let map = m.map(512, policy);
            for r in 0..512 {
                let l = map.loc(r);
                assert!(l.node < m.nodes);
                assert!(l.socket < m.sockets_per_node);
                assert!(l.core < m.cores_per_socket);
            }
        }
    }
}
