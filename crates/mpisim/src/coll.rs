//! Collective operations: rendezvous-based implementation.
//!
//! All members of a [`Group`] calling the same collective
//! meet at a shared *slot*. The last arrival combines the inputs, computes
//! every member's output, and advances the group's virtual clock to
//! `max(member clocks) + model cost`, exactly how a synchronizing
//! collective behaves on a real machine: everyone leaves together, paying
//! for the slowest participant plus the network stages.
//!
//! Determinism: inputs are indexed by group position, reduction order is
//! fixed, and the communication jitter applied to the collective's cost is
//! drawn from a counter-based RNG keyed on (machine seed, group, round), so
//! thread scheduling cannot influence the result.

use crate::group::Group;
use parking_lot::Mutex;
use pas2p_machine::CollectiveKind;
use serde::{Deserialize, Serialize};

/// Element-wise reduction operators over `f64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReduceOp {
    /// Sum of elements.
    Sum,
    /// Product of elements.
    Prod,
    /// Element-wise maximum.
    Max,
    /// Element-wise minimum.
    Min,
}

impl ReduceOp {
    /// Combine two values.
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Prod => a * b,
            ReduceOp::Max => a.max(b),
            ReduceOp::Min => a.min(b),
        }
    }
}

/// Which collective a group is performing. All participants must pass the
/// same `CollOp` to the same round — mismatches are programming errors and
/// panic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CollOp {
    /// Synchronization only.
    Barrier,
    /// Broadcast from `root` (world rank).
    Bcast { root: u32 },
    /// Reduce to `root` (world rank).
    Reduce { root: u32, op: ReduceOp },
    /// Reduce-to-all.
    Allreduce { op: ReduceOp },
    /// Concatenate everyone's block to everyone.
    Allgather,
    /// Personalized all-to-all exchange.
    Alltoall,
    /// Gather blocks to `root`.
    Gather { root: u32 },
    /// Scatter `root`'s blocks.
    Scatter { root: u32 },
}

impl CollOp {
    /// The network-model collective class used for costing.
    pub fn kind(self) -> CollectiveKind {
        match self {
            CollOp::Barrier => CollectiveKind::Barrier,
            CollOp::Bcast { .. } => CollectiveKind::Bcast,
            CollOp::Reduce { .. } => CollectiveKind::Reduce,
            CollOp::Allreduce { .. } => CollectiveKind::Allreduce,
            CollOp::Allgather => CollectiveKind::Allgather,
            CollOp::Alltoall => CollectiveKind::Alltoall,
            CollOp::Gather { .. } => CollectiveKind::Gather,
            CollOp::Scatter { .. } => CollectiveKind::Scatter,
        }
    }
}

/// A participant's contribution to a collective round. A block is its
/// length in bytes.
#[derive(Debug, Clone)]
pub enum CollInput {
    /// No block (barrier, non-root bcast/scatter).
    None,
    /// A single block.
    Block(usize),
    /// One block per group member (alltoall, root scatter).
    Blocks(Vec<usize>),
    /// Numeric vector for reductions.
    F64(Vec<f64>),
}

impl CollInput {
    /// Bytes this participant contributes (for costing): its block, its
    /// largest block, or its reduction vector.
    pub fn byte_len(&self) -> u64 {
        match self {
            CollInput::None => 0,
            CollInput::Block(b) => *b as u64,
            CollInput::Blocks(bs) => bs.iter().max().map_or(0, |&b| b as u64),
            CollInput::F64(xs) => (xs.len() * 8) as u64,
        }
    }
}

/// A participant's result from a collective round; a block is a length.
#[derive(Debug, Clone)]
pub enum CollOutput {
    /// No block delivered to this member.
    None,
    /// A single block.
    Block(usize),
    /// One block per group member.
    Blocks(Vec<usize>),
    /// Numeric vector.
    F64(Vec<f64>),
}

/// Combine all inputs into per-member outputs. `group` gives the position →
/// world-rank correspondence for root resolution.
pub(crate) fn complete(op: CollOp, group: &Group, inputs: &[CollInput]) -> Vec<CollOutput> {
    let n = group.len();
    let root_pos = |root: u32| -> usize {
        group
            .position(root)
            .unwrap_or_else(|| panic!("collective root {} is not in the group", root))
    };
    match op {
        CollOp::Barrier => vec![CollOutput::None; n],
        CollOp::Bcast { root } => {
            let rp = root_pos(root);
            let block = match inputs[rp] {
                CollInput::Block(b) => b,
                ref other => panic!("bcast root must supply a block, got {:?}", other),
            };
            vec![CollOutput::Block(block); n]
        }
        CollOp::Reduce { root, op } => {
            let acc = reduce_inputs(inputs, op);
            let rp = root_pos(root);
            (0..n)
                .map(|i| {
                    if i == rp {
                        CollOutput::F64(acc.clone())
                    } else {
                        CollOutput::None
                    }
                })
                .collect()
        }
        CollOp::Allreduce { op } => {
            let acc = reduce_inputs(inputs, op);
            (0..n).map(|_| CollOutput::F64(acc.clone())).collect()
        }
        CollOp::Allgather => {
            let blocks: Vec<usize> = inputs
                .iter()
                .map(|i| match i {
                    CollInput::Block(b) => *b,
                    other => panic!("allgather members must supply a block, got {:?}", other),
                })
                .collect();
            (0..n).map(|_| CollOutput::Blocks(blocks.clone())).collect()
        }
        CollOp::Alltoall => {
            let matrix: Vec<&Vec<usize>> = inputs
                .iter()
                .map(|i| match i {
                    CollInput::Blocks(bs) => {
                        assert_eq!(bs.len(), n, "alltoall requires one block per group member");
                        bs
                    }
                    other => panic!("alltoall members must supply Blocks, got {:?}", other),
                })
                .collect();
            (0..n)
                .map(|i| CollOutput::Blocks(matrix.iter().map(|row| row[i]).collect()))
                .collect()
        }
        CollOp::Gather { root } => {
            let rp = root_pos(root);
            let blocks: Vec<usize> = inputs
                .iter()
                .map(|i| match i {
                    CollInput::Block(b) => *b,
                    other => panic!("gather members must supply a block, got {:?}", other),
                })
                .collect();
            (0..n)
                .map(|i| {
                    if i == rp {
                        CollOutput::Blocks(blocks.clone())
                    } else {
                        CollOutput::None
                    }
                })
                .collect()
        }
        CollOp::Scatter { root } => {
            let rp = root_pos(root);
            let blocks = match &inputs[rp] {
                CollInput::Blocks(bs) => {
                    assert_eq!(bs.len(), n, "scatter root must supply one block per member");
                    bs.clone()
                }
                other => panic!("scatter root must supply Blocks, got {:?}", other),
            };
            blocks.into_iter().map(CollOutput::Block).collect()
        }
    }
}

fn reduce_inputs(inputs: &[CollInput], op: ReduceOp) -> Vec<f64> {
    let mut acc: Option<Vec<f64>> = None;
    for input in inputs {
        let xs = match input {
            CollInput::F64(xs) => xs,
            other => panic!("reduction members must supply F64, got {:?}", other),
        };
        match &mut acc {
            None => acc = Some(xs.clone()),
            Some(a) => {
                assert_eq!(a.len(), xs.len(), "reduction vectors must agree in length");
                for (ai, xi) in a.iter_mut().zip(xs) {
                    *ai = op.apply(*ai, *xi);
                }
            }
        }
    }
    acc.expect("reduction over empty input set")
}

/// Counter-based deterministic uniform in [-√3, √3] (unit variance),
/// keyed on arbitrary 64-bit inputs. Used for collective-cost jitter so the
/// draw does not depend on which thread completes the rendezvous.
pub(crate) fn keyed_unit_noise(a: u64, b: u64, c: u64) -> f64 {
    // splitmix64 over the mixed key.
    let mut z = a
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(b.rotate_left(17))
        .wrapping_add(c.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    let u01 = (z >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
    (u01 * 2.0 - 1.0) * 1.732_050_8
}

/// State of one group's rendezvous slot.
struct SlotState {
    generation: u64,
    arrived: usize,
    op: Option<CollOp>,
    inputs: Vec<Option<CollInput>>,
    clocks: Vec<f64>,
    outputs: Vec<CollOutput>,
    out_clock: f64,
}

/// A reusable rendezvous point for one group. It holds the round's data
/// only; members that must wait park through the run's
/// [`Registry`](crate::park::Registry) and the last arrival wakes them.
pub(crate) struct CollSlot {
    state: Mutex<SlotState>,
}

/// Result of participating in a collective round.
pub(crate) struct CollResult {
    pub output: CollOutput,
    pub out_clock: f64,
}

/// What [`CollSlot::arrive`] found.
pub(crate) enum Arrival {
    /// This member was the last one: the round is complete and the
    /// caller must wake the other members.
    Completed(CollResult),
    /// The round (identified by its generation) is still open; poll
    /// [`CollSlot::result`] after each wake.
    Pending(u64),
}

impl CollSlot {
    pub fn new(n: usize) -> CollSlot {
        CollSlot {
            state: Mutex::new(SlotState {
                generation: 0,
                arrived: 0,
                op: None,
                inputs: vec![None; n],
                clocks: vec![0.0; n],
                outputs: Vec::new(),
                out_clock: 0.0,
            }),
        }
    }

    /// Join round `op` as group position `pos` with virtual time `clock`.
    ///
    /// `cost_of` is invoked exactly once per round, by the last arrival,
    /// with the generation number; it returns the modeled collective cost
    /// (including jitter).
    pub fn arrive(
        &self,
        group: &Group,
        pos: usize,
        op: CollOp,
        input: CollInput,
        clock: f64,
        cost_of: impl FnOnce(u64, u64) -> f64,
    ) -> Arrival {
        let n = group.len();
        let mut st = self.state.lock();
        match st.op {
            None => st.op = Some(op),
            Some(existing) => assert_eq!(
                existing,
                op,
                "collective mismatch in group {:?}: {:?} vs {:?}",
                group.ranks(),
                existing,
                op
            ),
        }
        assert!(st.inputs[pos].is_none(), "rank joined the same round twice");
        st.inputs[pos] = Some(input);
        st.clocks[pos] = clock;
        st.arrived += 1;
        let my_gen = st.generation;
        if st.arrived < n {
            return Arrival::Pending(my_gen);
        }

        // Last arrival: combine and release the round.
        let inputs: Vec<CollInput> = st.inputs.iter_mut().map(|i| i.take().unwrap()).collect();
        let max_bytes = inputs.iter().map(|i| i.byte_len()).max().unwrap_or(0);
        let max_clock = st.clocks.iter().cloned().fold(f64::MIN, f64::max);
        let cost = cost_of(my_gen, max_bytes);
        st.outputs = complete(op, group, &inputs);
        st.out_clock = max_clock + cost;
        st.arrived = 0;
        st.op = None;
        st.generation += 1;
        Arrival::Completed(CollResult {
            output: st.outputs[pos].clone(),
            out_clock: st.out_clock,
        })
    }

    /// Position `pos`'s result of round `round`, once that round is
    /// complete. Outputs stay in place until the next round completes,
    /// which needs this member to arrive again first.
    pub fn result(&self, pos: usize, round: u64) -> Option<CollResult> {
        let st = self.state.lock();
        (st.generation != round).then(|| CollResult {
            output: st.outputs[pos].clone(),
            out_clock: st.out_clock,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduce_ops_combine_correctly() {
        assert_eq!(ReduceOp::Sum.apply(2.0, 3.0), 5.0);
        assert_eq!(ReduceOp::Prod.apply(2.0, 3.0), 6.0);
        assert_eq!(ReduceOp::Max.apply(2.0, 3.0), 3.0);
        assert_eq!(ReduceOp::Min.apply(2.0, 3.0), 2.0);
    }

    #[test]
    fn complete_bcast_copies_root_payload() {
        let g = Group::new(vec![0, 1, 2]);
        let inputs = vec![CollInput::None, CollInput::Block(42), CollInput::None];
        let out = complete(CollOp::Bcast { root: 1 }, &g, &inputs);
        for o in out {
            match o {
                CollOutput::Block(len) => assert_eq!(len, 42),
                other => panic!("unexpected {:?}", other),
            }
        }
    }

    #[test]
    fn complete_allreduce_sums_elementwise() {
        let g = Group::new(vec![0, 1]);
        let inputs = vec![
            CollInput::F64(vec![1.0, 2.0]),
            CollInput::F64(vec![10.0, 20.0]),
        ];
        let out = complete(CollOp::Allreduce { op: ReduceOp::Sum }, &g, &inputs);
        for o in out {
            match o {
                CollOutput::F64(xs) => assert_eq!(xs, vec![11.0, 22.0]),
                other => panic!("unexpected {:?}", other),
            }
        }
    }

    #[test]
    fn complete_reduce_only_root_gets_data() {
        let g = Group::new(vec![3, 5]);
        let inputs = vec![CollInput::F64(vec![1.0]), CollInput::F64(vec![4.0])];
        let out = complete(
            CollOp::Reduce {
                root: 5,
                op: ReduceOp::Max,
            },
            &g,
            &inputs,
        );
        assert!(matches!(out[0], CollOutput::None));
        match &out[1] {
            CollOutput::F64(xs) => assert_eq!(xs, &vec![4.0]),
            other => panic!("unexpected {:?}", other),
        }
    }

    #[test]
    fn complete_alltoall_transposes_blocks() {
        let g = Group::new(vec![0, 1]);
        // Block `10 * from + to + 1` goes from position `from` to `to`.
        let inputs = vec![
            CollInput::Blocks(vec![1, 2]),
            CollInput::Blocks(vec![11, 12]),
        ];
        let out = complete(CollOp::Alltoall, &g, &inputs);
        match &out[0] {
            CollOutput::Blocks(bs) => assert_eq!(bs, &[1, 11]),
            other => panic!("unexpected {:?}", other),
        }
        match &out[1] {
            CollOutput::Blocks(bs) => assert_eq!(bs, &[2, 12]),
            other => panic!("unexpected {:?}", other),
        }
    }

    #[test]
    fn complete_scatter_distributes_root_blocks() {
        let g = Group::new(vec![0, 1, 2]);
        let inputs = vec![
            CollInput::Blocks(vec![7, 8, 9]),
            CollInput::None,
            CollInput::None,
        ];
        let out = complete(CollOp::Scatter { root: 0 }, &g, &inputs);
        for (o, e) in out.iter().zip([7, 8, 9]) {
            match o {
                CollOutput::Block(len) => assert_eq!(*len, e),
                other => panic!("unexpected {:?}", other),
            }
        }
    }

    #[test]
    fn complete_gather_collects_in_group_order() {
        let g = Group::new(vec![0, 1]);
        let inputs = vec![CollInput::Block(3), CollInput::Block(4)];
        let out = complete(CollOp::Gather { root: 0 }, &g, &inputs);
        match &out[0] {
            CollOutput::Blocks(bs) => assert_eq!(bs, &[3, 4]),
            other => panic!("unexpected {:?}", other),
        }
        assert!(matches!(out[1], CollOutput::None));
    }

    #[test]
    fn complete_delivers_size_only_blocks_by_position() {
        let g = Group::new(vec![0, 1]);
        let lens = |o: &CollOutput| match o {
            CollOutput::Blocks(bs) => bs.clone(),
            CollOutput::Block(b) => vec![*b],
            other => panic!("unexpected {:?}", other),
        };
        let rows = vec![CollInput::Blocks(vec![1, 2]), CollInput::Blocks(vec![3, 4])];
        let out = complete(CollOp::Alltoall, &g, &rows);
        assert_eq!((lens(&out[0]), lens(&out[1])), (vec![1, 3], vec![2, 4]));
        let out = complete(
            CollOp::Scatter { root: 1 },
            &g,
            &[CollInput::None, rows[1].clone()],
        );
        assert_eq!((lens(&out[0]), lens(&out[1])), (vec![3], vec![4]));
        let singles = vec![CollInput::Block(5), CollInput::Block(6)];
        let out = complete(CollOp::Allgather, &g, &singles);
        assert_eq!((lens(&out[0]), lens(&out[1])), (vec![5, 6], vec![5, 6]));
        let out = complete(CollOp::Gather { root: 1 }, &g, &singles);
        assert!(matches!(out[0], CollOutput::None));
        assert_eq!(lens(&out[1]), vec![5, 6]);
        let out = complete(
            CollOp::Bcast { root: 0 },
            &g,
            &[singles[0].clone(), CollInput::None],
        );
        assert_eq!((lens(&out[0]), lens(&out[1])), (vec![5], vec![5]));
    }

    #[test]
    fn inputs_cost_by_length() {
        assert_eq!(CollInput::Blocks(vec![100, 3]).byte_len(), 100);
        assert_eq!(CollInput::Block(64).byte_len(), 64);
        assert_eq!(CollInput::F64(vec![0.0; 4]).byte_len(), 32);
        assert_eq!(CollInput::None.byte_len(), 0);
    }

    #[test]
    fn keyed_noise_is_deterministic_and_bounded() {
        let a = keyed_unit_noise(1, 2, 3);
        let b = keyed_unit_noise(1, 2, 3);
        assert_eq!(a, b);
        assert_ne!(keyed_unit_noise(1, 2, 4), a);
        for i in 0..1000 {
            let v = keyed_unit_noise(42, i, 7);
            assert!((-1.8..1.8).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "reduction vectors must agree in length")]
    fn mismatched_reduction_lengths_panic() {
        reduce_inputs(
            &[CollInput::F64(vec![1.0]), CollInput::F64(vec![1.0, 2.0])],
            ReduceOp::Sum,
        );
    }
}
