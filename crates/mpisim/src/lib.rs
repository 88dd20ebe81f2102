//! A message-passing runtime that substitutes for MPI in the PAS2P
//! reproduction.
//!
//! The paper instruments real MPI applications on real clusters. Rust MPI
//! bindings are immature and `PMPI`-style interposition is awkward, so this
//! crate provides the substrate from scratch:
//!
//! * **Real concurrency** — every rank is an OS thread; point-to-point
//!   messages travel over channels and collectives rendezvous through
//!   shared state, so message matching, `ANY_SOURCE` nondeterminism and
//!   collective synchronization are genuine, not simulated formulas.
//! * **A message is a length** — a send, a receive and a collective
//!   block carry a byte count and nothing else ([`Mpi::send_sized`];
//!   [`Mpi::send`] sends its slice's length). Costs,
//!   `RunReport::total_bytes` and the trace's `size` fields are functions
//!   of it, which is all the PAS2P method consumes, so contents can move
//!   no clock, msg id or trace byte.
//! * **Virtual time** — each rank carries a virtual clock advanced by the
//!   [`pas2p_machine::MachineModel`] cost models: computation is charged
//!   via declared [`Work`], communication via latency/bandwidth models, and
//!   both receive deterministic seeded jitter. Executing the same program
//!   against the cluster-A model and the cluster-C model yields the
//!   different execution times a real cross-cluster run would.
//! * **Interposition-friendly API** — applications are written against the
//!   [`Mpi`] trait. The `pas2p-trace` crate wraps any `Mpi` implementation
//!   to record the paper's event stream, playing the role of the
//!   `LD_PRELOAD`-ed `libpas2p`.
//!
//! # Example
//!
//! ```
//! use pas2p_mpisim::{Mpi, SimConfig, run_app, ReduceOp};
//! use pas2p_machine::{cluster_a, Work, MappingPolicy};
//!
//! let cfg = SimConfig::new(cluster_a(), 4, MappingPolicy::Block);
//! let report = run_app(&cfg, |ctx| {
//!     ctx.compute(Work::flops(1e6));
//!     let sum = ctx.allreduce_f64(&[ctx.rank() as f64], ReduceOp::Sum);
//!     assert_eq!(sum[0], 0.0 + 1.0 + 2.0 + 3.0);
//! });
//! assert!(report.makespan > 0.0);
//! ```

#![forbid(unsafe_code)]

pub mod coll;
pub mod ctx;
pub mod group;
pub mod harness;
pub mod msg;
mod park;
pub mod report;
pub mod runtime;

pub use coll::{CollInput, CollOp, CollOutput, ReduceOp};
pub use ctx::RankCtx;
pub use group::Group;
pub use harness::{Counters, HarnessAction, SimHarness};
pub use msg::{Message, RecvRequest, Tag, ANY_TAG};
pub use report::RunReport;
pub use runtime::{run_app, SimConfig};

use pas2p_machine::Work;

/// The MPI-like interface applications program against.
///
/// Applications are generic over `Mpi`, which is the Rust analog of linking
/// against the MPI profiling interface: the plain [`RankCtx`] executes
/// directly, while `pas2p-trace`'s `Traced<C>` wrapper intercepts every
/// call to record the PAS2P event stream before delegating.
///
/// Collectives come in `_in` variants taking an explicit [`Group`] (a
/// sorted set of world ranks, the analog of an MPI communicator) plus
/// convenience methods over the world group. All of them are provided
/// methods over one required one, [`collective_in`](Mpi::collective_in).
pub trait Mpi {
    /// This process's rank in the world group.
    fn rank(&self) -> u32;
    /// Number of processes in the world group.
    fn size(&self) -> u32;
    /// Current virtual time of this rank, in seconds.
    fn now(&self) -> f64;
    /// Advance virtual time by executing `work` on this rank's core.
    fn compute(&mut self, work: Work);
    /// Advance virtual time by `seconds` without modeling (used by the
    /// trace layer to charge instrumentation overhead).
    fn elapse(&mut self, seconds: f64);

    /// Blocking standard-mode send of `len` bytes (eager: never blocks
    /// on the receiver) — the one send primitive. Returns the globally
    /// unique message id — the paper's *relation* field linking this
    /// Send event to its Receive event.
    fn send_sized(&mut self, dest: u32, tag: Tag, len: usize) -> u64;
    /// Send `data.len()` bytes: [`send_sized`](Mpi::send_sized) for a
    /// caller that holds a buffer.
    fn send(&mut self, dest: u32, tag: Tag, data: &[u8]) -> u64 {
        self.send_sized(dest, tag, data.len())
    }
    /// Blocking receive. `src = None` is `MPI_ANY_SOURCE`; `tag = None` is
    /// `MPI_ANY_TAG`.
    fn recv(&mut self, src: Option<u32>, tag: Option<Tag>) -> Message;

    /// Post a nonblocking receive (`MPI_Irecv`). Completion happens at
    /// [`wait`](Mpi::wait); in the virtual-time model this is what makes
    /// communication/computation overlap real — compute performed between
    /// the post and the wait absorbs wire time.
    fn irecv(&mut self, src: Option<u32>, tag: Option<Tag>) -> RecvRequest {
        RecvRequest {
            src,
            tag,
            posted_at: self.now(),
        }
    }

    /// Complete a nonblocking receive (`MPI_Wait`).
    fn wait(&mut self, req: RecvRequest) -> Message {
        self.recv(req.src, req.tag)
    }

    /// Complete a set of nonblocking receives (`MPI_Waitall`), in order.
    fn waitall(&mut self, reqs: Vec<RecvRequest>) -> Vec<Message> {
        reqs.into_iter().map(|r| self.wait(r)).collect()
    }

    /// The one collective a layer implements: this rank's participation
    /// in `op` over `group`, contributing `input`. The eight `_in`
    /// methods below pack their arguments into a [`CollInput`], call
    /// this, and unpack the [`CollOutput`]; a layer that intercepts
    /// collectives (the trace's `Traced`) implements only this method.
    fn collective_in(&mut self, group: &Group, op: CollOp, input: CollInput) -> CollOutput;

    /// Barrier over an arbitrary group.
    fn barrier_in(&mut self, group: &Group) {
        self.collective_in(group, CollOp::Barrier, CollInput::None);
    }
    /// Broadcast a block of `len` bytes from `root` (world rank) to
    /// every group member; returns the block's length on every rank.
    fn bcast_in(&mut self, group: &Group, root: u32, len: Option<usize>) -> usize {
        let input = if self.rank() == root {
            CollInput::Block(len.expect("bcast root must supply the block"))
        } else {
            CollInput::None
        };
        match self.collective_in(group, CollOp::Bcast { root }, input) {
            CollOutput::Block(b) => b,
            other => panic!("bcast returned {:?}", other),
        }
    }
    /// Element-wise reduction of `xs` to `root`; `Some(result)` on root,
    /// `None` elsewhere.
    fn reduce_f64_in(
        &mut self,
        group: &Group,
        root: u32,
        xs: &[f64],
        op: ReduceOp,
    ) -> Option<Vec<f64>> {
        let input = CollInput::F64(xs.to_vec());
        match self.collective_in(group, CollOp::Reduce { root, op }, input) {
            CollOutput::F64(v) => Some(v),
            CollOutput::None => None,
            other => panic!("reduce returned {:?}", other),
        }
    }
    /// Element-wise reduction delivered to every group member.
    fn allreduce_f64_in(&mut self, group: &Group, xs: &[f64], op: ReduceOp) -> Vec<f64> {
        let input = CollInput::F64(xs.to_vec());
        match self.collective_in(group, CollOp::Allreduce { op }, input) {
            CollOutput::F64(v) => v,
            other => panic!("allreduce returned {:?}", other),
        }
    }
    /// Every member contributes a block; every member receives all blocks
    /// ordered by group position.
    fn allgather_in(&mut self, group: &Group, len: usize) -> Vec<usize> {
        match self.collective_in(group, CollOp::Allgather, CollInput::Block(len)) {
            CollOutput::Blocks(bs) => bs,
            other => panic!("allgather returned {:?}", other),
        }
    }
    /// Personalized all-to-all: `blocks[i]` goes to group member `i`;
    /// returns the blocks addressed to this rank, ordered by group position.
    fn alltoall_in(&mut self, group: &Group, blocks: Vec<usize>) -> Vec<usize> {
        match self.collective_in(group, CollOp::Alltoall, CollInput::Blocks(blocks)) {
            CollOutput::Blocks(bs) => bs,
            other => panic!("alltoall returned {:?}", other),
        }
    }
    /// Gather every member's block to `root`.
    fn gather_in(&mut self, group: &Group, root: u32, len: usize) -> Option<Vec<usize>> {
        match self.collective_in(group, CollOp::Gather { root }, CollInput::Block(len)) {
            CollOutput::Blocks(bs) => Some(bs),
            CollOutput::None => None,
            other => panic!("gather returned {:?}", other),
        }
    }
    /// Scatter `root`'s blocks to members; returns this rank's block.
    fn scatter_in(&mut self, group: &Group, root: u32, blocks: Option<Vec<usize>>) -> usize {
        let input = if self.rank() == root {
            CollInput::Blocks(blocks.expect("scatter root must supply the blocks"))
        } else {
            CollInput::None
        };
        match self.collective_in(group, CollOp::Scatter { root }, input) {
            CollOutput::Block(b) => b,
            other => panic!("scatter returned {:?}", other),
        }
    }

    /// Communication-event counters for this rank (used by the signature
    /// machinery to locate phase start/endpoints).
    fn counters(&self) -> Counters;

    // ---- Convenience wrappers over the world group ----

    /// Barrier over the world group.
    fn barrier(&mut self) {
        let g = Group::world(self.size());
        self.barrier_in(&g);
    }
    /// World-group broadcast.
    fn bcast(&mut self, root: u32, len: Option<usize>) -> usize {
        let g = Group::world(self.size());
        self.bcast_in(&g, root, len)
    }
    /// World-group reduce.
    fn reduce_f64(&mut self, root: u32, xs: &[f64], op: ReduceOp) -> Option<Vec<f64>> {
        let g = Group::world(self.size());
        self.reduce_f64_in(&g, root, xs, op)
    }
    /// World-group allreduce.
    fn allreduce_f64(&mut self, xs: &[f64], op: ReduceOp) -> Vec<f64> {
        let g = Group::world(self.size());
        self.allreduce_f64_in(&g, xs, op)
    }
    /// World-group allgather.
    fn allgather(&mut self, len: usize) -> Vec<usize> {
        let g = Group::world(self.size());
        self.allgather_in(&g, len)
    }
    /// World-group all-to-all.
    fn alltoall(&mut self, blocks: Vec<usize>) -> Vec<usize> {
        let g = Group::world(self.size());
        self.alltoall_in(&g, blocks)
    }
    /// World-group gather.
    fn gather(&mut self, root: u32, len: usize) -> Option<Vec<usize>> {
        let g = Group::world(self.size());
        self.gather_in(&g, root, len)
    }
    /// World-group scatter.
    fn scatter(&mut self, root: u32, blocks: Option<Vec<usize>>) -> usize {
        let g = Group::world(self.size());
        self.scatter_in(&g, root, blocks)
    }
}
