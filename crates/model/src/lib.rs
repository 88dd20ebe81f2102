//! The parallel application model (paper §3.2).
//!
//! Physical per-process traces carry local clocks; to reason about the
//! application as a whole PAS2P moves to a single logical global clock.
//! Plain Lamport ordering leaves receive events nondeterministic — message
//! receptions reorder run to run with network delays, which degraded the
//! prediction quality as process counts grew. The PAS2P ordering fixes
//! this: **when a process sends a message at logical time `LT`, its
//! reception is modeled to arrive at `LT + 1` and never afterwards**
//! (Fig 3). Collective communications take the largest participant `LT`
//! and assign `LT + 1` to every member's event.
//!
//! The pipeline is:
//!
//! 1. [`ordering::pas2p_order`] — the queue-based assignment algorithm
//!    (the paper's Table 1 walkthrough; [`ordering::pas2p_order_logged`]
//!    also returns the dequeue log so the walkthrough can be reproduced).
//! 2. Receive permutation — within each process the multiset of receive
//!    LTs is reassigned in ascending program order (Fig 4 → Fig 5).
//! 3. Tick splitting — ticks holding more than one event of the same
//!    process are split so each (process, tick) holds at most one event
//!    (Fig 5), yielding the final [`LogicalTrace`].
//!
//! A plain Lamport baseline ([`lamport::lamport_order`]) is provided for
//! the ablation study motivating the PAS2P ordering.

#![forbid(unsafe_code)]

pub mod lamport;
pub mod logical;
pub mod ordering;

pub use lamport::lamport_order;
pub use logical::{LogicalEvent, LogicalTrace, Tick};
pub use ordering::{pas2p_order, pas2p_order_logged, try_pas2p_order, ModelError};
