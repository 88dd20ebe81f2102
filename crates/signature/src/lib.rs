//! The parallel application signature (paper §3.4) and the prediction
//! methodology (§4).
//!
//! A signature is "the real code of the application" cut down to its
//! relevant phases: the paper re-runs the instrumented application with
//! the phase table loaded, takes a DMTCP coordinated checkpoint just
//! before each relevant phase's startpoint (early enough that the machine
//! warms up before measurement), and stops after the last checkpoint. To
//! *predict*, the signature restarts each checkpoint on the target
//! machine, measures the phase execution time between its startpoint and
//! endpoint events, terminates, and applies
//!
//! ```text
//! PET = Σᵢ PhaseETᵢ · Wᵢ          (Equation 1)
//! ```
//!
//! Our DMTCP substitute is the [`RankProgram`] contract: applications
//! expose coordinated snapshot/restore of their rank-local state at step
//! boundaries (which must be communication-quiescent, the standard
//! coordinated-checkpoint assumption). The construction driver re-runs the
//! application, keeps — for every phase-table row — the snapshot of the
//! **last** step boundary not beyond the row's checkpoint coordinates, and
//! terminates when every row is finalized. Execution restarts those
//! snapshots on the target machine model and watches per-rank
//! communication counters to timestamp the startpoint/endpoint crossings
//! (the phase table addresses phases by event counts, Fig 7).

#![forbid(unsafe_code)]

pub mod app;
pub mod checkpoint;
pub mod construct;
pub mod execute;
pub mod predict;

pub use app::{run_plain, run_traced, MpiApp, RankProgram};
pub use checkpoint::{CheckpointData, RankState};
pub use construct::{
    construct_signature, ConstructionStats, Signature, SignatureConfig, SignatureEntry,
};
pub use execute::{execute_signature, rebuild_signature, ExecError};
pub use predict::{PhaseMeasurement, Prediction, ValidationReport};
