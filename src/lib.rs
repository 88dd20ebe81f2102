//! Workspace root of the PAS2P reproduction.
//!
//! This crate hosts the runnable examples (`examples/`) and the
//! cross-crate integration tests (`tests/`); the library surface simply
//! re-exports the stack. See the `pas2p` crate for the pipeline API and
//! `DESIGN.md` for the system inventory.

#![forbid(unsafe_code)]

pub use pas2p;
pub use pas2p_apps as apps;
pub use pas2p_machine as machine;
pub use pas2p_model as model;
pub use pas2p_mpisim as mpisim;
pub use pas2p_obs as obs;
pub use pas2p_phases as phases;
pub use pas2p_signature as signature;
pub use pas2p_trace as trace;
