//! Data collection (paper §3.1).
//!
//! The paper instruments applications with `libpas2p`, a dynamic library
//! injected via `LD_PRELOAD` that intercepts every MPI call before the MPI
//! library executes it, producing a per-process trace of communication
//! events. This crate is that layer for the simulated runtime: a
//! [`Traced`] wrapper implements the same [`Mpi`](pas2p_mpisim::Mpi) trait
//! as the raw rank context and records a [`TraceEvent`] for every
//! communication call — applications, being generic over `Mpi`, cannot
//! tell the difference, which is exactly the transparency property
//! interposition gives.
//!
//! Each recorded event carries the fields of the paper's event structure:
//! id (per-process event number; global ids are assigned when the model
//! merges processes), physical time, process, type (±K with K involved
//! processes), communication volume, and the *relation* (message id)
//! linking a Send to its Receive. Logical times are assigned later by
//! `pas2p-model`.
//!
//! Instrumentation is not free: the paper's Table 9 reports AET_PAS2P >
//! AET. The [`InstrumentationModel`] charges a configurable per-event
//! overhead to the rank's virtual clock so the reproduction exhibits the
//! same effect.

#![forbid(unsafe_code)]

pub mod event;
pub mod format;
pub mod ingest;
pub mod matchset;
pub mod recorder;
mod replay;

pub use event::{EventKind, ProcessTrace, Trace, TraceEvent};
pub use format::EVENT_RECORD_BYTES;
pub use ingest::{
    decode_recovering, repair_collectives, Confidence, IngestReport, RankHealth, RankIngest,
};
pub use matchset::{
    match_sets, CandidateSend, ChannelStat, CommittedRecv, MatchSets, WildcardMatch,
};
pub use recorder::{InstrumentationModel, TraceBuildError, TraceCollector, Traced};
pub use replay::replay;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_api_reexports_exist() {
        let _ = InstrumentationModel::default();
        let _ = EVENT_RECORD_BYTES;
    }
}
