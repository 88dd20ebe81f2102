//! PAS2P — Parallel Application Signatures for Performance Prediction.
//!
//! A Rust reproduction of the PAS2P methodology (Wong, Rexachs, Luque):
//! characterize a message-passing application by tracing its
//! communication, build a machine-independent logical model, extract the
//! repetitive *phases* and their *weights*, checkpoint the application at
//! the relevant phases into a *signature*, and predict the application's
//! execution time on other machines by executing just the signature:
//!
//! ```text
//! PET = Σᵢ PhaseETᵢ · Wᵢ
//! ```
//!
//! # Quickstart
//!
//! ```
//! use pas2p::{Pas2p, prelude::*};
//! use pas2p_apps::MoldyApp;
//!
//! // The application under study and the machines involved.
//! let app = MoldyApp { nprocs: 8, steps: 30, rebuild_every: 10, atoms_per_proc: 256 };
//! let base = cluster_a();
//! let target = cluster_b();
//!
//! let pas2p = Pas2p::default();
//! // Stage A: analyze on the base machine and build the signature.
//! let analysis = pas2p.analyze(&app, &base, MappingPolicy::Block);
//! let (signature, _stats) = pas2p.build_signature(&app, &analysis, &base, MappingPolicy::Block);
//! // Stage B: execute the signature on the target machine.
//! let report = pas2p.validate(&app, &signature, &target, MappingPolicy::Block).unwrap();
//! assert!(report.pete_or_inf() < 15.0, "PETE {}%", report.pete_or_inf());
//! ```

#![forbid(unsafe_code)]

mod admission;
pub mod baselines;
pub mod batch;
pub mod cancel;
pub mod experiment;
pub mod pipeline;
mod protocol;
mod replies;
pub mod server;
pub mod service;
pub mod timeline;
pub mod workload;

pub use admission::ServeStats;
pub use batch::{run_batch_with, BatchJob, BatchOptions, BatchReport, BatchResult, BatchStatus};
pub use cancel::{with_cancel, CancelToken};
pub use pipeline::{Analysis, AnalysisError, Pas2p};
pub use protocol::{PredictOutcome, Request, Response, SubmitOutcome};
#[cfg(unix)]
pub use server::{serve_unix_with, ServeOptions};
pub use service::{canonicalize_prediction, AppResolver, PredictionService};
pub use timeline::{compose_timeline, validate_chrome_json, TimelineStats};

/// Convenient re-exports of the whole PAS2P stack.
pub mod prelude {
    pub use pas2p_check::{Artifacts, CheckEngine, CheckReport, Diagnostic, Severity};
    pub use pas2p_faults::{fault_matrix, FaultKind, FaultPlan};
    pub use pas2p_machine::{
        cluster_a, cluster_b, cluster_c, cluster_d, preset_by_name, IsaKind, MachineModel, Mapping,
        MappingPolicy, Work,
    };
    pub use pas2p_model::{lamport_order, pas2p_order, try_pas2p_order, LogicalTrace, ModelError};
    pub use pas2p_mpisim::{run_app, Group, Mpi, RankCtx, ReduceOp, SimConfig};
    pub use pas2p_phases::{
        extract_phases, PhaseAnalysis, PhaseTable, SimilarityConfig, SimilarityKernel,
    };
    pub use pas2p_signature::{
        construct_signature, execute_signature, predict, rebuild_signature, run_plain, run_traced,
        MpiApp, Prediction, RankProgram, Signature, SignatureConfig, ValidationReport,
    };
    pub use pas2p_trace::{
        decode_recovering, Confidence, IngestReport, InstrumentationModel, Trace, TraceCollector,
        Traced,
    };
}
