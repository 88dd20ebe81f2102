//! Observability for the PAS2P reproduction.
//!
//! PAS2P is itself a measurement tool: the paper's Table 8 (tracefile
//! size, analysis time, phase counts) and Table 9 (instrumentation
//! overhead) *observe the observer*. This crate is the first-class home
//! for that self-observation — every pipeline layer feeds one shared,
//! process-wide instrumentation path instead of ad-hoc `Instant` math:
//!
//! * **[`logger`](mod@logger)** — a leveled, structured logger.
//!   Human-readable lines go to stderr; JSON lines optionally to a file.
//!   Configured via the `PAS2P_LOG` / `PAS2P_LOG_FILE` environment
//!   variables or programmatically (`pas2p-cli --log-level/--log-file`).
//! * **[`metrics`]** — a thread-safe registry of atomic [`Counter`]s,
//!   [`Gauge`]s and streaming log₂-bucketed [`Histogram`]s
//!   (min/max/mean/p50/p95/p99), fed by the simulator runtime, the trace
//!   recorder, the model builder, phase extraction and the signature
//!   machinery.
//! * **[`registry`]** — the global [`Registry`] tying it together: stage
//!   profiles ([`StageGuard`] wall-clock + events/sec per pipeline stage)
//!   and the serializable [`MetricsSnapshot`] embedded into
//!   `Analysis`/`Prediction` JSON and written by `pas2p-cli --metrics`.
//! * **[`events`]** — timeline tracing: timestamped span/instant/flow
//!   events recorded straight into one process-wide sink (gated
//!   separately via [`set_tracing`] / `PAS2P_TRACE=1`), feeding…
//! * **[`export`]** — …the Chrome Trace Event / Perfetto-compatible
//!   [`ChromeTrace`] JSON exporter behind `pas2p-cli timeline` and the
//!   `--trace-out` flags.
//! * **[`cancel`]** — cooperative cancellation: a [`cancel::CancelToken`] is a
//!   deadline, installed per thread and asked at checkpoints by the
//!   work itself — entering a stage is one — and the gap between
//!   consecutive checks is a histogram named after the stage.
//! * **[`farm`]** — every fan-out of the workspace: an ordered map over
//!   scoped workers, and one closure run beside the calling thread; the
//!   farm is also where worker lanes, panic re-raise and "one worker
//!   per core" live.
//!
//! # Cost model
//!
//! Observation must never perturb the simulation (virtual clocks are
//! untouched by every hook), and the *disabled* path must be a near-no-op
//! on the hot simulation loop. The contract at every hot call site is:
//!
//! ```ignore
//! if pas2p_obs::enabled() {            // one relaxed atomic load
//!     HIST.get_or_init(|| pas2p_obs::histogram("mpisim.msg_bytes"))
//!         .record(len);                // lock-free atomics when enabled
//! }
//! ```
//!
//! Metric collection is **disabled by default**; enable it with
//! [`set_enabled`] or `PAS2P_OBS=1`. The benchmark ledger's
//! `obs.enabled_overhead_pct` measures what switching metrics on costs.
//! Event tracing has its gate inside [`events`]: off, a recording call
//! formats nothing and allocates nothing.
//!
//! # Example
//!
//! ```
//! pas2p_obs::set_enabled(true);
//! pas2p_obs::counter("demo.events").add(3);
//! let mut stage = pas2p_obs::stage("demo_stage");
//! stage.items(3);
//! let secs = stage.finish();
//! assert!(secs >= 0.0);
//! let snap = pas2p_obs::global().snapshot();
//! assert_eq!(snap.counters["demo.events"], 3);
//! pas2p_obs::set_enabled(false);
//! ```

#![forbid(unsafe_code)]

pub mod cancel;
pub mod events;
pub mod export;
pub mod farm;
pub mod logger;
pub mod metrics;
pub mod registry;

pub use events::{flow_end, flow_start, instant, set_tracing, trace_span, EventSpan};
pub use export::{ChromeEvent, ChromeTrace, CAT_HOST_WORKER, PID_APP, PID_HOST};
pub use logger::{log, logger, Level, Logger};
pub use metrics::{Counter, Gauge, Histogram, HistogramSummary};
pub use registry::{
    counter, enabled, gauge, global, histogram, set_enabled, stage, MetricsSnapshot, Registry,
    StageGuard, StageProfile,
};
