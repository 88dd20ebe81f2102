//! Observability for the PAS2P reproduction.
//!
//! PAS2P is itself a measurement tool: the paper's Table 8 (tracefile
//! size, analysis time, phase counts) and Table 9 (instrumentation
//! overhead) *observe the observer*. Every pipeline layer feeds this
//! crate's one process-wide instrumentation path:
//!
//! * **[`logger`](mod@logger)** — a leveled, structured logger (no
//!   spans; those are [`events`]): lines on stderr, JSON lines
//!   optionally to a file (`PAS2P_LOG` / `PAS2P_LOG_FILE`, or
//!   `pas2p-cli --log-level/--log-file`).
//! * **[`metrics`]** — named static instruments: atomic [`Counter`]s,
//!   [`Gauge`]s and log₂-bucketed [`Histogram`]s (min/max/mean/p50/p95/p99).
//! * **[`registry`]** — the global [`Registry`]: the instruments
//!   recorded so far, stage profiles ([`StageGuard`]) and the
//!   serializable [`MetricsSnapshot`] embedded into
//!   `Analysis`/`Prediction` JSON and written by `pas2p-cli --metrics`.
//! * **[`events`]** — timeline tracing: span/instant/flow events
//!   recorded straight into one process-wide sink (gated separately via
//!   [`set_tracing`] / `PAS2P_TRACE=1`), feeding…
//! * **[`export`]** — …the Chrome Trace Event / Perfetto-compatible
//!   [`ChromeTrace`] JSON behind `pas2p-cli timeline` and `--trace-out`.
//! * **[`cancel`]** — cooperative cancellation: a [`cancel::CancelToken`]
//!   is a deadline asked at checkpoints by the work itself (entering a
//!   stage is one); the gaps between checks are histograms named after
//!   the stage.
//! * **[`farm`]** — every fan-out of the workspace: an ordered map over
//!   scoped workers, and one closure run beside the calling thread, with
//!   their worker lanes and panic re-raise.
//!
//! # Cost model
//!
//! Observation never perturbs the simulation (no hook touches a virtual
//! clock), and off it is a near-no-op on the hot loop. A metric is a
//! named `static` of the module whose work it counts, recorded with one
//! call and no gate at the call site: the instrument asks [`enabled`]
//! itself (one relaxed load) and registers on its first record with
//! collection on, so a run with collection off leaves the registry
//! empty. Collection is **off by default** ([`set_enabled`],
//! `PAS2P_OBS=1`); the benchmark ledger's `obs.enabled_overhead_pct` is
//! what switching it on costs. Tracing and logging gate the same way:
//! off, an event or a dropped [`log`] record formats nothing.
//!
//! ```
//! static EVENTS: pas2p_obs::Counter = pas2p_obs::Counter::new("demo.events");
//! pas2p_obs::set_enabled(true);
//! EVENTS.add(3);
//! let mut stage = pas2p_obs::stage("demo_stage");
//! stage.items(3);
//! assert!(stage.finish() >= 0.0);
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
    enabled, global, set_enabled, stage, MetricsSnapshot, Registry, StageGuard, StageProfile,
};
