//! The long-running prediction service: PAS2P's characterize-once /
//! query-many split as a process.
//!
//! The paper separates signature *construction* (expensive: trace,
//! order, extract, checkpoint — Stage A) from signature *execution*
//! (cheap: run the relevant phases on a target — Stage B). The service
//! makes that split operational: every submitted trace is analyzed at
//! most once per (trace, base machine, config) thanks to the
//! content-addressed [`SignatureStore`], and predictions for any
//! (app, target machine) pair are canonical JSON artifacts served
//! byte-identically from cache on repeat queries.
//!
//! # Protocol
//!
//! Newline-delimited JSON over stdin/stdout or a unix socket; one
//! request per line, one response line per request:
//!
//! ```text
//! {"op":"submit","app":"cg","nprocs":8,"base":"A"}
//! {"op":"predict","app":"cg","nprocs":8,"base":"A","target":"B"}
//! {"op":"batch","apps":["cg","lu"],"base":"A","targets":["B","C"],"workers":2}
//! {"op":"ping"}
//! {"op":"health"}
//! {"op":"stats"}
//! {"op":"shutdown"}
//! ```
//!
//! Responses carry `ok`, the echoed `op`, and either `result` or
//! `error` plus a machine-readable `code` (`invalid`, `busy`,
//! `timeout`, `panic`, `error`) — every failure is classified, never
//! silent. The batch endpoint fans missing analyses out through the
//! hardened [`run_batch_with`] driver (panic isolation, deadlines,
//! retries), then serves every (app, target) prediction through the
//! same cache path as single requests.
//!
//! # Hardening
//!
//! The service is safe to share across server workers: all methods
//! take `&self`, the store sits behind a mutex that is held only for
//! lookups and publishes (never during Stage-A/Stage-B compute), and a
//! single-flight set collapses concurrent Stage-A work for the same
//! signature into one computation. `submit`/`predict` honor an
//! optional per-request deadline through the same
//! [`crate::cancel::run_abandonable`] machinery batch jobs use —
//! an expired request answers `code:"timeout"` while the abandoned
//! runner unwinds at its next stage boundary. `ping` answers without
//! touching any lock; `health` reports queue/in-flight/shed state from
//! atomics so it stays responsive even while every worker is wedged on
//! a slow disk. The concurrent unix-socket front end lives in
//! [`crate::server`].
//!
//! Observability: a `serve.requests` counter, per-request stage
//! profiles (`serve.submit` / `serve.predict` / `serve.batch` /
//! `serve.stats`), `serve.shed` / `serve.timeout` counters with
//! `serve.inflight` / `serve.queue` gauges from the server front end,
//! and the store's `store.hit` / `store.miss` / `store.evict` counters.

use crate::batch::{panic_message, run_batch_with, BatchJob, BatchOptions};
use crate::pipeline::{Analysis, Pas2p};
use parking_lot::{Condvar, Mutex};
use pas2p_machine::{preset_by_name, MachineModel, MappingPolicy};
use pas2p_signature::{run_traced, MpiApp, Prediction};
use pas2p_store::{
    config_fingerprint, prediction_key, signature_alias, signature_key, ArtifactKind, IndexEntry,
    Sidecar, SignatureStore, StoreKey, StoreReport, StoredSignature, STORE_FORMAT_VERSION,
};
use serde::Serialize;
use serde_json::json;
use std::collections::HashSet;
use std::io::{BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Resolves an application name + process count to a runnable app. The
/// catalog lives in `pas2p-apps`, which sits above this crate in the
/// dependency graph, so the caller injects the lookup (the CLI passes
/// `pas2p_apps::by_name`). `Sync` because server workers resolve
/// concurrently through a shared service.
pub type AppResolver = Box<dyn Fn(&str, u32) -> Option<Box<dyn MpiApp>> + Send + Sync>;

/// One service request, as decoded from a protocol line.
#[derive(Debug)]
pub enum Request {
    /// Analyze an app on a base machine and store its signature.
    Submit {
        /// Catalog application name.
        app: String,
        /// Process count (default 8).
        nprocs: u32,
        /// Base machine preset (default "A").
        base: String,
    },
    /// Predict an app's execution time on a target machine, serving
    /// from the store whenever possible.
    Predict {
        /// Catalog application name.
        app: String,
        /// Process count (default 8).
        nprocs: u32,
        /// Base machine preset (default "A").
        base: String,
        /// Target machine preset.
        target: String,
    },
    /// Analyze many apps (via the hardened batch driver) and predict
    /// each on every target.
    Batch {
        /// Catalog application names.
        apps: Vec<String>,
        /// Process count (default 8).
        nprocs: u32,
        /// Base machine preset (default "A").
        base: String,
        /// Target machine presets to predict on (may be empty:
        /// analyze/persist only).
        targets: Vec<String>,
        /// Batch worker threads.
        workers: Option<usize>,
        /// Per-job deadline in milliseconds.
        deadline_ms: Option<u64>,
        /// Retries per failing job.
        retries: Option<u32>,
    },
    /// Liveness probe: answers immediately, touching no lock.
    Ping,
    /// Serving-state probe: queue, in-flight, shed/timeout counters and
    /// store entry count, all read from atomics (lock-free, so health
    /// stays answerable while workers are wedged).
    Health,
    /// Service and store statistics.
    Stats,
    /// Stop the serve loop after responding.
    Shutdown,
}

impl Request {
    /// The protocol name of this request's operation, echoed as the
    /// response's `op`.
    pub fn op(&self) -> &'static str {
        match self {
            Request::Submit { .. } => "submit",
            Request::Predict { .. } => "predict",
            Request::Batch { .. } => "batch",
            Request::Ping => "ping",
            Request::Health => "health",
            Request::Stats => "stats",
            Request::Shutdown => "shutdown",
        }
    }

    /// Decode one NDJSON protocol line. The wire format is spelled out
    /// explicitly — it is a public contract, and the parser doubles as
    /// its documentation: `op` selects the variant, `nprocs` defaults
    /// to 8, `base` to `"A"`.
    pub fn from_line(line: &str) -> Result<Request, String> {
        let v: serde_json::Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
        let op = v
            .get("op")
            .and_then(serde_json::Value::as_str)
            .ok_or_else(|| "missing string field \"op\"".to_string())?;
        let string_field = |name: &str| -> Result<String, String> {
            v.get(name)
                .and_then(serde_json::Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("\"{op}\" requires a string field \"{name}\""))
        };
        let string_list = |name: &str| -> Result<Vec<String>, String> {
            let bad = || format!("\"{name}\" must be an array of strings");
            match v.get(name) {
                None => Ok(Vec::new()),
                Some(items) => items
                    .as_array()
                    .ok_or_else(bad)?
                    .iter()
                    .map(|item| item.as_str().map(str::to_string).ok_or_else(bad))
                    .collect(),
            }
        };
        let uint_field = |name: &str| -> Result<Option<u64>, String> {
            match v.get(name) {
                None => Ok(None),
                Some(n) => n
                    .as_u64()
                    .map(Some)
                    .ok_or_else(|| format!("\"{name}\" must be a non-negative integer")),
            }
        };
        let nprocs = match uint_field("nprocs")? {
            None => 8,
            Some(n) if n >= 1 && n <= u64::from(u32::MAX) => n as u32,
            Some(_) => return Err("\"nprocs\" must be a positive integer".to_string()),
        };
        let base = match v.get("base") {
            None => "A".to_string(),
            Some(_) => string_field("base")?,
        };
        match op {
            "submit" => Ok(Request::Submit {
                app: string_field("app")?,
                nprocs,
                base,
            }),
            "predict" => Ok(Request::Predict {
                app: string_field("app")?,
                nprocs,
                base,
                target: string_field("target")?,
            }),
            "batch" => {
                let apps = string_list("apps")?;
                if apps.is_empty() {
                    return Err("\"batch\" requires a non-empty \"apps\" array".to_string());
                }
                Ok(Request::Batch {
                    apps,
                    nprocs,
                    base,
                    targets: string_list("targets")?,
                    workers: uint_field("workers")?.map(|n| n as usize),
                    deadline_ms: uint_field("deadline_ms")?,
                    retries: uint_field("retries")?.map(|n| n.min(u64::from(u32::MAX)) as u32),
                })
            }
            "ping" => Ok(Request::Ping),
            "health" => Ok(Request::Health),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown op '{other}'")),
        }
    }
}

/// One protocol response line.
#[derive(Debug)]
pub struct Response {
    /// Whether the request succeeded.
    pub ok: bool,
    /// The request's operation (or `"invalid"`).
    pub op: &'static str,
    /// Machine-readable failure class when `ok` is false: `invalid`
    /// (malformed request), `busy` (load shed), `timeout` (deadline
    /// expired), `panic` (isolated worker panic) or `error` (everything
    /// else). Clients dispatch on this; `error` is for humans.
    pub code: Option<&'static str>,
    /// Failure description when `ok` is false.
    pub error: Option<String>,
    /// Operation result when `ok` is true.
    pub result: Option<serde_json::Value>,
}

impl Response {
    fn success(op: &'static str, result: serde_json::Value) -> Response {
        Response {
            ok: true,
            op,
            code: None,
            error: None,
            result: Some(result),
        }
    }

    fn failure(op: &'static str, error: String) -> Response {
        Response::failure_code(op, "error", error)
    }

    pub(crate) fn failure_code(op: &'static str, code: &'static str, error: String) -> Response {
        Response {
            ok: false,
            op,
            code: Some(code),
            error: Some(error),
            result: None,
        }
    }

    /// The response as a JSON value; `code`/`error`/`result` are
    /// omitted when absent, not emitted as `null`.
    pub fn to_value(&self) -> serde_json::Value {
        let mut v = json!({
            "ok": self.ok,
            "op": self.op,
        });
        if let Some(code) = self.code {
            v["code"] = json!(code);
        }
        if let Some(error) = &self.error {
            v["error"] = json!(error.as_str());
        }
        if let Some(result) = &self.result {
            v["result"] = result.clone();
        }
        v
    }

    /// The response as one NDJSON line (no trailing newline).
    pub fn render(&self) -> String {
        serde_json::to_string(&self.to_value())
            .unwrap_or_else(|e| format!(r#"{{"ok":false,"op":"invalid","error":"encode: {e}"}}"#))
    }
}

/// What a submit produced (or found).
#[derive(Debug, Clone, Serialize)]
pub struct SubmitOutcome {
    /// The signature's content address.
    pub digest: String,
    /// True when the signature was already in the store.
    pub cached: bool,
    /// Resolved application name.
    pub app: String,
    /// Total phases in the analysis.
    pub phases: usize,
    /// Relevant phases in the signature.
    pub relevant: usize,
    /// Analysis confidence flag.
    pub confidence: String,
}

/// What a predict produced (or found).
#[derive(Debug, Clone)]
pub struct PredictOutcome {
    /// Resolved application name.
    pub app: String,
    /// Target machine name.
    pub target: String,
    /// The canonical prediction JSON — byte-identical between a cold
    /// compute and every later cache hit.
    pub prediction_json: String,
    /// True when the prediction itself came from the store.
    pub cached: bool,
    /// True when the signature was served from the store (no Stage-A
    /// work ran for this request).
    pub signature_cached: bool,
}

/// Strip host-volatile fields so the serialized prediction is a stable
/// artifact: wall-clock and the metrics snapshot vary run to run and
/// would break the byte-identical cache-hit contract.
pub fn canonicalize_prediction(prediction: &mut Prediction) {
    prediction.wall_seconds = 0.0;
    prediction.metrics = None;
}

/// Live serving counters, all atomic: `health` reads them without
/// taking any lock, so it stays answerable while every worker is wedged
/// behind a slow store. The server front end maintains the queue,
/// connection and capacity fields; the request path maintains the rest.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Requests decoded (including invalid ones).
    pub(crate) requests: AtomicU64,
    /// Requests refused with `code:"busy"` because the queue was full.
    pub(crate) shed: AtomicU64,
    /// Requests refused with `code:"timeout"` past their deadline.
    pub(crate) timeouts: AtomicU64,
    /// Requests currently executing on a worker.
    pub(crate) inflight: AtomicU64,
    /// Requests queued, waiting for a worker.
    pub(crate) queue_depth: AtomicU64,
    /// Connections currently open.
    pub(crate) connections: AtomicU64,
    /// Store entries (mirrored after every publish so health never
    /// takes the store lock).
    pub(crate) entries: AtomicU64,
    /// Whether new connections/requests are being accepted.
    pub(crate) accepting: AtomicBool,
    /// Worker threads serving the queue (0 for the inline stdin loop).
    pub(crate) workers: AtomicU64,
    /// Bound of the in-flight request queue (0 for the stdin loop).
    pub(crate) queue_capacity: AtomicU64,
}

impl ServeStats {
    /// Requests shed with `code:"busy"` so far.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::SeqCst)
    }

    /// Requests expired with `code:"timeout"` so far.
    pub fn timeouts(&self) -> u64 {
        self.timeouts.load(Ordering::SeqCst)
    }
}

/// The shared interior of a [`PredictionService`]: everything server
/// workers touch concurrently. The store mutex is held for lookups and
/// publishes only — Stage-A analysis and Stage-B execution run outside
/// it — and `pending` + its condvar collapse concurrent Stage-A work on
/// the same signature into a single computation (the paper's
/// characterize-*once* promise, kept under concurrency).
pub(crate) struct ServiceCore {
    pas2p: Pas2p,
    pub(crate) store: Mutex<SignatureStore>,
    resolve: AppResolver,
    policy: MappingPolicy,
    pub(crate) deadline: Option<Duration>,
    pub(crate) stats: ServeStats,
    pending: Mutex<HashSet<String>>,
    pending_cv: Condvar,
}

/// Removes its alias from the single-flight set on drop — including the
/// unwind of a deadline-cancelled run — so waiters never starve behind
/// a computation that is no longer happening.
struct PendingGuard<'a> {
    core: &'a ServiceCore,
    alias: String,
}

impl Drop for PendingGuard<'_> {
    fn drop(&mut self) {
        let mut pending = self.core.pending.lock();
        pending.remove(&self.alias);
        self.core.pending_cv.notify_all();
    }
}

/// What [`ServiceCore::resolve`] makes of a request's names.
struct Resolved {
    app: Box<dyn MpiApp>,
    base: MachineModel,
    fingerprint: String,
    /// The signature's store alias ([`signature_alias`]).
    alias: String,
}

/// The prediction service: a [`Pas2p`] pipeline in front of a
/// [`SignatureStore`]. Cheap to clone; clones share the same store,
/// stats and single-flight state, which is how the concurrent server
/// hands one service to many workers.
pub struct PredictionService {
    core: Arc<ServiceCore>,
}

impl Clone for PredictionService {
    fn clone(&self) -> PredictionService {
        PredictionService {
            core: Arc::clone(&self.core),
        }
    }
}

impl PredictionService {
    /// A service over `store`, resolving app names through `resolve`.
    pub fn new(pas2p: Pas2p, store: SignatureStore, resolve: AppResolver) -> PredictionService {
        let stats = ServeStats::default();
        stats.entries.store(store.len() as u64, Ordering::SeqCst);
        stats.accepting.store(true, Ordering::SeqCst);
        PredictionService {
            core: Arc::new(ServiceCore {
                pas2p,
                store: Mutex::new(store),
                resolve,
                policy: MappingPolicy::Block,
                deadline: None,
                stats,
                pending: Mutex::new(HashSet::new()),
                pending_cv: Condvar::new(),
            }),
        }
    }

    /// Set the per-request deadline for `submit`/`predict` (builder
    /// style; `None` disables). Must be called before the service is
    /// shared with a server.
    pub fn with_deadline(mut self, deadline: Option<Duration>) -> PredictionService {
        Arc::get_mut(&mut self.core)
            .expect("deadline is configured before the service is shared")
            .deadline = deadline;
        self
    }

    /// The service's configuration fingerprint (see
    /// [`config_fingerprint`]).
    pub fn fingerprint(&self) -> String {
        self.core.fingerprint()
    }

    /// Snapshot of the store's open-time repair report.
    pub fn store_report(&self) -> StoreReport {
        self.core.store.lock().report().clone()
    }

    /// The store report as `STORE-*` diagnostics.
    pub fn store_diagnostics(&self) -> Vec<pas2p_check::Diagnostic> {
        self.core.store.lock().diagnostics()
    }

    /// Entries currently in the store.
    pub fn store_len(&self) -> usize {
        self.core.store.lock().len()
    }

    /// The shared interior, for the server front end.
    pub(crate) fn core(&self) -> &Arc<ServiceCore> {
        &self.core
    }
}

impl ServiceCore {
    pub(crate) fn fingerprint(&self) -> String {
        config_fingerprint(
            &self.pas2p.similarity,
            &self.pas2p.signature,
            self.pas2p.instrumentation.per_event_seconds,
        )
    }

    fn policy_label(&self) -> String {
        serde_json::to_string(&self.policy).expect("policies serialize")
    }

    fn resolve_app(&self, name: &str, nprocs: u32) -> Result<Box<dyn MpiApp>, String> {
        (self.resolve)(name, nprocs)
            .ok_or_else(|| format!("unknown application '{name}' (nprocs {nprocs})"))
    }

    fn resolve_machine(name: &str) -> Result<MachineModel, String> {
        preset_by_name(name).ok_or_else(|| format!("unknown machine preset '{name}'"))
    }

    /// The store alias of `app`'s signature on `base` under the
    /// configuration `fingerprint`.
    fn alias_of(app: &dyn MpiApp, base: &MachineModel, fingerprint: &str) -> String {
        signature_alias(
            &app.name(),
            &app.workload(),
            app.nprocs(),
            &base.name,
            fingerprint,
        )
    }

    /// Resolve a request's application and base machine and derive the
    /// store alias of their signature under this service's
    /// configuration.
    fn resolve(&self, app_name: &str, nprocs: u32, base_name: &str) -> Result<Resolved, String> {
        let app = self.resolve_app(app_name, nprocs)?;
        let base = Self::resolve_machine(base_name)?;
        let fingerprint = self.fingerprint();
        let alias = Self::alias_of(app.as_ref(), &base, &fingerprint);
        Ok(Resolved {
            app,
            base,
            fingerprint,
            alias,
        })
    }

    /// Mirror the store's entry count into the lock-free stats while
    /// already holding the store lock.
    fn sync_entries(&self, store: &SignatureStore) {
        self.stats
            .entries
            .store(store.len() as u64, Ordering::SeqCst);
    }

    /// Analyze `app` on `base`, construct the signature, and persist
    /// both under the trace's content address. Returns the key and the
    /// stored payload. Runs without the store lock; only the final
    /// publish takes it.
    fn compute_and_store(
        &self,
        app: &dyn MpiApp,
        base: &MachineModel,
        fingerprint: &str,
    ) -> Result<(StoreKey, StoredSignature), String> {
        let (analysis, trace, _logical) = self.pas2p.analyze_full(app, base, self.policy.clone());
        let trace_bytes = pas2p_trace::format::encode(&trace);
        let key = signature_key(&trace_bytes, base, fingerprint);
        drop(trace);
        self.persist(app, analysis, base, key)
    }

    /// Persist an already-produced analysis (the batch path): re-run
    /// the deterministic trace collection for the content address, then
    /// construct and store. The expensive part — phase extraction —
    /// already happened inside the batch driver and is not repeated.
    fn persist_from_analysis(
        &self,
        app: &dyn MpiApp,
        analysis: Analysis,
        base: &MachineModel,
        fingerprint: &str,
    ) -> Result<(StoreKey, StoredSignature), String> {
        let (trace, _) = run_traced(app, base, self.policy.clone(), self.pas2p.instrumentation);
        let trace_bytes = pas2p_trace::format::encode(&trace);
        let key = signature_key(&trace_bytes, base, fingerprint);
        drop(trace);
        self.persist(app, analysis, base, key)
    }

    fn persist(
        &self,
        app: &dyn MpiApp,
        analysis: Analysis,
        base: &MachineModel,
        key: StoreKey,
    ) -> Result<(StoreKey, StoredSignature), String> {
        let (signature, _stats) =
            self.pas2p
                .build_signature(app, &analysis, base, self.policy.clone());
        // Zero the one host-volatile field inside the payload; the real
        // value rides in the sidecar. Everything else in the payload is
        // deterministic for the key's inputs.
        let mut stored_analysis = analysis.analysis;
        stored_analysis.analysis_seconds = 0.0;
        let payload = StoredSignature {
            app_name: analysis.app_name,
            workload: analysis.workload,
            nprocs: analysis.nprocs,
            base_machine: analysis.base_machine,
            trace_bytes: analysis.trace_bytes,
            trace_events: analysis.trace_events,
            aet_instrumented: analysis.aet_instrumented,
            confidence: analysis.confidence,
            analysis: stored_analysis,
            table: analysis.table,
            signature,
        };
        let sidecar = Sidecar {
            tfat_seconds: analysis.tfat_seconds,
            metrics: analysis.metrics,
        };
        let mut store = self.store.lock();
        store
            .put_signature(&key, &payload, sidecar)
            .map_err(|e| e.to_string())?;
        self.sync_entries(&store);
        Ok((key, payload))
    }

    /// Ensure the signature of a resolved (app, base) pair exists in the
    /// store; returns the key, the payload, and whether it was served
    /// from cache. Concurrent callers for the same alias are
    /// single-flighted: one computes Stage A, the rest wait on the
    /// condvar and then read the published artifact.
    fn ensure_signature(
        &self,
        resolved: &Resolved,
    ) -> Result<(StoreKey, StoredSignature, bool), String> {
        let Resolved {
            app,
            base,
            fingerprint,
            alias,
        } = resolved;
        loop {
            {
                let mut store = self.store.lock();
                if let Some(key) = store.lookup_alias(alias) {
                    if let Some((payload, _sidecar)) = store.get_signature(&key) {
                        return Ok((key, payload, true));
                    }
                    // The entry was just evicted as corrupt/missing —
                    // fall through and recompute; the store already
                    // reported it.
                }
            }
            let mut pending = self.pending.lock();
            if !pending.contains(alias) {
                pending.insert(alias.clone());
                break;
            }
            // Another request is computing exactly this signature.
            // Wait for it to finish (or fail), then re-check the store
            // instead of duplicating the expensive Stage-A run.
            self.pending_cv.wait(&mut pending);
        }
        let _guard = PendingGuard {
            core: self,
            alias: alias.clone(),
        };
        let (key, payload) = self.compute_and_store(app.as_ref(), base, fingerprint)?;
        Ok((key, payload, false))
    }

    /// `submit`: analyze + store (or confirm presence).
    pub(crate) fn submit(
        &self,
        app_name: &str,
        nprocs: u32,
        base_name: &str,
    ) -> Result<SubmitOutcome, String> {
        let resolved = self.resolve(app_name, nprocs, base_name)?;
        let (key, payload, cached) = self.ensure_signature(&resolved)?;
        Ok(SubmitOutcome {
            digest: key.digest,
            cached,
            app: payload.app_name.clone(),
            phases: payload.analysis.total_phases(),
            relevant: payload.table.relevant_phases(),
            confidence: payload.confidence.to_string(),
        })
    }

    /// `predict`: serve the (app, target) prediction, from the store
    /// when present, computing and persisting on the way otherwise.
    pub(crate) fn predict(
        &self,
        app_name: &str,
        nprocs: u32,
        base_name: &str,
        target_name: &str,
    ) -> Result<PredictOutcome, String> {
        let target = Self::resolve_machine(target_name)?;
        let policy_label = self.policy_label();

        let resolved = self.resolve(app_name, nprocs, base_name)?;

        // Fast path: alias → signature key → prediction key, without
        // loading (or recomputing) the signature at all.
        {
            let mut store = self.store.lock();
            if let Some(sig_key) = store.lookup_alias(&resolved.alias) {
                let pkey = prediction_key(&sig_key, &target, &policy_label);
                if let Some(json) = store.get_prediction_json(&pkey) {
                    return Ok(PredictOutcome {
                        app: resolved.app.name(),
                        target: target.name.clone(),
                        prediction_json: json,
                        cached: true,
                        signature_cached: true,
                    });
                }
            }
        }

        // Slow path: make sure the signature exists (cached Stage A or
        // a fresh analysis), execute it on the target, canonicalize and
        // persist the prediction.
        let (sig_key, stored, signature_cached) = self.ensure_signature(&resolved)?;
        let pkey = prediction_key(&sig_key, &target, &policy_label);
        let mut prediction = self
            .pas2p
            .predict(
                resolved.app.as_ref(),
                &stored.signature,
                &target,
                self.policy.clone(),
            )
            .map_err(|e| format!("signature execution failed: {e}"))?;
        canonicalize_prediction(&mut prediction);
        let json = serde_json::to_string(&prediction).map_err(|e| e.to_string())?;
        let entry = IndexEntry {
            kind: ArtifactKind::Prediction,
            format_version: STORE_FORMAT_VERSION,
            fingerprint: pkey.fingerprint.clone(),
            app: stored.app_name.clone(),
            workload: stored.workload.clone(),
            nprocs: stored.nprocs,
            base: stored.base_machine.clone(),
            target: Some(target.name.clone()),
        };
        {
            let mut store = self.store.lock();
            store
                .put_prediction_json(&pkey, entry, &json)
                .map_err(|e| e.to_string())?;
            self.sync_entries(&store);
        }
        Ok(PredictOutcome {
            app: stored.app_name,
            target: target.name,
            prediction_json: json,
            cached: false,
            signature_cached,
        })
    }

    /// `batch`: analyze every app not yet in the store through
    /// [`run_batch_with`] (panic isolation, deadlines, retries),
    /// persist the completed analyses, then serve the apps × targets
    /// prediction matrix through the cache path.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn batch(
        &self,
        apps: &[String],
        nprocs: u32,
        base_name: &str,
        targets: &[String],
        workers: Option<usize>,
        deadline_ms: Option<u64>,
        retries: Option<u32>,
    ) -> Result<serde_json::Value, String> {
        let base = Self::resolve_machine(base_name)?;
        let fingerprint = self.fingerprint();

        let aliases: Vec<String> = apps
            .iter()
            .map(|name| {
                let app = self.resolve_app(name, nprocs)?;
                Ok(Self::alias_of(app.as_ref(), &base, &fingerprint))
            })
            .collect::<Result<_, String>>()?;

        // Which apps still need Stage A? One short lock for the whole
        // census — no compute happens under it.
        let mut missing: Vec<String> = Vec::new();
        let mut statuses = serde_json::Map::new();
        {
            let store = self.store.lock();
            for (name, alias) in apps.iter().zip(&aliases) {
                if store.lookup_alias(alias).is_some() {
                    statuses.insert(name.clone(), json!("cached"));
                } else {
                    missing.push(name.clone());
                }
            }
        }

        if !missing.is_empty() {
            let jobs: Result<Vec<BatchJob>, String> = missing
                .iter()
                .map(|name| Ok(BatchJob::new(self.resolve_app(name, nprocs)?, base.clone())))
                .collect();
            let opts = BatchOptions {
                workers,
                deadline: deadline_ms.map(std::time::Duration::from_millis),
                max_retries: retries.unwrap_or(0),
                ..BatchOptions::default()
            };
            let report = run_batch_with(&self.pas2p, jobs?, opts);
            for (name, result) in missing.iter().zip(report.results) {
                statuses.insert(name.clone(), json!(result.status.to_string()));
                if let Some(analysis) = result.analysis {
                    let app = self.resolve_app(name, nprocs)?;
                    self.persist_from_analysis(app.as_ref(), analysis, &base, &fingerprint)?;
                }
            }
        }

        let mut predictions = Vec::new();
        for name in apps {
            for target in targets {
                match self.predict(name, nprocs, base_name, target) {
                    Ok(outcome) => {
                        let value: serde_json::Value =
                            serde_json::from_str(&outcome.prediction_json)
                                .map_err(|e| e.to_string())?;
                        predictions.push(json!({
                            "app": outcome.app,
                            "target": outcome.target,
                            "cached": outcome.cached,
                            "prediction": value,
                        }));
                    }
                    Err(error) => {
                        predictions.push(json!({
                            "app": name,
                            "target": target,
                            "error": error,
                        }));
                    }
                }
            }
        }
        Ok(json!({
            "jobs": serde_json::Value::Object(statuses),
            "predictions": predictions,
        }))
    }

    /// `stats`: request counters, store shape, and the store report.
    /// Takes the store lock (unlike `health`).
    pub(crate) fn stats_value(&self) -> serde_json::Value {
        let store = self.store.lock();
        let report = store.report();
        let diagnostics: Vec<String> = store
            .diagnostics()
            .iter()
            .map(|d| format!("{}: {}", d.code, d.message))
            .collect();
        json!({
            "requests": self.stats.requests.load(Ordering::SeqCst),
            "shed": self.stats.shed.load(Ordering::SeqCst),
            "timeouts": self.stats.timeouts.load(Ordering::SeqCst),
            "entries": store.len(),
            "format_version": STORE_FORMAT_VERSION,
            "fingerprint": self.fingerprint(),
            "store_report": report.to_value(),
            "store_diagnostics": diagnostics,
        })
    }

    /// `health`: serving state from atomics only — no lock anywhere on
    /// this path, so it answers even while every worker is wedged
    /// behind a gated store or a long Stage-A run.
    pub(crate) fn health_value(&self) -> serde_json::Value {
        json!({
            "accepting": self.stats.accepting.load(Ordering::SeqCst),
            "workers": self.stats.workers.load(Ordering::SeqCst),
            "queue_capacity": self.stats.queue_capacity.load(Ordering::SeqCst),
            "queue_depth": self.stats.queue_depth.load(Ordering::SeqCst),
            "inflight": self.stats.inflight.load(Ordering::SeqCst),
            "connections": self.stats.connections.load(Ordering::SeqCst),
            "requests": self.stats.requests.load(Ordering::SeqCst),
            "shed": self.stats.shed.load(Ordering::SeqCst),
            "timeouts": self.stats.timeouts.load(Ordering::SeqCst),
            "entries": self.stats.entries.load(Ordering::SeqCst),
            "deadline_ms": self.deadline.map(|d| d.as_millis() as u64),
        })
    }

    /// Flush the store index to disk (graceful-shutdown step).
    pub(crate) fn flush_store(&self) {
        let mut store = self.store.lock();
        if let Err(e) = store.flush_index() {
            eprintln!("pas2p serve: flushing store index on shutdown: {e}");
        }
    }
}

impl PredictionService {
    /// `submit`: analyze + store (or confirm presence).
    pub fn submit(
        &self,
        app_name: &str,
        nprocs: u32,
        base_name: &str,
    ) -> Result<SubmitOutcome, String> {
        self.core.submit(app_name, nprocs, base_name)
    }

    /// `predict`: serve the (app, target) prediction, from the store
    /// when present, computing and persisting on the way otherwise.
    pub fn predict(
        &self,
        app_name: &str,
        nprocs: u32,
        base_name: &str,
        target_name: &str,
    ) -> Result<PredictOutcome, String> {
        self.core.predict(app_name, nprocs, base_name, target_name)
    }

    /// `batch`: analyze every missing app through the batch driver,
    /// then serve the apps × targets prediction matrix.
    #[allow(clippy::too_many_arguments)]
    pub fn batch(
        &self,
        apps: &[String],
        nprocs: u32,
        base_name: &str,
        targets: &[String],
        workers: Option<usize>,
        deadline_ms: Option<u64>,
        retries: Option<u32>,
    ) -> Result<serde_json::Value, String> {
        self.core
            .batch(apps, nprocs, base_name, targets, workers, deadline_ms, retries)
    }

    /// `stats`: request counters, store shape, and the store report.
    pub fn stats(&self) -> serde_json::Value {
        self.core.stats_value()
    }

    /// Live serving counters (shed, timeouts, …).
    pub fn serve_stats(&self) -> &ServeStats {
        &self.core.stats
    }

    /// Run `f` under the panic boundary and (for deadline-bearing
    /// services) the abandonable deadline runner. A panicking request
    /// answers `code:"panic"`; an expired one answers `code:"timeout"`
    /// while the runner unwinds at its next stage boundary.
    fn run_guarded(
        &self,
        op: &'static str,
        f: impl FnOnce() -> Response + Send + 'static,
    ) -> Response {
        let wrapped = move || match catch_unwind(AssertUnwindSafe(f)) {
            Ok(response) => response,
            Err(payload) => Response::failure_code(op, "panic", panic_message(payload)),
        };
        match self.core.deadline {
            None => wrapped(),
            Some(deadline) => {
                match crate::cancel::run_abandonable("host.serve", deadline, wrapped) {
                    Some(response) => response,
                    None => {
                        self.core.stats.timeouts.fetch_add(1, Ordering::SeqCst);
                        if pas2p_obs::enabled() {
                            pas2p_obs::counter("serve.timeout").add(1);
                        }
                        Response::failure_code(
                            op,
                            "timeout",
                            format!("deadline of {:.3}s expired", deadline.as_secs_f64()),
                        )
                    }
                }
            }
        }
    }

    /// Decode and execute one protocol line. Returns the response and
    /// whether the serve loop should stop.
    pub fn handle_line(&self, line: &str) -> (Response, bool) {
        match Request::from_line(line) {
            Ok(request) => self.handle_request(request),
            Err(e) => (self.malformed(&e), false),
        }
    }

    fn count_request(&self) {
        self.core.stats.requests.fetch_add(1, Ordering::SeqCst);
        if pas2p_obs::enabled() {
            pas2p_obs::counter("serve.requests").add(1);
        }
    }

    /// The classified answer to a line [`Request::from_line`] rejected
    /// with `error` (counted as a request, like any other line).
    pub(crate) fn malformed(&self, error: &str) -> Response {
        self.count_request();
        Response::failure_code("invalid", "invalid", format!("malformed request: {error}"))
    }

    /// Execute one decoded request. Returns the response and whether
    /// the serve loop should stop.
    pub(crate) fn handle_request(&self, request: Request) -> (Response, bool) {
        self.count_request();
        match request {
            Request::Submit { app, nprocs, base } => {
                let mut st = pas2p_obs::stage("serve.submit");
                st.items(1);
                let core = Arc::clone(&self.core);
                let response = self.run_guarded("submit", move || {
                    match core.submit(&app, nprocs, &base) {
                        Ok(outcome) => Response::success(
                            "submit",
                            json!({
                                "digest": outcome.digest.as_str(),
                                "cached": outcome.cached,
                                "app": outcome.app.as_str(),
                                "phases": outcome.phases,
                                "relevant": outcome.relevant,
                                "confidence": outcome.confidence.as_str(),
                            }),
                        ),
                        Err(e) => Response::failure("submit", e),
                    }
                });
                st.finish();
                (response, false)
            }
            Request::Predict {
                app,
                nprocs,
                base,
                target,
            } => {
                let mut st = pas2p_obs::stage("serve.predict");
                st.items(1);
                let core = Arc::clone(&self.core);
                let response = self.run_guarded("predict", move || {
                    match core.predict(&app, nprocs, &base, &target) {
                        Ok(outcome) => {
                            let prediction: serde_json::Value =
                                serde_json::from_str(&outcome.prediction_json).unwrap_or_default();
                            Response::success(
                                "predict",
                                json!({
                                    "app": outcome.app,
                                    "target": outcome.target,
                                    "cached": outcome.cached,
                                    "signature_cached": outcome.signature_cached,
                                    "prediction": prediction,
                                }),
                            )
                        }
                        Err(e) => Response::failure("predict", e),
                    }
                });
                st.finish();
                (response, false)
            }
            Request::Batch {
                apps,
                nprocs,
                base,
                targets,
                workers,
                deadline_ms,
                retries,
            } => {
                // Batch carries its own per-job deadline; the service
                // deadline does not wrap it — only the panic boundary.
                let mut st = pas2p_obs::stage("serve.batch");
                st.items(apps.len() as u64);
                let core = Arc::clone(&self.core);
                let run = move || match core.batch(
                    &apps,
                    nprocs,
                    &base,
                    &targets,
                    workers,
                    deadline_ms,
                    retries,
                ) {
                    Ok(result) => Response::success("batch", result),
                    Err(e) => Response::failure("batch", e),
                };
                let response = match catch_unwind(AssertUnwindSafe(run)) {
                    Ok(response) => response,
                    Err(payload) => {
                        Response::failure_code("batch", "panic", panic_message(payload))
                    }
                };
                st.finish();
                (response, false)
            }
            Request::Ping => (Response::success("ping", json!({"pong": true})), false),
            Request::Health => (
                Response::success("health", self.core.health_value()),
                false,
            ),
            Request::Stats => {
                let mut st = pas2p_obs::stage("serve.stats");
                st.items(1);
                let response = Response::success("stats", self.core.stats_value());
                st.finish();
                (response, false)
            }
            Request::Shutdown => (
                Response::success("shutdown", json!({"stopping": true})),
                true,
            ),
        }
    }

    /// Serve newline-delimited JSON requests from `input`, writing one
    /// response line each to `output`, until EOF or a `shutdown`. The
    /// final response is flushed before the loop exits, and the store
    /// index is flushed to disk on the way out.
    pub fn serve(&self, input: impl BufRead, mut output: impl Write) -> std::io::Result<()> {
        for line in input.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let (response, stop) = self.handle_line(&line);
            writeln!(output, "{}", response.render())?;
            output.flush()?;
            if stop {
                break;
            }
        }
        self.core.stats.accepting.store(false, Ordering::SeqCst);
        self.core.flush_store();
        Ok(())
    }

    /// Serve over a unix socket with the default concurrent-server
    /// options (see [`crate::server::ServeOptions`]): a bounded worker
    /// pool over N simultaneous connections, a bounded request queue
    /// with load-shedding, and graceful drain on shutdown. The socket
    /// file is created fresh and removed on clean exit.
    #[cfg(unix)]
    pub fn serve_unix(&self, socket_path: &std::path::Path) -> std::io::Result<()> {
        crate::server::serve_unix_with(self, socket_path, crate::server::ServeOptions::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Pas2p;
    use std::io::Cursor;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn temp_root(tag: &str) -> PathBuf {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "pas2p-serve-test-{}-{}-{}",
            std::process::id(),
            tag,
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn service(root: &std::path::Path) -> PredictionService {
        let store = SignatureStore::open(root).expect("open store");
        PredictionService::new(Pas2p::default(), store, Box::new(pas2p_apps::by_name))
    }

    #[test]
    fn malformed_requests_fail_without_stopping_the_loop() {
        let root = temp_root("malformed");
        let svc = service(&root);
        let (response, stop) = svc.handle_line("{definitely not json");
        assert!(!response.ok);
        assert_eq!(response.op, "invalid");
        assert!(!stop);
        let (response, stop) = svc.handle_line(r#"{"op":"no_such_op"}"#);
        assert!(!response.ok);
        assert!(!stop);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn unknown_app_or_machine_is_an_error_response() {
        let root = temp_root("unknown");
        let svc = service(&root);
        assert!(svc.submit("nosuchapp", 4, "A").is_err());
        assert!(svc.predict("cg", 4, "A", "Z").is_err());
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Two ranks that each receive from the other: a deadlock.
    struct CrossedReceives;

    impl pas2p_signature::RankProgram for CrossedReceives {
        fn prologue(&mut self, ctx: &mut dyn pas2p_mpisim::Mpi) {
            ctx.recv(Some(1 - ctx.rank()), Some(0));
        }
        fn steps(&self) -> u64 {
            0
        }
        fn step(&mut self, _step: u64, _ctx: &mut dyn pas2p_mpisim::Mpi) {}
        fn epilogue(&mut self, _ctx: &mut dyn pas2p_mpisim::Mpi) {}
        fn snapshot(&self) -> Vec<u8> {
            Vec::new()
        }
        fn restore(&mut self, _bytes: &[u8]) {}
    }

    impl MpiApp for CrossedReceives {
        fn name(&self) -> String {
            "crossed".into()
        }
        fn nprocs(&self) -> u32 {
            2
        }
        fn make_rank(&self, _rank: u32) -> Box<dyn pas2p_signature::RankProgram> {
            Box::new(CrossedReceives)
        }
    }

    #[test]
    fn a_deadlocked_application_answers_code_panic() {
        let root = temp_root("deadlock");
        let store = SignatureStore::open(&root).expect("open store");
        let resolve: AppResolver = Box::new(|_, _| Some(Box::new(CrossedReceives)));
        let svc = PredictionService::new(Pas2p::default(), store, resolve);
        let started = std::time::Instant::now();
        let (response, stop) = svc.handle_line(r#"{"op":"submit","app":"crossed","nprocs":2}"#);
        assert!(started.elapsed() < Duration::from_secs(1), "reported, not hung");
        assert!(!response.ok && !stop);
        assert_eq!(response.code, Some("panic"));
        let error = response.error.expect("the report");
        assert!(
            error.contains("rank 0 in recv(src=Some(1), tag=Some(0))"),
            "{error}"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn submit_is_computed_once_then_served_from_the_store() {
        let root = temp_root("submit");
        let svc = service(&root);
        let cold = svc.submit("cg", 4, "A").expect("cold submit");
        assert!(!cold.cached);
        assert!(cold.relevant > 0, "cg has relevant phases");
        let warm = svc.submit("cg", 4, "A").expect("warm submit");
        assert!(warm.cached, "second submit must hit the store");
        assert_eq!(warm.digest, cold.digest, "same inputs, same address");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn warm_predictions_are_byte_identical_to_cold_ones() {
        let root = temp_root("predict");
        let svc = service(&root);
        let cold = svc.predict("cg", 4, "A", "B").expect("cold predict");
        assert!(!cold.cached);
        assert!(!cold.signature_cached, "nothing was stored yet");
        let warm = svc.predict("cg", 4, "A", "B").expect("warm predict");
        assert!(warm.cached, "second predict must hit the prediction cache");
        assert!(warm.signature_cached);
        assert_eq!(
            warm.prediction_json, cold.prediction_json,
            "cache hits must be byte-identical to the cold compute"
        );
        // The canonical artifact carries no host-volatile fields.
        let value: serde_json::Value = serde_json::from_str(&warm.prediction_json).unwrap();
        assert_eq!(value["wall_seconds"], serde_json::json!(0.0));
        assert!(value.get("metrics").is_none());

        // A fresh service over the same store predicts without Stage A.
        let svc2 = service(&root);
        let reheated = svc2.predict("cg", 4, "A", "B").expect("reheated predict");
        assert!(reheated.cached);
        assert_eq!(reheated.prediction_json, cold.prediction_json);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn batch_analyzes_missing_apps_and_serves_the_matrix() {
        let root = temp_root("batch");
        let svc = service(&root);
        svc.submit("cg", 4, "A").expect("pre-seed cg");
        let result = svc
            .batch(
                &["cg".to_string(), "ft".to_string()],
                4,
                "A",
                &["B".to_string()],
                Some(2),
                None,
                Some(1),
            )
            .expect("batch");
        assert_eq!(result["jobs"]["cg"], serde_json::json!("cached"));
        assert_eq!(result["jobs"]["ft"], serde_json::json!("ok"));
        let predictions = result["predictions"].as_array().expect("predictions");
        assert_eq!(predictions.len(), 2, "apps x targets");
        for p in predictions {
            assert!(p.get("error").is_none(), "no prediction errors: {p}");
            assert!(p["prediction"]["pet"].as_f64().unwrap() > 0.0);
        }
        // Everything is now cached: a second batch does zero Stage-A work.
        let again = svc
            .batch(
                &["cg".to_string(), "ft".to_string()],
                4,
                "A",
                &["B".to_string()],
                None,
                None,
                None,
            )
            .expect("second batch");
        assert_eq!(again["jobs"]["cg"], serde_json::json!("cached"));
        assert_eq!(again["jobs"]["ft"], serde_json::json!("cached"));
        for p in again["predictions"].as_array().unwrap() {
            assert_eq!(p["cached"], serde_json::json!(true));
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn serve_loop_answers_each_line_and_stops_on_shutdown() {
        let root = temp_root("loop");
        let svc = service(&root);
        let input = concat!(
            r#"{"op":"submit","app":"cg","nprocs":4}"#,
            "\n\n",
            r#"{"op":"predict","app":"cg","nprocs":4,"target":"B"}"#,
            "\n",
            r#"{"op":"stats"}"#,
            "\n",
            r#"{"op":"shutdown"}"#,
            "\n",
            r#"{"op":"stats"}"#,
            "\n",
        );
        let mut out = Vec::new();
        svc.serve(Cursor::new(input), &mut out).expect("serve");
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 4, "shutdown stops the loop mid-stream");
        let submit: serde_json::Value = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(submit["ok"], serde_json::json!(true));
        assert_eq!(submit["op"], serde_json::json!("submit"));
        let predict: serde_json::Value = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(predict["ok"], serde_json::json!(true));
        assert_eq!(
            predict["result"]["signature_cached"],
            serde_json::json!(true)
        );
        let stats: serde_json::Value = serde_json::from_str(lines[2]).unwrap();
        assert_eq!(stats["result"]["entries"], serde_json::json!(2));
        let shutdown: serde_json::Value = serde_json::from_str(lines[3]).unwrap();
        assert_eq!(shutdown["result"]["stopping"], serde_json::json!(true));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[cfg(unix)]
    #[test]
    fn unix_socket_serves_the_same_protocol() {
        use std::io::{BufRead, BufReader, Write};
        use std::os::unix::net::UnixStream;

        let root = temp_root("socket");
        let socket = root.join("pas2p.sock");
        std::fs::create_dir_all(&root).expect("mkdir");
        let socket_path = socket.clone();
        let store_root = root.clone();
        let server = std::thread::spawn(move || {
            let svc = service(&store_root);
            svc.serve_unix(&socket_path).expect("serve_unix");
        });
        // The listener needs a moment to bind.
        let mut attempts = 0;
        let stream = loop {
            match UnixStream::connect(&socket) {
                Ok(s) => break s,
                Err(_) if attempts < 100 => {
                    attempts += 1;
                    std::thread::sleep(std::time::Duration::from_millis(10));
                }
                Err(e) => panic!("connect: {e}"),
            }
        };
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        writeln!(writer, r#"{{"op":"submit","app":"ft","nprocs":4}}"#).unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let submit: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(submit["ok"], serde_json::json!(true));
        writeln!(writer, r#"{{"op":"shutdown"}}"#).unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        server.join().expect("server thread");
        assert!(!socket.exists(), "socket file is removed on clean exit");
        let _ = std::fs::remove_dir_all(&root);
    }
}
