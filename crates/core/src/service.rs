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
//! silent. A signature enters the store one way, `ensure_signature`
//! (see [`PredictionService::batch`]), and every prediction is served
//! through the one path of a `predict`.
//!
//! A request runs on the thread that read it, behind a permit, a panic
//! boundary and the service deadline's
//! [`CancelToken`](crate::cancel::CancelToken) (`respond`, `compute`;
//! DESIGN.md, "Permit, then run here").
//!
//! A warm predict replays a reply rendered once: the service keeps one
//! per (signature digest, target), built from a verified read, served
//! while its prediction is indexed, dropped by a put, within
//! `RESIDENT_BUDGET` (DESIGN.md, "A warm prediction is answered from
//! memory, by the service"). A request line such a reply answered is
//! kept too, with the alias and target it names, and found again before
//! any parse. Locks: `replies` may be taken alone or under `store`,
//! `store` is never taken under `replies`, and `replies` is held for a
//! lookup or an insert only, never across store I/O, a parse or a render.
//!
//! Observability: the `serve.*` counters, gauges, histogram and stage
//! profiles and the store's `store.*` counters that DESIGN.md lists.

use crate::cancel::{enter, guarded, remaining, Stage, Stopped};
use crate::pipeline::Pas2p;
use parking_lot::{Condvar, Mutex};
use pas2p_machine::{preset_by_name, MachineModel, MappingPolicy};
use pas2p_signature::{MpiApp, Prediction};
use pas2p_store::{
    config_fingerprint, prediction_key, signature_alias, signature_key, ArtifactKind, IndexEntry,
    Sidecar, SignatureStore, StoreKey, StoreReport, StoredSignature, STORE_FORMAT_VERSION,
};
use serde::Serialize;
use serde_json::{json, Value};
use std::collections::{HashMap, HashSet};
use std::io::{BufRead, Read, Write};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Resolves an application name + process count to a runnable app. The
/// catalog lives in `pas2p-apps`, which sits above this crate in the
/// dependency graph, so the caller injects the lookup (the CLI passes
/// `pas2p_apps::by_name`). `Sync` because connections resolve
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
    /// Analyze many apps (each as a `submit` would, in parallel) and
    /// predict each on every target.
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
    },
    /// Liveness probe: answers immediately; the one lock on its path is
    /// the line probe's, held for one lookup.
    Ping,
    /// Serving-state probe: queue, in-flight, shed/timeout counters and
    /// store entry count, all read from atomics (no lock but the line
    /// probe's, so health stays answerable while every permit holder is
    /// wedged).
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
    /// to 8 and is at most [`MAX_NPROCS`], `base` defaults to `"A"`.
    /// Only the keys named here are read; any other is ignored.
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
            Some(n) if n >= 1 && n <= u64::from(MAX_NPROCS) => n as u32,
            Some(_) => {
                return Err(format!(
                    "\"nprocs\" must be a positive integer, at most {MAX_NPROCS}"
                ))
            }
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

/// One protocol response line. The fields are declared in the order
/// they are rendered (sorted keys); absent ones are omitted, not `null`.
#[derive(Debug, Default, Serialize)]
pub struct Response {
    /// Machine-readable failure class when `ok` is false: `invalid`
    /// (malformed request), `busy` (load shed), `timeout` (deadline
    /// expired), `panic` (isolated panic) or `error` (everything else).
    /// Clients dispatch on this; `error` is for humans.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub code: Option<&'static str>,
    /// Failure description when `ok` is false.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub error: Option<String>,
    /// Whether the request succeeded.
    pub ok: bool,
    /// The request's operation (or `"invalid"`).
    pub op: &'static str,
    /// Operation result when `ok` is true.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub result: Option<Value>,
    /// A replayed reply's line, which `render` returns; never a key.
    #[serde(skip_serializing_if = "never")]
    line: Option<Arc<str>>,
}

fn never<T>(_: &T) -> bool {
    true
}

impl Response {
    fn success(op: &'static str, result: Value) -> Response {
        Response {
            ok: true,
            op,
            result: Some(result),
            ..Response::default()
        }
    }

    fn failure(op: &'static str, code: &'static str, error: String) -> Response {
        Response {
            op,
            code: Some(code),
            error: Some(error),
            ..Response::default()
        }
    }

    /// The response as one NDJSON line (no trailing newline).
    pub fn render(&self) -> String {
        if let Some(line) = &self.line {
            return line.to_string();
        }
        serde_json::to_string(self).expect("a response always serializes")
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

/// Bytes of payload and line the warm replies may hold (~5 000 replies).
const RESIDENT_BUDGET: usize = 8 << 20;

/// Bytes the kept request lines may hold, apart from the replies' budget
/// so that no line clears a reply (~6 000 canonical predict lines).
const LINE_BUDGET: usize = 1 << 20;

/// The longest request line kept; a canonical predict line is ~70 bytes.
const MAX_KEPT_LINE: usize = 256;

/// A predict's answer: the prediction's key, the outcome with its
/// payload, the response's `result` and the rendered line.
struct Reply {
    key: StoreKey,
    outcome: PredictOutcome,
    value: Value,
    line: Arc<str>,
}

impl Reply {
    /// The one place a stored prediction is parsed and a predict
    /// response rendered.
    fn new(key: StoreKey, outcome: PredictOutcome) -> Result<Reply, String> {
        let prediction: Value = serde_json::from_str(&outcome.prediction_json)
            .map_err(|e| format!("stored prediction does not parse: {e}"))?;
        let value = json!({
            "app": outcome.app,
            "target": outcome.target,
            "cached": outcome.cached,
            "signature_cached": outcome.signature_cached,
            "prediction": prediction,
        });
        let line = Response::success("predict", value.clone()).render().into();
        Ok(Reply {
            key,
            outcome,
            value,
            line,
        })
    }

    /// The reply as a response, with a deep copy of its `result` only
    /// when asked for one: the line alone is what goes on the wire.
    fn response(&self, result: bool) -> Response {
        Response {
            ok: true,
            op: "predict",
            result: result.then(|| self.value.clone()),
            line: Some(Arc::clone(&self.line)),
            ..Response::default()
        }
    }
}

/// The warm replies by (signature digest, target name), and the bytes put
/// in since the last clear; an insert that would pass the budget clears.
/// Beside them, the (signature alias, target name) of each request line a
/// kept or verified reply answered, under a budget of its own.
#[derive(Default)]
struct Replies {
    by_slot: HashMap<(String, String), Arc<Reply>>,
    bytes: usize,
    by_line: HashMap<String, (String, String)>,
    line_bytes: usize,
}

impl Replies {
    fn insert(&mut self, slot: (String, String), reply: Arc<Reply>) {
        let bytes = reply.outcome.prediction_json.len() + reply.line.len();
        if bytes > RESIDENT_BUDGET {
            return;
        }
        if self.bytes + bytes > RESIDENT_BUDGET {
            self.by_slot.clear();
            self.bytes = 0;
        }
        self.bytes += bytes;
        self.by_slot.insert(slot, reply);
    }

    /// Keep `line` for the alias and target it resolved to, unless it is
    /// longer than [`MAX_KEPT_LINE`]; one that would pass [`LINE_BUDGET`]
    /// clears the lines first, never the replies.
    fn insert_line(&mut self, line: Option<&str>, alias: &str, target: &str) {
        let Some(line) = line.filter(|line| line.len() <= MAX_KEPT_LINE) else {
            return;
        };
        let bytes = line.len() + alias.len() + target.len();
        if self.line_bytes + bytes > LINE_BUDGET {
            self.by_line.clear();
            self.line_bytes = 0;
        }
        self.line_bytes += bytes;
        let named = (alias.to_string(), target.to_string());
        self.by_line.insert(line.to_string(), named);
    }
}

/// Strip host-volatile fields so the serialized prediction is a stable
/// artifact: wall-clock and the metrics snapshot vary run to run and
/// would break the byte-identical cache-hit contract.
pub fn canonicalize_prediction(prediction: &mut Prediction) {
    prediction.wall_seconds = 0.0;
    prediction.metrics = None;
}

/// Live serving counters, all atomic: `health` reads them without
/// taking any lock, so it stays answerable while every permit holder is
/// wedged behind a slow store. `inflight` and `queue_depth` are the
/// admission state itself (changed only under the service's gate);
/// the server front end sets the bounds and counts connections.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Requests decoded (including invalid ones).
    pub(crate) requests: AtomicU64,
    /// Requests and connections refused with `code:"busy"`.
    pub(crate) shed: AtomicU64,
    /// Requests refused with `code:"timeout"` past their deadline.
    pub(crate) timeouts: AtomicU64,
    /// Compute requests holding a permit.
    pub(crate) inflight: AtomicU64,
    /// Compute requests waiting in line for a permit.
    pub(crate) queue_depth: AtomicU64,
    /// Connections currently open.
    pub(crate) connections: AtomicU64,
    /// Store entries (mirrored after every publish so health never
    /// takes the store lock).
    pub(crate) entries: AtomicU64,
    /// Whether new connections/requests are being accepted.
    pub(crate) accepting: AtomicBool,
    /// Permits: compute requests that may run at once (0 = unbounded:
    /// the stdin loop and in-process callers).
    pub(crate) workers: AtomicU64,
    /// Bound of the line waiting for a permit (0 with `workers` 0).
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

fn set_gauge(name: &'static str, value: u64) {
    if pas2p_obs::enabled() {
        pas2p_obs::gauge(name).set(value as f64);
    }
}

/// Everything clones of a [`PredictionService`] share. The store mutex
/// is held for lookups and publishes only — Stage-A analysis and
/// Stage-B execution run outside it — and `pending` + its condvar
/// collapse concurrent Stage-A work on the same signature into a single
/// computation (the paper's characterize-*once* promise, kept under
/// concurrency). `gate` + its condvar order every change of
/// `stats.inflight` / `stats.queue_depth`.
struct Shared {
    pas2p: Pas2p,
    store: Mutex<SignatureStore>,
    /// Taken alone or under `store`, for a lookup or an insert only;
    /// `store` is never taken under it.
    replies: Mutex<Replies>,
    resolve: AppResolver,
    policy: MappingPolicy,
    /// `policy` as it enters prediction keys.
    policy_label: String,
    /// [`config_fingerprint`] of `pas2p`, which never changes.
    fingerprint: String,
    deadline: Option<Duration>,
    stats: ServeStats,
    pending: Mutex<HashSet<String>>,
    pending_cv: Condvar,
    gate: Mutex<()>,
    gate_cv: Condvar,
}

/// Removes its alias from the single-flight set on drop — including the
/// unwind of a request past its deadline — so waiters never starve
/// behind a computation that is no longer happening.
struct PendingGuard<'a> {
    shared: &'a Shared,
    alias: String,
}

impl Drop for PendingGuard<'_> {
    fn drop(&mut self) {
        let mut pending = self.shared.pending.lock();
        pending.remove(&self.alias);
        self.shared.pending_cv.notify_all();
    }
}

/// One compute permit; handed to the next in line on drop (a panic or
/// an expired deadline included).
struct Permit<'a>(&'a Shared);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let _gate = self.0.gate.lock();
        let inflight = self.0.stats.inflight.fetch_sub(1, Ordering::SeqCst) - 1;
        set_gauge("serve.inflight", inflight);
        self.0.gate_cv.notify_one();
    }
}

/// What [`PredictionService::resolve`] makes of a request's names.
struct Resolved {
    app: Box<dyn MpiApp>,
    base: MachineModel,
    /// The signature's store alias ([`signature_alias`]).
    alias: String,
}

/// The prediction service: a [`Pas2p`] pipeline in front of a
/// [`SignatureStore`]. Cheap to clone; clones share the same store,
/// stats, permits and single-flight state, which is how the concurrent
/// server hands one service to many connections.
#[derive(Clone)]
pub struct PredictionService {
    shared: Arc<Shared>,
}

impl PredictionService {
    /// A service over `store`, resolving app names through `resolve`.
    pub fn new(pas2p: Pas2p, store: SignatureStore, resolve: AppResolver) -> PredictionService {
        let stats = ServeStats::default();
        stats.entries.store(store.len() as u64, Ordering::SeqCst);
        stats.accepting.store(true, Ordering::SeqCst);
        let policy = MappingPolicy::Block;
        PredictionService {
            shared: Arc::new(Shared {
                policy_label: serde_json::to_string(&policy).expect("policies serialize"),
                fingerprint: config_fingerprint(
                    &pas2p.similarity,
                    &pas2p.signature,
                    pas2p.instrumentation.per_event_seconds,
                ),
                pas2p,
                store: Mutex::new(store),
                replies: Mutex::new(Replies::default()),
                resolve,
                policy,
                deadline: None,
                stats,
                pending: Mutex::new(HashSet::new()),
                pending_cv: Condvar::new(),
                gate: Mutex::new(()),
                gate_cv: Condvar::new(),
            }),
        }
    }

    /// Set the per-request deadline for `submit`/`predict` (builder
    /// style; `None` disables): a request still running that long after
    /// it got its permit answers `code:"timeout"` at its next
    /// cancellation checkpoint. Must be called before the service is
    /// shared with a server.
    pub fn with_deadline(mut self, deadline: Option<Duration>) -> PredictionService {
        Arc::get_mut(&mut self.shared)
            .expect("deadline is configured before the service is shared")
            .deadline = deadline;
        self
    }

    /// The service's configuration fingerprint (see
    /// [`config_fingerprint`]).
    pub fn fingerprint(&self) -> String {
        self.shared.fingerprint.clone()
    }

    /// Snapshot of the store's open-time repair report.
    pub fn store_report(&self) -> StoreReport {
        self.shared.store.lock().report().clone()
    }

    /// The store report as `STORE-*` diagnostics.
    pub fn store_diagnostics(&self) -> Vec<pas2p_check::Diagnostic> {
        self.shared.store.lock().diagnostics()
    }

    /// Entries currently in the store.
    pub fn store_len(&self) -> usize {
        self.shared.store.lock().len()
    }

    /// Live serving counters (shed, timeouts, …).
    pub fn serve_stats(&self) -> &ServeStats {
        &self.shared.stats
    }

    fn resolve_machine(name: &str) -> Result<MachineModel, String> {
        preset_by_name(name).ok_or_else(|| format!("unknown machine preset '{name}'"))
    }

    /// Resolve a request's application and base machine and derive the
    /// store alias of their signature under this service's
    /// configuration.
    fn resolve(&self, app_name: &str, nprocs: u32, base_name: &str) -> Result<Resolved, String> {
        let app = (self.shared.resolve)(app_name, nprocs)
            .ok_or_else(|| format!("unknown application '{app_name}' (nprocs {nprocs})"))?;
        let base = Self::resolve_machine(base_name)?;
        let alias = signature_alias(
            &app.name(),
            &app.workload(),
            app.nprocs(),
            &base.name,
            &self.shared.fingerprint,
        );
        Ok(Resolved { app, base, alias })
    }

    /// Mirror the store's entry count into the lock-free stats while
    /// already holding the store lock.
    fn sync_entries(&self, store: &SignatureStore) {
        self.shared
            .stats
            .entries
            .store(store.len() as u64, Ordering::SeqCst);
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
        let Resolved { app, base, alias } = resolved;
        let shared = &*self.shared;
        loop {
            // A waiter whose deadline passed behind the leader stops
            // here, without starting a Stage A of its own.
            enter(Stage::Store);
            {
                let mut store = shared.store.lock();
                if let Some(key) = store.lookup_alias(alias) {
                    if let Some((payload, _sidecar)) = store.get_signature(&key) {
                        return Ok((key, payload, true));
                    }
                    // The entry was just evicted as corrupt/missing —
                    // fall through and recompute; the store already
                    // reported it.
                }
            }
            let mut pending = shared.pending.lock();
            if !pending.contains(alias) {
                pending.insert(alias.clone());
                break;
            }
            // Another request is computing exactly this signature.
            // Wait for it to finish (or fail) — no longer than this
            // request's deadline allows — then re-check the store
            // instead of duplicating the expensive Stage-A run.
            match remaining() {
                Some(left) => drop(shared.pending_cv.wait_for(&mut pending, left)),
                None => shared.pending_cv.wait(&mut pending),
            }
        }
        let _guard = PendingGuard {
            shared,
            alias: alias.clone(),
        };
        let Shared { pas2p, policy, .. } = shared;
        let (analysis, trace, _logical) = pas2p.analyze_full(app.as_ref(), base, policy.clone());
        // The content address: the encoded trace, the base machine and
        // the configuration.
        let key = signature_key(
            &pas2p_trace::format::encode(&trace),
            base,
            &shared.fingerprint,
        );
        let (signature, _stats) =
            pas2p.build_signature(app.as_ref(), &analysis, base, policy.clone());
        // The analysis is not stored (a host-timed TFAT rides in the
        // sidecar); everything the payload writes is deterministic for
        // the key's inputs.
        let payload = StoredSignature {
            app_name: analysis.app_name,
            workload: analysis.workload,
            nprocs: analysis.nprocs,
            base_machine: analysis.base_machine,
            trace_bytes: analysis.trace_bytes,
            trace_events: analysis.trace_events,
            aet_instrumented: analysis.aet_instrumented,
            confidence: analysis.confidence,
            analysis: analysis.analysis,
            table: analysis.table,
            signature,
        };
        let sidecar = Sidecar {
            tfat_seconds: analysis.tfat_seconds,
            metrics: analysis.metrics,
        };
        // Everything above ran without the store lock; only the publish
        // takes it.
        enter(Stage::Store);
        let mut store = shared.store.lock();
        store
            .put_signature(&key, &payload, sidecar)
            .map_err(|e| e.to_string())?;
        self.sync_entries(&store);
        Ok((key, payload, false))
    }

    /// `submit`: analyze + store (or confirm presence).
    pub fn submit(
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
            phases: payload.table.total_phases,
            relevant: payload.table.relevant_phases(),
            confidence: payload.confidence.to_string(),
        })
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
        let reply = self.reply(None, app_name, nprocs, base_name, target_name)?;
        Ok(reply.outcome.clone())
    }

    /// A predict's reply: kept, built from a verified read (and kept), or
    /// computed. A kept or verified reply also keeps `line`, the request
    /// line it answers.
    fn reply(
        &self,
        line: Option<&str>,
        app_name: &str,
        nprocs: u32,
        base_name: &str,
        target_name: &str,
    ) -> Result<Arc<Reply>, String> {
        let target = Self::resolve_machine(target_name)?;
        let policy_label = &self.shared.policy_label;
        let resolved = self.resolve(app_name, nprocs, base_name)?;

        // Fast path: alias → signature key → reply or prediction key.
        {
            let mut store = self.shared.store.lock();
            if let Some(reply) = self.kept(&store, &resolved.alias, &target.name) {
                let mut replies = self.shared.replies.lock();
                replies.insert_line(line, &resolved.alias, &target.name);
                return Ok(reply);
            }
            if let Some(sig_key) = store.lookup_alias(&resolved.alias) {
                let pkey = prediction_key(&sig_key, &target, policy_label);
                if let Some(json) = store.get_prediction_json(&pkey) {
                    let outcome = PredictOutcome {
                        app: resolved.app.name(),
                        target: target.name.clone(),
                        prediction_json: json,
                        cached: true,
                        signature_cached: true,
                    };
                    let reply = Arc::new(Reply::new(pkey, outcome)?);
                    let mut replies = self.shared.replies.lock();
                    let slot = (sig_key.digest, target.name.clone());
                    replies.insert(slot, Arc::clone(&reply));
                    replies.insert_line(line, &resolved.alias, &target.name);
                    return Ok(reply);
                }
            }
        }

        // Slow path: make sure the signature exists (cached Stage A or
        // a fresh analysis), execute it on the target, canonicalize and
        // persist the prediction.
        let (sig_key, stored, signature_cached) = self.ensure_signature(&resolved)?;
        let pkey = prediction_key(&sig_key, &target, policy_label);
        let mut prediction = self
            .shared
            .pas2p
            .predict(
                resolved.app.as_ref(),
                &stored.signature,
                &target,
                self.shared.policy.clone(),
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
        let slot = (sig_key.digest, target.name.clone());
        {
            enter(Stage::Store);
            let mut store = self.shared.store.lock();
            store
                .put_prediction_json(&pkey, entry, &json)
                .map_err(|e| e.to_string())?;
            self.shared.replies.lock().by_slot.remove(&slot);
            self.sync_entries(&store);
        }
        let outcome = PredictOutcome {
            app: stored.app_name,
            target: target.name,
            prediction_json: json,
            cached: false,
            signature_cached,
        };
        Ok(Arc::new(Reply::new(pkey, outcome)?))
    }

    /// The reply kept for `alias`'s signature on `target`, while its
    /// prediction is indexed; the caller holds the store lock.
    fn kept(&self, store: &SignatureStore, alias: &str, target: &str) -> Option<Arc<Reply>> {
        let slot = (store.lookup_alias(alias)?.digest, target.to_string());
        let reply = self.shared.replies.lock().by_slot.get(&slot).cloned()?;
        store.entry(&reply.key)?;
        if pas2p_obs::enabled() {
            pas2p_obs::counter("store.hit").add(1);
        }
        Some(reply)
    }

    /// `batch`: put every app not yet in the store through
    /// `ensure_signature` — the path of a `submit`, single-flighted with
    /// every other request — as one farm task per app, each under its
    /// own panic boundary and `deadline_ms` token, then serve the apps ×
    /// targets prediction matrix through the cache path.
    pub fn batch(
        &self,
        apps: &[String],
        nprocs: u32,
        base_name: &str,
        targets: &[String],
        workers: Option<usize>,
        deadline_ms: Option<u64>,
    ) -> Result<Value, String> {
        let resolved: Vec<Resolved> = apps
            .iter()
            .map(|name| self.resolve(name, nprocs, base_name))
            .collect::<Result<_, String>>()?;

        // Which apps still need Stage A? One short lock for the whole
        // census — no compute happens under it, and a stored signature
        // is not read just to be called cached.
        let mut missing: Vec<(&String, Resolved)> = Vec::new();
        let mut statuses = serde_json::Map::new();
        {
            let store = self.shared.store.lock();
            for (name, resolved) in apps.iter().zip(resolved) {
                if store.lookup_alias(&resolved.alias).is_some() {
                    statuses.insert(name.clone(), json!("cached"));
                } else if !missing.iter().any(|(listed, _)| *listed == name) {
                    // A name listed twice is one job, with one status.
                    missing.push((name, resolved));
                }
            }
        }

        let deadline = deadline_ms.map(Duration::from_millis);
        let workers = pas2p_obs::farm::workers(workers);
        let jobs = pas2p_obs::farm::map(workers, "batch worker", missing, |(name, resolved)| {
            let status = match guarded(deadline, || self.ensure_signature(&resolved)) {
                // Another request published it since the census.
                Ok((_, _, true)) => "cached",
                Ok((_, _, false)) => "ok",
                Err(Stopped::TimedOut { .. }) => "timed-out",
                Err(Stopped::Failed(_) | Stopped::Panicked(_)) => "failed",
            };
            (name, status)
        });
        for (name, status) in jobs {
            statuses.insert(name.clone(), json!(status));
        }

        let mut predictions = Vec::new();
        for name in apps {
            for target in targets {
                match self.reply(None, name, nprocs, base_name, target) {
                    Ok(reply) => {
                        let outcome = &reply.outcome;
                        predictions.push(json!({
                            "app": outcome.app,
                            "target": outcome.target,
                            "cached": outcome.cached,
                            "prediction": reply.value["prediction"],
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
            "jobs": Value::Object(statuses),
            "predictions": predictions,
        }))
    }

    /// `stats`: request counters, store shape, and the store report.
    /// Takes the store lock (unlike `health`).
    pub fn stats(&self) -> Value {
        let stats = &self.shared.stats;
        let store = self.shared.store.lock();
        let report = store.report();
        let diagnostics: Vec<String> = store
            .diagnostics()
            .iter()
            .map(|d| format!("{}: {}", d.code, d.message))
            .collect();
        json!({
            "requests": stats.requests.load(Ordering::SeqCst),
            "shed": stats.shed.load(Ordering::SeqCst),
            "timeouts": stats.timeouts.load(Ordering::SeqCst),
            "entries": store.len(),
            "format_version": STORE_FORMAT_VERSION,
            "fingerprint": self.shared.fingerprint,
            "store_report": report,
            "store_diagnostics": diagnostics,
        })
    }

    /// `health`: serving state from atomics only — no lock on this path
    /// but the line probe's one lookup, so it answers even while every
    /// permit holder is wedged behind a gated store or a long Stage-A run.
    fn health(&self) -> Value {
        let stats = &self.shared.stats;
        json!({
            "accepting": stats.accepting.load(Ordering::SeqCst),
            "workers": stats.workers.load(Ordering::SeqCst),
            "queue_capacity": stats.queue_capacity.load(Ordering::SeqCst),
            "queue_depth": stats.queue_depth.load(Ordering::SeqCst),
            "inflight": stats.inflight.load(Ordering::SeqCst),
            "connections": stats.connections.load(Ordering::SeqCst),
            "requests": stats.requests.load(Ordering::SeqCst),
            "shed": stats.shed.load(Ordering::SeqCst),
            "timeouts": stats.timeouts.load(Ordering::SeqCst),
            "entries": stats.entries.load(Ordering::SeqCst),
            "deadline_ms": self.shared.deadline.map(|d| d.as_millis() as u64),
        })
    }

    /// Flush the store index to disk (graceful-shutdown step).
    pub(crate) fn flush_store(&self) {
        let mut store = self.shared.store.lock();
        if let Err(e) = store.flush_index() {
            eprintln!("pas2p serve: flushing store index on shutdown: {e}");
        }
    }

    /// Count one malformed line and build its classified `invalid`
    /// answer.
    pub(crate) fn invalid(&self, why: &dyn std::fmt::Display) -> Response {
        self.count_request();
        Response::failure("invalid", "invalid", format!("malformed request: {why}"))
    }

    /// Count one refusal and build its classified `busy` answer.
    pub(crate) fn shed(&self, op: &'static str, why: &str) -> Response {
        self.shared.stats.shed.fetch_add(1, Ordering::SeqCst);
        if pas2p_obs::enabled() {
            pas2p_obs::counter("serve.shed").add(1);
        }
        Response::failure(op, "busy", format!("{why}; retry later"))
    }

    /// Take a compute permit, waiting in line while all `workers` are
    /// out and the line is shorter than `queue_capacity`; a full line
    /// sheds at once, so a saturated service answers `busy` fast
    /// instead of accumulating unbounded work. The line is bounded, not
    /// ordered: whoever the condvar wakes goes next.
    fn admit(&self, op: &'static str) -> Result<Permit<'_>, Response> {
        let Shared {
            stats,
            gate,
            gate_cv,
            ..
        } = &*self.shared;
        let mut held = gate.lock();
        let full = || {
            let workers = stats.workers.load(Ordering::SeqCst);
            workers > 0 && stats.inflight.load(Ordering::SeqCst) >= workers
        };
        if full() {
            let capacity = stats.queue_capacity.load(Ordering::SeqCst);
            if stats.queue_depth.load(Ordering::SeqCst) >= capacity {
                return Err(self.shed(op, "request queue full"));
            }
            let depth = stats.queue_depth.fetch_add(1, Ordering::SeqCst) + 1;
            set_gauge("serve.queue", depth);
            while full() {
                gate_cv.wait(&mut held);
            }
            let depth = stats.queue_depth.fetch_sub(1, Ordering::SeqCst) - 1;
            set_gauge("serve.queue", depth);
        }
        let inflight = stats.inflight.fetch_add(1, Ordering::SeqCst) + 1;
        set_gauge("serve.inflight", inflight);
        Ok(Permit(&self.shared))
    }

    fn count_request(&self) {
        self.shared.stats.requests.fetch_add(1, Ordering::SeqCst);
        if pas2p_obs::enabled() {
            pas2p_obs::counter("serve.requests").add(1);
        }
    }

    /// Answer one compute op on the calling thread: permit, stage
    /// profile, and the work under [`guarded`]. A request that failed
    /// after a checkpoint found its deadline passed answers
    /// `code:"timeout"` (one that finished anyway keeps its result); any
    /// other panic answers `code:"panic"`.
    fn compute(
        &self,
        op: &'static str,
        stage: &'static str,
        items: u64,
        deadline: Option<Duration>,
        work: impl FnOnce() -> Result<Response, String>,
    ) -> Response {
        let _permit = match self.admit(op) {
            Ok(permit) => permit,
            Err(busy) => return busy,
        };
        self.count_request();
        let mut st = pas2p_obs::stage(stage);
        st.items(items);
        let outcome = guarded(deadline, work);
        st.finish();
        let (code, error) = match outcome {
            Ok(response) => return response,
            Err(Stopped::TimedOut { error, overrun }) => {
                self.shared.stats.timeouts.fetch_add(1, Ordering::SeqCst);
                if pas2p_obs::enabled() {
                    pas2p_obs::counter("serve.timeout").add(1);
                    pas2p_obs::histogram("serve.timeout_overrun_us")
                        .record(overrun.as_micros() as u64);
                }
                ("timeout", error)
            }
            Err(Stopped::Failed(error)) => ("error", error),
            Err(Stopped::Panicked(error)) => ("panic", error),
        };
        Response::failure(op, code, error)
    }

    /// Decode and execute one protocol line: malformed lines and the
    /// control plane (`ping`, `health`, `shutdown`) are answered at
    /// once, without a permit; compute ops go through
    /// `compute`. Returns the response and whether
    /// the serve loop should stop.
    pub fn handle_line(&self, line: &str) -> (Response, bool) {
        self.answer(line, true)
    }

    /// `handle_line`, with a predict's `result` only if asked. A kept
    /// line is found as read, under `replies` alone, and admitted like any
    /// predict; it is answered by what its alias and target keep now, else
    /// parsed as a predict. Every other line is parsed.
    fn answer(&self, line: &str, result: bool) -> (Response, bool) {
        let deadline = self.shared.deadline;
        let kept = self.shared.replies.lock().by_line.get(line).cloned();
        if let Some((alias, target)) = kept {
            let response = self.compute("predict", "serve.predict", 1, deadline, || {
                let hit = self.kept(&self.shared.store.lock(), &alias, &target);
                if let Some(reply) = hit {
                    return Ok(reply.response(result));
                }
                let Ok(Request::Predict {
                    app,
                    nprocs,
                    base,
                    target,
                }) = Request::from_line(line)
                else {
                    unreachable!("only a predict line is kept");
                };
                let reply = self.reply(None, &app, nprocs, &base, &target)?;
                Ok(reply.response(result))
            });
            return (response, false);
        }
        let request = match Request::from_line(line) {
            Ok(request) => request,
            Err(e) => return (self.invalid(&e), false),
        };
        let op = request.op();
        let stop = matches!(request, Request::Shutdown);
        if matches!(request, Request::Ping | Request::Health | Request::Shutdown) {
            // Counted here: a compute op counts once it holds a permit.
            self.count_request();
        }
        let response = match request {
            Request::Submit { app, nprocs, base } => {
                self.compute(op, "serve.submit", 1, deadline, || {
                    let outcome = self.submit(&app, nprocs, &base)?;
                    let result = serde_json::to_value(outcome).map_err(|e| e.to_string())?;
                    Ok(Response::success(op, result))
                })
            }
            Request::Predict {
                app,
                nprocs,
                base,
                target,
            } => self.compute(op, "serve.predict", 1, deadline, || {
                let reply = self.reply(Some(line), &app, nprocs, &base, &target)?;
                Ok(reply.response(result))
            }),
            // Batch carries its own per-job deadline; the service
            // deadline does not wrap it — only the panic boundary.
            Request::Batch {
                apps,
                nprocs,
                base,
                targets,
                workers,
                deadline_ms,
            } => self.compute(op, "serve.batch", apps.len() as u64, None, || {
                let result = self.batch(&apps, nprocs, &base, &targets, workers, deadline_ms)?;
                Ok(Response::success(op, result))
            }),
            Request::Stats => self.compute(op, "serve.stats", 1, None, || {
                Ok(Response::success(op, self.stats()))
            }),
            Request::Ping => Response::success(op, json!({"pong": true})),
            Request::Health => Response::success(op, self.health()),
            Request::Shutdown => Response::success(op, json!({"stopping": true})),
        };
        (response, stop)
    }

    /// Protocol line in, response line out: skip a blank line, else
    /// answer it as [`PredictionService::handle_line`] does, without a
    /// deep copy of a predict's `result`, and write the rendered response
    /// and its newline in one write, then flush. The stdin loop and every
    /// socket connection call this and differ only in how they read. `Break`
    /// ends the caller's read loop: with `true` because the line asked
    /// the serve loop to stop, with `false` because it passed
    /// [`MAX_LINE_BYTES`] — answered once as malformed, and nowhere to
    /// resynchronise after it.
    pub(crate) fn respond(
        &self,
        line: &str,
        output: &mut impl Write,
    ) -> std::io::Result<ControlFlow<bool>> {
        let (response, flow) = if line.len() > MAX_LINE_BYTES {
            let why = format!("line longer than {MAX_LINE_BYTES} bytes");
            (self.invalid(&why), ControlFlow::Break(false))
        } else if line.trim().is_empty() {
            return Ok(ControlFlow::Continue(()));
        } else {
            match self.answer(line, false) {
                (response, true) => (response, ControlFlow::Break(true)),
                (response, false) => (response, ControlFlow::Continue(())),
            }
        };
        let mut text = response.render();
        text.push('\n');
        output.write_all(text.as_bytes())?;
        output.flush()?;
        Ok(flow)
    }

    /// Serve newline-delimited JSON requests from `input`, writing one
    /// response line each to `output`, until EOF, a `shutdown` or an
    /// over-long line. The final response is flushed before the loop
    /// exits, and the store index is flushed to disk on the way out.
    pub fn serve(&self, mut input: impl BufRead, mut output: impl Write) -> std::io::Result<()> {
        let mut line = String::new();
        while read_bounded_line(&mut input, &mut line)? > 0 {
            if self.respond(&line, &mut output)?.is_break() {
                break;
            }
            line.clear();
        }
        self.shared.stats.accepting.store(false, Ordering::SeqCst);
        self.flush_store();
        Ok(())
    }
}

/// Longest request line either read loop accepts, newline included. The
/// largest legitimate request is a `batch` app list of a few hundred
/// bytes; without a cap, one client that never sends a newline grows
/// the process's memory until it dies.
pub(crate) const MAX_LINE_BYTES: usize = 1 << 20;

/// Largest `nprocs` a request line may carry: four times the paper's
/// largest run (Table 6, 256 processes). A simulated rank is an OS
/// thread and thread start-up has no cancellation checkpoint, so an
/// unbounded count lets one line stall the server past any deadline.
pub(crate) const MAX_NPROCS: u32 = 1024;

/// `read_line` that never takes `line` more than one byte beyond
/// [`MAX_LINE_BYTES`] — enough for the caller to see the cap was passed.
/// Appends, so a socket's partial line survives a read-timeout tick.
pub(crate) fn read_bounded_line(
    reader: &mut impl BufRead,
    line: &mut String,
) -> std::io::Result<usize> {
    let room = (MAX_LINE_BYTES + 1).saturating_sub(line.len()) as u64;
    reader.by_ref().take(room).read_line(line)
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

    #[test]
    fn nprocs_above_the_bound_is_invalid_before_anything_is_resolved() {
        let root = temp_root("nprocs");
        let store = SignatureStore::open(&root).expect("open store");
        let resolve: AppResolver = Box::new(|name, nprocs| panic!("resolved {name} x {nprocs}"));
        let svc = PredictionService::new(Pas2p::default(), store, resolve);
        for op in ["submit", "predict", "batch"] {
            let line = format!(
                r#"{{"op":"{op}","app":"masterworker","apps":["cg"],"target":"B","nprocs":70000}}"#
            );
            let (response, stop) = svc.handle_line(&line);
            assert!(!response.ok && !stop);
            assert_eq!(response.code, Some("invalid"), "{op}");
            let error = response.error.expect("the reason");
            assert!(error.contains("at most 1024"), "{error}");
        }
        let (response, _) = svc.handle_line(r#"{"op":"ping"}"#);
        assert!(response.ok, "the line behind it is answered");
        let at =
            |n: u64| Request::from_line(&format!(r#"{{"op":"submit","app":"cg","nprocs":{n}}}"#));
        assert!(at(u64::from(MAX_NPROCS)).is_ok());
        assert!(at(u64::from(MAX_NPROCS) + 1).is_err());
        let _ = std::fs::remove_dir_all(&root);
    }

    /// `from_line` reads named keys only: a client that still sends the
    /// retired `retries` is served, not refused.
    #[test]
    fn a_batch_line_that_still_carries_retries_is_answered_as_one_without() {
        let reply = |tag: &str, line: &str| {
            let root = temp_root(tag);
            let (response, _) = service(&root).handle_line(line);
            let _ = std::fs::remove_dir_all(&root);
            assert!(response.ok, "{:?}", response.error);
            response.render()
        };
        let with = reply(
            "with-retries",
            r#"{"op":"batch","apps":["cg"],"nprocs":2,"targets":["B"],"retries":1}"#,
        );
        let without = reply(
            "without-retries",
            r#"{"op":"batch","apps":["cg"],"nprocs":2,"targets":["B"]}"#,
        );
        assert_eq!(with, without);
        assert!(with.contains(r#""jobs":{"cg":"ok"}"#), "{with}");
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
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "reported, not hung"
        );
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
    fn a_request_stopped_at_a_checkpoint_answers_timeout_and_a_panic_stays_a_panic() {
        let root = temp_root("checkpoint");
        // Expired from the start: the first checkpoint of the cold path
        // stops the request.
        let svc = service(&root).with_deadline(Some(Duration::ZERO));
        let submit = r#"{"op":"submit","app":"cg","nprocs":4}"#;
        let (response, stop) = svc.handle_line(submit);
        assert!(!response.ok && !stop);
        assert_eq!(response.code, Some("timeout"), "{:?}", response.error);
        assert_eq!(
            response.error.as_deref(),
            Some("deadline of 0.000s expired")
        );
        assert_eq!(svc.serve_stats().timeouts(), 1);
        assert_eq!(svc.store_len(), 0, "nothing was published");
        let _ = std::fs::remove_dir_all(&root);

        // A panic under a deadline nobody found expired is a panic.
        let root = temp_root("genuine-panic");
        let store = SignatureStore::open(&root).expect("open store");
        let resolve: AppResolver = Box::new(|_, _| panic!("resolver bug"));
        let svc = PredictionService::new(Pas2p::default(), store, resolve)
            .with_deadline(Some(Duration::from_secs(3600)));
        let (response, _) = svc.handle_line(submit);
        assert_eq!(response.code, Some("panic"));
        assert_eq!(response.error.as_deref(), Some("panicked: resolver bug"));
        assert_eq!(svc.serve_stats().timeouts(), 0, "not counted as a timeout");
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A catalog app whose rank 0 counts its runs and, until the gate is
    /// opened, blocks each of them inside the simulator.
    struct GatedApp {
        inner: Box<dyn MpiApp>,
        gate: Arc<Gate>,
    }

    struct Gate {
        runs: AtomicU32,
        open: std::sync::Mutex<bool>,
        opened: std::sync::Condvar,
        blocked: std::sync::Mutex<std::sync::mpsc::Sender<()>>,
    }

    impl MpiApp for GatedApp {
        fn name(&self) -> String {
            self.inner.name()
        }
        fn nprocs(&self) -> u32 {
            self.inner.nprocs()
        }
        fn workload(&self) -> String {
            self.inner.workload()
        }
        fn make_rank(&self, rank: u32) -> Box<dyn pas2p_signature::RankProgram> {
            if rank == 0 {
                self.gate.runs.fetch_add(1, Ordering::SeqCst);
                let mut open = self.gate.open.lock().expect("gate");
                if !*open {
                    self.gate
                        .blocked
                        .lock()
                        .expect("gate")
                        .send(())
                        .expect("test listens");
                }
                while !*open {
                    open = self.gate.opened.wait(open).expect("gate");
                }
            }
            self.inner.make_rank(rank)
        }
    }

    #[test]
    fn a_single_flight_waiter_past_its_deadline_times_out_without_a_second_stage_a() {
        let root = temp_root("waiter");
        let (blocked_tx, blocked_rx) = std::sync::mpsc::channel();
        let gate = Arc::new(Gate {
            runs: AtomicU32::new(0),
            open: std::sync::Mutex::new(false),
            opened: std::sync::Condvar::new(),
            blocked: std::sync::Mutex::new(blocked_tx),
        });
        let store = SignatureStore::open(&root).expect("open store");
        let resolver_gate = Arc::clone(&gate);
        let resolve: AppResolver = Box::new(move |name, nprocs| {
            Some(Box::new(GatedApp {
                inner: pas2p_apps::by_name(name, nprocs)?,
                gate: Arc::clone(&resolver_gate),
            }))
        });
        let svc = PredictionService::new(Pas2p::default(), store, resolve)
            .with_deadline(Some(Duration::from_millis(100)));

        // The leader calls `submit` itself — no request, so no deadline —
        // and is held inside its traced run.
        let leader_svc = svc.clone();
        let leader = std::thread::spawn(move || leader_svc.submit("cg", 4, "A"));
        blocked_rx.recv().expect("the leader reached Stage A");

        // The waiter's deadline passes behind it.
        let (response, _) = svc.handle_line(r#"{"op":"submit","app":"cg","nprocs":4}"#);
        assert_eq!(response.code, Some("timeout"), "{:?}", response.error);
        assert_eq!(svc.serve_stats().timeouts(), 1);
        assert_eq!(gate.runs.load(Ordering::SeqCst), 1, "no duplicate Stage A");

        *gate.open.lock().expect("gate") = true;
        gate.opened.notify_all();
        let led = leader
            .join()
            .expect("leader thread")
            .expect("leader's submit");
        assert!(!led.cached);
        assert_eq!(
            gate.runs.load(Ordering::SeqCst),
            2,
            "the leader's traced run and its checkpointing re-run"
        );
        let after = svc.submit("cg", 4, "A").expect("published");
        assert!(after.cached);
        assert_eq!(after.digest, led.digest);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_simulated_run_under_an_expired_token_unwinds_with_cancelled() {
        use crate::cancel::{with_cancel, CancelToken};
        use pas2p_mpisim::{run_app, Mpi, SimConfig};
        use std::panic::{catch_unwind, AssertUnwindSafe};
        struct Live<'a>(&'a AtomicU32);
        impl Drop for Live<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let live = AtomicU32::new(0);
        let cfg = SimConfig::new(pas2p_machine::cluster_a(), 3, MappingPolicy::Block);
        let token = CancelToken::with_deadline(Duration::ZERO);
        // Left alone this program deadlocks: nobody sends what ranks 1
        // and 2 wait for, and rank 0 ends up waiting for them.
        let result = catch_unwind(AssertUnwindSafe(|| {
            with_cancel(&token, || {
                run_app(&cfg, |ctx| {
                    live.fetch_add(1, Ordering::SeqCst);
                    let _live = Live(&live);
                    if ctx.rank() == 0 {
                        ctx.send(1, 7, b"only message");
                    }
                    ctx.recv(Some((ctx.rank() + 1) % 3), Some(9));
                })
            })
        }));
        let payload = result.expect_err("a cancelled run returns no report");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&crate::cancel::CANCELLED),
            "cancelled, not deadlocked"
        );
        assert!(token.tripped());
        assert_eq!(live.load(Ordering::SeqCst), 0, "every rank has unwound");
    }

    #[test]
    fn a_stored_prediction_that_does_not_parse_is_an_error_not_a_null() {
        let root = temp_root("unparsable");
        let svc = service(&root);
        svc.submit("cg", 4, "A").expect("submit");
        // A payload that passes its checksum but is not JSON, under the
        // key the service will look up.
        let resolved = svc.resolve("cg", 4, "A").expect("resolve");
        let target = PredictionService::resolve_machine("B").expect("preset");
        {
            let mut store = svc.shared.store.lock();
            let sig_key = store.lookup_alias(&resolved.alias).expect("alias");
            let pkey = prediction_key(&sig_key, &target, &svc.shared.policy_label);
            let entry = IndexEntry {
                kind: ArtifactKind::Prediction,
                format_version: STORE_FORMAT_VERSION,
                fingerprint: pkey.fingerprint.clone(),
                app: resolved.app.name(),
                workload: resolved.app.workload(),
                nprocs: 4,
                base: "A".into(),
                target: Some(target.name.clone()),
            };
            store
                .put_prediction_json(&pkey, entry, "{truncated")
                .expect("put");
        }
        let (response, _) =
            svc.handle_line(r#"{"op":"predict","app":"cg","nprocs":4,"target":"B"}"#);
        assert!(!response.ok, "{:?}", response.result);
        assert_eq!(response.code, Some("error"));
        let error = response.error.expect("the reason");
        assert!(
            error.starts_with("stored prediction does not parse"),
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
        // A cached submit answers from the stored payload alone, which
        // holds no phase analysis: every field must still be the cold one.
        let answer = |s: &SubmitOutcome| {
            let SubmitOutcome {
                app,
                phases,
                relevant,
                confidence,
                ..
            } = s.clone();
            (app, phases, relevant, confidence)
        };
        let warm = svc.submit("cg", 4, "A").expect("warm submit");
        assert!(warm.cached, "second submit must hit the store");
        assert_eq!(warm.digest, cold.digest, "same inputs, same address");
        assert_eq!(answer(&warm), answer(&cold));
        // So must a fresh service's, over the reopened store.
        let reopened = service(&root)
            .submit("cg", 4, "A")
            .expect("reopened submit");
        assert!(reopened.cached);
        assert_eq!(reopened.digest, cold.digest);
        assert_eq!(answer(&reopened), answer(&cold));
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

    /// A service over a fresh root whose store counts the files it reads.
    struct Counted {
        root: PathBuf,
        svc: PredictionService,
        io: Arc<pas2p_faults::StoreFaultStats>,
    }

    const PREDICT: &str = r#"{"op":"predict","app":"cg","nprocs":4,"target":"B"}"#;

    impl Counted {
        fn new(tag: &str) -> Counted {
            let root = temp_root(tag);
            let (svc, io) = Self::open(&root);
            Counted { root, svc, io }
        }

        fn open(root: &std::path::Path) -> (PredictionService, Arc<pas2p_faults::StoreFaultStats>) {
            let io = pas2p_faults::FaultStoreIo::new(Vec::new());
            let stats = io.stats();
            let store = SignatureStore::open_with_io(root, Box::new(io)).expect("open store");
            let svc =
                PredictionService::new(Pas2p::default(), store, Box::new(pas2p_apps::by_name));
            (svc, stats)
        }

        /// A fresh service over the same root, as after a restart.
        fn reopen(&mut self) {
            (self.svc, self.io) = Self::open(&self.root);
        }

        /// One predict through the protocol: its line, and how many
        /// files it read.
        fn predict(&self) -> (String, u64) {
            let before = self.io.reads.load(Ordering::SeqCst);
            let (response, _) = self.svc.handle_line(PREDICT);
            assert!(response.ok, "{:?}", response.error);
            (
                response.render(),
                self.io.reads.load(Ordering::SeqCst) - before,
            )
        }

        /// Cold, then the first warm read: the warm line, now kept.
        fn warm(&self) -> String {
            let (cold, _) = self.predict();
            assert!(cold.contains(r#""cached":false"#), "{cold}");
            let lines = self.svc.shared.replies.lock().by_line.len();
            assert_eq!(lines, 0, "a cold reply keeps no line");
            let (warm, reads) = self.predict();
            assert_eq!(reads, 1, "the first warm predict reads the object");
            warm
        }

        /// The keys of cg x 4's signature and of its prediction on B.
        fn keys(&self) -> (StoreKey, StoreKey) {
            let alias = self.svc.resolve("cg", 4, "A").expect("resolve").alias;
            let target = PredictionService::resolve_machine("B").expect("preset");
            let sig_key = self
                .svc
                .shared
                .store
                .lock()
                .lookup_alias(&alias)
                .expect("alias");
            let pkey = prediction_key(&sig_key, &target, &self.svc.shared.policy_label);
            (sig_key, pkey)
        }

        /// Change one payload byte of `key`'s object behind the store's
        /// back.
        fn tamper(&self, key: &StoreKey) {
            let object = self
                .root
                .join("objects")
                .join(format!("{}.json", key.digest));
            let text = std::fs::read_to_string(&object).expect("object");
            std::fs::write(&object, text.replace(r#"payload":"{"#, r#"payload":"{ "#))
                .expect("tamper");
        }

        /// Replies kept, and the bytes put in since the last clear.
        fn kept(&self) -> (usize, usize) {
            let replies = self.svc.shared.replies.lock();
            (replies.by_slot.len(), replies.bytes)
        }
    }

    impl Drop for Counted {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.root);
        }
    }

    #[test]
    fn the_first_get_after_a_put_reads_once_and_the_second_reads_nothing() {
        let s = Counted::new("reply-warm");
        let warm = s.warm();
        assert!(warm.contains(r#""cached":true"#), "{warm}");
        let (again, reads) = s.predict();
        assert_eq!((again.as_str(), reads), (warm.as_str(), 0));
        let payload = s.svc.predict("cg", 4, "A", "B").expect("predict");
        let bytes = payload.prediction_json.len() + warm.len();
        assert_eq!(s.kept(), (1, bytes));
        // The request line is kept apart, with the alias and target it names.
        let alias = s.svc.resolve("cg", 4, "A").expect("resolve").alias;
        let replies = s.svc.shared.replies.lock();
        let named = (alias, "cluster-B".to_string());
        assert_eq!(replies.by_line[PREDICT], named);
        let bytes = PREDICT.len() + named.0.len() + named.1.len();
        assert_eq!(replies.line_bytes, bytes);
    }

    #[test]
    fn every_eviction_drops_the_resident_copy() {
        // A stale configuration: the signature and the prediction go.
        let s = Counted::new("reply-evict-config");
        s.warm();
        let evicted = s.svc.shared.store.lock().evict_stale_configs("another");
        assert_eq!(evicted, 2);
        let (line, _) = s.predict();
        assert!(line.contains(r#""cached":false,"prediction""#), "{line}");
        assert!(line.contains(r#""signature_cached":false"#), "{line}");
        assert_eq!(s.kept().0, 0);

        // A corrupt read: the signature getter reads the same object.
        let s = Counted::new("reply-evict-corrupt");
        s.warm();
        let (_, pkey) = s.keys();
        s.tamper(&pkey);
        assert!(s.svc.shared.store.lock().get_signature(&pkey).is_none());
        assert_eq!(s.svc.store_report().evicted_corrupt, 1);
        let (line, _) = s.predict();
        assert!(line.contains(r#""cached":false,"prediction""#), "{line}");
        assert_eq!(s.kept().0, 0);

        // Another format version, found at open.
        let mut s = Counted::new("reply-evict-version");
        s.warm();
        let index = s.root.join("index.json");
        let text = std::fs::read_to_string(&index).expect("index");
        let current = format!(r#""format_version":{STORE_FORMAT_VERSION},"kind""#);
        std::fs::write(
            &index,
            text.replace(&current, r#""format_version":0,"kind""#),
        )
        .expect("rewrite index");
        s.reopen();
        assert_eq!(s.svc.store_report().evicted_version, 2);
        let (line, _) = s.predict();
        assert!(line.contains(r#""cached":false,"prediction""#), "{line}");
    }

    #[test]
    fn a_re_put_replaces_the_resident_copy() {
        let s = Counted::new("reply-reput");
        let warm = s.warm();
        // Evict the signature alone; its prediction stays indexed.
        let (sig_key, _) = s.keys();
        s.tamper(&sig_key);
        assert!(s.svc.shared.store.lock().get_signature(&sig_key).is_none());
        let (line, _) = s.predict();
        assert!(line.contains(r#""signature_cached":false"#), "{line}");
        // That recompute put the prediction again: the next predict
        // reads back what was published instead of the kept reply.
        assert_eq!(s.predict(), (warm.clone(), 1), "read back");
        assert_eq!(s.predict(), (warm.clone(), 0));
        // The same recompute through the API, which answers no line: the
        // kept line finds its slot empty, so it reads back too.
        s.tamper(&sig_key);
        assert!(s.svc.shared.store.lock().get_signature(&sig_key).is_none());
        let cold = s.svc.predict("cg", 4, "A", "B").expect("recompute");
        assert!(!cold.signature_cached);
        assert_eq!(s.predict(), (warm.clone(), 1), "read back");
        assert_eq!(s.predict(), (warm, 0));
    }

    /// What a kept reply trades: a file that rots after the verified
    /// read is answered from memory by that service and caught by the
    /// next open.
    #[test]
    fn a_tamper_after_a_warm_read_is_caught_by_the_next_open() {
        let mut s = Counted::new("reply-tamper");
        let warm = s.warm();
        let (_, pkey) = s.keys();
        s.tamper(&pkey);
        assert_eq!(s.predict(), (warm, 0), "the verified bytes");
        s.reopen();
        let codes: Vec<String> = s
            .svc
            .store_diagnostics()
            .into_iter()
            .map(|d| d.code)
            .collect();
        assert_eq!(codes, ["STORE-CORRUPT-001"]);
        let (line, _) = s.predict();
        assert!(line.contains(r#""cached":false,"prediction""#), "{line}");
    }

    #[test]
    fn two_spellings_of_one_predict_answer_one_line_each_kept_under_its_own() {
        let s = Counted::new("reply-spellings");
        let warm = s.warm();
        let spellings = [
            r#"{"target":"B","op":"predict","nprocs":4,"app":"cg"}"#,
            r#"{"op":"predict","app":"cg","nprocs":4,"target":"B","note":"ignored"}"#,
        ];
        let reads = s.io.reads.load(Ordering::SeqCst);
        for line in spellings {
            for _ in 0..2 {
                let (response, _) = s.svc.handle_line(line);
                assert_eq!(response.render(), warm, "{line}");
            }
        }
        assert_eq!(s.io.reads.load(Ordering::SeqCst), reads, "no file read");
        let alias = s.svc.resolve("cg", 4, "A").expect("resolve").alias;
        let replies = s.svc.shared.replies.lock();
        let mut lines: Vec<&str> = replies.by_line.keys().map(String::as_str).collect();
        lines.sort_unstable();
        let mut want = [PREDICT, spellings[0], spellings[1]];
        want.sort_unstable();
        assert_eq!(lines, want);
        let named = (alias, "cluster-B".to_string());
        assert!(replies.by_line.values().all(|kept| *kept == named));
        let bytes = want.concat().len() + want.len() * (named.0.len() + named.1.len());
        assert_eq!((replies.by_slot.len(), replies.line_bytes), (1, bytes));
    }

    /// A kept line is probed under `replies` alone: while a writer holds
    /// the store through a slow put, it waits for its permit in the
    /// admission line, where `health` counts it and a full line sheds.
    #[test]
    fn a_kept_line_waits_in_the_admission_line_not_behind_a_writer() {
        use pas2p_faults::{FaultStoreIo, StoreFaultKind, StoreOp};
        let root = temp_root("kept-line-writer");
        let gate = root.join("gate");
        let (cold, _) = service(&root).handle_line(PREDICT);
        assert!(cold.ok, "{:?}", cold.error);
        // Every write of the reopened store blocks until the gate exists.
        let io = FaultStoreIo::new(vec![StoreFaultKind::BlockOnGate {
            op: StoreOp::Write,
            on_op: 1,
            gate: gate.to_string_lossy().into_owned(),
        }]);
        let io_stats = io.stats();
        let store = SignatureStore::open_with_io(&root, Box::new(io)).expect("open store");
        let svc = PredictionService::new(Pas2p::default(), store, Box::new(pas2p_apps::by_name));
        // A verified read keeps the line; the second predict replays it.
        assert!(svc.handle_line(PREDICT).0.ok);
        let warm = svc.handle_line(PREDICT).0.render();
        let stats = svc.serve_stats();
        stats.workers.store(1, Ordering::SeqCst);
        stats.queue_capacity.store(1, Ordering::SeqCst);

        let spawn = |line: &'static str| {
            let svc = svc.clone();
            std::thread::spawn(move || svc.handle_line(line).0.render())
        };
        let writer = spawn(r#"{"op":"submit","app":"ft","nprocs":4}"#);
        let wedged = until(|| io_stats.gated_ops.load(Ordering::SeqCst) == 1);
        let kept = spawn(PREDICT);
        let queued = wedged && until(|| stats.queue_depth.load(Ordering::SeqCst) == 1);
        let shed = queued.then(|| svc.handle_line(PREDICT).0.code);
        std::fs::write(&gate, b"open").expect("open the gate");
        assert!(wedged, "the submit never reached its put");
        assert!(queued, "the kept line did not wait in the admission line");
        assert_eq!(shed, Some(Some("busy")), "a full line sheds a kept line");
        assert!(writer.join().expect("writer").contains(r#""ok":true"#));
        assert_eq!(kept.join().expect("kept line"), warm);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A verified read runs under the store lock, never under `replies`,
    /// which every line probes: while that read is gated, `ping` and
    /// `health` still answer.
    #[test]
    fn the_control_plane_answers_while_a_warm_read_is_gated() {
        use pas2p_faults::{FaultStoreIo, StoreFaultKind, StoreOp};
        let root = temp_root("warm-read-gated");
        let gate = root.join("gate");
        let (cold, _) = service(&root).handle_line(PREDICT);
        assert!(cold.ok, "{:?}", cold.error);
        // Every read of the reopened store blocks while the gate is gone.
        std::fs::write(&gate, b"open").expect("open the gate");
        let io = FaultStoreIo::new(vec![StoreFaultKind::BlockOnGate {
            op: StoreOp::Read,
            on_op: 1,
            gate: gate.to_string_lossy().into_owned(),
        }]);
        let io_stats = io.stats();
        let store = SignatureStore::open_with_io(&root, Box::new(io)).expect("open store");
        let svc = PredictionService::new(Pas2p::default(), store, Box::new(pas2p_apps::by_name));
        std::fs::remove_file(&gate).expect("close the gate");

        let spawn = |lines: Vec<&'static str>| {
            let svc = svc.clone();
            std::thread::spawn(move || {
                let answers = lines.into_iter().map(|line| svc.handle_line(line).0);
                answers
                    .map(|response| response.render())
                    .collect::<Vec<_>>()
            })
        };
        let reader = spawn(vec![PREDICT]);
        let wedged = until(|| io_stats.gated_ops.load(Ordering::SeqCst) == 1);
        let control = spawn(vec![r#"{"op":"ping"}"#, r#"{"op":"health"}"#]);
        let answered = wedged && until(|| control.is_finished());
        std::fs::write(&gate, b"open").expect("open the gate");
        assert!(wedged, "the warm read never reached its gate");
        assert!(answered, "ping and health waited for the gated read");
        let control = control.join().expect("control plane");
        assert!(control.iter().all(|line| line.contains(r#""ok":true"#)));
        let warm = reader.join().expect("reader");
        assert!(warm[0].contains(r#""cached":true"#), "{warm:?}");
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Whether `what` holds within 20 s, asked every 5 ms.
    fn until(what: impl Fn() -> bool) -> bool {
        (0..4000).any(|_| {
            what() || {
                std::thread::sleep(std::time::Duration::from_millis(5));
                false
            }
        })
    }

    /// A writer that counts its `write` calls.
    #[derive(Default)]
    struct Writes {
        calls: usize,
        bytes: Vec<u8>,
    }

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_response_is_one_write() {
        let s = Counted::new("one-write");
        let warm = s.warm();
        for line in [r#"{"op":"ping"}"#, "{", PREDICT, PREDICT] {
            let mut out = Writes::default();
            let flow = s.svc.respond(line, &mut out).expect("respond");
            assert!(flow.is_continue(), "{line}");
            assert_eq!(out.calls, 1, "{line}");
            assert!(out.bytes.ends_with(b"\n"), "{line}");
        }
        let mut out = Writes::default();
        let flow = s.svc.respond(PREDICT, &mut out).expect("respond");
        assert!(flow.is_continue());
        assert_eq!(out.bytes, format!("{warm}\n").into_bytes());
    }

    #[test]
    fn resident_bytes_never_exceed_the_budget() {
        let reply = |len: usize| {
            Arc::new(Reply {
                key: StoreKey {
                    digest: String::new(),
                    fingerprint: String::new(),
                },
                outcome: PredictOutcome {
                    app: String::new(),
                    target: String::new(),
                    prediction_json: "x".repeat(len),
                    cached: true,
                    signature_cached: true,
                },
                value: Value::Null,
                line: Arc::from("line"),
            })
        };
        let third = RESIDENT_BUDGET / 3;
        let mut replies = Replies::default();
        for slot in ["a", "b", "c"] {
            replies.insert((slot.to_string(), String::new()), reply(third));
            assert!(replies.bytes <= RESIDENT_BUDGET);
        }
        // The third insert went over: the set was cleared first.
        let c = (String::from("c"), String::new());
        assert_eq!(replies.by_slot.keys().collect::<Vec<_>>(), [&c]);
        assert_eq!(replies.bytes, third + 4);
        // A reply over the budget is not kept, and clears nothing.
        replies.insert(("d".to_string(), String::new()), reply(RESIDENT_BUDGET));
        assert_eq!((replies.by_slot.len(), replies.bytes), (1, third + 4));

        // Lines of MAX_KEPT_LINE bytes with alias and target: the one that
        // would pass LINE_BUDGET clears the lines, and the reply stays.
        let kept = LINE_BUDGET / MAX_KEPT_LINE;
        for n in 0..=kept {
            let line = format!("{n:0width$}", width = MAX_KEPT_LINE - 2);
            replies.insert_line(Some(&line), "a", "b");
            assert!(replies.line_bytes <= LINE_BUDGET);
        }
        assert_eq!(
            (replies.by_line.len(), replies.line_bytes),
            (1, MAX_KEPT_LINE)
        );
        assert_eq!((replies.by_slot.len(), replies.bytes), (1, third + 4));
        // A longer line is not kept, and clears nothing.
        let long = "x".repeat(MAX_KEPT_LINE + 1);
        replies.insert_line(Some(&long), "a", "b");
        assert_eq!(
            (replies.by_line.len(), replies.line_bytes),
            (1, MAX_KEPT_LINE)
        );
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
            crate::server::serve_unix_with(&svc, &socket_path, Default::default())
                .expect("serve_unix_with");
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
