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
//! A signature enters the store one way, `ensure_signature` (see
//! [`PredictionService::batch`]), and every prediction is served
//! through the one path of a `predict`. The wire is `protocol.rs`, the
//! permits `admission.rs`, and the warm replies `replies.rs`.
//!
//! A request runs on the thread that read it, behind a permit, a panic
//! boundary and the service deadline's
//! [`CancelToken`](crate::cancel::CancelToken) (`respond`, `compute`;
//! DESIGN.md, "Permit, then run here").
//!
//! Observability: the `serve.*` counters, gauges, histogram and stage
//! profiles and the store's `store.*` counters that DESIGN.md lists.

use crate::admission::ServeStats;
use crate::cancel::{guarded, remaining, Stopped};
use crate::pipeline::Pas2p;
use crate::protocol::{PredictOutcome, Request, Response, SubmitOutcome};
use crate::replies::{Replies, Reply};
use parking_lot::{Condvar, Mutex};
use pas2p_machine::{preset_by_name, MachineModel, MappingPolicy};
use pas2p_obs::{Counter, Histogram};
use pas2p_signature::{MpiApp, Prediction};
use pas2p_store::{
    prediction_key, signature_alias, signature_key, ArtifactKind, IndexEntry, Sidecar,
    SignatureStore, StoreKey, StoreReport, StoredSignature, STORE_FORMAT_VERSION,
};
use serde_json::{json, Value};
use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

static TIMEOUTS: Counter = Counter::new("serve.timeout");
static TIMEOUT_OVERRUN_US: Histogram = Histogram::new("serve.timeout_overrun_us");

/// Resolves an application name + process count to a runnable app. The
/// catalog lives in `pas2p-apps`, which sits above this crate in the
/// dependency graph, so the caller injects the lookup (the CLI passes
/// `pas2p_apps::by_name`). `Sync` because connections resolve
/// concurrently through a shared service.
pub type AppResolver = Box<dyn Fn(&str, u32) -> Option<Box<dyn MpiApp>> + Send + Sync>;

/// Zero the host wall-clock seconds so the serialized prediction is a
/// stable artifact: they vary run to run and would break the
/// byte-identical cache-hit contract.
pub fn canonicalize_prediction(prediction: &mut Prediction) {
    prediction.wall_seconds = 0.0;
}

/// Everything clones of a [`PredictionService`] share. The store mutex
/// is held for lookups and publishes only — Stage-A analysis and
/// Stage-B execution run outside it — and `pending` + its condvar
/// collapse concurrent Stage-A work on the same signature into a single
/// computation (the paper's characterize-*once* promise, kept under
/// concurrency).
struct Shared {
    pas2p: Pas2p,
    store: Mutex<SignatureStore>,
    replies: Replies,
    resolve: AppResolver,
    policy: MappingPolicy,
    /// `policy` as it enters prediction keys.
    policy_label: String,
    /// [`Pas2p::fingerprint`] of `pas2p`, which never changes.
    fingerprint: String,
    deadline: Option<Duration>,
    stats: ServeStats,
    pending: Mutex<HashSet<String>>,
    pending_cv: Condvar,
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
                fingerprint: pas2p.fingerprint(),
                pas2p,
                store: Mutex::new(store),
                replies: Replies::default(),
                resolve,
                policy,
                deadline: None,
                stats,
                pending: Mutex::new(HashSet::new()),
                pending_cv: Condvar::new(),
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
    /// [`Pas2p::fingerprint`]).
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
            // here, without starting a Stage A of its own. An entry
            // just evicted as corrupt/missing falls through and is
            // recomputed; the store already reported it.
            let cached = self.with_store(|store| {
                let key = store.lookup_alias(alias)?;
                let (payload, _sidecar) = store.get_signature(&key)?;
                Some((key, payload))
            });
            if let Some((key, payload)) = cached {
                return Ok((key, payload, true));
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
        let trace = pas2p.record(app.as_ref(), base, policy.clone());
        // The content address (the encoded trace, the base machine and
        // the configuration) is hashed on the idle core while this
        // thread runs Stage A; `key.wait` is what Stage A did not hide.
        let (key, ((analysis, _logical), wait)) = pas2p_obs::farm::beside(
            "key",
            || {
                let mut st = pas2p_obs::stage("key");
                let bytes = pas2p_trace::format::encode(&trace);
                st.items(bytes.len() as u64);
                let key = signature_key(&bytes, base, &shared.fingerprint);
                st.finish();
                key
            },
            || {
                let stage_a = pas2p.analyze_trace(&app.name(), &app.workload(), &trace, None);
                (stage_a, pas2p_obs::stage("key.wait"))
            },
        );
        wait.finish();
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
        };
        // Everything above ran without the store lock; only the publish
        // takes it.
        self.with_store(|store| {
            store
                .put_signature(&key, &payload, sidecar)
                .map_err(|e| e.to_string())?;
            let entries = store.len() as u64;
            shared.stats.entries.store(entries, Ordering::SeqCst);
            Ok::<_, String>(())
        })?;
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
        let replies = &self.shared.replies;
        let resolved = self.resolve(app_name, nprocs, base_name)?;

        // Fast path: alias → signature key → reply or prediction key.
        {
            let mut store = self.shared.store.lock();
            if let Some(reply) = self.kept(&store, &resolved.alias, &target.name) {
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
        self.with_store(|store| {
            store
                .put_prediction_json(&pkey, entry, &json)
                .map_err(|e| e.to_string())?;
            replies.remove(&slot);
            let entries = store.len() as u64;
            self.shared.stats.entries.store(entries, Ordering::SeqCst);
            Ok::<_, String>(())
        })?;
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
        let reply = self.shared.replies.get(&slot)?;
        store.entry(&reply.key)?;
        pas2p_store::HITS.inc();
        Some(reply)
    }

    /// `f` under the store lock, as the `store` stage: profiled, and the
    /// cancellation boundary of a request about to wait for the lock.
    fn with_store<T>(&self, f: impl FnOnce(&mut SignatureStore) -> T) -> T {
        let st = pas2p_obs::stage("store");
        let out = f(&mut self.shared.store.lock());
        st.finish();
        out
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
                predictions.push(match self.reply(None, name, nprocs, base_name, target) {
                    Ok(reply) => json!({
                        "app": reply.outcome.app,
                        "target": reply.outcome.target,
                        "cached": reply.outcome.cached,
                        "prediction": reply.value["prediction"],
                    }),
                    Err(error) => json!({"app": name, "target": target, "error": error}),
                });
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
        let stats = &self.shared.stats;
        let _permit = match stats.admit(op) {
            Ok(permit) => permit,
            Err(busy) => return busy,
        };
        stats.count_request();
        let mut st = pas2p_obs::stage(stage);
        st.items(items);
        let outcome = guarded(deadline, work);
        st.finish();
        let (code, error) = match outcome {
            Ok(response) => return response,
            Err(Stopped::TimedOut { error, overrun }) => {
                stats.timeouts.fetch_add(1, Ordering::SeqCst);
                TIMEOUTS.inc();
                TIMEOUT_OVERRUN_US.record(overrun.as_micros() as u64);
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
    pub(crate) fn answer(&self, line: &str, result: bool) -> (Response, bool) {
        let deadline = self.shared.deadline;
        let stats = &self.shared.stats;
        if let Some((alias, target)) = self.shared.replies.line(line) {
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
            Err(e) => return (stats.invalid(&e), false),
        };
        let op = request.op();
        let stop = matches!(request, Request::Shutdown);
        if matches!(request, Request::Ping | Request::Health | Request::Shutdown) {
            // Counted here: a compute op counts once it holds a permit.
            stats.count_request();
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
            Request::Health => Response::success(op, stats.health(deadline)),
            Request::Shutdown => Response::success(op, json!({"stopping": true})),
        };
        (response, stop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Pas2p;
    use crate::protocol::MAX_NPROCS;
    use std::io::{Cursor, Write};
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
            let (_, _, lines, _) = self.svc.shared.replies.census();
            assert!(lines.is_empty(), "a cold reply keeps no line");
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
            let (slots, bytes, _, _) = self.svc.shared.replies.census();
            (slots, bytes)
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
        let (_, _, lines, line_bytes) = s.svc.shared.replies.census();
        let named = (alias, "cluster-B".to_string());
        assert_eq!(lines[PREDICT], named);
        let bytes = PREDICT.len() + named.0.len() + named.1.len();
        assert_eq!(line_bytes, bytes);
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

        // Another format version, found at open in the objects.
        let mut s = Counted::new("reply-evict-version");
        s.warm();
        let current = format!(r#""format_version":{STORE_FORMAT_VERSION},"kind""#);
        for file in std::fs::read_dir(s.root.join("objects")).expect("objects") {
            let object = file.expect("object").path();
            let text = std::fs::read_to_string(&object).expect("object");
            std::fs::write(
                &object,
                text.replace(&current, r#""format_version":0,"kind""#),
            )
            .expect("rewrite object");
        }
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
        let (slots, _, kept, line_bytes) = s.svc.shared.replies.census();
        let mut lines: Vec<&str> = kept.keys().map(String::as_str).collect();
        lines.sort_unstable();
        let mut want = [PREDICT, spellings[0], spellings[1]];
        want.sort_unstable();
        assert_eq!(lines, want);
        let named = (alias, "cluster-B".to_string());
        assert!(kept.values().all(|kept| *kept == named));
        let bytes = want.concat().len() + want.len() * (named.0.len() + named.1.len());
        assert_eq!((slots, line_bytes), (1, bytes));
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
