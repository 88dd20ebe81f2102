//! The traced pass: the calls a request makes, replayed one by one
//! in-process with a span around each, plus what the counters the
//! program already exposes say. Nothing inside the program is patched;
//! every figure comes from timing public functions from here.
//!
//! The sample is drawn from the seed and covers the inputs of all five
//! workloads — catalog tuples for the Stage-A and Stage-B steps, warm
//! predicts for the service and socket hops, ring traces for the
//! analysis path — so the ledger reads the same whichever workload
//! names the run.

use crate::catalogue::PER_LAYER;
use crate::e2e::{self, Checker, Env, Tally};
use crate::report::{Metric, RunOutcome};
use crate::rng::SplitMix64;
use crate::server::Server;
use crate::stats::{median, quantile_sorted};
use crate::storeio::{CountingIo, IoCounts};
use crate::workload::{self, Class, Op, Tuple};
use pas2p::{canonicalize_prediction, BatchJob, BatchOptions, Pas2p, PredictionService, Request};
use pas2p_check::{Artifacts, CheckEngine};
use pas2p_machine::{preset_by_name, MachineModel, MappingPolicy};
use pas2p_obs::{ChromeTrace, PID_HOST};
use pas2p_phases::{extract_phases, PhaseTable, SimilarityConfig};
use pas2p_signature::{construct_signature, execute_signature, run_plain, run_traced};
use pas2p_store::{
    config_fingerprint, prediction_key, signature_key, ArtifactKind, IndexEntry, Sidecar,
    SignatureStore, StoreKey, StoredSignature, STORE_FORMAT_VERSION,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Entries the scale test inflates a store to: every put rewrites and
/// fsyncs the whole index, and `open` verifies every object.
const STORE_SCALE: usize = 1024;
/// Iterations per timed batch of a microsecond-scale call.
const MICRO_ITERS: usize = 2_000;
/// Batches per microsecond-scale call; the median batch is reported.
const MICRO_BATCHES: usize = 5;
/// Warm predicts of the socket session: enough for a p99.9.
const SESSION_WARM: usize = 10_000;
/// Tuples submitted cold at the start of the socket session.
const SESSION_TUPLES: usize = 4;
/// Repetitions of a single-shot measurement; the median is reported.
const REPEATS: usize = 3;
/// PETE every sampled (app, target) pair must stay under, percent.
const PETE_LIMIT: f64 = 15.0;

/// One timed call: which layer, what was called, when, under which
/// request, and inside which other span.
struct SpanRec {
    layer: &'static str,
    name: &'static str,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
    request: u64,
}

/// Spans kept in memory and written out once at the end.
struct Tracer {
    epoch: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
    request: u64,
    request_names: Vec<String>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
            request_names: vec!["harness".to_string()],
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Time `f` as a span of `layer`, child of the innermost open span.
    fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let index = self.spans.len();
        self.spans.push(SpanRec {
            layer,
            name,
            start_us: self.now_us(),
            end_us: 0.0,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_us = self.now_us();
        out
    }

    /// Run `f` as one request: its spans share a fresh request id and
    /// hang under one root span.
    fn request<T>(&mut self, label: String, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.request_names.push(label);
        self.request = (self.request_names.len() - 1) as u64;
        let out = self.span("request", "request", f);
        self.request = 0;
        out
    }

    /// Duration of the span that just closed, in ms.
    fn last_ms(&self) -> f64 {
        let s = self.spans.last().expect("a span was recorded");
        (s.end_us - s.start_us) / 1e3
    }

    /// A span's duration minus the part its direct children cover.
    fn self_us(&self, index: usize) -> f64 {
        let s = &self.spans[index];
        let children: f64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(index))
            .map(|c| c.end_us - c.start_us)
            .sum();
        (s.end_us - s.start_us - children).max(0.0)
    }

    fn to_chrome(&self, workload: &str, seed: u64) -> ChromeTrace {
        let mut doc = ChromeTrace::new();
        doc.other_data("tool", "pas2p-benchmark");
        doc.other_data("workload", workload);
        doc.other_data("seed", &seed.to_string());
        doc.process_name(
            PID_HOST,
            "pas2p-benchmark ledger (spans taken from outside the program)",
        );
        for (id, name) in self.request_names.iter().enumerate() {
            doc.thread_name(PID_HOST, id as u64, name);
        }
        for (i, s) in self.spans.iter().enumerate() {
            let mut args = vec![
                ("span".to_string(), i.to_string()),
                ("request".to_string(), s.request.to_string()),
                ("self_us".to_string(), format!("{:.3}", self.self_us(i))),
            ];
            if let Some(p) = s.parent {
                args.push(("parent".to_string(), p.to_string()));
            }
            doc.complete(
                PID_HOST,
                s.request,
                &format!("host.{}", s.layer),
                s.name,
                s.start_us,
                s.end_us - s.start_us,
                args,
            );
        }
        doc
    }
}

/// Per-metric samples, medians taken at the end.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    fn sum(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| v.iter().sum())
    }
}

/// Exact counters, summed over the sample.
#[derive(Default)]
struct Counts(BTreeMap<&'static str, u64>);

impl Counts {
    fn add(&mut self, name: &'static str, n: u64) {
        *self.0.entry(name).or_default() += n;
    }
}

struct Ledger<'a> {
    env: &'a Env,
    pas2p: Pas2p,
    fingerprint: String,
    tracer: Tracer,
    samples: Samples,
    counts: Counts,
    /// Single-valued metrics (ratios, speed-ups, sizes).
    values: Vec<Metric>,
    failures: Vec<String>,
    attempted: u64,
}

fn machine(name: char) -> MachineModel {
    preset_by_name(&name.to_string()).expect("A–D are presets")
}

/// Seconds per call of `f`, as the median over batches of iterations.
fn per_call_us(mut f: impl FnMut()) -> f64 {
    let mut batches = Vec::with_capacity(MICRO_BATCHES);
    for _ in 0..MICRO_BATCHES {
        let started = Instant::now();
        for _ in 0..MICRO_ITERS {
            f();
        }
        batches.push(started.elapsed().as_secs_f64() * 1e6 / MICRO_ITERS as f64);
    }
    median(&mut batches)
}

fn obs_counters() -> BTreeMap<String, u64> {
    pas2p_obs::global().snapshot().counters
}

impl Ledger<'_> {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Every app once, at a seeded process count on a seeded base.
    fn sample_tuples(&self) -> Vec<Tuple> {
        let mut rng = SplitMix64::fork(self.env.seed, "ledger/tuples");
        workload::APPS
            .iter()
            .map(|&app| Tuple {
                app,
                nprocs: workload::NPROCS[rng.below(workload::NPROCS.len())],
                base: ['A', 'B', 'C', 'D'][rng.below(4)],
            })
            .collect()
    }

    /// Stage A and Stage B of one tuple, call by call. Returns the
    /// digest the stepwise `signature_key` produced.
    fn stage_a_and_b(
        &mut self,
        t: Tuple,
        plain_first: bool,
        store: &mut SignatureStore,
        io: &IoCounts,
        target: char,
    ) -> String {
        let policy = MappingPolicy::Block;
        let base = machine(t.base);
        let pas2p = self.pas2p;
        let fingerprint = self.fingerprint.clone();
        let label = format!("stage A+B {}/{}/{}->{}", t.app, t.nprocs, t.base, target);
        let tracer = &mut self.tracer;
        let samples = &mut self.samples;
        let counts = &mut self.counts;
        let (digest, pete, one_call_digest) = tracer.request(label, |tr| {
            let app = tr.span("core.service", "by_name", |_| {
                pas2p_apps::by_name(t.app, t.nprocs).expect("catalog app")
            });
            // Whichever of the two runs goes first pays for cold caches
            // and thread start-up, so the order alternates over the
            // sample and the bias cancels in the median difference.
            let (mut steps_ms, mut plain_ms) = (0.0, 0.0);
            let mut plain = None;
            let mut traced = None;
            for plain_turn in [plain_first, !plain_first] {
                if plain_turn {
                    plain = Some(tr.span("mpisim", "run_plain", |_| {
                        run_plain(app.as_ref(), &base, policy.clone())
                    }));
                    plain_ms = tr.last_ms();
                } else {
                    traced = Some(tr.span("trace", "run_traced", |_| {
                        run_traced(app.as_ref(), &base, policy.clone(), pas2p.instrumentation)
                    }));
                    steps_ms += tr.last_ms();
                }
            }
            samples.push("mpisim.run_plain_ms", plain_ms);
            samples.push("trace.record_overhead_ms", steps_ms - plain_ms);
            let (plain, (trace, _)) = (plain.expect("ran above"), traced.expect("ran above"));
            counts.add("mpisim.messages", plain.total_msgs);
            counts.add("mpisim.bytes", plain.total_bytes);
            counts.add("mpisim.rank_threads", u64::from(plain.nprocs));
            counts.add("trace.events", trace.total_events() as u64);

            let bytes = tr.span("trace", "format::encode", |_| {
                pas2p_trace::format::encode(&trace)
            });
            steps_ms += tr.last_ms();
            samples.push("trace.encode_ms", tr.last_ms());
            samples.push(
                "trace.encode_mb_per_s",
                bytes.len() as f64 / 1e6 / (tr.last_ms() / 1e3),
            );
            counts.add("trace.encoded_bytes", bytes.len() as u64);

            let key = tr.span("store", "signature_key", |_| {
                signature_key(&bytes, &base, &fingerprint)
            });
            steps_ms += tr.last_ms();
            samples.push("store.key_ms", tr.last_ms());
            samples.push(
                "store.key_mb_per_s",
                bytes.len() as f64 / 1e6 / (tr.last_ms() / 1e3),
            );

            let logical = tr.span("model", "pas2p_order", |_| pas2p_model::pas2p_order(&trace));
            steps_ms += tr.last_ms();
            samples.push("model.order_ms", tr.last_ms());
            samples.push(
                "model.events_per_s",
                trace.total_events() as f64 / (tr.last_ms() / 1e3),
            );
            counts.add("model.ticks", logical.len() as u64);

            let analysis = tr.span("phases", "extract_phases", |_| {
                extract_phases(&logical, &pas2p.similarity)
            });
            steps_ms += tr.last_ms();
            samples.push("phases.extract_ms", tr.last_ms());
            counts.add("phases.unique", analysis.total_phases() as u64);
            counts.add(
                "phases.occurrences",
                analysis.phases.iter().map(|p| p.weight).sum(),
            );

            let table = tr.span("phases", "PhaseTable::from_analysis", |_| {
                PhaseTable::from_analysis(
                    &analysis,
                    pas2p.signature.relevance_threshold,
                    pas2p.signature.warmup_occurrences,
                    pas2p.signature.measure_occurrences,
                )
            });
            steps_ms += tr.last_ms();
            samples.push("phases.table_ms", tr.last_ms());

            let (signature, _) = tr.span("signature", "construct_signature", |_| {
                construct_signature(app.as_ref(), &table, &base, policy.clone(), pas2p.signature)
            });
            steps_ms += tr.last_ms();
            samples.push("signature.construct_ms", tr.last_ms());
            counts.add("signature.checkpoints", signature.entries.len() as u64);
            counts.add("signature.checkpoint_bytes", signature.checkpoint_bytes());

            let mut stored_analysis = analysis.clone();
            stored_analysis.analysis_seconds = 0.0;
            let payload = StoredSignature {
                app_name: app.name(),
                workload: app.workload(),
                nprocs: app.nprocs(),
                base_machine: base.name.clone(),
                trace_bytes: trace.size_bytes(),
                trace_events: trace.total_events(),
                aet_instrumented: trace.elapsed(),
                confidence: signature.confidence,
                analysis: stored_analysis,
                table: table.clone(),
                signature: signature.clone(),
            };
            let before = io.snapshot();
            tr.span("store", "put_signature", |_| {
                store
                    .put_signature(&key, &payload, Sidecar::default())
                    .expect("put_signature on a healthy disk")
            });
            steps_ms += tr.last_ms();
            samples.push("store.put_signature_ms", tr.last_ms());
            let put = io.snapshot().since(&before);
            samples.push("store.fsyncs_per_put", put.fsyncs as f64);
            samples.push("store.bytes_written_per_put", put.bytes_written as f64);
            samples.push("steps_ms", steps_ms);

            tr.span("trace", "ingest::decode_recovering", |_| {
                black_box(pas2p_trace::decode_recovering(&bytes));
            });
            samples.push("trace.decode_ms", tr.last_ms());

            let before = io.snapshot();
            let reread = tr.span("store", "get_signature", |_| store.get_signature(&key));
            samples.push("store.get_signature_ms", tr.last_ms());
            samples.push(
                "store.reads_per_get",
                io.snapshot().since(&before).reads as f64,
            );
            assert!(reread.is_some(), "a signature just put is readable");

            // Stage B on a target of the same ISA, checked against the
            // whole application run there.
            let target_machine = machine(target);
            let mut prediction = tr
                .span("signature", "execute_signature", |_| {
                    execute_signature(app.as_ref(), &signature, &target_machine, policy.clone())
                })
                .expect("the target has the signature's ISA");
            samples.push("signature.execute_ms", tr.last_ms());
            counts.add(
                "signature.phase_measurements",
                prediction.measurements.len() as u64,
            );
            let aet = tr
                .span("mpisim", "run_plain (target)", |_| {
                    run_plain(app.as_ref(), &target_machine, policy.clone())
                })
                .makespan;
            let pete = 100.0 * (prediction.pet - aet).abs() / aet;

            canonicalize_prediction(&mut prediction);
            let json = serde_json::to_string(&prediction).expect("predictions serialize");
            let policy_label = serde_json::to_string(&policy).expect("policies serialize");
            let pkey = prediction_key(&key, &target_machine, &policy_label);
            let entry = IndexEntry {
                kind: ArtifactKind::Prediction,
                format_version: STORE_FORMAT_VERSION,
                fingerprint: pkey.fingerprint.clone(),
                app: payload.app_name.clone(),
                workload: payload.workload.clone(),
                nprocs: payload.nprocs,
                base: payload.base_machine.clone(),
                target: Some(target_machine.name.clone()),
            };
            tr.span("store", "put_prediction_json", |_| {
                store
                    .put_prediction_json(&pkey, entry, &json)
                    .expect("put_prediction_json on a healthy disk")
            });
            samples.push("store.put_prediction_ms", tr.last_ms());
            let back = tr.span("store", "get_prediction_json", |_| {
                store.get_prediction_json(&pkey)
            });
            samples.push("store.get_prediction_us", tr.last_ms() * 1e3);
            assert_eq!(
                back.as_deref(),
                Some(json.as_str()),
                "predictions come back byte for byte"
            );

            // The same request as one call, for what the steps leave out.
            let root = Path::new("ledger-onecall");
            let _ = std::fs::remove_dir_all(root);
            let svc = PredictionService::new(
                pas2p,
                SignatureStore::open(root).expect("open a fresh store"),
                Box::new(pas2p_apps::by_name),
            );
            let submitted = tr
                .span("core.service", "submit (one call)", |_| {
                    svc.submit(t.app, t.nprocs, &t.base.to_string())
                })
                .expect("a catalog app submits");
            samples.push("service.submit_inproc_ms", tr.last_ms());
            tr.span("core.pipeline", "analyze_full (one call)", |_| {
                black_box(pas2p.analyze_full(app.as_ref(), &base, policy.clone()));
            });
            samples.push("pipeline.analyze_full_ms", tr.last_ms());
            (key.digest, pete, submitted.digest)
        });
        self.samples.push("pete_pct", pete);
        self.check(pete < PETE_LIMIT, || {
            format!(
                "{}/{} {}->{target}: PETE {pete:.2}% is not under {PETE_LIMIT}%",
                t.app, t.nprocs, t.base
            )
        });
        self.check(one_call_digest == digest, || {
            format!(
                "{}/{}/{}: submit returned {one_call_digest}, signature_key gave {digest}",
                t.app, t.nprocs, t.base
            )
        });
        digest
    }

    /// `put` and `open` against a store of [`STORE_SCALE`] entries.
    fn store_at_scale(&mut self) -> Result<(), String> {
        let root = Path::new("ledger-scale");
        let _ = std::fs::remove_dir_all(root);
        let fingerprint = self.fingerprint.clone();
        let entry = |i: usize| IndexEntry {
            kind: ArtifactKind::Prediction,
            format_version: STORE_FORMAT_VERSION,
            fingerprint: fingerprint.clone(),
            app: format!("app{i}"),
            workload: "scale".to_string(),
            nprocs: 8,
            base: "cluster-A".to_string(),
            target: Some("cluster-B".to_string()),
        };
        let key = |i: usize| StoreKey {
            digest: pas2p_store::sha256_hex(format!("scale-{i}").as_bytes()),
            fingerprint: fingerprint.clone(),
        };
        let payload = r#"{"app":"scale","pet":1.0}"#;
        {
            // Inflating is not what is measured: skip the fsyncs.
            let (io, _) = CountingIo::new(false);
            let mut store =
                SignatureStore::open_with_io(root, Box::new(io)).map_err(|e| e.to_string())?;
            for i in 0..STORE_SCALE {
                store
                    .put_prediction_json(&key(i), entry(i), payload)
                    .map_err(|e| format!("inflating the store: {e}"))?;
            }
        }
        let mut store = self
            .tracer
            .span("store", "open (at scale)", |_| SignatureStore::open(root))
            .map_err(|e| e.to_string())?;
        self.values.push(Metric::new(
            "store.open_ms_at_1024",
            self.tracer.last_ms(),
            "ms",
            1,
        ));
        let opened = store.len();
        self.check(opened == STORE_SCALE, || {
            format!("the inflated store holds {opened} entries")
        });
        let mut puts = Vec::new();
        for i in STORE_SCALE..STORE_SCALE + 5 {
            self.tracer
                .span("store", "put_prediction_json (at scale)", |_| {
                    store.put_prediction_json(&key(i), entry(i), payload)
                })
                .map_err(|e| e.to_string())?;
            puts.push(self.tracer.last_ms());
        }
        self.values.push(Metric::new(
            "store.put_ms_at_1024",
            median(&mut puts),
            "ms",
            puts.len() as u64,
        ));
        let index_bytes = std::fs::metadata(store.index_path())
            .map_err(|e| e.to_string())?
            .len();
        self.values.push(Metric::new(
            "store.bytes_per_entry",
            index_bytes as f64 / store.len() as f64,
            "B",
            1,
        ));
        drop(store);
        let _ = std::fs::remove_dir_all(root);
        Ok(())
    }

    /// The check engine over one analysed app, at 1 and `nproc` workers.
    fn check_engine(&mut self) {
        let base = machine('A');
        let app = pas2p_apps::by_name("masterworker", 8).expect("catalog app");
        let (analysis, trace, logical) =
            self.pas2p
                .analyze_full(app.as_ref(), &base, MappingPolicy::Block);
        let artifacts = Artifacts {
            trace: Some(&trace),
            logical: Some(&logical),
            analysis: Some(&analysis.analysis),
            table: Some(&analysis.table),
            similarity: self.pas2p.similarity,
            ingest: None,
        };
        let workers = self.env.nproc.max(2);
        let tr = &mut self.tracer;
        let (mut seq_ms, mut par_ms) = (Vec::new(), Vec::new());
        let (mut sequential, mut parallel) = (None, None);
        for _ in 0..REPEATS {
            sequential = Some(tr.span("check", "CheckEngine::run (1 worker)", |_| {
                CheckEngine::with_default_rules().run(&artifacts)
            }));
            seq_ms.push(tr.last_ms());
            parallel = Some(tr.span("check", "CheckEngine::run (N workers)", |_| {
                CheckEngine::with_default_rules()
                    .with_workers(workers)
                    .run(&artifacts)
            }));
            par_ms.push(tr.last_ms());
        }
        let (sequential, parallel) = (sequential.expect("ran above"), parallel.expect("ran above"));
        let (seq_ms, par_ms) = (median(&mut seq_ms), median(&mut par_ms));
        self.values
            .push(Metric::new("check.run_ms", seq_ms, "ms", REPEATS as u64));
        self.values.push(Metric::new(
            "check.par_speedup",
            seq_ms / par_ms,
            "x",
            REPEATS as u64,
        ));
        self.counts
            .add("check.diagnostics", sequential.diagnostics.len() as u64);
        self.check(sequential.diagnostics == parallel.diagnostics, || {
            "the check engine's report depends on its worker count".to_string()
        });
    }

    /// `run_batch_with` over the catalog, at 1 and `nproc` workers.
    fn batch_driver(&mut self) {
        let base = machine('A');
        let jobs = || -> Vec<BatchJob> {
            workload::APPS
                .iter()
                .map(|a| {
                    BatchJob::new(
                        pas2p_apps::by_name(a, 4).expect("catalog app"),
                        base.clone(),
                    )
                })
                .collect()
        };
        let pas2p = self.pas2p;
        let run = |tr: &mut Tracer, name: &'static str, workers: usize| {
            let report = tr.span("core.batch", name, |_| {
                pas2p::run_batch_with(
                    &pas2p,
                    jobs(),
                    BatchOptions {
                        workers: Some(workers),
                        ..BatchOptions::default()
                    },
                )
            });
            let ok = report
                .results
                .iter()
                .filter(|r| r.analysis.is_some())
                .count();
            (tr.last_ms(), ok)
        };
        let (mut w1, mut wn) = (Vec::new(), Vec::new());
        let (mut ok1, mut okn) = (0, 0);
        for _ in 0..REPEATS {
            let (ms, ok) = run(&mut self.tracer, "run_batch_with (1 worker)", 1);
            w1.push(ms);
            ok1 = ok;
            let (ms, ok) = run(
                &mut self.tracer,
                "run_batch_with (N workers)",
                self.env.nproc.max(2),
            );
            wn.push(ms);
            okn = ok;
        }
        let (w1_ms, wn_ms) = (median(&mut w1), median(&mut wn));
        self.values
            .push(Metric::new("batch.run_ms_w1", w1_ms, "ms", REPEATS as u64));
        self.values
            .push(Metric::new("batch.run_ms_wN", wn_ms, "ms", REPEATS as u64));
        self.values.push(Metric::new(
            "batch.par_speedup",
            w1_ms / wn_ms,
            "x",
            REPEATS as u64,
        ));
        self.counts.add("batch.jobs_ok", okn as u64);
        self.check(
            ok1 == workload::APPS.len() && okn == workload::APPS.len(),
            || {
                format!(
                    "batch analysed {ok1} and {okn} of {} apps",
                    workload::APPS.len()
                )
            },
        );
    }

    /// The hops of a warm predict inside the service, each on its own
    /// and then the whole `handle_line`, with and without a deadline.
    fn service_hops(&mut self, t: Tuple, target: char) -> Result<(), String> {
        let line = workload::predict_line(t, target);
        let service =
            |root: &str, deadline: Option<Duration>| -> Result<PredictionService, String> {
                let _ = std::fs::remove_dir_all(root);
                let store = SignatureStore::open(root).map_err(|e| e.to_string())?;
                let svc = PredictionService::new(self.pas2p, store, Box::new(pas2p_apps::by_name))
                    .with_deadline(deadline);
                // First call computes and stores; every later one is warm.
                let (cold, _) = svc.handle_line(&line);
                if !cold.ok {
                    return Err(format!("in-process predict failed: {:?}", cold.error));
                }
                Ok(svc)
            };
        let guarded = service("ledger-svc-deadline", Some(Duration::from_millis(30_000)))?;
        let bare = service("ledger-svc-bare", None)?;
        let (warm, _) = bare.handle_line(&line);
        self.check(
            warm.ok && warm.result.as_ref().is_some_and(|r| r["cached"] == true),
            || "the in-process warm predict was not served from the store".to_string(),
        );

        let tr = &mut self.tracer;
        let mut timed =
            |layer: &'static str, name: &'static str, metric: &'static str, f: &mut dyn FnMut()| {
                let us = tr.span(layer, name, |_| per_call_us(&mut *f));
                (metric, us)
            };
        let results = [
            timed(
                "core.service",
                "Request::from_line",
                "service.parse_us",
                &mut || {
                    black_box(Request::from_line(black_box(&line)).is_ok());
                },
            ),
            timed(
                "core.service",
                "PredictionService::fingerprint",
                "service.fingerprint_us",
                &mut || {
                    black_box(bare.fingerprint());
                },
            ),
            timed(
                "core.service",
                "Response::render",
                "service.render_us",
                &mut || {
                    black_box(warm.render());
                },
            ),
            timed(
                "core.service",
                "handle_line (warm, deadline on)",
                "service.handle_warm_us",
                &mut || {
                    black_box(guarded.handle_line(&line).0.ok);
                },
            ),
            timed(
                "core.service",
                "handle_line (warm, no deadline)",
                "handle_bare_us",
                &mut || {
                    black_box(bare.handle_line(&line).0.ok);
                },
            ),
        ];
        let value = |name: &str| results.iter().find(|r| r.0 == name).expect("timed above").1;
        for (name, us) in results.iter().filter(|r| r.0.starts_with("service.")) {
            self.values.push(Metric::new(
                name,
                *us,
                "us",
                (MICRO_ITERS * MICRO_BATCHES) as u64,
            ));
        }
        self.values.push(Metric::new(
            "service.deadline_hop_us",
            value("service.handle_warm_us") - value("handle_bare_us"),
            "us",
            (MICRO_ITERS * MICRO_BATCHES) as u64,
        ));
        for root in ["ledger-svc-deadline", "ledger-svc-bare"] {
            let _ = std::fs::remove_dir_all(root);
        }
        Ok(())
    }

    /// A short session on the real socket: connect, ping, cold submits
    /// whose digests must match the stepwise ones, warm predicts alone
    /// and beside cold submits.
    fn socket_session(&mut self, tuples: &[(Tuple, char, String)]) -> Result<(), String> {
        let env = self.env;
        let store = Path::new("ledger-session-store");
        let _ = std::fs::remove_dir_all(store);
        let server = Server::spawn(&env.cli, store, Path::new("ledger.sock"), e2e::WORKERS)?;
        let tr = &mut self.tracer;

        let mut connects = Vec::new();
        for _ in 0..20 {
            let mut client = tr.span(
                "core.server",
                "connect + first ping",
                |_| -> Result<_, String> {
                    let mut c = server.connect()?;
                    c.request(r#"{"op":"ping"}"#).map_err(|e| e.to_string())?;
                    Ok(c)
                },
            )?;
            connects.push(tr.last_ms());
            drop(client.request(r#"{"op":"ping"}"#));
        }
        self.values.push(Metric::new(
            "server.connect_ms",
            median(&mut connects),
            "ms",
            connects.len() as u64,
        ));

        let mut client = server.connect()?;
        let mut pings = Vec::with_capacity(MICRO_ITERS);
        tr.span(
            "core.server",
            "ping round trips",
            |_| -> Result<(), String> {
                for _ in 0..MICRO_ITERS {
                    let sent = Instant::now();
                    client
                        .request(r#"{"op":"ping"}"#)
                        .map_err(|e| e.to_string())?;
                    pings.push(sent.elapsed().as_secs_f64() * 1e6);
                }
                Ok(())
            },
        )?;
        self.values.push(Metric::new(
            "server.ping_rtt_us",
            median(&mut pings),
            "us",
            pings.len() as u64,
        ));

        // Cold submits: the digest that comes back over the socket is
        // the one `signature_key` gave in the stepwise replay.
        let (session, later) = tuples.split_at(SESSION_TUPLES.min(tuples.len()));
        let mut mismatches = Vec::new();
        for (t, _, digest) in session {
            let reply = client
                .request(&workload::submit_line(*t))
                .map_err(|e| e.to_string())?
                .to_string();
            let got = e2e::raw_member(&reply, "digest")
                .unwrap_or("")
                .trim_matches('"')
                .to_string();
            if &got != digest {
                mismatches.push(format!(
                    "{}/{}/{}: socket digest {got}, stepwise {digest}",
                    t.app, t.nprocs, t.base
                ));
            }
        }
        // Prime their predictions, then hold the warm replies fixed.
        let mut checker = Checker::default();
        let mut warm_lines = Vec::new();
        for (t, target, _) in session {
            let line = workload::predict_line(*t, *target);
            let cold = client
                .request(&line)
                .map_err(|e| e.to_string())?
                .to_string();
            let warm = client
                .request(&line)
                .map_err(|e| e.to_string())?
                .to_string();
            if e2e::raw_member(&cold, "prediction") != e2e::raw_member(&warm, "prediction")
                || e2e::raw_member(&warm, "cached") != Some("true")
            {
                mismatches.push(format!(
                    "{line}: warm reply is not the cold prediction served from the store"
                ));
            }
            checker.warm_expected.push(warm);
            warm_lines.push(line);
        }
        drop(client);

        let mut rng = SplitMix64::fork(env.seed, "ledger/session");
        let warm_ops = |rng: &mut SplitMix64, n: usize| -> Vec<Op> {
            (0..n)
                .map(|_| {
                    let key = rng.below(warm_lines.len());
                    Op::warm(key, warm_lines[key].clone())
                })
                .collect()
        };
        // As in the end-to-end runs: one connection for warm predicts
        // alone, a second one so that they run beside cold submits.
        let mut clients = (0..2)
            .map(|_| server.connect())
            .collect::<Result<Vec<_>, _>>()?;

        let mut alone = Tally::default();
        let ops = warm_ops(&mut rng, SESSION_WARM);
        let cpu_before = server.usage().cpu_ms;
        let (done, wall_s) = tr.span("core.server", "warm predicts over the socket", |_| {
            e2e::run_pass(&mut clients[..1], &ops, &checker, &mut alone)
        });
        self.values.push(Metric::new(
            "server.predict_warm_ops_per_s",
            done as f64 / wall_s,
            "1/s",
            done,
        ));
        self.values.push(Metric::new(
            "server.cpu_ms_per_op",
            (server.usage().cpu_ms - cpu_before) / ops.len() as f64,
            "ms",
            ops.len() as u64,
        ));
        let lat = alone.pooled_sorted(Class::PredictWarm);
        if lat.is_empty() {
            return Err(format!(
                "no warm predict was answered: {:?}",
                alone.failures.first()
            ));
        }
        let alone_p50_ms = quantile_sorted(&lat, 0.5);
        self.values.push(Metric::new(
            "server.predict_warm_p999_ms",
            quantile_sorted(&lat, 0.999),
            "ms",
            lat.len() as u64,
        ));
        self.values.push(Metric::new(
            "socket_warm_p50_us",
            alone_p50_ms * 1e3,
            "us",
            lat.len() as u64,
        ));

        let mut beside = Tally::default();
        let mut ops = warm_ops(&mut rng, SESSION_WARM / 5);
        ops.extend(later.iter().map(|(t, _, _)| Op::submit(*t)));
        rng.shuffle(&mut ops);
        tr.span("core.server", "warm predicts beside cold submits", |_| {
            e2e::run_pass(&mut clients, &ops, &checker, &mut beside)
        });
        let lat = beside.pooled_sorted(Class::PredictWarm);
        if lat.is_empty() {
            return Err(format!(
                "no warm predict was answered beside submits: {:?}",
                beside.failures.first()
            ));
        }
        self.values.push(Metric::new(
            "server.warm_interference_us",
            (quantile_sorted(&lat, 0.5) - alone_p50_ms) * 1e3,
            "us",
            lat.len() as u64,
        ));
        drop(clients);

        let health = server.health()?;
        let usage = server.shutdown()?;
        self.values.push(Metric::new(
            "server.peak_rss_mb",
            usage.peak_rss_mb,
            "MB",
            1,
        ));
        let _ = std::fs::remove_dir_all(store);
        for tally in [alone, beside] {
            self.attempted += tally.attempted;
            self.failures.extend(tally.failures);
        }
        self.check(mismatches.is_empty(), || mismatches.join("; "));
        self.check(health["shed"] == 0u64 && health["timeouts"] == 0u64, || {
            format!(
                "health after the session: shed {}, timeouts {}",
                health["shed"], health["timeouts"]
            )
        });
        Ok(())
    }

    /// The analysis path on the ring traces, and the similarity
    /// kernel's counters, read from the registry the program fills.
    fn analysis_path(&mut self) -> Result<(), String> {
        let traces = workload::analyze_traces(self.env.seed);
        let mut logicals = Vec::new();
        for t in &traces {
            let analysis = self
                .tracer
                .span("core.pipeline", "analyze_bytes", |_| {
                    self.pas2p.analyze_bytes(&t.name, "benchmark", &t.bytes)
                })
                .map_err(|e| format!("{}: {e}", t.name))?;
            self.samples
                .push("pipeline.analyze_bytes_ms", self.tracer.last_ms());
            black_box(analysis);
            let (trace, _) = pas2p_trace::decode_recovering(&t.bytes);
            logicals.push(pas2p_model::pas2p_order(
                &trace.ok_or("a ring trace failed to decode")?,
            ));
        }
        // One worker: the parallel fan-out may compare past the first
        // match, so only the sequential walk's counters repeat exactly.
        let cfg = SimilarityConfig {
            parallelism: Some(1),
            ..self.pas2p.similarity
        };
        let was_enabled = pas2p_obs::enabled();
        pas2p_obs::set_enabled(true);
        let before = obs_counters();
        for logical in &logicals {
            black_box(extract_phases(logical, &cfg));
        }
        let after = obs_counters();
        pas2p_obs::set_enabled(was_enabled);
        let delta = |key: &str| {
            after.get(key).copied().unwrap_or(0) - before.get(key).copied().unwrap_or(0)
        };
        let full = delta("extract.soa.compares");
        self.counts.add("phases.full_compares", full);
        self.counts
            .add("phases.band_rejects", delta("extract.band.rejects"));
        self.counts
            .add("phases.lsh_skipped", delta("extract.lsh.skipped"));
        self.values.push(Metric::new(
            "phases.useful_compare_ratio",
            delta("phases.dedupe_hits") as f64 / full.max(1) as f64,
            "ratio",
            full,
        ));
        Ok(())
    }

    /// One Stage A with the metrics registry on against the same off.
    fn obs_overhead(&mut self) {
        let base = machine('A');
        let app = pas2p_apps::by_name("bt", 4).expect("catalog app");
        let was_enabled = pas2p_obs::enabled();
        let timed = |on: bool| {
            pas2p_obs::set_enabled(on);
            let started = Instant::now();
            black_box(
                self.pas2p
                    .analyze(app.as_ref(), &base, MappingPolicy::Block),
            );
            started.elapsed().as_secs_f64()
        };
        let (mut off, mut on) = (Vec::new(), Vec::new());
        // Whichever goes second runs on warm caches: alternate.
        for rep in 0..2 * REPEATS {
            if rep % 2 == 0 {
                off.push(timed(false));
                on.push(timed(true));
            } else {
                on.push(timed(true));
                off.push(timed(false));
            }
        }
        pas2p_obs::set_enabled(was_enabled);
        let (off, on) = (median(&mut off), median(&mut on));
        self.values.push(Metric::new(
            "obs.enabled_overhead_pct",
            100.0 * (on - off) / off,
            "%",
            2 * REPEATS as u64,
        ));
    }
}

/// The traced pass. Writes the spans as Chrome-trace JSON beside the
/// build (`<target>/bench-out/`), returns every per-layer metric.
pub fn run(env: &Env, workload_name: &str) -> Result<RunOutcome, String> {
    let pas2p = Pas2p::default();
    let fingerprint = config_fingerprint(
        &pas2p.similarity,
        &pas2p.signature,
        pas2p.instrumentation.per_event_seconds,
    );
    let mut ledger = Ledger {
        env,
        pas2p,
        fingerprint,
        tracer: Tracer::new(),
        samples: Samples::default(),
        counts: Counts::default(),
        values: Vec::new(),
        failures: Vec::new(),
        attempted: 0,
    };

    let mut lap = Instant::now();
    let mut section = |name: &str| {
        eprintln!("ledger: {name} took {:.2}s", lap.elapsed().as_secs_f64());
        lap = Instant::now();
    };
    let store_root = Path::new("ledger-store");
    let _ = std::fs::remove_dir_all(store_root);
    let (io, io_counts) = CountingIo::new(true);
    let mut store =
        SignatureStore::open_with_io(store_root, Box::new(io)).map_err(|e| e.to_string())?;
    let mut rng = SplitMix64::fork(env.seed, "ledger/targets");
    let mut replayed = Vec::new();
    for t in ledger.sample_tuples() {
        let foreign = workload::foreign_targets(t.base);
        let target = foreign[rng.below(foreign.len())];
        let digest =
            ledger.stage_a_and_b(t, replayed.len() % 2 == 0, &mut store, &io_counts, target);
        replayed.push((t, target, digest));
    }
    drop(store);
    let _ = std::fs::remove_dir_all(store_root);
    let _ = std::fs::remove_dir_all("ledger-onecall");

    section("stage A and B, call by call");
    ledger.store_at_scale()?;
    section("store at scale");
    ledger.check_engine();
    ledger.batch_driver();
    section("check engine and batch driver");
    let (first, first_target, _) = replayed[0];
    ledger.service_hops(first, first_target)?;
    section("service hops");
    ledger.socket_session(&replayed)?;
    section("socket session");
    ledger.analysis_path()?;
    ledger.obs_overhead();
    section("analysis path and obs overhead");

    let chrome = ledger.tracer.to_chrome(workload_name, env.seed).to_json();
    let stats = pas2p::validate_chrome_json(&chrome)
        .map_err(|e| format!("the span file is not a valid Chrome trace: {e}"))?;
    let out_dir = Path::new("../../bench-out");
    std::fs::create_dir_all(out_dir).map_err(|e| format!("creating bench-out: {e}"))?;
    let out = out_dir.join(format!("spans-{workload_name}-seed{}.json", env.seed));
    std::fs::write(&out, chrome).map_err(|e| format!("writing {}: {e}", out.display()))?;
    eprintln!(
        "{} spans of {} requests written to <target>/bench-out/{}",
        stats.slices,
        ledger.tracer.request_names.len() - 1,
        out.file_name().and_then(|n| n.to_str()).unwrap_or("?")
    );

    Ok(ledger.finish())
}

impl Ledger<'_> {
    fn finish(mut self) -> RunOutcome {
        let steps = self.samples.sum("steps_ms");
        let one_call = self.samples.sum("service.submit_inproc_ms");
        let coverage = 100.0 * steps / one_call;
        self.values
            .push(Metric::new("pipeline.step_coverage_pct", coverage, "%", 1));
        self.values
            .push(Metric::new("trace_overhead_pct", coverage - 100.0, "%", 1));
        let pete_max = self
            .samples
            .0
            .get("pete_pct")
            .map_or(0.0, |v| v.iter().copied().fold(0.0, f64::max));
        self.values
            .push(Metric::new("signature.pete_max_pct", pete_max, "%", 1));
        let value =
            |values: &[Metric], name: &str| values.iter().find(|m| m.name == name).map(|m| m.value);
        if let (Some(socket), Some(handle)) = (
            value(&self.values, "socket_warm_p50_us"),
            value(&self.values, "service.handle_warm_us"),
        ) {
            self.values
                .push(Metric::new("server.dispatch_us", socket - handle, "us", 1));
        }

        // Gather what was measured under its catalogue name and unit;
        // anything the catalogue does not list is a detail, and anything
        // it lists that was not measured fails the run.
        let mut measured: Vec<Metric> = self.values;
        for (name, samples) in &mut self.samples.0 {
            let n = samples.len() as u64;
            let unit = match name.rsplit('_').next() {
                Some("ms") => "ms",
                Some("us") => "us",
                Some("pct") => "%",
                _ => "",
            };
            measured.push(Metric::new(name, median(samples), unit, n));
        }
        for (name, count) in &self.counts.0 {
            measured.push(Metric::new(name, *count as f64, "count", 1));
        }
        let mut metrics = Vec::with_capacity(PER_LAYER.len());
        for &(name, unit, exact) in PER_LAYER {
            match measured.iter().position(|m| m.name == name) {
                Some(i) => metrics.push(Metric {
                    unit,
                    exact,
                    ..measured.swap_remove(i)
                }),
                None => self
                    .failures
                    .push(format!("the ledger did not measure {name}")),
            }
        }
        RunOutcome {
            correct: self.failures.is_empty(),
            attempted: self.attempted.max(1),
            failed: self.failures.len() as u64,
            metrics,
            details: measured,
            failures: self.failures,
        }
    }
}
