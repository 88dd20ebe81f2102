//! The end-to-end runs: each workload driven for a window, with
//! tracing and observability off, and every reply checked.

use crate::catalogue::END_TO_END;
use crate::report::{Metric, RunOutcome};
use crate::server::{copy_dir, proc_usage, Client, OneCpu, Server};
use crate::stats::{highest_supported_tail, median, quantile_sorted};
use crate::workload::{self, Class, Op};
use pas2p::Pas2p;
use pas2p_phases::{SimilarityConfig, SimilarityKernel};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

/// Cold starts timed per run where a start is all set-up does.
const COLD_STARTS: usize = 21;
/// Primings of the warm store timed per run.
const PRIMINGS: usize = 5;
/// Starts on a copy of the primed store timed per run.
const PRIMED_STARTS: usize = 3;
/// Trace-set generations timed per run.
const TRACE_SETUPS: usize = 3;
/// Tuples re-submitted after a cold pass to see them served from cache.
const RESUBMIT_SAMPLE: usize = 8;

/// Where over the passes of a window a figure is read: the quiet
/// quartile — the lower one of a latency, the upper one of a
/// throughput. The machine this runs on is slowed for seconds at a
/// time, which a median over passes follows when the slow seconds are
/// most of a window; and the fastest pass of a window is one lucky
/// pass, the luckier the longer the window. The quartile follows
/// neither.
const QUIET_OVER_PASSES: f64 = 0.25;

/// Workers of the server in every run, whatever the machine: two, so
/// that a read need not queue behind a write, and so that figures from
/// machines of different sizes are figures of one configuration.
pub const WORKERS: usize = 2;

/// What every run needs to know about its surroundings.
pub struct Env {
    pub cli: PathBuf,
    /// The core count: workers of the traced pass's parallel figures.
    pub nproc: usize,
    pub seed: u64,
    pub seconds: f64,
}

/// The raw text of member `name` in a one-line JSON object rendered by
/// the server (no whitespace between tokens), found by scanning for
/// the key and balancing brackets outside strings.
pub fn raw_member<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let key = format!("\"{name}\":");
    let start = line.find(&key)? + key.len();
    let bytes = line.as_bytes();
    let (mut depth, mut in_string, mut escaped) = (0usize, false, false);
    for (i, &b) in bytes.iter().enumerate().skip(start) {
        if in_string {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'{' | b'[' => depth += 1,
            b'}' | b']' if depth == 0 => return Some(&line[start..i]),
            b'}' | b']' => depth -= 1,
            b',' if depth == 0 => return Some(&line[start..i]),
            _ => {}
        }
    }
    None
}

fn parse_ok(reply: &str) -> Result<Value, String> {
    let value: Value = serde_json::from_str(reply).map_err(|e| format!("unparsable reply: {e}"))?;
    if value["ok"] != true {
        return Err(format!(
            "refused with code {}: {}",
            value["code"], value["error"]
        ));
    }
    Ok(value["result"].clone())
}

fn expect_flag(result: &Value, flag: &str, want: bool) -> Result<(), String> {
    match result[flag].as_bool() {
        Some(got) if got == want => Ok(()),
        got => Err(format!("\"{flag}\" is {got:?}, expected {want}")),
    }
}

/// Checks shared by every pass: what a correct reply looks like per
/// class, and what the replies said.
#[derive(Default)]
pub struct Checker {
    /// The warm reply line per warm key, fixed during priming.
    pub warm_expected: Vec<String>,
    /// Digest returned per submit line.
    digests: Mutex<BTreeMap<String, String>>,
    /// Raw `prediction` member of each Stage-B reply, per request line.
    cold_predictions: Mutex<BTreeMap<String, String>>,
}

impl Checker {
    fn check(&self, op: &Op, reply: &str) -> Result<(), String> {
        match op.class {
            Class::PredictWarm => {
                if reply == self.warm_expected[op.key] {
                    Ok(())
                } else {
                    Err("warm reply differs from the priming reply".to_string())
                }
            }
            Class::SubmitCold => {
                let result = parse_ok(reply)?;
                expect_flag(&result, "cached", false)?;
                let digest = result["digest"].as_str().ok_or("no digest")?.to_string();
                self.digests
                    .lock()
                    .expect("no check panics under the lock")
                    .insert(op.line.clone(), digest);
                Ok(())
            }
            Class::PredictStageB => {
                let result = parse_ok(reply)?;
                expect_flag(&result, "cached", false)?;
                expect_flag(&result, "signature_cached", true)?;
                let prediction = raw_member(reply, "prediction").ok_or("no prediction")?;
                self.cold_predictions
                    .lock()
                    .expect("no check panics under the lock")
                    .insert(op.line.clone(), prediction.to_string());
                Ok(())
            }
            Class::Batch => {
                let result = parse_ok(reply)?;
                let jobs = result["jobs"].as_object().ok_or("no jobs")?;
                if jobs.len() != workload::APPS.len() || jobs.values().any(|s| s != "ok") {
                    return Err(format!("batch jobs: {}", result["jobs"]));
                }
                let predictions = result["predictions"].as_array().ok_or("no predictions")?;
                let want = workload::batch_predictions_expected(&op.line);
                if predictions.len() != want {
                    return Err(format!(
                        "{} predictions, expected {want}",
                        predictions.len()
                    ));
                }
                match predictions.iter().find(|p| p.get("error").is_some()) {
                    Some(p) => Err(format!("prediction failed: {p}")),
                    None => Ok(()),
                }
            }
        }
    }
}

/// Latencies of one kind of request, ms.
#[derive(Default)]
struct Kind {
    /// Every sample, in order of arrival.
    samples: Vec<f64>,
    /// How many of them belong to passes already booked.
    booked: usize,
    /// Per booked pass that had any: the fastest of its samples.
    /// Interference only ever adds to a latency, so the fastest request
    /// of a pass says what the path costs when the machine lets it run.
    per_pass: Vec<f64>,
}

/// Latencies and failures of any number of passes.
#[derive(Default)]
pub struct Tally {
    /// Timed window used so far: the passes' own wall time.
    wall_s: f64,
    /// Latencies of answered requests, per class and per kind of
    /// request.
    latencies_ms: BTreeMap<Class, BTreeMap<String, Kind>>,
    pub attempted: u64,
    ops_ok: u64,
    pub failures: Vec<String>,
    /// Per pass: operations per second of the pass's wall time.
    pass_ops_per_s: Vec<f64>,
    /// Per pass: CPU of the measured process per operation, ms.
    pass_cpu_ms_per_op: Vec<f64>,
    /// Per pass of readers beside a writer: the readers' median
    /// latency, ms.
    pass_reader_ms: Vec<f64>,
    /// The same passes: requests the readers got answered per second.
    pass_reader_ops_per_s: Vec<f64>,
    peak_rss_mb: f64,
}

impl Tally {
    fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    fn record(&mut self, class: Class, kind: &str, ms: f64) {
        let kinds = self.latencies_ms.entry(class).or_default();
        match kinds.get_mut(kind) {
            Some(k) => k.samples.push(ms),
            None => {
                let samples = vec![ms];
                kinds.insert(
                    kind.to_string(),
                    Kind {
                        samples,
                        ..Kind::default()
                    },
                );
            }
        }
    }

    /// Every latency of `class`, sorted.
    pub fn pooled_sorted(&self, class: Class) -> Vec<f64> {
        let mut all: Vec<f64> = self
            .latencies_ms
            .get(&class)
            .into_iter()
            .flat_map(|kinds| kinds.values().flat_map(|k| &k.samples).copied())
            .collect();
        all.sort_unstable_by(f64::total_cmp);
        all
    }

    /// The mean latency of a request on a quiet machine: each kind's
    /// fastest sample within a pass, the quiet quartile of that over
    /// the booked passes, then the mean over kinds. The kinds differ by two
    /// orders of magnitude with gaps between them, so a median pooled
    /// over all samples, or over kinds, jumps from one side of a gap to
    /// the other as the samples shift; the mean weighs a kind by the
    /// time it takes, as the caller's clock does.
    ///
    /// Readers beside a writer are the exception: the writer's requests
    /// come and go, and the readers' fastest request would be one sent
    /// while it idles. A pass's median has the writer in
    /// it.
    fn typical_ms(&self, class: Class) -> Option<f64> {
        let over_passes = |per_pass: &[f64]| {
            let mut sorted = per_pass.to_vec();
            sorted.sort_unstable_by(f64::total_cmp);
            quantile_sorted(&sorted, QUIET_OVER_PASSES)
        };
        if class == Class::PredictWarm && !self.pass_reader_ms.is_empty() {
            return Some(over_passes(&self.pass_reader_ms));
        }
        let kinds: Vec<&Kind> = self
            .latencies_ms
            .get(&class)?
            .values()
            .filter(|k| !k.per_pass.is_empty())
            .collect();
        let sum: f64 = kinds.iter().map(|k| over_passes(&k.per_pass)).sum();
        (!kinds.is_empty()).then(|| sum / kinds.len() as f64)
    }

    /// Book what one client got back.
    fn book(&mut self, answered: Answered) {
        for (op, ms, verdict) in answered {
            self.attempted += 1;
            match verdict {
                Ok(()) => {
                    self.ops_ok += op.weight;
                    self.record(op.class, &op.kind, ms);
                }
                Err(e) => self.fail(format!("{}: {e}", op.line)),
            }
        }
    }

    fn passes(&self) -> u64 {
        self.pass_ops_per_s.len() as u64
    }

    /// Book one pass: `ops` operations in `wall_s`, for `cpu_ms` of
    /// CPU, and the latencies recorded since the pass before.
    fn book_pass(&mut self, ops: u64, wall_s: f64, cpu_ms: f64) {
        for kind in self.latencies_ms.values_mut().flat_map(|k| k.values_mut()) {
            let fresh = &kind.samples[kind.booked..];
            if let Some(fastest) = fresh.iter().copied().min_by(f64::total_cmp) {
                kind.per_pass.push(fastest);
                kind.booked = kind.samples.len();
            }
        }
        self.wall_s += wall_s;
        self.pass_ops_per_s.push(ops as f64 / wall_s);
        self.pass_cpu_ms_per_op.push(cpu_ms / ops.max(1) as f64);
    }
}

/// Drives the pass of the given number through the clients; returns the
/// requests that wrote to the store, the operations the pass stands
/// for, and its wall time.
type DrivePass<'a> = dyn Fn(u64, &mut [Client], &mut Tally) -> (Vec<Op>, u64, f64) + 'a;

/// What one client got back: the request, its latency in ms, and
/// whether the reply was the right one.
type Answered<'a> = Vec<(&'a Op, f64, Result<(), String>)>;

/// One client's closed loop: send what `next` hands out, wait for the
/// reply, check it, until `next` has nothing more.
fn drive<'a>(
    client: &mut Client,
    checker: &Checker,
    mut next: impl FnMut() -> Option<&'a Op>,
) -> Answered<'a> {
    let mut answered = Vec::new();
    while let Some(op) = next() {
        let sent = Instant::now();
        let reply = client.request(&op.line);
        let ms = sent.elapsed().as_secs_f64() * 1e3;
        let verdict = match reply {
            Ok(reply) => checker.check(op, reply),
            Err(e) => Err(format!("connection: {e}")),
        };
        answered.push((op, ms, verdict));
    }
    answered
}

/// Drive `ops` through `clients` in a closed loop: each client takes
/// the next unsent request when its previous reply has arrived. Returns
/// the operations the pass stands for and its wall time.
pub fn run_pass(
    clients: &mut [Client],
    ops: &[Op],
    checker: &Checker,
    tally: &mut Tally,
) -> (u64, f64) {
    let cursor = AtomicUsize::new(0);
    let barrier = Barrier::new(clients.len());
    let per_client: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let (cursor, barrier) = (&cursor, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    let started = Instant::now();
                    let answered = drive(client, checker, || {
                        ops.get(cursor.fetch_add(1, Ordering::Relaxed))
                    });
                    (started, Instant::now(), answered)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let first = per_client
        .iter()
        .map(|c| c.0)
        .min()
        .expect("at least one client");
    let last = per_client
        .iter()
        .map(|c| c.1)
        .max()
        .expect("at least one client");
    for client in per_client {
        tally.book(client.2);
    }
    (
        ops.iter().map(|o| o.weight).sum(),
        (last - first).as_secs_f64(),
    )
}

/// Readers beside a writer: the first client sends `cold` in order,
/// the others send `warm` round and round, all in closed loops, until
/// the writer has its last reply. Returns the writer's operations and
/// its wall time; what the readers got done is in the tally, and the
/// median of their latencies is the pass's reader latency.
pub fn run_beside(
    clients: &mut [Client],
    cold: &[Op],
    warm: &[Op],
    checker: &Checker,
    tally: &mut Tally,
) -> (u64, f64) {
    let (writer, readers) = clients.split_first_mut().expect("at least one client");
    let writing = AtomicBool::new(true);
    let cursor = AtomicUsize::new(0);
    let wall_s = std::thread::scope(|scope| {
        let handles: Vec<_> = readers
            .iter_mut()
            .map(|reader| {
                let (writing, cursor) = (&writing, &cursor);
                scope.spawn(move || {
                    drive(reader, checker, || {
                        writing
                            .load(Ordering::Relaxed)
                            .then(|| &warm[cursor.fetch_add(1, Ordering::Relaxed) % warm.len()])
                    })
                })
            })
            .collect();
        let started = Instant::now();
        let mut rest = cold.iter();
        let answered = drive(writer, checker, || rest.next());
        let wall_s = started.elapsed().as_secs_f64();
        writing.store(false, Ordering::Relaxed);
        tally.book(answered);
        let mut read_ms = Vec::new();
        for h in handles {
            let answered = h.join().expect("client threads do not panic");
            read_ms.extend(answered.iter().filter(|a| a.2.is_ok()).map(|a| a.1));
            tally.book(answered);
        }
        if !read_ms.is_empty() {
            tally
                .pass_reader_ops_per_s
                .push(read_ms.len() as f64 / wall_s);
            tally.pass_reader_ms.push(median(&mut read_ms));
        }
        wall_s
    });
    (cold.iter().map(|o| o.weight).sum(), wall_s)
}

impl Env {
    fn spawn(&self, store: &Path, tag: &str) -> Result<Server, String> {
        Server::spawn(&self.cli, store, Path::new(&format!("{tag}.sock")), WORKERS)
    }

    fn connect_all(&self, server: &Server, n: usize) -> Result<Vec<Client>, String> {
        (0..n).map(|_| server.connect()).collect()
    }

    /// Time from starting the server on `template` (copied first when
    /// given; an empty store otherwise) until a client is connected and
    /// `health` has answered — repeated, median returned.
    fn time_starts(&self, template: Option<&Path>, repeats: usize) -> Result<f64, String> {
        let mut times = Vec::with_capacity(repeats);
        for i in 0..repeats {
            let store = PathBuf::from(format!("setup-store-{i}"));
            let started = Instant::now();
            if let Some(template) = template {
                copy_dir(template, &store).map_err(|e| format!("copying the primed store: {e}"))?;
            }
            let server = self.spawn(&store, "setup")?;
            let _client = server.connect()?;
            server.health()?;
            times.push(started.elapsed().as_secs_f64());
            server.shutdown()?;
            let _ = std::fs::remove_dir_all(&store);
        }
        Ok(median(&mut times))
    }

    /// After a workload: `health` must answer, with nothing shed and
    /// nothing timed out; then stop the server and book its usage.
    fn finish_server(&self, server: Server, tally: &mut Tally) -> Result<(), String> {
        tally.peak_rss_mb = tally.peak_rss_mb.max(server.usage().peak_rss_mb);
        let health = server.health()?;
        for counter in ["shed", "timeouts"] {
            if health[counter] != 0u64 {
                tally.fail(format!("health reports {counter} = {}", health[counter]));
            }
        }
        server.shutdown()?;
        Ok(())
    }

    /// Build the primed store in `template`: 11 signatures and their 22
    /// predictions through the socket, one request at a time as in
    /// `submit_cold`, then read every prediction back warm and hold the
    /// server to those bytes from here on.
    fn prime(&self, template: &Path, tally: &mut Tally) -> Result<(Checker, f64), String> {
        let started = Instant::now();
        let server = self.spawn(template, "prime")?;
        let mut clients = self.connect_all(&server, 1)?;
        let keys = workload::warm_keys();
        // Signatures first; then their predictions, each the first on
        // its target: Stage B only.
        let submits: Vec<Op> = workload::primed_tuples()
            .into_iter()
            .map(Op::submit)
            .collect();
        let predicts: Vec<Op> = keys
            .iter()
            .map(|&(tuple, target)| Op::stage_b(tuple, target))
            .collect();
        let mut priming = Tally::default();
        let mut checker = Checker::default();
        run_pass(&mut clients, &submits, &checker, &mut priming);
        run_pass(&mut clients, &predicts, &checker, &mut priming);
        // Read every prediction back: it must come from the store, with
        // the bytes of the cold reply.
        let cold = std::mem::take(
            &mut *checker
                .cold_predictions
                .lock()
                .expect("no check panics under the lock"),
        );
        let client = &mut clients[0];
        for warm_op in &predicts {
            let line = &warm_op.line;
            let warm = client
                .request(line)
                .map(str::to_string)
                .map_err(|e| format!("priming {line}: {e}"))?;
            let verdict = parse_ok(&warm).and_then(|result| {
                expect_flag(&result, "cached", true)?;
                match (raw_member(&warm, "prediction"), cold.get(line)) {
                    (Some(w), Some(c)) if w == c => Ok(()),
                    _ => Err("the warm prediction is not byte-equal to the cold one".to_string()),
                }
            });
            if let Err(e) = verdict {
                priming.fail(format!("{line}: {e}"));
            }
            checker.warm_expected.push(warm);
        }
        drop(clients);
        server.shutdown()?;
        tally.failures.append(&mut priming.failures);
        Ok((checker, started.elapsed().as_secs_f64()))
    }

    /// Set-up of the workloads on a primed store: prime `template`
    /// several times over, then time starts on copies of it. Returns
    /// the last priming's checker, and the median priming plus the
    /// median start.
    fn primed_setup(&self, template: &Path, tally: &mut Tally) -> Result<(Checker, f64), String> {
        let mut primings = Vec::with_capacity(PRIMINGS);
        let mut checker = Checker::default();
        for _ in 0..PRIMINGS {
            let _ = std::fs::remove_dir_all(template);
            let (primed, seconds) = self.prime(template, tally)?;
            checker = primed;
            primings.push(seconds);
        }
        let start_s = self.time_starts(Some(template), PRIMED_STARTS)?;
        Ok((checker, median(&mut primings) + start_s))
    }

    /// A second `submit` of tuples the pass just analysed must come
    /// from the store with the digest of the first.
    fn resubmit_sample(
        &self,
        server: &Server,
        ops: &[Op],
        checker: &Checker,
        tally: &mut Tally,
    ) -> Result<(), String> {
        let mut client = server.connect()?;
        for op in ops
            .iter()
            .filter(|o| o.class == Class::SubmitCold)
            .take(RESUBMIT_SAMPLE)
        {
            let reply = client
                .request(&op.line)
                .map_err(|e| format!("re-submitting {}: {e}", op.line))?;
            let first = checker
                .digests
                .lock()
                .expect("no check panics under the lock")
                .get(&op.line)
                .cloned();
            let verdict = parse_ok(reply).and_then(|result| {
                expect_flag(&result, "cached", true)?;
                if result["digest"].as_str() == first.as_deref() {
                    Ok(())
                } else {
                    Err(format!(
                        "digest changed: {first:?} then {}",
                        result["digest"]
                    ))
                }
            });
            tally.attempted += 1;
            if let Err(e) = verdict {
                tally.fail(format!("second {}: {e}", op.line));
            }
        }
        Ok(())
    }

    /// Passes that each need a server of their own on a fresh store
    /// (empty, or a copy of `template`), until the window is used up.
    fn fresh_store_passes(
        &self,
        template: Option<&Path>,
        clients: usize,
        pass: &DrivePass,
        checker: &Checker,
        tally: &mut Tally,
    ) -> Result<(), String> {
        while tally.wall_s < self.seconds {
            let store = PathBuf::from(format!("store-{}", tally.passes()));
            if let Some(template) = template {
                copy_dir(template, &store).map_err(|e| format!("copying the primed store: {e}"))?;
            }
            let server = self.spawn(&store, "run")?;
            let mut conns = self.connect_all(&server, clients)?;
            let (wrote, done, wall_s) = pass(tally.passes(), &mut conns, tally);
            drop(conns);
            // The server is this pass's own: its CPU so far is the pass's.
            tally.book_pass(done, wall_s, server.usage().cpu_ms);
            self.resubmit_sample(&server, &wrote, checker, tally)?;
            self.finish_server(server, tally)?;
            let _ = std::fs::remove_dir_all(&store);
        }
        Ok(())
    }

    /// One connection, one `submit` at a time: two of them side by side
    /// on two cores take turns with each other's rank threads, and what
    /// a request costs then depends on its neighbour. `mixed` is where
    /// requests run side by side.
    pub fn submit_cold(&self) -> Result<RunOutcome, String> {
        let setup_s = self.time_starts(None, COLD_STARTS)?;
        let mut tally = Tally::default();
        let checker = Checker::default();
        self.fresh_store_passes(
            None,
            1,
            &|pass, clients, tally| {
                let ops = workload::submit_cold_pass(self.seed, pass);
                let (done, wall_s) = run_pass(clients, &ops, &checker, tally);
                (ops, done, wall_s)
            },
            &checker,
            &mut tally,
        )?;
        Ok(outcome(setup_s, Class::SubmitCold, tally))
    }

    pub fn predict_warm(&self) -> Result<RunOutcome, String> {
        let template = Path::new("template");
        let mut tally = Tally::default();
        let (checker, setup_s) = self.primed_setup(template, &mut tally)?;
        // A warm predict is five hops between threads. Left to the
        // scheduler each hop may find the next thread's core asleep,
        // and the loop times how fast this machine wakes a core; on one
        // CPU every hop is a context switch and the fastest request of
        // a pass repeats within a few percent. Set-up above is not
        // pinned: priming runs eight rank threads.
        let one_cpu = OneCpu::enter();
        if let Err(e) = &one_cpu {
            eprintln!("pas2p-benchmark: predict_warm runs unpinned, and reads slower for it: {e}");
        }
        // Nothing is written in this workload, so one server serves
        // every pass, on the template itself.
        let server = self.spawn(template, "run")?;
        let mut clients = self.connect_all(&server, 1)?;
        while tally.wall_s < self.seconds {
            let ops = workload::predict_warm_pass(self.seed, tally.passes());
            let cpu_before = server.usage().cpu_ms;
            let (done, wall_s) = run_pass(&mut clients, &ops, &checker, &mut tally);
            tally.book_pass(done, wall_s, server.usage().cpu_ms - cpu_before);
        }
        drop(clients);
        self.finish_server(server, &mut tally)?;
        let pinned = one_cpu.is_ok();
        drop(one_cpu);
        let mut out = outcome(setup_s, Class::PredictWarm, tally);
        out.details.push(Metric::new(
            "pinned",
            f64::from(u8::from(pinned)),
            "count",
            1,
        ));
        Ok(out)
    }

    /// One writer and one reader.
    pub fn mixed(&self) -> Result<RunOutcome, String> {
        let template = Path::new("template");
        let mut tally = Tally::default();
        let (checker, setup_s) = self.primed_setup(template, &mut tally)?;
        self.fresh_store_passes(
            Some(template),
            2,
            &|pass, clients, tally| {
                let ops = workload::mixed_pass(self.seed, pass);
                let (done, wall_s) = run_beside(clients, &ops.cold, &ops.warm, &checker, tally);
                (ops.cold, done, wall_s)
            },
            &checker,
            &mut tally,
        )?;
        Ok(outcome(setup_s, Class::PredictWarm, tally))
    }

    pub fn batch_cold(&self) -> Result<RunOutcome, String> {
        let setup_s = self.time_starts(None, COLD_STARTS)?;
        let mut tally = Tally::default();
        let checker = Checker::default();
        self.fresh_store_passes(
            None,
            1,
            &|pass, clients, tally| {
                let ops = workload::batch_cold_pass(self.seed, pass, WORKERS);
                let (done, wall_s) = run_pass(clients, &ops, &checker, tally);
                (ops, done, wall_s)
            },
            &checker,
            &mut tally,
        )?;
        Ok(outcome(setup_s, Class::Batch, tally))
    }

    /// The library path: no server, one thread calling
    /// `Pas2p::analyze_bytes` on each ring trace, round after round.
    pub fn analyze_trace(&self) -> Result<RunOutcome, String> {
        let mut setups = Vec::with_capacity(TRACE_SETUPS);
        let mut traces = Vec::new();
        for _ in 0..TRACE_SETUPS {
            let started = Instant::now();
            traces = workload::analyze_traces(self.seed);
            setups.push(started.elapsed().as_secs_f64());
        }
        let setup_s = median(&mut setups);

        let mut tally = Tally::default();
        // One thread, as the workload says: with `parallelism` left to
        // the core count every comparison round hands work to another
        // core and waits for it, and the loop times how fast this
        // machine wakes a core rather than the kernel.
        let pas2p = Pas2p {
            similarity: SimilarityConfig {
                parallelism: Some(1),
                ..SimilarityConfig::default()
            },
            ..Pas2p::default()
        };
        let scalar = Pas2p {
            similarity: SimilarityConfig {
                kernel: SimilarityKernel::Scalar,
                ..pas2p.similarity
            },
            ..Pas2p::default()
        };
        // The scalar walk is the oracle the SoA kernel must agree with;
        // it is too slow for the window, so it runs once here.
        let mut phases = Vec::with_capacity(traces.len());
        for t in &traces {
            let analysis = scalar
                .analyze_bytes(&t.name, "benchmark", &t.bytes)
                .map_err(|e| format!("{} under the scalar kernel: {e}", t.name))?;
            phases.push(analysis.total_phases());
        }

        let me = std::process::id().to_string();
        while tally.wall_s < self.seconds {
            let cpu_before = proc_usage(&me).cpu_ms;
            let round = Instant::now();
            for (t, &want) in traces.iter().zip(&phases) {
                let started = Instant::now();
                let analysis =
                    pas2p.analyze_bytes(&t.name, "benchmark", std::hint::black_box(&t.bytes));
                let ms = started.elapsed().as_secs_f64() * 1e3;
                tally.attempted += 1;
                match analysis {
                    Ok(a) if a.total_phases() == want => {
                        tally.ops_ok += 1;
                        tally.record(Class::Batch, &t.name, ms);
                    }
                    Ok(a) => tally.fail(format!(
                        "{}: {} phases, the scalar kernel found {want}",
                        t.name,
                        a.total_phases()
                    )),
                    Err(e) => tally.fail(format!("{}: {e}", t.name)),
                }
            }
            tally.book_pass(
                traces.len() as u64,
                round.elapsed().as_secs_f64(),
                proc_usage(&me).cpu_ms - cpu_before,
            );
        }
        tally.peak_rss_mb = proc_usage(&me).peak_rss_mb;
        Ok(outcome(setup_s, Class::Batch, tally))
    }

    pub fn run(&self, workload: &str) -> Result<RunOutcome, String> {
        match workload {
            "submit_cold" => self.submit_cold(),
            "predict_warm" => self.predict_warm(),
            "mixed" => self.mixed(),
            "batch_cold" => self.batch_cold(),
            "analyze_trace" => self.analyze_trace(),
            other => Err(format!("unknown workload '{other}'")),
        }
    }
}

fn class_label(class: Class) -> &'static str {
    match class {
        Class::SubmitCold => "submit",
        Class::PredictWarm => "predict_warm",
        Class::PredictStageB => "predict_stageb",
        Class::Batch => "op",
    }
}

/// Turn a tally into the end-to-end metrics of the catalogue
/// (latencies of `primary`) plus details that are printed and never
/// gated: throughput, the highest tail the sample supports, CPU per
/// operation, peak memory, and the latency of every other class.
fn outcome(setup_s: f64, primary: Class, mut tally: Tally) -> RunOutcome {
    let mut details = Vec::new();
    let ops = tally.ops_ok;
    let lat = tally.pooled_sorted(primary);
    let latency_samples = lat.len() as u64;
    let typical = tally.typical_ms(primary).unwrap_or_else(|| {
        tally.fail("no request of the workload's own class succeeded".to_string());
        0.0
    });
    if let Some((q, label)) = highest_supported_tail(lat.len()) {
        details.push(Metric::new(
            &format!("tail_{label}_ms"),
            quantile_sorted(&lat, q),
            "ms",
            latency_samples,
        ));
    }
    // Throughput and CPU per operation are read at the quiet quartile
    // over passes, for the same reason as the latency.
    tally.pass_ops_per_s.sort_unstable_by(f64::total_cmp);
    tally.pass_cpu_ms_per_op.sort_unstable_by(f64::total_cmp);
    let measured = [(setup_s, 1), (typical, latency_samples)];
    details.push(Metric::new(
        "ops_per_s",
        quantile_sorted(&tally.pass_ops_per_s, 1.0 - QUIET_OVER_PASSES),
        "1/s",
        ops,
    ));
    details.push(Metric::new(
        "cpu_ms_per_op",
        quantile_sorted(&tally.pass_cpu_ms_per_op, QUIET_OVER_PASSES),
        "ms",
        ops,
    ));
    if !tally.pass_reader_ops_per_s.is_empty() {
        tally.pass_reader_ops_per_s.sort_unstable_by(f64::total_cmp);
        details.push(Metric::new(
            "reader_ops_per_s",
            quantile_sorted(&tally.pass_reader_ops_per_s, 1.0 - QUIET_OVER_PASSES),
            "1/s",
            latency_samples,
        ));
    }
    let metrics = END_TO_END
        .iter()
        .zip(measured)
        .map(|(&(name, unit), (value, samples))| Metric::new(name, value, unit, samples))
        .collect();
    let others: Vec<Class> = tally
        .latencies_ms
        .keys()
        .copied()
        .filter(|c| *c != primary)
        .collect();
    for class in others {
        if let Some(ms) = tally.typical_ms(class) {
            let n = tally.pooled_sorted(class).len() as u64;
            details.push(Metric::new(
                &format!("{}_latency_ms", class_label(class)),
                ms,
                "ms",
                n,
            ));
        }
    }
    details.push(Metric::new("peak_rss_mb", tally.peak_rss_mb, "MB", 1));
    details.push(Metric::new(
        "passes",
        tally.passes() as f64,
        "count",
        tally.passes(),
    ));
    details.push(Metric::new("window_s", tally.wall_s, "s", 1));
    RunOutcome {
        correct: tally.failures.is_empty(),
        attempted: tally.attempted.max(1),
        failed: tally.failed(),
        metrics,
        details,
        failures: tally.failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_member_slices_nested_values_and_ignores_brackets_in_strings() {
        let line = r#"{"ok":true,"result":{"app":"a}\"]","prediction":{"m":[{"x":1.5}],"s":"}"},"target":"B"}}"#;
        assert_eq!(
            raw_member(line, "prediction"),
            Some(r#"{"m":[{"x":1.5}],"s":"}"}"#)
        );
        assert_eq!(raw_member(line, "target"), Some(r#""B""#));
        assert_eq!(raw_member(line, "ok"), Some("true"));
        assert_eq!(raw_member(line, "absent"), None);
    }

    #[test]
    fn every_workload_reports_the_catalogue_of_end_to_end_metrics() {
        let mut tally = Tally {
            attempted: 3,
            ops_ok: 3,
            peak_rss_mb: 5.0,
            ..Tally::default()
        };
        // Three passes of two kinds of request; the disturbed middle one
        // moves no figure. The fastest "small" of the passes are 2, 20
        // and 2, the "large" 8, 30 and 8; their lower quartiles are 2
        // and 8, and the mean of those is 5.
        for (small, large, wall_s, cpu_ms) in [
            ([11.0, 2.0], 8.0, 2.0, 30.0),
            ([20.0, 21.0], 30.0, 6.0, 90.0),
            ([2.0, 3.0], 8.0, 2.0, 30.0),
        ] {
            for ms in small {
                tally.record(Class::Batch, "small", ms);
            }
            tally.record(Class::Batch, "large", large);
            tally.book_pass(3, wall_s, cpu_ms);
        }
        let out = outcome(0.5, Class::Batch, tally);
        let got: Vec<(&str, &str)> = out
            .metrics
            .iter()
            .map(|m| (m.name.as_str(), m.unit))
            .collect();
        assert_eq!(got, crate::catalogue::END_TO_END);
        assert!(out.correct);
        let value = |of: &[Metric], name: &str| of.iter().find(|m| m.name == name).unwrap().value;
        assert!((value(&out.metrics, "latency_ms") - 5.0).abs() < 1e-12);
        assert_eq!(value(&out.details, "ops_per_s"), 1.5);
        assert_eq!(value(&out.details, "cpu_ms_per_op"), 10.0);
        assert!(
            out.details.iter().all(|d| !d.name.starts_with("tail_")),
            "nine samples carry no tail"
        );
    }

    #[test]
    fn checker_classifies_replies() {
        let checker = Checker {
            warm_expected: vec!["W".to_string()],
            ..Checker::default()
        };
        let op = |class, line: &str| Op::new(class, line.to_string());
        assert!(checker.check(&op(Class::PredictWarm, ""), "W").is_ok());
        assert!(checker.check(&op(Class::PredictWarm, ""), "w").is_err());
        let submit = op(Class::SubmitCold, "S");
        assert!(checker
            .check(
                &submit,
                r#"{"ok":true,"result":{"cached":false,"digest":"d"}}"#
            )
            .is_ok());
        assert_eq!(checker.digests.lock().unwrap()["S"], "d");
        assert!(checker
            .check(
                &submit,
                r#"{"ok":true,"result":{"cached":true,"digest":"d"}}"#
            )
            .is_err());
        for refused in [
            r#"{"ok":false,"code":"busy","error":"queue full"}"#,
            r#"{"ok":false,"code":"timeout","error":"deadline"}"#,
            "garbage",
        ] {
            assert!(checker.check(&submit, refused).is_err());
        }
        let stage_b = op(Class::PredictStageB, "");
        assert!(checker
            .check(&stage_b, r#"{"ok":true,"result":{"cached":false,"prediction":{"pet":1.5},"signature_cached":true}}"#)
            .is_ok());
        assert_eq!(
            checker.cold_predictions.lock().unwrap()[""],
            r#"{"pet":1.5}"#
        );
        assert!(checker
            .check(
                &stage_b,
                r#"{"ok":true,"result":{"cached":false,"signature_cached":false}}"#
            )
            .is_err());
    }
}
