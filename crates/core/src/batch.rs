//! Batch analysis: run many app×workload analyses over a bounded worker
//! pool, surviving whatever the jobs do.
//!
//! The driver exists for the paper's experimental sweeps (Tables 5–9):
//! one Stage-A analysis per application/workload pair, all independent of
//! each other. Jobs are the tasks of a `pas2p_obs::farm`: idle workers
//! claim the next job and results come back in submission order, so the
//! report order — and, because each analysis is itself deterministic,
//! the report content — is identical for any worker count and any
//! claiming order.
//!
//! The driver is hardened against misbehaving jobs: a panic inside one
//! analysis is caught at the worker boundary and classified, never
//! propagated ([`BatchStatus::Failed`]); a job can carry a per-job
//! deadline past which it stops at its next cancellation checkpoint
//! ([`BatchStatus::TimedOut`], on its own worker — see [`crate::cancel`]);
//! transient failures can be retried with exponential backoff
//! ([`BatchStatus::Retried`]). Jobs may also carry a seeded
//! [`FaultPlan`] injected into their trace byte stream, driving the
//! analysis through the recovering ingest path — the fault-matrix
//! acceptance suite is built on this.

use crate::cancel::{with_cancel, CancelToken};
use crate::pipeline::{Analysis, Pas2p};
use pas2p_faults::FaultPlan;
use pas2p_machine::{MachineModel, MappingPolicy};
use pas2p_signature::{run_traced, MpiApp};
use pas2p_trace::{Confidence, IngestReport, Trace};
use serde::Serialize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// One unit of batch work: analyze `app` on `base` under `policy`.
pub struct BatchJob {
    /// The application under study.
    pub app: Box<dyn MpiApp>,
    /// The base machine the analysis runs on.
    pub base: MachineModel,
    /// Process-to-node mapping policy.
    pub policy: MappingPolicy,
    /// Optional seeded fault plan injected into the trace byte stream
    /// before analysis; the job then runs through the recovering ingest
    /// path and reports an [`IngestReport`].
    pub fault: Option<FaultPlan>,
}

impl BatchJob {
    /// A job with the default block mapping and no fault injection.
    pub fn new(app: Box<dyn MpiApp>, base: MachineModel) -> BatchJob {
        BatchJob {
            app,
            base,
            policy: MappingPolicy::Block,
            fault: None,
        }
    }

    /// Attach a seeded fault plan to this job.
    pub fn with_fault(mut self, plan: FaultPlan) -> BatchJob {
        self.fault = Some(plan);
        self
    }
}

/// How a batch job ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum BatchStatus {
    /// Completed at full confidence on the first attempt.
    Ok,
    /// Completed, but on recovered input: the analysis carries
    /// [`Confidence::Degraded`].
    Degraded,
    /// Completed at full confidence, but only after at least one retry.
    Retried,
    /// Every attempt failed (typed error or panic); `error` says why.
    Failed,
    /// The per-job deadline expired; the job was stopped.
    TimedOut,
}

impl std::fmt::Display for BatchStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchStatus::Ok => write!(f, "ok"),
            BatchStatus::Degraded => write!(f, "degraded"),
            BatchStatus::Retried => write!(f, "retried"),
            BatchStatus::Failed => write!(f, "failed"),
            BatchStatus::TimedOut => write!(f, "timed-out"),
        }
    }
}

/// One job's outcome, in submission order.
#[derive(Debug, Clone, Serialize)]
pub struct BatchResult {
    /// Submission index of the job this result belongs to.
    pub index: usize,
    /// Application name, available even when the job produced no
    /// analysis (failed or timed out).
    pub app_name: String,
    /// Failure classification.
    pub status: BatchStatus,
    /// The full Stage-A analysis; absent for `Failed` and `TimedOut`.
    pub analysis: Option<Analysis>,
    /// The trace a fault-free job analyzed, kept so that a caller who
    /// addresses the result by content need not run the application
    /// again. In memory only: no report carries it (`skip_serializing_if`
    /// with a constant, because the offline serde stand-in has no `skip`).
    #[serde(skip_serializing_if = "never_serialized")]
    pub trace: Option<Trace>,
    /// Ingest accounting when the job went through the recovering
    /// decoder (fault jobs and byte-stream jobs), even on failure.
    pub ingest: Option<IngestReport>,
    /// The last attempt's error for `Failed` jobs.
    pub error: Option<String>,
    /// Attempts consumed (1 = no retries).
    pub attempts: u32,
    /// Host wall-clock seconds this job took on its worker.
    pub job_seconds: f64,
}

fn never_serialized<T>(_: &T) -> bool {
    true
}

/// The batch driver's output: every job's result plus run-level stats.
#[derive(Debug, Clone, Serialize)]
pub struct BatchReport {
    /// Per-job results, in submission order regardless of worker count.
    pub results: Vec<BatchResult>,
    /// Worker threads the batch ran with.
    pub workers: usize,
    /// Host wall-clock seconds for the whole batch.
    pub wall_seconds: f64,
}

impl BatchReport {
    /// One summary line per job (Table 8 columns: events, phases, TFAT).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.results {
            match (&r.status, &r.analysis) {
                (BatchStatus::Failed, _) => {
                    out.push_str(&format!(
                        "{:<12} {:>3}  FAILED after {} attempt(s): {}\n",
                        r.app_name,
                        "",
                        r.attempts,
                        r.error.as_deref().unwrap_or("unknown error"),
                    ));
                }
                (BatchStatus::TimedOut, _) => {
                    out.push_str(&format!(
                        "{:<12} {:>3}  TIMED OUT after {} attempt(s)\n",
                        r.app_name, "", r.attempts,
                    ));
                }
                (_, Some(a)) => {
                    out.push_str(&format!(
                        "{:<12} {:>3}p {:>8} events {:>4} phases ({:>3} relevant) \
                         TFAT {:.3}s AET {:.3}s [{}]\n",
                        a.app_name,
                        a.nprocs,
                        a.trace_events,
                        a.total_phases(),
                        a.relevant_phases(),
                        a.tfat_seconds,
                        a.aet_instrumented,
                        r.status,
                    ));
                }
                (_, None) => {
                    out.push_str(&format!("{:<12} [{}]\n", r.app_name, r.status));
                }
            }
        }
        out.push_str(&format!(
            "{} job(s) on {} worker(s), {:.3}s wall\n",
            self.results.len(),
            self.workers,
            self.wall_seconds
        ));
        out
    }

    /// Deterministic digest of the batch outcome: everything that must
    /// be byte-identical across worker counts and submission claiming
    /// orders — statuses, attempt counts, analysis shapes, and ingest
    /// accounting — and nothing that may not (wall times, metrics).
    pub fn digest(&self) -> String {
        let mut out = String::new();
        for r in &self.results {
            out.push_str(&format!(
                "job {} {} status={} attempts={}",
                r.index, r.app_name, r.status, r.attempts
            ));
            if let Some(a) = &r.analysis {
                out.push_str(&format!(
                    " nprocs={} events={} phases={} relevant={} confidence={}",
                    a.nprocs,
                    a.trace_events,
                    a.total_phases(),
                    a.relevant_phases(),
                    a.confidence,
                ));
            }
            if let Some(e) = &r.error {
                out.push_str(&format!(" error={}", e));
            }
            out.push('\n');
            if let Some(i) = &r.ingest {
                for line in i.render().lines() {
                    out.push_str("  ");
                    out.push_str(line);
                    out.push('\n');
                }
            }
        }
        out
    }

    /// True when every job completed (possibly degraded or retried).
    pub fn all_completed(&self) -> bool {
        self.results
            .iter()
            .all(|r| !matches!(r.status, BatchStatus::Failed | BatchStatus::TimedOut))
    }
}

/// Knobs for [`run_batch_with`].
#[derive(Debug, Clone, Copy)]
pub struct BatchOptions {
    /// Worker threads; `None` means one per available core. Clamped to
    /// the job count either way.
    pub workers: Option<usize>,
    /// Per-job wall-clock deadline. A job still running when it expires
    /// stops at its next cancellation checkpoint (stage boundaries,
    /// simulator communication events, extraction windows) and is
    /// reported [`BatchStatus::TimedOut`]; a job that finishes before
    /// any checkpoint noticed keeps its result.
    pub deadline: Option<Duration>,
    /// Retries after a failed attempt (0 = single attempt).
    pub max_retries: u32,
    /// Sleep before the first retry; doubles per subsequent retry.
    pub retry_backoff: Duration,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            workers: None,
            deadline: None,
            max_retries: 0,
            retry_backoff: Duration::from_millis(50),
        }
    }
}

/// Resolve the worker count: an explicit request is clamped to the job
/// count; `None` means one worker per available core (again clamped).
pub fn batch_workers(requested: Option<usize>, jobs: usize) -> usize {
    pas2p_obs::farm::workers(requested).min(jobs.max(1))
}

/// Largest exponent used by the retry backoff: delays stop doubling at
/// `retry_backoff × 2^16` (so pathological `max_retries` values can't
/// shift the factor into nonsense).
const BACKOFF_EXPONENT_CAP: u32 = 16;

/// Delay before retry number `retry` (1-based): `base × 2^(retry − 1)`,
/// with the exponent capped at [`BACKOFF_EXPONENT_CAP`] and the
/// multiplication saturating to `Duration::MAX`. `Duration * u32`
/// panics on overflow, and a large user-supplied `retry_backoff`
/// reaches that panic even with the exponent cap — inside the retry
/// loop, where a panic is indistinguishable from a failing job.
fn retry_backoff_delay(base: Duration, retry: u32) -> Duration {
    let factor = 1u32 << retry.saturating_sub(1).min(BACKOFF_EXPONENT_CAP);
    base.checked_mul(factor).unwrap_or(Duration::MAX)
}

/// What one job's retry loop produced: on success the analysis, with
/// the trace behind it when the job was fault-free.
struct Outcome {
    result: Result<(Analysis, Option<Trace>), String>,
    ingest: Option<IngestReport>,
    attempts: u32,
}

/// Render a caught panic payload as the error text of a failed job or
/// request.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        format!("panicked: {}", s)
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panicked: {}", s)
    } else {
        "panicked".to_string()
    }
}

/// One attempt: run the job to completion, through fault injection and
/// recovering ingest when the job carries a plan.
fn attempt(
    pas2p: &Pas2p,
    job: &BatchJob,
) -> Result<(Analysis, Option<Trace>), (String, Option<IngestReport>)> {
    match &job.fault {
        None => {
            let (analysis, trace, _logical) =
                pas2p.analyze_full(job.app.as_ref(), &job.base, job.policy.clone());
            Ok((analysis, Some(trace)))
        }
        Some(plan) => {
            let (trace, _) = run_traced(
                job.app.as_ref(),
                &job.base,
                job.policy.clone(),
                pas2p.instrumentation,
            );
            let (bytes, _log) = plan.inject(&trace);
            pas2p
                .analyze_bytes_checked(&job.app.name(), &job.app.workload(), &bytes)
                .map(|analysis| (analysis, None))
                .map_err(|e| (e.reason, Some(e.ingest)))
        }
    }
}

/// The bounded retry loop around [`attempt`], with the panic boundary.
/// Never unwinds: a panicking job becomes an `Err` like any other.
fn attempt_loop(pas2p: &Pas2p, job: &BatchJob, opts: &BatchOptions) -> Outcome {
    let mut attempts = 0u32;
    // Every failing iteration assigns before the bound check reads.
    let mut last_err;
    let mut last_ingest = None;
    loop {
        attempts += 1;
        match catch_unwind(AssertUnwindSafe(|| attempt(pas2p, job))) {
            Ok(Ok(done)) => {
                let ingest = done.0.ingest.clone();
                return Outcome {
                    result: Ok(done),
                    ingest,
                    attempts,
                };
            }
            Ok(Err((reason, ingest))) => {
                last_err = reason;
                if ingest.is_some() {
                    last_ingest = ingest;
                }
            }
            Err(payload) => {
                last_err = panic_message(payload);
            }
        }
        if attempts > opts.max_retries {
            return Outcome {
                result: Err(last_err),
                ingest: last_ingest,
                attempts,
            };
        }
        // A deadline-expired job stops here: no retry, no retry
        // accounting — it is about to be reported timed out.
        if crate::cancel::cancelled() {
            return Outcome {
                result: Err(last_err),
                ingest: last_ingest,
                attempts,
            };
        }
        if pas2p_obs::enabled() {
            pas2p_obs::counter("batch.retries").add(1);
        }
        if pas2p_obs::tracing_enabled() {
            pas2p_obs::instant(
                "host.batch",
                "retry",
                vec![
                    ("app", job.app.name()),
                    ("attempt", attempts.to_string()),
                    ("error", last_err.clone()),
                ],
            );
        }
        // Exponential backoff: opts.retry_backoff × 2^(retry - 1),
        // capped and saturating so no combination of knobs can panic.
        std::thread::sleep(retry_backoff_delay(opts.retry_backoff, attempts));
    }
}

fn classify(outcome: &Outcome) -> BatchStatus {
    match &outcome.result {
        Ok((a, _)) if a.confidence == Confidence::Degraded => BatchStatus::Degraded,
        Ok(_) if outcome.attempts > 1 => BatchStatus::Retried,
        Ok(_) => BatchStatus::Ok,
        Err(_) => BatchStatus::Failed,
    }
}

/// Run one job, enforcing the deadline if there is one: the retry loop
/// runs right here on the farm worker, under a token that expires with
/// the deadline. The attempt in flight unwinds at its first checkpoint
/// past it (caught by the loop's own panic boundary), the loop stops
/// retrying, and the job is [`BatchStatus::TimedOut`] — late by however
/// long the stretch between two checkpoints was, and over when reported.
fn run_job(pas2p: &Pas2p, job: BatchJob, opts: &BatchOptions) -> (String, BatchStatus, Outcome) {
    let app_name = job.app.name();
    let run = || attempt_loop(pas2p, &job, opts);
    let (outcome, expired) = match opts.deadline {
        None => (run(), None),
        Some(deadline) => {
            let token = CancelToken::with_deadline(deadline);
            let outcome = with_cancel(&token, run);
            let stopped = outcome.result.is_err() && token.tripped();
            (outcome, stopped.then_some(deadline))
        }
    };
    let Some(deadline) = expired else {
        let status = classify(&outcome);
        return (app_name, status, outcome);
    };
    if pas2p_obs::tracing_enabled() {
        pas2p_obs::instant(
            "host.batch",
            "deadline expired",
            vec![
                ("app", app_name.clone()),
                ("deadline_s", format!("{:.3}", deadline.as_secs_f64())),
            ],
        );
    }
    let outcome = Outcome {
        result: Err(format!(
            "deadline of {:.3}s expired",
            deadline.as_secs_f64()
        )),
        ingest: None,
        attempts: 1,
    };
    (app_name, BatchStatus::TimedOut, outcome)
}

/// Analyze every job over a pool of worker threads, with panic
/// isolation, per-job deadlines and bounded retries per
/// [`BatchOptions`].
///
/// Each job is one farm task — no job is run twice, no job is skipped —
/// and results come back in submission order. The analyses themselves
/// are deterministic, so [`BatchReport::digest`] is byte-identical for
/// any worker count and any claiming order.
pub fn run_batch_with(pas2p: &Pas2p, jobs: Vec<BatchJob>, opts: BatchOptions) -> BatchReport {
    let njobs = jobs.len();
    let workers = batch_workers(opts.workers, njobs);
    let mut st = pas2p_obs::stage("batch");
    st.items(njobs as u64);
    if pas2p_obs::enabled() {
        pas2p_obs::counter("batch.jobs").add(njobs as u64);
        pas2p_obs::gauge("pipeline.par.workers").set(workers as f64);
    }

    let run_one = |(index, job): (usize, BatchJob)| {
        // One aggregated histogram for all jobs plus a bounded top-K of
        // stage profiles after the pool drains — NOT one stage profile
        // per job, which made snapshot size grow with batch size.
        let job_span = if pas2p_obs::tracing_enabled() {
            Some(pas2p_obs::trace_span(
                "host.job",
                &format!("job {index}: {}", job.app.name()),
            ))
        } else {
            None
        };
        let started = std::time::Instant::now();
        let (app_name, status, outcome) = run_job(pas2p, job, &opts);
        if pas2p_obs::enabled() {
            match status {
                BatchStatus::Failed => pas2p_obs::counter("batch.failed").add(1),
                BatchStatus::TimedOut => pas2p_obs::counter("batch.timed_out").add(1),
                BatchStatus::Degraded => pas2p_obs::counter("batch.degraded").add(1),
                _ => {}
            }
        }
        let (analysis, trace, error) = match outcome.result {
            Ok((a, t)) => (Some(a), t, None),
            Err(e) => (None, None, Some(e)),
        };
        let job_seconds = started.elapsed().as_secs_f64();
        if pas2p_obs::enabled() {
            pas2p_obs::histogram("batch.job_micros").record((job_seconds * 1e6) as u64);
        }
        if let Some(span) = job_span {
            span.finish_with(vec![
                ("app", app_name.clone()),
                ("status", status.to_string()),
                ("attempts", outcome.attempts.to_string()),
            ]);
        }
        BatchResult {
            index,
            app_name,
            status,
            analysis,
            trace,
            ingest: outcome.ingest,
            error,
            attempts: outcome.attempts,
            job_seconds,
        }
    };

    // Always on worker threads, even with one worker: a job must see
    // the same thread environment (fresh thread under a worker lane, no
    // enclosing span of the caller's) regardless of the worker count,
    // or the exported timelines would nest differently for workers = 1
    // vs. workers > 1.
    let jobs = jobs.into_iter().enumerate().collect();
    let results = pas2p_obs::farm::map_on_workers(workers, "batch worker", jobs, run_one);
    if pas2p_obs::enabled() {
        record_slowest_jobs(&results);
    }
    let wall_seconds = st.finish();
    BatchReport {
        results,
        workers,
        wall_seconds,
    }
}

/// The `SLOWEST_JOBS` slowest jobs of each batch, summed under one stage
/// name: what the stragglers cost (seconds, events, how many) without a
/// profile per job, or a name per job, for a server to accumulate.
/// Which job was slow is in its `BatchResult::job_seconds`.
const SLOWEST_JOBS: usize = 8;

fn record_slowest_jobs(results: &[BatchResult]) {
    let mut order: Vec<&BatchResult> = results.iter().collect();
    order.sort_by(|a, b| {
        b.job_seconds
            .total_cmp(&a.job_seconds)
            .then(a.index.cmp(&b.index))
    });
    for r in order.iter().take(SLOWEST_JOBS) {
        let items = r
            .analysis
            .as_ref()
            .map(|a| a.trace_events as u64)
            .unwrap_or(0);
        pas2p_obs::global().record_stage("batch.job.slowest", r.job_seconds, items);
    }
}

/// [`run_batch_with`] under default options: no deadlines, no retries —
/// but still panic-isolated. Kept as the simple entry point for sweeps
/// of well-behaved jobs.
pub fn run_batch(pas2p: &Pas2p, jobs: Vec<BatchJob>, workers: Option<usize>) -> BatchReport {
    run_batch_with(
        pas2p,
        jobs,
        BatchOptions {
            workers,
            ..BatchOptions::default()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pas2p_machine::cluster_a;
    use pas2p_signature::RankProgram;

    fn jobs_of(names: &[&str]) -> Vec<BatchJob> {
        names
            .iter()
            .map(|n| BatchJob::new(pas2p_apps::by_name(n, 8).expect("catalog app"), cluster_a()))
            .collect()
    }

    /// The determinism surface of one result: everything except host
    /// timing and the metrics snapshot.
    fn key(r: &BatchResult) -> (usize, String, usize, usize, usize) {
        let a = r.analysis.as_ref().expect("analysis present");
        (
            r.index,
            a.app_name.clone(),
            a.trace_events,
            a.total_phases(),
            a.relevant_phases(),
        )
    }

    #[test]
    fn batch_results_are_worker_count_invariant() {
        let pas2p = Pas2p::default();
        let names = ["cg", "moldy", "masterworker", "ft"];
        let baseline = run_batch(&pas2p, jobs_of(&names), Some(1));
        assert_eq!(baseline.results.len(), names.len());
        for (i, r) in baseline.results.iter().enumerate() {
            assert_eq!(r.index, i, "results must be in submission order");
            assert_eq!(r.status, BatchStatus::Ok);
            assert_eq!(r.attempts, 1);
            assert_eq!(r.app_name.to_lowercase(), names[i]);
        }
        for workers in [2, 3, 8] {
            let par = run_batch(&pas2p, jobs_of(&names), Some(workers));
            assert_eq!(par.workers, workers.min(names.len()));
            let a: Vec<_> = baseline.results.iter().map(key).collect();
            let b: Vec<_> = par.results.iter().map(key).collect();
            assert_eq!(a, b, "worker count {workers} changed the batch output");
            assert_eq!(
                baseline.digest(),
                par.digest(),
                "digest must be byte-identical across worker counts"
            );
        }
    }

    #[test]
    fn batch_results_are_submission_order_invariant() {
        let pas2p = Pas2p::default();
        let forward = run_batch(&pas2p, jobs_of(&["cg", "moldy"]), Some(2));
        let reverse = run_batch(&pas2p, jobs_of(&["moldy", "cg"]), Some(2));
        // Same jobs, opposite submission order: each result follows its
        // job, so the reports are mirror images of each other.
        let body = |r: &BatchResult| {
            let k = key(r);
            (k.1, k.2, k.3, k.4)
        };
        assert_eq!(body(&forward.results[0]), body(&reverse.results[1]));
        assert_eq!(body(&forward.results[1]), body(&reverse.results[0]));
    }

    #[test]
    fn batch_workers_clamps() {
        assert_eq!(batch_workers(Some(16), 4), 4);
        assert_eq!(batch_workers(Some(0), 4), 1);
        assert_eq!(batch_workers(Some(2), 0), 1);
        assert!(batch_workers(None, 100) >= 1);
    }

    #[test]
    fn empty_batch_is_fine() {
        let report = run_batch(&Pas2p::default(), Vec::new(), None);
        assert!(report.results.is_empty());
        assert_eq!(report.workers, 1);
        assert!(report.render().contains("0 job(s)"));
        assert!(report.all_completed());
    }

    /// An app whose rank program panics mid-run: the batch must survive
    /// and classify, never unwind.
    struct PanickingApp;

    struct PanickingRank;
    impl RankProgram for PanickingRank {
        fn prologue(&mut self, _: &mut dyn pas2p_mpisim::Mpi) {}
        fn steps(&self) -> u64 {
            1
        }
        fn step(&mut self, _: u64, _: &mut dyn pas2p_mpisim::Mpi) {
            panic!("injected rank panic");
        }
        fn epilogue(&mut self, _: &mut dyn pas2p_mpisim::Mpi) {}
        fn snapshot(&self) -> Vec<u8> {
            Vec::new()
        }
        fn restore(&mut self, _: &[u8]) {}
    }

    impl MpiApp for PanickingApp {
        fn name(&self) -> String {
            "panicker".into()
        }
        fn nprocs(&self) -> u32 {
            2
        }
        fn workload(&self) -> String {
            "panics".into()
        }
        fn make_rank(&self, _: u32) -> Box<dyn RankProgram> {
            Box::new(PanickingRank)
        }
    }

    /// An app that sleeps long enough to blow any small deadline.
    struct SleepyApp;

    struct SleepyRank;
    impl RankProgram for SleepyRank {
        fn prologue(&mut self, _: &mut dyn pas2p_mpisim::Mpi) {}
        fn steps(&self) -> u64 {
            1
        }
        fn step(&mut self, _: u64, _: &mut dyn pas2p_mpisim::Mpi) {
            std::thread::sleep(Duration::from_millis(400));
        }
        fn epilogue(&mut self, _: &mut dyn pas2p_mpisim::Mpi) {}
        fn snapshot(&self) -> Vec<u8> {
            Vec::new()
        }
        fn restore(&mut self, _: &[u8]) {}
    }

    impl MpiApp for SleepyApp {
        fn name(&self) -> String {
            "sleeper".into()
        }
        fn nprocs(&self) -> u32 {
            1
        }
        fn workload(&self) -> String {
            "sleeps".into()
        }
        fn make_rank(&self, _: u32) -> Box<dyn RankProgram> {
            Box::new(SleepyRank)
        }
    }

    #[test]
    fn panicking_job_is_isolated_and_classified() {
        let pas2p = Pas2p::default();
        let jobs = vec![
            BatchJob::new(Box::new(PanickingApp), cluster_a()),
            BatchJob::new(
                pas2p_apps::by_name("cg", 8).expect("catalog app"),
                cluster_a(),
            ),
        ];
        let report = run_batch(&pas2p, jobs, Some(2));
        assert_eq!(report.results[0].status, BatchStatus::Failed);
        assert!(report.results[0].analysis.is_none());
        assert!(
            report.results[0]
                .error
                .as_deref()
                .unwrap()
                .contains("panic"),
            "{:?}",
            report.results[0].error
        );
        // The neighbor job is untouched by the panic.
        assert_eq!(report.results[1].status, BatchStatus::Ok);
        assert!(!report.all_completed());
    }

    #[test]
    fn retries_are_bounded_and_counted() {
        let pas2p = Pas2p::default();
        let opts = BatchOptions {
            workers: Some(1),
            max_retries: 2,
            retry_backoff: Duration::from_millis(1),
            ..BatchOptions::default()
        };
        let jobs = vec![BatchJob::new(Box::new(PanickingApp), cluster_a())];
        let report = run_batch_with(&pas2p, jobs, opts);
        let r = &report.results[0];
        assert_eq!(r.status, BatchStatus::Failed);
        assert_eq!(r.attempts, 3, "1 attempt + 2 retries");
    }

    #[test]
    fn deadline_expiry_times_a_job_out() {
        let pas2p = Pas2p::default();
        let opts = BatchOptions {
            workers: Some(2),
            // Between the sleeper's 400 ms and what `cg` needs on a
            // loaded two-core box in a debug build (60 ms was not).
            deadline: Some(Duration::from_millis(250)),
            ..BatchOptions::default()
        };
        let jobs = vec![
            BatchJob::new(Box::new(SleepyApp), cluster_a()),
            BatchJob::new(
                pas2p_apps::by_name("cg", 8).expect("catalog app"),
                cluster_a(),
            ),
        ];
        let report = run_batch_with(&pas2p, jobs, opts);
        assert_eq!(report.results[0].status, BatchStatus::TimedOut);
        assert!(report.results[0].analysis.is_none());
        // A fast job under the same deadline completes normally.
        assert_eq!(report.results[1].status, BatchStatus::Ok);
    }

    #[test]
    fn retry_backoff_saturates_instead_of_panicking() {
        // The documented schedule below the caps is unchanged.
        let base = Duration::from_millis(50);
        assert_eq!(retry_backoff_delay(base, 1), Duration::from_millis(50));
        assert_eq!(retry_backoff_delay(base, 2), Duration::from_millis(100));
        assert_eq!(retry_backoff_delay(base, 5), Duration::from_millis(800));
        // The exponent stops doubling at 2^16 for any retry count.
        assert_eq!(retry_backoff_delay(base, 17), base * 65536);
        assert_eq!(retry_backoff_delay(base, 1000), base * 65536);
        // Degenerate retry number 0 behaves like the first retry.
        assert_eq!(retry_backoff_delay(base, 0), base);
        // A large base × a capped factor used to overflow `Duration *
        // u32` and panic inside the retry loop; now it saturates.
        let huge = Duration::from_secs(u64::MAX / 1000);
        assert_eq!(retry_backoff_delay(huge, 40), Duration::MAX);
        assert_eq!(retry_backoff_delay(Duration::MAX, 2), Duration::MAX);
    }

    #[test]
    fn cancelled_attempt_loop_stops_before_retrying() {
        let pas2p = Pas2p::default();
        let opts = BatchOptions {
            max_retries: 50,
            retry_backoff: Duration::from_millis(1),
            ..BatchOptions::default()
        };
        let job = BatchJob::new(Box::new(PanickingApp), cluster_a());
        let token = crate::cancel::CancelToken::new();
        token.cancel();
        // Under a cancelled token the loop gives up after the in-flight
        // attempt instead of burning through all 50 retries.
        let outcome = crate::cancel::with_cancel(&token, || attempt_loop(&pas2p, &job, &opts));
        assert_eq!(outcome.attempts, 1);
        assert!(outcome.result.is_err());
    }

    #[test]
    fn cancelled_pipeline_unwinds_at_the_next_stage_boundary() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let pas2p = Pas2p::default();
        let app = pas2p_apps::by_name("cg", 8).expect("catalog app");
        let token = crate::cancel::CancelToken::new();
        token.cancel();
        let result = catch_unwind(AssertUnwindSafe(|| {
            crate::cancel::with_cancel(&token, || {
                pas2p.analyze(app.as_ref(), &cluster_a(), MappingPolicy::Block)
            })
        }));
        let payload = result.expect_err("cancelled analysis must unwind");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&crate::cancel::CANCELLED)
        );
    }

    #[test]
    fn fault_job_reports_ingest_and_degrades() {
        let pas2p = Pas2p::default();
        let plan = FaultPlan::new(7).with(pas2p_faults::FaultKind::DropRank { rank: 1 });
        let jobs = vec![BatchJob::new(
            pas2p_apps::by_name("cg", 8).expect("catalog app"),
            cluster_a(),
        )
        .with_fault(plan)];
        let report = run_batch(&pas2p, jobs, Some(1));
        let r = &report.results[0];
        assert!(
            matches!(r.status, BatchStatus::Degraded | BatchStatus::Failed),
            "fault job must be classified, got {:?}",
            r.status
        );
        let ingest = r
            .ingest
            .as_ref()
            .expect("fault jobs carry an ingest report");
        assert!(ingest.is_degraded());
    }
}
