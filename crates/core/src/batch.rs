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
//! ([`BatchStatus::TimedOut`], on its own worker — see [`crate::cancel`]).
//! A job is attempted once: every analysis is a function of its inputs
//! (app, machine, configuration, fault seed), so a second attempt fails
//! the way the first did. Jobs may also carry a seeded [`FaultPlan`]
//! injected into their trace byte stream, driving the analysis through
//! the recovering ingest path — the fault-matrix acceptance suite is
//! built on this.
//!
//! The service's `batch` op does not come through here: it fans out the
//! same `ensure_signature` a `submit` runs (see [`crate::service`]).

use crate::cancel::{guarded, Stopped};
use crate::pipeline::{Analysis, Pas2p};
use pas2p_check::CheckEngine;
use pas2p_faults::FaultPlan;
use pas2p_machine::{MachineModel, MappingPolicy};
use pas2p_obs::{Counter, Gauge, Histogram};
use pas2p_signature::{run_traced, MpiApp};
use pas2p_trace::{Confidence, IngestReport};
use serde::Serialize;
use std::time::Duration;

static JOBS: Counter = Counter::new("batch.jobs");
static WORKERS: Gauge = Gauge::new("batch.workers");
static FAILED: Counter = Counter::new("batch.failed");
static TIMED_OUT: Counter = Counter::new("batch.timed_out");
static DEGRADED: Counter = Counter::new("batch.degraded");
/// One aggregated histogram for all jobs, not a stage profile per job,
/// which would grow the snapshot with the batch size.
static JOB_MICROS: Histogram = Histogram::new("batch.job_micros");

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
    /// Completed at full confidence.
    Ok,
    /// Completed, but on recovered input: the analysis carries
    /// [`Confidence::Degraded`].
    Degraded,
    /// Failed (typed error or panic); `error` says why.
    Failed,
    /// The per-job deadline expired; the job was stopped.
    TimedOut,
}

impl std::fmt::Display for BatchStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchStatus::Ok => write!(f, "ok"),
            BatchStatus::Degraded => write!(f, "degraded"),
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
    /// Ingest accounting when the job went through the recovering
    /// decoder (fault jobs and byte-stream jobs), even on failure.
    pub ingest: Option<IngestReport>,
    /// Why a `Failed` or `TimedOut` job produced no analysis.
    pub error: Option<String>,
    /// Host wall-clock seconds this job took on its worker.
    pub job_seconds: f64,
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
                        "{:<12} {:>3}  FAILED: {}\n",
                        r.app_name,
                        "",
                        r.error.as_deref().unwrap_or("unknown error"),
                    ));
                }
                (BatchStatus::TimedOut, _) => {
                    out.push_str(&format!("{:<12} {:>3}  TIMED OUT\n", r.app_name, ""));
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
    /// orders — statuses, analysis shapes, and ingest accounting — and
    /// nothing that may not (wall times, metrics).
    pub fn digest(&self) -> String {
        let mut out = String::new();
        for r in &self.results {
            out.push_str(&format!(
                "job {} {} status={}",
                r.index, r.app_name, r.status
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

    /// True when every job completed (possibly degraded).
    pub fn all_completed(&self) -> bool {
        self.results
            .iter()
            .all(|r| !matches!(r.status, BatchStatus::Failed | BatchStatus::TimedOut))
    }
}

/// Knobs for [`run_batch_with`].
#[derive(Debug, Clone, Copy, Default)]
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
}

/// Resolve the worker count: an explicit request is clamped to the job
/// count; `None` means one worker per available core (again clamped).
pub fn batch_workers(requested: Option<usize>, jobs: usize) -> usize {
    pas2p_obs::farm::workers(requested).min(jobs.max(1))
}

/// Why a job has no analysis, with the ingest accounting when the
/// recovering decoder got far enough to have one.
type Failure = (String, Option<IngestReport>);

/// The job's analysis, through fault injection and recovering ingest
/// when the job carries a plan.
fn analyze(pas2p: &Pas2p, job: &BatchJob) -> Result<Analysis, Failure> {
    match &job.fault {
        None => Ok(pas2p.analyze(job.app.as_ref(), &job.base, job.policy.clone())),
        Some(plan) => {
            let (trace, _) = run_traced(
                job.app.as_ref(),
                &job.base,
                job.policy.clone(),
                pas2p.instrumentation,
            );
            let (bytes, _log) = plan.inject(&trace);
            let engine = CheckEngine::with_default_rules();
            pas2p
                .analyze_buffer(&job.app.name(), &job.app.workload(), &bytes, Some(&engine))
                .map(|(analysis, _trace)| analysis)
                .map_err(|e| (e.reason, Some(e.ingest)))
        }
    }
}

/// Run one job, once, right here on the farm worker: under a panic
/// boundary and — with a deadline — a token that expires with it
/// ([`guarded`]). A job stopped by the deadline is late by however long
/// the stretch between two checkpoints was, and over when reported.
fn run_job(
    pas2p: &Pas2p,
    job: &BatchJob,
    deadline: Option<Duration>,
) -> (BatchStatus, Result<Analysis, Failure>) {
    match guarded(deadline, || analyze(pas2p, job)) {
        Ok(analysis) => {
            let status = match analysis.confidence {
                Confidence::Degraded => BatchStatus::Degraded,
                _ => BatchStatus::Ok,
            };
            (status, Ok(analysis))
        }
        Err(Stopped::TimedOut { error, .. }) => {
            pas2p_obs::instant("host.batch", "deadline expired", || {
                vec![("app", job.app.name()), ("error", error.clone())]
            });
            (BatchStatus::TimedOut, Err((error, None)))
        }
        Err(Stopped::Failed(failure)) => (BatchStatus::Failed, Err(failure)),
        Err(Stopped::Panicked(error)) => (BatchStatus::Failed, Err((error, None))),
    }
}

/// Analyze every job over a pool of worker threads, with panic
/// isolation and per-job deadlines per [`BatchOptions`].
///
/// Each job is one farm task — no job is run twice, no job is skipped —
/// and results come back in submission order. The analyses themselves
/// are deterministic, so [`BatchReport::digest`] is byte-identical for
/// any worker count and any claiming order. With obs on, the farm's
/// worker count is the `batch.workers` gauge.
pub fn run_batch_with(pas2p: &Pas2p, jobs: Vec<BatchJob>, opts: BatchOptions) -> BatchReport {
    let njobs = jobs.len();
    let workers = batch_workers(opts.workers, njobs);
    let mut st = pas2p_obs::stage("batch");
    st.items(njobs as u64);
    JOBS.add(njobs as u64);
    WORKERS.set(workers as f64);

    let run_one = |(index, job): (usize, BatchJob)| {
        let app_name = job.app.name();
        let job_span = pas2p_obs::trace_span("host.job", format_args!("job {index}: {app_name}"));
        let started = std::time::Instant::now();
        let (status, result) = run_job(pas2p, &job, opts.deadline);
        match status {
            BatchStatus::Failed => FAILED.inc(),
            BatchStatus::TimedOut => TIMED_OUT.inc(),
            BatchStatus::Degraded => DEGRADED.inc(),
            _ => {}
        }
        let job_seconds = started.elapsed().as_secs_f64();
        JOB_MICROS.record((job_seconds * 1e6) as u64);
        job_span.finish_with(|| vec![("app", app_name.clone()), ("status", status.to_string())]);
        let (ingest, analysis, error) = match result {
            Ok(analysis) => (analysis.ingest.clone(), Some(analysis), None),
            Err((error, ingest)) => (ingest, None, Some(error)),
        };
        BatchResult {
            index,
            app_name,
            status,
            analysis,
            ingest,
            error,
            job_seconds,
        }
    };

    // The farm runs every job on a worker thread, even with one worker,
    // so the exported timelines nest the same at any worker count.
    let jobs = jobs.into_iter().enumerate().collect();
    let results = pas2p_obs::farm::map(workers, "batch worker", jobs, run_one);
    let wall_seconds = st.finish();
    BatchReport {
        results,
        workers,
        wall_seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pas2p_machine::cluster_a;
    use pas2p_signature::RankProgram;

    fn at(workers: Option<usize>) -> BatchOptions {
        BatchOptions {
            workers,
            ..BatchOptions::default()
        }
    }

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
        let baseline = run_batch_with(&pas2p, jobs_of(&names), at(Some(1)));
        assert_eq!(baseline.results.len(), names.len());
        for (i, r) in baseline.results.iter().enumerate() {
            assert_eq!(r.index, i, "results must be in submission order");
            assert_eq!(r.status, BatchStatus::Ok);
            assert_eq!(r.app_name.to_lowercase(), names[i]);
        }
        for workers in [2, 3, 8] {
            let par = run_batch_with(&pas2p, jobs_of(&names), at(Some(workers)));
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
        let forward = run_batch_with(&pas2p, jobs_of(&["cg", "moldy"]), at(Some(2)));
        let reverse = run_batch_with(&pas2p, jobs_of(&["moldy", "cg"]), at(Some(2)));
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
        let report = run_batch_with(&Pas2p::default(), Vec::new(), at(None));
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
        let report = run_batch_with(&pas2p, jobs, at(Some(2)));
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
    fn deadline_expiry_times_a_job_out() {
        let pas2p = Pas2p::default();
        let opts = BatchOptions {
            workers: Some(2),
            // Between the sleeper's 400 ms and what `cg` needs on a
            // loaded two-core box in a debug build (60 ms was not).
            deadline: Some(Duration::from_millis(250)),
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
    fn cancelled_pipeline_unwinds_at_the_next_stage_boundary() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let pas2p = Pas2p::default();
        let app = pas2p_apps::by_name("cg", 8).expect("catalog app");
        let token = crate::cancel::CancelToken::with_deadline(std::time::Duration::ZERO);
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
        let report = run_batch_with(&pas2p, jobs, at(Some(1)));
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
