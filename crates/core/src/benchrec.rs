//! Bench-trajectory recording: schema-versioned performance snapshots
//! of the pipeline itself, appended to a `BENCH_*.json` file so the
//! repository accumulates a benchmark trajectory across commits.
//!
//! A [`BenchRecord`] is derived from a [`BatchReport`] over the
//! standard application suite (`pas2p-cli bench-report`): per-app
//! trace-file analysis time (the paper's TFAT, Table 8), events/sec
//! through the analysis pipeline, and batch throughput. Records carry
//! [`BENCH_SCHEMA_VERSION`] so future readers can migrate old files.

use std::io;
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::batch::BatchReport;

/// Version stamp written into every record.
///
/// v2 added the optional `check` block (check-engine throughput); v3
/// added the optional `kernel` block (similarity-kernel timing); v4
/// dropped that block's `workers`, `soa_parallel_seconds` and
/// `total_speedup` (extraction is sequential: they timed the SoA run
/// twice). Records from older schemas deserialize with the newer blocks
/// as `None` and the dropped fields ignored.
pub const BENCH_SCHEMA_VERSION: u32 = 4;

/// Similarity-kernel timing inside a [`BenchRecord`]: the same logical
/// trace extracted with the scalar reference walk and with the SoA
/// kernel (banded prefilters + LSH bucketing). The outputs are
/// byte-identical by construction (`tests/kernel_equivalence.rs`); only
/// the time and the skip counters differ.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct KernelBenchStat {
    /// Application the extraction was timed over.
    pub app: String,
    /// Unique phases extracted (identical with either kernel).
    pub phases: u64,
    /// Scalar extraction, wall-clock seconds.
    pub scalar_seconds: f64,
    /// SoA extraction, wall-clock seconds.
    pub soa_seconds: f64,
    /// `scalar_seconds / soa_seconds` (0 when not measurable).
    pub soa_speedup: f64,
    /// Candidates rejected by the band prefilter (SoA run).
    pub band_rejects: u64,
    /// Known phases skipped by LSH bucketing (SoA run).
    pub lsh_skipped: u64,
    /// Full comparisons that survived the prefilters (SoA run).
    pub soa_compares: u64,
}

/// Check-engine throughput measurements inside a [`BenchRecord`]
/// (`pas2p-cli bench-report` runs the full rule set over one analyzed
/// app sequentially and with a worker pool).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CheckBenchStat {
    /// Application the engine was timed over.
    pub app: String,
    /// Worker threads in the parallel configuration.
    pub workers: usize,
    /// Diagnostics the engine produced (identical in both configurations
    /// by construction).
    pub diagnostics: u64,
    /// Wall-clock seconds for the sequential run.
    pub sequential_seconds: f64,
    /// Wall-clock seconds for the parallel run.
    pub parallel_seconds: f64,
    /// Sequential diagnostics/sec (0 when the run produced none).
    pub diagnostics_per_sec: f64,
    /// `sequential_seconds / parallel_seconds` (0 when not measurable).
    pub speedup: f64,
}

/// Per-application measurements inside a [`BenchRecord`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchAppStat {
    /// Application name (catalog name).
    pub app: String,
    /// Batch outcome (`ok`, `failed`, ...).
    pub status: String,
    /// Events in the recorded trace.
    pub trace_events: u64,
    /// Trace-file analysis time in seconds (ordering + extraction).
    pub tfat_seconds: f64,
    /// Analysis throughput: `trace_events / tfat_seconds`.
    pub events_per_sec: f64,
    /// Unique phases extracted.
    pub phases: u64,
    /// Wall-clock seconds the whole job took (including the traced run).
    pub job_seconds: f64,
}

/// One entry of the bench trajectory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchRecord {
    /// Record layout version ([`BENCH_SCHEMA_VERSION`]).
    pub schema: u32,
    /// Seconds since the Unix epoch when the record was taken.
    pub unix_time: u64,
    /// Free-form run label (e.g. a git revision).
    pub label: String,
    /// Process count every suite member ran at.
    pub nprocs: u32,
    /// Base machine preset name.
    pub base_machine: String,
    /// Worker threads the batch pool used.
    pub batch_workers: usize,
    /// Wall-clock seconds for the whole batch.
    pub batch_wall_seconds: f64,
    /// Jobs in the suite.
    pub jobs: usize,
    /// Jobs that completed with an analysis.
    pub jobs_ok: usize,
    /// Batch throughput: `jobs / batch_wall_seconds`.
    pub jobs_per_sec: f64,
    /// Total trace events across completed jobs.
    pub total_events: u64,
    /// Total TFAT seconds across completed jobs.
    pub total_tfat_seconds: f64,
    /// Aggregate analysis throughput: `total_events / total_tfat_seconds`.
    pub events_per_sec: f64,
    /// Per-application breakdown, in submission order.
    pub apps: Vec<BenchAppStat>,
    /// Check-engine throughput, when the run measured it (absent in
    /// schema-v1 records and when `bench-report` skips the check pass).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub check: Option<CheckBenchStat>,
    /// Similarity-kernel timing, when the run measured it (absent in
    /// pre-v3 records).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub kernel: Option<KernelBenchStat>,
}

/// `num / den`, or 0 when `den` is not positive (nothing was measured).
pub fn rate(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Derive a bench record from a finished batch over the suite.
pub fn bench_record(
    report: &BatchReport,
    label: &str,
    nprocs: u32,
    base_machine: &str,
) -> BenchRecord {
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut apps = Vec::with_capacity(report.results.len());
    let mut total_events = 0u64;
    let mut total_tfat = 0.0f64;
    let mut jobs_ok = 0usize;
    for r in &report.results {
        let (events, tfat, phases) = match &r.analysis {
            Some(a) => {
                jobs_ok += 1;
                (
                    a.trace_events as u64,
                    a.tfat_seconds,
                    a.analysis.total_phases() as u64,
                )
            }
            None => (0, 0.0, 0),
        };
        total_events += events;
        total_tfat += tfat;
        apps.push(BenchAppStat {
            app: r.app_name.clone(),
            status: r.status.to_string(),
            trace_events: events,
            tfat_seconds: tfat,
            events_per_sec: rate(events as f64, tfat),
            phases,
            job_seconds: r.job_seconds,
        });
    }
    BenchRecord {
        schema: BENCH_SCHEMA_VERSION,
        unix_time,
        label: label.to_string(),
        nprocs,
        base_machine: base_machine.to_string(),
        batch_workers: report.workers,
        batch_wall_seconds: report.wall_seconds,
        jobs: report.results.len(),
        jobs_ok,
        jobs_per_sec: rate(report.results.len() as f64, report.wall_seconds),
        total_events,
        total_tfat_seconds: total_tfat,
        events_per_sec: rate(total_events as f64, total_tfat),
        apps,
        check: None,
        kernel: None,
    }
}

/// Append `record` to the JSON array in `path`, creating the file if it
/// does not exist. An existing file that is not a `BenchRecord` array
/// is left untouched and reported as an error — the trajectory is
/// history, never to be clobbered by a malformed write.
pub fn append_record(path: &Path, record: &BenchRecord) -> io::Result<usize> {
    let mut records: Vec<BenchRecord> = match std::fs::read_to_string(path) {
        Ok(text) => serde_json::from_str(&text).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{} is not a bench-record array: {e}", path.display()),
            )
        })?,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    records.push(record.clone());
    let json = serde_json::to_string_pretty(&records).map_err(io::Error::other)?;
    std::fs::write(path, json + "\n")?;
    Ok(records.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{BatchResult, BatchStatus};

    fn report_with_one_failure() -> BatchReport {
        BatchReport {
            results: vec![BatchResult {
                index: 0,
                app_name: "cg".into(),
                status: BatchStatus::Failed,
                analysis: None,
                trace: None,
                ingest: None,
                error: Some("boom".into()),
                attempts: 1,
                job_seconds: 0.25,
            }],
            workers: 3,
            wall_seconds: 0.5,
        }
    }

    #[test]
    fn record_handles_failed_jobs_and_zero_denominators() {
        let rec = bench_record(&report_with_one_failure(), "test", 8, "ClusterA");
        assert_eq!(rec.schema, BENCH_SCHEMA_VERSION);
        assert_eq!(rec.jobs, 1);
        assert_eq!(rec.jobs_ok, 0);
        assert_eq!(rec.events_per_sec, 0.0, "no completed analyses");
        assert_eq!(rec.apps[0].status, "failed");
        assert_eq!(rec.jobs_per_sec, 2.0);
    }

    #[test]
    fn pre_v3_records_deserialize_without_kernel_block() {
        // A v2-era record has no `kernel` (and a v1-era one no `check`);
        // both must load as None so old trajectory files keep reading.
        let mut rec = bench_record(&report_with_one_failure(), "old", 8, "ClusterA");
        rec.schema = 2;
        rec.check = None;
        rec.kernel = None;
        let json = serde_json::to_string(&rec).unwrap();
        assert!(!json.contains("\"kernel\""), "None must not serialize");
        assert!(!json.contains("\"check\""));
        let back: BenchRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rec);

        // A v3-era kernel block carries three fields v4 dropped; they
        // are ignored and the rest of the block reads as before.
        rec.schema = 3;
        let v3_kernel = r#""kernel":{"app":"varied-ring","workers":4,"phases":144,
            "scalar_seconds":0.9,"soa_seconds":0.2,"soa_parallel_seconds":0.21,
            "soa_speedup":4.5,"total_speedup":4.3,"band_rejects":100,
            "lsh_skipped":400,"soa_compares":20},"#;
        let json = serde_json::to_string(&rec)
            .unwrap()
            .replacen('{', &format!("{{{v3_kernel}"), 1);
        let back: BenchRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back.schema, 3);
        assert_eq!(
            back.kernel,
            Some(KernelBenchStat {
                app: "varied-ring".into(),
                phases: 144,
                scalar_seconds: 0.9,
                soa_seconds: 0.2,
                soa_speedup: 4.5,
                band_rejects: 100,
                lsh_skipped: 400,
                soa_compares: 20,
            })
        );
    }

    #[test]
    fn kernel_block_round_trips() {
        let mut rec = bench_record(&report_with_one_failure(), "k", 8, "ClusterA");
        rec.kernel = Some(KernelBenchStat {
            app: "cg".into(),
            phases: 12,
            scalar_seconds: 0.9,
            soa_seconds: 0.2,
            soa_speedup: 4.5,
            band_rejects: 100,
            lsh_skipped: 400,
            soa_compares: 20,
        });
        let json = serde_json::to_string(&rec).unwrap();
        let back: BenchRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn append_creates_then_grows_and_rejects_garbage() {
        let dir = std::env::temp_dir().join(format!(
            "pas2p-benchrec-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_trajectory.json");
        let _ = std::fs::remove_file(&path);

        let rec = bench_record(&report_with_one_failure(), "r1", 8, "ClusterA");
        assert_eq!(append_record(&path, &rec).unwrap(), 1);
        assert_eq!(append_record(&path, &rec).unwrap(), 2);
        let loaded: Vec<BenchRecord> =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[1].label, "r1");

        std::fs::write(&path, "not json").unwrap();
        assert!(append_record(&path, &rec).is_err());
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "not json",
            "malformed trajectory must not be clobbered"
        );
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }
}
