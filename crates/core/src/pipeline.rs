//! The end-to-end PAS2P pipeline (Fig 1 / Fig 2 of the paper).

use pas2p_check::{Artifacts, CheckEngine, CheckReport};
use pas2p_machine::{MachineModel, MappingPolicy};
use pas2p_model::{try_pas2p_order, LogicalTrace, ModelError};
use pas2p_obs::{Gauge, Level, MetricsSnapshot};
use pas2p_phases::{extract_phases, PhaseAnalysis, PhaseTable, SimilarityConfig};
use pas2p_signature::{
    construct_signature, execute_signature, predict, run_plain, run_traced, ConstructionStats,
    ExecError, MpiApp, Prediction, Signature, SignatureConfig, ValidationReport,
};
use pas2p_trace::{ingest, Confidence, IngestReport, InstrumentationModel, Trace};
use serde::{Deserialize, Serialize};

static TFAT_SECONDS: Gauge = Gauge::new("pipeline.tfat_seconds");
static AET_INSTRUMENTED: Gauge = Gauge::new("pipeline.aet_instrumented");

/// Stage-A output: everything the analysis of one application run on the
/// base machine produced.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Analysis {
    /// Application name.
    pub app_name: String,
    /// Workload description.
    pub workload: String,
    /// Number of processes.
    pub nprocs: u32,
    /// Base machine name.
    pub base_machine: String,
    /// Tracefile size in bytes (the paper's TFSize, Table 8).
    pub trace_bytes: u64,
    /// Total recorded communication events.
    pub trace_events: usize,
    /// Host seconds spent building the model and extracting phases (the
    /// paper's TFAT, Table 8).
    pub tfat_seconds: f64,
    /// Application execution time under instrumentation (AET_PAS2P,
    /// Table 9), virtual seconds on the base machine.
    pub aet_instrumented: f64,
    /// The full phase analysis.
    pub analysis: PhaseAnalysis,
    /// The phase table feeding signature construction.
    pub table: PhaseTable,
    /// Observability snapshot taken at the end of the analysis (absent
    /// when observability is disabled).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub metrics: Option<MetricsSnapshot>,
    /// Invariant-check report over the produced artifacts (absent unless
    /// the analysis ran with a check engine, [`Pas2p::analyze_run`] or
    /// [`Pas2p::analyze_buffer`]).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub check: Option<CheckReport>,
    /// Whether the whole run's data reached the analysis. `Degraded`
    /// means the trace came through the recovering decoder with losses:
    /// the numbers describe the surviving subset of the run.
    #[serde(default)]
    pub confidence: Confidence,
    /// What the recovering decoder did to the input; absent when the
    /// trace was collected live (no decode involved).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub ingest: Option<IngestReport>,
}

impl Analysis {
    /// Total unique phases (Table 8 "Total Phases").
    pub fn total_phases(&self) -> usize {
        self.analysis.total_phases()
    }

    /// Relevant phases (Table 8 "Relevant Phases").
    pub fn relevant_phases(&self) -> usize {
        self.table.relevant_phases()
    }
}

/// Analysis from trace bytes failed. The ingest report is always
/// populated — even a fatally corrupt buffer yields an accounting of
/// what the recovering decoder saw, so callers (the batch driver, the
/// CLI) can classify the failure instead of guessing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnalysisError {
    /// Why the pipeline could not proceed.
    pub reason: String,
    /// What ingest recovered before the pipeline gave up.
    pub ingest: IngestReport,
}

impl std::fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.reason)
    }
}

impl std::error::Error for AnalysisError {}

/// The PAS2P tool: configuration plus the pipeline entry points.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pas2p {
    /// Phase-similarity thresholds (§3.3 step 5).
    pub similarity: SimilarityConfig,
    /// Interposition overhead model (§3.1).
    pub instrumentation: InstrumentationModel,
    /// Checkpoint/restart and relevance parameters (§3.4).
    pub signature: SignatureConfig,
}

impl Pas2p {
    /// Stage A (Fig 1 "Application analysis"): instrument and run the
    /// application on the base machine, build the machine-independent
    /// model, extract phases and produce the phase table.
    pub fn analyze(
        &self,
        app: &dyn MpiApp,
        base: &MachineModel,
        policy: MappingPolicy,
    ) -> Analysis {
        self.analyze_run(app, base, policy, None).0
    }

    /// [`Pas2p::analyze`], keeping the physical and logical traces.
    pub fn analyze_full(
        &self,
        app: &dyn MpiApp,
        base: &MachineModel,
        policy: MappingPolicy,
    ) -> (Analysis, Trace, LogicalTrace) {
        self.analyze_run(app, base, policy, None)
    }

    /// [`Pas2p::analyze_buffer`] without a check, keeping the analysis.
    pub fn analyze_bytes(
        &self,
        app_name: &str,
        workload: &str,
        buf: &[u8],
    ) -> Result<Analysis, AnalysisError> {
        self.analyze_buffer(app_name, workload, buf, None)
            .map(|(analysis, _)| analysis)
    }

    /// Stage A over a live run: [`Pas2p::record`], then
    /// [`Pas2p::analyze_trace`]. Returns the physical and logical traces
    /// alongside, for the timeline exporter and `pas2p-cli check
    /// --logical-out`.
    pub fn analyze_run(
        &self,
        app: &dyn MpiApp,
        base: &MachineModel,
        policy: MappingPolicy,
        engine: Option<&CheckEngine>,
    ) -> (Analysis, Trace, LogicalTrace) {
        let trace = self.record(app, base, policy);
        let (analysis, logical) = self.analyze_trace(&app.name(), &app.workload(), &trace, engine);
        (analysis, trace, logical)
    }

    /// The `run_traced` stage: run the instrumented application on
    /// `base` and return its trace.
    pub fn record(&self, app: &dyn MpiApp, base: &MachineModel, policy: MappingPolicy) -> Trace {
        // Entering a stage is a cancellation checkpoint: a job or
        // request past its deadline unwinds there at the latest (the
        // stages with long loops also ask inside).
        let mut st = pas2p_obs::stage("run_traced");
        let (trace, _) = run_traced(app, base, policy, self.instrumentation);
        st.items(trace.total_events() as u64);
        st.finish();
        trace
    }

    /// Stage A over a trace this process recorded ([`Pas2p::record`]):
    /// order, extract and tabulate it. With an `engine`, the
    /// `pas2p-check` rules run over every artifact of the stage and the
    /// [`CheckReport`] rides on the analysis. A recorded trace that does
    /// not order is a bug, and panics as `pas2p_order` does.
    pub fn analyze_trace(
        &self,
        app_name: &str,
        workload: &str,
        trace: &Trace,
        engine: Option<&CheckEngine>,
    ) -> (Analysis, LogicalTrace) {
        self.stage_a(app_name, workload, trace, None, 0.0, engine)
            .unwrap_or_else(|e| panic!("{}", e))
    }

    /// Stage A from a serialized trace buffer instead of a live run,
    /// via the recovering decoder: quarantine what cannot be decoded,
    /// proceed with the surviving ranks, and mark the result
    /// [`Confidence::Degraded`] when anything was lost. Collective
    /// `involved` counts are clamped to the surviving participants so
    /// the PAS2P ordering can complete without the missing ranks. With
    /// an `engine`, the check includes the ingest report, so `INGEST-*`
    /// findings appear alongside the usual families. Returns the
    /// recovered trace alongside (`pas2p-cli timeline --trace`).
    ///
    /// Errors carry the [`IngestReport`] alongside the reason: an
    /// unusable buffer or an ordering that still cannot complete
    /// (e.g. a truncated collective tail) is a classified failure, not
    /// a panic.
    pub fn analyze_buffer(
        &self,
        app_name: &str,
        workload: &str,
        buf: &[u8],
        engine: Option<&CheckEngine>,
    ) -> Result<(Analysis, Trace), AnalysisError> {
        let mut st = pas2p_obs::stage("ingest");
        let (trace, mut report) = ingest::decode_recovering(buf);
        let Some(mut trace) = trace else {
            st.finish();
            let reason = report
                .fatal
                .clone()
                .unwrap_or_else(|| "trace buffer unusable".to_string());
            return Err(AnalysisError {
                reason,
                ingest: report,
            });
        };
        if report.is_degraded() {
            report.collectives_clamped = ingest::repair_collectives(&mut trace);
        }
        st.items(trace.total_events() as u64);
        let ingest_seconds = st.finish();

        let ingest = Some(&report);
        match self.stage_a(app_name, workload, &trace, ingest, ingest_seconds, engine) {
            Ok((analysis, _logical)) => Ok((analysis, trace)),
            Err(e) => Err(AnalysisError {
                reason: format!("ordering failed on recovered trace: {}", e),
                ingest: report,
            }),
        }
    }

    /// The configuration's fingerprint, which keys every stored
    /// signature and prediction ([`pas2p_store::config_fingerprint`]).
    pub fn fingerprint(&self) -> String {
        pas2p_store::config_fingerprint(
            &self.similarity,
            &self.signature,
            self.instrumentation.per_event_seconds,
        )
    }

    /// Stage A proper, the same for every source of `trace`: order →
    /// extract → table → (check) → confidence. `ingest` is the decoder's
    /// report, and `ingest_seconds` the host time decoding took, when
    /// the trace came from bytes; `None` and zero for a live run — whose
    /// recorded trace says the same about itself (size, events, elapsed
    /// time, machine) as its encoding decoded back, which
    /// `tests/stage_a_paths.rs` pins.
    fn stage_a(
        &self,
        app_name: &str,
        workload: &str,
        trace: &Trace,
        ingest: Option<&IngestReport>,
        ingest_seconds: f64,
        engine: Option<&CheckEngine>,
    ) -> Result<(Analysis, LogicalTrace), ModelError> {
        let mut st = pas2p_obs::stage("pas2p_order");
        let logical = try_pas2p_order(trace);
        if logical.is_ok() {
            st.items(trace.total_events() as u64);
        }
        let order_seconds = st.finish();
        let logical = logical?;

        // `extract_phases` records its own stage profile and returns the
        // same profiler reading as `analysis_seconds`, so TFAT and the
        // analysis timing are a single measurement and cannot diverge.
        let analysis = extract_phases(&logical, &self.similarity);
        let tfat_seconds = ingest_seconds + order_seconds + analysis.analysis_seconds;

        let mut st = pas2p_obs::stage("table");
        let table = PhaseTable::from_analysis(
            &analysis,
            self.signature.relevance_threshold,
            self.signature.warmup_occurrences,
            self.signature.measure_occurrences,
        );
        st.items(table.rows.len() as u64);
        st.finish();

        let check = engine.map(|engine| {
            let mut st = pas2p_obs::stage("check");
            let report = engine.run(&Artifacts {
                trace: Some(trace),
                logical: Some(&logical),
                analysis: Some(&analysis),
                table: Some(&table),
                similarity: self.similarity,
                ingest,
            });
            st.items(report.diagnostics.len() as u64);
            st.finish();
            report
        });

        // An order-sensitive signature is a weaker claim than a full one:
        // the phases exist, but their timings depend on which race
        // outcome the traced run happened to commit.
        let mut confidence = ingest.map_or(Confidence::Full, IngestReport::confidence);
        if confidence == Confidence::Full
            && check.as_ref().is_some_and(|r| r.has_code("SIG-STAB-001"))
        {
            confidence = Confidence::OrderSensitive;
        }
        if let Some(report) = check.as_ref().filter(|r| !r.is_clean()) {
            pas2p_obs::log(Level::Warn, "pas2p.pipeline", "check found issues", || {
                vec![
                    ("app", app_name.to_string()),
                    ("errors", report.errors().to_string()),
                    ("warnings", report.warnings().to_string()),
                ]
            });
        }
        if let Some(report) = ingest.filter(|_| confidence == Confidence::Degraded) {
            pas2p_obs::log(Level::Warn, "pas2p.pipeline", "degraded analysis", || {
                vec![
                    ("app", app_name.to_string()),
                    ("missing_ranks", report.missing_ranks().len().to_string()),
                    ("quarantined", report.records_quarantined().to_string()),
                ]
            });
        }
        // Taken last, so the check stage and rule hit counters are part
        // of the recorded metrics.
        TFAT_SECONDS.set(tfat_seconds);
        AET_INSTRUMENTED.set(trace.elapsed());
        let metrics = pas2p_obs::enabled().then(|| pas2p_obs::global().snapshot());
        pas2p_obs::log(Level::Info, "pas2p.pipeline", "analysis complete", || {
            vec![
                ("app", app_name.to_string()),
                ("nprocs", trace.nprocs.to_string()),
                ("events", trace.total_events().to_string()),
                ("phases", analysis.total_phases().to_string()),
                ("tfat_seconds", format!("{tfat_seconds:.6}")),
            ]
        });
        let analysis = Analysis {
            app_name: app_name.to_string(),
            workload: workload.to_string(),
            nprocs: trace.nprocs,
            base_machine: trace.machine.clone(),
            trace_bytes: ingest.map_or_else(|| trace.size_bytes(), |r| r.bytes_total),
            trace_events: trace.total_events(),
            tfat_seconds,
            aet_instrumented: trace.elapsed(),
            analysis,
            table,
            metrics,
            check,
            confidence,
            ingest: ingest.cloned(),
        };
        Ok((analysis, logical))
    }

    /// Build the signature from an analysis by re-running the application
    /// on the base machine and checkpointing the relevant phases (§3.4).
    pub fn build_signature(
        &self,
        app: &dyn MpiApp,
        analysis: &Analysis,
        base: &MachineModel,
        policy: MappingPolicy,
    ) -> (Signature, ConstructionStats) {
        let mut st = pas2p_obs::stage("construct");
        let (mut signature, stats) =
            construct_signature(app, &analysis.table, base, policy, self.signature);
        // A signature built from a degraded analysis stays degraded; the
        // flag rides through to every prediction it produces.
        signature.confidence = analysis.confidence;
        st.items(signature.phase_count() as u64);
        st.finish();
        (signature, stats)
    }

    /// Stage B (Fig 1 "Performance prediction"): execute the signature on
    /// a target machine and apply Equation 1.
    pub fn predict(
        &self,
        app: &dyn MpiApp,
        signature: &Signature,
        target: &MachineModel,
        policy: MappingPolicy,
    ) -> Result<Prediction, ExecError> {
        let mut st = pas2p_obs::stage("execute");
        let mut prediction = execute_signature(app, signature, target, policy)?;
        st.items(prediction.measurements.len() as u64);
        st.finish();
        if pas2p_obs::enabled() {
            prediction.metrics = Some(pas2p_obs::global().snapshot());
        }
        Ok(prediction)
    }

    /// The experimental-validation block (Fig 12): predict, then run the
    /// whole application on the target to measure PETE.
    pub fn validate(
        &self,
        app: &dyn MpiApp,
        signature: &Signature,
        target: &MachineModel,
        policy: MappingPolicy,
    ) -> Result<ValidationReport, ExecError> {
        let prediction = self.predict(app, signature, target, policy.clone())?;
        // The whole-application AET run is profiled under its own name;
        // the `predict` stage covers only the actual prediction.
        let mut st = pas2p_obs::stage("run_plain");
        let aet = run_plain(app, target, policy).makespan;
        st.items(1);
        st.finish();
        let mut st = pas2p_obs::stage("predict");
        let report = predict::report_from(prediction, aet);
        st.items(1);
        st.finish();
        pas2p_obs::log(Level::Info, "pas2p.pipeline", "validation complete", || {
            vec![
                ("pet", format!("{:.6}", report.prediction.pet)),
                ("aet", format!("{aet:.6}")),
                ("pete_percent", format!("{:.3}", report.pete_or_inf())),
            ]
        });
        Ok(report)
    }

    /// Convenience: the whole methodology in one call — analyze on
    /// `base`, build the signature, validate against `target`.
    pub fn analyze_and_validate(
        &self,
        app: &dyn MpiApp,
        base: &MachineModel,
        target: &MachineModel,
        policy: MappingPolicy,
    ) -> Result<(Analysis, ValidationReport), ExecError> {
        let analysis = self.analyze(app, base, policy.clone());
        let (signature, _) = self.build_signature(app, &analysis, base, policy.clone());
        let report = self.validate(app, &signature, target, policy)?;
        Ok((analysis, report))
    }
}
