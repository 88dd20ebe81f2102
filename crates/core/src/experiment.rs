//! Experiment harness helpers: reproduce the paper's table rows.
//!
//! These produce the exact row shapes of the evaluation tables so the
//! bench targets (and examples) only orchestrate which applications and
//! machines to run.

use crate::pipeline::{Analysis, Pas2p};
use pas2p_machine::{CoreLoc, MachineModel, MappingPolicy};
use pas2p_signature::{predict, run_plain, ConstructionStats, MpiApp, Signature};
use serde::{Deserialize, Serialize};

/// A mapping that uses only the first `cores` cores of a machine
/// (block-filled, wrapping when processes exceed cores) — how the paper
/// runs a 64-process signature "at 32 cores" (Table 5) or a 256-process
/// signature on 128 cores (Table 7).
pub fn first_cores_mapping(machine: &MachineModel, nprocs: u32, cores: u32) -> MappingPolicy {
    assert!(cores >= 1 && cores <= machine.total_cores());
    let cps = machine.cores_per_socket;
    let cpn = machine.cores_per_node();
    let locs = (0..nprocs)
        .map(|r| {
            let flat = r % cores;
            CoreLoc {
                node: flat / cpn,
                socket: (flat % cpn) / cps,
                core: flat % cps,
            }
        })
        .collect();
    MappingPolicy::Explicit(locs)
}

/// One row of a prediction table (Tables 5 and 7): SET, SET/AET, PET,
/// PETE and AET for one application at one core count on the target.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PredictionRow {
    /// Application label, e.g. `"CG-64"`.
    pub app: String,
    /// Target cores used.
    pub cores: u32,
    /// Signature execution time on the target, seconds.
    pub set: f64,
    /// 100·SET/AET.
    pub set_vs_aet: f64,
    /// Predicted execution time, seconds.
    pub pet: f64,
    /// 100·|PET−AET|/AET.
    pub pete: f64,
    /// Measured application execution time on the target, seconds.
    pub aet: f64,
}

impl PredictionRow {
    /// Header matching the paper's table layout.
    pub fn header() -> String {
        format!(
            "{:<14} {:>6} {:>10} {:>12} {:>12} {:>9} {:>12}",
            "Appl.", "Cores", "SET(s)", "SETvsAET(%)", "PET(s)", "PETE(%)", "AET(s)"
        )
    }
}

impl std::fmt::Display for PredictionRow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<14} {:>6} {:>10.2} {:>12.2} {:>12.2} {:>9.2} {:>12.2}",
            self.app, self.cores, self.set, self.set_vs_aet, self.pet, self.pete, self.aet
        )
    }
}

/// Run the Fig 12 validation for one prepared signature on a target at a
/// restricted core count and produce the table row.
pub fn prediction_row(
    app: &dyn MpiApp,
    signature: &Signature,
    target: &MachineModel,
    cores: u32,
) -> PredictionRow {
    let policy = first_cores_mapping(target, app.nprocs(), cores);
    let report = predict::validate(app, signature, target, policy).expect("same-ISA target");
    PredictionRow {
        app: format!("{}-{}", app.name(), app.nprocs()),
        cores,
        set: report.prediction.set,
        set_vs_aet: report.set_vs_aet_percent,
        pet: report.prediction.pet,
        pete: report.pete_or_inf(),
        aet: report.aet,
    }
}

/// One row of the tool-performance table (Table 8): tracefile size,
/// analysis time, phase counts and signature construction time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ToolPerfRow {
    /// Application name.
    pub app: String,
    /// Tracefile size in bytes.
    pub tf_bytes: u64,
    /// Tracefile analysis time, host seconds.
    pub tfat: f64,
    /// Total unique phases.
    pub total_phases: usize,
    /// Relevant phases.
    pub relevant_phases: usize,
    /// Signature construction time, seconds.
    pub sct: f64,
}

impl ToolPerfRow {
    /// Header matching Table 8.
    pub fn header() -> String {
        format!(
            "{:<10} {:>12} {:>10} {:>8} {:>9} {:>10}",
            "Appl.", "TFSize", "TFAT(s)", "Phases", "Relevant", "SCT(s)"
        )
    }
}

impl std::fmt::Display for ToolPerfRow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<10} {:>12} {:>10.3} {:>8} {:>9} {:>10.2}",
            self.app,
            human_bytes(self.tf_bytes),
            self.tfat,
            self.total_phases,
            self.relevant_phases,
            self.sct
        )
    }
}

/// Produce a Table 8 row from an analysis + construction stats.
pub fn tool_perf_row(analysis: &Analysis, stats: &ConstructionStats) -> ToolPerfRow {
    ToolPerfRow {
        app: analysis.app_name.clone(),
        tf_bytes: analysis.trace_bytes,
        tfat: analysis.tfat_seconds,
        total_phases: analysis.total_phases(),
        relevant_phases: analysis.relevant_phases(),
        sct: stats.sct,
    }
}

/// One row of the overhead table (Table 9): AET, AET under
/// instrumentation, SET and the paper's total-overhead factor
/// `(AET_PAS2P + TFAT + SCT + SET) / AET`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OverheadRow {
    /// Application name.
    pub app: String,
    /// Uninstrumented application execution time, seconds.
    pub aet: f64,
    /// Instrumented application execution time, seconds.
    pub aet_pas2p: f64,
    /// Signature execution time, seconds.
    pub set: f64,
    /// Tracefile analysis time, seconds.
    pub tfat: f64,
    /// Signature construction time, seconds.
    pub sct: f64,
}

impl OverheadRow {
    /// The paper's overhead factor.
    pub fn overhead(&self) -> f64 {
        (self.aet_pas2p + self.tfat + self.sct + self.set) / self.aet
    }

    /// Header matching Table 9.
    pub fn header() -> String {
        format!(
            "{:<10} {:>11} {:>14} {:>9} {:>10}",
            "Appl.", "AET(s)", "AETPAS2P(s)", "SET(s)", "Overhead"
        )
    }
}

impl std::fmt::Display for OverheadRow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<10} {:>11.2} {:>14.2} {:>9.2} {:>9.2}X",
            self.app,
            self.aet,
            self.aet_pas2p,
            self.set,
            self.overhead()
        )
    }
}

/// Everything the Table 8/9 experiments need for one application on one
/// machine: analysis, construction and a same-machine signature run.
pub fn tool_experiment(
    pas2p: &Pas2p,
    app: &dyn MpiApp,
    machine: &MachineModel,
) -> (Analysis, ConstructionStats, OverheadRow) {
    let policy = MappingPolicy::Block;
    let aet = run_plain(app, machine, policy.clone()).makespan;
    let analysis = pas2p.analyze(app, machine, policy.clone());
    let (signature, stats) = pas2p.build_signature(app, &analysis, machine, policy.clone());
    let prediction = pas2p
        .predict(app, &signature, machine, policy)
        .expect("same machine");
    let row = OverheadRow {
        app: analysis.app_name.clone(),
        aet,
        aet_pas2p: analysis.aet_instrumented,
        set: prediction.set,
        tfat: analysis.tfat_seconds,
        sct: stats.sct,
    };
    (analysis, stats, row)
}

/// Format bytes the way the paper's tables do (KB/MB/GB).
pub fn human_bytes(b: u64) -> String {
    const KB: f64 = 1024.0;
    let b = b as f64;
    if b >= KB * KB * KB {
        format!("{:.1} GB", b / (KB * KB * KB))
    } else if b >= KB * KB {
        format!("{:.1} MB", b / (KB * KB))
    } else if b >= KB {
        format!("{:.1} KB", b / KB)
    } else {
        format!("{} B", b as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pas2p_machine::cluster_a;

    #[test]
    fn first_cores_mapping_wraps() {
        let m = cluster_a();
        let policy = first_cores_mapping(&m, 64, 32);
        let map = m.map(64, policy);
        assert!(map.is_oversubscribed());
        for r in 0..64 {
            assert_eq!(map.core_share(r), 2);
        }
        // Only 8 nodes (32 cores / 4 per node) are used.
        let nodes: std::collections::HashSet<u32> = (0..64).map(|r| map.loc(r).node).collect();
        assert_eq!(nodes.len(), 8);
    }

    #[test]
    fn full_core_mapping_is_dedicated() {
        let m = cluster_a();
        let policy = first_cores_mapping(&m, 64, 64);
        let map = m.map(64, policy);
        assert!(!map.is_oversubscribed());
    }

    #[test]
    fn human_bytes_formats_like_the_paper() {
        assert_eq!(human_bytes(512), "512 B");
        assert_eq!(human_bytes(512 * 1024), "512.0 KB");
        assert_eq!(human_bytes(32 * 1024 * 1024), "32.0 MB");
        assert_eq!(human_bytes(5583457484), "5.2 GB");
    }

    #[test]
    fn overhead_factor_matches_formula() {
        let row = OverheadRow {
            app: "CG".into(),
            aet: 100.0,
            aet_pas2p: 102.0,
            set: 3.0,
            tfat: 1.0,
            sct: 24.0,
        };
        assert!((row.overhead() - 1.30).abs() < 1e-12);
    }

    #[test]
    fn row_display_is_aligned() {
        let r = PredictionRow {
            app: "CG-64".into(),
            cores: 32,
            set: 8.42,
            set_vs_aet: 0.29,
            pet: 2793.42,
            pete: 1.90,
            aet: 2847.42,
        };
        let line = r.to_string();
        assert!(line.contains("CG-64"));
        assert!(line.contains("2793.42"));
        assert_eq!(PredictionRow::header().split_whitespace().count(), 7);
    }
}
