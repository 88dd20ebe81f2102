//! The prediction model (paper §4, Equation 1) and the experimental
//! validation block (Fig 12).

use crate::app::{run_plain, MpiApp};
use crate::construct::Signature;
use crate::execute::{execute_signature, ExecError};
use pas2p_machine::{MachineModel, MappingPolicy};
use serde::{Deserialize, Serialize};

/// One phase's measurement on the target machine.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PhaseMeasurement {
    /// Phase identifier.
    pub phase_id: u32,
    /// Weight (repetition count) from the analysis.
    pub weight: u64,
    /// Measured phase execution time on the target, seconds.
    pub phase_et: f64,
    /// Virtual time the measurement run took (restart → abort).
    pub measured_span: f64,
    /// Modeled checkpoint restart cost, seconds.
    pub restart_cost: f64,
}

impl PhaseMeasurement {
    /// This phase's contribution to the prediction: `PhaseET × W`.
    pub fn contribution(&self) -> f64 {
        self.phase_et * self.weight as f64
    }
}

/// The signature's output on a target machine: the predicted execution
/// time (PET) and the signature execution time (SET).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Prediction {
    /// Application name.
    pub app: String,
    /// Machine the signature was built on.
    pub base_machine: String,
    /// Machine the signature executed on.
    pub target_machine: String,
    /// Number of processes.
    pub nprocs: u32,
    /// Per-phase measurements.
    pub measurements: Vec<PhaseMeasurement>,
    /// Predicted execution time: `Σ PhaseETᵢ · Wᵢ` (Equation 1).
    pub pet: f64,
    /// Signature execution time: restart costs plus measurement runs.
    pub set: f64,
    /// Host wall-clock seconds the signature execution took.
    pub wall_seconds: f64,
    /// Confidence inherited from the signature this prediction executed:
    /// `Degraded` predictions rest on a partially recovered trace.
    #[serde(default)]
    pub confidence: pas2p_trace::Confidence,
}

impl Prediction {
    /// Assemble a prediction from phase measurements, applying Equation 1.
    pub fn from_measurements(
        app: String,
        base_machine: String,
        target_machine: String,
        nprocs: u32,
        measurements: Vec<PhaseMeasurement>,
        wall_seconds: f64,
    ) -> Prediction {
        let pet = measurements.iter().map(|m| m.contribution()).sum();
        let set = measurements
            .iter()
            .map(|m| m.restart_cost + m.measured_span)
            .sum();
        Prediction {
            app,
            base_machine,
            target_machine,
            nprocs,
            measurements,
            pet,
            set,
            wall_seconds,
            confidence: pas2p_trace::Confidence::Full,
        }
    }
}

/// The paper's experimental-validation block (Fig 12): execute the
/// signature for the PET, execute the whole application for the AET, and
/// report the prediction error.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ValidationReport {
    /// The signature's prediction on the target.
    pub prediction: Prediction,
    /// Measured application execution time on the target, seconds.
    pub aet: f64,
    /// Prediction execution-time error: `100·|PET − AET| / AET`
    /// (Table 5/7 "PETE(%)"). `None` when the AET is non-positive or not
    /// finite — a degenerate run has no meaningful relative error, and
    /// reporting 0 % would read as a perfect prediction.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub pete_percent: Option<f64>,
    /// `100·SET / AET` (Table 5/7 "SET versus AET").
    pub set_vs_aet_percent: f64,
}

impl ValidationReport {
    /// Prediction accuracy in percent (100 − PETE); `None` when PETE is
    /// undefined.
    pub fn accuracy_percent(&self) -> Option<f64> {
        self.pete_percent.map(|p| 100.0 - p)
    }

    /// PETE as a plain number for thresholds and table output: `+∞` when
    /// undefined, so a degenerate run can never pass an accuracy check.
    pub fn pete_or_inf(&self) -> f64 {
        self.pete_percent.unwrap_or(f64::INFINITY)
    }
}

/// Run the full validation methodology against one target machine:
/// signature → PET, whole application → AET, then PETE.
pub fn validate(
    app: &dyn MpiApp,
    signature: &Signature,
    target: &MachineModel,
    policy: MappingPolicy,
) -> Result<ValidationReport, ExecError> {
    let prediction = execute_signature(app, signature, target, policy.clone())?;
    let aet = run_plain(app, target, policy).makespan;
    Ok(report_from(prediction, aet))
}

/// Build a validation report from an existing prediction and a measured
/// AET (lets benches reuse an AET across configurations).
pub fn report_from(prediction: Prediction, aet: f64) -> ValidationReport {
    let pete_percent = if aet > 0.0 && aet.is_finite() {
        Some(100.0 * (prediction.pet - aet).abs() / aet)
    } else {
        None
    };
    let set_vs_aet_percent = if aet > 0.0 && aet.is_finite() {
        100.0 * prediction.set / aet
    } else {
        0.0
    };
    ValidationReport {
        prediction,
        aet,
        pete_percent,
        set_vs_aet_percent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meas(id: u32, weight: u64, et: f64) -> PhaseMeasurement {
        PhaseMeasurement {
            phase_id: id,
            weight,
            phase_et: et,
            measured_span: et * 2.0,
            restart_cost: 0.5,
        }
    }

    #[test]
    fn equation_one_sums_weighted_phase_times() {
        let p = Prediction::from_measurements(
            "x".into(),
            "A".into(),
            "B".into(),
            4,
            vec![meas(0, 100, 0.01), meas(1, 50, 0.02)],
            0.0,
        );
        assert!((p.pet - (100.0 * 0.01 + 50.0 * 0.02)).abs() < 1e-12);
        assert!((p.set - (0.5 + 0.02 + 0.5 + 0.04)).abs() < 1e-12);
    }

    #[test]
    fn pete_measures_relative_error() {
        let p = Prediction::from_measurements(
            "x".into(),
            "A".into(),
            "B".into(),
            4,
            vec![meas(0, 100, 0.01)], // PET = 1.0
            0.0,
        );
        let r = report_from(p, 1.25);
        assert!((r.pete_percent.unwrap() - 20.0).abs() < 1e-9);
        assert!((r.accuracy_percent().unwrap() - 80.0).abs() < 1e-9);
    }

    #[test]
    fn set_vs_aet_ratio() {
        let p = Prediction::from_measurements(
            "x".into(),
            "A".into(),
            "B".into(),
            4,
            vec![meas(0, 1, 1.0)], // SET = 0.5 + 2.0
            0.0,
        );
        let r = report_from(p, 100.0);
        assert!((r.set_vs_aet_percent - 2.5).abs() < 1e-9);
    }

    #[test]
    fn zero_aet_is_handled() {
        // A degenerate AET must NOT read as a perfect prediction: PETE is
        // undefined, not 0 %.
        let p = Prediction::from_measurements("x".into(), "A".into(), "B".into(), 1, vec![], 0.0);
        let r = report_from(p, 0.0);
        assert_eq!(r.pete_percent, None);
        assert_eq!(r.accuracy_percent(), None);
        assert_eq!(r.pete_or_inf(), f64::INFINITY);
        assert_eq!(r.set_vs_aet_percent, 0.0);
    }

    #[test]
    fn non_finite_aet_is_undefined_too() {
        let p = |aet| {
            let pred =
                Prediction::from_measurements("x".into(), "A".into(), "B".into(), 1, vec![], 0.0);
            report_from(pred, aet)
        };
        assert_eq!(p(f64::NAN).pete_percent, None);
        assert_eq!(p(f64::INFINITY).pete_percent, None);
        assert_eq!(p(-1.0).pete_percent, None);
    }
}
