//! Per-core compute cost model.
//!
//! Applications in `pas2p-apps` perform (scaled-down but real) numerics and
//! *declare* the work the full-size computation would perform. The machine
//! model converts that abstract work into virtual seconds using a simple
//! roofline-style model: time = flops / flop_rate + bytes / memory_bw.

use serde::{Deserialize, Serialize};

/// Abstract computational work: floating-point operations plus memory
/// traffic. Both contribute to the modeled execution time.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Work {
    /// Floating-point operations performed.
    pub flops: f64,
    /// Bytes moved to/from memory (beyond cache).
    pub mem_bytes: f64,
}

impl Work {
    /// Pure floating-point work.
    pub fn flops(flops: f64) -> Work {
        Work {
            flops,
            mem_bytes: 0.0,
        }
    }

    /// Pure memory-bound work.
    pub fn mem(bytes: f64) -> Work {
        Work {
            flops: 0.0,
            mem_bytes: bytes,
        }
    }

    /// Combined compute and memory work.
    pub fn new(flops: f64, mem_bytes: f64) -> Work {
        Work { flops, mem_bytes }
    }

    /// True if this work is empty (costs no time).
    pub fn is_zero(self) -> bool {
        self.flops == 0.0 && self.mem_bytes == 0.0
    }
}

/// Converts [`Work`] to seconds for one core of a machine.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ComputeModel {
    /// Sustained floating-point rate of one core, in FLOP/s.
    pub flops_per_sec: f64,
    /// Sustained per-core memory bandwidth in bytes/s. On machines with
    /// many cores per socket (cluster C's 4× quad-core nodes) this is lower
    /// than on small nodes, reproducing the paper's observation that the
    /// same application behaves differently per core architecture.
    pub mem_bw: f64,
}

impl ComputeModel {
    /// Time in seconds to execute `work` on a dedicated core.
    pub fn time(&self, work: Work) -> f64 {
        debug_assert!(work.flops >= 0.0 && work.mem_bytes >= 0.0);
        work.flops / self.flops_per_sec + work.mem_bytes / self.mem_bw
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> ComputeModel {
        ComputeModel {
            flops_per_sec: 2.0e9,
            mem_bw: 3.0e9,
        }
    }

    #[test]
    fn pure_flops_time() {
        let t = model().time(Work::flops(4.0e9));
        assert!((t - 2.0).abs() < 1e-12);
    }

    #[test]
    fn pure_mem_time() {
        let t = model().time(Work::mem(6.0e9));
        assert!((t - 2.0).abs() < 1e-12);
    }

    #[test]
    fn mixed_work_adds_components() {
        let t = model().time(Work::new(2.0e9, 3.0e9));
        assert!((t - 2.0).abs() < 1e-12);
    }

    #[test]
    fn work_algebra() {
        let w = Work::new(20.0, 40.0);
        assert_eq!((w.flops, w.mem_bytes), (20.0, 40.0));
        assert_eq!(Work::flops(10.0), Work::new(10.0, 0.0));
        assert_eq!(Work::mem(20.0), Work::new(0.0, 20.0));
        assert!(!w.is_zero());
        assert!(Work::default().is_zero());
    }

    #[test]
    fn zero_work_costs_nothing() {
        assert_eq!(model().time(Work::default()), 0.0);
    }
}
