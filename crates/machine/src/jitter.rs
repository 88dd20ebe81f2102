//! Deterministic noise model.
//!
//! Real clusters exhibit run-to-run variability — OS noise on compute,
//! contention on the network. The paper's prediction errors (0.06 %–6.4 %)
//! exist precisely because phase executions are *not* identical. We model
//! this with multiplicative noise drawn from a seeded ChaCha stream so that
//! every experiment is reproducible bit-for-bit while still exercising the
//! error paths of the prediction methodology.
//!
//! Each rank derives an independent substream from `(seed, rank)`, so rank
//! execution order cannot perturb the noise sequence.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Parameters of the multiplicative noise applied to compute and
/// communication segments.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct JitterModel {
    /// Relative standard deviation of compute-segment noise (e.g. 0.01 =
    /// ±1 % typical).
    pub compute_sigma: f64,
    /// Relative standard deviation of communication-segment noise; network
    /// contention is usually burstier than OS noise.
    pub comm_sigma: f64,
    /// Stream seed. Two machines with different seeds produce independent
    /// noise; the same seed reproduces a run exactly.
    pub seed: u64,
}

impl JitterModel {
    /// A noiseless model, useful in unit tests that need exact times.
    pub fn none() -> JitterModel {
        JitterModel {
            compute_sigma: 0.0,
            comm_sigma: 0.0,
            seed: 0,
        }
    }

    /// Create the per-rank noise stream.
    pub fn stream(&self, rank: u32) -> JitterStream {
        // Mix rank into the seed with splitmix64-style constants so
        // adjacent ranks get unrelated streams.
        let mixed = self
            .seed
            .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(rank as u64 + 1));
        JitterStream {
            rng: ChaCha8Rng::seed_from_u64(mixed),
            compute_sigma: self.compute_sigma,
            comm_sigma: self.comm_sigma,
        }
    }
}

/// A per-rank noise generator. Factors are always positive and average to
/// ~1, implemented as `1 + sigma * u` with `u` uniform in [-√3, √3] (unit
/// variance), clamped away from zero.
#[derive(Debug, Clone)]
pub struct JitterStream {
    rng: ChaCha8Rng,
    compute_sigma: f64,
    comm_sigma: f64,
}

impl JitterStream {
    fn factor(&mut self, sigma: f64) -> f64 {
        if sigma == 0.0 {
            return 1.0;
        }
        let u: f64 = self.rng.gen_range(-1.732_050_8..1.732_050_8);
        (1.0 + sigma * u).max(0.05)
    }

    /// Multiplicative factor for the next compute segment.
    pub fn compute_factor(&mut self) -> f64 {
        self.factor(self.compute_sigma)
    }

    /// Multiplicative factor for the next communication segment.
    pub fn comm_factor(&mut self) -> f64 {
        self.factor(self.comm_sigma)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_sigma_is_exactly_one() {
        let mut s = JitterModel::none().stream(0);
        for _ in 0..100 {
            assert_eq!(s.compute_factor(), 1.0);
            assert_eq!(s.comm_factor(), 1.0);
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let j = JitterModel {
            compute_sigma: 0.02,
            comm_sigma: 0.05,
            seed: 42,
        };
        let a: Vec<f64> = {
            let mut s = j.stream(3);
            (0..50).map(|_| s.compute_factor()).collect()
        };
        let b: Vec<f64> = {
            let mut s = j.stream(3);
            (0..50).map(|_| s.compute_factor()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn different_ranks_different_streams() {
        let j = JitterModel {
            compute_sigma: 0.02,
            comm_sigma: 0.05,
            seed: 42,
        };
        let mut s0 = j.stream(0);
        let mut s1 = j.stream(1);
        let a: Vec<f64> = (0..20).map(|_| s0.compute_factor()).collect();
        let b: Vec<f64> = (0..20).map(|_| s1.compute_factor()).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn factors_center_near_one() {
        let j = JitterModel {
            compute_sigma: 0.02,
            comm_sigma: 0.05,
            seed: 7,
        };
        let mut s = j.stream(0);
        let n = 10_000;
        let mean: f64 = (0..n).map(|_| s.compute_factor()).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.01, "mean {}", mean);
    }

    #[test]
    fn factors_stay_positive_even_with_huge_sigma() {
        let j = JitterModel {
            compute_sigma: 5.0,
            comm_sigma: 5.0,
            seed: 1,
        };
        let mut s = j.stream(0);
        for _ in 0..1000 {
            assert!(s.compute_factor() > 0.0);
            assert!(s.comm_factor() > 0.0);
        }
    }
}
