//! The seeded case runner behind the property and fuzz suites.
//!
//! A property is a closure over a [`Gen`]; [`cases`] runs it once per
//! seed. There is no shrinking: a failing case panics with a message
//! that starts `seed N:`, and `N` alone reproduces it — put it in the
//! test file's `REPLAY` list and it runs before the loop.

#![allow(dead_code)] // every suite uses its own subset

use pas2p_faults::SplitMix64;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The values of one case, drawn from its seed.
pub struct Gen(SplitMix64);

impl Gen {
    pub fn new(seed: u64) -> Gen {
        Gen(SplitMix64::new(seed))
    }

    /// Uniform integer in `[r.start, r.end)`.
    pub fn range(&mut self, r: Range<u64>) -> u64 {
        r.start + self.0.below(r.end - r.start)
    }

    /// Uniform float in `[r.start, r.end)`.
    pub fn float(&mut self, r: Range<f64>) -> f64 {
        let unit = (self.0.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        r.start + unit * (r.end - r.start)
    }

    /// One element of `pool`, uniformly.
    pub fn pick<T: Copy>(&mut self, pool: &[T]) -> T {
        pool[self.range(0..pool.len() as u64) as usize]
    }

    /// An index into `weights`, with probability proportional to its weight.
    pub fn weighted(&mut self, weights: &[u64]) -> usize {
        let mut roll = self.range(0..weights.iter().sum());
        for (i, &w) in weights.iter().enumerate() {
            if roll < w {
                return i;
            }
            roll -= w;
        }
        unreachable!("the roll is below the sum of the weights")
    }

    /// `len` elements (a length drawn from the range), each from `item`.
    pub fn vec<T>(&mut self, len: Range<usize>, mut item: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let n = self.range(len.start as u64..len.end as u64);
        (0..n).map(|_| item(self)).collect()
    }
}

/// Run `property` on the `replay` seeds, then on seeds `0..n`.
pub fn cases(replay: &[u64], n: u64, property: impl Fn(&mut Gen)) {
    for seed in replay.iter().copied().chain(0..n) {
        let outcome = catch_unwind(AssertUnwindSafe(|| property(&mut Gen::new(seed))));
        if let Err(payload) = outcome {
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("a panic without a message");
            panic!("seed {seed}: {message}");
        }
    }
}
