//! The seeded stream every workload is generated from.

/// SplitMix64: 64 bits of state, one multiply-xorshift round per draw.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// An independent stream for one named purpose, so adding a draw to
    /// one part of a workload does not shift every other part.
    pub fn fork(seed: u64, purpose: &str) -> SplitMix64 {
        let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
        for b in purpose.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        let mut s = SplitMix64::new(h);
        s.next_u64();
        s
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2⁻⁴⁰ for
    /// every `n` used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf with exponent 1 over ranks `0..n`: rank `k` is drawn with
/// probability proportional to `1 / (k + 1)`.
#[derive(Debug, Clone)]
pub struct Zipf {
    /// Cumulative probabilities, last one 1.0.
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        assert!(n > 0, "Zipf needs a non-empty support");
        let total: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / k as f64 / total;
                acc
            })
            .collect();
        *cdf.last_mut().expect("n > 0") = 1.0;
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c <= u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_forks_differ() {
        let draw = |mut s: SplitMix64| (0..8).map(|_| s.next_u64()).collect::<Vec<_>>();
        assert_eq!(draw(SplitMix64::new(7)), draw(SplitMix64::new(7)));
        assert_ne!(draw(SplitMix64::new(7)), draw(SplitMix64::new(8)));
        assert_ne!(
            draw(SplitMix64::fork(7, "order")),
            draw(SplitMix64::fork(7, "zipf"))
        );
        // Reference value of SplitMix64 seeded with 0 (Vigna's splitmix64.c).
        assert_eq!(SplitMix64::new(0).next_u64(), 0xe220_a839_7b1d_cdaf);
    }

    #[test]
    fn shuffle_keeps_the_multiset() {
        let mut a: Vec<u32> = (0..100).collect();
        SplitMix64::new(3).shuffle(&mut a);
        assert_ne!(a, (0..100).collect::<Vec<_>>());
        a.sort_unstable();
        assert_eq!(a, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_covers_its_support_and_nothing_else() {
        let n = 88;
        let zipf = Zipf::new(n);
        let mut rng = SplitMix64::new(11);
        let mut seen = vec![0u32; n];
        for _ in 0..200_000 {
            seen[zipf.sample(&mut rng)] += 1;
        }
        assert!(seen.iter().all(|&c| c > 0), "every key is reachable");
        // Rank 0 is drawn about 88 / H(88) ≈ 17.4 times as often as rank 87.
        assert!(seen[0] > 8 * seen[n - 1]);
        assert!(seen[0] > seen[1] && seen[1] > seen[4]);
    }
}
