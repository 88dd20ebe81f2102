//! Offline stand-in for `rand` 0.8: the two traits PAS2P-rs's jitter
//! model uses. `seed_from_u64` expands the seed with the same PCG32
//! stream as `rand_core`, and `gen_range` over `f64` uses the same
//! 52-bit mantissa construction as `rand`'s `UniformFloat`, so a seed
//! draws the values the published crates draw.

#![forbid(unsafe_code)]

/// The core of a generator: a source of 32- and 64-bit words.
pub trait RngCore {
    /// The next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// A generator that can be built from a seed.
pub trait SeedableRng: Sized {
    /// The seed: a byte array.
    type Seed: Default + AsMut<[u8]>;

    /// A generator from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// A generator from a `u64`, expanded through PCG32 as `rand_core`
    /// does.
    fn seed_from_u64(mut state: u64) -> Self {
        const MUL: u64 = 6_364_136_223_846_793_005;
        const INC: u64 = 11_634_580_027_462_260_723;
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(4) {
            state = state.wrapping_mul(MUL).wrapping_add(INC);
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            let rot = (state >> 59) as u32;
            let word = xorshifted.rotate_right(rot);
            chunk.copy_from_slice(&word.to_le_bytes()[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// A range a value can be drawn from.
pub trait SampleRange<T> {
    /// Draw one value.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl SampleRange<f64> for std::ops::Range<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample an empty range");
        let scale = self.end - self.start;
        loop {
            // A float in [1, 2) from the top 52 bits, shifted to [0, 1).
            let value1_2 = f64::from_bits((rng.next_u64() >> 12) | (1023u64 << 52));
            let value = (value1_2 - 1.0) * scale + self.start;
            if value < self.end {
                return value;
            }
        }
    }
}

/// Convenience draws on top of [`RngCore`].
pub trait Rng: RngCore {
    /// A value uniform in `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}
