//! Shared helpers: process-grid math, the checkpoint state codec, and a
//! tiny deterministic PRNG for initial data.

/// Factor `n` into the most square `rows × cols` grid (rows ≤ cols).
pub fn near_square_grid(n: u32) -> (u32, u32) {
    assert!(n > 0);
    let mut best = (1, n);
    let mut r = 1;
    while r * r <= n {
        if n.is_multiple_of(r) {
            best = (r, n / r);
        }
        r += 1;
    }
    best
}

/// The rank `(dr, dc)` away from `rank` on a row-major `rows × cols`
/// grid, or `None` off its edge.
pub fn grid_neighbour(rank: u32, rows: u32, cols: u32, dr: i64, dc: i64) -> Option<u32> {
    let (r, c) = ((rank / cols) as i64 + dr, (rank % cols) as i64 + dc);
    (r >= 0 && r < rows as i64 && c >= 0 && c < cols as i64).then(|| (r as u32) * cols + c as u32)
}

/// Factor `n` into a 3-D grid `(px, py, pz)` with px ≤ py ≤ pz.
pub fn near_cube_grid(n: u32) -> (u32, u32, u32) {
    let mut best = (1, 1, n);
    let mut best_score = u32::MAX;
    let mut x = 1;
    while x * x * x <= n {
        if n.is_multiple_of(x) {
            let rest = n / x;
            let (y, z) = near_square_grid(rest);
            let score = z - x;
            if score < best_score {
                best = (x, y.min(z), y.max(z));
                best_score = score;
            }
        }
        x += 1;
    }
    best
}

/// Deterministic splitmix64 stream for initial data.
#[derive(Debug, Clone)]
pub struct SplitMix {
    state: u64,
}

impl SplitMix {
    /// Seeded stream.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform f64 in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Minimal binary codec for checkpoint snapshots (we deliberately avoid a
/// serialization framework here: snapshots are hot and size-metered).
#[derive(Debug, Default)]
pub struct StateWriter {
    buf: Vec<u8>,
}

impl StateWriter {
    /// Fresh writer.
    pub fn new() -> StateWriter {
        StateWriter { buf: Vec::new() }
    }

    /// Append a u64.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append an f64.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a length-prefixed f64 slice.
    pub fn f64s(&mut self, vs: &[f64]) -> &mut Self {
        self.u64(vs.len() as u64);
        for v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
        self
    }

    /// Finish and take the buffer.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Reader matching [`StateWriter`].
#[derive(Debug)]
pub struct StateReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> StateReader<'a> {
    /// Read from a snapshot buffer.
    pub fn new(buf: &'a [u8]) -> StateReader<'a> {
        StateReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> &'a [u8] {
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        s
    }

    /// Read a u64.
    pub fn u64(&mut self) -> u64 {
        u64::from_le_bytes(self.take(8).try_into().unwrap())
    }

    /// Read an f64.
    pub fn f64(&mut self) -> f64 {
        f64::from_le_bytes(self.take(8).try_into().unwrap())
    }

    /// Read a length-prefixed f64 vector.
    pub fn f64s(&mut self) -> Vec<f64> {
        let n = self.u64() as usize;
        (0..n).map(|_| self.f64()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn near_square_prefers_balanced_factors() {
        assert_eq!(near_square_grid(64), (8, 8));
        assert_eq!(near_square_grid(32), (4, 8));
        assert_eq!(near_square_grid(256), (16, 16));
        assert_eq!(near_square_grid(7), (1, 7));
        assert_eq!(near_square_grid(1), (1, 1));
    }

    #[test]
    fn near_cube_factors() {
        assert_eq!(near_cube_grid(64), (4, 4, 4));
        let (x, y, z) = near_cube_grid(32);
        assert_eq!(x * y * z, 32);
        assert!(x <= y && y <= z);
    }

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix::new(7);
        let mut b = SplitMix::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let v = SplitMix::new(7).next_f64();
        assert!((0.0..1.0).contains(&v));
    }

    #[test]
    fn state_codec_roundtrips() {
        let mut w = StateWriter::new();
        w.u64(42).f64(1.5).f64s(&[1.0, 2.0, 3.0]);
        let buf = w.finish();
        let mut r = StateReader::new(&buf);
        assert_eq!(r.u64(), 42);
        assert_eq!(r.f64(), 1.5);
        assert_eq!(r.f64s(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn empty_f64s_roundtrip() {
        let mut w = StateWriter::new();
        w.f64s(&[]);
        let buf = w.finish();
        assert_eq!(StateReader::new(&buf).f64s(), Vec::<f64>::new());
    }
}
