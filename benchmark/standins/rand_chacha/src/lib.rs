//! Offline stand-in for `rand_chacha`: [`ChaCha8Rng`], the ChaCha
//! stream cipher at 8 rounds used as a generator (64-bit block counter,
//! zero stream id, words consumed in order).

#![forbid(unsafe_code)]

use rand::{RngCore, SeedableRng};

/// ChaCha with 8 rounds as a random number generator.
#[derive(Debug, Clone)]
pub struct ChaCha8Rng {
    key: [u32; 8],
    counter: u64,
    block: [u32; 16],
    /// Next unread word of `block`; 16 means "generate a new block".
    index: usize,
}

fn quarter(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

impl ChaCha8Rng {
    fn refill(&mut self) {
        let mut input = [0u32; 16];
        input[..4].copy_from_slice(&[0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574]);
        input[4..12].copy_from_slice(&self.key);
        input[12] = self.counter as u32;
        input[13] = (self.counter >> 32) as u32;
        let mut s = input;
        for _ in 0..4 {
            quarter(&mut s, 0, 4, 8, 12);
            quarter(&mut s, 1, 5, 9, 13);
            quarter(&mut s, 2, 6, 10, 14);
            quarter(&mut s, 3, 7, 11, 15);
            quarter(&mut s, 0, 5, 10, 15);
            quarter(&mut s, 1, 6, 11, 12);
            quarter(&mut s, 2, 7, 8, 13);
            quarter(&mut s, 3, 4, 9, 14);
        }
        for (out, inp) in s.iter_mut().zip(input) {
            *out = out.wrapping_add(inp);
        }
        self.block = s;
        self.counter = self.counter.wrapping_add(1);
        self.index = 0;
    }
}

impl SeedableRng for ChaCha8Rng {
    type Seed = [u8; 32];

    fn from_seed(seed: [u8; 32]) -> ChaCha8Rng {
        let mut key = [0u32; 8];
        for (word, bytes) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *word = u32::from_le_bytes(bytes.try_into().expect("4-byte chunk"));
        }
        ChaCha8Rng {
            key,
            counter: 0,
            block: [0; 16],
            index: 16,
        }
    }
}

impl RngCore for ChaCha8Rng {
    fn next_u32(&mut self) -> u32 {
        if self.index >= 16 {
            self.refill();
        }
        let word = self.block[self.index];
        self.index += 1;
        word
    }

    fn next_u64(&mut self) -> u64 {
        let low = u64::from(self.next_u32());
        let high = u64::from(self.next_u32());
        (high << 32) | low
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn zero_key_first_block_matches_the_chacha8_test_vector() {
        // draft-strombergson-chacha-test-vectors, TC1, 8 rounds.
        let mut rng = ChaCha8Rng::from_seed([0; 32]);
        let bytes: Vec<u8> = (0..4).flat_map(|_| rng.next_u32().to_le_bytes()).collect();
        assert_eq!(
            bytes,
            [
                0x3e, 0x00, 0xef, 0x2f, 0x89, 0x5f, 0x40, 0xd6, 0x7f, 0x5b, 0xb8, 0xe8, 0x1f, 0x09,
                0xa5, 0xa1
            ]
        );
    }

    #[test]
    fn seeded_streams_repeat_and_stay_in_range() {
        let mut a = ChaCha8Rng::seed_from_u64(42);
        let mut b = ChaCha8Rng::seed_from_u64(42);
        let mut c = ChaCha8Rng::seed_from_u64(43);
        let xs: Vec<f64> = (0..100).map(|_| a.gen_range(-1.5..1.5)).collect();
        let ys: Vec<f64> = (0..100).map(|_| b.gen_range(-1.5..1.5)).collect();
        let zs: Vec<f64> = (0..100).map(|_| c.gen_range(-1.5..1.5)).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
        assert!(xs.iter().all(|x| (-1.5..1.5).contains(x)));
    }
}
