//! Offline stand-in for the `rand_chacha` crate.
//!
//! Implements a genuine ChaCha keystream generator (8 and 20 round
//! variants) over the `rand` shim's `RngCore`/`SeedableRng` traits. Seeding
//! via `seed_from_u64` expands the seed with SplitMix64, so streams are
//! deterministic per seed (though not bit-identical to the real
//! `rand_chacha`, which uses a different seed-expansion; the workspace only
//! relies on determinism and statistical quality, not exact streams).

#![forbid(unsafe_code)]

use rand::{RngCore, SeedableRng};

#[derive(Debug, Clone)]
pub struct ChaChaRng<const ROUNDS: usize> {
    /// ChaCha state: 4 constant words, 8 key words, counter, 3 nonce words.
    state: [u32; 16],
    /// Buffered keystream block.
    block: [u32; 16],
    /// Next unread word in `block`; 16 means exhausted.
    index: usize,
}

pub type ChaCha8Rng = ChaChaRng<8>;
pub type ChaCha20Rng = ChaChaRng<20>;

const CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

impl<const ROUNDS: usize> ChaChaRng<ROUNDS> {
    fn refill(&mut self) {
        let mut working = self.state;
        for _ in 0..ROUNDS / 2 {
            // Column round.
            quarter_round(&mut working, 0, 4, 8, 12);
            quarter_round(&mut working, 1, 5, 9, 13);
            quarter_round(&mut working, 2, 6, 10, 14);
            quarter_round(&mut working, 3, 7, 11, 15);
            // Diagonal round.
            quarter_round(&mut working, 0, 5, 10, 15);
            quarter_round(&mut working, 1, 6, 11, 12);
            quarter_round(&mut working, 2, 7, 8, 13);
            quarter_round(&mut working, 3, 4, 9, 14);
        }
        for (out, (w, s)) in self
            .block
            .iter_mut()
            .zip(working.iter().zip(self.state.iter()))
        {
            *out = w.wrapping_add(*s);
        }
        // 64-bit block counter across words 12 and 13.
        let counter = (self.state[12] as u64 | ((self.state[13] as u64) << 32)).wrapping_add(1);
        self.state[12] = counter as u32;
        self.state[13] = (counter >> 32) as u32;
        self.index = 0;
    }
}

impl<const ROUNDS: usize> SeedableRng for ChaChaRng<ROUNDS> {
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&CONSTANTS);
        for i in 0..4 {
            let w = splitmix64(&mut sm);
            state[4 + 2 * i] = w as u32;
            state[5 + 2 * i] = (w >> 32) as u32;
        }
        // Counter starts at zero; nonce words come from the seed stream too.
        let nonce = splitmix64(&mut sm);
        state[14] = nonce as u32;
        state[15] = (nonce >> 32) as u32;
        Self {
            state,
            block: [0; 16],
            index: 16,
        }
    }
}

impl<const ROUNDS: usize> RngCore for ChaChaRng<ROUNDS> {
    fn next_u32(&mut self) -> u32 {
        if self.index >= 16 {
            self.refill();
        }
        let w = self.block[self.index];
        self.index += 1;
        w
    }

    fn next_u64(&mut self) -> u64 {
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        lo | (hi << 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn deterministic_per_seed() {
        let mut a = ChaCha8Rng::seed_from_u64(11);
        let mut b = ChaCha8Rng::seed_from_u64(11);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = ChaCha8Rng::seed_from_u64(12);
        assert_ne!(ChaCha8Rng::seed_from_u64(11).next_u64(), c.next_u64());
    }

    #[test]
    fn keystream_looks_uniform() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut counts = [0usize; 4];
        for _ in 0..40_000 {
            counts[rng.gen_range(0..4usize)] += 1;
        }
        for c in counts {
            assert!((9_000..11_000).contains(&c), "counts {counts:?}");
        }
    }

    #[test]
    fn chacha20_core_matches_rfc7539_block() {
        // RFC 7539 §2.3.2 test vector: key 00..1f, counter 1,
        // nonce 000000090000004a00000000.
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&CONSTANTS);
        for (i, w) in state[4..12].iter_mut().enumerate() {
            let i = i as u32 * 4;
            *w = u32::from_le_bytes([i as u8, (i + 1) as u8, (i + 2) as u8, (i + 3) as u8]);
        }
        state[12] = 1;
        state[13] = 0x0900_0000;
        state[14] = 0x4a00_0000;
        state[15] = 0;
        let mut rng = ChaCha20Rng {
            state,
            block: [0; 16],
            index: 16,
        };
        // First output word of the RFC block function is 0xe4e7f110.
        assert_eq!(rng.next_u32(), 0xe4e7_f110);
    }
}
