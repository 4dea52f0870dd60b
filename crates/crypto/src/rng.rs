//! A ChaCha20-based deterministic random bit generator.
//!
//! The whole `gridsec` stack draws randomness through [`ChaChaRng`]:
//! seeded from the OS for real runs, or from a fixed byte string for
//! reproducible tests and benchmarks (determinism matters for the
//! experiment harness in `gridsec-bench`).
//!
//! [`ChaChaRng`] implements [`gridsec_util::rng::RngCore`], which also
//! gives it the `gridsec_bignum::prime::EntropySource` blanket impl used
//! by prime generation.

use crate::chacha20;
use crate::sha256::sha256;
use gridsec_util::rng::{CryptoRng, RngCore};

/// ChaCha20-based DRBG: the keystream of ChaCha20 under a hashed seed key,
/// with a 64-bit block counter in the nonce/counter space.
pub struct ChaChaRng {
    key: [u8; 32],
    counter: u64,
    buf: [u8; 64],
    buf_pos: usize,
}

impl ChaChaRng {
    /// Seed deterministically from arbitrary bytes (hashed to a key).
    pub fn from_seed_bytes(seed: &[u8]) -> Self {
        ChaChaRng {
            key: sha256(seed),
            counter: 0,
            buf: [0; 64],
            buf_pos: 64,
        }
    }

    fn refill(&mut self) {
        // Nonce carries the high 32 bits of the counter; the ChaCha block
        // counter carries the low 32.
        let mut nonce = [0u8; 12];
        nonce[4..12].copy_from_slice(&(self.counter >> 32).to_le_bytes());
        self.buf = chacha20::block(&self.key, self.counter as u32, &nonce);
        self.counter = self.counter.wrapping_add(1);
        self.buf_pos = 0;
    }
}

impl RngCore for ChaChaRng {
    fn next_u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.fill_bytes(&mut b);
        u32::from_le_bytes(b)
    }

    fn next_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.fill_bytes(&mut b);
        u64::from_le_bytes(b)
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut pos = 0;
        while pos < dest.len() {
            if self.buf_pos == 64 {
                self.refill();
            }
            let take = (64 - self.buf_pos).min(dest.len() - pos);
            dest[pos..pos + take].copy_from_slice(&self.buf[self.buf_pos..self.buf_pos + take]);
            self.buf_pos += take;
            pos += take;
        }
    }
}

impl CryptoRng for ChaChaRng {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = ChaChaRng::from_seed_bytes(b"seed");
        let mut b = ChaChaRng::from_seed_bytes(b"seed");
        let mut buf_a = [0u8; 100];
        let mut buf_b = [0u8; 100];
        a.fill_bytes(&mut buf_a);
        b.fill_bytes(&mut buf_b);
        assert_eq!(buf_a, buf_b);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = ChaChaRng::from_seed_bytes(b"seed-1");
        let mut b = ChaChaRng::from_seed_bytes(b"seed-2");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn stream_is_not_trivially_repeating() {
        let mut r = ChaChaRng::from_seed_bytes(b"x");
        let a = r.next_u64();
        let b = r.next_u64();
        let c = r.next_u64();
        assert!(a != b && b != c && a != c);
    }

    #[test]
    fn chunked_reads_match_bulk() {
        let mut a = ChaChaRng::from_seed_bytes(b"chunked");
        let mut b = ChaChaRng::from_seed_bytes(b"chunked");
        let mut bulk = [0u8; 200];
        a.fill_bytes(&mut bulk);
        let mut pieced = Vec::new();
        for size in [1usize, 7, 64, 128] {
            let mut buf = vec![0u8; size];
            b.fill_bytes(&mut buf);
            pieced.extend_from_slice(&buf);
        }
        assert_eq!(&bulk[..], &pieced[..]);
    }

    #[test]
    fn works_as_entropy_source_for_primes() {
        use gridsec_bignum::prime::{generate_prime, is_probably_prime, Primality};
        let mut r = ChaChaRng::from_seed_bytes(b"prime-seed");
        let p = generate_prime(&mut r, 64, 10);
        assert_eq!(p.bit_len(), 64);
        assert_eq!(is_probably_prime(&p, 20, &mut r), Primality::ProbablyPrime);
    }
}
