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

use crate::sha256::sha256;
use gridsec_util::chacha::Keystream;
use gridsec_util::rng::{CryptoRng, RngCore};

/// ChaCha20-based DRBG: the [`Keystream`] under a hashed seed key.
pub struct ChaChaRng(Keystream);

impl ChaChaRng {
    /// Seed deterministically from arbitrary bytes (hashed to a key).
    pub fn from_seed_bytes(seed: &[u8]) -> Self {
        ChaChaRng(Keystream::new(sha256(seed)))
    }
}

impl RngCore for ChaChaRng {
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.0.fill_bytes(dest)
    }

    #[inline]
    fn next_u32(&mut self) -> u32 {
        self.0.next_u32()
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
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
