//! The prime search as it stood before the sieve, kept as the oracle of
//! `prime_differential.rs` and `provable_primes.rs`; lives only here.
//!
//! Two lines are not the pre-sieve parent's, both marked below.
#![allow(dead_code)] // each test file uses its own half

use gridsec_bignum::modular::mod_pow;
use gridsec_bignum::prime::{random_bits, EntropySource, Primality};
use gridsec_bignum::BigUint;

const SMALL_PRIMES: [u64; 60] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281,
];

const DETERMINISTIC_WITNESSES: [u64; 13] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41];

fn random_below<E: EntropySource>(rng: &mut E, bound: &BigUint) -> BigUint {
    assert!(!bound.is_zero(), "random_below with zero bound");
    let bits = bound.bit_len();
    let nbytes = bits.div_ceil(8);
    let excess = nbytes * 8 - bits;
    loop {
        let mut buf = vec![0u8; nbytes];
        rng.fill_bytes(&mut buf);
        buf[0] &= 0xFFu8 >> excess;
        let candidate = BigUint::from_bytes_be(&buf);
        if &candidate < bound {
            return candidate;
        }
    }
}

pub fn is_probably_prime<E: EntropySource>(n: &BigUint, rounds: usize, rng: &mut E) -> Primality {
    if let Some(v) = n.to_u64() {
        if v < 2 {
            return Primality::Composite;
        }
        if SMALL_PRIMES.contains(&v) {
            return Primality::ProbablyPrime;
        }
    }
    if n.is_even() {
        return Primality::Composite;
    }
    for &p in &SMALL_PRIMES {
        let (_, r) = n.div_rem_limb(p);
        if r == 0 {
            return if n.to_u64() == Some(p) {
                Primality::ProbablyPrime
            } else {
                Primality::Composite
            };
        }
    }

    let one = BigUint::one();
    let n_minus_1 = n.sub_ref(&one);
    let s = n_minus_1.trailing_zeros().expect("n > 2 is odd");
    let d = &n_minus_1 >> s;

    let witness_passes = |a: &BigUint| -> bool {
        let a = a.rem_ref(n);
        if a.is_zero() || a.is_one() {
            return true;
        }
        let mut x = mod_pow(&a, &d, n);
        if x.is_one() || x == n_minus_1 {
            return true;
        }
        for _ in 0..s - 1 {
            x = x.square().rem_ref(n);
            if x == n_minus_1 {
                return true;
            }
        }
        false
    };

    for &w in &DETERMINISTIC_WITNESSES {
        if !witness_passes(&BigUint::from(w)) {
            return Primality::Composite;
        }
    }
    if n.bit_len() <= 81 {
        return Primality::ProbablyPrime; // was 42; the second line that is not the parent's
    }
    let two = BigUint::from(2u64);
    let range = n.sub_ref(&BigUint::from(4u64));
    for _ in 0..rounds {
        let a = random_below(rng, &range).add_ref(&two);
        if !witness_passes(&a) {
            return Primality::Composite;
        }
    }
    Primality::ProbablyPrime
}

pub fn generate_prime<E: EntropySource>(rng: &mut E, bits: usize, rounds: usize) -> BigUint {
    assert!(bits >= 8, "prime generation needs at least 8 bits");
    let two = BigUint::from(2u64);
    loop {
        let mut candidate = random_bits(rng, bits);
        candidate.set_bit(bits - 2, true); // the first line that is not the parent's
        if candidate.is_even() {
            candidate = candidate.add_ref(&BigUint::one());
        }
        for _ in 0..4096 {
            if candidate.bit_len() != bits {
                break;
            }
            if is_probably_prime(&candidate, rounds, rng) == Primality::ProbablyPrime {
                return candidate;
            }
            candidate = candidate.add_ref(&two);
        }
    }
}
