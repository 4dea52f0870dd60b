//! Primality testing and random prime generation.
//!
//! Used by `gridsec-crypto` for RSA key generation and for building
//! Diffie–Hellman groups in tests. The entropy source is abstracted behind
//! a simple trait so the crypto crate can plug in its deterministic CSPRNG.

use crate::modular::mod_pow_classic;
use crate::montgomery::Montgomery;
use crate::BigUint;

/// Minimal entropy-source abstraction: fills a byte slice with random data.
///
/// `gridsec-crypto`'s CSPRNG and `gridsec-util`'s deterministic test RNG
/// both implement this via the [`gridsec_util::rng::RngCore`] blanket
/// impl, keeping `gridsec-bignum` free of a crypto dependency direction.
pub trait EntropySource {
    /// Fill `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]);
}

impl<T: gridsec_util::rng::RngCore> EntropySource for T {
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        gridsec_util::rng::RngCore::fill_bytes(self, dest)
    }
}

/// Trial division stops here: a candidate with an odd prime factor below
/// this never reaches Miller–Rabin. Past about 2^12 the residues of a
/// random start cost more than the witnesses they save (DESIGN.md §11.5).
const SIEVE_BOUND: u64 = 1 << 11;

/// The odd primes below [`SIEVE_BOUND`], ascending.
const SIEVE_PRIMES: [u64; 308] = {
    let mut primes = [0u64; 308];
    let (mut len, mut n) = (0, 3);
    while n < SIEVE_BOUND {
        let (mut d, mut is_prime) = (3, true);
        while d * d <= n {
            is_prime &= n % d != 0;
            d += 2;
        }
        if is_prime {
            primes[len] = n;
            len += 1;
        }
        n += 2;
    }
    assert!(len == primes.len());
    primes
};

/// Odd candidates [`generate_prime`] scans from one random start before
/// it draws another.
const SCAN_WINDOW: usize = 4096;

/// Deterministic Miller–Rabin witnesses sufficient for all n < 3.3 * 10^24,
/// applied before random rounds for small inputs.
const DETERMINISTIC_WITNESSES: [u64; 13] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41];

/// Result of a primality check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Primality {
    /// Definitely composite.
    Composite,
    /// Passed trial division, the 13 fixed Miller–Rabin bases
    /// 2, 3, …, 41 and then `rounds` random ones. Below 42 bits the
    /// fixed bases alone are conclusive and no random round runs; above,
    /// a composite survives the random rounds with probability at most
    /// `4^-rounds`.
    ProbablyPrime,
}

/// Generate a uniformly random [`BigUint`] with exactly `bits` significant
/// bits: bit `bits - 1` is forced on and no other, so the value is
/// uniform on `[2^(bits-1), 2^bits)`. [`generate_prime`] forces two more
/// bits on its start draw; operands drawn here directly keep this range.
pub fn random_bits<E: EntropySource>(rng: &mut E, bits: usize) -> BigUint {
    assert!(bits > 0, "random_bits needs at least one bit");
    let nbytes = bits.div_ceil(8);
    let mut buf = vec![0u8; nbytes];
    rng.fill_bytes(&mut buf);
    // Mask excess high bits, then force the top bit on.
    let excess = nbytes * 8 - bits;
    buf[0] &= 0xFFu8 >> excess;
    buf[0] |= 1 << (7 - excess);
    BigUint::from_bytes_be(&buf)
}

/// Generate a uniformly random value in `[0, bound)` by rejection sampling.
pub fn random_below<E: EntropySource>(rng: &mut E, bound: &BigUint) -> BigUint {
    assert!(!bound.is_zero(), "random_below with zero bound");
    let bits = bound.bit_len();
    let nbytes = bits.div_ceil(8);
    let excess = nbytes * 8 - bits;
    let mut buf = vec![0u8; nbytes];
    loop {
        rng.fill_bytes(&mut buf);
        buf[0] &= 0xFFu8 >> excess;
        let candidate = BigUint::from_bytes_be(&buf);
        if &candidate < bound {
            return candidate;
        }
    }
}

/// Call `each(p, n mod p)` for every `p` of `primes`, in order: one
/// allocation-free [`BigUint::rem_limb`] per run of primes whose product
/// fits a limb, word arithmetic from there.
fn residues(n: &BigUint, mut primes: &[u64], mut each: impl FnMut(u64, u64)) {
    while !primes.is_empty() {
        let (mut product, mut run) = (1u64, 0);
        while let Some(wider) = primes.get(run).and_then(|&p| product.checked_mul(p)) {
            product = wider;
            run += 1;
        }
        let r = n.rem_limb(product);
        for &p in &primes[..run] {
            each(p, r % p);
        }
        primes = &primes[run..];
    }
}

/// Primality test: trial division by the primes below 2^11, then
/// Miller–Rabin with the 13 fixed bases 2, 3, …, 41.
///
/// For candidates below 42 bits the deterministic witness set is decisive;
/// above that, it is followed by `rounds` random witnesses.
pub fn is_probably_prime<E: EntropySource>(n: &BigUint, rounds: usize, rng: &mut E) -> Primality {
    // Below the sieve bound the table is the answer.
    if let Some(v) = n.to_u64() {
        if v < SIEVE_BOUND {
            return if v == 2 || SIEVE_PRIMES.contains(&v) {
                Primality::ProbablyPrime
            } else {
                Primality::Composite
            };
        }
    }
    // Trial division by small primes.
    let mut has_small_factor = n.is_even();
    residues(n, &SIEVE_PRIMES, |_, r| has_small_factor |= r == 0);
    if has_small_factor {
        return Primality::Composite;
    }
    miller_rabin(n, rounds, rng)
}

/// The one witness loop: Miller–Rabin on an odd `n > 41` under one
/// Montgomery context built for `n`.
fn miller_rabin<E: EntropySource>(n: &BigUint, rounds: usize, rng: &mut E) -> Primality {
    // Write n-1 = d * 2^s with d odd.
    let one = BigUint::one();
    let n_minus_1 = n.sub_ref(&one);
    let s = n_minus_1.trailing_zeros().expect("n > 2 is odd");
    let d = &n_minus_1 >> s;

    let ctx = Montgomery::new(n);
    let witness_passes = |a: &BigUint| -> bool {
        let a = a.rem_ref(n);
        if a.is_zero() || a.is_one() {
            return true;
        }
        let mut x = match &ctx {
            Some(ctx) => ctx.pow(&a, &d),
            None => mod_pow_classic(&a, &d, n), // wider than 2048 bits
        };
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
    if n.bit_len() <= 42 {
        // Deterministic witnesses are conclusive for this range.
        return Primality::ProbablyPrime;
    }
    let two = BigUint::from(2u64);
    let range = n.sub_ref(&BigUint::from(4u64)); // witnesses in [2, n-2]
    for _ in 0..rounds {
        let a = random_below(rng, &range).add_ref(&two);
        if !witness_passes(&a) {
            return Primality::Composite;
        }
    }
    Primality::ProbablyPrime
}

/// Generate a random probable prime with exactly `bits` bits and its top
/// two bits set: a prime in `[3·2^(bits-2), 2^bits)`.
///
/// The candidate stream is: one random start with bits `bits - 1`,
/// `bits - 2` and 0 forced on, then increment by 2 until a probable
/// prime is found (restarting if the bit length overflows, or after 4096
/// candidates). Bit `bits - 2` is what FIPS 186-4 B.3.3's
/// `p, q ≥ √2·2^(k-1)` comes to in practice: two such primes of widths
/// `a` and `b` multiply to at least `9/16·2^(a+b)`, so their product has
/// exactly `a + b` bits and `RsaKeyPair::generate` never redraws a pair
/// for length (DESIGN.md §11.5). A sieve over the primes below
/// 2^11 strikes candidates out of that stream; each survivor, in
/// increasing order, faces the 13 fixed Miller–Rabin bases 2, 3, …, 41
/// and then `rounds` random witnesses — below 42 bits the fixed bases
/// are conclusive and none is drawn. RSA key generation passes
/// `rounds = 16`: a `4^-16` bound on top of the fixed bases, ample for a
/// research stack.
///
/// The sieve removes only candidates the witness loop would have
/// rejected on its fixed bases, which draw nothing from `rng`, so the
/// prime returned and the bytes drawn are those of the unsieved scan.
pub fn generate_prime<E: EntropySource>(rng: &mut E, bits: usize, rounds: usize) -> BigUint {
    assert!(bits >= 8, "prime generation needs at least 8 bits");
    // Sieve only with primes below every `bits`-bit number, so that a
    // multiple of one inside the window is a proper multiple.
    let below_range = SIEVE_PRIMES.partition_point(|&p| ((p.ilog2() + 1) as usize) < bits);
    loop {
        // The one start draw: top bit from `random_bits`, then the
        // second-highest and the low bit.
        let mut start = random_bits(rng, bits);
        start.set_bit(bits - 2, true);
        start.set_bit(0, true);
        // struck[k]: start + 2k has a factor among the sieve primes.
        let mut struck = [false; SCAN_WINDOW];
        residues(&start, &SIEVE_PRIMES[..below_range], |p, r| {
            // Least k with start + 2k = 0 (mod p), for odd p: whichever
            // of p - r and 2p - r is even, halved.
            let to_multiple = (p - r) % p;
            let first = (to_multiple + (to_multiple % 2) * p) / 2;
            for k in (first as usize..SCAN_WINDOW).step_by(p as usize) {
                struck[k] = true;
            }
        });
        for k in (0..SCAN_WINDOW).filter(|&k| !struck[k]) {
            let candidate = start.add_ref(&BigUint::from(2 * k as u64));
            if candidate.bit_len() != bits {
                break; // wrapped past the top of the range; re-randomize
            }
            if miller_rabin(&candidate, rounds, rng) == Primality::ProbablyPrime {
                return candidate;
            }
        }
    }
}

/// Generate a "safe prime" `p` (i.e. `p = 2q + 1` with `q` prime), used for
/// Diffie–Hellman group construction in tests. This is expensive; keep
/// `bits` modest (≤ 256) in test contexts.
pub fn generate_safe_prime<E: EntropySource>(rng: &mut E, bits: usize, rounds: usize) -> BigUint {
    loop {
        let q = generate_prime(rng, bits - 1, rounds);
        let p = (&q << 1).add_ref(&BigUint::one());
        if is_probably_prime(&p, rounds, rng) == Primality::ProbablyPrime {
            return p;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsec_util::rng::DetRng;

    fn rng() -> DetRng {
        DetRng::seed_from_u64(0x5EED_CAFE)
    }

    #[test]
    fn sieve_table_holds_the_odd_primes_below_the_bound() {
        assert_eq!(SIEVE_PRIMES[..5], [3, 5, 7, 11, 13]);
        assert_eq!(SIEVE_PRIMES[SIEVE_PRIMES.len() - 1], 2039);
        assert!(SIEVE_PRIMES.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn residues_match_one_division_per_prime() {
        let n = random_bits(&mut rng(), 300);
        let mut seen = Vec::new();
        residues(&n, &SIEVE_PRIMES, |p, r| {
            assert_eq!(r, n.rem_limb(p), "p={p}");
            seen.push(p);
        });
        assert_eq!(seen, SIEVE_PRIMES);
    }

    #[test]
    fn small_primes_detected() {
        let mut r = rng();
        for p in [2u64, 3, 5, 7, 11, 13, 97, 281, 283, 2039, 2053] {
            assert_eq!(
                is_probably_prime(&BigUint::from(p), 5, &mut r),
                Primality::ProbablyPrime,
                "{p}"
            );
        }
    }

    #[test]
    fn small_composites_detected() {
        let mut r = rng();
        for c in [0u64, 1, 4, 6, 9, 15, 100, 561, 2047, 2049, 41041, 825265] {
            // 561, 41041, 825265 are Carmichael numbers.
            assert_eq!(
                is_probably_prime(&BigUint::from(c), 5, &mut r),
                Primality::Composite,
                "{c}"
            );
        }
    }

    #[test]
    fn known_large_prime() {
        let mut r = rng();
        // 2^127 - 1 is a Mersenne prime.
        let m127 = (&BigUint::one() << 127) - &BigUint::one();
        assert_eq!(
            is_probably_prime(&m127, 10, &mut r),
            Primality::ProbablyPrime
        );
        // 2^128 - 1 is composite.
        let c = (&BigUint::one() << 128) - &BigUint::one();
        assert_eq!(is_probably_prime(&c, 10, &mut r), Primality::Composite);
    }

    #[test]
    fn known_rsa_style_semiprime_is_composite() {
        let mut r = rng();
        let p = BigUint::from_decimal("170141183460469231731687303715884105727").unwrap();
        let sq = p.square();
        assert_eq!(is_probably_prime(&sq, 10, &mut r), Primality::Composite);
    }

    #[test]
    fn random_bits_has_exact_length() {
        let mut r = rng();
        for bits in [8usize, 9, 63, 64, 65, 129, 256] {
            let v = random_bits(&mut r, bits);
            assert_eq!(v.bit_len(), bits, "bits={bits}");
        }
    }

    #[test]
    fn random_below_in_range() {
        let mut r = rng();
        let bound = BigUint::from_decimal("1000000000000000000000").unwrap();
        for _ in 0..50 {
            assert!(random_below(&mut r, &bound) < bound);
        }
    }

    #[test]
    fn generated_prime_has_requested_size() {
        let mut r = rng();
        let p = generate_prime(&mut r, 128, 10);
        assert_eq!(p.bit_len(), 128);
        assert!(p.bit(126), "top two bits set");
        assert!(p.is_odd());
        assert_eq!(is_probably_prime(&p, 20, &mut r), Primality::ProbablyPrime);
    }

    #[test]
    fn generated_safe_prime() {
        let mut r = rng();
        let p = generate_safe_prime(&mut r, 96, 8);
        assert_eq!(p.bit_len(), 96);
        let q = (&p - &BigUint::one()) >> 1;
        assert_eq!(is_probably_prime(&q, 10, &mut r), Primality::ProbablyPrime);
    }
}
