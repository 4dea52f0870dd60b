//! Primality testing and random prime generation.
//!
//! Used by `gridsec-crypto` for RSA key generation and for building
//! Diffie–Hellman groups in tests. The entropy source is abstracted behind
//! a simple trait so the crypto crate can plug in its deterministic CSPRNG.

use crate::modular::mod_pow_classic;
use crate::montgomery::Montgomery;
use crate::BigUint;
use gridsec_util::rng::DetRng;

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

/// Candidates [`generate_prime`] walks through from one random start —
/// of the search or of `k` — before it draws another.
const SCAN_WINDOW: usize = 4096;

/// The first 13 primes as Miller–Rabin bases. The least composite that
/// is a strong probable prime to all of them is
/// ψ₁₃ = 3 317 044 064 679 887 385 961 981 ≈ 3.3·10²⁴ (Sorenson & Webster,
/// "Strong pseudoprimes to twelve prime bases", Math. Comp. 86, 2017), so
/// below it these bases are a primality proof.
const DETERMINISTIC_WITNESSES: [u64; 13] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41];

/// The widest inputs [`DETERMINISTIC_WITNESSES`] decide on their own:
/// `2^81 < ψ₁₃ < 2^82`.
const FIXED_BASES_PROVE_BITS: usize = 81;

/// Result of a primality check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Primality {
    /// Definitely composite.
    Composite,
    /// Passed trial division, the 13 fixed Miller–Rabin bases
    /// 2, 3, …, 41 and then `rounds` random ones. Up to 81 bits the
    /// fixed bases alone are a proof and no random round runs; above,
    /// a composite survives the random rounds with probability at most
    /// `4^-rounds`. (A prime *made* by [`generate_prime`] is proven at
    /// every width; this is the verdict on numbers nobody constructed.)
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
/// Up to 81 bits the fixed bases are a proof and nothing is drawn from
/// `rng`; above that they are followed by `rounds` random witnesses.
/// This is the test for numbers nobody constructed — a DH modulus, a
/// safe-prime candidate, the cross-check of [`generate_prime`] — and its
/// verdict above 81 bits is probabilistic, unlike a [`Certificate`].
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
    if n.bit_len() <= FIXED_BASES_PROVE_BITS {
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

/// Generate a random *proven* prime with exactly `bits` bits and its top
/// two bits set: a prime in `[3·2^(bits-2), 2^bits)`.
///
/// This is [`generate_certified_prime`] with the certificate dropped;
/// see there for the construction. Bit `bits - 2` is what FIPS 186-4
/// B.3.3's `p, q ≥ √2·2^(k-1)` comes to in practice: two such primes of
/// widths `a` and `b` multiply to at least `9/16·2^(a+b)`, so their
/// product has exactly `a + b` bits and `RsaKeyPair::generate` never
/// redraws a pair for length (DESIGN.md §11.5).
///
/// `rounds` buys no certainty — there is none left to buy — and costs a
/// release build nothing. Under `debug_assertions` every constructed
/// prime must also pass that many random-base Miller–Rabin rounds, the
/// bases drawn from a generator seeded from the prime itself and never
/// from `rng`, so debug and release builds return the same prime from
/// the same stream position.
pub fn generate_prime<E: EntropySource>(rng: &mut E, bits: usize, rounds: usize) -> BigUint {
    generate_certified_prime(rng, bits, rounds).prime
}

/// Why [`Certificate::prime`] is prime, in a form [`Certificate::verify`]
/// re-checks without the generator's help.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// The number certified.
    pub prime: BigUint,
    /// `None` claims `prime < 2^81`, where the 13 fixed Miller–Rabin
    /// bases decide. `Some((k, q))` claims `prime = 2·k·q.prime + 1`
    /// with `q.prime` a certified prime, `(2·q.prime + 1)² > prime`, and
    /// `2^(2k)` of order `q.prime` modulo every prime factor of `prime`.
    pub step: Option<(BigUint, Box<Certificate>)>,
}

impl Certificate {
    /// Check the whole chain, trusting nothing but
    /// [`mod_pow_classic`], [`BigUint::gcd`] and ψ₁₃.
    ///
    /// A step holds by Pocklington's theorem. Let `N = 2kq + 1` with `q`
    /// an odd prime, `b = 2^(2k) mod N`, `b^q ≡ 1 (mod N)` and
    /// `gcd(b − 1, N) = 1`. For any prime `p | N`, `b ≢ 1 (mod p)` while
    /// `b^q ≡ 1`, so the order of `b` modulo `p` is exactly `q`; hence
    /// `q | p − 1`, and `p` being odd, `p ≥ 2q + 1`. A composite `N` has
    /// a prime factor `p ≤ √N`, so `(2q + 1)² > N` leaves it none: `N`
    /// is prime. An even `q` is refused: 2 would only give `p ≥ 3`.
    pub fn verify(&self) -> bool {
        let (n, one) = (&self.prime, BigUint::one());
        let Some((k, q)) = &self.step else {
            return fixed_bases_prove(n);
        };
        let two_k = k << 1;
        let least_factor = (&q.prime << 1).add_ref(&one);
        if !q.verify()
            || q.prime.is_even()
            || *n != two_k.mul_ref(&q.prime).add_ref(&one)
            || least_factor.square() <= *n
        {
            return false;
        }
        let b = mod_pow_classic(&BigUint::from(2u64), &two_k, n);
        !b.is_one() && mod_pow_classic(&b, &q.prime, n).is_one() && b.sub_ref(&one).gcd(n).is_one()
    }
}

/// The leaf of a [`Certificate`]: `n` is at most 81 bits wide and a
/// strong probable prime to every base of [`DETERMINISTIC_WITNESSES`].
fn fixed_bases_prove(n: &BigUint) -> bool {
    let two = BigUint::from(2u64);
    if n.bit_len() > FIXED_BASES_PROVE_BITS || *n < two {
        return false;
    }
    if n.is_even() {
        return *n == two;
    }
    let n_minus_1 = n.sub_ref(&BigUint::one());
    let s = n_minus_1.trailing_zeros().expect("n >= 3");
    let d = &n_minus_1 >> s;
    DETERMINISTIC_WITNESSES.iter().all(|&a| {
        let a = BigUint::from(a);
        if a == *n {
            return true; // says nothing about itself; 2 < n decides below 2047
        }
        let mut x = mod_pow_classic(&a, &d, n);
        x.is_one()
            || x == n_minus_1
            || (1..s).any(|_| {
                x = mod_pow_classic(&x, &two, n);
                x == n_minus_1
            })
    })
}

/// The window is sieved this many offsets at a time, on demand: a walk
/// that ends a few hundred candidates in — nearly all do — never pays
/// for striking the thousands behind it.
const SIEVE_CHUNK: usize = 512;

/// The offsets in `0..SCAN_WINDOW` that no sieve prime strikes, in
/// increasing order, when `primes[i]` strikes `firsts[i]` and every
/// `primes[i]`-th offset after it.
fn unstruck(mut next: Vec<usize>, primes: &[u64]) -> impl Iterator<Item = usize> + '_ {
    (0..SCAN_WINDOW)
        .step_by(SIEVE_CHUNK)
        .flat_map(move |chunk| {
            let mut struck = [false; SIEVE_CHUNK];
            for (next, &p) in next.iter_mut().zip(primes) {
                while *next < chunk + SIEVE_CHUNK {
                    struck[*next - chunk] = true;
                    *next += p as usize;
                }
            }
            (chunk..chunk + SIEVE_CHUNK).filter(move |j| !struck[j - chunk])
        })
}

/// `a⁻¹ mod p` for a prime `p < 2^11` and `0 < a < p`.
fn inverse_mod_word(a: u64, p: u64) -> u64 {
    let (mut r, mut next_r, mut t, mut next_t) = (p as i32, a as i32, 0i32, 1i32);
    while next_r != 0 {
        let quotient = r / next_r;
        (r, next_r) = (next_r, r - quotient * next_r);
        (t, next_t) = (next_t, t - quotient * next_t);
    }
    t.rem_euclid(p as i32) as u64
}

/// The base case of [`generate_certified_prime`], `bits <= 81`: one
/// random start with bits `bits - 1`, `bits - 2` and 0 forced on, then
/// `start, start + 2, …` through the sieve until one passes the 13
/// fixed bases, which at this width is a proof and draws nothing. The
/// scan restarts from a fresh draw if it climbs out of the range or
/// exhausts its window.
fn search_small_prime<E: EntropySource>(rng: &mut E, bits: usize) -> BigUint {
    // Sieve only with primes below every `bits`-bit number, so that a
    // multiple of one inside the window is a proper multiple.
    let below_range = SIEVE_PRIMES.partition_point(|&p| ((p.ilog2() + 1) as usize) < bits);
    loop {
        // The one start draw: top bit from `random_bits`, then the
        // second-highest and the low bit.
        let mut start = random_bits(rng, bits);
        start.set_bit(bits - 2, true);
        start.set_bit(0, true);
        let sieve = &SIEVE_PRIMES[..below_range];
        let mut firsts = Vec::with_capacity(sieve.len());
        residues(&start, sieve, |p, r| {
            // Least j with start + 2j = 0 (mod p), for odd p: whichever
            // of p - r and 2p - r is even, halved.
            let to_multiple = (p - r) % p;
            firsts.push(((to_multiple + (to_multiple % 2) * p) / 2) as usize);
        });
        for j in unstruck(firsts, sieve) {
            let candidate = start.add_ref(&BigUint::from(2 * j as u64));
            if candidate.bit_len() != bits {
                break; // wrapped past the top of the range; re-randomize
            }
            if miller_rabin(&candidate, 0, rng) == Primality::ProbablyPrime {
                return candidate;
            }
        }
    }
}

/// Construct a random prime in `[3·2^(bits-2), 2^bits)` together with
/// the proof that it is one: FIPS 186-4 B.3.2's "provably prime", by
/// the Pocklington step its C.6 is built on.
///
/// Up to 81 bits this is [`search_small_prime`]. Above, it first makes a
/// proven prime `q` of `⌊bits/2⌋` bits by the same function, draws one
/// `k₀` uniformly from the `k` that put `N = 2kq + 1` in the range, and
/// walks `k₀, k₀ + 1, …` — the multiples of the primes below 2^11 struck
/// out of a 4096-wide window, a fresh `k₀` if the walk leaves the range
/// or the window — to the first `N` with `b = 2^(2k) mod N ≠ 1`,
/// `b^q ≡ 1 (mod N)` and `gcd(b − 1, N) = 1`. Those facts prove `N`
/// prime ([`Certificate::verify`]): every prime factor of `N` is at
/// least `2q + 1`, and `q ≥ 3·2^(⌊bits/2⌋-2)` puts `(2q + 1)²` above
/// `9/4·2^(2⌊bits/2⌋) > 2^bits`. (C.6 asks `q > √N`, one bit more; the
/// factor-of-two-tighter bound keeps every level of a 256-, 512- or
/// 1024-bit prime inside a power-of-two kernel width, DESIGN.md §11.5.)
/// A composite fails `b^q ≡ 1` after the one full-length exponentiation
/// the two half-length ones add up to; a prime passes all three unless
/// 2 happens to be a `q`-th power residue (one `N` in `q`), and then
/// the walk simply moves on. `rounds` is the debug-build cross-check
/// described at [`generate_prime`], applied at every constructed level.
pub fn generate_certified_prime<E: EntropySource>(
    rng: &mut E,
    bits: usize,
    rounds: usize,
) -> Certificate {
    assert!(bits >= 8, "prime generation needs at least 8 bits");
    if bits <= FIXED_BASES_PROVE_BITS {
        return Certificate {
            prime: search_small_prime(rng, bits),
            step: None,
        };
    }
    let q = generate_certified_prime(rng, bits / 2, rounds);
    let (one, two) = (BigUint::one(), BigUint::from(2u64));
    let two_q = &q.prime << 1;
    // N >= 3·2^(bits-2) from k_min = ⌊(3·2^(bits-3) - 1) / q⌋ + 1 up,
    // N < 2^bits up to k_max = ⌊(2^(bits-1) - 1) / q⌋.
    let below_k_min = (&BigUint::from(3u64) << (bits - 3))
        .sub_ref(&one)
        .div_rem(&q.prime)
        .0;
    let k_max = (&one << (bits - 1)).sub_ref(&one).div_rem(&q.prime).0;
    let (k_min, k_count) = (below_k_min.add_ref(&one), k_max.sub_ref(&below_k_min));
    // N = 0 (mod p) exactly when k = -(2q)^-1 (mod p); q is above every
    // sieve prime, so the inverse exists.
    let mut roots = Vec::with_capacity(SIEVE_PRIMES.len());
    residues(&two_q, &SIEVE_PRIMES, |p, r| {
        roots.push(p - inverse_mod_word(r, p))
    });
    loop {
        let k0 = random_below(rng, &k_count).add_ref(&k_min);
        // Least j with k0 + j on the i-th root.
        let mut firsts = Vec::with_capacity(roots.len());
        residues(&k0, &SIEVE_PRIMES, |p, r| {
            firsts.push(((roots[firsts.len()] + p - r) % p) as usize);
        });
        for j in unstruck(firsts, &SIEVE_PRIMES) {
            let k = k0.add_ref(&BigUint::from(j as u64));
            let two_k = &k << 1;
            let n = two_k.mul_ref(&q.prime).add_ref(&one);
            if n.bit_len() != bits {
                break; // walked past the top of the range; re-randomize
            }
            let ctx = Montgomery::new(&n);
            let pow = |base: &BigUint, exp: &BigUint| match &ctx {
                Some(ctx) => ctx.pow(base, exp),
                None => mod_pow_classic(base, exp, &n), // wider than 2048 bits
            };
            let b = pow(&two, &two_k);
            if b.is_one() || !pow(&b, &q.prime).is_one() || !b.sub_ref(&one).gcd(&n).is_one() {
                continue;
            }
            debug_assert!(
                miller_rabin(&n, rounds, &mut DetRng::seed_from_u64(n.limbs()[0]))
                    == Primality::ProbablyPrime,
                "{n} has a Pocklington proof and fails Miller–Rabin"
            );
            return Certificate {
                prime: n,
                step: Some((k, Box::new(q))),
            };
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
    use gridsec_util::rng::RngCore;

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
    fn chunked_sieve_leaves_what_a_whole_window_sieve_leaves() {
        // Random first strikes, some past a chunk or the window itself;
        // the oracle marks all 4096 offsets at once.
        let mut r = rng();
        for sieve in [&SIEVE_PRIMES[..], &SIEVE_PRIMES[..30], &[]] {
            let firsts: Vec<usize> = sieve
                .iter()
                .map(|&p| (r.next_u64() % (3 * p)) as usize)
                .collect();
            let mut struck = [false; SCAN_WINDOW];
            for (&first, &p) in firsts.iter().zip(sieve) {
                for j in (first..SCAN_WINDOW).step_by(p as usize) {
                    struck[j] = true;
                }
            }
            let want: Vec<usize> = (0..SCAN_WINDOW).filter(|&j| !struck[j]).collect();
            assert_eq!(unstruck(firsts, sieve).collect::<Vec<_>>(), want);
        }
    }

    #[test]
    fn word_inverses_invert_modulo_every_sieve_prime() {
        for &p in &SIEVE_PRIMES {
            for a in 1..p {
                assert_eq!(a * inverse_mod_word(a, p) % p, 1, "{a}^-1 mod {p}");
            }
        }
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
