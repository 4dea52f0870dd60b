//! The proof obligations of a constructed prime.
//!
//! Above 81 bits `generate_prime` does not search and confirm, it builds
//! `N = 2kq + 1` on a proven prime `q` with `(2q + 1)² > N` and returns
//! the Pocklington certificate. Here every certificate the generator
//! hands out must verify, every forged one must not, and [`facts`] —
//! the conditions of the theorem, each computed on its own through the
//! Montgomery kernel, where `Certificate::verify` uses the classic one —
//! says which condition a forgery breaks.

use gridsec_bignum::modular::mod_pow;
use gridsec_bignum::prime::{generate_certified_prime, generate_prime, Certificate, Primality};
use gridsec_bignum::BigUint;
use gridsec_util::rng::{DetRng, RngCore};

mod reference;

fn n(v: u64) -> BigUint {
    BigUint::from(v)
}

fn leaf(prime: BigUint) -> Certificate {
    Certificate { prime, step: None }
}

fn step(prime: BigUint, k: BigUint, q: Certificate) -> Certificate {
    Certificate {
        prime,
        step: Some((k, Box::new(q))),
    }
}

/// The claims of the top step of `cert`, one by one: `q` is certified;
/// `N = 2kq + 1`; `(2q + 1)² > N`; `b^q ≡ 1 (mod N)` for `b = 2^(2k)`;
/// `gcd(b − 1, N) = 1` (which `b = 1` fails).
fn facts(cert: &Certificate) -> [bool; 5] {
    let (one, big_n) = (BigUint::one(), &cert.prime);
    let (k, q) = cert.step.as_ref().expect("a step, not a leaf");
    let two_k = k << 1;
    let b = mod_pow(&n(2), &two_k, big_n);
    [
        q.verify(),
        *big_n == two_k.mul_ref(&q.prime).add_ref(&one),
        (&q.prime << 1).add_ref(&one).square() > *big_n,
        mod_pow(&b, &q.prime, big_n).is_one(),
        b.sub_ref(&one).gcd(big_n).is_one(),
    ]
}

/// `cert` is refused, and for exactly the one reason `defect` indexes.
fn assert_refused_for(cert: &Certificate, defect: usize, what: &str) {
    let mut want = [true; 5];
    want[defect] = false;
    assert_eq!(facts(cert), want, "{what}: {cert:?}");
    assert!(!cert.verify(), "{what}: accepted {cert:?}");
}

/// A genuine certificate of `bits` bits whose `k` has an odd prime
/// factor below 100, with that factor.
fn certificate_with_small_factor_in_k(bits: usize, seeds: u64) -> (Certificate, u64) {
    (seeds..)
        .find_map(|seed| {
            let cert = generate_certified_prime(&mut DetRng::seed_from_u64(seed), bits, 16);
            let (k, _) = cert.step.as_ref().unwrap();
            // The least such divisor is prime.
            let r = (3..100u64).step_by(2).find(|&r| k.rem_limb(r) == 0)?;
            Some((cert, r))
        })
        .unwrap()
}

/// Everything a caller and a verifier may assume of `cert`, asked for at
/// `bits` bits.
fn assert_proven(cert: &Certificate, bits: usize, what: &str) {
    let p = &cert.prime;
    assert!(cert.verify(), "{what}: {cert:?} does not verify");
    assert!(
        p.bit_len() == bits && p.bit(bits - 2) && p.is_odd(),
        "{what}: {p} outside [3·2^(bits-2), 2^bits)"
    );
    assert_eq!(
        reference::is_probably_prime(p, 16, &mut DetRng::seed_from_u64(bits as u64)),
        Primality::ProbablyPrime,
        "{what}: {p}"
    );
    // The chain halves down to a leaf the fixed bases decide.
    let (mut level, mut width) = (cert, bits);
    while let Some((_, q)) = &level.step {
        assert_eq!(facts(level), [true; 5], "{what}: {level:?}");
        (level, width) = (&**q, width / 2);
        assert_eq!(level.prime.bit_len(), width, "{what}");
    }
    assert!(width <= 81 && (bits <= 81 || width > 40), "{what}: {width}");
}

#[test]
fn every_seeded_certificate_verifies_and_the_oracle_agrees() {
    // Either side of the 81-bit base case, of the two-, four- and
    // eight-limb kernels, and odd widths, whose halves round down.
    let mut made = 0;
    for (widths, seeds) in [
        (82..=83, 450),
        (127..=130, 200),
        (255..=257, 100),
        (511..=513, 30),
        (1024..=1024, 4),
    ] {
        for bits in widths {
            for seed in 0..seeds {
                let what = format!("bits={bits} seed={seed}");
                let mut rng = DetRng::seed_from_u64(0xC0DE_0000 + ((bits as u64) << 12) + seed);
                let mut again = rng.clone();
                let cert = generate_certified_prime(&mut rng, bits, 16);
                assert_proven(&cert, bits, &what);
                // `generate_prime` is the same call with the proof dropped.
                assert_eq!(generate_prime(&mut again, bits, 16), cert.prime, "{what}");
                assert_eq!(rng.next_u64(), again.next_u64(), "{what}");
                made += 1;
            }
        }
    }
    assert!(made >= 2000, "{made}");
}

#[test]
fn the_base_case_certifies_with_a_bare_leaf() {
    for bits in [8, 9, 16, 41, 42, 64, 80, 81] {
        for seed in 0..20 {
            let cert = generate_certified_prime(&mut DetRng::seed_from_u64(seed), bits, 16);
            assert!(cert.step.is_none(), "bits={bits}");
            assert_proven(&cert, bits, &format!("bits={bits} seed={seed}"));
        }
    }
}

#[test]
fn rounds_never_touches_the_callers_stream() {
    // The debug cross-check draws its bases from a generator seeded by
    // the prime; the caller's stream cannot tell 0 rounds from 40.
    for bits in [64, 96, 256] {
        let outcomes = [0, 16, 40].map(|rounds| {
            let mut rng = DetRng::seed_from_u64(0x0DD + bits as u64);
            (generate_prime(&mut rng, bits, rounds), rng.next_u64())
        });
        assert!(outcomes[0] == outcomes[1] && outcomes[1] == outcomes[2]);
    }
}

#[test]
fn debug_and_release_builds_mint_the_same_primes() {
    // One literal for both profiles (`scripts/verify.sh` runs this file
    // under `--release` too): the low limb of each prime folded with
    // the stream's next output.
    let mut fold = 0u64;
    for (bits, seed) in [(82, 1), (128, 2), (255, 3), (256, 4), (257, 5), (512, 6)] {
        let mut rng = DetRng::seed_from_u64(seed);
        let p = generate_prime(&mut rng, bits, 16);
        fold = fold.rotate_left(7) ^ p.limbs()[0] ^ rng.next_u64();
    }
    assert_eq!(
        fold, 0x29e5_ce0c_5f70_5890,
        "this build's fold is {fold:#018x}"
    );
}

#[test]
fn the_top_byte_of_a_constructed_prime_takes_every_value_it_may() {
    // k₀ is uniform over its range, so N covers [3/4·2^bits, 2^bits).
    let mut seen = [0u32; 256];
    let mut rng = DetRng::seed_from_u64(0x4157);
    for _ in 0..1500 {
        let p = generate_prime(&mut rng, 88, 16);
        seen[(&p >> 80).to_u64().unwrap() as usize] += 1;
    }
    for (top, &count) in seen.iter().enumerate() {
        assert_eq!(count > 0, top >= 0xC0, "top byte {top:#04x}: {count}");
    }
}

/// The caller's stream, except that draw number `at` (from 0) is `bytes`.
struct OneDrawForced {
    stream: DetRng,
    at: usize,
    bytes: Vec<u8>,
}

impl RngCore for OneDrawForced {
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.stream.fill_bytes(dest); // consumed either way
        if self.at == 0 {
            dest.copy_from_slice(&self.bytes);
        }
        self.at = self.at.wrapping_sub(1);
    }
}

/// Counts the draws made on a stream.
struct Counting(DetRng, usize);

impl RngCore for Counting {
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.1 += 1;
        self.0.fill_bytes(dest);
    }
}

#[test]
fn a_walk_from_the_top_of_the_k_range_rerandomises() {
    for bits in [82, 128, 256] {
        for seed in 0..4 {
            // The draws that make q, then the range k₀ is drawn from.
            let mut counting = Counting(DetRng::seed_from_u64(seed), 0);
            let q = generate_prime(&mut counting, bits / 2, 16);
            let k_max = (&(&BigUint::one() << (bits - 1)) - &BigUint::one())
                .div_rem(&q)
                .0;
            let k_min = &(&(&n(3) << (bits - 3)) - &BigUint::one()).div_rem(&q).0 + &BigUint::one();
            // Force k₀ = k_max: at most one candidate is in range.
            let k_count = &(&k_max - &k_min) + &BigUint::one();
            let mut rng = OneDrawForced {
                stream: DetRng::seed_from_u64(seed),
                at: counting.1,
                bytes: (&k_count - &BigUint::one())
                    .to_bytes_be_padded(k_count.bit_len().div_ceil(8)),
            };
            let cert = generate_certified_prime(&mut rng, bits, 16);
            assert_proven(
                &cert,
                bits,
                &format!("top of k range, bits={bits} seed={seed}"),
            );
            let (k, q_cert) = cert.step.as_ref().unwrap();
            assert_eq!(q_cert.prime, q, "bits={bits} seed={seed}");
            assert!(k_min <= *k && *k <= k_max, "bits={bits} seed={seed}: k={k}");
        }
    }
}

#[test]
fn a_composite_q_is_refused() {
    // A genuine N = 2kq + 1 with r | k, retold as N = 2(k/r)(qr) + 1:
    // N is prime, so every condition on N holds — only "q" is not prime.
    let (cert, r) = certificate_with_small_factor_in_k(100, 0);
    let (k, q) = cert.step.as_ref().unwrap();
    let forged = step(
        cert.prime.clone(),
        k.div_rem_limb(r).0,
        leaf(q.prime.mul_ref(&n(r))),
    );
    assert_refused_for(&forged, 0, "composite q");
}

#[test]
fn a_q_too_small_for_its_n_is_refused() {
    // The same N on the small prime factor r of k: N = 2(kq/r)r + 1,
    // true in every line but (2r + 1)² > N. Needs 2 not to be an r-th
    // power residue, which the first seed that passes `facts` has.
    let forged = (0..)
        .map(|seeds| {
            let (cert, r) = certificate_with_small_factor_in_k(100, seeds * 1000);
            let (k, q) = cert.step.as_ref().unwrap();
            let k = k.mul_ref(&q.prime).div_rem_limb(r).0;
            step(cert.prime, k, leaf(n(r)))
        })
        .find(|forged| facts(forged)[4])
        .unwrap();
    assert_refused_for(&forged, 2, "q below the bound");
    // At the bound exactly: the least composite whose every prime factor
    // is 1 mod 2q is (2q + 1)² when 2q + 1 is prime. 121 = 2·12·5 + 1.
    let square = step(n(121), n(12), leaf(n(5)));
    assert!(!facts(&square)[2] && !square.verify());
    // 5 = 2·1·2 + 1 passes every line, but order 2 only says p is odd.
    let on_two = step(n(5), n(1), leaf(n(2)));
    assert!(facts(&on_two) == [true; 5] && !on_two.verify());
}

#[test]
fn an_n_that_is_not_two_k_q_plus_one_is_refused() {
    // k + (N − 1)/2 in place of k: 2^(2k) and its q-th power are what
    // they were, since 2^(N−1) = 1, but the shape is gone.
    let cert = generate_certified_prime(&mut DetRng::seed_from_u64(7), 100, 16);
    let (k, q) = cert.step.as_ref().unwrap();
    let wrong_k = k + &(&cert.prime >> 1);
    let forged = step(cert.prime.clone(), wrong_k, (**q).clone());
    assert_refused_for(&forged, 1, "wrong shape");
    // The plain lies: a neighbour of N, a neighbour of k.
    let two = n(2);
    assert!(!step(&cert.prime + &two, k.clone(), (**q).clone()).verify());
    assert!(!step(cert.prime.clone(), k + &BigUint::one(), (**q).clone()).verify());
    assert!(!step(cert.prime.clone(), BigUint::zero(), (**q).clone()).verify());
    assert!(!step(BigUint::one(), BigUint::zero(), (**q).clone()).verify());
}

#[test]
fn a_witness_of_order_one_is_refused() {
    // 31 = 2·5·3 + 1 and 2 has order 5 modulo 31, so b = 2^10 = 1:
    // b^q = 1 says nothing. 31 = 2·3·5 + 1 is the honest certificate.
    assert_refused_for(&step(n(31), n(5), leaf(n(3))), 4, "b = 1");
    assert!(step(n(31), n(3), leaf(n(5))).verify());
}

#[test]
fn a_product_of_two_primes_that_are_one_mod_q_is_refused() {
    // p₁ = 2k₁q + 1 and p₂ = 2k₂q + 1 from one q: N = p₁p₂ is
    // 2(k₁ + k₂ + 2k₁k₂q)q + 1, the right shape on a proven q, and the
    // composite Pocklington's size condition exists for.
    let q = generate_certified_prime(&mut DetRng::seed_from_u64(11), 50, 16);
    let primes = (1u64..).filter_map(|k| {
        let p = (&n(2 * k) * &q.prime).add_ref(&BigUint::one());
        let prime = reference::is_probably_prime(&p, 16, &mut DetRng::seed_from_u64(k));
        (prime == Primality::ProbablyPrime).then_some((n(k), p))
    });
    let [(k1, p1), (k2, p2)] = primes.take(2).collect::<Vec<_>>().try_into().unwrap();
    let k = &(&k1 + &k2) + &(&(&n(2) * &k1) * &(&k2 * &q.prime));
    let forged = step(&p1 * &p2, k, q);
    let [q_proven, shape, size, ..] = facts(&forged);
    assert!(q_proven && shape && !size, "{forged:?}");
    assert!(!forged.verify());
}

#[test]
fn a_leaf_the_fixed_bases_do_not_decide_is_refused() {
    // Wider than 81 bits, prime or not: a leaf proves nothing there.
    let p90 = generate_prime(&mut DetRng::seed_from_u64(90), 90, 16);
    assert!(!leaf(p90.clone()).verify());
    assert!(!step(&(&n(2) * &p90) + &BigUint::one(), n(1), leaf(p90)).verify());
    // ψ₁₃ itself, 82 bits: the least composite all 13 bases pass.
    let psi13 = BigUint::from_decimal("3317044064679887385961981").unwrap();
    assert!(!leaf(psi13).verify());
    // Strong pseudoprimes to base 2, and to bases 2, 3, 5 and 7.
    for composite in [2047, 3_215_031_751] {
        assert!(!leaf(n(composite)).verify(), "{composite}");
    }
    for not_prime in [0, 1, 4, 9, 15, 25, 27, 35, 39, 49, 561, 1 << 40] {
        assert!(!leaf(n(not_prime)).verify(), "{not_prime}");
    }
    for prime in [2, 3, 5, 7, 11, 13, 37, 41, 43, 2039, 2053, (1 << 61) - 1] {
        assert!(leaf(n(prime)).verify(), "{prime}");
    }
}
