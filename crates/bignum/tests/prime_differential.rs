//! The prime search against the search it replaced, and known answers.
//!
//! [`reference`] is the pre-sieve `generate_prime` / `is_probably_prime`
//! verbatim: trial division by 60 primes through `div_rem_limb`, then a
//! witness loop that calls `mod_pow` (a fresh Montgomery context) per
//! witness. The sieved search must return the same prime *and* leave
//! the RNG at the same stream position, because every seeded key,
//! certificate and transcript in the workspace hangs off that stream.
//!
//! One line of the oracle follows the kernel: its start draw forces bit
//! `bits - 2` as the search's does, so both scan `[3·2^(bits-2), 2^bits)`.
//! The range itself is asserted here on its own, not through the oracle.

use gridsec_bignum::prime::{generate_prime, is_probably_prime, random_bits, Primality};
use gridsec_bignum::BigUint;
use gridsec_util::rng::{DetRng, RngCore};

/// The search as it stood before the sieve; lives only here.
mod reference {
    use gridsec_bignum::modular::mod_pow;
    use gridsec_bignum::prime::{random_bits, EntropySource, Primality};
    use gridsec_bignum::BigUint;

    const SMALL_PRIMES: [u64; 60] = [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89,
        97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181,
        191, 193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281,
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

    pub fn is_probably_prime<E: EntropySource>(
        n: &BigUint,
        rounds: usize,
        rng: &mut E,
    ) -> Primality {
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
        if n.bit_len() <= 42 {
            return Primality::ProbablyPrime;
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
            candidate.set_bit(bits - 2, true); // the one line that is not the parent's
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
}

fn n(s: &str) -> BigUint {
    BigUint::from_decimal(s).unwrap()
}

/// Run both searches from clones of `rng`; they must find the same
/// prime and have drawn the same number of bytes doing it.
fn assert_same_search<R: RngCore + Clone>(rng: R, bits: usize, rounds: usize, what: &str) {
    let (mut new_rng, mut ref_rng) = (rng.clone(), rng);
    let got = generate_prime(&mut new_rng, bits, rounds);
    let want = reference::generate_prime(&mut ref_rng, bits, rounds);
    assert_eq!(got, want, "{what}: bits={bits} rounds={rounds}");
    assert_eq!(got.bit_len(), bits, "{what}: bits={bits}");
    assert!(
        got.bit(bits - 2),
        "{what}: bits={bits}: {got} < 3·2^(bits-2)"
    );
    assert_eq!(
        new_rng.next_u64(),
        ref_rng.next_u64(),
        "{what}: bits={bits} rounds={rounds}: RNG stream position differs"
    );
}

#[test]
fn sieved_search_finds_the_reference_prime_at_the_same_stream_position() {
    // Small widths put candidates among the sieve primes themselves and
    // inside the 42-bit conclusive range; the rest straddle limb and
    // kernel-width boundaries.
    let widths = (8..=40).chain([63, 64, 65, 128, 255, 256, 257, 512]);
    for bits in widths {
        let seeds = match bits {
            0..=65 => 12,
            66..=257 => 4,
            _ => 2,
        };
        for seed in 0..seeds {
            let rng = DetRng::seed_from_u64(0xD1FF_0000 + ((bits as u64) << 8) + seed);
            assert_same_search(rng, bits, 16, "seeded");
        }
    }
    // `rounds` is honoured, not assumed to be RSA's 16.
    for rounds in [0, 1, 5] {
        assert_same_search(DetRng::seed_from_u64(0xD1FF_5EED), 96, rounds, "rounds");
    }
}

/// Hands out `first` for its first draw, then a seeded stream.
#[derive(Clone)]
struct FirstDraw {
    first: Option<Vec<u8>>,
    rest: DetRng,
}

impl FirstDraw {
    /// The first random start, before any bit is forced, is `value`.
    fn of(value: &BigUint, bits: usize, seed: u64) -> Self {
        FirstDraw {
            first: Some(value.to_bytes_be_padded(bits.div_ceil(8))),
            rest: DetRng::seed_from_u64(seed),
        }
    }
}

impl RngCore for FirstDraw {
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        match self.first.take() {
            Some(first) => dest.copy_from_slice(&first),
            None => self.rest.fill_bytes(dest),
        }
    }
}

#[test]
fn walking_off_the_top_of_the_range_rerandomises_like_the_reference() {
    // An all-ones draw starts at 2^bits - 1, the top of the range, so
    // the scan walks off it after one candidate and must re-randomise.
    // 2^bits - 1 is prime at 13, 17, 19, 31, 61 and 127 (returned at
    // once) and composite at the others (one candidate, then a redraw).
    for bits in [8, 9, 13, 16, 17, 31, 32, 61, 64, 65, 127, 128, 256] {
        let all_ones = (&BigUint::one() << bits) - &BigUint::one();
        for seed in 0..3 {
            let rng = FirstDraw::of(&all_ones, bits, 0x70FF + seed);
            assert_same_search(rng, bits, 16, "top of range");
        }
    }
}

#[test]
fn a_first_draw_with_the_second_bit_clear_or_set_starts_inside_the_range() {
    for bits in [8, 9, 16, 33, 64, 65, 128, 256] {
        let bottom = &BigUint::from(3u64) << (bits - 2);
        // (draw, the even number its forced start is one more than).
        // Bit `bits - 2` clear: the all-zero draw, and 2^(bits-3), which
        // stays on under the two forced bits. Bit `bits - 2` set:
        // 2^(bits-2) alone, which the top bit completes to the bottom.
        let draws = [
            (BigUint::zero(), bottom.clone()),
            (
                &BigUint::one() << (bits - 3),
                &bottom + &(&BigUint::one() << (bits - 3)),
            ),
            (&BigUint::one() << (bits - 2), bottom.clone()),
        ];
        for (draw, floor) in draws {
            let mut rng = FirstDraw::of(&draw, bits, 0xB172);
            assert_same_search(rng.clone(), bits, 16, "second bit");
            // The scan only climbs, and none of these starts is within
            // a window of the top: the prime sits above its start.
            let got = generate_prime(&mut rng, bits, 16);
            assert!(got > floor, "bits={bits}: {got} below its start");
        }
    }
}

#[test]
fn the_smallest_widths_search_like_the_reference_and_stay_in_range() {
    // [192, 256) and [384, 512): the sieve primes that count as below
    // the range stop at 127 and 251, just under it.
    for bits in [8, 9] {
        for seed in 0..64 {
            let rng = DetRng::seed_from_u64(0x5A11 + ((bits as u64) << 8) + seed);
            assert_same_search(rng, bits, 16, "smallest widths");
        }
    }
}

#[test]
fn ten_thousand_seeded_primes_have_their_top_two_bits_set() {
    let mut rng = DetRng::seed_from_u64(0x7072);
    for i in 0..10_000 {
        let bits = 16 + i % 49; // 16..=64
        let p = generate_prime(&mut rng, bits, 16);
        assert!(
            p.bit_len() == bits && p.bit(bits - 2) && p.is_odd(),
            "bits={bits}: {p} outside [3·2^(bits-2), 2^bits)"
        );
    }
}

#[test]
fn primality_verdicts_match_the_reference_on_seeded_odd_numbers() {
    let mut draw = DetRng::seed_from_u64(0x0DD5);
    let (mut new_rng, mut ref_rng) = (DetRng::seed_from_u64(1), DetRng::seed_from_u64(1));
    let mut primes = 0;
    for i in 0..10_000 {
        let mut x = random_bits(&mut draw, 64 + i % 193);
        x.set_bit(0, true);
        let got = is_probably_prime(&x, 16, &mut new_rng);
        assert_eq!(
            got,
            reference::is_probably_prime(&x, 16, &mut ref_rng),
            "{x}"
        );
        primes += (got == Primality::ProbablyPrime) as usize;
    }
    assert!(
        primes > 50,
        "only {primes} primes: the sample gates nothing"
    );
    assert_eq!(new_rng.next_u64(), ref_rng.next_u64());
}

#[test]
fn primality_verdicts_match_the_reference_below_two_to_the_16() {
    let mut rng = DetRng::seed_from_u64(2);
    let mut primes = 0;
    for v in (1u64..1 << 16).step_by(2).chain([0, 2]) {
        let x = BigUint::from(v);
        let got = is_probably_prime(&x, 16, &mut rng);
        assert_eq!(got, reference::is_probably_prime(&x, 16, &mut rng), "{v}");
        primes += (got == Primality::ProbablyPrime) as usize;
    }
    assert_eq!(primes, 6542, "pi(2^16)");
}

#[test]
fn strong_pseudoprime_to_every_fixed_base_falls_to_the_random_rounds() {
    // The least strong pseudoprime to the first 13 prime bases
    // (Sorenson & Webster): 1287836182261 * 2575672364521. The fixed
    // witnesses pass it — with no random rounds it reads as prime —
    // so this is the one test that fails if those rounds stop running.
    let psi13 = n("3317044064679887385961981");
    assert_eq!(n("1287836182261").mul_ref(&n("2575672364521")), psi13);
    let mut rng = DetRng::seed_from_u64(0);
    assert_eq!(
        is_probably_prime(&psi13, 0, &mut rng),
        Primality::ProbablyPrime
    );
    for seed in 0..50 {
        let mut rng = DetRng::seed_from_u64(seed);
        assert_eq!(
            is_probably_prime(&psi13, 16, &mut rng),
            Primality::Composite,
            "seed {seed}"
        );
    }
}

#[test]
fn carmichael_numbers_are_composite() {
    let mut rng = DetRng::seed_from_u64(3);
    for c in [561u64, 41_041, 825_265, 321_197_185] {
        assert_eq!(
            is_probably_prime(&BigUint::from(c), 16, &mut rng),
            Primality::Composite,
            "{c}"
        );
    }
}

#[test]
fn mersenne_primes_are_prime() {
    let mut rng = DetRng::seed_from_u64(4);
    for e in [127usize, 521] {
        let m = (&BigUint::one() << e) - &BigUint::one();
        assert_eq!(
            is_probably_prime(&m, 16, &mut rng),
            Primality::ProbablyPrime,
            "2^{e} - 1"
        );
    }
}
