//! The prime search against the search it replaced, and known answers.
//!
//! [`reference`] is the pre-sieve `generate_prime` / `is_probably_prime`
//! verbatim: trial division by 60 primes through `div_rem_limb`, then a
//! witness loop that calls `mod_pow` (a fresh Montgomery context) per
//! witness. `is_probably_prime` must agree with it everywhere, verdict
//! and stream position. `generate_prime` must agree with it — same
//! prime, same stream position — up to 81 bits, where the incremental
//! search is still the generator (its base case); above, a prime is
//! constructed (`provable_primes.rs`), and what still holds against the
//! oracle is that it calls the result prime and that it is in range.
//!
//! Two lines of the oracle follow the kernel: its start draw forces bit
//! `bits - 2` as the search's does, so both scan `[3·2^(bits-2), 2^bits)`,
//! and its fixed bases are conclusive up to 81 bits (`2^81 < ψ₁₃`), not
//! 42. The range itself is asserted here on its own, not through the
//! oracle.

use gridsec_bignum::prime::{generate_prime, is_probably_prime, random_bits, Primality};
use gridsec_bignum::BigUint;
use gridsec_util::rng::{DetRng, RngCore};

mod reference;

fn n(s: &str) -> BigUint {
    BigUint::from_decimal(s).unwrap()
}

/// The widest request the incremental search still serves.
const SEARCHED_BITS: usize = 81;

/// Up to [`SEARCHED_BITS`], run both searches from clones of `rng`: they
/// must find the same prime and have drawn the same number of bytes
/// doing it. Above, the prime is constructed: the oracle must call it
/// prime. Either way it is in range. Returns the prime.
fn assert_same_search<R: RngCore + Clone>(
    rng: R,
    bits: usize,
    rounds: usize,
    what: &str,
) -> BigUint {
    let (mut new_rng, mut ref_rng) = (rng.clone(), rng);
    let got = generate_prime(&mut new_rng, bits, rounds);
    if bits <= SEARCHED_BITS {
        let want = reference::generate_prime(&mut ref_rng, bits, rounds);
        assert_eq!(got, want, "{what}: bits={bits} rounds={rounds}");
        assert_eq!(
            new_rng.next_u64(),
            ref_rng.next_u64(),
            "{what}: bits={bits} rounds={rounds}: RNG stream position differs"
        );
    } else {
        assert_eq!(
            reference::is_probably_prime(&got, 16, &mut ref_rng),
            Primality::ProbablyPrime,
            "{what}: bits={bits}: {got}"
        );
    }
    assert_eq!(got.bit_len(), bits, "{what}: bits={bits}");
    assert!(
        got.bit(bits - 2),
        "{what}: bits={bits}: {got} < 3·2^(bits-2)"
    );
    got
}

#[test]
fn sieved_search_finds_the_reference_prime_at_the_same_stream_position() {
    // Small widths put candidates among the sieve primes themselves;
    // the rest straddle limb boundaries, the 81-bit end of the search
    // and, above it, kernel widths.
    let widths = (8..=40).chain([63, 64, 65, 80, 81, 82, 128, 255, 256, 257, 512]);
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
    // `rounds` draws nothing on either side of the boundary: the fixed
    // bases are a proof below it, the cross-check has its own stream
    // above it.
    for bits in [72, 96] {
        let primes = [0, 1, 5].map(|rounds| {
            assert_same_search(DetRng::seed_from_u64(0xD1FF_5EED), bits, rounds, "rounds")
        });
        assert!(primes[0] == primes[1] && primes[1] == primes[2], "{bits}");
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
            // A narrower first draw (the prime underneath a constructed
            // one) gets the low bytes.
            Some(first) => dest.copy_from_slice(&first[first.len() - dest.len()..]),
            None => self.rest.fill_bytes(dest),
        }
    }
}

#[test]
fn walking_off_the_top_of_the_range_rerandomises_like_the_reference() {
    // An all-ones draw starts at 2^bits - 1, the top of the range, so
    // the scan walks off it after one candidate and must re-randomise.
    // 2^bits - 1 is prime at 13, 17, 19, 31 and 61 (returned at once)
    // and composite at the others (one candidate, then a redraw). At
    // 127, 128 and 256 bits the draw's low eight bytes start the search
    // for the 63- or 64-bit prime the construction rests on, at the top
    // of its range; a constructed level walking off the top of *its*
    // range is in `provable_primes.rs`.
    for bits in [8, 9, 13, 16, 17, 31, 32, 61, 64, 65, 80, 81, 127, 128, 256] {
        let all_ones = (&BigUint::one() << bits) - &BigUint::one();
        for seed in 0..3 {
            let rng = FirstDraw::of(&all_ones, bits, 0x70FF + seed);
            assert_same_search(rng, bits, 16, "top of range");
        }
    }
}

#[test]
fn a_first_draw_with_the_second_bit_clear_or_set_starts_inside_the_range() {
    // Widths the search serves itself: above 81 bits the first draw
    // belongs to the prime underneath a constructed one.
    for bits in [8, 9, 16, 33, 64, 65, 72, 81] {
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
            let rng = FirstDraw::of(&draw, bits, 0xB172);
            let got = assert_same_search(rng, bits, 16, "second bit");
            // The scan only climbs, and none of these starts is within
            // a window of the top: the prime sits above its start.
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
