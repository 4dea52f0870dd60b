//! The Montgomery kernel at the edges of its widths and of its
//! exponent scan, against the division-per-step reference.
//!
//! Moduli sit on both sides of every kernel width ({1, 2, 4, 8, 16, 32}
//! limbs, narrower ones zero-padded up); bases include the ones whose
//! Montgomery form is degenerate; exponents include the shapes the
//! limb-read window scan has to get right — a top window of one bit,
//! windows straddling a limb boundary, limbs of all ones or all zeros
//! in the middle.

use gridsec_bignum::modular::mod_pow_classic;
use gridsec_bignum::montgomery::Montgomery;
use gridsec_bignum::precomp::FixedBaseTable;
use gridsec_bignum::prime::random_bits;
use gridsec_bignum::BigUint;
use gridsec_util::rng::DetRng;

const LIMB_COUNTS: [usize; 10] = [1, 2, 3, 4, 5, 8, 9, 16, 17, 32];

fn big(v: u64) -> BigUint {
    BigUint::from(v)
}

fn pow2(k: usize) -> BigUint {
    &BigUint::one() << k
}

/// Odd moduli of exactly `limbs` limbs: the largest, the smallest, and
/// a seeded one.
fn moduli(rng: &mut DetRng, limbs: usize) -> Vec<BigUint> {
    let mut seeded = random_bits(rng, 64 * limbs - 7);
    seeded.set_bit(0, true);
    let smallest = if limbs == 1 {
        big(5)
    } else {
        pow2(64 * (limbs - 1)) + big(1)
    };
    vec![pow2(64 * limbs) - big(1), smallest, seeded]
}

fn bases(rng: &mut DetRng, n: &BigUint) -> Vec<BigUint> {
    let limbs = n.limbs().len();
    vec![
        big(1),
        big(2),
        n - &big(1),
        // R mod n for the kernel's R = 2^(64K): Montgomery form of 1.
        &pow2(64 * limbs.next_power_of_two()) % n,
        &pow2(64 * limbs) % n,
        // Seeded, in [1, n - 1].
        (&random_bits(rng, 64 * limbs) % &(n - &big(1))) + big(1),
    ]
}

fn exponents(rng: &mut DetRng, n: &BigUint) -> Vec<BigUint> {
    let ones = BigUint::from_limbs;
    vec![
        big(1),
        big(2),
        big(3),
        big(65_537),
        pow2(64),
        n - &big(1),
        n - &big(2),
        // Top window is a single bit: on a limb boundary, just above
        // one, and with a long run of zeros beneath.
        pow2(64) + big(1),
        pow2(127),
        pow2(128) + big(5),
        pow2(200) + pow2(3),
        // Limbs of all ones / all zeros in the middle.
        ones(vec![u64::MAX; 3]),
        ones(vec![0x9e37_79b9, 0, u64::MAX, 1]),
        ones(vec![u64::MAX, 0, 0, u64::MAX, 0, 0x8000_0000_0000_0000]),
        // Windows that straddle limb boundaries at every alignment.
        ones(vec![0xf000_0000_0000_0000, 0xf, 0x7000_0000_0000_0000, 0x3]),
        random_bits(rng, 97),
        random_bits(rng, 385),
    ]
}

#[test]
fn pow_matches_classic_at_every_kernel_width() {
    let mut rng = DetRng::seed_from_u64(0xB0DE);
    for limbs in LIMB_COUNTS {
        for n in moduli(&mut rng, limbs) {
            let ctx = Montgomery::new(&n).expect("odd modulus within 2048 bits");
            let exps = exponents(&mut rng, &n);
            for base in bases(&mut rng, &n) {
                for exp in &exps {
                    assert_eq!(
                        ctx.pow(&base, exp),
                        mod_pow_classic(&base, exp, &n),
                        "limbs={limbs} n={n} base={base} exp={exp}"
                    );
                }
            }
        }
    }
}

#[test]
fn fixed_base_table_matches_classic_at_every_kernel_width() {
    let mut rng = DetRng::seed_from_u64(0xF1BA);
    for limbs in LIMB_COUNTS {
        for n in moduli(&mut rng, limbs) {
            let max_exp_bits = 64 * limbs;
            let exps = exponents(&mut rng, &n);
            for base in bases(&mut rng, &n) {
                let table = FixedBaseTable::build(&base, &n, max_exp_bits)
                    .expect("non-zero base under an odd modulus");
                for exp in &exps {
                    let got = table.pow(exp);
                    if exp.bit_len() > max_exp_bits {
                        assert_eq!(got, None, "limbs={limbs} exp={exp}");
                    } else {
                        assert_eq!(
                            got,
                            Some(mod_pow_classic(&base, exp, &n)),
                            "limbs={limbs} n={n} base={base} exp={exp}"
                        );
                    }
                }
            }
        }
    }
}
