//! Differential property tests for the Montgomery kernel and the
//! fixed-base tables built on it.
//!
//! The const-generic kernel runs every modulus zero-padded to 1, 2, 4,
//! 8, 16 or 32 limbs, so what it computes — through
//! `Montgomery::pow`, through `mod_pow`, and through a
//! `FixedBaseTable` — must be byte-identical to the division-per-step
//! reference kernel `mod_pow_classic` at every limb count, on the
//! modulus shapes padding could get wrong (all-ones top limb, low limb
//! 1), on bases at or above the modulus, on exponents `0`, `1`, `2^k`
//! and random widths from 1 bit to 2048 bits, and on the moduli the
//! kernel refuses (even, wider than 32 limbs). Each test seeds its own
//! operands through the `check` harness, so failures replay.

use gridsec_bignum::fixed::{biguint_to_limbs, limbs_to_biguint};
use gridsec_bignum::modular::{mod_pow, mod_pow_classic};
use gridsec_bignum::montgomery::Montgomery;
use gridsec_bignum::precomp::FixedBaseTable;
use gridsec_bignum::BigUint;
use gridsec_util::check::{check, Gen};

const CASES: u64 = 96;

/// Widest modulus, in limbs, the kernel takes.
const MAX_LIMBS: usize = 32;

/// Random value with exactly `bits` significant bits (`bits >= 1`).
fn with_bits(g: &mut Gen, bits: usize) -> BigUint {
    let top = &BigUint::one() << (bits - 1);
    let r = BigUint::from_bytes_be(&g.bytes(0..bits / 8 + 2));
    top.add_ref(&r.rem_ref(&top))
}

/// Random odd modulus occupying exactly `limbs` 64-bit limbs, in one of
/// the shapes that stress padding and carries: plain random, top limb
/// all ones, low limb exactly 1.
fn odd_modulus_with_limbs(g: &mut Gen, limbs: usize) -> BigUint {
    let mut bytes = g.bytes(8 * limbs..8 * limbs + 1);
    bytes[0] |= 0x80; // full limb count
    let last = bytes.len() - 1;
    bytes[last] |= 1; // odd
    match g.usize_in(0..3) {
        0 => {}
        1 => bytes[..8].fill(0xFF),
        _ => {
            bytes[last - 7..last].fill(0);
            bytes[last] = 1;
        }
    }
    let m = BigUint::from_bytes_be(&bytes);
    if m.is_one() {
        BigUint::from(u64::MAX) // one limb, low limb 1: no such modulus > 1
    } else {
        m
    }
}

/// Random base mixing the interesting shapes: 0, 1, below the modulus,
/// and at-or-above the modulus (exercising the entry reduction).
fn base_for(g: &mut Gen, m: &BigUint) -> BigUint {
    match g.usize_in(0..6) {
        0 => BigUint::zero(),
        1 => BigUint::one(),
        2 => m.clone(),
        3 => m.add_ref(&BigUint::from_bytes_be(&g.bytes(1..9))),
        _ => BigUint::from_bytes_be(&g.bytes(0..m.to_bytes_be().len() + 1)),
    }
}

/// Exponent widths that cross every dispatch boundary: the `u64`
/// short-exponent path, each sliding-window size, and 2048 bits.
const EXP_BITS: &[usize] = &[1, 2, 17, 63, 64, 65, 96, 97, 256, 384, 385, 1024, 2048];

#[test]
fn fixed_limb_kernel_matches_classic() {
    check("fixed_limb_kernel_matches_classic", CASES, |g| {
        let limbs = g.usize_in(1..MAX_LIMBS + 1);
        let m = odd_modulus_with_limbs(g, limbs);
        let ctx = Montgomery::new(&m).expect("odd modulus > 1 within 32 limbs");
        let base = base_for(g, &m);
        let bits = EXP_BITS[g.usize_in(0..EXP_BITS.len())];
        let pow2 = &BigUint::one() << g.usize_in(1..bits + 1);
        for exp in [with_bits(g, bits), pow2, BigUint::zero(), BigUint::one()] {
            let want = mod_pow_classic(&base, &exp, &m);
            assert_eq!(ctx.pow(&base, &exp), want, "ctx m={m} b={base} e={exp}");
            assert_eq!(mod_pow(&base, &exp, &m), want, "fn m={m} b={base} e={exp}");
        }
    });
}

#[test]
fn every_limb_count_1_to_33_matches_classic() {
    check("every_limb_count_1_to_33_matches_classic", CASES, |g| {
        // 33 limbs is one past the widest kernel: no context, and
        // `mod_pow` must agree through its fallback.
        for limbs in 1..=MAX_LIMBS + 1 {
            let m = odd_modulus_with_limbs(g, limbs);
            assert_eq!(Montgomery::new(&m).is_some(), limbs <= MAX_LIMBS);
            let base = base_for(g, &m);
            let bits = g.usize_in(1..257);
            let exp = match g.usize_in(0..4) {
                0 => BigUint::zero(),
                1 => BigUint::one(),
                2 => &BigUint::one() << bits,
                _ => with_bits(g, bits),
            };
            assert_eq!(
                mod_pow(&base, &exp, &m),
                mod_pow_classic(&base, &exp, &m),
                "limbs={limbs} m={m} b={base} e={exp}"
            );
        }
    });
}

#[test]
fn fixed_limb_kernel_other_widths_fall_back() {
    check("fixed_limb_kernel_other_widths_fall_back", CASES, |g| {
        // Wider than the widest kernel, or even at any width: no
        // context, and `mod_pow` is the classic kernel.
        let m = if g.bool() {
            let limbs = g.usize_in(MAX_LIMBS + 1..MAX_LIMBS + 8);
            odd_modulus_with_limbs(g, limbs)
        } else {
            let limbs = g.usize_in(1..MAX_LIMBS + 1);
            odd_modulus_with_limbs(g, limbs).add_ref(&BigUint::one())
        };
        assert!(Montgomery::new(&m).is_none(), "m={m}");
        let base = base_for(g, &m);
        let bits = g.usize_in(1..200);
        let exp = with_bits(g, bits);
        assert_eq!(mod_pow(&base, &exp, &m), mod_pow_classic(&base, &exp, &m));
    });
}

#[test]
fn limb_conversion_round_trips() {
    check("limb_conversion_round_trips", CASES, |g| {
        let x = BigUint::from_bytes_be(&g.bytes(0..64));
        if x.limbs().len() <= 8 {
            let arr = biguint_to_limbs::<8>(&x).expect("fits 8 limbs");
            assert_eq!(limbs_to_biguint(&arr), x);
        } else {
            assert!(biguint_to_limbs::<8>(&x).is_none());
        }
    });
}

#[test]
fn fixed_base_table_matches_classic() {
    check("fixed_base_table_matches_classic", CASES, |g| {
        // Random width up to 33 limbs; force odd and non-trivial.
        let mut m = BigUint::from_bytes_be(&g.bytes(1..8 * (MAX_LIMBS + 1) + 1));
        if m.is_even() {
            m = m.add_ref(&BigUint::one());
        }
        if m.is_one() {
            m = BigUint::from(97u64);
        }
        let base = base_for(g, &m);
        let max_bits = g.usize_in(1..512);
        match FixedBaseTable::build(&base, &m, max_bits) {
            None => assert!(
                base.rem_ref(&m).is_zero() || m.limbs().len() > MAX_LIMBS,
                "build only refuses base ≡ 0 or an over-wide modulus here (m={m} base={base})"
            ),
            Some(t) => {
                let bits = g.usize_in(1..max_bits + 1);
                let random = with_bits(g, bits);
                for exp in [random, BigUint::zero()] {
                    assert_eq!(
                        t.pow(&exp).expect("exponent within table width"),
                        mod_pow_classic(&base, &exp, &m),
                        "m={m} base={base} e={exp}"
                    );
                }
                // One bit past the table width: refuse, never wrap.
                assert!(t.pow(&(&BigUint::one() << max_bits)).is_none());
            }
        }
    });
}

#[test]
fn exponent_width_sweep_1_to_2048_bits() {
    // Deterministic sweep across every width class on one hot modulus,
    // every way in at once: `mod_pow`, a held context, a fixed-base
    // table, against the classic reference.
    let m = BigUint::from_hex("f3a5c1d9e7b38f214a6d5c8e9f0b1a2c3d4e5f60718293a4b5c6d7e8f9012347")
        .unwrap(); // 256 bits, odd -> 4 limbs
    let gen = BigUint::from(2u64);
    let table = FixedBaseTable::build(&gen, &m, 2048).unwrap();
    let ctx = Montgomery::new(&m).unwrap();
    for bits in [1usize, 2, 3, 17, 64, 65, 96, 97, 384, 385, 1024, 2047, 2048] {
        // Both all-ones (densest windows) and top-bit-only (sparsest).
        let top = &BigUint::one() << (bits - 1);
        let ones = &(&top << 1) - &BigUint::one();
        for exp in [top, ones] {
            let want = mod_pow_classic(&gen, &exp, &m);
            assert_eq!(mod_pow(&gen, &exp, &m), want, "mod_pow bits={bits}");
            assert_eq!(ctx.pow(&gen, &exp), want, "context bits={bits}");
            assert_eq!(table.pow(&exp).unwrap(), want, "table bits={bits}");
        }
    }
    assert!(table.pow(&(&BigUint::one() << 2048)).is_none());
}
