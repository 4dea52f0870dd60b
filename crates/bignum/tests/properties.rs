//! Property-based tests for `BigUint` arithmetic invariants.

use gridsec_bignum::modular::{mod_inv, mod_mul, mod_pow, mod_pow_classic};
use gridsec_bignum::montgomery::Montgomery;
use gridsec_bignum::BigUint;
use gridsec_util::check::{check, Gen};

const CASES: u64 = 256;

/// Generator: random BigUint up to ~256 bits, built from raw bytes.
fn biguint(g: &mut Gen) -> BigUint {
    BigUint::from_bytes_be(&g.bytes(0..32))
}

/// Generator: nonzero BigUint.
fn biguint_nonzero(g: &mut Gen) -> BigUint {
    let v = biguint(g);
    if v.is_zero() {
        BigUint::one()
    } else {
        v
    }
}

#[test]
fn add_commutes() {
    check("add_commutes", CASES, |g| {
        let (a, b) = (biguint(g), biguint(g));
        assert_eq!(&a + &b, &b + &a);
    });
}

#[test]
fn add_associates() {
    check("add_associates", CASES, |g| {
        let (a, b, c) = (biguint(g), biguint(g), biguint(g));
        assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
    });
}

#[test]
fn add_sub_roundtrip() {
    check("add_sub_roundtrip", CASES, |g| {
        let (a, b) = (biguint(g), biguint(g));
        assert_eq!(&(&a + &b) - &b, a);
    });
}

#[test]
fn mul_commutes() {
    check("mul_commutes", CASES, |g| {
        let (a, b) = (biguint(g), biguint(g));
        assert_eq!(&a * &b, &b * &a);
    });
}

#[test]
fn mul_distributes() {
    check("mul_distributes", CASES, |g| {
        let (a, b, c) = (biguint(g), biguint(g), biguint(g));
        assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
    });
}

#[test]
fn div_rem_invariant() {
    check("div_rem_invariant", CASES, |g| {
        let (a, b) = (biguint(g), biguint_nonzero(g));
        let (q, r) = a.div_rem(&b);
        assert!(r < b);
        assert_eq!(&(&q * &b) + &r, a);
    });
}

#[test]
fn shift_is_mul_by_power_of_two() {
    check("shift_is_mul_by_power_of_two", CASES, |g| {
        let a = biguint(g);
        let s = g.usize_in(0..200);
        let shifted = &a << s;
        let pow = &BigUint::one() << s;
        assert_eq!(shifted, &a * &pow);
    });
}

#[test]
fn bytes_roundtrip() {
    check("bytes_roundtrip", CASES, |g| {
        let bytes = g.bytes(0..64);
        let v = BigUint::from_bytes_be(&bytes);
        assert_eq!(BigUint::from_bytes_be(&v.to_bytes_be()), v);
    });
}

#[test]
fn hex_roundtrip() {
    check("hex_roundtrip", CASES, |g| {
        let a = biguint(g);
        assert_eq!(BigUint::from_hex(&a.to_hex()).unwrap(), a);
    });
}

#[test]
fn decimal_roundtrip() {
    check("decimal_roundtrip", CASES, |g| {
        let a = biguint(g);
        assert_eq!(BigUint::from_decimal(&a.to_decimal()).unwrap(), a);
    });
}

#[test]
fn gcd_divides_both() {
    check("gcd_divides_both", CASES, |g| {
        let (a, b) = (biguint_nonzero(g), biguint_nonzero(g));
        let gcd = a.gcd(&b);
        assert!(a.div_rem(&gcd).1.is_zero());
        assert!(b.div_rem(&gcd).1.is_zero());
    });
}

#[test]
fn gcd_matches_euclid_by_division() {
    check("gcd_matches_euclid_by_division", CASES, |g| {
        // A planted common factor, so the answer is rarely 1.
        let common = biguint_nonzero(g);
        let (a, b) = (biguint(g).mul_ref(&common), biguint(g).mul_ref(&common));
        let (mut x, mut y) = (a.clone(), b.clone());
        while !y.is_zero() {
            (x, y) = (y.clone(), x.rem_ref(&y));
        }
        assert_eq!(a.gcd(&b), x, "gcd({a}, {b})");
    });
}

#[test]
fn mod_pow_product_rule() {
    check("mod_pow_product_rule", CASES, |g| {
        let a = biguint(g);
        let e1 = g.u64_in(0..1000);
        let e2 = g.u64_in(0..1000);
        let m = biguint_nonzero(g);
        // a^(e1+e2) = a^e1 * a^e2 (mod m)
        let m = if m.is_one() { BigUint::from(2u64) } else { m };
        let lhs = mod_pow(&a, &BigUint::from(e1 + e2), &m);
        let rhs = mod_mul(
            &mod_pow(&a, &BigUint::from(e1), &m),
            &mod_pow(&a, &BigUint::from(e2), &m),
            &m,
        );
        assert_eq!(lhs, rhs);
    });
}

#[test]
fn mod_inv_is_inverse() {
    check("mod_inv_is_inverse", CASES, |g| {
        let a = biguint_nonzero(g);
        // Invert modulo a prime so the inverse always exists when a % p != 0.
        let p = BigUint::from_decimal("170141183460469231731687303715884105727").unwrap();
        let a = a.rem_ref(&p);
        if !a.is_zero() {
            let inv = mod_inv(&a, &p).unwrap();
            assert_eq!(mod_mul(&a, &inv, &p), BigUint::one());
        }
    });
}

#[test]
fn montgomery_mod_pow_agrees_with_classic_window() {
    check(
        "montgomery_mod_pow_agrees_with_classic_window",
        CASES,
        |g| {
            let base = biguint(g);
            // Mix short (fast-path) and wide (sliding-window) exponents.
            let exp = if g.bool() {
                BigUint::from(g.u64())
            } else {
                BigUint::from_bytes_be(&g.bytes(8..24))
            };
            // Half the cases force an odd modulus (Montgomery dispatch),
            // half force an even one (classic fallback); both must agree
            // with the division-per-step reference kernel.
            let mut m = biguint_nonzero(g);
            let odd = g.bool();
            if odd != m.is_odd() {
                m = m.add_ref(&BigUint::one());
            }
            if m.is_zero() || m.is_one() {
                m = BigUint::from(if odd { 3u64 } else { 2u64 });
            }
            assert_eq!(
                mod_pow(&base, &exp, &m),
                mod_pow_classic(&base, &exp, &m),
                "base={base} exp={exp} m={m}"
            );
        },
    );
}

#[test]
fn montgomery_mod_pow_edge_cases() {
    check("montgomery_mod_pow_edge_cases", CASES, |g| {
        let mut m = biguint_nonzero(g);
        if m.is_even() {
            m = m.add_ref(&BigUint::one());
        }
        if m.is_one() {
            m = BigUint::from(3u64);
        }
        let ctx = Montgomery::new(&m).expect("odd modulus > 1");
        let base = biguint(g);
        // exp = 0 -> 1; exp = 1 -> base mod m; base = 0 -> 0; base = 1 -> 1.
        assert_eq!(ctx.pow(&base, &BigUint::zero()), BigUint::one());
        assert_eq!(ctx.pow(&base, &BigUint::one()), base.rem_ref(&m));
        assert_eq!(
            ctx.pow(&BigUint::zero(), &biguint_nonzero(g)),
            BigUint::zero()
        );
        assert_eq!(ctx.pow(&BigUint::one(), &biguint(g)), BigUint::one());
    });
}

#[test]
fn cmp_consistent_with_sub() {
    check("cmp_consistent_with_sub", CASES, |g| {
        let (a, b) = (biguint(g), biguint(g));
        match a.cmp(&b) {
            std::cmp::Ordering::Less => assert!(a.checked_sub(&b).is_none()),
            _ => assert!(a.checked_sub(&b).is_some()),
        }
    });
}

#[test]
fn bit_len_matches_shift() {
    check("bit_len_matches_shift", CASES, |g| {
        let s = g.usize_in(0..300);
        let v = &BigUint::one() << s;
        assert_eq!(v.bit_len(), s + 1);
    });
}
