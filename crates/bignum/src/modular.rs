//! Modular arithmetic: exponentiation, inverse, and helpers.
//!
//! These routines back RSA key generation/signing and finite-field
//! Diffie–Hellman in `gridsec-crypto`.

use crate::montgomery::Montgomery;
use crate::BigUint;

/// `base^exp mod modulus`.
///
/// A pure function of its arguments. Odd moduli up to 2048 bits (every
/// RSA and DH modulus in this workspace) take the Montgomery CIOS
/// kernel through a [`Montgomery`] context built for this one call:
/// one conversion in and out, division-free multiplies in between, and
/// an exponent scan sized to the exponent. A caller that exponentiates
/// under one modulus many times should hold a [`Montgomery`] itself
/// and skip the per-call build. Even or wider moduli fall back to the
/// classic division-per-step window kernel, [`mod_pow_classic`]. Both
/// produce identical results.
///
/// Panics if `modulus` is zero. `x mod 1` is zero for all `x`.
pub fn mod_pow(base: &BigUint, exp: &BigUint, modulus: &BigUint) -> BigUint {
    match Montgomery::new(modulus) {
        Some(ctx) => ctx.pow(base, exp),
        None => mod_pow_classic(base, exp, modulus),
    }
}

/// `base^exp mod modulus` using 4-bit fixed-window exponentiation with
/// a long division after every square and multiply.
///
/// This is the pre-Montgomery kernel, kept as the differential-testing
/// reference, the fallback for moduli the Montgomery kernel does not
/// take (even, or wider than 2048 bits), and the baseline the perf
/// guard in `scripts/verify.sh` measures the CIOS kernel against. The
/// power table is sized to the largest window the exponent actually
/// uses, so short exponents (3, 65537) no longer precompute all 16
/// entries.
///
/// Panics if `modulus` is zero. `x mod 1` is zero for all `x`.
pub fn mod_pow_classic(base: &BigUint, exp: &BigUint, modulus: &BigUint) -> BigUint {
    assert!(!modulus.is_zero(), "mod_pow with zero modulus");
    if modulus.is_one() {
        return BigUint::zero();
    }
    if exp.is_zero() {
        return BigUint::one();
    }
    let base = base.rem_ref(modulus);
    if base.is_zero() {
        return BigUint::zero();
    }

    // Split the exponent into 4-bit windows, least significant first.
    let windows = exp.bit_len().div_ceil(4);
    let mut nibbles = vec![0usize; windows];
    for (w, nibble) in nibbles.iter_mut().enumerate() {
        for b in 0..4 {
            if exp.bit(w * 4 + b) {
                *nibble |= 1 << b;
            }
        }
    }

    // Precompute base^0..base^max_nibble — no further: an exponent like
    // 65537 (windows 1,0,0,0,1) only ever multiplies by base^1.
    let max_nibble = nibbles.iter().copied().max().unwrap_or(0);
    let mut table = Vec::with_capacity(max_nibble + 1);
    table.push(BigUint::one());
    for i in 1..=max_nibble {
        let prev: &BigUint = table.last().expect("table starts non-empty");
        table.push(if i == 1 {
            base.clone()
        } else {
            prev.mul_ref(&base).rem_ref(modulus)
        });
    }

    // Process the windows most significant first.
    let mut acc = BigUint::one();
    for &nibble in nibbles.iter().rev() {
        if !acc.is_one() {
            for _ in 0..4 {
                acc = acc.square().rem_ref(modulus);
            }
        }
        if nibble != 0 {
            acc = acc.mul_ref(&table[nibble]).rem_ref(modulus);
        }
    }
    acc
}

/// Modular multiplicative inverse: the `x` with `a * x ≡ 1 (mod m)`, or
/// `None` if `gcd(a, m) != 1`.
///
/// Uses the iterative extended Euclidean algorithm with signed tracking
/// implemented via (value, sign) pairs to stay within unsigned arithmetic.
pub fn mod_inv(a: &BigUint, m: &BigUint) -> Option<BigUint> {
    if m.is_zero() || m.is_one() {
        return None;
    }
    let mut r0 = m.clone();
    let mut r1 = a.rem_ref(m);
    if r1.is_zero() {
        return None;
    }
    // Coefficients for `a` only: t0, t1 with signs (true = negative).
    let mut t0 = (BigUint::zero(), false);
    let mut t1 = (BigUint::one(), false);

    while !r1.is_zero() {
        let (q, r) = r0.div_rem(&r1);
        r0 = std::mem::replace(&mut r1, r);
        // t_next = t0 - q * t1 (signed)
        let qt1 = q.mul_ref(&t1.0);
        let t_next = signed_sub(&t0, &(qt1, t1.1));
        t0 = std::mem::replace(&mut t1, t_next);
    }
    if !r0.is_one() {
        return None; // not coprime
    }
    // Normalize t0 into [0, m).
    let (val, neg) = t0;
    let val = val.rem_ref(m);
    Some(if neg && !val.is_zero() {
        m.sub_ref(&val)
    } else {
        val
    })
}

/// Signed subtraction on (magnitude, is_negative) pairs.
fn signed_sub(a: &(BigUint, bool), b: &(BigUint, bool)) -> (BigUint, bool) {
    match (a.1, b.1) {
        // a - b with same-sign operands: magnitude subtraction.
        (false, false) => {
            if a.0 >= b.0 {
                (a.0.sub_ref(&b.0), false)
            } else {
                (b.0.sub_ref(&a.0), true)
            }
        }
        (true, true) => {
            if b.0 >= a.0 {
                (b.0.sub_ref(&a.0), false)
            } else {
                (a.0.sub_ref(&b.0), true)
            }
        }
        // (-a) - b = -(a + b); a - (-b) = a + b.
        (true, false) => (a.0.add_ref(&b.0), true),
        (false, true) => (a.0.add_ref(&b.0), false),
    }
}

/// `(a * b) mod m` convenience helper.
pub fn mod_mul(a: &BigUint, b: &BigUint, m: &BigUint) -> BigUint {
    a.mul_ref(b).rem_ref(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> BigUint {
        BigUint::from_decimal(s).unwrap()
    }

    #[test]
    fn mod_pow_small_cases() {
        assert_eq!(mod_pow(&n("2"), &n("10"), &n("1000")), n("24"));
        assert_eq!(mod_pow(&n("3"), &n("0"), &n("7")), n("1"));
        assert_eq!(mod_pow(&n("0"), &n("5"), &n("7")), n("0"));
        assert_eq!(mod_pow(&n("5"), &n("5"), &n("1")), n("0"));
    }

    #[test]
    fn mod_pow_fermat_little() {
        // a^(p-1) ≡ 1 mod p for prime p, a not divisible by p.
        let p = n("1000000007");
        for a in ["2", "3", "123456", "999999999"] {
            assert_eq!(mod_pow(&n(a), &n("1000000006"), &p), BigUint::one());
        }
    }

    #[test]
    fn mod_pow_large() {
        // Check against a value computed with Python pow():
        // pow(0xdeadbeef, 0xcafebabe, (1<<127)-1)
        let base = BigUint::from_hex("deadbeef").unwrap();
        let exp = BigUint::from_hex("cafebabe").unwrap();
        let m = (&BigUint::one() << 127) - &BigUint::one();
        let got = mod_pow(&base, &exp, &m);
        // Verify multiplicativity instead of a hardcoded value:
        // base^(e1+e2) == base^e1 * base^e2 (mod m)
        let e1 = BigUint::from_hex("cafe0000").unwrap();
        let e2 = BigUint::from_hex("babe").unwrap();
        let lhs = mod_pow(&base, &(&e1 + &e2), &m);
        let rhs = mod_mul(&mod_pow(&base, &e1, &m), &mod_pow(&base, &e2, &m), &m);
        assert_eq!(lhs, rhs);
        assert!(got < m);
    }

    #[test]
    fn mod_inv_basic() {
        let inv = mod_inv(&n("3"), &n("11")).unwrap();
        assert_eq!(inv, n("4")); // 3*4 = 12 ≡ 1 mod 11
        assert_eq!(mod_inv(&n("10"), &n("11")).unwrap(), n("10"));
    }

    #[test]
    fn mod_inv_not_coprime() {
        assert_eq!(mod_inv(&n("6"), &n("9")), None);
        assert_eq!(mod_inv(&n("0"), &n("7")), None);
        assert_eq!(mod_inv(&n("5"), &n("1")), None);
    }

    #[test]
    fn mod_inv_roundtrip_large() {
        let m = n("170141183460469231731687303715884105727"); // 2^127-1, prime
        for a in ["2", "3", "31337", "123456789012345678901234567890"] {
            let a = n(a);
            let inv = mod_inv(&a, &m).unwrap();
            assert_eq!(mod_mul(&a, &inv, &m), BigUint::one(), "a={a}");
        }
    }

    #[test]
    fn mod_inv_of_m_minus_one() {
        // (m-1) is its own inverse mod m.
        let m = n("1000000007");
        let a = &m - &BigUint::one();
        assert_eq!(mod_inv(&a, &m).unwrap(), a);
    }

    #[test]
    #[should_panic(expected = "zero modulus")]
    fn mod_pow_zero_modulus_panics() {
        mod_pow(&n("2"), &n("2"), &BigUint::zero());
    }

    #[test]
    #[should_panic(expected = "zero modulus")]
    fn mod_pow_classic_zero_modulus_panics() {
        mod_pow_classic(&n("2"), &n("2"), &BigUint::zero());
    }

    #[test]
    fn mod_pow_even_modulus_falls_back() {
        // 7^5 = 16807; even moduli take the classic kernel.
        assert_eq!(mod_pow(&n("7"), &n("5"), &n("1000")), n("807"));
        assert_eq!(mod_pow_classic(&n("7"), &n("5"), &n("1000")), n("807"));
    }

    #[test]
    fn classic_handles_short_exponents_with_small_table() {
        // e = 3 and e = 65537: the RSA verify exponents that used to
        // precompute all 16 table entries.
        let m = n("1000000007");
        // 12345^3 = 1881365963625 ≡ 365950458 (mod 1000000007)
        assert_eq!(mod_pow_classic(&n("12345"), &n("3"), &m), n("365950458"));
        assert_eq!(
            mod_pow_classic(&n("12345"), &n("65537"), &m),
            mod_pow(&n("12345"), &n("65537"), &m)
        );
    }
}
