//! Montgomery-form modular arithmetic for odd moduli.
//!
//! [`Montgomery`] precomputes everything `base^exp mod n` needs so the
//! hot loop is pure word-level CIOS multiplication — no division after
//! every square/multiply, unlike [`crate::modular::mod_pow_classic`].
//! One conversion into Montgomery form on entry and one out on exit
//! amortize across the whole exponentiation.
//!
//! There is one context type over one kernel, the const-generic
//! [`crate::fixed`] CIOS multiply. The context picks the kernel width
//! from the modulus: its limb count rounded up to one of
//! {1, 2, 4, 8, 16, 32}, operands zero-padded. Building a context costs
//! one long division (`R^2 mod n`), well under a microsecond at 256
//! bits, so [`crate::modular::mod_pow`] builds one per call; a value
//! that exponentiates under one modulus many times — an RSA key's CRT
//! primes, a DH group, a CA verify key, a prime candidate facing its
//! Miller–Rabin witnesses — holds its own.

use crate::fixed::FixedMont;
use crate::BigUint;

/// The kernel at each instantiated width. Held inline: a context is
/// built at most once per exponentiation, beside which writing the
/// enum's half kilobyte is nothing, and the parameters the multiply
/// loop reads stay off the heap.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
enum Kernel {
    K1(FixedMont<1>),
    K2(FixedMont<2>),
    K4(FixedMont<4>),
    K8(FixedMont<8>),
    K16(FixedMont<16>),
    K32(FixedMont<32>),
}

/// `$body` with `$k` bound to the `FixedMont<K>` inside `$kernel`.
macro_rules! with_kernel {
    ($kernel:expr, $k:ident => $body:expr) => {
        match $kernel {
            Kernel::K1($k) => $body,
            Kernel::K2($k) => $body,
            Kernel::K4($k) => $body,
            Kernel::K8($k) => $body,
            Kernel::K16($k) => $body,
            Kernel::K32($k) => $body,
        }
    };
}

/// Precomputed Montgomery context for a fixed odd modulus `n > 1` of at
/// most 2048 bits.
#[derive(Debug)]
pub struct Montgomery {
    modulus: BigUint,
    kernel: Kernel,
}

impl Montgomery {
    /// Build a context, or `None` when the modulus is even or `<= 1`
    /// (Montgomery reduction needs `gcd(n, 2^64) = 1`) or wider than
    /// 2048 bits (no kernel that wide); callers fall back to
    /// [`crate::modular::mod_pow_classic`].
    pub fn new(modulus: &BigUint) -> Option<Montgomery> {
        if modulus.is_zero() || modulus.is_one() || modulus.is_even() {
            return None;
        }
        let kernel = match modulus.limbs().len() {
            1 => Kernel::K1(FixedMont::new(modulus)),
            2 => Kernel::K2(FixedMont::new(modulus)),
            3..=4 => Kernel::K4(FixedMont::new(modulus)),
            5..=8 => Kernel::K8(FixedMont::new(modulus)),
            9..=16 => Kernel::K16(FixedMont::new(modulus)),
            17..=32 => Kernel::K32(FixedMont::new(modulus)),
            _ => return None,
        };
        Some(Montgomery {
            modulus: modulus.clone(),
            kernel,
        })
    }

    /// Identical to [`Montgomery::new`]; the name survives only because
    /// the frozen `benchmark/` crate calls it.
    pub fn new_precomputed(modulus: &BigUint) -> Option<Montgomery> {
        Montgomery::new(modulus)
    }

    /// The modulus this context was built for.
    pub fn modulus(&self) -> &BigUint {
        &self.modulus
    }

    /// `base^exp mod n` with the same semantics as
    /// [`crate::modular::mod_pow`] for this modulus.
    pub fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        if exp.is_zero() {
            return BigUint::one(); // n > 1, so 1 mod n = 1
        }
        let base = base.rem_ref(&self.modulus);
        if base.is_zero() {
            return BigUint::zero();
        }
        with_kernel!(&self.kernel, k => k.pow(&base, exp))
    }

    /// Fixed-base table entries for `0 < base < n` (see
    /// [`crate::precomp::FixedBaseTable`]).
    pub(crate) fn fixed_base_table(&self, base: &BigUint, max_exp_bits: usize) -> Vec<u64> {
        with_kernel!(&self.kernel, k => k.fixed_base_table(base, max_exp_bits))
    }

    /// `base^exp mod n` from this context's own
    /// [`Montgomery::fixed_base_table`], for `exp > 0` no wider than
    /// the table.
    pub(crate) fn fixed_base_pow(&self, table: &[u64], exp: &BigUint) -> BigUint {
        with_kernel!(&self.kernel, k => k.fixed_base_pow(table, exp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modular::mod_pow_classic;

    fn n(s: &str) -> BigUint {
        BigUint::from_decimal(s).unwrap()
    }

    #[test]
    fn rejects_even_and_trivial_moduli() {
        assert!(Montgomery::new(&BigUint::zero()).is_none());
        assert!(Montgomery::new(&BigUint::one()).is_none());
        assert!(Montgomery::new(&n("65536")).is_none());
        assert!(Montgomery::new(&n("65537")).is_some());
    }

    #[test]
    fn agrees_with_classic_on_fixed_cases() {
        let m = n("1000000007");
        let ctx = Montgomery::new(&m).unwrap();
        for (b, e) in [("2", "10"), ("3", "1000000006"), ("999999999", "12345")] {
            assert_eq!(
                ctx.pow(&n(b), &n(e)),
                mod_pow_classic(&n(b), &n(e), &m),
                "b={b} e={e}"
            );
        }
    }

    #[test]
    fn agrees_with_classic_on_wide_operands() {
        let m = (&BigUint::one() << 127) - &BigUint::one();
        let ctx = Montgomery::new(&m).unwrap();
        let base = BigUint::from_hex("deadbeefcafebabe0123456789abcdef").unwrap();
        // Exponent wider than 64 bits drives the sliding-window path.
        let exp = BigUint::from_hex("ffeeddccbbaa99887766554433221100ff").unwrap();
        assert_eq!(ctx.pow(&base, &exp), mod_pow_classic(&base, &exp, &m));
    }

    #[test]
    fn edge_cases_match_mod_pow_semantics() {
        let m = n("97");
        let ctx = Montgomery::new(&m).unwrap();
        assert_eq!(ctx.pow(&n("5"), &BigUint::zero()), BigUint::one());
        assert_eq!(ctx.pow(&BigUint::zero(), &n("5")), BigUint::zero());
        assert_eq!(ctx.pow(&n("97"), &n("5")), BigUint::zero());
        assert_eq!(ctx.pow(&n("98"), &n("1")), BigUint::one());
    }
}
