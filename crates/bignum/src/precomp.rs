//! Fixed-base precomputation.
//!
//! A VO-scale login wave computes `g^x mod p` for the *same* generator
//! and group modulus once per keypair. [`FixedBaseTable`] is a windowed
//! table of `base^(j·2^(w·i))` built once for such a `(base, modulus)`
//! pair; exponentiation then needs only table multiplies, no
//! squarings: ~64 multiplies for a 256-bit exponent against ~340 for
//! the sliding-window scan.
//!
//! A table is an ordinary value, owned by whatever it is a function of
//! (`gridsec_crypto::dh::DhGroup` holds the one for its generator).
//! Results are bit-identical with or without one — pinned by the
//! differential property suite in `tests/precomp_props.rs`.

use crate::montgomery::Montgomery;
use crate::BigUint;

/// Precomputed powers of one fixed base under one fixed odd modulus.
///
/// `base^e` for any exponent up to `max_exp_bits` is the product of one
/// table entry per non-zero nibble of `e` — multiplies only, no
/// squarings.
#[derive(Debug)]
pub struct FixedBaseTable {
    base: BigUint,
    mont: Montgomery,
    max_exp_bits: usize,
    /// Montgomery-form entries, laid out by `mont`'s kernel.
    entries: Vec<u64>,
}

impl FixedBaseTable {
    /// Build a table for `base^e mod modulus`, `e` up to `max_exp_bits`
    /// bits.
    ///
    /// Returns `None` when the modulus admits no Montgomery context
    /// (even, `<= 1`, wider than 2048 bits), when `base ≡ 0 (mod
    /// modulus)` (the table cannot represent zero — callers fall back
    /// to the generic path, which handles it), or when `max_exp_bits`
    /// is zero.
    pub fn build(base: &BigUint, modulus: &BigUint, max_exp_bits: usize) -> Option<FixedBaseTable> {
        let mont = Montgomery::new(modulus)?;
        let reduced = base.rem_ref(modulus);
        if reduced.is_zero() || max_exp_bits == 0 {
            return None;
        }
        let entries = mont.fixed_base_table(&reduced, max_exp_bits);
        Some(FixedBaseTable {
            base: base.clone(),
            mont,
            max_exp_bits,
            entries,
        })
    }

    /// The (unreduced) base this table was built for.
    pub fn base(&self) -> &BigUint {
        &self.base
    }

    /// The modulus this table was built for.
    pub fn modulus(&self) -> &BigUint {
        self.mont.modulus()
    }

    /// Largest exponent bit length the table covers.
    pub fn max_exp_bits(&self) -> usize {
        self.max_exp_bits
    }

    /// `base^exp mod modulus`, or `None` when `exp` is wider than the
    /// table (the caller falls back to the generic kernel).
    ///
    /// Matches [`mod_pow`](crate::modular::mod_pow) exactly on its
    /// domain: `exp = 0` yields 1 (the modulus is `> 1` by
    /// construction).
    pub fn pow(&self, exp: &BigUint) -> Option<BigUint> {
        if exp.bit_len() > self.max_exp_bits {
            return None;
        }
        if exp.is_zero() {
            return Some(BigUint::one());
        }
        Some(self.mont.fixed_base_pow(&self.entries, exp))
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
    fn table_matches_classic_kernel() {
        let m = n("1000000007");
        let g = n("5");
        let t = FixedBaseTable::build(&g, &m, 64).unwrap();
        for e in ["0", "1", "2", "15", "16", "65537", "999999999999"] {
            let e = n(e);
            assert_eq!(t.pow(&e).unwrap(), mod_pow_classic(&g, &e, &m), "e={e}");
        }
        // Exponent wider than the table: caller must fall back.
        assert!(t.pow(&(&BigUint::one() << 64)).is_none());
    }

    #[test]
    fn build_rejects_degenerate_inputs() {
        assert!(FixedBaseTable::build(&n("5"), &n("16"), 64).is_none()); // even
        assert!(FixedBaseTable::build(&n("5"), &BigUint::one(), 64).is_none());
        assert!(FixedBaseTable::build(&BigUint::zero(), &n("97"), 64).is_none());
        assert!(FixedBaseTable::build(&n("97"), &n("97"), 64).is_none()); // base ≡ 0
        assert!(FixedBaseTable::build(&n("5"), &n("97"), 0).is_none());
    }
}
