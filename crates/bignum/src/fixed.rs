//! The Montgomery kernel: const-generic CIOS multiplication on
//! fixed-limb stack arrays.
//!
//! Every `base^exp mod n` with an odd modulus in this workspace runs
//! here. Buffers are `[u64; K]` with compile-time trip counts, after
//! the `limbs_to_biguint` / `biguint_to_limbs` fixed-limb conversion
//! idiom, so the compiler can unroll the inner loops and nothing
//! touches the heap per multiply. [`crate::montgomery::Montgomery`]
//! picks `K` — the modulus' limb count rounded up to a power of two —
//! and zero-pads the operands: with `R = 2^(64K)` any odd `n < R`
//! works, and the canonical result does not depend on `K`.

use crate::BigUint;

/// Window width in bits for fixed-base tables. With `w = 4` a 256-bit
/// exponent costs at most 64 table multiplies; the table for one base
/// holds `ceil(bits/4) * 15` Montgomery-form entries (~30 KiB at 4
/// limbs).
const WINDOW: usize = 4;

/// Table entries per window position: the non-zero digits `1..=15`.
const DIGITS: usize = (1 << WINDOW) - 1;

/// Widest sliding window [`FixedMont::pow_window`] uses; its odd-powers
/// table holds `2^(MAX_WINDOW-1)` entries on the stack.
const MAX_WINDOW: usize = 5;

/// Split a [`BigUint`] into exactly `K` little-endian limbs, or `None`
/// when the value does not fit in `K` limbs.
pub fn biguint_to_limbs<const K: usize>(x: &BigUint) -> Option<[u64; K]> {
    let limbs = x.limbs();
    if limbs.len() > K {
        return None;
    }
    let mut out = [0u64; K];
    out[..limbs.len()].copy_from_slice(limbs);
    Some(out)
}

/// Rebuild a [`BigUint`] from `K` little-endian limbs; trailing zero
/// limbs are stripped by the canonical constructor.
pub fn limbs_to_biguint<const K: usize>(limbs: &[u64; K]) -> BigUint {
    BigUint::from_limbs(limbs.to_vec())
}

/// Montgomery parameters for one odd modulus at a compile-time limb
/// count `K`: the modulus limbs, `-n^-1 mod 2^64` and `R^2 mod n` for
/// `R = 2^(64K)`. A CIOS multiply maps `(aR, bR) -> abR mod n` without
/// any long division.
#[derive(Debug)]
pub(crate) struct FixedMont<const K: usize> {
    n: [u64; K],
    n0inv: u64,
    rr: [u64; K],
}

impl<const K: usize> FixedMont<K> {
    /// Parameters for an odd `modulus > 1` of at most `K` limbs (the
    /// caller, [`Montgomery::new`], has checked all three).
    ///
    /// [`Montgomery::new`]: crate::montgomery::Montgomery::new
    pub(crate) fn new(modulus: &BigUint) -> FixedMont<K> {
        let n = biguint_to_limbs::<K>(modulus).expect("K chosen to fit the modulus");
        // Newton–Hensel lifting: each step doubles the number of correct
        // low bits of n[0]^-1 mod 2^64; n[0] is odd so n[0] itself is
        // correct to 3 bits and six doublings exceed 64.
        let mut inv: u64 = n[0];
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n[0].wrapping_mul(inv)));
        }
        let rr = (&BigUint::one() << (128 * K)).rem_ref(modulus);
        FixedMont {
            n,
            n0inv: inv.wrapping_neg(),
            rr: biguint_to_limbs(&rr).expect("reduced below the modulus"),
        }
    }

    /// `base^exp mod n` for `0 < base < n` and `exp > 0` — the caller
    /// (the dispatching [`Montgomery::pow`]) has already handled the
    /// degenerate cases.
    ///
    /// The exponent scan is sized to the exponent: anything fitting in
    /// a `u64` (the RSA verify exponents 3 and 65537) takes plain
    /// square-and-multiply with no table at all, full-width RSA/DH
    /// exponents a sliding window over an odd-powers table.
    ///
    /// [`Montgomery::pow`]: crate::montgomery::Montgomery::pow
    pub(crate) fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        let bm = self.to_mont(base);
        let acc = match exp.to_u64() {
            Some(e) => self.pow_u64(&bm, e),
            None => self.pow_window(&bm, exp),
        };
        self.demont(&acc)
    }

    /// Fixed-base table for `0 < base < n` covering exponents up to
    /// `max_exp_bits` bits: for each window position `i`, the `DIGITS`
    /// values `base^(j << (WINDOW*i))`, `j` in `1..=15`, in Montgomery
    /// form — position-major, `K` limbs each, flattened.
    pub(crate) fn fixed_base_table(&self, base: &BigUint, max_exp_bits: usize) -> Vec<u64> {
        let positions = max_exp_bits.div_ceil(WINDOW);
        let mut table = Vec::with_capacity(positions * DIGITS * K);
        // cur = base^(2^(WINDOW*pos)) in Montgomery form.
        let mut cur = self.to_mont(base);
        for _pos in 0..positions {
            let mut entry = cur; // j = 1
            table.extend_from_slice(&entry);
            for _j in 2..=DIGITS {
                entry = self.mul(&entry, &cur);
                table.extend_from_slice(&entry);
            }
            for _ in 0..WINDOW {
                cur = self.mul(&cur, &cur);
            }
        }
        table
    }

    /// `base^exp mod n` from a [`Self::fixed_base_table`] of the same
    /// kernel, for `exp > 0` no wider than the table: one entry per
    /// non-zero nibble of `exp` — multiplies only, no squarings.
    pub(crate) fn fixed_base_pow(&self, table: &[u64], exp: &BigUint) -> BigUint {
        let limbs = exp.limbs();
        let entry = |pos: usize| -> Option<&[u64; K]> {
            let nibble = bits_at(limbs, pos * WINDOW, WINDOW);
            let at = (pos * DIGITS + nibble.checked_sub(1)?) * K;
            Some(table[at..at + K].try_into().expect("K-limb table entry"))
        };
        // The top nibble of a non-zero exponent is non-zero: start there.
        let top = exp.bit_len().div_ceil(WINDOW) - 1;
        let mut acc = *entry(top).expect("top nibble holds the top bit");
        for e in (0..top).filter_map(entry) {
            acc = self.mul(&acc, e);
        }
        self.demont(&acc)
    }

    /// Convert `x < n` into Montgomery form.
    fn to_mont(&self, x: &BigUint) -> [u64; K] {
        let x = biguint_to_limbs::<K>(x).expect("operand reduced below the modulus");
        self.mul(&x, &self.rr)
    }

    /// Convert a Montgomery-form value back to a canonical [`BigUint`]:
    /// multiply by literal 1.
    fn demont(&self, m: &[u64; K]) -> BigUint {
        let mut one = [0u64; K];
        one[0] = 1;
        limbs_to_biguint(&self.mul(m, &one))
    }

    /// Left-to-right binary exponentiation for `e >= 1` fitting a word.
    fn pow_u64(&self, bm: &[u64; K], e: u64) -> [u64; K] {
        let mut acc = *bm;
        for i in (0..63 - e.leading_zeros() as usize).rev() {
            acc = self.mul(&acc, &acc);
            if (e >> i) & 1 == 1 {
                acc = self.mul(&acc, bm);
            }
        }
        acc
    }

    /// Sliding-window exponentiation with an odd-powers table of at
    /// most `2^(w-1)` entries, `w` sized to the exponent's bit length.
    fn pow_window(&self, bm: &[u64; K], exp: &BigUint) -> [u64; K] {
        let bits = exp.bit_len();
        let w = match bits {
            0..=96 => 3,
            97..=384 => 4,
            _ => MAX_WINDOW,
        };
        // table[t] = base^(2t+1) in Montgomery form.
        let bsq = self.mul(bm, bm);
        let mut table = [[0u64; K]; 1 << (MAX_WINDOW - 1)];
        table[0] = *bm;
        for t in 1..(1 << (w - 1)) {
            table[t] = self.mul(&table[t - 1], &bsq);
        }

        let limbs = exp.limbs();
        // The longest window of at most `w` bits below `top` that ends
        // on a set bit, bit `top - 1` being set: its (odd) value and
        // the index of its lowest bit.
        let window = |top: usize| {
            let lo = top.saturating_sub(w);
            let chunk = bits_at(limbs, lo, top - lo);
            let skip = chunk.trailing_zeros() as usize;
            (chunk >> skip, lo + skip)
        };
        // `top` counts the exponent bits not yet folded into `acc`;
        // the scan starts on the exponent's top bit, which is set.
        let (val, mut top) = window(bits);
        let mut acc = table[val >> 1];
        while top > 0 {
            if bits_at(limbs, top - 1, 1) == 0 {
                acc = self.mul(&acc, &acc);
                top -= 1;
                continue;
            }
            let (val, lo) = window(top);
            for _ in lo..top {
                acc = self.mul(&acc, &acc);
            }
            acc = self.mul(&acc, &table[val >> 1]);
            top = lo;
        }
        acc
    }

    /// CIOS Montgomery multiply: `(aR, bR) -> abR mod n`.
    ///
    /// Both inputs are `< n`; the interleaved reduction keeps the
    /// accumulator under `2n`, so a single conditional subtraction at
    /// the end suffices. The two overflow limbs above `t[K-1]` are held
    /// in scalars.
    ///
    /// Compiled into each loop that calls it: out of line, the `K = 4`
    /// instance ran at 34 ns for its 32 multiply-adds where the same
    /// code inside the loop takes 21 (DESIGN.md §11.1).
    #[inline(always)]
    fn mul(&self, a: &[u64; K], b: &[u64; K]) -> [u64; K] {
        let mut t = [0u64; K];
        let mut tk = 0u64;
        for &bi in b {
            // t += a * bi
            let mut carry = 0u64;
            for j in 0..K {
                let v = t[j] as u128 + (a[j] as u128) * (bi as u128) + carry as u128;
                t[j] = v as u64;
                carry = (v >> 64) as u64;
            }
            let v = tk as u128 + carry as u128;
            tk = v as u64;
            // The limb above `tk`: written and consumed within one
            // outer iteration.
            let tk1 = (v >> 64) as u64;

            // t = (t + m*n) / 2^64 with m chosen so t becomes divisible.
            let m = t[0].wrapping_mul(self.n0inv);
            let v = t[0] as u128 + (m as u128) * (self.n[0] as u128);
            let mut carry = (v >> 64) as u64;
            for j in 1..K {
                let v = t[j] as u128 + (m as u128) * (self.n[j] as u128) + carry as u128;
                t[j - 1] = v as u64;
                carry = (v >> 64) as u64;
            }
            let v = tk as u128 + carry as u128;
            t[K - 1] = v as u64;
            tk = tk1 + ((v >> 64) as u64);
        }
        if tk != 0 || ge(&t, &self.n) {
            sub_in_place(&mut t, &self.n);
        }
        t
    }
}

/// Bits `[lo, lo + width)` of a little-endian limb slice that holds
/// them all, for `0 < width < 64`.
fn bits_at(limbs: &[u64], lo: usize, width: usize) -> usize {
    let (limb, off) = (lo / 64, lo % 64);
    let mut v = limbs[limb] >> off;
    if off + width > 64 {
        v |= limbs[limb + 1] << (64 - off);
    }
    (v & ((1 << width) - 1)) as usize
}

/// `a >= b` on equal-length little-endian limb arrays.
fn ge(a: &[u64], b: &[u64]) -> bool {
    for i in (0..a.len()).rev() {
        if a[i] != b[i] {
            return a[i] > b[i];
        }
    }
    true
}

/// `a -= b` on equal-length little-endian limb arrays; `a >= b` holds.
fn sub_in_place(a: &mut [u64], b: &[u64]) {
    let mut borrow = 0u64;
    for (ai, &bi) in a.iter_mut().zip(b) {
        let (d1, b1) = ai.overflowing_sub(bi);
        let (d2, b2) = d1.overflowing_sub(borrow);
        *ai = d2;
        borrow = (b1 | b2) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limb_conversions_round_trip() {
        let x = BigUint::from_hex("deadbeefcafebabe0123456789abcdef").unwrap();
        let limbs = biguint_to_limbs::<4>(&x).unwrap();
        assert_eq!(limbs_to_biguint(&limbs), x);
        // Too wide for the requested limb count.
        assert!(biguint_to_limbs::<1>(&x).is_none());
        // Zero maps to the all-zero array and back.
        let z = biguint_to_limbs::<4>(&BigUint::zero()).unwrap();
        assert_eq!(z, [0u64; 4]);
        assert!(limbs_to_biguint(&z).is_zero());
    }
}
