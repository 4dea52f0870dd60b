//! The [`BigUint`] type: an arbitrary-precision unsigned integer.
//!
//! Representation: little-endian `Vec<u64>` limbs with the invariant that
//! the most significant limb is nonzero (zero is the empty limb vector).

use crate::ParseBigUintError;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, BitAnd, BitOr, BitXor, Mul, Rem, Shl, Shr, Sub};

/// Number of bits per limb.
pub(crate) const LIMB_BITS: usize = 64;

/// Multiplications with both operands at least this many limbs use
/// Karatsuba; below it, schoolbook wins on constant factors.
const KARATSUBA_THRESHOLD: usize = 24;

/// An arbitrary-precision unsigned integer.
///
/// Stored as little-endian `u64` limbs; the internal invariant is that the
/// highest limb is nonzero (canonical form), so equality and ordering are
/// straight limb comparisons.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    /// Little-endian limbs; empty means zero; last limb nonzero otherwise.
    limbs: Vec<u64>,
}

impl BigUint {
    /// The value `0`.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value `1`.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Construct from little-endian limbs, normalizing trailing zeros.
    pub fn from_limbs(mut limbs: Vec<u64>) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        BigUint { limbs }
    }

    /// Borrow the little-endian limb slice (no trailing zeros).
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// `true` iff the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// `true` iff the value is one.
    pub fn is_one(&self) -> bool {
        self.limbs == [1]
    }

    /// `true` iff the value is even (zero counts as even).
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// `true` iff the value is odd.
    pub fn is_odd(&self) -> bool {
        !self.is_even()
    }

    /// Number of significant bits (0 for the value zero).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&hi) => {
                (self.limbs.len() - 1) * LIMB_BITS + (LIMB_BITS - hi.leading_zeros() as usize)
            }
        }
    }

    /// Value of bit `i` (little-endian bit order).
    pub fn bit(&self, i: usize) -> bool {
        let (limb, off) = (i / LIMB_BITS, i % LIMB_BITS);
        self.limbs.get(limb).is_some_and(|l| (l >> off) & 1 == 1)
    }

    /// Set bit `i` to `v`, growing the limb vector as needed.
    pub fn set_bit(&mut self, i: usize, v: bool) {
        let (limb, off) = (i / LIMB_BITS, i % LIMB_BITS);
        if limb >= self.limbs.len() {
            if !v {
                return;
            }
            self.limbs.resize(limb + 1, 0);
        }
        if v {
            self.limbs[limb] |= 1 << off;
        } else {
            self.limbs[limb] &= !(1 << off);
        }
        self.normalize();
    }

    /// Number of trailing zero bits; `None` if the value is zero.
    pub fn trailing_zeros(&self) -> Option<usize> {
        for (i, &l) in self.limbs.iter().enumerate() {
            if l != 0 {
                return Some(i * LIMB_BITS + l.trailing_zeros() as usize);
            }
        }
        None
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    // ------------------------------------------------------------------
    // Conversions
    // ------------------------------------------------------------------

    /// Parse a decimal string.
    pub fn from_decimal(s: &str) -> Result<Self, ParseBigUintError> {
        if s.is_empty() {
            return Err(ParseBigUintError::Empty);
        }
        let mut out = BigUint::zero();
        let ten = BigUint::from(10u64);
        for c in s.chars() {
            let d = c.to_digit(10).ok_or(ParseBigUintError::InvalidDigit(c))?;
            out = &(&out * &ten) + &BigUint::from(d as u64);
        }
        Ok(out)
    }

    /// Parse a hexadecimal string (no `0x` prefix, case-insensitive).
    pub fn from_hex(s: &str) -> Result<Self, ParseBigUintError> {
        if s.is_empty() {
            return Err(ParseBigUintError::Empty);
        }
        let mut limbs = Vec::with_capacity(s.len() / 16 + 1);
        let bytes = s.as_bytes();
        let mut pos = s.len();
        while pos > 0 {
            let start = pos.saturating_sub(16);
            let chunk = &s[start..pos];
            let mut limb = 0u64;
            for &b in bytes[start..pos].iter() {
                let d = (b as char)
                    .to_digit(16)
                    .ok_or(ParseBigUintError::InvalidDigit(b as char))?;
                limb = (limb << 4) | d as u64;
            }
            let _ = chunk;
            limbs.push(limb);
            pos = start;
        }
        Ok(BigUint::from_limbs(limbs))
    }

    /// Render as lowercase hexadecimal (no leading zeros; zero is `"0"`).
    pub fn to_hex(&self) -> String {
        match self.limbs.last() {
            None => "0".to_string(),
            Some(&hi) => {
                let mut s = format!("{hi:x}");
                for &l in self.limbs.iter().rev().skip(1) {
                    s.push_str(&format!("{l:016x}"));
                }
                s
            }
        }
    }

    /// Render as decimal.
    pub fn to_decimal(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        // Repeated division by 10^19 (largest power of ten in a u64).
        const CHUNK: u64 = 10_000_000_000_000_000_000;
        let mut digits: Vec<String> = Vec::new();
        let mut cur = self.clone();
        let chunk = BigUint::from(CHUNK);
        while !cur.is_zero() {
            let (q, r) = cur.div_rem(&chunk);
            digits.push(r.limbs.first().copied().unwrap_or(0).to_string());
            cur = q;
        }
        let mut out = digits.pop().unwrap();
        for d in digits.into_iter().rev() {
            out.push_str(&format!("{:0>19}", d));
        }
        out
    }

    /// Construct from big-endian bytes (leading zero bytes allowed).
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        let mut pos = bytes.len();
        while pos > 0 {
            let start = pos.saturating_sub(8);
            let mut limb = 0u64;
            for &b in &bytes[start..pos] {
                limb = (limb << 8) | b as u64;
            }
            limbs.push(limb);
            pos = start;
        }
        BigUint::from_limbs(limbs)
    }

    /// Render as minimal big-endian bytes (zero renders as an empty vec).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        let mut iter = self.limbs.iter().rev();
        let hi = iter.next().unwrap();
        let hi_bytes = hi.to_be_bytes();
        let skip = hi_bytes.iter().take_while(|&&b| b == 0).count();
        out.extend_from_slice(&hi_bytes[skip..]);
        for l in iter {
            out.extend_from_slice(&l.to_be_bytes());
        }
        out
    }

    /// Render as big-endian bytes left-padded with zeros to exactly `len`
    /// bytes. Panics if the value does not fit.
    pub fn to_bytes_be_padded(&self, len: usize) -> Vec<u8> {
        let raw = self.to_bytes_be();
        assert!(raw.len() <= len, "value does not fit in {len} bytes");
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        out
    }

    /// Lossy conversion to `u64` (low limb; zero if the value is zero).
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// Lossy conversion to `u128`.
    pub fn to_u128(&self) -> Option<u128> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0] as u128),
            2 => Some(self.limbs[0] as u128 | (self.limbs[1] as u128) << 64),
            _ => None,
        }
    }

    // ------------------------------------------------------------------
    // Core arithmetic
    // ------------------------------------------------------------------

    /// `self + other`.
    #[allow(clippy::needless_range_loop)]
    pub fn add_ref(&self, other: &BigUint) -> BigUint {
        let (a, b) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(a.len() + 1);
        let mut carry = 0u64;
        for i in 0..a.len() {
            let bi = b.get(i).copied().unwrap_or(0);
            let (s1, c1) = a[i].overflowing_add(bi);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry != 0 {
            out.push(carry);
        }
        BigUint::from_limbs(out)
    }

    /// `self - other`; panics on underflow.
    pub fn sub_ref(&self, other: &BigUint) -> BigUint {
        self.checked_sub(other)
            .expect("BigUint subtraction underflow")
    }

    /// `self - other`, or `None` on underflow.
    pub fn checked_sub(&self, other: &BigUint) -> Option<BigUint> {
        if self < other {
            return None;
        }
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let bi = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(bi);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        Some(BigUint::from_limbs(out))
    }

    /// Schoolbook multiplication.
    fn mul_schoolbook(a: &[u64], b: &[u64]) -> Vec<u64> {
        if a.is_empty() || b.is_empty() {
            return Vec::new();
        }
        let mut out = vec![0u64; a.len() + b.len()];
        for (i, &ai) in a.iter().enumerate() {
            if ai == 0 {
                continue;
            }
            let mut carry = 0u128;
            for (j, &bj) in b.iter().enumerate() {
                let cur = out[i + j] as u128 + ai as u128 * bj as u128 + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + b.len();
            while carry != 0 {
                let cur = out[k] as u128 + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        out
    }

    /// Karatsuba multiplication for large operands.
    fn mul_karatsuba(a: &[u64], b: &[u64]) -> Vec<u64> {
        if a.len() < KARATSUBA_THRESHOLD || b.len() < KARATSUBA_THRESHOLD {
            return Self::mul_schoolbook(a, b);
        }
        let half = a.len().max(b.len()) / 2;
        let (a0, a1) = Self::split_at_limb(a, half);
        let (b0, b1) = Self::split_at_limb(b, half);

        let z0 = BigUint::from_limbs(Self::mul_karatsuba(&a0.limbs, &b0.limbs));
        let z2 = BigUint::from_limbs(Self::mul_karatsuba(&a1.limbs, &b1.limbs));
        let asum = a0.add_ref(&a1);
        let bsum = b0.add_ref(&b1);
        let z1full = BigUint::from_limbs(Self::mul_karatsuba(&asum.limbs, &bsum.limbs));
        let z1 = z1full.sub_ref(&z0).sub_ref(&z2);

        // result = z2 << (2*half limbs) + z1 << (half limbs) + z0
        let mut out = z2.shl_limbs(2 * half);
        out = out.add_ref(&z1.shl_limbs(half));
        out.add_ref(&z0).limbs
    }

    fn split_at_limb(x: &[u64], at: usize) -> (BigUint, BigUint) {
        if x.len() <= at {
            (BigUint::from_limbs(x.to_vec()), BigUint::zero())
        } else {
            (
                BigUint::from_limbs(x[..at].to_vec()),
                BigUint::from_limbs(x[at..].to_vec()),
            )
        }
    }

    fn shl_limbs(&self, n: usize) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let mut limbs = vec![0u64; n];
        limbs.extend_from_slice(&self.limbs);
        BigUint { limbs }
    }

    /// `self * other`.
    pub fn mul_ref(&self, other: &BigUint) -> BigUint {
        BigUint::from_limbs(Self::mul_karatsuba(&self.limbs, &other.limbs))
    }

    /// Squaring (delegates to multiplication).
    pub fn square(&self) -> BigUint {
        self.mul_ref(self)
    }

    /// Quotient and remainder of `self / divisor`; panics on divide by zero.
    pub fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "BigUint division by zero");
        match self.cmp(divisor) {
            Ordering::Less => return (BigUint::zero(), self.clone()),
            Ordering::Equal => return (BigUint::one(), BigUint::zero()),
            Ordering::Greater => {}
        }
        if divisor.limbs.len() == 1 {
            let (q, r) = self.div_rem_limb(divisor.limbs[0]);
            return (q, BigUint::from(r));
        }
        self.div_rem_knuth(divisor)
    }

    /// Divide by a single limb; returns (quotient, remainder limb).
    pub fn div_rem_limb(&self, d: u64) -> (BigUint, u64) {
        assert!(d != 0, "BigUint division by zero");
        let mut out = vec![0u64; self.limbs.len()];
        let mut rem = 0u128;
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << 64) | self.limbs[i] as u128;
            out[i] = (cur / d as u128) as u64;
            rem = cur % d as u128;
        }
        (BigUint::from_limbs(out), rem as u64)
    }

    /// `self mod d` for a single limb `d`, without building the quotient
    /// [`BigUint::div_rem_limb`] returns: nothing is allocated.
    pub fn rem_limb(&self, d: u64) -> u64 {
        assert!(d != 0, "BigUint division by zero");
        let mut rem = 0u128;
        for &limb in self.limbs.iter().rev() {
            rem = ((rem << 64) | limb as u128) % d as u128;
        }
        rem as u64
    }

    /// Knuth Algorithm D (TAOCP 4.3.1) for multi-limb divisors.
    fn div_rem_knuth(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        // Normalize: shift so the divisor's top limb has its high bit set.
        let shift = divisor.limbs.last().unwrap().leading_zeros() as usize;
        let u = self << shift; // dividend
        let v = divisor << shift; // divisor
        let n = v.limbs.len();
        let m = u.limbs.len().saturating_sub(n);

        let mut un: Vec<u64> = u.limbs.clone();
        un.push(0); // extra high limb for the algorithm
        let vn = &v.limbs;
        let vtop = vn[n - 1];
        let vsecond = if n >= 2 { vn[n - 2] } else { 0 };

        let mut q = vec![0u64; m + 1];
        for j in (0..=m).rev() {
            // Estimate qhat from the top two/three limbs.
            let num = ((un[j + n] as u128) << 64) | un[j + n - 1] as u128;
            let mut qhat = num / vtop as u128;
            let mut rhat = num % vtop as u128;
            while qhat >= 1u128 << 64
                || qhat * vsecond as u128 > ((rhat << 64) | un[j + n - 2] as u128)
            {
                qhat -= 1;
                rhat += vtop as u128;
                if rhat >= 1u128 << 64 {
                    break;
                }
            }
            // Multiply and subtract: un[j..j+n+1] -= qhat * vn.
            let mut borrow = 0i128;
            let mut carry = 0u128;
            for i in 0..n {
                let p = qhat * vn[i] as u128 + carry;
                carry = p >> 64;
                let sub = (un[j + i] as i128) - (p as u64 as i128) - borrow;
                un[j + i] = sub as u64;
                borrow = if sub < 0 { 1 } else { 0 };
            }
            let sub = (un[j + n] as i128) - (carry as i128) - borrow;
            un[j + n] = sub as u64;

            q[j] = qhat as u64;
            if sub < 0 {
                // qhat was one too large: add the divisor back.
                q[j] -= 1;
                let mut c = 0u128;
                for i in 0..n {
                    let s = un[j + i] as u128 + vn[i] as u128 + c;
                    un[j + i] = s as u64;
                    c = s >> 64;
                }
                un[j + n] = un[j + n].wrapping_add(c as u64);
            }
        }
        let rem = BigUint::from_limbs(un[..n].to_vec()) >> shift;
        (BigUint::from_limbs(q), rem)
    }

    /// `self mod m`.
    pub fn rem_ref(&self, m: &BigUint) -> BigUint {
        self.div_rem(m).1
    }

    /// Greatest common divisor (binary GCD).
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let mut a = self.clone();
        let mut b = other.clone();
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        let za = a.trailing_zeros().unwrap();
        let zb = b.trailing_zeros().unwrap();
        let common = za.min(zb);
        a = &a >> za;
        b = &b >> zb;
        // Both odd from here. Each round is `b -= a` and a shift, in
        // place: a round per bit or so, none of which allocates.
        loop {
            if a > b {
                std::mem::swap(&mut a, &mut b);
            }
            let mut borrow = false;
            for (i, limb) in b.limbs.iter_mut().enumerate() {
                let (d, b1) = limb.overflowing_sub(a.limbs.get(i).copied().unwrap_or(0));
                let (d, b2) = d.overflowing_sub(borrow as u64);
                (*limb, borrow) = (d, b1 | b2);
            }
            let Some(zeros) = b.trailing_zeros() else {
                return &a << common;
            };
            b.limbs.drain(..zeros / LIMB_BITS);
            shr_bits(&mut b.limbs, zeros % LIMB_BITS);
            b.normalize();
        }
    }
}

/// Shift `limbs` right by `bit_shift < 64` bits in place.
fn shr_bits(limbs: &mut [u64], bit_shift: usize) {
    if bit_shift != 0 {
        let mut carry = 0u64;
        for l in limbs.iter_mut().rev() {
            let new_carry = *l << (LIMB_BITS - bit_shift);
            *l = (*l >> bit_shift) | carry;
            carry = new_carry;
        }
    }
}

// ----------------------------------------------------------------------
// From conversions
// ----------------------------------------------------------------------

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        if v == 0 {
            BigUint::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }
}

impl From<u32> for BigUint {
    fn from(v: u32) -> Self {
        BigUint::from(v as u64)
    }
}

impl From<u128> for BigUint {
    fn from(v: u128) -> Self {
        BigUint::from_limbs(vec![v as u64, (v >> 64) as u64])
    }
}

// ----------------------------------------------------------------------
// Operator impls (reference-based; owned versions delegate)
// ----------------------------------------------------------------------

impl Add for &BigUint {
    type Output = BigUint;
    fn add(self, rhs: &BigUint) -> BigUint {
        self.add_ref(rhs)
    }
}
impl Add for BigUint {
    type Output = BigUint;
    fn add(self, rhs: BigUint) -> BigUint {
        self.add_ref(&rhs)
    }
}
impl Sub for &BigUint {
    type Output = BigUint;
    fn sub(self, rhs: &BigUint) -> BigUint {
        self.sub_ref(rhs)
    }
}
impl Sub for BigUint {
    type Output = BigUint;
    fn sub(self, rhs: BigUint) -> BigUint {
        self.sub_ref(&rhs)
    }
}
impl Mul for &BigUint {
    type Output = BigUint;
    fn mul(self, rhs: &BigUint) -> BigUint {
        self.mul_ref(rhs)
    }
}
impl Mul for BigUint {
    type Output = BigUint;
    fn mul(self, rhs: BigUint) -> BigUint {
        self.mul_ref(&rhs)
    }
}
impl Rem for &BigUint {
    type Output = BigUint;
    fn rem(self, rhs: &BigUint) -> BigUint {
        self.rem_ref(rhs)
    }
}
impl Add<&BigUint> for BigUint {
    type Output = BigUint;
    fn add(self, rhs: &BigUint) -> BigUint {
        self.add_ref(rhs)
    }
}
impl Sub<&BigUint> for BigUint {
    type Output = BigUint;
    fn sub(self, rhs: &BigUint) -> BigUint {
        self.sub_ref(rhs)
    }
}
impl Mul<&BigUint> for BigUint {
    type Output = BigUint;
    fn mul(self, rhs: &BigUint) -> BigUint {
        self.mul_ref(rhs)
    }
}

impl Shl<usize> for &BigUint {
    type Output = BigUint;
    fn shl(self, n: usize) -> BigUint {
        if self.is_zero() || n == 0 {
            return self.clone();
        }
        let (limb_shift, bit_shift) = (n / LIMB_BITS, n % LIMB_BITS);
        let mut limbs = vec![0u64; limb_shift];
        if bit_shift == 0 {
            limbs.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                limbs.push((l << bit_shift) | carry);
                carry = l >> (LIMB_BITS - bit_shift);
            }
            if carry != 0 {
                limbs.push(carry);
            }
        }
        BigUint::from_limbs(limbs)
    }
}
impl Shl<usize> for BigUint {
    type Output = BigUint;
    fn shl(self, n: usize) -> BigUint {
        &self << n
    }
}

impl Shr<usize> for &BigUint {
    type Output = BigUint;
    fn shr(self, n: usize) -> BigUint {
        let (limb_shift, bit_shift) = (n / LIMB_BITS, n % LIMB_BITS);
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let mut limbs: Vec<u64> = self.limbs[limb_shift..].to_vec();
        shr_bits(&mut limbs, bit_shift);
        BigUint::from_limbs(limbs)
    }
}
impl Shr<usize> for BigUint {
    type Output = BigUint;
    fn shr(self, n: usize) -> BigUint {
        &self >> n
    }
}

macro_rules! bitop {
    ($trait:ident, $method:ident, $op:tt, $zip_long:expr) => {
        impl $trait for &BigUint {
            type Output = BigUint;
            fn $method(self, rhs: &BigUint) -> BigUint {
                let (short, long) = if self.limbs.len() <= rhs.limbs.len() {
                    (&self.limbs, &rhs.limbs)
                } else {
                    (&rhs.limbs, &self.limbs)
                };
                let mut out: Vec<u64> = Vec::with_capacity(long.len());
                for i in 0..long.len() {
                    let s = short.get(i).copied().unwrap_or(0);
                    if i < short.len() || $zip_long {
                        out.push(s $op long[i]);
                    } else {
                        out.push(0);
                    }
                }
                BigUint::from_limbs(out)
            }
        }
    };
}

bitop!(BitAnd, bitand, &, false);
bitop!(BitOr, bitor, |, true);
bitop!(BitXor, bitxor, ^, true);

// ----------------------------------------------------------------------
// Comparison / formatting
// ----------------------------------------------------------------------

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
                    match a.cmp(b) {
                        Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                Ordering::Equal
            }
            ord => ord,
        }
    }
}
impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint(0x{})", self.to_hex())
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_decimal())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> BigUint {
        BigUint::from_decimal(s).unwrap()
    }

    #[test]
    fn zero_and_one_identities() {
        let z = BigUint::zero();
        let o = BigUint::one();
        assert!(z.is_zero());
        assert!(o.is_one());
        assert_eq!(&z + &o, o);
        assert_eq!(&o * &z, z);
        assert_eq!(o.bit_len(), 1);
        assert_eq!(z.bit_len(), 0);
    }

    #[test]
    fn add_with_carry_across_limbs() {
        let a = BigUint::from(u64::MAX);
        let b = BigUint::one();
        let sum = &a + &b;
        assert_eq!(sum.limbs(), &[0, 1]);
        assert_eq!(sum.bit_len(), 65);
    }

    #[test]
    fn sub_with_borrow() {
        let a = BigUint::from_limbs(vec![0, 1]); // 2^64
        let b = BigUint::one();
        assert_eq!((&a - &b).limbs(), &[u64::MAX]);
    }

    #[test]
    fn checked_sub_underflow() {
        let a = BigUint::from(3u64);
        let b = BigUint::from(5u64);
        assert_eq!(a.checked_sub(&b), None);
        assert_eq!(b.checked_sub(&a), Some(BigUint::from(2u64)));
    }

    #[test]
    fn mul_small() {
        assert_eq!(
            &BigUint::from(1234u64) * &BigUint::from(5678u64),
            BigUint::from(1234u64 * 5678)
        );
    }

    #[test]
    fn mul_matches_u128() {
        let a = 0xdead_beef_cafe_f00du64;
        let b = 0x1234_5678_9abc_def0u64;
        let expect = a as u128 * b as u128;
        assert_eq!(&BigUint::from(a) * &BigUint::from(b), BigUint::from(expect));
    }

    #[test]
    fn karatsuba_matches_schoolbook() {
        // 40-limb operands exercise the Karatsuba path.
        let a_limbs: Vec<u64> = (0..40)
            .map(|i| 0x9E3779B97F4A7C15u64.wrapping_mul(i + 1))
            .collect();
        let b_limbs: Vec<u64> = (0..40)
            .map(|i| 0xC2B2AE3D27D4EB4Fu64.wrapping_mul(i + 3))
            .collect();
        let a = BigUint::from_limbs(a_limbs.clone());
        let b = BigUint::from_limbs(b_limbs.clone());
        let kar = a.mul_ref(&b);
        let school = BigUint::from_limbs(BigUint::mul_schoolbook(&a_limbs, &b_limbs));
        assert_eq!(kar, school);
    }

    #[test]
    fn div_rem_roundtrip() {
        let a = n("123456789012345678901234567890123456789");
        let b = n("98765432109876543");
        let (q, r) = a.div_rem(&b);
        assert!(r < b);
        assert_eq!(&(&q * &b) + &r, a);
    }

    #[test]
    fn div_rem_knuth_edge_addback() {
        // Construct a case that exercises the "add back" branch: divisor with
        // high limb just over half the radix.
        let u = BigUint::from_limbs(vec![0, 0, 0x8000_0000_0000_0000]);
        let v = BigUint::from_limbs(vec![1, 0x8000_0000_0000_0000]);
        let (q, r) = u.div_rem(&v);
        assert!(r < v);
        assert_eq!(&(&q * &v) + &r, u);
    }

    #[test]
    fn div_by_one_and_self() {
        let a = n("314159265358979323846264338327950288419716939937510");
        let (q, r) = a.div_rem(&BigUint::one());
        assert_eq!(q, a);
        assert!(r.is_zero());
        let (q, r) = a.div_rem(&a);
        assert!(q.is_one());
        assert!(r.is_zero());
    }

    #[test]
    fn rem_limb_matches_div_rem_limb() {
        let a = n("340282366920938463463374607431768211457123456789");
        for d in [1u64, 2, 3, 281, 65_537, u64::MAX - 58, u64::MAX] {
            assert_eq!(a.rem_limb(d), a.div_rem_limb(d).1, "d={d}");
        }
        assert_eq!(BigUint::zero().rem_limb(7), 0);
        assert_eq!(BigUint::from(6u64).rem_limb(7), 6);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = BigUint::one().div_rem(&BigUint::zero());
    }

    #[test]
    fn shifts_roundtrip() {
        let a = n("87112285931760246646623899502532662132777");
        for s in [1usize, 7, 63, 64, 65, 130] {
            assert_eq!(&(&a << s) >> s, a, "shift {s}");
        }
    }

    #[test]
    fn shr_to_zero() {
        let a = BigUint::from(0xffu64);
        assert!((&a >> 8).is_zero());
        assert!((&a >> 1000).is_zero());
    }

    #[test]
    fn hex_roundtrip() {
        for s in [
            "0",
            "1",
            "ff",
            "deadbeef",
            "123456789abcdef0123456789abcdef",
        ] {
            let v = BigUint::from_hex(s).unwrap();
            assert_eq!(
                v.to_hex(),
                s.trim_start_matches('0')
                    .to_lowercase()
                    .chars()
                    .next()
                    .map_or("0".to_string(), |_| s.to_lowercase())
            );
        }
    }

    #[test]
    fn decimal_roundtrip() {
        for s in [
            "0",
            "1",
            "42",
            "18446744073709551616",
            "340282366920938463463374607431768211456",
        ] {
            assert_eq!(n(s).to_decimal(), s);
        }
    }

    #[test]
    fn bytes_roundtrip() {
        let v = BigUint::from_hex("0102030405060708090a0b0c0d0e0f").unwrap();
        let bytes = v.to_bytes_be();
        assert_eq!(bytes[0], 0x01);
        assert_eq!(BigUint::from_bytes_be(&bytes), v);
        // Leading zeros are accepted on input.
        let mut padded = vec![0u8, 0u8];
        padded.extend_from_slice(&bytes);
        assert_eq!(BigUint::from_bytes_be(&padded), v);
    }

    #[test]
    fn padded_bytes() {
        let v = BigUint::from(0xabcdu64);
        assert_eq!(v.to_bytes_be_padded(4), vec![0, 0, 0xab, 0xcd]);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn padded_bytes_too_small_panics() {
        BigUint::from(0xabcdu64).to_bytes_be_padded(1);
    }

    #[test]
    fn bit_access() {
        let mut v = BigUint::zero();
        v.set_bit(0, true);
        v.set_bit(100, true);
        assert!(v.bit(0));
        assert!(v.bit(100));
        assert!(!v.bit(50));
        assert_eq!(v.bit_len(), 101);
        v.set_bit(100, false);
        assert_eq!(v, BigUint::one());
    }

    #[test]
    fn trailing_zeros() {
        assert_eq!(BigUint::zero().trailing_zeros(), None);
        assert_eq!(BigUint::one().trailing_zeros(), Some(0));
        assert_eq!((&BigUint::one() << 77).trailing_zeros(), Some(77));
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(n("48").gcd(&n("18")), n("6"));
        assert_eq!(n("0").gcd(&n("5")), n("5"));
        assert_eq!(n("5").gcd(&n("0")), n("5"));
        assert_eq!(n("17").gcd(&n("31")), n("1"));
        // gcd of large coprime-by-construction values
        let a = n("123456789012345678901234567891");
        assert_eq!(a.gcd(&a), a);
    }

    #[test]
    fn bit_ops() {
        let a = BigUint::from(0b1100u64);
        let b = BigUint::from(0b1010u64);
        assert_eq!(&a & &b, BigUint::from(0b1000u64));
        assert_eq!(&a | &b, BigUint::from(0b1110u64));
        assert_eq!(&a ^ &b, BigUint::from(0b0110u64));
        // Mismatched lengths: AND truncates, OR/XOR keep long tail.
        let long = BigUint::from_limbs(vec![0xF, 0xF0]);
        assert_eq!(&a & &long, BigUint::from(0b1100u64));
        assert_eq!((&a | &long).limbs(), &[0xF | 0b1100, 0xF0]);
    }

    #[test]
    fn ordering() {
        assert!(n("100") < n("101"));
        assert!(n("18446744073709551616") > n("18446744073709551615"));
        assert_eq!(n("7").cmp(&n("7")), Ordering::Equal);
    }

    #[test]
    fn parse_errors() {
        assert_eq!(BigUint::from_decimal(""), Err(ParseBigUintError::Empty));
        assert_eq!(
            BigUint::from_decimal("12x"),
            Err(ParseBigUintError::InvalidDigit('x'))
        );
        assert_eq!(
            BigUint::from_hex("12g"),
            Err(ParseBigUintError::InvalidDigit('g'))
        );
    }

    #[test]
    fn even_odd() {
        assert!(BigUint::zero().is_even());
        assert!(BigUint::one().is_odd());
        assert!(n("18446744073709551616").is_even());
    }
}
