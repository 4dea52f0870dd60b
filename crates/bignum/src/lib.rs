//! # gridsec-bignum
//!
//! Arbitrary-precision unsigned integer arithmetic for the `gridsec`
//! reproduction of *Security for Grid Services* (Welch et al., HPDC 2003).
//!
//! This crate is the numeric substrate under `gridsec-crypto`'s RSA and
//! Diffie–Hellman implementations. It provides:
//!
//! * [`BigUint`] — an unsigned big integer stored as little-endian `u64`
//!   limbs, with the full complement of arithmetic, bit, and comparison
//!   operations (Knuth Algorithm D division, Karatsuba multiplication above
//!   a threshold).
//! * [`modular`] — modular exponentiation and modular inverse (extended
//!   Euclid). [`modular::mod_pow`] is a pure function: odd moduli up to
//!   2048 bits go through a [`montgomery::Montgomery`] context, the
//!   rest through the classic 4-bit-window division-per-step kernel,
//!   which is also the differential-testing reference.
//! * [`montgomery`] — the one Montgomery context type: picks the kernel
//!   width for a modulus and exponentiates under it. The hot path under
//!   every RSA sign/verify, DH agreement and Miller–Rabin round in the
//!   workspace.
//! * [`fixed`] — the one kernel: const-generic CIOS multiplication and
//!   sliding-window exponentiation on `[u64; K]` stack arrays, `K` in
//!   {1, 2, 4, 8, 16, 32}.
//! * [`precomp`] — [`precomp::FixedBaseTable`], a windowed table for
//!   squaring-free `g^x` under one `(base, modulus)` pair. Contexts and
//!   tables are plain values, held by the key or group they are a
//!   function of.
//! * [`prime`] — Miller–Rabin probabilistic primality testing behind
//!   trial division by the primes below 2^11, and random prime generation
//!   suitable for RSA and DH parameter creation: a sieved scan from a
//!   random start, one Montgomery context per surviving candidate.
//!
//! The implementation favours clarity and reviewability over raw speed: it
//! is the foundation of a *research* security stack, not a production
//! cryptography library. All algorithms are nonetheless asymptotically
//! reasonable (Karatsuba multiply, limb-wise division) so that the
//! benchmark shapes reported in `EXPERIMENTS.md` are meaningful.
//!
//! ## Example
//!
//! ```
//! use gridsec_bignum::BigUint;
//!
//! let a = BigUint::from_decimal("123456789012345678901234567890").unwrap();
//! let b = BigUint::from(42u64);
//! let (q, r) = a.div_rem(&b);
//! assert_eq!(&(&q * &b) + &r, a);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fixed;
pub mod modular;
pub mod montgomery;
pub mod precomp;
pub mod prime;
mod uint;

pub use uint::BigUint;

/// Errors produced when parsing a [`BigUint`] from text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseBigUintError {
    /// The input string was empty.
    Empty,
    /// The input contained a character outside the radix alphabet.
    InvalidDigit(char),
}

impl core::fmt::Display for ParseBigUintError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ParseBigUintError::Empty => write!(f, "empty big integer literal"),
            ParseBigUintError::InvalidDigit(c) => {
                write!(f, "invalid digit {c:?} in big integer literal")
            }
        }
    }
}

impl std::error::Error for ParseBigUintError {}
