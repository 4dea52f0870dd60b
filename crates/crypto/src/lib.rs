//! # gridsec-crypto
//!
//! From-scratch cryptographic primitives for the `gridsec` reproduction of
//! *Security for Grid Services* (Welch et al., HPDC 2003).
//!
//! The paper's Grid Security Infrastructure rests on "public key
//! technologies" (X.509 identity and proxy certificates over TLS, and in
//! GT3 the same keys under XML-Signature / XML-Encryption). The Rust
//! ecosystem substitution documented in `DESIGN.md` is to implement the
//! required primitives here rather than bind OpenSSL:
//!
//! * [`sha256`] — SHA-256 (FIPS 180-4), validated against NIST vectors.
//! * [`hmac`] — HMAC-SHA-256 (RFC 2104) and HKDF (RFC 5869).
//! * [`chacha20`] — the ChaCha20 stream cipher (RFC 8439).
//! * [`poly1305`] — the Poly1305 one-time authenticator (RFC 8439).
//! * [`aead`] — ChaCha20-Poly1305 AEAD composition (RFC 8439).
//! * [`rsa`] — RSA key generation, PKCS#1 v1.5 signatures, and simple
//!   OAEP-less encryption for key transport (research use only).
//! * [`dh`] — finite-field Diffie–Hellman with RFC 3526-style groups.
//! * [`rng`] — a ChaCha20-based deterministic random bit generator plus a
//!   system-seeded convenience constructor.
//! * [`ct`] — constant-time byte comparison.
//!
//! ## Security disclaimer
//!
//! This crate exists so that the *architecture* of GSI can be reproduced
//! and measured. The primitives are correct against published test vectors
//! but are **not** hardened against timing or other side channels, and key
//! sizes used in tests are deliberately small. Do not use for real data.
//!
//! ## Example
//!
//! ```
//! use gridsec_crypto::rng::ChaChaRng;
//! use gridsec_crypto::rsa::RsaKeyPair;
//!
//! let mut rng = ChaChaRng::from_seed_bytes(b"doc example seed");
//! let key = RsaKeyPair::generate(&mut rng, 512);
//! let sig = key.sign_pkcs1_sha256(b"grid service request");
//! assert!(key.public().verify_pkcs1_sha256(b"grid service request", &sig));
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

pub mod aead;
pub mod chacha20;
pub mod ct;
pub mod dh;
pub mod hmac;
pub mod poly1305;
pub mod rng;
pub mod rsa;
pub mod sha256;

/// Errors returned by cryptographic operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CryptoError {
    /// An authentication tag or signature failed to verify.
    VerificationFailed,
    /// Ciphertext or message was malformed (wrong length, bad padding...).
    Malformed(&'static str),
    /// A key was unsuitable for the requested operation.
    InvalidKey(&'static str),
}

impl core::fmt::Display for CryptoError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CryptoError::VerificationFailed => write!(f, "verification failed"),
            CryptoError::Malformed(m) => write!(f, "malformed input: {m}"),
            CryptoError::InvalidKey(m) => write!(f, "invalid key: {m}"),
        }
    }
}

impl std::error::Error for CryptoError {}
