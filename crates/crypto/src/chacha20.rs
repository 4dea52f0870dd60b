//! The ChaCha20 stream cipher (RFC 8439).
//!
//! Used directly by the AEAD construction in [`crate::aead`] and as the
//! core of the deterministic random bit generator in [`crate::rng`].
//!
//! The block core lives in [`gridsec_util::chacha`] so the workspace's
//! deterministic test RNG shares the same audited keystream; this module
//! re-exports it under the crate's historical path.

pub use gridsec_util::chacha::{block, xor_stream, BLOCK_LEN, KEY_LEN, NONCE_LEN};
