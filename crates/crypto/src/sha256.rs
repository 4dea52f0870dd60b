//! SHA-256 (FIPS 180-4).
//!
//! The implementation lives in [`gridsec_util::sha256`] so the testbed's
//! simulated filesystem can keep a stored digest beside each file with
//! the same code every protocol hashes with; this module re-exports it
//! under the crate's historical path.

pub use gridsec_util::sha256::{sha256, Sha256, BLOCK_LEN, DIGEST_LEN};
