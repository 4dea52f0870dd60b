//! # gridsec-util
//!
//! Self-contained infrastructure shared by the whole `gridsec` workspace,
//! replacing every crates.io dependency so the workspace builds hermetically
//! with zero registry access (the hosting-environment argument of Welch et
//! al. §4: security infrastructure should own its dependency closure).
//!
//! * [`sync`] — non-poisoning [`sync::Mutex`]/[`sync::RwLock`] wrappers over
//!   `std::sync` with the `parking_lot` guard-returning signatures.
//! * [`chacha`] — the ChaCha20 block core (RFC 8439), shared by
//!   `gridsec-crypto`'s cipher/AEAD/DRBG and by [`rng::DetRng`].
//! * [`rng`] — the [`rng::RngCore`] entropy abstraction, a deterministic
//!   seedable ChaCha-backed RNG, and an OS entropy source.
//! * [`check`] — a minimal property-testing harness (seeded cases,
//!   failing-seed reporting, shrink-by-replay).
//! * [`bench`] — a criterion-shaped micro-benchmark runner emitting
//!   median/p95 JSON reports (`BENCH_*.json`).
//! * [`pins`] — the golden tests' pinned digests, read from the one
//!   checked-in `tests/golden.pins` that `scripts/repin.sh` rewrites.
//! * [`retry`] — the shared exponential-backoff [`retry::RetryPolicy`]
//!   used by every client path that crosses the simulated network.
//! * [`throttle`] — a deterministic token-bucket bandwidth limiter
//!   driven by an explicit caller clock (the striped-GridFTP rate cap).
//! * [`trace`] — deterministic structured tracing/metrics with a bounded
//!   flight recorder; every security flow emits nested spans through it.

#![forbid(unsafe_code)]

pub mod bench;
pub mod chacha;
pub mod check;
pub mod pins;
pub mod retry;
pub mod rng;
pub mod sync;
pub mod throttle;
pub mod trace;
