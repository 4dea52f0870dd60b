//! # gridsec-bench
//!
//! The experiment harness for the `gridsec` reproduction of *Security for
//! Grid Services* (Welch et al., HPDC 2003).
//!
//! One Criterion bench target per figure/claim in the DESIGN.md
//! experiment index (`benches/f1..f4, c1..c3, c5`), plus the `c4_report`
//! binary for the least-privilege accounting (a count/report experiment,
//! not a timing one). `EXPERIMENTS.md` records paper-claim vs. measured
//! for every entry.
//!
//! This library holds the shared fixtures so every bench measures the
//! same world.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

use gridsec_bignum::prime::random_bits;
use gridsec_bignum::BigUint;
use gridsec_crypto::rng::ChaChaRng;
use gridsec_pki::ca::CertificateAuthority;
use gridsec_pki::credential::Credential;
use gridsec_pki::name::DistinguishedName;
use gridsec_pki::store::TrustStore;

/// Parse a seed or size given as decimal or `0x` hex (a storm binary's
/// flag or environment value); panics naming `what` when it is neither.
pub fn parse_u64(v: &str, what: &str) -> u64 {
    let v = v.trim();
    if let Some(hex) = v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).unwrap_or_else(|_| panic!("hex {what}"))
    } else {
        v.parse().unwrap_or_else(|_| panic!("decimal {what}"))
    }
}

/// Key size used across benches. Deliberately small (research stack on a
/// single core); the *relative* shapes are what the experiments check.
pub const KEY_BITS: usize = 512;

/// Parse a DN (bench helper).
pub fn dn(s: &str) -> DistinguishedName {
    DistinguishedName::parse(s).expect("bench DN")
}

/// A standard single-CA bench world.
pub struct BenchWorld {
    /// Deterministic RNG.
    pub rng: ChaChaRng,
    /// Root CA.
    pub ca: CertificateAuthority,
    /// Trust store with the CA.
    pub trust: TrustStore,
    /// User credential.
    pub user: Credential,
    /// Service credential.
    pub service: Credential,
    /// Host credential (GRAM benches).
    pub host: Credential,
}

/// Build the standard world.
pub fn bench_world(seed: &[u8]) -> BenchWorld {
    let mut rng = ChaChaRng::from_seed_bytes(seed);
    let ca =
        CertificateAuthority::create_root(&mut rng, dn("/O=B/CN=CA"), KEY_BITS, 0, u64::MAX / 2);
    let user = ca.issue_identity(&mut rng, dn("/O=B/CN=User"), KEY_BITS, 0, u64::MAX / 4);
    let service = ca.issue_identity(&mut rng, dn("/O=B/CN=Service"), KEY_BITS, 0, u64::MAX / 4);
    let host = ca.issue_host_identity(
        &mut rng,
        dn("/O=B/CN=host node1"),
        vec!["node1".to_string()],
        KEY_BITS,
        0,
        u64::MAX / 4,
    );
    let mut trust = TrustStore::new();
    trust.add_root(ca.certificate().clone());
    BenchWorld {
        rng,
        ca,
        trust,
        user,
        service,
        host,
    }
}

/// RSA-sign-shaped modexp operands `(base, exp, modulus)`: odd modulus,
/// full-width base and exponent (`k1_modexp`, `perf_guard`).
pub fn sign_shape(rng: &mut ChaChaRng, bits: usize) -> (BigUint, BigUint, BigUint) {
    let mut modulus = random_bits(rng, bits);
    modulus.set_bit(0, true);
    let base = &random_bits(rng, bits) % &modulus;
    let exp = random_bits(rng, bits);
    (base, exp, modulus)
}

pub mod least_privilege;
pub mod striped;
