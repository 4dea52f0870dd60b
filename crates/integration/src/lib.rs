//! # gridsec-integration
//!
//! Cross-crate integration tests for the `gridsec` workspace. The test
//! sources live in the repository-level `tests/` directory (wired in via
//! `[[test]]` path entries) and exercise whole-paper scenarios:
//!
//! * `end_to_end.rs` — a complete multi-domain grid: VO formation, GRAM
//!   job submission across domains, OGSA services, and audit.
//! * `cross_mechanism.rs` — Kerberos ⇄ PKI bridging through KCA and
//!   SSLK5 feeding GRAM and OGSA flows.
//! * `adversarial.rs` — attack scenarios across layers: stolen tokens,
//!   replays, forged chains, confused-deputy attempts, and revocation.
//!
//! This crate intentionally exports a few shared fixture helpers.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod scenarios;

use gridsec_crypto::rng::ChaChaRng;
use gridsec_pki::ca::CertificateAuthority;
use gridsec_pki::credential::Credential;
use gridsec_pki::name::DistinguishedName;
use gridsec_pki::store::TrustStore;

/// Parse a DN or panic (test helper).
pub fn dn(s: &str) -> DistinguishedName {
    DistinguishedName::parse(s).expect("test DN")
}

/// A ready-made single-CA world for integration tests.
pub struct BasicWorld {
    /// Deterministic RNG.
    pub rng: ChaChaRng,
    /// The root CA.
    pub ca: CertificateAuthority,
    /// Trust store containing the CA.
    pub trust: TrustStore,
    /// A user credential.
    pub user: Credential,
    /// A service/host credential.
    pub service: Credential,
}

/// Build a [`BasicWorld`] with the given RNG seed.
pub fn basic_world(seed: &[u8]) -> BasicWorld {
    let mut rng = ChaChaRng::from_seed_bytes(seed);
    let ca = CertificateAuthority::create_root(&mut rng, dn("/O=G/CN=CA"), 512, 0, 10_000_000);
    let user = ca.issue_identity(&mut rng, dn("/O=G/CN=User"), 512, 0, 1_000_000);
    let service = ca.issue_identity(&mut rng, dn("/O=G/CN=Service"), 512, 0, 1_000_000);
    let mut trust = TrustStore::new();
    trust.add_root(ca.certificate().clone());
    BasicWorld {
        rng,
        ca,
        trust,
        user,
        service,
    }
}
