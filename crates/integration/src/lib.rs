//! # gridsec-integration
//!
//! The workspace's whole-paper layer: the seeded chaos scenarios and
//! the storms that drive every crate together, and the cross-crate
//! integration tests that check them.
//!
//! * [`scenarios`] — the paper-figure chaos scenarios (Figures 1–5,
//!   the striped transfer, the cross-domain VO submission and the
//!   portal's recovery), each started from one chaos rig over a lossy
//!   network with seeded crashes, and the storms (`vo_storm`,
//!   `expiry_storm`, `crypto_storm`) on their shared storm engine. The
//!   chaos suite, the golden pins and the bench crate's bins replay
//!   them.
//! * The repository-level `tests/` directory (wired in through
//!   `[[test]]` path entries) holds the whole-paper tests: `chaos.rs`,
//!   `end_to_end.rs` (VO formation, GRAM across domains, OGSA services,
//!   audit), `cross_mechanism.rs` (Kerberos ⇄ PKI bridging through KCA
//!   and SSLK5), `adversarial.rs` (stolen tokens, replays, forged
//!   chains, confused deputies, revocation) and more; this crate's own
//!   `tests/` holds the storm, striped-transfer and chaos goldens.
//! * [`dn`] and [`basic_world`] — shared fixture helpers.

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
