//! # gridsec-gsi
//!
//! The public facade of the `gridsec` reproduction of *Security for Grid
//! Services* (Welch et al., HPDC 2003): the Grid Security Infrastructure
//! as a downstream user consumes it.
//!
//! * [`sso`] — single sign-on: `grid-proxy-init`-style proxy creation
//!   and session management (paper §3, "dynamic creation of entities").
//! * [`vo`] — virtual organizations: building the policy-domain overlay
//!   of Figure 1 over multiple classical domains, with explicit
//!   accounting of *unilateral* trust acts versus the *bilateral*
//!   agreements a Kerberos fabric would need (experiment F1).
//! * [`prelude`] — one-import access to the types most applications
//!   need, re-exported from the underlying crates.
//!
//! The layering below this crate mirrors the paper: PKI with proxy
//! certificates (`gridsec-pki`), TLS/GSS transport security
//! (`gridsec-tls`, `gridsec-gssapi`), Web services security
//! (`gridsec-wsse`), authorization and CAS (`gridsec-authz`), OGSA
//! hosting (`gridsec-ogsa`), security services (`gridsec-services`), and
//! GRAM (`gridsec-gram`), all running on the simulated testbed
//! (`gridsec-testbed`).
//!
//! ## Quickstart
//!
//! ```
//! use gridsec_gsi::prelude::*;
//! use gridsec_gsi::sso;
//!
//! let mut rng = ChaChaRng::from_seed_bytes(b"quickstart");
//! // A certificate authority and a user identity (enrollment).
//! let ca = CertificateAuthority::create_root(
//!     &mut rng, DistinguishedName::parse("/O=Grid/CN=CA").unwrap(), 512, 0, 10_000_000);
//! let user = ca.issue_identity(
//!     &mut rng, DistinguishedName::parse("/O=Grid/CN=Jane").unwrap(), 512, 0, 1_000_000);
//!
//! // Single sign-on: a 12-hour proxy, no administrator involved.
//! let session = sso::grid_proxy_init(&mut rng, &user, sso::ProxyOptions::default(), 0).unwrap();
//! assert_eq!(session.credential().base_identity().to_string(), "/O=Grid/CN=Jane");
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

pub mod sso;
pub mod vo;

/// One-import convenience: the types most applications need.
pub mod prelude {
    pub use gridsec_authz::cas::{CasAssertion, CasServer, ResourceGate};
    pub use gridsec_authz::gridmap::GridMapFile;
    pub use gridsec_authz::policy::{
        CombiningAlg, Decision, Effect, PolicySet, Request, Rule, SubjectMatch,
    };
    pub use gridsec_crypto::rng::ChaChaRng;
    pub use gridsec_gram::{GramResource, JobDescription, JobState, Requestor};
    pub use gridsec_ogsa::client::{OgsaClient, StaticCredential};
    pub use gridsec_ogsa::hosting::HostingEnvironment;
    pub use gridsec_ogsa::service::{GridService, RequestContext};
    pub use gridsec_pki::ca::CertificateAuthority;
    pub use gridsec_pki::credential::Credential;
    pub use gridsec_pki::name::DistinguishedName;
    pub use gridsec_pki::proxy::{issue_proxy, ProxyType};
    pub use gridsec_pki::store::{CrlStore, TrustStore};
    pub use gridsec_pki::validate::{validate_chain, EffectiveRights, ValidatedIdentity};
    pub use gridsec_testbed::clock::SimClock;
    pub use gridsec_testbed::net::Network;
    pub use gridsec_testbed::os::SimOs;
    pub use gridsec_wsse::policy::{PolicyAlternative, Protection, SecurityPolicy};
    pub use gridsec_wsse::soap::Envelope;
    pub use gridsec_xml::Element;
}
