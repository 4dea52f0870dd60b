//! # gridsec-pki
//!
//! X.509-style public key infrastructure with **proxy certificates** —
//! the trust fabric of the Grid Security Infrastructure reproduced from
//! *Security for Grid Services* (Welch et al., HPDC 2003).
//!
//! The paper's §3 rests on three PKI mechanisms, all implemented here:
//!
//! 1. **Identity certificates** issued by certificate authorities
//!    ([`ca::CertificateAuthority`]), with unilateral trust establishment:
//!    any party may add a CA to its [`store::TrustStore`] without
//!    organizational agreements (contrast Kerberos' bilateral realm trust).
//! 2. **Proxy certificates** ([`proxy`]) — the GSI extension (later
//!    RFC 3820) that lets a *user*, not an administrator, create a fresh
//!    identity and delegate some subset of rights to it. Impersonation,
//!    limited, independent, and restricted (policy-carrying) proxies are
//!    supported, with path-length constraints.
//! 3. **Chain validation** ([`validate`]) that enforces CA basic
//!    constraints, validity windows, revocation, and the RFC 3820 proxy
//!    rules (issuer/subject name chaining, one extra CN component, key
//!    usage, effective rights as the *intersection* along the chain).
//!
//! Certificates, CRLs and CAS assertions are [`signed::Signed`] bodies in
//! a deterministic TLV encoding ([`encoding`], "DER-lite"), each checked
//! over the exact bytes its issuer signed, with no ASN.1 stack.
//!
//! ## Example: user proxy creation (paper §3, "grid-proxy-init")
//!
//! ```
//! use gridsec_crypto::rng::ChaChaRng;
//! use gridsec_pki::ca::CertificateAuthority;
//! use gridsec_pki::name::DistinguishedName;
//! use gridsec_pki::proxy::{issue_proxy, ProxyType};
//! use gridsec_pki::store::TrustStore;
//! use gridsec_pki::validate::validate_chain;
//!
//! let mut rng = ChaChaRng::from_seed_bytes(b"pki doc");
//! let ca = CertificateAuthority::create_root(
//!     &mut rng, DistinguishedName::parse("/C=US/O=DOE Science Grid/CN=CA").unwrap(),
//!     512, 0, 10_000_000);
//! let user = ca.issue_identity(
//!     &mut rng, DistinguishedName::parse("/C=US/O=DOE Science Grid/CN=Jane Doe").unwrap(),
//!     512, 0, 1_000_000);
//!
//! // Single sign-on: create a short-lived proxy, no CA involved.
//! let proxy = issue_proxy(&mut rng, &user, ProxyType::Impersonation, 512, 100, 43_300).unwrap();
//!
//! let mut trust = TrustStore::new();
//! trust.add_root(ca.certificate().clone());
//! let id = validate_chain(proxy.chain(), &trust, 500).unwrap();
//! assert_eq!(id.base_identity.to_string(), "/C=US/O=DOE Science Grid/CN=Jane Doe");
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

pub mod ca;
pub mod cert;
pub mod credential;
pub mod encoding;
pub mod name;
pub mod proxy;
pub mod signed;
pub mod store;
pub mod validate;

/// Errors produced by PKI operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PkiError {
    /// A TLV decode failure with context.
    Decode(&'static str),
    /// A signature did not verify.
    BadSignature,
    /// A certificate is outside its validity window.
    Expired {
        /// Time at which validation was attempted.
        now: u64,
        /// Start of the certificate's validity window.
        not_before: u64,
        /// End of the certificate's validity window.
        not_after: u64,
    },
    /// A certificate has been revoked.
    Revoked {
        /// Serial number of the revoked certificate.
        serial: u64,
    },
    /// No trust anchor matches the top of the chain.
    UntrustedRoot,
    /// The chain violates structural rules (details in the message).
    InvalidChain(&'static str),
    /// Proxy-specific rule violation.
    InvalidProxy(&'static str),
    /// Name parsing failed.
    BadName(&'static str),
    /// Attempted operation requires a CA certificate.
    NotACa,
}

impl core::fmt::Display for PkiError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PkiError::Decode(m) => write!(f, "decode error: {m}"),
            PkiError::BadSignature => write!(f, "signature verification failed"),
            PkiError::Expired {
                now,
                not_before,
                not_after,
            } => write!(
                f,
                "certificate not valid at t={now} (window [{not_before}, {not_after}])"
            ),
            PkiError::Revoked { serial } => write!(f, "certificate serial {serial} is revoked"),
            PkiError::UntrustedRoot => write!(f, "no trusted root for chain"),
            PkiError::InvalidChain(m) => write!(f, "invalid chain: {m}"),
            PkiError::InvalidProxy(m) => write!(f, "invalid proxy: {m}"),
            PkiError::BadName(m) => write!(f, "bad distinguished name: {m}"),
            PkiError::NotACa => write!(f, "certificate is not a CA"),
        }
    }
}

impl std::error::Error for PkiError {}
