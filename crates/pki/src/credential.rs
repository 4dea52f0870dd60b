//! Credentials: a certificate chain plus the matching private key.
//!
//! A GSI entity (user, service, or host) authenticates with a
//! [`Credential`]. For a plain identity the chain is
//! `[end-entity cert, CA cert...]`; after `grid-proxy-init` style sign-on
//! the chain grows proxies at the front: `[proxy, EEC, CA...]`.

use crate::cert::Certificate;
use crate::name::DistinguishedName;
use gridsec_crypto::rsa::RsaKeyPair;

/// A certificate chain (leaf first) and the leaf's private key.
#[derive(Clone, Debug)]
pub struct Credential {
    chain: Vec<Certificate>,
    key: RsaKeyPair,
}

impl Credential {
    /// Assemble a credential. `chain[0]` must be the certificate whose
    /// public key matches `key`; this is asserted.
    pub fn new(chain: Vec<Certificate>, key: RsaKeyPair) -> Self {
        assert!(!chain.is_empty(), "credential chain must be non-empty");
        assert_eq!(
            chain[0].public_key(),
            key.public(),
            "leaf certificate must certify the private key"
        );
        Credential { chain, key }
    }

    /// The leaf certificate.
    pub fn certificate(&self) -> &Certificate {
        &self.chain[0]
    }

    /// The full chain, leaf first.
    pub fn chain(&self) -> &[Certificate] {
        &self.chain
    }

    /// The private key.
    pub fn key(&self) -> &RsaKeyPair {
        &self.key
    }

    /// The leaf subject name.
    pub fn subject(&self) -> &DistinguishedName {
        self.certificate().subject()
    }

    /// Sign a message with the leaf key (PKCS#1 v1.5 / SHA-256).
    pub fn sign(&self, msg: &[u8]) -> Vec<u8> {
        self.key.sign_pkcs1_sha256(msg)
    }

    /// Number of proxy certificates at the front of the chain.
    pub fn proxy_depth(&self) -> usize {
        self.chain.iter().take_while(|c| c.is_proxy()).count()
    }

    /// The *base identity*: the subject of the first non-proxy certificate
    /// (the end-entity certificate). For a plain identity this is just the
    /// leaf subject. This is the name the paper's grid-mapfile and the
    /// "proxies of the same user trust each other" policy key on.
    pub fn base_identity(&self) -> &DistinguishedName {
        self.chain
            .iter()
            .find(|c| !c.is_proxy())
            .map(|c| c.subject())
            .unwrap_or_else(|| self.certificate().subject())
    }
}

#[cfg(test)]
mod tests {
    use crate::ca::CertificateAuthority;
    use crate::name::DistinguishedName;
    use crate::proxy::{issue_proxy, ProxyType};
    use gridsec_crypto::rng::ChaChaRng;

    fn dn(s: &str) -> DistinguishedName {
        DistinguishedName::parse(s).unwrap()
    }

    #[test]
    fn debug_prints_no_private_key() {
        let mut rng = ChaChaRng::from_seed_bytes(b"cred debug");
        let ca = CertificateAuthority::create_root(&mut rng, dn("/O=G/CN=CA"), 512, 0, 1000);
        let cred = ca.issue_identity(&mut rng, dn("/O=G/CN=Jane"), 512, 0, 500);
        let shown = format!("{cred:?}");
        let (p, q) = cred.key().primes();
        for secret in [cred.key().private_exponent(), p, q] {
            assert!(!shown.contains(&secret.to_hex()), "{shown}");
        }
    }

    #[test]
    fn base_identity_of_plain_credential() {
        let mut rng = ChaChaRng::from_seed_bytes(b"cred plain");
        let ca = CertificateAuthority::create_root(&mut rng, dn("/O=G/CN=CA"), 512, 0, 1000);
        let cred = ca.issue_identity(&mut rng, dn("/O=G/CN=Jane"), 512, 0, 500);
        assert_eq!(cred.base_identity(), &dn("/O=G/CN=Jane"));
        assert_eq!(cred.proxy_depth(), 0);
        assert_eq!(cred.subject(), &dn("/O=G/CN=Jane"));
    }

    #[test]
    fn base_identity_pierces_proxies() {
        let mut rng = ChaChaRng::from_seed_bytes(b"cred proxy");
        let ca = CertificateAuthority::create_root(&mut rng, dn("/O=G/CN=CA"), 512, 0, 10_000);
        let user = ca.issue_identity(&mut rng, dn("/O=G/CN=Jane"), 512, 0, 10_000);
        let p1 = issue_proxy(&mut rng, &user, ProxyType::Impersonation, 512, 10, 100).unwrap();
        let p2 = issue_proxy(&mut rng, &p1, ProxyType::Impersonation, 512, 10, 50).unwrap();
        assert_eq!(p2.proxy_depth(), 2);
        assert_eq!(p2.base_identity(), &dn("/O=G/CN=Jane"));
        assert_ne!(p2.subject(), &dn("/O=G/CN=Jane"));
    }

    #[test]
    fn same_base_identity_rule() {
        let mut rng = ChaChaRng::from_seed_bytes(b"cred same");
        let ca = CertificateAuthority::create_root(&mut rng, dn("/O=G/CN=CA"), 512, 0, 10_000);
        let jane = ca.issue_identity(&mut rng, dn("/O=G/CN=Jane"), 512, 0, 10_000);
        let eve = ca.issue_identity(&mut rng, dn("/O=G/CN=Eve"), 512, 0, 10_000);
        let jp1 = issue_proxy(&mut rng, &jane, ProxyType::Impersonation, 512, 10, 100).unwrap();
        let jp2 = issue_proxy(&mut rng, &jane, ProxyType::Impersonation, 512, 10, 100).unwrap();
        let ep = issue_proxy(&mut rng, &eve, ProxyType::Impersonation, 512, 10, 100).unwrap();
        // The GT2 implicit trust rule between proxies issued by the
        // same user (paper §3) compares base identities.
        assert_eq!(jp1.base_identity(), jp2.base_identity());
        assert_eq!(jp1.base_identity(), jane.base_identity());
        assert_ne!(jp1.base_identity(), ep.base_identity());
    }

    #[test]
    fn signing_uses_leaf_key() {
        let mut rng = ChaChaRng::from_seed_bytes(b"cred sign");
        let ca = CertificateAuthority::create_root(&mut rng, dn("/O=G/CN=CA"), 512, 0, 1000);
        let cred = ca.issue_identity(&mut rng, dn("/O=G/CN=Jane"), 512, 0, 500);
        let sig = cred.sign(b"request");
        assert!(cred
            .certificate()
            .public_key()
            .verify_pkcs1_sha256(b"request", &sig));
    }

    #[test]
    #[should_panic(expected = "leaf certificate must certify")]
    fn mismatched_key_panics() {
        let mut rng = ChaChaRng::from_seed_bytes(b"cred mismatch");
        let ca = CertificateAuthority::create_root(&mut rng, dn("/O=G/CN=CA"), 512, 0, 1000);
        let a = ca.issue_identity(&mut rng, dn("/O=G/CN=A"), 512, 0, 500);
        let b = ca.issue_identity(&mut rng, dn("/O=G/CN=B"), 512, 0, 500);
        let _ = super::Credential::new(a.chain().to_vec(), b.key().clone());
    }
}
