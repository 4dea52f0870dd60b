//! Credentials: a certificate chain plus the matching private key.
//!
//! A GSI entity (user, service, or host) authenticates with a
//! [`Credential`]. For a plain identity the chain is
//! `[end-entity cert, CA cert...]`; after `grid-proxy-init` style sign-on
//! the chain grows proxies at the front: `[proxy, EEC, CA...]`.

use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::cert::{encode_chain, Certificate};
use crate::name::DistinguishedName;
use gridsec_crypto::rsa::RsaKeyPair;

/// A certificate chain (leaf first) and the leaf's private key.
///
/// Immutable once built, so clones share one value: a clone — per
/// principal config, per accepted hello — is a reference-count bump.
/// `Arc`, not `Rc`: credential fixtures live in `static OnceLock`s that
/// cargo's test threads share, so a credential is `Sync`.
#[derive(Clone)]
pub struct Credential {
    inner: Arc<Inner>,
}

struct Inner {
    chain: Vec<Certificate>,
    /// The chain as every protocol ships it, encoded the first time one
    /// ships it: a credential that is only held (a job's delegated
    /// proxy) never pays for it.
    encoded_chain: OnceLock<Vec<u8>>,
    key: RsaKeyPair,
}

impl fmt::Debug for Credential {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Credential")
            .field("chain", &self.inner.chain)
            .field("key", &self.inner.key)
            .finish_non_exhaustive()
    }
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
        Credential {
            inner: Arc::new(Inner {
                chain,
                encoded_chain: OnceLock::new(),
                key,
            }),
        }
    }

    /// The leaf certificate.
    pub fn certificate(&self) -> &Certificate {
        &self.inner.chain[0]
    }

    /// The full chain, leaf first.
    pub fn chain(&self) -> &[Certificate] {
        &self.inner.chain
    }

    /// The chain's wire encoding — the bytes `put_seq` of
    /// [`Self::chain`] writes — computed once, on first use, and shared
    /// by every clone. Hellos, delegations and signed envelopes ship it
    /// with `put_raw`.
    pub fn encoded_chain(&self) -> &[u8] {
        self.inner
            .encoded_chain
            .get_or_init(|| encode_chain(&self.inner.chain))
    }

    /// The private key.
    pub fn key(&self) -> &RsaKeyPair {
        &self.inner.key
    }

    /// The leaf subject name.
    pub fn subject(&self) -> &DistinguishedName {
        self.certificate().subject()
    }

    /// Sign a message with the leaf key (PKCS#1 v1.5 / SHA-256).
    pub fn sign(&self, msg: &[u8]) -> Vec<u8> {
        self.inner.key.sign_pkcs1_sha256(msg)
    }

    /// Number of proxy certificates at the front of the chain.
    pub fn proxy_depth(&self) -> usize {
        self.chain().iter().take_while(|c| c.is_proxy()).count()
    }

    /// The *base identity*: the subject of the first non-proxy certificate
    /// (the end-entity certificate). For a plain identity this is just the
    /// leaf subject. This is the name the paper's grid-mapfile and the
    /// "proxies of the same user trust each other" policy key on.
    pub fn base_identity(&self) -> &DistinguishedName {
        self.chain()
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
    fn encoded_chain_is_put_seq_of_the_chain_for_every_minted_shape() {
        use crate::encoding::{Codec, Encoder};
        let mut rng = ChaChaRng::from_seed_bytes(b"cred encoded chain");
        let ca = CertificateAuthority::create_root(&mut rng, dn("/O=G/CN=CA"), 512, 0, 10_000);
        let eec = ca.issue_identity(&mut rng, dn("/O=G/CN=Jane"), 512, 0, 10_000);
        let host = ca.issue_host_identity(
            &mut rng,
            dn("/O=G/CN=host h1"),
            vec!["h1".into()],
            512,
            0,
            10_000,
        );
        let p1 = issue_proxy(&mut rng, &eec, ProxyType::Impersonation, 512, 10, 900).unwrap();
        let p2 = issue_proxy(&mut rng, &p1, ProxyType::Impersonation, 512, 10, 800).unwrap();
        let p3 = issue_proxy(&mut rng, &p2, ProxyType::Impersonation, 512, 10, 700).unwrap();
        let limited = issue_proxy(&mut rng, &eec, ProxyType::Limited, 512, 10, 900).unwrap();
        let restricted = ProxyType::Restricted {
            language: "cas-rights-v1".into(),
            policy: b"read /data".to_vec(),
        };
        let restricted = issue_proxy(&mut rng, &p1, restricted, 512, 10, 800).unwrap();
        let independent =
            issue_proxy(&mut rng, &eec, ProxyType::Independent, 512, 10, 900).unwrap();
        let shapes = [eec, host, p1, p2, p3, limited, restricted, independent];
        for (i, cred) in shapes.iter().enumerate() {
            // Cloned before the first encode: the clone still shares it.
            let clone = cred.clone();
            let mut enc = Encoder::new();
            enc.put_seq(cred.chain(), |e, c| c.encode(e));
            assert_eq!(cred.encoded_chain(), enc.finish(), "shape {i}");
            assert!(
                std::ptr::eq(clone.encoded_chain(), cred.encoded_chain()),
                "shape {i}: a clone shares its original's encoding"
            );
            assert!(std::ptr::eq(clone.chain(), cred.chain()), "shape {i}");
        }
        assert_eq!(shapes[4].proxy_depth(), 3);
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
