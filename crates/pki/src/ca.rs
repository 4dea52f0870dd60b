//! Certificate authorities and certificate revocation lists.
//!
//! The paper (§3) stresses that CA trust is *unilateral*: "a single entity
//! in an organization can decide to trust any CA, without necessarily
//! involving the organization as a whole". A [`CertificateAuthority`] here
//! is an issuing identity; consumers decide trust by adding the CA
//! certificate to their own [`crate::store::TrustStore`].

use crate::cert::{key_usage, BasicConstraints, Certificate, Extensions, TbsCertificate, Validity};
use crate::credential::Credential;
use crate::encoding::{Codec, Decoder, Encoder};
use crate::name::DistinguishedName;
use crate::signed::Signed;
use crate::PkiError;
use gridsec_bignum::prime::EntropySource;
use gridsec_crypto::rsa::{RsaKeyPair, RsaPublicKey};
use std::sync::atomic::{AtomicU64, Ordering};

/// A certificate authority: a self- or parent-signed CA certificate plus
/// its signing key and a serial counter.
pub struct CertificateAuthority {
    certificate: Certificate,
    key: RsaKeyPair,
    /// Atomic, not a `Cell`: CA fixtures live in `static OnceLock`s that
    /// cargo's test threads share, so a CA is `Sync`.
    next_serial: AtomicU64,
}

impl CertificateAuthority {
    /// Create a self-signed root CA.
    pub fn create_root<E: EntropySource>(
        rng: &mut E,
        name: DistinguishedName,
        key_bits: usize,
        not_before: u64,
        not_after: u64,
    ) -> Self {
        let key = RsaKeyPair::generate(rng, key_bits);
        let tbs = TbsCertificate {
            serial: 1,
            issuer: name.clone(),
            subject: name,
            validity: Validity {
                not_before,
                not_after,
            },
            public_key: key.public().clone(),
            extensions: Extensions {
                basic_constraints: Some(BasicConstraints {
                    is_ca: true,
                    path_len: None,
                }),
                key_usage: Some(key_usage::CERT_SIGN | key_usage::CRL_SIGN),
                proxy_cert_info: None,
                subject_alt_names: vec![],
            },
        };
        let certificate = Certificate::sign(tbs, &key);
        CertificateAuthority {
            certificate,
            key,
            next_serial: AtomicU64::new(2),
        }
    }

    /// The CA's own certificate.
    pub fn certificate(&self) -> &Certificate {
        &self.certificate
    }

    /// Sign an arbitrary TBS built by the caller (low-level hook).
    pub fn issue_certificate(
        &self,
        subject: DistinguishedName,
        public_key: RsaPublicKey,
        validity: Validity,
        extensions: Extensions,
    ) -> Certificate {
        let tbs = TbsCertificate {
            serial: self.next_serial.fetch_add(1, Ordering::Relaxed),
            issuer: self.certificate.subject().clone(),
            subject,
            validity,
            public_key,
            extensions,
        };
        Certificate::sign(tbs, &self.key)
    }

    /// Issue an end-entity (user) credential: generates a key pair and
    /// returns the full [`Credential`]. This is the "enrollment with the
    /// CA" step that the paper contrasts with lightweight proxy creation —
    /// in a real deployment it involves a registration authority and a
    /// human administrator.
    pub fn issue_identity<E: EntropySource>(
        &self,
        rng: &mut E,
        subject: DistinguishedName,
        key_bits: usize,
        not_before: u64,
        not_after: u64,
    ) -> Credential {
        self.issue_host_identity(rng, subject, vec![], key_bits, not_before, not_after)
    }

    /// Issue a host credential (subject alt names carry the host address).
    pub fn issue_host_identity<E: EntropySource>(
        &self,
        rng: &mut E,
        subject: DistinguishedName,
        alt_names: Vec<String>,
        key_bits: usize,
        not_before: u64,
        not_after: u64,
    ) -> Credential {
        let key = RsaKeyPair::generate(rng, key_bits);
        let extensions = Extensions {
            basic_constraints: Some(BasicConstraints {
                is_ca: false,
                path_len: None,
            }),
            key_usage: Some(key_usage::DIGITAL_SIGNATURE | key_usage::KEY_ENCIPHERMENT),
            proxy_cert_info: None,
            subject_alt_names: alt_names,
        };
        let cert = self.issue_certificate(
            subject,
            key.public().clone(),
            Validity {
                not_before,
                not_after,
            },
            extensions,
        );
        Credential::new(vec![cert, self.certificate.clone()], key)
    }

    /// Issue a signed certificate revocation list.
    pub fn issue_crl(&self, revoked_serials: Vec<u64>, this_update: u64, next_update: u64) -> Crl {
        let tbs = CrlTbs {
            issuer: self.certificate.subject().clone(),
            this_update,
            next_update,
            revoked_serials,
        };
        Crl::sign(tbs, &self.key)
    }
}

/// The signed content of a CRL.
#[derive(Clone, PartialEq, Debug)]
pub struct CrlTbs {
    /// Issuing CA name.
    pub issuer: DistinguishedName,
    /// Issuance time.
    pub this_update: u64,
    /// Time by which a fresh CRL must be fetched.
    pub next_update: u64,
    /// Serial numbers of revoked certificates.
    pub revoked_serials: Vec<u64>,
}

/// A certificate revocation list: the bytes its issuing CA signed over
/// a [`CrlTbs`] ([`Signed`]).
pub type Crl = Signed<CrlTbs>;

impl Crl {
    /// `true` iff `serial` appears on the list.
    pub fn is_revoked(&self, serial: u64) -> bool {
        self.body().revoked_serials.contains(&serial)
    }

    /// `true` iff the CRL is stale at `now`.
    pub(crate) fn is_stale(&self, now: u64) -> bool {
        now > self.body().next_update
    }
}

impl Codec for CrlTbs {
    fn encode(&self, enc: &mut Encoder) {
        self.issuer.encode(enc);
        enc.put_u64(self.this_update).put_u64(self.next_update);
        enc.put_seq(&self.revoked_serials, |e, s| {
            e.put_u64(*s);
        });
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, PkiError> {
        Ok(CrlTbs {
            issuer: DistinguishedName::decode(dec)?,
            this_update: dec.get_u64()?,
            next_update: dec.get_u64()?,
            revoked_serials: dec.get_seq(|d| d.get_u64())?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsec_crypto::rng::ChaChaRng;

    impl CertificateAuthority {
        /// Create an intermediate CA certified by `parent`.
        pub(crate) fn create_intermediate<E: EntropySource>(
            rng: &mut E,
            parent: &CertificateAuthority,
            name: DistinguishedName,
            key_bits: usize,
            path_len: Option<u32>,
            validity: Validity,
        ) -> Self {
            let key = RsaKeyPair::generate(rng, key_bits);
            let extensions = Extensions {
                basic_constraints: Some(BasicConstraints {
                    is_ca: true,
                    path_len,
                }),
                key_usage: Some(key_usage::CERT_SIGN | key_usage::CRL_SIGN),
                proxy_cert_info: None,
                subject_alt_names: vec![],
            };
            let certificate =
                parent.issue_certificate(name, key.public().clone(), validity, extensions);
            CertificateAuthority {
                certificate,
                key,
                next_serial: AtomicU64::new(1),
            }
        }
    }

    fn dn(s: &str) -> DistinguishedName {
        DistinguishedName::parse(s).unwrap()
    }

    fn root() -> CertificateAuthority {
        let mut rng = ChaChaRng::from_seed_bytes(b"ca test root");
        CertificateAuthority::create_root(&mut rng, dn("/O=Grid/CN=Root CA"), 512, 0, 1_000_000)
    }

    #[test]
    fn root_is_self_signed_ca() {
        let ca = root();
        let cert = ca.certificate();
        assert!(cert.is_ca());
        assert!(cert.is_self_issued());
        assert!(cert.verify(cert.public_key()));
    }

    #[test]
    fn issued_identity_verifies_against_ca() {
        let ca = root();
        let mut rng = ChaChaRng::from_seed_bytes(b"user");
        let cred = ca.issue_identity(&mut rng, dn("/O=Grid/CN=Jane"), 512, 0, 500_000);
        let leaf = cred.certificate();
        assert!(!leaf.is_ca());
        assert_eq!(leaf.issuer(), ca.certificate().subject());
        assert!(leaf.verify(ca.certificate().public_key()));
        // Chain includes the CA cert.
        assert_eq!(cred.chain().len(), 2);
    }

    #[test]
    fn serials_are_unique() {
        let ca = root();
        let mut rng = ChaChaRng::from_seed_bytes(b"serials");
        let a = ca.issue_identity(&mut rng, dn("/O=Grid/CN=A"), 512, 0, 10);
        let b = ca.issue_identity(&mut rng, dn("/O=Grid/CN=B"), 512, 0, 10);
        assert_ne!(a.certificate().body().serial, b.certificate().body().serial);
    }

    #[test]
    fn intermediate_chain() {
        let ca = root();
        let mut rng = ChaChaRng::from_seed_bytes(b"intermediate");
        let inter = CertificateAuthority::create_intermediate(
            &mut rng,
            &ca,
            dn("/O=Grid/OU=Site/CN=Site CA"),
            512,
            Some(0),
            Validity {
                not_before: 0,
                not_after: 500_000,
            },
        );
        assert!(inter.certificate().is_ca());
        assert!(inter.certificate().verify(ca.certificate().public_key()));
        let mut rng2 = ChaChaRng::from_seed_bytes(b"leaf");
        let cred = inter.issue_identity(&mut rng2, dn("/O=Grid/OU=Site/CN=U"), 512, 0, 100);
        assert!(cred.certificate().verify(inter.certificate().public_key()));
    }

    #[test]
    fn host_identity_carries_alt_names() {
        let ca = root();
        let mut rng = ChaChaRng::from_seed_bytes(b"host");
        let cred = ca.issue_host_identity(
            &mut rng,
            dn("/O=Grid/CN=host compute1.site.org"),
            vec!["compute1.site.org".to_string()],
            512,
            0,
            100,
        );
        assert_eq!(
            cred.certificate().body().extensions.subject_alt_names,
            vec!["compute1.site.org".to_string()]
        );
    }

    #[test]
    fn crl_signs_and_checks() {
        let ca = root();
        let crl = ca.issue_crl(vec![5, 9], 100, 200);
        assert!(crl.verify(ca.certificate().public_key()));
        assert!(crl.is_revoked(5));
        assert!(crl.is_revoked(9));
        assert!(!crl.is_revoked(6));
        assert!(!crl.is_stale(150));
        assert!(crl.is_stale(201));
    }

    #[test]
    fn crl_tamper_detected() {
        let ca = root();
        let crl = ca.issue_crl(vec![5], 100, 200);
        let mut tbs = crl.body().clone();
        tbs.revoked_serials.clear();
        assert!(!crl.forged(&tbs).verify(ca.certificate().public_key()));
    }

    #[test]
    fn crl_codec_roundtrip() {
        let ca = root();
        let crl = ca.issue_crl(vec![1, 2, 3], 100, 200);
        let decoded = Crl::from_bytes(&crl.to_bytes()).unwrap();
        assert_eq!(decoded, crl);
    }
}
