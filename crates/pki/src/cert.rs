//! Certificates: the TBS ("to-be-signed") structure, extensions, and
//! signature verification.
//!
//! Mirrors the X.509v3 profile GSI relies on: basic constraints for CAs,
//! key usage, and the `ProxyCertInfo` extension from the Internet X.509
//! Proxy Certificate Profile (the paper's reference 28, later RFC 3820).

use crate::encoding::{Codec, Decoder, Encoder};
use crate::name::DistinguishedName;
use crate::PkiError;
use gridsec_crypto::rsa::{RsaKeyPair, RsaPublicKey};
use gridsec_crypto::sha256::sha256;

/// Key usage bit flags (subset relevant to GSI).
pub mod key_usage {
    /// May sign application data / protocol messages.
    pub const DIGITAL_SIGNATURE: u8 = 0b0000_0001;
    /// May be used to encrypt key material (RSA key transport).
    pub const KEY_ENCIPHERMENT: u8 = 0b0000_0010;
    /// May sign certificates (CAs and proxy issuers).
    pub(crate) const CERT_SIGN: u8 = 0b0000_0100;
    /// May sign certificate revocation lists.
    pub(crate) const CRL_SIGN: u8 = 0b0000_1000;
}

/// Certificate validity window in simulation seconds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Validity {
    /// First instant (inclusive) at which the certificate is valid.
    pub not_before: u64,
    /// Last instant (inclusive) at which the certificate is valid.
    pub not_after: u64,
}

impl Validity {
    /// `true` iff `now` falls inside the window.
    pub fn contains(&self, now: u64) -> bool {
        self.not_before <= now && now <= self.not_after
    }
}

/// The `BasicConstraints` extension.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BasicConstraints {
    /// `true` for certificate authorities.
    pub is_ca: bool,
    /// Maximum number of intermediate CAs below this one.
    pub path_len: Option<u32>,
}

/// The policy carried in a `ProxyCertInfo` extension (RFC 3820 §3.8).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ProxyPolicy {
    /// Proxy inherits all rights of the issuer ("impersonation proxy").
    Impersonation,
    /// Proxy inherits a site-defined reduced right set (GT2's "limited
    /// proxy": e.g. may transfer files but not start jobs).
    Limited,
    /// Proxy has only rights granted directly to its own new identity.
    Independent,
    /// Rights constrained by an embedded policy expression.
    Restricted {
        /// Identifier of the policy language (e.g. `"cas-rights-v1"`).
        language: String,
        /// Opaque policy bytes interpreted by the named language.
        policy: Vec<u8>,
    },
}

/// The `ProxyCertInfo` extension.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ProxyCertInfo {
    /// Maximum depth of further proxies below this one (`None` = no limit).
    pub path_len_constraint: Option<u32>,
    /// The delegation policy.
    pub policy: ProxyPolicy,
}

/// The extension set of a certificate.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Extensions {
    /// CA marker and path length.
    pub basic_constraints: Option<BasicConstraints>,
    /// Key usage flags (see [`key_usage`]).
    pub key_usage: Option<u8>,
    /// Present iff the certificate is a proxy certificate.
    pub proxy_cert_info: Option<ProxyCertInfo>,
    /// DNS-style alternative names (used for host certificates).
    pub subject_alt_names: Vec<String>,
}

/// The to-be-signed portion of a certificate.
#[derive(Clone, PartialEq, Debug)]
pub struct TbsCertificate {
    /// Serial number, unique per issuer.
    pub serial: u64,
    /// Name of the signing entity.
    pub issuer: DistinguishedName,
    /// Name of the certified entity.
    pub subject: DistinguishedName,
    /// Validity window.
    pub validity: Validity,
    /// The certified public key.
    pub public_key: RsaPublicKey,
    /// X.509v3-style extensions.
    pub extensions: Extensions,
}

/// A signed certificate.
#[derive(Clone, PartialEq, Debug)]
pub struct Certificate {
    /// The signed content.
    pub tbs: TbsCertificate,
    /// PKCS#1 v1.5 / SHA-256 signature by the issuer over the encoded TBS.
    pub signature: Vec<u8>,
}

impl Certificate {
    /// Sign a TBS structure with the issuer's key.
    pub fn sign(tbs: TbsCertificate, issuer_key: &RsaKeyPair) -> Certificate {
        let signature = issuer_key.sign_pkcs1_sha256(&tbs.to_bytes());
        Certificate { tbs, signature }
    }

    /// Verify this certificate's signature against a candidate issuer key.
    pub fn verify_signature(&self, issuer_key: &RsaPublicKey) -> bool {
        issuer_key.verify_pkcs1_sha256(&self.tbs.to_bytes(), &self.signature)
    }

    /// `true` iff marked as a CA via basic constraints.
    pub(crate) fn is_ca(&self) -> bool {
        self.tbs
            .extensions
            .basic_constraints
            .is_some_and(|bc| bc.is_ca)
    }

    /// `true` iff this is a proxy certificate (carries `ProxyCertInfo`).
    pub(crate) fn is_proxy(&self) -> bool {
        self.tbs.extensions.proxy_cert_info.is_some()
    }

    /// `true` iff issuer == subject (candidate trust anchor shape).
    pub(crate) fn is_self_issued(&self) -> bool {
        self.tbs.issuer == self.tbs.subject
    }

    /// Key usage flags; absent extension means "no restriction" and is
    /// returned as all-bits-set.
    pub(crate) fn key_usage(&self) -> u8 {
        self.tbs.extensions.key_usage.unwrap_or(u8::MAX)
    }

    /// SHA-256 over the full encoded certificate.
    pub(crate) fn fingerprint(&self) -> [u8; 32] {
        sha256(&self.to_bytes())
    }

    /// Subject shorthand.
    pub fn subject(&self) -> &DistinguishedName {
        &self.tbs.subject
    }

    /// Issuer shorthand.
    pub fn issuer(&self) -> &DistinguishedName {
        &self.tbs.issuer
    }

    /// Public-key shorthand.
    pub fn public_key(&self) -> &RsaPublicKey {
        &self.tbs.public_key
    }
}

// ----------------------------------------------------------------------
// Codec impls
// ----------------------------------------------------------------------

impl Codec for Validity {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.not_before).put_u64(self.not_after);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, PkiError> {
        Ok(Validity {
            not_before: dec.get_u64()?,
            not_after: dec.get_u64()?,
        })
    }
}

impl Codec for BasicConstraints {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(self.is_ca as u8);
        enc.put_option(self.path_len.as_ref(), |e, v| {
            e.put_u32(*v);
        });
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, PkiError> {
        let is_ca = match dec.get_u8()? {
            0 => false,
            1 => true,
            _ => return Err(PkiError::Decode("bad bool")),
        };
        let path_len = dec.get_option(|d| d.get_u32())?;
        Ok(BasicConstraints { is_ca, path_len })
    }
}

impl Codec for ProxyPolicy {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            ProxyPolicy::Impersonation => {
                enc.put_u8(0);
            }
            ProxyPolicy::Limited => {
                enc.put_u8(1);
            }
            ProxyPolicy::Independent => {
                enc.put_u8(2);
            }
            ProxyPolicy::Restricted { language, policy } => {
                enc.put_u8(3).put_str(language).put_bytes(policy);
            }
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, PkiError> {
        Ok(match dec.get_u8()? {
            0 => ProxyPolicy::Impersonation,
            1 => ProxyPolicy::Limited,
            2 => ProxyPolicy::Independent,
            3 => ProxyPolicy::Restricted {
                language: dec.get_str()?,
                policy: dec.get_bytes()?,
            },
            _ => return Err(PkiError::Decode("unknown proxy policy tag")),
        })
    }
}

impl Codec for ProxyCertInfo {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_option(self.path_len_constraint.as_ref(), |e, v| {
            e.put_u32(*v);
        });
        self.policy.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, PkiError> {
        Ok(ProxyCertInfo {
            path_len_constraint: dec.get_option(|d| d.get_u32())?,
            policy: ProxyPolicy::decode(dec)?,
        })
    }
}

impl Codec for Extensions {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_option(self.basic_constraints.as_ref(), |e, v| v.encode(e));
        enc.put_option(self.key_usage.as_ref(), |e, v| {
            e.put_u8(*v);
        });
        enc.put_option(self.proxy_cert_info.as_ref(), |e, v| v.encode(e));
        enc.put_seq(&self.subject_alt_names, |e, s| {
            e.put_str(s);
        });
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, PkiError> {
        Ok(Extensions {
            basic_constraints: dec.get_option(BasicConstraints::decode)?,
            key_usage: dec.get_option(|d| d.get_u8())?,
            proxy_cert_info: dec.get_option(ProxyCertInfo::decode)?,
            subject_alt_names: dec.get_seq(|d| d.get_str())?,
        })
    }
}

/// Encode a public key as (n, e) — shared with protocol crates that
/// ship bare public keys (e.g. GSI delegation CSRs).
pub fn encode_public_key(enc: &mut Encoder, key: &RsaPublicKey) {
    enc.put_biguint(key.modulus()).put_biguint(key.exponent());
}

/// Decode a public key from (n, e).
pub fn decode_public_key(dec: &mut Decoder<'_>) -> Result<RsaPublicKey, PkiError> {
    let n = dec.get_biguint()?;
    let e = dec.get_biguint()?;
    if n.is_zero() || e.is_zero() {
        return Err(PkiError::Decode("degenerate public key"));
    }
    Ok(RsaPublicKey::new(n, e))
}

impl Codec for TbsCertificate {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.serial);
        self.issuer.encode(enc);
        self.subject.encode(enc);
        self.validity.encode(enc);
        encode_public_key(enc, &self.public_key);
        self.extensions.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, PkiError> {
        Ok(TbsCertificate {
            serial: dec.get_u64()?,
            issuer: DistinguishedName::decode(dec)?,
            subject: DistinguishedName::decode(dec)?,
            validity: Validity::decode(dec)?,
            public_key: decode_public_key(dec)?,
            extensions: Extensions::decode(dec)?,
        })
    }
}

impl Codec for Certificate {
    fn encode(&self, enc: &mut Encoder) {
        self.tbs.encode(enc);
        enc.put_bytes(&self.signature);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, PkiError> {
        Ok(Certificate {
            tbs: TbsCertificate::decode(dec)?,
            signature: dec.get_bytes()?,
        })
    }
}

/// A chain's binary wire encoding: `put_seq` of the certificates, count
/// first. The one writer of it; a credential keeps its chain's
/// ([`crate::credential::Credential::encoded_chain`]) and
/// [`WireChain::decode`] reads it.
pub(crate) fn encode_chain(chain: &[Certificate]) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_seq(chain, |e, c| c.encode(e));
    enc.finish()
}

/// A chain as it arrived: the certificates and the exact bytes they
/// were decoded from. Only [`WireChain::decode`] makes one, so the bytes
/// always decode to these certificates, and a verdict filed under the
/// bytes ([`crate::validate::CachedValidator::validate_wire`]) is the
/// verdict of these certificates.
pub struct WireChain<'a> {
    certs: Vec<Certificate>,
    wire: &'a [u8],
}

impl<'a> WireChain<'a> {
    /// Read a chain's wire encoding, keeping the span it occupied.
    pub fn decode(dec: &mut Decoder<'a>) -> Result<Self, PkiError> {
        let (certs, wire) = dec.get_seq_raw(Certificate::decode)?;
        Ok(WireChain { certs, wire })
    }

    /// The decoded certificates, leaf first.
    pub fn certs(&self) -> &[Certificate] {
        &self.certs
    }

    /// The bytes the chain was decoded from, count included.
    pub fn wire(&self) -> &'a [u8] {
        self.wire
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsec_crypto::rng::ChaChaRng;

    fn keypair(seed: &[u8]) -> RsaKeyPair {
        let mut rng = ChaChaRng::from_seed_bytes(seed);
        RsaKeyPair::generate(&mut rng, 512)
    }

    fn sample_tbs(key: &RsaPublicKey) -> TbsCertificate {
        TbsCertificate {
            serial: 42,
            issuer: DistinguishedName::parse("/O=Grid/CN=CA").unwrap(),
            subject: DistinguishedName::parse("/O=Grid/CN=Jane").unwrap(),
            validity: Validity {
                not_before: 100,
                not_after: 200,
            },
            public_key: key.clone(),
            extensions: Extensions {
                basic_constraints: Some(BasicConstraints {
                    is_ca: false,
                    path_len: None,
                }),
                key_usage: Some(key_usage::DIGITAL_SIGNATURE | key_usage::KEY_ENCIPHERMENT),
                proxy_cert_info: None,
                subject_alt_names: vec!["host.grid.example".to_string()],
            },
        }
    }

    #[test]
    fn sign_and_verify() {
        let ca_key = keypair(b"ca");
        let subj_key = keypair(b"subj");
        let cert = Certificate::sign(sample_tbs(subj_key.public()), &ca_key);
        assert!(cert.verify_signature(ca_key.public()));
        assert!(!cert.verify_signature(subj_key.public()));
    }

    #[test]
    fn tamper_detection() {
        let ca_key = keypair(b"ca");
        let subj_key = keypair(b"subj");
        let mut cert = Certificate::sign(sample_tbs(subj_key.public()), &ca_key);
        cert.tbs.serial = 43;
        assert!(!cert.verify_signature(ca_key.public()));
    }

    #[test]
    fn codec_roundtrip_full() {
        let ca_key = keypair(b"ca");
        let subj_key = keypair(b"subj");
        let mut tbs = sample_tbs(subj_key.public());
        tbs.extensions.proxy_cert_info = Some(ProxyCertInfo {
            path_len_constraint: Some(3),
            policy: ProxyPolicy::Restricted {
                language: "cas-rights-v1".to_string(),
                policy: vec![1, 2, 3],
            },
        });
        let cert = Certificate::sign(tbs, &ca_key);
        let decoded = Certificate::from_bytes(&cert.to_bytes()).unwrap();
        assert_eq!(decoded, cert);
        assert!(decoded.verify_signature(ca_key.public()));
    }

    #[test]
    fn proxy_policy_variants_roundtrip() {
        for p in [
            ProxyPolicy::Impersonation,
            ProxyPolicy::Limited,
            ProxyPolicy::Independent,
            ProxyPolicy::Restricted {
                language: "x".into(),
                policy: vec![],
            },
        ] {
            assert_eq!(ProxyPolicy::from_bytes(&p.to_bytes()).unwrap(), p);
        }
    }

    #[test]
    fn validity_window() {
        let v = Validity {
            not_before: 10,
            not_after: 20,
        };
        assert!(!v.contains(9));
        assert!(v.contains(10));
        assert!(v.contains(15));
        assert!(v.contains(20));
        assert!(!v.contains(21));
    }

    #[test]
    fn classification_helpers() {
        let ca_key = keypair(b"ca");
        let mut tbs = sample_tbs(ca_key.public());
        tbs.extensions.basic_constraints = Some(BasicConstraints {
            is_ca: true,
            path_len: Some(0),
        });
        tbs.subject = tbs.issuer.clone();
        let cert = Certificate::sign(tbs, &ca_key);
        assert!(cert.is_ca());
        assert!(cert.is_self_issued());
        assert!(!cert.is_proxy());
    }

    #[test]
    fn key_usage_default_is_permissive() {
        let ca_key = keypair(b"ca");
        let mut tbs = sample_tbs(ca_key.public());
        tbs.extensions.key_usage = None;
        let cert = Certificate::sign(tbs, &ca_key);
        assert_eq!(cert.key_usage(), u8::MAX);
    }

    #[test]
    fn fingerprint_changes_with_content() {
        let ca_key = keypair(b"ca");
        let subj_key = keypair(b"subj");
        let c1 = Certificate::sign(sample_tbs(subj_key.public()), &ca_key);
        let mut tbs2 = sample_tbs(subj_key.public());
        tbs2.serial = 43;
        let c2 = Certificate::sign(tbs2, &ca_key);
        assert_ne!(c1.fingerprint(), c2.fingerprint());
    }

    #[test]
    fn degenerate_public_key_rejected() {
        let mut enc = Encoder::new();
        enc.put_biguint(&gridsec_bignum::BigUint::zero())
            .put_biguint(&gridsec_bignum::BigUint::from(65537u64));
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        assert!(decode_public_key(&mut dec).is_err());
    }
}
