//! Proxy certificate issuance (paper §3; Internet X.509 Proxy Certificate
//! Profile, later RFC 3820).
//!
//! The defining property: *users create proxies by signing with their own
//! credentials — no CA, no administrator*. That is what makes single
//! sign-on and dynamic delegation lightweight in GSI, and experiment C3
//! in `EXPERIMENTS.md` measures exactly this contrast.
//!
//! Two entry points:
//! * [`issue_proxy`] — local sign-on: generate a fresh key pair and sign a
//!   proxy certificate for it (what `grid-proxy-init` does).
//! * [`issue_delegated_proxy`] — remote delegation: sign a proxy
//!   certificate over a key pair generated *by the remote party*, so the
//!   private key never crosses the wire (GSI delegation over an
//!   established channel; used by `gridsec-tls` and GRAM's step 7).

use crate::cert::{
    key_usage, BasicConstraints, Certificate, Extensions, ProxyCertInfo, ProxyPolicy,
    TbsCertificate, Validity,
};
use crate::credential::Credential;
use crate::PkiError;
use gridsec_bignum::prime::EntropySource;
use gridsec_crypto::rsa::{RsaKeyPair, RsaPublicKey};

/// The kind of proxy to create: the policy its `ProxyCertInfo` carries.
pub type ProxyType = ProxyPolicy;

/// Check that `issuer_cert` may issue a proxy right now, per RFC 3820.
fn check_issuer(issuer_cert: &Certificate, now: u64) -> Result<(), PkiError> {
    if issuer_cert.is_ca() {
        return Err(PkiError::InvalidProxy("CAs must not issue proxies"));
    }
    if !issuer_cert.body().validity.contains(now) {
        return Err(PkiError::Expired {
            now,
            not_before: issuer_cert.body().validity.not_before,
            not_after: issuer_cert.body().validity.not_after,
        });
    }
    if issuer_cert.key_usage() & key_usage::DIGITAL_SIGNATURE == 0 {
        return Err(PkiError::InvalidProxy(
            "issuer lacks digitalSignature key usage",
        ));
    }
    if let Some(info) = &issuer_cert.body().extensions.proxy_cert_info {
        if info.path_len_constraint == Some(0) {
            return Err(PkiError::InvalidProxy("issuer proxy path length exhausted"));
        }
    }
    Ok(())
}

/// Construct the proxy TBS for a given subject key.
fn build_proxy_tbs<E: EntropySource>(
    rng: &mut E,
    issuer_cert: &Certificate,
    subject_key: &RsaPublicKey,
    policy: ProxyPolicy,
    path_len_constraint: Option<u32>,
    now: u64,
    lifetime: u64,
) -> TbsCertificate {
    // Unique CN component: random 64-bit serial, as GT does.
    let mut serial_bytes = [0u8; 8];
    rng.fill_bytes(&mut serial_bytes);
    let serial = u64::from_be_bytes(serial_bytes);

    // Clamp the proxy lifetime into the issuer's own validity window.
    let not_after = now
        .saturating_add(lifetime)
        .min(issuer_cert.body().validity.not_after);

    TbsCertificate {
        serial,
        issuer: issuer_cert.subject().clone(),
        subject: issuer_cert.subject().with_extra_cn(&serial.to_string()),
        validity: Validity {
            not_before: now,
            not_after,
        },
        public_key: subject_key.clone(),
        extensions: Extensions {
            basic_constraints: Some(BasicConstraints {
                is_ca: false,
                path_len: None,
            }),
            key_usage: Some(key_usage::DIGITAL_SIGNATURE | key_usage::KEY_ENCIPHERMENT),
            proxy_cert_info: Some(ProxyCertInfo {
                path_len_constraint,
                policy,
            }),
            subject_alt_names: vec![],
        },
    }
}

/// Create a proxy credential locally ("grid-proxy-init"): a fresh key pair
/// plus a proxy certificate signed by `parent`'s key.
///
/// `lifetime` is in simulation seconds; the default sign-on lifetime in GT
/// was 12 hours, and callers typically pass something similar.
pub fn issue_proxy<E: EntropySource>(
    rng: &mut E,
    parent: &Credential,
    proxy_type: ProxyType,
    key_bits: usize,
    now: u64,
    lifetime: u64,
) -> Result<Credential, PkiError> {
    issue_proxy_with_path_len(rng, parent, proxy_type, None, key_bits, now, lifetime)
}

/// [`issue_proxy`] with an explicit path-length constraint on how many
/// further proxies may hang below the new one.
pub(crate) fn issue_proxy_with_path_len<E: EntropySource>(
    rng: &mut E,
    parent: &Credential,
    proxy_type: ProxyType,
    path_len_constraint: Option<u32>,
    key_bits: usize,
    now: u64,
    lifetime: u64,
) -> Result<Credential, PkiError> {
    check_issuer(parent.certificate(), now)?;
    let key = RsaKeyPair::generate(rng, key_bits);
    let tbs = build_proxy_tbs(
        rng,
        parent.certificate(),
        key.public(),
        proxy_type,
        path_len_constraint,
        now,
        lifetime,
    );
    let cert = Certificate::sign(tbs, parent.key());
    let mut chain = Vec::with_capacity(parent.chain().len() + 1);
    chain.push(cert);
    chain.extend_from_slice(parent.chain());
    Ok(Credential::new(chain, key))
}

/// Delegate to a remote party: sign a proxy certificate over
/// `remote_public_key` (whose private half was generated remotely and
/// never leaves the remote process). Returns the certificate; the remote
/// side appends it to the delegator's chain to assemble its credential.
pub fn issue_delegated_proxy<E: EntropySource>(
    rng: &mut E,
    parent: &Credential,
    remote_public_key: &RsaPublicKey,
    proxy_type: ProxyType,
    now: u64,
    lifetime: u64,
) -> Result<Certificate, PkiError> {
    check_issuer(parent.certificate(), now)?;
    let tbs = build_proxy_tbs(
        rng,
        parent.certificate(),
        remote_public_key,
        proxy_type,
        None,
        now,
        lifetime,
    );
    Ok(Certificate::sign(tbs, parent.key()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ca::CertificateAuthority;
    use crate::name::DistinguishedName;
    use gridsec_crypto::rng::ChaChaRng;

    fn dn(s: &str) -> DistinguishedName {
        DistinguishedName::parse(s).unwrap()
    }

    fn setup() -> (ChaChaRng, CertificateAuthority, Credential) {
        let mut rng = ChaChaRng::from_seed_bytes(b"proxy tests");
        let ca = CertificateAuthority::create_root(&mut rng, dn("/O=G/CN=CA"), 512, 0, 1_000_000);
        let user = ca.issue_identity(&mut rng, dn("/O=G/CN=Jane"), 512, 0, 100_000);
        (rng, ca, user)
    }

    #[test]
    fn proxy_has_rfc3820_shape() {
        let (mut rng, _ca, user) = setup();
        let p = issue_proxy(&mut rng, &user, ProxyType::Impersonation, 512, 10, 1000).unwrap();
        let cert = p.certificate();
        assert!(cert.is_proxy());
        assert!(!cert.is_ca());
        assert_eq!(cert.issuer(), user.subject());
        assert!(cert.subject().is_proxy_extension_of(user.subject()));
        assert!(cert.verify(user.certificate().public_key()));
        assert_eq!(p.chain().len(), user.chain().len() + 1);
    }

    #[test]
    fn proxy_lifetime_clamped_to_issuer() {
        let (mut rng, _ca, user) = setup();
        let p = issue_proxy(&mut rng, &user, ProxyType::Impersonation, 512, 10, u64::MAX).unwrap();
        assert_eq!(
            p.certificate().body().validity.not_after,
            user.certificate().body().validity.not_after
        );
    }

    #[test]
    fn expired_issuer_rejected() {
        let (mut rng, _ca, user) = setup();
        let err =
            issue_proxy(&mut rng, &user, ProxyType::Impersonation, 512, 200_000, 10).unwrap_err();
        assert!(matches!(err, PkiError::Expired { .. }));
    }

    #[test]
    fn proxy_of_proxy() {
        let (mut rng, _ca, user) = setup();
        let p1 = issue_proxy(&mut rng, &user, ProxyType::Impersonation, 512, 10, 1000).unwrap();
        let p2 = issue_proxy(&mut rng, &p1, ProxyType::Impersonation, 512, 20, 500).unwrap();
        assert_eq!(p2.proxy_depth(), 2);
        assert!(p2
            .certificate()
            .subject()
            .is_proxy_extension_of(p1.certificate().subject()));
        assert!(p2.certificate().verify(p1.certificate().public_key()));
    }

    #[test]
    fn path_len_zero_blocks_further_proxies() {
        let (mut rng, _ca, user) = setup();
        let p1 = issue_proxy_with_path_len(
            &mut rng,
            &user,
            ProxyType::Impersonation,
            Some(0),
            512,
            10,
            1000,
        )
        .unwrap();
        let err = issue_proxy(&mut rng, &p1, ProxyType::Impersonation, 512, 20, 100).unwrap_err();
        assert!(matches!(err, PkiError::InvalidProxy(_)));
    }

    #[test]
    fn limited_and_restricted_policies_recorded() {
        let (mut rng, _ca, user) = setup();
        let lim = issue_proxy(&mut rng, &user, ProxyType::Limited, 512, 10, 100).unwrap();
        assert_eq!(
            lim.certificate()
                .body()
                .extensions
                .proxy_cert_info
                .as_ref()
                .unwrap()
                .policy,
            ProxyPolicy::Limited
        );
        let res = issue_proxy(
            &mut rng,
            &user,
            ProxyType::Restricted {
                language: "cas-rights-v1".into(),
                policy: b"read-only".to_vec(),
            },
            512,
            10,
            100,
        )
        .unwrap();
        match &res
            .certificate()
            .body()
            .extensions
            .proxy_cert_info
            .as_ref()
            .unwrap()
            .policy
        {
            ProxyPolicy::Restricted { language, policy } => {
                assert_eq!(language, "cas-rights-v1");
                assert_eq!(policy, b"read-only");
            }
            other => panic!("unexpected policy {other:?}"),
        }
    }

    #[test]
    fn delegated_proxy_signs_remote_key() {
        let (mut rng, _ca, user) = setup();
        // Remote side generates its own key pair.
        let mut remote_rng = ChaChaRng::from_seed_bytes(b"remote");
        let remote_key = RsaKeyPair::generate(&mut remote_rng, 512);
        let cert = issue_delegated_proxy(
            &mut rng,
            &user,
            remote_key.public(),
            ProxyType::Impersonation,
            10,
            1000,
        )
        .unwrap();
        assert_eq!(cert.public_key(), remote_key.public());
        // Remote assembles a credential: [delegated proxy, user chain...].
        let mut chain = vec![cert];
        chain.extend_from_slice(user.chain());
        let remote_cred = Credential::new(chain, remote_key);
        assert_eq!(remote_cred.base_identity(), user.subject());
    }

    #[test]
    fn ca_may_not_issue_proxy() {
        let mut rng = ChaChaRng::from_seed_bytes(b"ca as proxy issuer");
        let ca = CertificateAuthority::create_root(&mut rng, dn("/O=G/CN=CA"), 512, 0, 1000);
        // Build a Credential around the CA cert itself (not normally done).
        // We need the CA key; simulate by issuing a CA-shaped identity.
        // Instead: directly check check_issuer rejects CA certs.
        assert!(matches!(
            super::check_issuer(ca.certificate(), 10),
            Err(PkiError::InvalidProxy(_))
        ));
    }

    #[test]
    fn proxies_have_distinct_subjects() {
        let (mut rng, _ca, user) = setup();
        let p1 = issue_proxy(&mut rng, &user, ProxyType::Impersonation, 512, 10, 100).unwrap();
        let p2 = issue_proxy(&mut rng, &user, ProxyType::Impersonation, 512, 10, 100).unwrap();
        assert_ne!(p1.certificate().subject(), p2.certificate().subject());
    }
}
