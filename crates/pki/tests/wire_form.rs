//! A certificate is the bytes its issuer signed. A body re-framed into
//! other bytes — here a modulus written with one leading zero byte, which
//! decodes to the same value — still decodes, but fails its own
//! signature, so every valid chain has exactly one wire form.

use gridsec_crypto::rng::ChaChaRng;
use gridsec_pki::ca::CertificateAuthority;
use gridsec_pki::cert::Certificate;
use gridsec_pki::credential::Credential;
use gridsec_pki::encoding::{Codec, Encoder};
use gridsec_pki::name::DistinguishedName;
use gridsec_pki::store::TrustStore;
use gridsec_pki::validate::validate_chain;
use gridsec_pki::PkiError;

fn dn(s: &str) -> DistinguishedName {
    DistinguishedName::parse(s).unwrap()
}

fn world() -> (CertificateAuthority, Credential, TrustStore) {
    let mut rng = ChaChaRng::from_seed_bytes(b"wire form");
    let ca = CertificateAuthority::create_root(&mut rng, dn("/O=G/CN=CA"), 512, 0, 1_000_000);
    let user = ca.issue_identity(&mut rng, dn("/O=G/CN=U"), 512, 0, 1_000_000);
    let mut trust = TrustStore::new();
    trust.add_root(ca.certificate().clone());
    (ca, user, trust)
}

/// `cert`'s body with its modulus zero-padded by one byte, beside
/// `cert`'s own signature.
fn padded(cert: &Certificate) -> Vec<u8> {
    let tbs = cert.body();
    let mut enc = Encoder::new();
    enc.put_u64(tbs.serial);
    tbs.issuer.encode(&mut enc);
    tbs.subject.encode(&mut enc);
    tbs.validity.encode(&mut enc);
    let modulus = [&[0u8][..], &tbs.public_key.modulus().to_bytes_be()].concat();
    enc.put_bytes(&modulus)
        .put_biguint(tbs.public_key.exponent());
    tbs.extensions.encode(&mut enc);
    let signature = &cert.to_bytes()[tbs.to_bytes().len()..];
    enc.put_raw(signature);
    enc.finish()
}

#[test]
fn a_padded_modulus_decodes_but_the_chain_is_refused() {
    let (ca, user, trust) = world();
    let original = user.certificate();
    let reframed = padded(original);
    let decoded = Certificate::from_bytes(&reframed).expect("a padded modulus decodes");
    let chain = [decoded.clone(), ca.certificate().clone()];
    assert_eq!(
        validate_chain(&chain, &trust, 500).map(|id| id.subject.to_string()),
        Err(PkiError::BadSignature),
        "the issuer did not sign these bytes"
    );

    assert_eq!(reframed.len(), original.to_bytes().len() + 1);
    assert_eq!(decoded.body(), original.body(), "the same body value");
    assert_eq!(decoded.to_bytes(), reframed, "held as it arrived");
    assert_ne!(&decoded, original, "but not the same certificate");
    let honest = validate_chain(user.chain(), &trust, 500).unwrap();
    assert_eq!(honest.subject.to_string(), "/O=G/CN=U");
}

#[test]
fn a_re_framed_trusted_root_carried_in_the_chain_is_not_trusted() {
    let (ca, user, trust) = world();
    let root = Certificate::from_bytes(&padded(ca.certificate())).expect("decodes");
    assert_eq!(root.body(), ca.certificate().body());
    let chain = [user.certificate().clone(), root];
    // Not the trusted root's bytes, so the walk anchors on the trusted
    // root by name, whose key did not sign these bytes.
    assert_eq!(
        validate_chain(&chain, &trust, 500).map(|id| id.subject.to_string()),
        Err(PkiError::BadSignature)
    );
}
