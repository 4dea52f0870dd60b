//! The hosting environment's stateless branch verifies signers through a
//! memo keyed by their token: a revocation installed with `set_crls`
//! must still refuse the next message from a signer whose chain the memo
//! already holds, and lifting it must admit the signer again.

use gridsec_authz::policy::{CombiningAlg, PolicySet};
use gridsec_crypto::rng::ChaChaRng;
use gridsec_ogsa::hosting::{parse_fault, HostingEnvironment};
use gridsec_pki::ca::CertificateAuthority;
use gridsec_pki::name::DistinguishedName;
use gridsec_pki::store::{CrlStore, TrustStore};
use gridsec_testbed::clock::SimClock;
use gridsec_wsse::policy::SecurityPolicy;
use gridsec_wsse::soap::Envelope;
use gridsec_wsse::xmlsig;
use gridsec_xml::Element;

fn dn(s: &str) -> DistinguishedName {
    DistinguishedName::parse(s).unwrap()
}

#[test]
fn set_crls_reaches_a_signer_the_memo_holds() {
    let mut rng = ChaChaRng::from_seed_bytes(b"hosting signer memo");
    let ca = CertificateAuthority::create_root(&mut rng, dn("/O=G/CN=CA"), 512, 0, 1_000_000);
    let alice = ca.issue_identity(&mut rng, dn("/O=G/CN=Alice"), 512, 0, 500_000);
    let host = ca.issue_identity(&mut rng, dn("/O=G/CN=Host"), 512, 0, 500_000);
    let mut trust = TrustStore::new();
    trust.add_root(ca.certificate().clone());
    let clock = SimClock::starting_at(100);
    // No rule permits anything: a verified request is refused by
    // authorization, an unverified one by security.
    let policy = SecurityPolicy {
        service: "null".to_string(),
        alternatives: vec![],
    };
    let authz = PolicySet::new(CombiningAlg::DenyOverrides);
    let mut env = HostingEnvironment::new("host", host, trust, clock.clone(), policy, authz);
    let fault = |env: &mut HostingEnvironment| {
        let request = Envelope::request(
            "createService",
            Element::new("ogsa:CreateService").with_attr("type", "null"),
        );
        let signed = xmlsig::sign_envelope(&request, &alice, clock.advance(1), 60);
        let reply = Envelope::parse(&env.handle_message(&signed.to_xml())).unwrap();
        parse_fault(&reply).expect("a fault")
    };

    for _ in 0..3 {
        assert_eq!(fault(&mut env).0, "not-authorized");
    }
    let mut revoking = CrlStore::new();
    assert!(revoking.add(
        ca.issue_crl(vec![alice.certificate().body().serial], 100, 1_000_000),
        ca.certificate()
    ));
    env.set_crls(revoking);
    let (code, message) = fault(&mut env);
    assert_eq!(code, "security");
    assert!(message.contains("revoked"), "{message}");
    env.set_crls(CrlStore::new());
    assert_eq!(fault(&mut env).0, "not-authorized");
}
