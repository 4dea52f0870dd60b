//! Adversarial integration tests: attacks cut across layers, so their
//! tests should too. Every scenario here is an attack the paper's
//! architecture is supposed to stop; each test asserts the exact refusal.

use gridsec_authz::gridmap::GridMapFile;
use gridsec_gram::resource::{GramConfig, GramResource};
use gridsec_gram::{GramError, JobDescription, Requestor};
use gridsec_gsi::sso;
use gridsec_integration::{basic_world, dn};
use gridsec_pki::ca::CertificateAuthority;
use gridsec_pki::cert::{Certificate, TbsCertificate};
use gridsec_pki::encoding::Codec;
use gridsec_pki::proxy::{issue_proxy, ProxyType};
use gridsec_pki::store::{CrlStore, TrustStore};
use gridsec_pki::validate::{validate_chain, validate_chain_with_crls};
use gridsec_testbed::clock::SimClock;
use gridsec_testbed::os::SimOs;
use gridsec_wsse::soap::Envelope;
use gridsec_wsse::xmlsig;
use gridsec_xml::Element;

/// `cert`'s signature beside `body`, encoded then decoded: a forgery as
/// it arrives.
fn forged(cert: &Certificate, body: &TbsCertificate) -> Certificate {
    let signature = &cert.to_bytes()[cert.body().to_bytes().len()..];
    Certificate::from_bytes(&[body.to_bytes(), signature.to_vec()].concat())
        .expect("a forgery decodes")
}

/// Replaying a captured signed job request after its timestamp expires
/// must fail, even though the signature itself is still valid.
#[test]
fn replayed_signed_request_rejected_after_expiry() {
    let mut w = basic_world(b"adv replay");
    let env = Envelope::request("createManagedJob", Element::new("j").with_text("/bin/x"));
    let signed = xmlsig::sign_envelope(&env, &w.user, 100, 60);
    let parsed = Envelope::parse(&signed.to_xml()).unwrap();
    // Within the window: fine.
    assert!(xmlsig::verify_envelope(&parsed, &w.trust, &CrlStore::new(), 150).is_ok());
    // Replay later: stale.
    assert!(matches!(
        xmlsig::verify_envelope(&parsed, &w.trust, &CrlStore::new(), 200).unwrap_err(),
        gridsec_wsse::WsseError::Stale { .. }
    ));
    let _ = &mut w;
}

/// An attacker who captures a user's *proxy certificate* (but not its
/// private key) cannot construct a working credential.
#[test]
fn stolen_proxy_cert_without_key_is_useless() {
    let mut w = basic_world(b"adv stolen proxy");
    let session =
        sso::grid_proxy_init(&mut w.rng, &w.user, sso::ProxyOptions::default(), 0).unwrap();
    // The attacker has the chain (public) and their own key.
    let attacker_key = gridsec_crypto::rsa::RsaKeyPair::generate(&mut w.rng, 512);
    // Assembling a Credential with a mismatched key is rejected outright.
    let result = std::panic::catch_unwind(|| {
        gridsec_pki::credential::Credential::new(
            session.credential().chain().to_vec(),
            attacker_key,
        )
    });
    assert!(result.is_err());
}

/// A user cannot escalate: signing a proxy that claims a *different*
/// base identity fails validation at the name-chaining check.
#[test]
fn identity_grafting_rejected() {
    let mut w = basic_world(b"adv grafting");
    let eve =
        w.ca.issue_identity(&mut w.rng, dn("/O=G/CN=Eve"), 512, 0, 1_000_000);
    // Eve issues a proxy... then doctors its subject to extend User's DN.
    let proxy = issue_proxy(&mut w.rng, &eve, ProxyType::Impersonation, 512, 10, 1000).unwrap();
    let mut chain = proxy.chain().to_vec();
    let mut tbs = chain[0].body().clone();
    tbs.subject = dn("/O=G/CN=User").with_extra_cn("1337");
    chain[0] = forged(&chain[0], &tbs);
    let err = validate_chain(&chain, &w.trust, 100).unwrap_err();
    assert!(matches!(
        err,
        gridsec_pki::PkiError::BadSignature | gridsec_pki::PkiError::InvalidProxy(_)
    ));
}

/// Revoking a user's EEC kills every live proxy derived from it, across
/// the whole stack (chain validation and message verification).
#[test]
fn revocation_cascades_to_all_derived_credentials() {
    let mut w = basic_world(b"adv revocation");
    let session =
        sso::grid_proxy_init(&mut w.rng, &w.user, sso::ProxyOptions::default(), 0).unwrap();
    let deep = issue_proxy(
        &mut w.rng,
        session.credential(),
        ProxyType::Impersonation,
        512,
        10,
        10_000,
    )
    .unwrap();

    let serial = w.user.certificate().body().serial;
    let crl = w.ca.issue_crl(vec![serial], 50, 1_000_000);
    let mut crls = CrlStore::new();
    assert!(crls.add(crl, w.ca.certificate()));

    // Chain validation fails for both proxy levels.
    assert!(validate_chain_with_crls(session.credential().chain(), &w.trust, &crls, 100).is_err());
    assert!(validate_chain_with_crls(deep.chain(), &w.trust, &crls, 100).is_err());

    // Signed messages from the revoked identity are rejected too.
    let env = Envelope::request("op", Element::new("x"));
    let signed = xmlsig::sign_envelope(&env, &deep, 100, 300);
    assert!(xmlsig::verify_envelope(
        &Envelope::parse(&signed.to_xml()).unwrap(),
        &w.trust,
        &crls,
        150
    )
    .is_err());
}

/// Confused-deputy at GRAM: Eve, who IS a mapped user, submits a job and
/// then tries to hijack Jane's MJS in step 7. The MJS's owner check and
/// Jane's GRIM check both refuse.
#[test]
fn mjs_hijack_by_other_mapped_user_fails() {
    let mut rng = gridsec_crypto::rng::ChaChaRng::from_seed_bytes(b"adv hijack");
    let clock = SimClock::starting_at(100);
    let ca = CertificateAuthority::create_root(&mut rng, dn("/O=G/CN=CA"), 512, 0, 10_000_000);
    let jane = ca.issue_identity(&mut rng, dn("/O=G/CN=Jane"), 512, 0, 1_000_000);
    let eve = ca.issue_identity(&mut rng, dn("/O=G/CN=Eve"), 512, 0, 1_000_000);
    let host = ca.issue_host_identity(
        &mut rng,
        dn("/O=G/CN=host h1"),
        vec!["h1".to_string()],
        512,
        0,
        1_000_000,
    );
    let mut trust = TrustStore::new();
    trust.add_root(ca.certificate().clone());
    let gridmap = GridMapFile::parse("\"/O=G/CN=Jane\" jdoe\n\"/O=G/CN=Eve\" eve\n").unwrap();
    let mut resource = GramResource::install(
        SimOs::new(),
        clock.clone(),
        "h1",
        trust.clone(),
        host,
        &gridmap,
        GramConfig::default(),
    )
    .unwrap();

    // Jane submits (steps 1-6 only; she has not connected yet).
    let mut jane_req = Requestor::new(jane, trust.clone(), b"jane");
    let signed = jane_req.signed_request(&JobDescription::new("/bin/x"), clock.now());
    let outcome = resource.submit(&signed).unwrap();

    // Eve races to connect to Jane's MJS.
    let mut eve_req = Requestor::new(eve, trust.clone(), b"eve");
    let err = eve_req
        .connect_and_start(&mut resource, &outcome.mjs_handle, None, clock.now())
        .unwrap_err();
    // Eve fails her own GRIM check (the credential embeds Jane's
    // identity) — the client-side refusal the paper describes.
    assert!(matches!(err, GramError::GrimRejected(_)), "got {err:?}");

    // Even if Eve skipped her client-side check, the MJS owner check
    // refuses to start the job for her: she presents her own delegated
    // credential, but she does not own the MJS.
    let eve2 = ca.issue_identity(&mut rng, dn("/O=G/CN=Eve"), 512, 0, 1000);
    let eve_delegated = issue_proxy(
        &mut rng,
        &eve2,
        ProxyType::Impersonation,
        512,
        clock.now(),
        500,
    )
    .unwrap();
    let err = resource
        .mjs_start_job(&outcome.mjs_handle, &dn("/O=G/CN=Eve"), eve_delegated)
        .unwrap_err();
    assert!(matches!(err, GramError::NotAuthorized(_)));
}

/// Limited proxies must not pass where full impersonation is required:
/// a resource policy can see the difference after validation.
#[test]
fn limited_proxy_visibly_limited_everywhere() {
    let mut w = basic_world(b"adv limited");
    let limited = issue_proxy(&mut w.rng, &w.user, ProxyType::Limited, 512, 0, 10_000).unwrap();
    // Stateless message verification surfaces the limitation.
    let env = Envelope::request("op", Element::new("x"));
    let signed = xmlsig::sign_envelope(&env, &limited, 10, 300);
    let verified = xmlsig::verify_envelope(
        &Envelope::parse(&signed.to_xml()).unwrap(),
        &w.trust,
        &CrlStore::new(),
        50,
    )
    .unwrap();
    assert_eq!(
        verified.identity.rights,
        gridsec_pki::validate::EffectiveRights::Limited
    );
    // And so does a GSS context peer.
    use gridsec_gssapi::context::establish_in_memory;
    use gridsec_tls::handshake::TlsConfig;
    let (_ic, ac) = establish_in_memory(
        TlsConfig::new(limited, w.trust.clone(), 50),
        TlsConfig::new(w.service.clone(), w.trust.clone(), 50),
        &mut w.rng,
    )
    .unwrap();
    assert_eq!(
        ac.peer().rights,
        gridsec_pki::validate::EffectiveRights::Limited
    );
}
