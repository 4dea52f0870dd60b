//! Differential: a warm `verify_envelope_cached` — its memo already
//! holding the signer's `BinarySecurityToken` — returns exactly what a
//! fresh `verify_envelope` returns, error included, for every case of
//! `xmlsig`'s unit tests and the stateless cases of the workspace's
//! `tests/adversarial.rs`. Each case also states whether its verdict
//! came from a memo hit, so a case meant to exercise the warm path
//! cannot pass on a walk.

use gridsec_crypto::rng::ChaChaRng;
use gridsec_pki::ca::CertificateAuthority;
use gridsec_pki::credential::Credential;
use gridsec_pki::name::DistinguishedName;
use gridsec_pki::proxy::{issue_proxy, ProxyType};
use gridsec_pki::store::{CrlStore, TrustStore};
use gridsec_pki::validate::CachedValidator;
use gridsec_wsse::soap::Envelope;
use gridsec_wsse::xmlsig::{
    encode_chain, sign_envelope, verify_envelope, verify_envelope_cached, SIGNER_MEMO_CAPACITY,
};
use gridsec_xml::Element;

fn dn(s: &str) -> DistinguishedName {
    DistinguishedName::parse(s).unwrap()
}

fn job_envelope() -> Envelope {
    Envelope::request(
        "createService",
        Element::new("gram:JobRequest")
            .with_child(Element::new("gram:Executable").with_text("/bin/sim"))
            .with_child(Element::new("gram:Queue").with_text("batch")),
    )
}

/// `credential`'s signature over `env`, as a receiver parses it.
fn signed(env: &Envelope, credential: &Credential, now: u64, ttl: u64) -> Envelope {
    Envelope::parse(&sign_envelope(env, credential, now, ttl).to_xml()).unwrap()
}

struct Case {
    name: &'static str,
    /// Signs the warm-up message that puts its token in the memo.
    signer: Credential,
    /// The envelope as received.
    received: Envelope,
    trust: TrustStore,
    crls: CrlStore,
    now: u64,
    /// The stores the warm-up was verified under.
    warm_trust: TrustStore,
    warm_crls: CrlStore,
    /// A fragment of the fresh verdict's `Debug` form: what the case is.
    expect: &'static str,
    /// Whether the warm verdict is a memo hit.
    hit: bool,
}

fn cases() -> Vec<Case> {
    let mut rng = ChaChaRng::from_seed_bytes(b"xmlsig memo differential");
    let ca = CertificateAuthority::create_root(&mut rng, dn("/O=G/CN=CA"), 512, 0, 1_000_000);
    let alice = ca.issue_identity(&mut rng, dn("/O=G/CN=Alice"), 512, 0, 100_000);
    let carl = ca.issue_identity(&mut rng, dn("/O=G/CN=Carl"), 512, 0, 100_000);
    let mut trust = TrustStore::new();
    trust.add_root(ca.certificate().clone());
    let rogue = CertificateAuthority::create_root(&mut rng, dn("/O=Evil/CN=CA"), 512, 0, 1_000_000);
    let mallory = rogue.issue_identity(&mut rng, dn("/O=G/CN=Alice"), 512, 0, 100_000);
    let mut rogue_trust = trust.clone();
    rogue_trust.add_root(rogue.certificate().clone());
    let proxy = issue_proxy(&mut rng, &alice, ProxyType::Impersonation, 512, 50, 10_000).unwrap();
    let deep = issue_proxy(&mut rng, &proxy, ProxyType::Impersonation, 512, 60, 5_000).unwrap();
    let limited = issue_proxy(&mut rng, &alice, ProxyType::Limited, 512, 0, 10_000).unwrap();
    let mut revoking = CrlStore::new();
    assert!(revoking.add(
        ca.issue_crl(vec![alice.certificate().body().serial], 50, 1_000_000),
        ca.certificate()
    ));
    let none = CrlStore::new();

    let job = job_envelope();
    let alice_job = signed(&job, &alice, 100, 300);
    let case = |name, signer: &Credential, received, now, expect, hit| Case {
        name,
        signer: signer.clone(),
        received,
        trust: trust.clone(),
        crls: none.clone(),
        now,
        warm_trust: trust.clone(),
        warm_crls: none.clone(),
        expect,
        hit,
    };

    let tampered_body = {
        let mut env = alice_job.clone();
        env.body[0] = Element::new("gram:JobRequest")
            .with_child(Element::new("gram:Executable").with_text("/bin/evil"));
        env
    };
    let tampered_signed_info = Envelope::parse(
        &sign_envelope(&job, &alice, 100, 300)
            .to_xml()
            .replace("urn:gridsec:sha256", "urn:gridsec:sha256-weakened"),
    )
    .unwrap();
    let swapped = {
        let other = Envelope::request("transfer", Element::new("ftp:Get").with_text("/data"));
        let mut env = signed(&other, &alice, 100, 300);
        env.headers = alice_job.headers.clone();
        env
    };
    // Carl's signature carrying Alice's token: checked under the
    // memoised leaf key, which is Alice's.
    let foreign_signature = Envelope::parse(
        &sign_envelope(&job, &carl, 100, 300)
            .to_xml()
            .replace(&encode_chain(&carl), &encode_chain(&alice)),
    )
    .unwrap();

    vec![
        case(
            "sign_verify_roundtrip",
            &alice,
            alice_job.clone(),
            150,
            "Ok",
            true,
        ),
        case(
            "proxy_signed_message_verifies_to_base_identity",
            &proxy,
            signed(&job, &proxy, 100, 300),
            150,
            "proxy_depth: 1",
            true,
        ),
        case(
            "tampered_body_rejected",
            &alice,
            tampered_body,
            150,
            "DigestMismatch",
            true,
        ),
        case(
            "tampered_signed_info_rejected",
            &alice,
            tampered_signed_info,
            150,
            "BadSignature",
            true,
        ),
        case(
            "expired_message_rejected",
            &alice,
            signed(&job, &alice, 100, 50),
            200,
            "Stale",
            true,
        ),
        Case {
            // The memo was warmed under a trust store that also trusted
            // the rogue CA; swapping in the real one must flush it.
            warm_trust: rogue_trust,
            ..case(
                "untrusted_signer_rejected",
                &mallory,
                signed(&job, &mallory, 100, 300),
                150,
                "UntrustedRoot",
                false,
            )
        },
        Case {
            crls: revoking.clone(),
            ..case(
                "revoked_signer_rejected",
                &alice,
                alice_job.clone(),
                150,
                "Revoked",
                false,
            )
        },
        case(
            "unsigned_envelope_rejected",
            &alice,
            job_envelope(),
            100,
            "Missing",
            false,
        ),
        case(
            "signature_swap_across_messages_rejected",
            &alice,
            swapped,
            150,
            "DigestMismatch",
            true,
        ),
        case(
            "foreign_signature_under_a_memoised_token_rejected",
            &alice,
            foreign_signature,
            150,
            "BadSignature",
            true,
        ),
        case(
            "expired_signer_chain_rejected",
            &proxy,
            signed(&job, &proxy, 10_100, 300),
            10_200,
            "Expired",
            false,
        ),
        // tests/adversarial.rs
        case(
            "replayed_signed_request_inside_window",
            &alice,
            signed(&job, &alice, 100, 60),
            150,
            "Ok",
            true,
        ),
        case(
            "replayed_signed_request_rejected_after_expiry",
            &alice,
            signed(&job, &alice, 100, 60),
            200,
            "Stale",
            true,
        ),
        Case {
            crls: revoking,
            ..case(
                "revocation_cascades_to_all_derived_credentials",
                &deep,
                signed(&Envelope::request("op", Element::new("x")), &deep, 100, 300),
                150,
                "Revoked",
                false,
            )
        },
        case(
            "limited_proxy_visibly_limited_everywhere",
            &limited,
            signed(
                &Envelope::request("op", Element::new("x")),
                &limited,
                10,
                300,
            ),
            50,
            "rights: Limited",
            true,
        ),
    ]
}

#[test]
fn a_warm_memo_returns_the_fresh_verdict_for_every_case() {
    for c in cases() {
        let fresh = verify_envelope(&c.received, &c.trust, &c.crls, c.now);
        let fresh = format!("{fresh:?}");
        assert!(fresh.contains(c.expect), "{}: {fresh}", c.name);

        let mut memo = CachedValidator::new(SIGNER_MEMO_CAPACITY);
        let warm_up = signed(&job_envelope(), &c.signer, 100, 300);
        verify_envelope_cached(&warm_up, &mut memo, &c.warm_trust, &c.warm_crls, 150)
            .unwrap_or_else(|e| panic!("{}: warm-up refused: {e}", c.name));
        let hits = memo.hits();
        let cached = verify_envelope_cached(&c.received, &mut memo, &c.trust, &c.crls, c.now);
        assert_eq!(format!("{cached:?}"), fresh, "{}", c.name);
        assert_eq!(memo.hits() - hits, u64::from(c.hit), "{}: memo hit", c.name);
    }
}
