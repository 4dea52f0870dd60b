//! Golden wire test: the serialisation, base64 and AEAD kernels may be
//! rewritten, the bytes they put on the wire may not move.
//!
//! For one fixed seed: establish a WS-SecureConversation, protect the
//! three echo invokes of the `ogsa_request` workload (64 B, 1 KiB, 16 KiB
//! of text) and one reply, sign one envelope, and hold the SHA-256 and
//! length of each `to_xml()` to its `wire.*` pin in `tests/golden.pins`.
//! The pins held across the run-at-a-time writer, the table-driven
//! base64 and the 44-bit-limb Poly1305; every envelope carries bytes
//! made under seeded RSA keys, so they moved — digests only, through
//! `scripts/repin.sh` — when key generation became two searches. The
//! 1 KiB text carries the five XML specials and multi-byte characters so
//! the escaper's output is pinned too.

use gridsec_crypto::rng::ChaChaRng;
use gridsec_crypto::sha256::sha256;
use gridsec_pki::ca::CertificateAuthority;
use gridsec_pki::name::DistinguishedName;
use gridsec_pki::store::TrustStore;
use gridsec_tls::handshake::TlsConfig;
use gridsec_util::pins;
use gridsec_util::rng::{DetRng, RngCore};
use gridsec_wsse::soap::Envelope;
use gridsec_wsse::wssc::{establish, WsscResponder};
use gridsec_wsse::xmlsig::sign_envelope;
use gridsec_xml::Element;

fn dn(s: &str) -> DistinguishedName {
    DistinguishedName::parse(s).unwrap()
}

/// `len` bytes of seeded text; with `specials`, every 16th character is
/// one of the five XML specials or a multi-byte character.
fn text(rng: &mut DetRng, len: usize, specials: bool) -> String {
    const PLAIN: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_";
    const SPECIAL: [&str; 8] = ["&", "<", ">", "\"", "'", "é", "€", "𝄞"];
    let mut s = String::with_capacity(len + 4);
    while s.len() < len {
        let word = rng.next_u32() as usize;
        if specials && word.is_multiple_of(16) {
            s.push_str(SPECIAL[(word >> 4) % 8]);
        } else {
            s.push(PLAIN[word % 64] as char);
        }
    }
    s
}

fn invoke(text: String) -> Envelope {
    Envelope::request(
        "invoke",
        Element::new("ogsa:Invoke")
            .with_attr("handle", "gsh:echo-1")
            .with_attr("op", "run")
            .with_child(Element::new("p").with_text(text)),
    )
}

/// Hold the envelope's wire form to the pin `name`, after checking that
/// the direct writer and the `Element` tree agree on it.
fn check_wire(name: &str, env: &Envelope) {
    let xml = env.to_xml();
    assert_eq!(xml, env.to_element().to_xml());
    pins::check(name, sha256(xml.as_bytes()), xml.len());
}

#[test]
fn protected_and_signed_envelopes_are_byte_identical_to_the_recorded_wire() {
    let mut rng = ChaChaRng::from_seed_bytes(b"golden wire");
    let ca = CertificateAuthority::create_root(&mut rng, dn("/O=G/CN=CA"), 512, 0, 1_000_000);
    let alice = ca.issue_identity(&mut rng, dn("/O=G/CN=Alice"), 512, 0, 100_000);
    let service = ca.issue_identity(&mut rng, dn("/O=G/CN=Echo"), 512, 0, 100_000);
    let mut trust = TrustStore::new();
    trust.add_root(ca.certificate().clone());
    let cfg = |cred| TlsConfig::new(cred, trust.clone(), 100);

    let mut responder = WsscResponder::new(cfg(service));
    let mut session = establish(cfg(alice.clone()), &mut responder, &mut rng).unwrap();

    let mut texts = DetRng::seed_from_u64(14);
    let requests = [
        invoke(text(&mut texts, 64, false)),
        invoke(text(&mut texts, 1024, true)),
        invoke(text(&mut texts, 16 * 1024, false)),
    ];
    let names = ["wire.invoke_64b", "wire.invoke_1k", "wire.invoke_16k"];
    for (name, req) in names.into_iter().zip(&requests) {
        let protected = session.protect(req);
        check_wire(name, &protected);
        // The far side still reads what was written.
        let wire = Envelope::parse(&protected.to_xml()).unwrap();
        let (_, inner) = responder.unprotect(&wire).unwrap();
        assert_eq!(&inner, req);
    }
    let reply = Envelope::request(
        "invokeResponse",
        requests[1]
            .payload()
            .unwrap()
            .child_elements()
            .next()
            .unwrap()
            .clone(),
    );
    let protected = responder.protect(&session.ctx_id, &reply).unwrap();
    check_wire("wire.reply_1k", &protected);
    let wire = Envelope::parse(&protected.to_xml()).unwrap();
    assert_eq!(session.unprotect(&wire).unwrap(), reply);

    check_wire(
        "wire.signed_1k",
        &sign_envelope(&requests[1], &alice, 100, 300),
    );
}
