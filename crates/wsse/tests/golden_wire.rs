//! Golden wire test: the serialisation, base64 and AEAD kernels may be
//! rewritten, the bytes they put on the wire may not move.
//!
//! For one fixed seed: establish a WS-SecureConversation, protect the
//! three echo invokes of the `ogsa_request` workload (64 B, 1 KiB, 16 KiB
//! of text) and one reply, sign one envelope, and hold the SHA-256 of each
//! `to_xml()` to a constant recorded before the run-at-a-time writer,
//! the table-driven base64 and the 44-bit-limb Poly1305 existed. The
//! 1 KiB text carries the five XML specials and multi-byte characters so
//! the escaper's output is pinned too.

use gridsec_crypto::rng::ChaChaRng;
use gridsec_crypto::sha256::sha256;
use gridsec_pki::ca::CertificateAuthority;
use gridsec_pki::name::DistinguishedName;
use gridsec_pki::store::TrustStore;
use gridsec_tls::handshake::TlsConfig;
use gridsec_util::rng::{DetRng, RngCore};
use gridsec_wsse::soap::Envelope;
use gridsec_wsse::wssc::{establish, WsscResponder};
use gridsec_wsse::xmlsig::sign_envelope;
use gridsec_xml::Element;

fn dn(s: &str) -> DistinguishedName {
    DistinguishedName::parse(s).unwrap()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
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

/// SHA-256 of the envelope's wire form, after checking that the direct
/// writer and the `Element` tree agree on it.
fn wire_digest(env: &Envelope) -> String {
    let xml = env.to_xml();
    assert_eq!(xml, env.to_element().to_xml());
    hex(&sha256(xml.as_bytes()))
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
    let mut digests = Vec::new();
    for req in &requests {
        let protected = session.protect(req);
        digests.push(wire_digest(&protected));
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
    digests.push(wire_digest(&protected));
    let wire = Envelope::parse(&protected.to_xml()).unwrap();
    assert_eq!(session.unprotect(&wire).unwrap(), reply);

    digests.push(wire_digest(&sign_envelope(&requests[1], &alice, 100, 300)));

    // Recorded at the parent commit (8332f55), in the order pushed above:
    // invoke 64 B, invoke 1 KiB, invoke 16 KiB, reply 1 KiB, signed 1 KiB.
    assert_eq!(
        digests,
        [
            "6d2f9e576c3669bf2a6d0a2712b2d3e8d184e642b4009f12c681d96ccc3d5a91",
            "5bc7661aee631e0faba3ca4ee0983912e4fe17fe1c13fbeb377dc1a094952d12",
            "4df49e8315508d3fd40432c443375e4591787e3ed1a17d46ae8a1cebced897cc",
            "58fa4c57e4c93dc5e65b5ee1f3a48e9ca65b9186486171be7096ad6d69d29b91",
            "10b12b769b00421ddc8a63c5136fe7ce249d108fcfa593ea4571a1258180d3de",
        ]
    );
}
