//! Malformed-envelope fuzz: every wire-facing handler must return a
//! typed error for garbage input — never panic.
//!
//! A faulty WAN (or an attacker) can deliver any byte string to any
//! endpoint. The paper's availability story dies if a hosting
//! environment aborts on the first bad frame, so this test drives
//! seeded mutations — truncations, splices, byte flips, insertions,
//! deep-nesting bombs, and pure noise — through:
//!
//! * `gridsec_wsse::soap::Envelope::parse` (and through it the XML
//!   parser's recursion-depth cap),
//! * `HostingEnvironment::handle_message` (the full OGSA pipeline),
//! * `AcceptorService` (GSS token exchange),
//! * `DurableCas` (community authorization),
//! * `DurableGram` (job management), each through its
//!   `CrashRecover::handle`, as its host calls it,
//! * the client half of the reply envelope: every request/reply client
//!   (GSS token loop, GRAM, CAS, identity mapping, MyProxy) fed a
//!   truncated, unknown-status or over-long `testbed::rpc::Reply`,
//! * the batch/precomputed crypto entry points (`RsaVerifyCtx`,
//!   `verify_batch`, `CachedValidator::validate_batch`,
//!   `HandshakeMill::accept_wave`, Montgomery contexts, fixed-base
//!   tables and DH groups) — mutated signatures, degenerate keys and
//!   group parameters.
//!
//! All mutations derive from one `DetRng` seed, so a failure replays
//! exactly. The assertion is simply that every call returns: a panic
//! anywhere fails the test.

use std::cell::RefCell;
use std::rc::Rc;

use gridsec_authz::durable::DurableCas;
use gridsec_authz::gridmap::GridMapFile;
use gridsec_authz::policy::{CombiningAlg, PolicySet};
use gridsec_crypto::rng::ChaChaRng;
use gridsec_gram::durable::DurableGram;
use gridsec_gram::resource::{GramConfig, GramResource};
use gridsec_gssapi::net::AcceptorService;
use gridsec_integration::basic_world;
use gridsec_ogsa::hosting::HostingEnvironment;
use gridsec_testbed::clock::SimClock;
use gridsec_testbed::faults::{CrashPlan, CrashRecover, Journal};
use gridsec_testbed::os::{SimOs, ROOT_UID};
use gridsec_tls::handshake::TlsConfig;
use gridsec_util::rng::{DetRng, RngCore};
use gridsec_wsse::policy::{PolicyAlternative, Protection, SecurityPolicy};
use gridsec_wsse::soap::Envelope;
use gridsec_wsse::xmlsig;
use gridsec_xml::Element;

const CASES_PER_TARGET: usize = 400;

/// Apply one seeded mutation to `base`.
fn mutate(rng: &mut DetRng, base: &[u8]) -> Vec<u8> {
    let mut out = base.to_vec();
    match rng.next_u64() % 6 {
        // Truncate.
        0 => {
            if !out.is_empty() {
                out.truncate(rng.next_u64() as usize % out.len());
            }
        }
        // Delete a slice.
        1 => {
            if out.len() > 2 {
                let a = rng.next_u64() as usize % out.len();
                let b = (a + 1 + rng.next_u64() as usize % 40).min(out.len());
                out.drain(a..b);
            }
        }
        // Flip bytes.
        2 => {
            for _ in 0..1 + rng.next_u64() % 8 {
                if out.is_empty() {
                    break;
                }
                let i = rng.next_u64() as usize % out.len();
                out[i] = rng.next_u64() as u8;
            }
        }
        // Insert garbage.
        3 => {
            let i = if out.is_empty() {
                0
            } else {
                rng.next_u64() as usize % out.len()
            };
            let n = 1 + rng.next_u64() as usize % 32;
            let junk: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8).collect();
            out.splice(i..i, junk);
        }
        // Nesting bomb: thousands of open tags, the classic
        // stack-overflow vector the parser's depth cap must absorb.
        4 => {
            let depth = 500 + rng.next_u64() as usize % 3000;
            out = "<d>".repeat(depth).into_bytes();
        }
        // Pure noise.
        _ => {
            let n = rng.next_u64() as usize % 300;
            out = (0..n).map(|_| rng.next_u64() as u8).collect();
        }
    }
    out
}

/// A valid signed OGSA request to mutate from (mutants that stay
/// well-formed-ish penetrate deeper than pure noise).
fn signed_corpus(clock: &SimClock) -> Vec<Vec<u8>> {
    let w = basic_world(b"fuzz corpus");
    let mut corpus = Vec::new();
    for (action, payload) in [
        (
            "createService",
            Element::new("ogsa:CreateService").with_attr("type", "echo"),
        ),
        (
            "invoke",
            Element::new("ogsa:Invoke")
                .with_attr("handle", "h-1")
                .with_attr("op", "echo"),
        ),
        (
            "queryServiceData",
            Element::new("ogsa:Query")
                .with_attr("handle", "h-1")
                .with_attr("name", "serviceType"),
        ),
        (
            "destroy",
            Element::new("ogsa:Destroy").with_attr("handle", "h-1"),
        ),
    ] {
        let env = Envelope::request(action, payload);
        let signed = xmlsig::sign_envelope(&env, &w.user, clock.now(), 60);
        corpus.push(signed.to_xml().into_bytes());
        corpus.push(env.to_xml().into_bytes()); // unsigned variant
    }
    corpus.push(b"<soap:Envelope><soap:Body/></soap:Envelope>".to_vec());
    corpus
}

#[test]
fn no_wire_facing_handler_panics_on_malformed_input() {
    let clock = SimClock::starting_at(100);
    let w = basic_world(b"fuzz world");
    let corpus = signed_corpus(&clock);
    let mut rng = DetRng::seed_from_u64(0xFA22_0611);

    // Target: Envelope::parse + the OGSA hosting pipeline.
    let mut hosting = HostingEnvironment::new(
        "fuzz-host",
        w.service.clone(),
        w.trust.clone(),
        clock.clone(),
        SecurityPolicy {
            service: "echo".to_string(),
            alternatives: vec![PolicyAlternative {
                mechanism: "xmlsig".to_string(),
                token_types: vec!["x509-chain".to_string()],
                trust_roots: vec![],
                protection: Protection::Sign,
            }],
        },
        PolicySet::new(CombiningAlg::DenyOverrides),
    );
    for i in 0..CASES_PER_TARGET {
        let base = &corpus[i % corpus.len()];
        let bytes = mutate(&mut rng, base);
        let text = String::from_utf8_lossy(&bytes);
        let _ = Envelope::parse(&text);
        let reply = hosting.handle_message(&text);
        assert!(!reply.is_empty(), "handler must always produce a reply");
    }

    // Target: GSS acceptor.
    let mut acceptor = AcceptorService::new(
        TlsConfig::new(w.service.clone(), w.trust.clone(), clock.now()),
        b"fuzz acceptor",
        CrashPlan::disabled(),
    );
    for i in 0..CASES_PER_TARGET {
        let base = &corpus[i % corpus.len()];
        let bytes = mutate(&mut rng, base);
        let reply = acceptor.handle("mallory", i as u64, &bytes);
        assert!(!reply.is_empty());
    }

    // The durable services journal on a host of their own.
    let os = SimOs::new();
    os.add_host("fuzz-host");
    let journal = |path: &str| Journal::open(os.clone(), "fuzz-host", path, ROOT_UID);

    // Target: CAS service.
    let mut cas = DurableCas::new(
        "vo-fuzz",
        w.service.clone(),
        600,
        clock.clone(),
        CrashPlan::disabled(),
        journal("/var/cas/journal.wal"),
    );
    for i in 0..CASES_PER_TARGET {
        let base = &corpus[i % corpus.len()];
        let bytes = mutate(&mut rng, base);
        let reply = cas.handle("mallory", i as u64, &bytes);
        assert!(!reply.is_empty());
    }

    // Target: remote GRAM.
    let gridmap = GridMapFile::parse("\"/O=G/CN=User\" juser\n").unwrap();
    let resource = GramResource::install(
        SimOs::new(),
        clock.clone(),
        "compute1",
        w.trust.clone(),
        w.service.clone(),
        &gridmap,
        GramConfig::default(),
    )
    .unwrap();
    let mut gram = DurableGram::new(
        Rc::new(RefCell::new(resource)),
        b"fuzz gram",
        CrashPlan::disabled(),
        journal("/var/gram/journal.wal"),
    );
    // Started as a spawn starts it.
    gram.recover();
    for i in 0..CASES_PER_TARGET {
        let base = &corpus[i % corpus.len()];
        let bytes = mutate(&mut rng, base);
        let reply = gram.handle("mallory", i as u64, &bytes);
        assert!(!reply.is_empty());
    }
}

/// A service that answers every request with the same bytes.
struct Canned(Vec<u8>);

impl CrashRecover for Canned {
    fn handle(&mut self, _from: &str, _id: u64, _body: &[u8]) -> Vec<u8> {
        self.0.clone()
    }
}

/// Every request/reply client maps a malformed reply envelope to its own
/// transport or decode failure: never `Ok`, never a refusal (that would
/// hide the fault as the service's answer), never a panic. One served
/// handler answers every request with the same bytes, so the five
/// clients share it.
#[test]
fn every_client_rejects_a_malformed_reply_envelope() {
    use gridsec_authz::net::fetch_assertion;
    use gridsec_authz::AuthzError;
    use gridsec_gram::remote::job_state_remote;
    use gridsec_gram::GramError;
    use gridsec_gssapi::net::establish_initiator_resilient;
    use gridsec_gssapi::GssError;
    use gridsec_pki::encoding::Encoder;
    use gridsec_pki::name::DistinguishedName;
    use gridsec_services::idmap_rpc::{remote_to_principal, IdMapError};
    use gridsec_services::myproxy::{destroy, MyProxyError};
    use gridsec_testbed::faults::CrashableServer;
    use gridsec_testbed::net::Network;
    use gridsec_testbed::rpc::{Reply, RpcClient};
    use gridsec_testbed::sched::Scheduler;
    use gridsec_util::retry::RetryPolicy;

    let mut w = basic_world(b"reply sweep");
    let user = DistinguishedName::parse("/O=G/CN=User").unwrap();
    let ok = Reply::Ok(b"payload".to_vec()).encode();
    let mut unknown_status = Encoder::new();
    unknown_status.put_str("maybe").put_bytes(b"payload");
    let mut trailing = ok.clone();
    trailing.push(0);
    let cases = [
        ("truncated", ok[..ok.len() - 1].to_vec()),
        ("unknown status", unknown_status.finish()),
        ("trailing byte", trailing),
    ];
    for (case, reply) in cases {
        let net = Network::new();
        let mut sched = Scheduler::new(&net);
        let canned = Rc::new(RefCell::new(Canned(reply)));
        CrashableServer::spawn(
            &mut sched,
            net.register("svc"),
            "svc",
            &CrashPlan::disabled(),
            &canned,
        );
        let mut rpc = RpcClient::new(net.register("client"), "svc", RetryPolicy::default());

        let gss = establish_initiator_resilient(
            &mut rpc,
            TlsConfig::new(w.user.clone(), w.trust.clone(), 100),
            &mut w.rng,
            1,
        );
        assert!(
            matches!(&gss, Err(GssError::Transport(m)) if m == "malformed gss reply"),
            "gss, {case}: {:?}",
            gss.err()
        );
        let gram = job_state_remote(&mut rpc, "gsh:mjs-jdoe-0");
        assert!(
            matches!(gram, Err(GramError::Transport(_))),
            "gram, {case}: {gram:?}"
        );
        let cas = fetch_assertion(&mut rpc, &user);
        assert!(
            matches!(cas, Err(AuthzError::Decode(_))),
            "cas, {case}: {:?}",
            cas.err()
        );
        let idmap = remote_to_principal(&mut rpc, &user);
        assert!(
            matches!(idmap, Err(IdMapError::Decode(_))),
            "idmap, {case}: {idmap:?}"
        );
        let myproxy = destroy(&mut rpc, "jane", "s3cret");
        assert!(
            matches!(myproxy, Err(MyProxyError::Decode(_))),
            "myproxy, {case}: {myproxy:?}"
        );
        assert_eq!(rpc.stats().timeouts, 0, "{case}: every call was answered");
    }
}

/// A CAS reply is one assertion: an `Ok` body with a byte behind the
/// assertion is a decode failure at the client, not an assertion.
#[test]
fn a_cas_reply_with_a_byte_behind_its_assertion_is_refused() {
    use gridsec_authz::cas::CasServer;
    use gridsec_authz::net::fetch_assertion;
    use gridsec_authz::AuthzError;
    use gridsec_pki::encoding::Codec;
    use gridsec_testbed::faults::CrashableServer;
    use gridsec_testbed::net::Network;
    use gridsec_testbed::rpc::{Reply, RpcClient};
    use gridsec_testbed::sched::Scheduler;
    use gridsec_util::retry::RetryPolicy;

    let w = basic_world(b"cas reply trailing byte");
    let mut cas = CasServer::new("vo", w.service.clone(), 600);
    cas.enroll(w.user.subject(), vec![]);
    let assertion = cas.issue_assertion(w.user.subject(), 100).unwrap();
    for (trailing, fetched) in [(false, true), (true, false)] {
        let mut body = assertion.to_bytes();
        if trailing {
            body.push(0);
        }
        let net = Network::new();
        let mut sched = Scheduler::new(&net);
        let canned = Rc::new(RefCell::new(Canned(Reply::Ok(body).encode())));
        CrashableServer::spawn(
            &mut sched,
            net.register("cas"),
            "cas",
            &CrashPlan::disabled(),
            &canned,
        );
        let mut rpc = RpcClient::new(net.register("client"), "cas", RetryPolicy::default());
        let got = fetch_assertion(&mut rpc, w.user.subject());
        assert_eq!(
            got.is_ok(),
            fetched,
            "trailing byte: {trailing}, {:?}",
            got.err()
        );
        if trailing {
            assert!(matches!(got, Err(AuthzError::Decode(_))));
        }
    }
}

/// The batch + precomputed crypto paths added for login-wave
/// amortization face the same wire: signatures and certificate fields
/// come straight from attacker-controlled bytes, and group parameters
/// can be degenerate. Every entry point must return — and, for the
/// batch verifiers, agree with its single-shot counterpart — on any
/// input.
#[test]
fn batch_crypto_entry_points_absorb_malformed_input() {
    use gridsec_bignum::modular::mod_pow_classic;
    use gridsec_bignum::montgomery::Montgomery;
    use gridsec_bignum::precomp::FixedBaseTable;
    use gridsec_bignum::prime::random_below;
    use gridsec_bignum::BigUint;
    use gridsec_crypto::dh::{DhGroup, DhKeyPair};
    use gridsec_crypto::rsa::{RsaKeyPair, RsaPublicKey, RsaVerifyCtx};
    use gridsec_gssapi::mill::HandshakeMill;
    use gridsec_gssapi::InitiatorContext;
    use gridsec_pki::cert::Certificate;
    use gridsec_pki::encoding::{Codec, Encoder};
    use gridsec_pki::store::CrlStore;
    use gridsec_pki::validate::{validate_chain_with_crls, CachedValidator};

    let mut rng = DetRng::seed_from_u64(0xFA22_0611);
    let w = basic_world(b"batch fuzz world");
    let mut crng = ChaChaRng::from_seed_bytes(b"batch fuzz rng");

    // Target: RsaVerifyCtx::verify_batch with mutated signatures. The
    // batch verdict must match the uncached single-shot verifier on
    // every item, mutant or not.
    let pair = RsaKeyPair::generate(&mut crng, 512);
    let good_sig = pair.sign_pkcs1_sha256(b"wave payload");
    let ctx = RsaVerifyCtx::new(pair.public());
    for i in 0..CASES_PER_TARGET / 4 {
        let mut sigs: Vec<Vec<u8>> = (0..4).map(|_| mutate(&mut rng, &good_sig)).collect();
        sigs.push(good_sig.clone());
        // Oversized: longer than the modulus, and absurdly long.
        sigs.push([good_sig.clone(), vec![0xFF; 1 + i % 7]].concat());
        sigs.push(vec![0xAB; 4096]);
        sigs.push(Vec::new());
        let items: Vec<(&[u8], &[u8])> = sigs
            .iter()
            .map(|s| (b"wave payload".as_slice(), s.as_slice()))
            .collect();
        let outcome = ctx.verify_batch(&items);
        assert_eq!(outcome.len(), items.len());
        for (j, (msg, sig)) in items.iter().enumerate() {
            assert_eq!(
                outcome.valid()[j],
                pair.public().verify_pkcs1_sha256(msg, sig),
                "batch/individual divergence at case {i} item {j}"
            );
        }
    }

    // Target: verify contexts over degenerate keys (an attacker
    // controls the modulus bytes in a presented certificate). Even,
    // zero, trivial, and tiny moduli must build and verify (falsely)
    // without panicking.
    for n in [
        BigUint::from(0u64),
        BigUint::from(1u64),
        BigUint::from(2u64),
        BigUint::from(15u64),
        BigUint::from(u64::MAX),     // odd, but far too small for PKCS#1
        &BigUint::from(1u64) << 512, // even 513-bit
    ] {
        for e in [
            BigUint::from(0u64),
            BigUint::from(1u64),
            BigUint::from(65537u64),
        ] {
            let key = RsaPublicKey::new(n.clone(), e);
            let ctx = RsaVerifyCtx::new(&key);
            for sig in [&b""[..], &[0u8; 64][..], &good_sig[..]] {
                assert!(!ctx.verify_pkcs1_sha256(b"m", sig));
            }
            let outcome = ctx.verify_batch(&[(b"m", &good_sig), (b"m", b"")]);
            assert_eq!(outcome.invalid_indices(), vec![0, 1]);
        }
    }

    // Target: contexts, fixed-base tables and DH groups over degenerate
    // group parameters. Building must refuse (or absorb) them, and
    // whatever a group then computes must be what the reference kernel
    // computes — including a group whose fields were changed after its
    // table was built.
    let one = BigUint::from(1u64);
    let cases = [
        (BigUint::from(0u64), BigUint::from(0u64)),
        (BigUint::from(0u64), one.clone()),
        (one.clone(), BigUint::from(2u64)),
        (BigUint::from(7u64), BigUint::from(4u64)), // even modulus
        (BigUint::from(9u64), BigUint::from(7u64)), // base >= modulus
        (BigUint::from(14u64), BigUint::from(7u64)), // base ≡ 0
        (BigUint::from(3u64), BigUint::from(7u64)), // fine but tiny
    ];
    // `generate` and `agree` on `group` against `mod_pow_classic`, the
    // private exponent recovered by replaying `generate`'s one draw.
    let agrees_with_classic = |group: &DhGroup, label: &str| {
        let kp = DhKeyPair::generate(&mut ChaChaRng::from_seed_bytes(b"dh fuzz"), group);
        let range = group.p.sub_ref(&BigUint::from(3u64));
        let x = random_below(&mut ChaChaRng::from_seed_bytes(b"dh fuzz"), &range)
            .add_ref(&BigUint::from(2u64));
        assert_eq!(
            kp.public,
            mod_pow_classic(&group.g, &x, &group.p),
            "{label}"
        );
        let peer = BigUint::from(2u64);
        if let Some(secret) = kp.agree(&peer) {
            let want = mod_pow_classic(&peer, &x, &group.p);
            assert_eq!(
                secret,
                want.to_bytes_be_padded(group.modulus_len()),
                "{label}"
            );
        }
    };
    for (base, modulus) in &cases {
        let _ = Montgomery::new(modulus);
        assert!(FixedBaseTable::build(base, modulus, 0).is_none()); // zero-bit table
        let _ = FixedBaseTable::build(base, modulus, 4096);
        let group = DhGroup::new(modulus.clone(), base.clone());
        group.precompute();
        // Private exponents are drawn from [2, p-2]: below 4 there are
        // none to draw.
        if *modulus >= BigUint::from(4u64) {
            agrees_with_classic(&group, &format!("g={base} p={modulus}"));
        }
    }
    let mut group = DhGroup::test_group_256();
    group.precompute();
    agrees_with_classic(&group, "untouched group");
    group.g = BigUint::from(3u64).into();
    agrees_with_classic(&group, "g mutated after its table was built");
    group.p = BigUint::from(1_000_000_007u64).into();
    agrees_with_classic(&group, "p mutated after its context was built");
    agrees_with_classic(
        &DhGroup::test_group_256(),
        "the shared constant is unaffected",
    );

    // Target: CachedValidator::validate_batch over chains whose
    // signature bytes are mutated wholesale: each mutant is the body's
    // bytes beside the mutated signature, decoded as it would arrive.
    // Verdicts must match the stateless walk, chain for chain.
    let mut validator = CachedValidator::new(32);
    let crls = CrlStore::new();
    let good_chain = w.user.chain().to_vec();
    for _ in 0..CASES_PER_TARGET / 8 {
        let mut broken = good_chain.clone();
        let which = rng.next_u64() as usize % broken.len();
        let body = broken[which].body().to_bytes();
        let signature = broken[which].to_bytes().split_off(body.len() + 4);
        let mut wire = Encoder::new();
        wire.put_raw(&body).put_bytes(&mutate(&mut rng, &signature));
        broken[which] = Certificate::from_bytes(&wire.finish()).expect("a mutant decodes");
        let chains: Vec<&[Certificate]> = vec![&good_chain, &broken, &[]];
        let batch = validator.validate_batch(&chains, &w.trust, &crls, 100);
        assert_eq!(batch.len(), 3);
        for (i, chain) in chains.iter().enumerate() {
            let individual = validate_chain_with_crls(chain, &w.trust, &crls, 100);
            assert_eq!(
                batch[i].is_ok(),
                individual.is_ok(),
                "batch/stateless divergence on chain {i}"
            );
            if let (Err(b), Err(s)) = (&batch[i], &individual) {
                assert_eq!(b, s);
            }
        }
    }

    // Target: HandshakeMill::accept_wave on waves mixing valid hellos
    // with mutants of them. The mill must survive and still accept the
    // intact hello in every wave.
    let mut mill = HandshakeMill::new(TlsConfig::new(w.service.clone(), w.trust.clone(), 100));
    let (_init, good_hello) = InitiatorContext::new(
        TlsConfig::new(w.user.clone(), w.trust.clone(), 100),
        &mut crng,
    );
    for _ in 0..CASES_PER_TARGET / 8 {
        let mutants: Vec<Vec<u8>> = (0..3).map(|_| mutate(&mut rng, &good_hello)).collect();
        let mut wave: Vec<&[u8]> = mutants.iter().map(|m| m.as_slice()).collect();
        wave.push(&good_hello);
        let results = mill.accept_wave(&mut crng, &wave);
        assert_eq!(results.len(), wave.len());
        assert!(
            results.last().unwrap().is_ok(),
            "intact hello must still accept amid mutants"
        );
    }
}

/// A signed object has one wire form: over seeded mutations of golden
/// certificates (a root, an end entity, a proxy), a CRL and a CAS
/// assertion, every mutant that decodes encodes back to exactly its own
/// bytes, and one that still verifies under its issuer's key is the
/// original. Few random mutants re-frame a field into bytes that decode
/// to the same value; `crates/pki/tests/wire_form.rs` builds one.
#[test]
fn a_decoded_signed_object_encodes_to_the_bytes_it_arrived_in() {
    use gridsec_authz::cas::{CasAssertion, CasServer, ResourceGate};
    use gridsec_authz::policy::{Effect, Rule, SubjectMatch};
    use gridsec_pki::ca::Crl;
    use gridsec_pki::cert::Certificate;
    use gridsec_pki::encoding::Codec;
    use gridsec_pki::proxy::{issue_proxy, ProxyType};
    use gridsec_pki::validate::{validate_chain, ValidatedIdentity};

    /// Mutate `golden` and check each mutant that decodes as a `T`.
    fn sweep<T: Codec + PartialEq + std::fmt::Debug>(
        rng: &mut DetRng,
        golden: &T,
        verify: impl Fn(&T) -> bool,
    ) -> usize {
        let original = golden.to_bytes();
        let mut accepted = 0;
        for _ in 0..CASES_PER_TARGET {
            let b = mutate(rng, &original);
            let Ok(decoded) = T::from_bytes(&b) else {
                continue;
            };
            accepted += 1;
            assert_eq!(
                decoded.to_bytes(),
                b,
                "a decoded mutant re-encodes differently"
            );
            if verify(&decoded) {
                assert_eq!(b, original, "a mutant verifies: {decoded:?}");
            }
        }
        accepted
    }

    let mut w = basic_world(b"signed object fuzz");
    let mut rng = DetRng::seed_from_u64(0x5167_ED0B);
    let ca_key = w.ca.certificate().public_key().clone();
    let proxy = issue_proxy(&mut w.rng, &w.user, ProxyType::Limited, 512, 10, 1000).unwrap();
    let user_key = w.user.certificate().public_key().clone();
    let by_ca = |c: &Certificate| c.verify(&ca_key);
    let mut accepted = sweep(&mut rng, w.ca.certificate(), by_ca);
    accepted += sweep(&mut rng, w.user.certificate(), by_ca);
    accepted += sweep(&mut rng, proxy.certificate(), |c: &Certificate| {
        c.verify(&user_key)
    });

    let crl = w.ca.issue_crl(vec![3, 5, 8], 100, 10_000);
    accepted += sweep(&mut rng, &crl, |c: &Crl| c.verify(&ca_key));

    // A CAS assertion verifies where a relying party checks it: at a
    // gate that trusts the CAS, presented by the user it names.
    let mut cas = CasServer::new("vo-fuzz", w.service.clone(), 600);
    cas.enroll(w.user.subject(), vec![]);
    cas.add_rule(Rule::new(
        SubjectMatch::Any,
        "/data/*",
        "read",
        Effect::Permit,
    ));
    let assertion = cas.issue_assertion(w.user.subject(), 100).unwrap();
    let mut gate = ResourceGate::default();
    gate.trust_cas("vo-fuzz", cas.public_key().clone());
    let user = validate_chain(w.user.chain(), &w.trust, 100).unwrap();
    accepted += sweep(&mut rng, &assertion, |a: &CasAssertion| {
        let ProxyType::Restricted { language, policy } = a.restriction() else {
            unreachable!("an assertion restricts")
        };
        let presented = ValidatedIdentity {
            restrictions: vec![(language, policy)],
            ..user.clone()
        };
        gate.permits(&presented, "/data/x", "read", 200).is_ok()
    });
    assert!(accepted > 0, "no mutant decoded: the sweep is vacuous");
}
