//! Direct unit-cost probes of the leaf crates.
//!
//! A probe times one public function of one crate on operands taken
//! from the same seeded worlds the workloads build, in the same
//! precomputation state the workload it explains runs in: the
//! `establish_storm`-facing probes run while that workload's world (and
//! so its `CryptoPool` registrations) is alive, the `gram_submit`-facing
//! ones with nothing registered. Each value is the lower quartile
//! ([`QUIET`]) over [`BATCHES`] batches of the mean time per call; the
//! ledger runs the probes three times and keeps each one's best.

use std::hint::black_box;
use std::time::Instant;

use gridsec_authz::policy::Request;
use gridsec_bignum::modular::mod_pow;
use gridsec_bignum::montgomery::Montgomery;
use gridsec_bignum::prime::{generate_prime, random_below};
use gridsec_crypto::aead;
use gridsec_crypto::dh::{DhGroup, DhKeyPair};
use gridsec_crypto::hmac::PrimedHmac;
use gridsec_crypto::rng::ChaChaRng;
use gridsec_crypto::rsa::RsaKeyPair;
use gridsec_crypto::sha256::sha256;
use gridsec_gsi::sso::{grid_proxy_init, ProxyOptions};
use gridsec_gssapi::context::establish_in_memory;
use gridsec_gssapi::delegation;
use gridsec_gssapi::mill::HandshakeMill;
use gridsec_pki::cert::Certificate;
use gridsec_pki::encoding::Codec;
use gridsec_pki::proxy::{issue_proxy, ProxyType};
use gridsec_pki::store::CrlStore;
use gridsec_pki::validate::{validate_chain, CachedValidator};
use gridsec_testbed::clock::SimClock;
use gridsec_testbed::net::Network;
use gridsec_testbed::os::{FileMode, SimOs};
use gridsec_testbed::rpc::{self, PollingCall};
use gridsec_tls::handshake::{
    handshake_in_memory, server_accept_batch, ClientHandshake, ServerHandshake, TlsConfig,
};
use gridsec_tls::records::{frame, FrameBuf, RecordSession};
use gridsec_tls::session::{resume_client, ClientSession, ServerSessionCache};
use gridsec_util::rng::{DetRng, RngCore};
use gridsec_wsse::b64;
use gridsec_wsse::policy::intersect;
use gridsec_wsse::soap::Envelope;
use gridsec_wsse::wssc::{establish, resume, WsscResponder};
use gridsec_wsse::xmlsig;
use gridsec_xml::Element;

use crate::harness::{metric, quantile, Config, Metric, Workload, QUIET};
use crate::workloads::bulk_xfer::XferWorld;
use crate::workloads::establish_storm::EstablishStorm;
use crate::workloads::gram_submit::GramWorld;
use crate::workloads::ogsa_request::{invoke_body, payload_text, OgsaWorld};
use crate::workloads::vo_flows::FlowOpts;

/// Batches per probe; the reported value is their lower quartile.
const BATCHES: usize = 9;
/// Wall time one batch is sized to.
const BATCH_S: f64 = 0.003;
const NOW: u64 = 100;
const KIB: usize = 1024;
const MIB: f64 = 1024.0 * 1024.0;

/// Seconds per call of `f`: batches of at least `min_n` calls, sized to
/// [`BATCH_S`] from one untimed-for-the-result calibration call.
fn per_call<R>(min_n: usize, mut f: impl FnMut() -> R) -> f64 {
    let t = Instant::now();
    black_box(f());
    let one = t.elapsed().as_secs_f64().max(1e-9);
    let n = ((BATCH_S / one) as usize).clamp(min_n.max(1), 1_000_000);
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..n {
                black_box(f());
            }
            t.elapsed().as_secs_f64() / n as f64
        })
        .collect();
    quantile(&batches, QUIET)
}

/// Seconds per item for an operation that consumes its input: `items`
/// are split into [`BATCHES`] equal batches, processed in order. Also
/// returns what `f` produced, for the next stage.
fn per_item<T, R>(items: Vec<T>, mut f: impl FnMut(T) -> R) -> (f64, Vec<R>) {
    let per_batch = (items.len() / BATCHES).max(1);
    let mut outputs = Vec::with_capacity(items.len());
    let mut batches = Vec::with_capacity(BATCHES);
    let mut items = items.into_iter();
    loop {
        let batch: Vec<T> = items.by_ref().take(per_batch).collect();
        if batch.len() < per_batch {
            break;
        }
        let t = Instant::now();
        for item in batch {
            outputs.push(f(item));
        }
        batches.push(t.elapsed().as_secs_f64() / per_batch as f64);
    }
    (quantile(&batches, QUIET), outputs)
}

fn ns(name: &'static str, secs: f64) -> Metric {
    metric(name, "ns", secs * 1e9)
}
fn us(name: &'static str, secs: f64) -> Metric {
    metric(name, "us", secs * 1e6)
}
fn ms(name: &'static str, secs: f64) -> Metric {
    metric(name, "ms", secs * 1e3)
}
fn mib_s(name: &'static str, bytes: usize, secs: f64) -> Metric {
    metric(name, "MiB/s", bytes as f64 / MIB / secs)
}

fn probe_rng(seed: u64, what: &str) -> ChaChaRng {
    ChaChaRng::from_seed_bytes(format!("gridbench probe {what} {seed:#x}").as_bytes())
}

fn seeded_bytes(rng: &mut ChaChaRng, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

/// Every probe, grouped by the world whose state it runs in.
pub fn run_all(cfg: &Config) -> Vec<Metric> {
    let mut out = storm_state(cfg);
    out.extend(gram_state(cfg));
    out.extend(ogsa_state(cfg));
    out.extend(bulk_state(cfg));
    out
}

/// Handshake items per consuming stage.
const HANDSHAKES: usize = BATCHES * 8;
/// Hellos per `tls.accept_batch_us_per_hello` wave and chains per
/// `pki.validate_batch_us_per_chain` batch.
const WAVE: usize = 32;

/// The probes that explain `establish_storm`, run in its world: DH group
/// and every pooled signer registered, as during its slices.
fn storm_state(cfg: &Config) -> Vec<Metric> {
    let world = EstablishStorm::build(cfg);
    let mut rng = probe_rng(cfg.seed, "storm");
    let mut out = Vec::new();
    let user = &world.users[0];
    let key = user.key();
    let group = DhGroup::test_group_256();
    let one = gridsec_bignum::BigUint::one();

    // ---- bignum: the modexp shapes of one establishment ---------------
    let (p, q) = key.primes();
    let d = key.private_exponent();
    let (dp, dq) = (d.rem_ref(&p.sub_ref(&one)), d.rem_ref(&q.sub_ref(&one)));
    let n = key.public().modulus();
    let c = random_below(&mut rng, n);
    let (cp, cq) = (c.rem_ref(p), c.rem_ref(q));
    out.push(us(
        "bignum.modexp_rsa512_crt_us",
        per_call(1, || (mod_pow(&cp, &dp, p), mod_pow(&cq, &dq, q))),
    ));
    out.push(us(
        "bignum.modexp_rsa512_e65537_us",
        per_call(1, || mod_pow(&c, key.public().exponent(), n)),
    ));
    let x = random_below(&mut rng, &group.p);
    let y = mod_pow(&group.g, &random_below(&mut rng, &group.p), &group.p);
    out.push(us(
        "bignum.modexp_dh256_fixed_base_us",
        per_call(1, || mod_pow(&group.g, &x, &group.p)),
    ));
    out.push(us(
        "bignum.modexp_dh256_var_base_us",
        per_call(1, || mod_pow(&y, &x, &group.p)),
    ));

    // ---- crypto: fixed-key asymmetric operations ----------------------
    let msg = seeded_bytes(&mut rng, 64);
    let sig = user.sign(&msg);
    out.push(us("crypto.rsa_sign_us", per_call(1, || user.sign(&msg))));
    out.push(us(
        "crypto.rsa_verify_us",
        per_call(1, || key.public().verify_pkcs1_sha256(&msg, &sig)),
    ));
    let signed: Vec<(Vec<u8>, Vec<u8>)> = (0..WAVE)
        .map(|_| {
            let m = seeded_bytes(&mut rng, 64);
            let s = user.sign(&m);
            (m, s)
        })
        .collect();
    let items: Vec<(&[u8], &[u8])> = signed.iter().map(|(m, s)| (&m[..], &s[..])).collect();
    let verify_ctx = key.public().verify_ctx();
    out.push(us(
        "crypto.rsa_verify_batch_us_per_sig",
        per_call(1, || verify_ctx.verify_batch(&items)) / WAVE as f64,
    ));
    out.push(us(
        "crypto.dh_generate_us",
        per_call(1, || DhKeyPair::generate(&mut rng, &group)),
    ));
    let (a, b) = (
        DhKeyPair::generate(&mut rng, &group),
        DhKeyPair::generate(&mut rng, &group),
    );
    out.push(us("crypto.dh_agree_us", per_call(1, || a.agree(&b.public))));
    let primed = PrimedHmac::new(&seeded_bytes(&mut rng, 32));
    out.push(ns(
        "crypto.hmac_primed_ns",
        per_call(1, || primed.mac(&msg)),
    ));

    // ---- pki: chain validation as a hello's receiver pays it ----------
    let trust = &world.trust;
    let crls = CrlStore::new();
    out.push(us(
        "pki.validate_chain_d1_us",
        per_call(1, || validate_chain(user.chain(), trust, NOW)),
    ));
    let proxy = |rng: &mut ChaChaRng, parent| {
        issue_proxy(rng, parent, ProxyType::Impersonation, 512, NOW, 43_200).expect("valid parent")
    };
    let depth2 = proxy(&mut rng, user);
    let depth3 = proxy(&mut rng, &depth2);
    out.push(us(
        "pki.validate_chain_d3_us",
        per_call(1, || validate_chain(depth3.chain(), trust, NOW)),
    ));
    let mut cached = CachedValidator::new(256);
    out.push(ns(
        "pki.validate_cached_ns",
        per_call(1, || cached.validate(user.chain(), trust, &crls, NOW)),
    ));
    let chains: Vec<&[Certificate]> = world.users[..WAVE].iter().map(|u| u.chain()).collect();
    out.push(us(
        "pki.validate_batch_us_per_chain",
        per_call(1, || {
            CachedValidator::new(256).validate_batch(&chains, trust, &crls, NOW)
        }) / WAVE as f64,
    ));
    let cert_bytes = user.certificate().to_bytes();
    out.push(us(
        "pki.cert_decode_us",
        per_call(1, || Certificate::from_bytes(&cert_bytes)),
    ));
    let chain_bytes: usize = user.chain().iter().map(|c| c.to_bytes().len()).sum();
    out.push(metric("pki.chain_bytes", "B", chain_bytes as f64));

    // ---- tls: the four handshake steps, pooled on both sides ----------
    let mill = HandshakeMill::new(TlsConfig::new(world.service.clone(), trust.clone(), NOW));
    let server_cfg = mill.config().clone();
    let client_cfg = |u: usize| {
        TlsConfig::new(
            world.users[u % world.users.len()].clone(),
            trust.clone(),
            NOW,
        )
        .with_pool(world.client_pool.clone())
    };
    let configs: Vec<TlsConfig> = (0..HANDSHAKES).map(client_cfg).collect();
    let (hello_s, clients) = per_item(configs, |c| ClientHandshake::new(c, &mut rng));
    out.push(us("tls.client_hello_us", hello_s));
    let (clients, hellos): (Vec<_>, Vec<_>) = clients.into_iter().unzip();
    let servers: Vec<_> = hellos
        .iter()
        .map(|h| (ServerHandshake::new(server_cfg.clone()), h))
        .collect();
    let (server_hello_s, replies) = per_item(servers, |(s, hello)| {
        s.step(&mut rng, hello).expect("valid hello")
    });
    out.push(us("tls.server_hello_us", server_hello_s));
    let (server_hellos, awaiting): (Vec<_>, Vec<_>) = replies.into_iter().unzip();
    let (client_finish_s, finished) = per_item(
        clients.into_iter().zip(&server_hellos).collect(),
        |(c, sh): (ClientHandshake, &Vec<u8>)| c.step(sh).expect("valid server hello"),
    );
    out.push(us("tls.client_finish_us", client_finish_s));
    let (finished, mut client_channels): (Vec<_>, Vec<_>) = finished.into_iter().unzip();
    let (server_finish_s, mut server_channels) = per_item(
        awaiting.into_iter().zip(&finished).collect(),
        |(a, f): (_, &Vec<u8>)| a.step(f).expect("valid finished"),
    );
    out.push(us("tls.server_finish_us", server_finish_s));
    out.push(metric(
        "tls.handshake_wire_bytes",
        "B",
        (hellos[0].len() + server_hellos[0].len() + finished[0].len()) as f64,
    ));
    let wave: Vec<&[u8]> = hellos[..WAVE].iter().map(|h| &h[..]).collect();
    out.push(us(
        "tls.accept_batch_us_per_hello",
        per_call(1, || server_accept_batch(&server_cfg, &mut rng, &wave)) / WAVE as f64,
    ));

    // Two-sided abbreviated handshake from a banked session.
    let client_channel = client_channels.pop().expect("HANDSHAKES > 0");
    let server_channel = server_channels.pop().expect("HANDSHAKES > 0");
    let banked = ClientSession::from_channel(&client_channel).expect("handshake mints a ticket");
    let mut sessions = ServerSessionCache::new(8, 1_000_000);
    sessions.store(&server_channel);
    out.push(us(
        "tls.resume_us",
        per_call(1, || {
            let (client, t1) = resume_client(banked.clone(), NOW, 1_000, &mut rng);
            let (t2, server) = sessions.accept(&t1, NOW, &mut rng).expect("known ticket");
            let (t3, c) = client.step(&t2).expect("valid resume hello");
            (c, server.step(&t3).expect("valid resume finished"))
        }),
    ));

    // ---- testbed: what a message costs beside the crypto --------------
    // `vo_flows` has some twenty sends and polls per 10 us op, too many
    // to span without slowing it by a quarter, so these are probes: the
    // storm's fault profile, its leg sizes, bursts timed as a whole.
    let net = Network::new();
    let clock = SimClock::new();
    let flows = FlowOpts::bench();
    net.enable_faults(clock.clone(), cfg.seed, flows.profile);
    net.set_transcript_recording(false);
    let (src, dst) = (net.register("probe-src"), net.register("probe-dst"));
    const BURST: usize = 256;
    let (mut send_s, mut pump_s, mut poll_s) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..BATCHES {
        // One burst of calls: first poll sends the request…
        let mut calls: Vec<PollingCall> = (0..BURST)
            .map(|i| PollingCall::new("probe-dst", i as u64 + 1, &[0u8; 400], flows.policy))
            .collect();
        let t = Instant::now();
        for call in &mut calls {
            black_box(call.poll(&src, clock.now()));
        }
        let first_polls = t.elapsed().as_secs_f64();
        // …the network delivers what it did not drop…
        clock.advance(8);
        let t = Instant::now();
        let delivered = net.pump();
        pump_s.push(t.elapsed().as_secs_f64() / delivered.max(1) as f64);
        // …the far side answers each request…
        let mut replies = Vec::new();
        while let Some(m) = dst.try_recv() {
            if let Some((id, _)) = rpc::decode_request(&m.payload) {
                replies.push(rpc::encode_reply(id, &[0u8; 300]));
            }
        }
        let sent = replies.len();
        let t = Instant::now();
        for reply in replies {
            let _ = dst.send("probe-src", reply);
        }
        send_s.push(t.elapsed().as_secs_f64() / sent.max(1) as f64);
        clock.advance(8);
        net.pump();
        // …and the second poll takes the reply (or finds none yet).
        let t = Instant::now();
        for call in &mut calls {
            black_box(call.poll(&src, clock.now()));
        }
        poll_s.push((first_polls + t.elapsed().as_secs_f64()) / (2 * BURST) as f64);
        while src.try_recv().is_some() {}
    }
    out.push(ns("testbed.net_send_ns", quantile(&send_s, QUIET)));
    out.push(ns("testbed.net_pump_ns_per_msg", quantile(&pump_s, QUIET)));
    out.push(ns("testbed.rpc_poll_ns", quantile(&poll_s, QUIET)));
    out.push(ns(
        "testbed.names_intern_ns",
        per_call(1, || net.intern("probe-src")),
    ));
    drop(mill);
    out
}

/// The probes that explain `gram_submit`: fresh keys and fresh moduli,
/// nothing registered.
fn gram_state(cfg: &Config) -> Vec<Metric> {
    let world = GramWorld::build(cfg.seed);
    let mut rng = probe_rng(cfg.seed, "gram");
    let mut out = Vec::new();

    out.push(ms(
        "bignum.prime256_search_ms",
        per_call(4, || generate_prime(&mut rng, 256, 16)),
    ));
    let modulus = generate_prime(&mut rng, 256, 16);
    out.push(us(
        "bignum.mont_ctx_build_us",
        per_call(1, || Montgomery::new_precomputed(&modulus)),
    ));
    out.push(ms(
        "crypto.rsa_keygen512_ms",
        per_call(2, || RsaKeyPair::generate(&mut rng, 512)),
    ));
    let user = &world.users[0];
    out.push(ms(
        "pki.proxy_issue_ms",
        per_call(2, || {
            issue_proxy(&mut rng, user, ProxyType::Impersonation, 512, NOW, 43_200)
        }),
    ));

    // Steps 1–4 of delegation over an established context, as
    // `Requestor::connect_and_start` runs them.
    let session = grid_proxy_init(&mut rng, user, ProxyOptions::default(), NOW).expect("sign-on");
    let requestor = session.credential();
    let (mut mine, mut theirs) = establish_in_memory(
        TlsConfig::new(requestor.clone(), world.trust.clone(), NOW),
        TlsConfig::new(world.host.clone(), world.trust.clone(), NOW),
        &mut rng,
    )
    .expect("mutual authentication");
    out.push(ms(
        "gssapi.delegation_ms",
        per_call(2, || {
            let d1 = delegation::request_delegation(&mut mine);
            let (d2, pending) = delegation::respond_with_key(&mut theirs, &mut rng, &d1, 512)
                .expect("delegation request");
            let d3 = delegation::deliver_proxy(
                &mut mine,
                &mut rng,
                requestor,
                &d2,
                ProxyType::Impersonation,
                NOW,
                43_200,
            )
            .expect("proxy over their key");
            pending.finish(&mut theirs, &d3).expect("delegated chain")
        }),
    ));
    let who = world.users[world.users.len() / 2].subject();
    out.push(ns(
        "authz.gridmap_lookup_ns",
        per_call(1, || world.gridmap.lookup(who)),
    ));
    out
}

/// The probes that explain `ogsa_request`, on its own envelopes.
fn ogsa_state(cfg: &Config) -> Vec<Metric> {
    let world = OgsaWorld::build(cfg.seed);
    let mut rng = probe_rng(cfg.seed, "ogsa");
    let mut text_rng = DetRng::seed_from_u64(cfg.seed ^ 0x065A);
    let mut out = Vec::new();
    let client_cfg = TlsConfig::new(world.user.clone(), world.trust.clone(), NOW);
    let server_cfg = TlsConfig::new(world.service.clone(), world.trust.clone(), NOW);
    let mut responder = WsscResponder::new(server_cfg);
    let mut session =
        establish(client_cfg.clone(), &mut responder, &mut rng).expect("establishment");

    let mut request = |len: usize| {
        Envelope::request(
            "invoke",
            invoke_body("probe", &payload_text(&mut text_rng, len)),
        )
    };
    let (env_64, env_1k, env_16k) = (request(64), request(KIB), request(16 * KIB));

    // ---- wsse: conversation set-up and per-message protection ---------
    out.push(us(
        "wsse.wssc_establish_us",
        per_call(2, || {
            establish(client_cfg.clone(), &mut responder, &mut rng)
        }),
    ));
    let banked = ClientSession::from_channel(session.channel()).expect("ticket");
    out.push(us(
        "wsse.wssc_resume_us",
        per_call(2, || {
            resume(banked.clone(), NOW, 3_600, &mut responder, &mut rng)
        }),
    ));
    out.push(us(
        "wsse.protect_64b_us",
        per_call(1, || session.protect(&env_64)),
    ));
    out.push(us(
        "wsse.protect_16k_us",
        per_call(1, || session.protect(&env_16k)),
    ));
    // Unprotecting consumes sequence numbers: a fresh conversation, its
    // messages opened in the order they were protected.
    let mut fresh = establish(client_cfg.clone(), &mut responder, &mut rng).expect("establishment");
    let mut protected = |env: &Envelope, n: usize| -> Vec<Envelope> {
        (0..n)
            .map(|_| Envelope::parse(&fresh.protect(env).to_xml()).expect("own envelope"))
            .collect()
    };
    let (small, large) = (
        protected(&env_64, BATCHES * 16),
        protected(&env_16k, BATCHES * 4),
    );
    let mut open = |items| per_item(items, |e| responder.unprotect(&e).expect("in order")).0;
    out.push(us("wsse.unprotect_64b_us", open(small)));
    out.push(us("wsse.unprotect_16k_us", open(large)));
    let signed = xmlsig::sign_envelope(&env_1k, &world.user, NOW, 300);
    out.push(us(
        "wsse.xmlsig_sign_us",
        per_call(1, || xmlsig::sign_envelope(&env_1k, &world.user, NOW, 300)),
    ));
    let signed = Envelope::parse(&signed.to_xml()).expect("own envelope");
    let crls = CrlStore::new();
    out.push(us(
        "wsse.xmlsig_verify_us",
        per_call(1, || {
            xmlsig::verify_envelope(&signed, &world.trust, &crls, NOW)
        }),
    ));
    let wire_1k = session.protect(&env_1k).to_xml();
    let wire_16k = session.protect(&env_16k).to_xml();
    out.push(us(
        "wsse.envelope_parse_us",
        per_call(1, || Envelope::parse(&wire_1k)),
    ));
    out.push(us(
        "wsse.policy_intersect_us",
        per_call(1, || intersect(&world.published, &world.published)),
    ));
    let blob = seeded_bytes(&mut rng, 16 * KIB);
    out.push(mib_s(
        "wsse.b64_mib_s",
        blob.len(),
        per_call(1, || b64::encode(&blob)),
    ));
    out.push(metric(
        "wsse.envelope_overhead_ratio",
        "ratio",
        wire_1k.len() as f64 / KIB as f64,
    ));

    // ---- xml: the protected invoke as it crosses the wire -------------
    let (el_1k, el_16k) = (
        Element::parse(&wire_1k).expect("own envelope"),
        Element::parse(&wire_16k).expect("own envelope"),
    );
    out.push(us(
        "xml.parse_1k_us",
        per_call(1, || Element::parse(&wire_1k)),
    ));
    out.push(mib_s(
        "xml.parse_mib_s",
        wire_16k.len(),
        per_call(1, || Element::parse(&wire_16k)),
    ));
    out.push(mib_s(
        "xml.to_xml_mib_s",
        wire_16k.len(),
        per_call(1, || el_16k.to_xml()),
    ));
    out.push(us("xml.c14n_1k_us", per_call(1, || el_1k.canonical_xml())));
    out.push(mib_s(
        "xml.c14n_mib_s",
        wire_16k.len(),
        per_call(1, || el_16k.canonical_xml()),
    ));

    let decide = Request::new("/O=Bench/CN=User", "service:echo", "run");
    out.push(ns(
        "authz.policy_decide_ns",
        per_call(1, || world.authz.evaluate(&decide)),
    ));
    out
}

/// The probes that explain `bulk_xfer`: per-byte and per-record costs.
fn bulk_state(cfg: &Config) -> Vec<Metric> {
    let world = XferWorld::build(cfg.seed);
    let mut rng = probe_rng(cfg.seed, "bulk");
    let mut out = Vec::new();
    let big = seeded_bytes(&mut rng, 64 * KIB);
    let small = seeded_bytes(&mut rng, 256);

    let key: [u8; 32] = seeded_bytes(&mut rng, 32).try_into().expect("32 bytes");
    let nonce: [u8; 12] = seeded_bytes(&mut rng, 12).try_into().expect("12 bytes");
    let sealed = aead::seal(&key, &nonce, b"", &big);
    out.push(mib_s(
        "crypto.aead_seal_64k_mib_s",
        big.len(),
        per_call(1, || aead::seal(&key, &nonce, b"", &big)),
    ));
    out.push(mib_s(
        "crypto.aead_open_64k_mib_s",
        big.len(),
        per_call(1, || aead::open(&key, &nonce, b"", &sealed)),
    ));
    out.push(ns(
        "crypto.aead_seal_256b_ns",
        per_call(1, || aead::seal(&key, &nonce, b"", &small)),
    ));
    out.push(mib_s(
        "crypto.sha256_mib_s",
        big.len(),
        per_call(1, || sha256(&big)),
    ));

    let config = TlsConfig::new(world.user.clone(), world.trust.clone(), NOW);
    let (a, b) = handshake_in_memory(config.clone(), config, &mut rng).expect("handshake");
    let (mut tx, mut rx) = (RecordSession::new(a), RecordSession::new(b));
    let mut roundtrip = |payload: &[u8]| {
        per_call(1, || {
            let record = tx.send(payload);
            rx.feed(&frame(&record));
            rx.next_message()
        })
    };
    out.push(mib_s(
        "tls.record_roundtrip_64k_mib_s",
        big.len(),
        roundtrip(&big),
    ));
    out.push(ns("tls.record_roundtrip_256b_ns", roundtrip(&small)));
    let framed = frame(&world.big);
    out.push(mib_s(
        "tls.framebuf_feed_mib_s",
        world.big.len(),
        per_call(1, || {
            let mut buf = FrameBuf::new();
            for piece in framed.chunks(16 * KIB) {
                buf.feed(piece);
            }
            buf.next_frame()
        }),
    ));

    let os = SimOs::new();
    os.add_host("probe");
    let uid = os.add_account("probe", "mover").expect("fresh account");
    os.write_file("probe", "/f", uid, FileMode::private(), world.big.clone())
        .expect("fresh host");
    // `write_file` takes its buffer by value and moves it; the copying
    // write is the resumable upload's: one `append_file` per 256 B record.
    let upload = &world.small[0];
    out.push(mib_s(
        "testbed.os_write_mib_s",
        upload.len(),
        per_call(1, || {
            let _ = os.remove_file("probe", "/part", uid);
            for record in upload.chunks(small.len()) {
                let _ = os.append_file("probe", "/part", uid, FileMode::private(), record);
            }
        }),
    ));
    out.push(mib_s(
        "testbed.os_read_mib_s",
        world.big.len(),
        per_call(1, || os.read_file("probe", "/f", uid)),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_item_times_whole_batches_and_keeps_outputs() {
        let (s, outs) = per_item((0..BATCHES * 3).collect(), |i| i * 2);
        assert!(s >= 0.0);
        assert_eq!(outs.len(), BATCHES * 3);
        assert_eq!(outs[5], 10);
    }

    #[test]
    fn per_call_grows_with_the_work() {
        let spin = |n: u64| move || (0..n).fold(0u64, |a, i| a.wrapping_mul(31).wrapping_add(i));
        assert!(per_call(1, spin(200_000)) > per_call(1, spin(2_000)));
    }
}
