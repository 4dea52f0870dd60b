//! `ogsa_request`: op = one secured SOAP request/response (Figure 3).
//!
//! One `ogsa::client::OgsaClient` drives a `HostingEnvironment` through
//! a benchmark-owned `Transport`, closed loop. A slice is
//! [`SESSIONS`] sessions of: policy fetch, createService (which
//! establishes the WS-SecureConversation context — a full handshake on
//! even sessions, a resumption on odd ones), [`INVOKES`] protected
//! invokes cycling 64 B / 1 KiB / 16 KiB echo payloads, destroy. Every
//! 16th op is followed by a stateless XML-Signature one-shot, every
//! 64th by a request from a DN the policy does not authorise, which
//! must come back as an authorization fault.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use gridsec_authz::policy::{CombiningAlg, Effect, PolicySet, Rule, SubjectMatch};
use gridsec_crypto::rng::ChaChaRng;
use gridsec_ogsa::client::{OgsaClient, StaticCredential};
use gridsec_ogsa::hosting::{parse_fault, HostingEnvironment};
use gridsec_ogsa::service::{GridService, RequestContext};
use gridsec_ogsa::transport::Transport;
use gridsec_ogsa::OgsaError;
use gridsec_pki::ca::CertificateAuthority;
use gridsec_pki::credential::Credential;
use gridsec_pki::name::DistinguishedName;
use gridsec_pki::store::{CrlStore, TrustStore};
use gridsec_testbed::clock::SimClock;
use gridsec_util::rng::{DetRng, RngCore};
use gridsec_wsse::policy::{PolicyAlternative, Protection, SecurityPolicy};
use gridsec_wsse::soap::Envelope;
use gridsec_wsse::xmlsig;
use gridsec_xml::Element;

use crate::harness::{slice_seed, ClosedLoop, Config, Sabotage, SliceOutcome, Workload};
use crate::span::span;

/// Sessions per slice (even, so full and resumed establishments
/// alternate evenly); ≈40 ms of ops.
pub const SESSIONS: usize = 2;
/// Protected invokes per session.
pub const INVOKES: usize = 32;
/// Echo payload sizes, cycled.
pub const PAYLOAD_SIZES: [usize; 3] = [64, 1024, 16 * 1024];
const INVOKE_SPANS: [&str; 3] = [
    "ogsa.op.invoke_64b",
    "ogsa.op.invoke_1k",
    "ogsa.op.invoke_16k",
];
const NOW: u64 = 100;

fn dn(s: &str) -> DistinguishedName {
    DistinguishedName::parse(s).expect("benchmark DN")
}

struct Echo;

impl GridService for Echo {
    fn service_type(&self) -> &str {
        "echo"
    }
    fn invoke(
        &mut self,
        _ctx: &RequestContext,
        _op: &str,
        payload: &Element,
    ) -> Result<Element, OgsaError> {
        Ok(payload.clone())
    }
}

/// Bytes and messages that crossed the transport.
#[derive(Default)]
struct Wire {
    bytes: Cell<u64>,
    msgs: Cell<u64>,
}

/// The benchmark's own transport: a direct call into the hosting
/// environment with the wire accounted and the server side spanned.
#[derive(Clone)]
pub struct BenchTransport {
    env: Rc<RefCell<HostingEnvironment>>,
    wire: Rc<Wire>,
}

impl Transport for BenchTransport {
    fn call(&mut self, request_xml: String) -> Result<String, OgsaError> {
        let reply = span("ogsa.hosting_handle", request_xml.len() as u64, || {
            self.env.borrow_mut().handle_message(&request_xml)
        });
        self.wire
            .bytes
            .set(self.wire.bytes.get() + (request_xml.len() + reply.len()) as u64);
        self.wire.msgs.set(self.wire.msgs.get() + 2);
        Ok(reply)
    }
}

/// The seeded world of Figure 3: one CA, an authorised user, a trusted
/// but unauthorised intruder, one hosting environment with an echo
/// factory.
pub struct OgsaWorld {
    pub trust: TrustStore,
    pub user: Credential,
    pub intruder: Credential,
    pub service: Credential,
    pub env: Rc<RefCell<HostingEnvironment>>,
    pub published: SecurityPolicy,
    pub authz: PolicySet,
    pub clock: SimClock,
}

impl OgsaWorld {
    pub fn build(seed: u64) -> Self {
        let mut rng = ChaChaRng::from_seed_bytes(format!("gridbench ogsa {seed:#x}").as_bytes());
        let ca =
            CertificateAuthority::create_root(&mut rng, dn("/O=Bench/CN=CA"), 512, 0, u64::MAX / 2);
        let user = ca.issue_identity(&mut rng, dn("/O=Bench/CN=User"), 512, 0, u64::MAX / 4);
        let intruder =
            ca.issue_identity(&mut rng, dn("/O=Bench/CN=Intruder"), 512, 0, u64::MAX / 4);
        let service = ca.issue_identity(&mut rng, dn("/O=Bench/CN=Host"), 512, 0, u64::MAX / 4);
        let mut trust = TrustStore::new();
        trust.add_root(ca.certificate().clone());

        let published = SecurityPolicy {
            service: "echo".to_string(),
            alternatives: vec![PolicyAlternative {
                mechanism: "gsi-secure-conversation".to_string(),
                token_types: vec!["x509-chain".to_string()],
                trust_roots: vec![],
                protection: Protection::SignAndEncrypt,
            }],
        };
        let mut authz = PolicySet::new(CombiningAlg::DenyOverrides);
        for (resource, action) in [("factory:echo", "create"), ("service:echo", "*")] {
            authz.add(Rule::new(
                SubjectMatch::Exact("/O=Bench/CN=User".to_string()),
                resource,
                action,
                Effect::Permit,
            ));
        }
        let clock = SimClock::starting_at(NOW);
        let mut env = HostingEnvironment::new(
            "bench-host",
            service.clone(),
            trust.clone(),
            clock.clone(),
            published.clone(),
            authz.clone(),
        );
        env.registry
            .register_factory("echo", Box::new(|_c, _a| Ok(Box::new(Echo))));
        OgsaWorld {
            trust,
            user,
            intruder,
            service,
            env: Rc::new(RefCell::new(env)),
            published,
            authz,
            clock,
        }
    }
}

/// Seeded ASCII payload of exactly `len` bytes (no XML escaping).
pub fn payload_text(rng: &mut DetRng, len: usize) -> String {
    const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_";
    let mut s = String::with_capacity(len);
    while s.len() < len {
        let mut word = rng.next_u64();
        for _ in 0..10.min(len - s.len()) {
            s.push(ALPHABET[(word & 63) as usize] as char);
            word >>= 6;
        }
    }
    s
}

pub fn invoke_body(handle: &str, text: &str) -> Element {
    Element::new("ogsa:Invoke")
        .with_attr("handle", handle)
        .with_attr("op", "run")
        .with_child(Element::new("p").with_text(text))
}

pub struct OgsaRequest {
    seed: u64,
    sabotage: Option<Sabotage>,
    world: OgsaWorld,
    transport: BenchTransport,
    client: OgsaClient<BenchTransport>,
    intruder: OgsaClient<BenchTransport>,
}

/// A slice's tally plus the progress of the 1-in-16 and 1-in-64 scripts.
struct Tally {
    ops: ClosedLoop,
    stateless_done: u64,
    refusals_done: u64,
}

impl OgsaRequest {
    fn client_for(
        world: &OgsaWorld,
        transport: &BenchTransport,
        who: &Credential,
        label: &str,
    ) -> OgsaClient<BenchTransport> {
        let mut c = OgsaClient::new(
            transport.clone(),
            world.trust.clone(),
            world.clock.clone(),
            label.as_bytes(),
        );
        c.add_source(Box::new(StaticCredential(who.clone())));
        c
    }

    /// The stateless sliver: sign, send, verify the signed reply.
    fn stateless_one_shot(&mut self, handle: &str, text: &str) -> Result<String, OgsaError> {
        let env = Envelope::request("invoke", invoke_body(handle, text));
        let signed = span("wsse.xmlsig_sign", 0, || {
            xmlsig::sign_envelope(&env, &self.world.user, NOW, 300)
        });
        let reply = Envelope::parse(&self.transport.call(signed.to_xml())?)?;
        if let Some((code, msg)) = parse_fault(&reply) {
            return Err(OgsaError::Application(format!("{code}: {msg}")));
        }
        span("wsse.xmlsig_verify", 0, || {
            xmlsig::verify_envelope(&reply, &self.world.trust, &CrlStore::new(), NOW)
        })?;
        Ok(reply
            .payload()
            .ok_or(OgsaError::Malformed("empty reply"))?
            .text_content())
    }

    /// The scripted extras: one stateless one-shot per 16 ops issued and
    /// one unauthorised request per 64, run at the next point where a
    /// service instance is live.
    fn scripted(&mut self, t: &mut Tally, handle: &str, rng: &mut DetRng) {
        if t.ops.n / 16 > t.stateless_done {
            t.stateless_done += 1;
            let text = payload_text(rng, PAYLOAD_SIZES[1]);
            let _ = t.ops.op(
                "ogsa.op.stateless",
                || self.stateless_one_shot(handle, &text),
                |r, d| match r {
                    Ok(echo) if *echo == text => {
                        d.bytes(echo.as_bytes());
                        Some(2 * text.len() as u64)
                    }
                    _ => None,
                },
            );
        }
        if t.ops.n / 64 > t.refusals_done {
            t.refusals_done += 1;
            // A scripted refusal: attempted, never `ok`; served = failed.
            let body = Element::new("p").with_text("let me in");
            let began = Instant::now();
            let served = span("ogsa.op.refused", t.ops.n, || {
                let who = match self.sabotage {
                    Some(Sabotage::AcceptUnauthorised) => &mut self.client,
                    _ => &mut self.intruder,
                };
                !matches!(
                    who.invoke(handle, "run", body),
                    Err(OgsaError::NotAuthorized { .. })
                )
            });
            t.ops.out.busy_ns += began.elapsed().as_nanos() as u64;
            t.ops.out.attempted += 1;
            t.ops.out.failed += u64::from(served);
            t.ops.digest.u64(u64::from(served));
        }
    }
}

impl Workload for OgsaRequest {
    const NAME: &'static str = "ogsa_request";
    const CLOSED_LOOP: bool = true;

    fn build(cfg: &Config) -> Self {
        let world = OgsaWorld::build(cfg.seed);
        let transport = BenchTransport {
            env: Rc::clone(&world.env),
            wire: Rc::default(),
        };
        let client = Self::client_for(&world, &transport, &world.user, "bench client");
        let intruder = Self::client_for(&world, &transport, &world.intruder, "bench intruder");
        OgsaRequest {
            seed: cfg.seed,
            sabotage: cfg.sabotage,
            world,
            transport,
            client,
            intruder,
        }
    }

    fn slice(&mut self, index: u64) -> SliceOutcome {
        let mut rng = DetRng::seed_from_u64(slice_seed(self.seed, index) ^ 0x065A);
        let wire0 = (
            self.transport.wire.bytes.get(),
            self.transport.wire.msgs.get(),
        );
        let mut t = Tally {
            ops: ClosedLoop::new(Self::NAME),
            stateless_done: 0,
            refusals_done: 0,
        };
        for session in 0..SESSIONS {
            self.client.reset_policy();
            let _ = t.ops.op(
                "ogsa.op.policy_fetch",
                || self.client.fetch_policy(),
                |r, d| {
                    let p = r.as_ref().ok()?;
                    d.bytes(p.service.as_bytes());
                    Some(0)
                },
            );
            let open = if session % 2 == 0 {
                self.client.forget_session();
                "ogsa.op.cold_session"
            } else {
                self.client.reset_session();
                "ogsa.op.resumed_session"
            };
            let created = t.ops.op(
                open,
                || self.client.create_service("echo", Element::new("a")),
                |r, _| r.as_ref().ok().map(|_| 0),
            );
            let Ok(handle) = created else {
                continue;
            };
            self.scripted(&mut t, &handle, &mut rng);
            for i in 0..INVOKES {
                let class = i % PAYLOAD_SIZES.len();
                let text = payload_text(&mut rng, PAYLOAD_SIZES[class]);
                let _ = t.ops.op(
                    INVOKE_SPANS[class],
                    || {
                        self.client.invoke(
                            &handle,
                            "run",
                            Element::new("p").with_text(text.as_str()),
                        )
                    },
                    |r, d| match r {
                        Ok(echo) if echo.text_content() == text => {
                            d.bytes(text.as_bytes());
                            Some(2 * text.len() as u64)
                        }
                        _ => None,
                    },
                );
                self.scripted(&mut t, &handle, &mut rng);
            }
            let _ = t.ops.op(
                "ogsa.op.destroy",
                || self.client.destroy(&handle),
                |r, _| r.as_ref().ok().map(|_| 0),
            );
        }
        t.ops.finish(
            self.transport.wire.bytes.get() - wire0.0,
            self.transport.wire.msgs.get() - wire0.1,
        )
    }
}
