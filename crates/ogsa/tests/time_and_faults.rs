//! Time-advancement and fault-handling behaviour of the hosting
//! environment: credential expiry, SimClock-driven network timeouts
//! mid-handshake, and clock skew between hosts.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use gridsec_authz::policy::{CombiningAlg, Effect, PolicySet, Rule, SubjectMatch};
use gridsec_crypto::rng::ChaChaRng;
use gridsec_ogsa::client::{OgsaClient, StaticCredential};
use gridsec_ogsa::hosting::{fault_envelope, parse_fault, HostingEnvironment};
use gridsec_ogsa::service::{GridService, RequestContext};
use gridsec_ogsa::transport::InProcessTransport;
use gridsec_ogsa::OgsaError;
use gridsec_pki::ca::CertificateAuthority;
use gridsec_pki::name::DistinguishedName;
use gridsec_pki::store::TrustStore;
use gridsec_testbed::clock::SimClock;
use gridsec_testbed::faults::{CrashPlan, CrashRecover, CrashableServer};
use gridsec_testbed::net::{FaultProfile, Network};
use gridsec_testbed::rpc::RpcClient;
use gridsec_testbed::sched::Scheduler;
use gridsec_util::retry::RetryPolicy;
use gridsec_wsse::policy::{PolicyAlternative, Protection, SecurityPolicy};
use gridsec_xml::Element;

fn dn(s: &str) -> DistinguishedName {
    DistinguishedName::parse(s).unwrap()
}

struct Null;
impl GridService for Null {
    fn service_type(&self) -> &str {
        "null"
    }
    fn invoke(
        &mut self,
        _c: &RequestContext,
        _o: &str,
        _p: &Element,
    ) -> Result<Element, OgsaError> {
        Ok(Element::new("ok"))
    }
}

/// Build the hosting environment on `server_clock` and the client on
/// `client_clock`; passing the same clock twice gives the classic
/// single-timeline setup, different clocks model skewed hosts.
fn build_skewed(
    server_clock: &SimClock,
    client_clock: &SimClock,
    mechanism: &str,
    user_lifetime: u64,
) -> (
    Rc<RefCell<HostingEnvironment>>,
    OgsaClient<InProcessTransport>,
) {
    let (env, trust, user) = build_env(server_clock, mechanism, user_lifetime);
    let mut client = OgsaClient::new(
        InProcessTransport::new(env.clone()),
        trust,
        client_clock.clone(),
        b"time client",
    );
    client.add_source(Box::new(StaticCredential(user)));
    (env, client)
}

fn build_env(
    clock: &SimClock,
    mechanism: &str,
    user_lifetime: u64,
) -> (
    Rc<RefCell<HostingEnvironment>>,
    TrustStore,
    gridsec_pki::credential::Credential,
) {
    let mut rng = ChaChaRng::from_seed_bytes(b"time tests");
    let ca = CertificateAuthority::create_root(&mut rng, dn("/O=G/CN=CA"), 512, 0, 10_000_000);
    let user = ca.issue_identity(&mut rng, dn("/O=G/CN=U"), 512, 0, user_lifetime);
    let service = ca.issue_identity(&mut rng, dn("/O=G/CN=S"), 512, 0, 10_000_000);
    let mut trust = TrustStore::new();
    trust.add_root(ca.certificate().clone());

    let published = SecurityPolicy {
        service: "null".to_string(),
        alternatives: vec![PolicyAlternative {
            mechanism: mechanism.to_string(),
            token_types: vec!["x509-chain".to_string()],
            trust_roots: vec![],
            protection: Protection::Sign,
        }],
    };
    let mut authz = PolicySet::new(CombiningAlg::DenyOverrides);
    authz.add(Rule::new(
        SubjectMatch::Exact("/O=G/CN=U".to_string()),
        "*",
        "*",
        Effect::Permit,
    ));
    let mut env = HostingEnvironment::new(
        "time-host",
        service,
        trust.clone(),
        clock.clone(),
        published,
        authz,
    );
    env.registry
        .register_factory("null", Box::new(|_c, _a| Ok(Box::new(Null))));
    (Rc::new(RefCell::new(env)), trust, user)
}

fn build(
    clock: &SimClock,
    mechanism: &str,
    user_lifetime: u64,
) -> (
    Rc<RefCell<HostingEnvironment>>,
    OgsaClient<InProcessTransport>,
) {
    build_skewed(clock, clock, mechanism, user_lifetime)
}

#[test]
fn expired_credential_refused_for_new_contexts() {
    let clock = SimClock::starting_at(100);
    let (_env, mut client) = build(&clock, "gsi-secure-conversation", 1_000);
    let handle = client.create_service("null", Element::new("a")).unwrap();
    client.invoke(&handle, "x", Element::new("p")).unwrap();

    // Advance time past the user's certificate lifetime; a fresh context
    // must be refused at the token exchange.
    clock.advance(10_000);
    client.reset_session();
    let err = client.invoke(&handle, "x", Element::new("p")).unwrap_err();
    assert!(matches!(
        err,
        OgsaError::Application(_) | OgsaError::Wsse(_)
    ));
}

#[test]
fn stateless_requests_expire_with_credential() {
    let clock = SimClock::starting_at(100);
    let (_env, mut client) = build(&clock, "xml-signature", 1_000);
    let handle = client.create_service("null", Element::new("a")).unwrap();
    client.invoke(&handle, "x", Element::new("p")).unwrap();

    clock.advance(10_000);
    let err = client.invoke(&handle, "x", Element::new("p")).unwrap_err();
    assert!(matches!(
        err,
        OgsaError::Application(_) | OgsaError::Wsse(_)
    ));
}

#[test]
fn fault_envelopes_roundtrip_every_variant() {
    let errors = vec![
        OgsaError::NotAuthorized {
            caller: "x".to_string(),
            operation: "y".to_string(),
        },
        OgsaError::NoSuchService("gsh:1".to_string()),
        OgsaError::NoSuchFactory("warp".to_string()),
        OgsaError::Application("boom".to_string()),
        OgsaError::Transport("down".to_string()),
        OgsaError::InsecureReply("bad"),
        OgsaError::NoUsableCredential,
        OgsaError::Malformed("junk"),
    ];
    for e in errors {
        let env = fault_envelope(&e);
        let reparsed = gridsec_wsse::soap::Envelope::parse(&env.to_xml()).unwrap();
        let (code, msg) = parse_fault(&reparsed).expect("is a fault");
        assert!(!code.is_empty());
        assert!(!msg.is_empty(), "fault {code} carries its message");
    }
    // Non-fault envelopes parse as None.
    let normal = gridsec_wsse::soap::Envelope::request("op", Element::new("x"));
    assert!(parse_fault(&normal).is_none());
}

/// A hosting environment whose link to `u-client` is cut when the third
/// request arrives.
struct CutAfterTwo {
    env: Rc<RefCell<HostingEnvironment>>,
    served: u32,
    net: Network,
    cut: Rc<Cell<bool>>,
}

impl CrashRecover for CutAfterTwo {
    fn handle(&mut self, from: &str, id: u64, body: &[u8]) -> Vec<u8> {
        self.served += 1;
        if self.served == 3 {
            self.cut.set(true);
            self.net.partition("u-client", "time-host");
            return Vec::new();
        }
        self.env.borrow_mut().handle(from, id, body)
    }
}

#[test]
fn timeout_expiry_mid_handshake_recovers_after_heal() {
    let clock = SimClock::starting_at(100);
    let net = Network::new();
    // No random faults — this test is about SimClock-driven timeout
    // expiry, so the partition is the only failure source.
    net.enable_faults(clock.clone(), 0x11ED, FaultProfile::default());

    let (env, trust, user) = build_env(&clock, "gsi-secure-conversation", 10_000_000);
    let policy = RetryPolicy {
        max_attempts: 4,
        base_timeout: 8,
        multiplier: 2,
        max_timeout: 32,
    };
    let transport = RpcClient::new(net.register("u-client"), "time-host", policy);
    // Cut the link after the second served request: the policy fetch
    // and the first conversation token get through, then the handshake
    // is left dangling mid-exchange. The third request arrives to find
    // the link down, never reaches the environment, and its answer is
    // lost with the link.
    let cut = Rc::new(Cell::new(false));
    let cutter = CutAfterTwo {
        env,
        served: 0,
        net: net.clone(),
        cut: cut.clone(),
    };
    let mut sched = Scheduler::new(&net);
    CrashableServer::spawn(
        &mut sched,
        net.register("time-host"),
        "time-host",
        &CrashPlan::disabled(),
        &Rc::new(RefCell::new(cutter)),
    );
    let mut client = OgsaClient::new(transport, trust, clock.clone(), b"time client");
    client.add_source(Box::new(StaticCredential(user)));

    let before = clock.now();
    let err = client
        .create_service("null", Element::new("a"))
        .unwrap_err();
    assert!(matches!(err, OgsaError::Transport(_)), "{err:?}");
    assert!(cut.get(), "the partition must have landed mid-handshake");
    // The failing leg burned the whole retry schedule on the SimClock:
    // 8 + 16 + 32 + 32 simulated seconds, no wall-clock sleeps.
    assert!(
        clock.now() >= before + policy.worst_case_total(),
        "clock only advanced {} of {}",
        clock.now() - before,
        policy.worst_case_total()
    );

    // Heal and start over: the abandoned half-handshake on the server
    // must not poison a fresh attempt.
    net.heal_all();
    client.reset_session();
    let handle = client.create_service("null", Element::new("a")).unwrap();
    client.invoke(&handle, "x", Element::new("p")).unwrap();
}

#[test]
fn clock_skew_beyond_ttl_rejects_requests() {
    // The server's clock runs far ahead of the client's: every signed
    // request looks expired on arrival (message_ttl is 300).
    let server_clock = SimClock::starting_at(10_000);
    let client_clock = SimClock::starting_at(100);
    let (_env, mut client) = build_skewed(&server_clock, &client_clock, "xml-signature", 1_000_000);
    let err = client
        .create_service("null", Element::new("a"))
        .unwrap_err();
    assert!(
        matches!(err, OgsaError::Application(_) | OgsaError::Wsse(_)),
        "{err:?}"
    );
}

#[test]
fn clock_skew_within_ttl_is_tolerated() {
    // Small skew (50 < ttl 300) in either direction must not break the
    // flow: server slightly ahead...
    let server_clock = SimClock::starting_at(150);
    let client_clock = SimClock::starting_at(100);
    let (_env, mut client) = build_skewed(&server_clock, &client_clock, "xml-signature", 1_000_000);
    let handle = client.create_service("null", Element::new("a")).unwrap();
    client.invoke(&handle, "x", Element::new("p")).unwrap();

    // ...and client slightly ahead (its timestamps sit in the server's
    // near future, still inside the validity window).
    let server_clock = SimClock::starting_at(100);
    let client_clock = SimClock::starting_at(150);
    let (_env, mut client) = build_skewed(&server_clock, &client_clock, "xml-signature", 1_000_000);
    let handle = client.create_service("null", Element::new("a")).unwrap();
    client.invoke(&handle, "x", Element::new("p")).unwrap();
}
