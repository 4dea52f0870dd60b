//! Integration tests for the full Figure 3 pipeline: client hosting
//! environment → security services → server hosting environment →
//! application service.

use std::cell::RefCell;
use std::rc::Rc;

use gridsec_authz::policy::{CombiningAlg, Effect, PolicySet, Rule, SubjectMatch};
use gridsec_crypto::rng::ChaChaRng;
use gridsec_ogsa::client::{OgsaClient, StaticCredential};
use gridsec_ogsa::hosting::{parse_fault, AuditEvent, HostingEnvironment};
use gridsec_ogsa::service::{GridService, RequestContext};
use gridsec_ogsa::transport::{InProcessTransport, Transport};
use gridsec_ogsa::OgsaError;
use gridsec_pki::ca::CertificateAuthority;
use gridsec_pki::credential::Credential;
use gridsec_pki::name::DistinguishedName;
use gridsec_pki::store::TrustStore;
use gridsec_testbed::clock::SimClock;
use gridsec_testbed::faults::{CrashPlan, CrashableServer};
use gridsec_testbed::net::Network;
use gridsec_testbed::rpc::RpcClient;
use gridsec_testbed::sched::Scheduler;
use gridsec_util::retry::RetryPolicy;
use gridsec_wsse::b64;
use gridsec_wsse::policy::{PolicyAlternative, Protection, SecurityPolicy};
use gridsec_wsse::soap::Envelope;
use gridsec_wsse::wssc::RST_ACTION;
use gridsec_xml::Element;

fn dn(s: &str) -> DistinguishedName {
    DistinguishedName::parse(s).unwrap()
}

/// Echo service: replies with the caller identity and the payload.
struct EchoService;

impl GridService for EchoService {
    fn service_type(&self) -> &str {
        "echo"
    }
    fn invoke(
        &mut self,
        ctx: &RequestContext,
        operation: &str,
        payload: &Element,
    ) -> Result<Element, OgsaError> {
        match operation {
            "echo" => Ok(Element::new("echo:Reply")
                .with_attr("caller", ctx.caller.base_identity.to_string())
                .with_text(payload.text_content())),
            other => Err(OgsaError::Application(format!("unknown op {other}"))),
        }
    }
    fn service_data(&self, name: &str) -> Option<Element> {
        (name == "serviceType").then(|| Element::new("sde").with_text("echo"))
    }
}

struct World {
    trust: TrustStore,
    alice: Credential,
    eve: Credential,
    service_cred: Credential,
    clock: SimClock,
}

fn world() -> World {
    let mut rng = ChaChaRng::from_seed_bytes(b"ogsa pipeline");
    let ca = CertificateAuthority::create_root(&mut rng, dn("/O=G/CN=CA"), 512, 0, 1_000_000);
    let alice = ca.issue_identity(&mut rng, dn("/O=G/CN=Alice"), 512, 0, 500_000);
    let eve = ca.issue_identity(&mut rng, dn("/O=G/CN=Eve"), 512, 0, 500_000);
    let service_cred = ca.issue_identity(&mut rng, dn("/O=G/CN=EchoHost"), 512, 0, 500_000);
    let mut trust = TrustStore::new();
    trust.add_root(ca.certificate().clone());
    World {
        trust,
        alice,
        eve,
        service_cred,
        clock: SimClock::starting_at(100),
    }
}

fn published_policy(mechanisms: &[&str]) -> SecurityPolicy {
    SecurityPolicy {
        service: "echo".to_string(),
        alternatives: mechanisms
            .iter()
            .map(|m| PolicyAlternative {
                mechanism: m.to_string(),
                token_types: vec!["x509-chain".to_string()],
                trust_roots: vec![],
                protection: Protection::Sign,
            })
            .collect(),
    }
}

fn authz_for_alice() -> PolicySet {
    let mut p = PolicySet::new(CombiningAlg::DenyOverrides);
    p.add(Rule::new(
        SubjectMatch::Exact("/O=G/CN=Alice".to_string()),
        "factory:echo",
        "create",
        Effect::Permit,
    ));
    p.add(Rule::new(
        SubjectMatch::Exact("/O=G/CN=Alice".to_string()),
        "service:echo",
        "*",
        Effect::Permit,
    ));
    p
}

fn make_env(w: &World, mechanisms: &[&str]) -> HostingEnvironment {
    let mut env = HostingEnvironment::new(
        "echo-host",
        w.service_cred.clone(),
        w.trust.clone(),
        w.clock.clone(),
        published_policy(mechanisms),
        authz_for_alice(),
    );
    env.registry
        .register_factory("echo", Box::new(|_ctx, _args| Ok(Box::new(EchoService))));
    env
}

fn make_client(
    w: &World,
    env: Rc<RefCell<HostingEnvironment>>,
    cred: &Credential,
) -> OgsaClient<InProcessTransport> {
    let mut client = OgsaClient::new(
        InProcessTransport::new(env),
        w.trust.clone(),
        w.clock.clone(),
        b"client rng",
    );
    client.add_source(Box::new(StaticCredential(cred.clone())));
    client
}

fn full_flow(mechanisms: &[&str]) {
    let w = world();
    let env = Rc::new(RefCell::new(make_env(&w, mechanisms)));
    let mut client = make_client(&w, env, &w.alice);

    // Create, invoke, query, destroy — the whole lifecycle, secured.
    let handle = client.create_service("echo", Element::new("args")).unwrap();
    let reply = client
        .invoke(&handle, "echo", Element::new("m").with_text("hello grid"))
        .unwrap();
    assert_eq!(reply.text_content(), "hello grid");
    assert_eq!(reply.attr("caller"), Some("/O=G/CN=Alice"));

    let sde = client.query_service_data(&handle, "serviceType").unwrap();
    assert_eq!(sde.text_content(), "echo");

    client.destroy(&handle).unwrap();
    assert!(matches!(
        client.invoke(&handle, "echo", Element::new("m")),
        Err(OgsaError::NoSuchService(_))
    ));
}

#[test]
fn stateful_mechanism_full_lifecycle() {
    full_flow(&["gsi-secure-conversation"]);
}

#[test]
fn stateless_mechanism_full_lifecycle() {
    full_flow(&["xml-signature"]);
}

#[test]
fn policy_negotiation_prefers_server_order() {
    let w = world();
    let env = Rc::new(RefCell::new(make_env(
        &w,
        &["xml-signature", "gsi-secure-conversation"],
    )));
    let mut client = make_client(&w, env, &w.alice);
    let handle = client.create_service("echo", Element::new("args")).unwrap();
    let _ = client
        .invoke(&handle, "echo", Element::new("m").with_text("x"))
        .unwrap();
    // Server preferred xml-signature → no conversation was established.
    assert_eq!(client.contexts_established, 0);
    assert_eq!(client.policy_fetches, 1);
}

#[test]
fn stateful_context_is_reused_across_calls() {
    let w = world();
    let env = Rc::new(RefCell::new(make_env(&w, &["gsi-secure-conversation"])));
    let mut client = make_client(&w, env, &w.alice);
    let handle = client.create_service("echo", Element::new("args")).unwrap();
    for i in 0..5 {
        client
            .invoke(&handle, "echo", Element::new("m").with_text(i.to_string()))
            .unwrap();
    }
    assert_eq!(client.contexts_established, 1);
    assert_eq!(client.policy_fetches, 1);
}

#[test]
fn dropped_context_resumes_without_full_handshake() {
    let w = world();
    let env = Rc::new(RefCell::new(make_env(&w, &["gsi-secure-conversation"])));
    let mut client = make_client(&w, env, &w.alice);
    let handle = client.create_service("echo", Element::new("args")).unwrap();
    assert_eq!(client.contexts_established, 1);

    // Losing the conversation (e.g. an idle timeout) keeps the ticket:
    // the next call runs the abbreviated exchange, not a full handshake.
    client.reset_session();
    client
        .invoke(&handle, "echo", Element::new("m").with_text("again"))
        .unwrap();
    assert_eq!(client.contexts_established, 1);
    assert_eq!(client.contexts_resumed, 1);

    // Resumption rotates the ticket, so it works repeatedly.
    client.reset_session();
    client
        .invoke(&handle, "echo", Element::new("m").with_text("thrice"))
        .unwrap();
    assert_eq!(client.contexts_established, 1);
    assert_eq!(client.contexts_resumed, 2);
}

#[test]
fn restarted_service_forces_full_handshake_fallback() {
    let w = world();
    let env = Rc::new(RefCell::new(make_env(&w, &["gsi-secure-conversation"])));
    let mut client = make_client(&w, env.clone(), &w.alice);
    let handle = client.create_service("echo", Element::new("args")).unwrap();
    assert_eq!(client.contexts_established, 1);

    // Restart the hosting environment: its session cache (and the service
    // instance) are gone, so the client's ticket is refused and it falls
    // back to the full exchange transparently.
    let _ = handle;
    *env.borrow_mut() = make_env(&w, &["gsi-secure-conversation"]);
    client.reset_session();
    let handle2 = client.create_service("echo", Element::new("args")).unwrap();
    let reply = client
        .invoke(&handle2, "echo", Element::new("m").with_text("back"))
        .unwrap();
    assert_eq!(reply.text_content(), "back");
    assert_eq!(client.contexts_established, 2);
    assert_eq!(client.contexts_resumed, 0);
}

#[test]
fn unauthorized_caller_denied_but_authenticated() {
    let w = world();
    let env = Rc::new(RefCell::new(make_env(&w, &["xml-signature"])));
    let audit: Rc<RefCell<Vec<AuditEvent>>> = Rc::default();
    let sink = audit.clone();
    env.borrow_mut()
        .set_audit(Box::new(move |e| sink.borrow_mut().push(e)));
    let mut client = make_client(&w, env.clone(), &w.eve);
    let err = client
        .create_service("echo", Element::new("args"))
        .unwrap_err();
    assert!(matches!(err, OgsaError::NotAuthorized { .. }));
    // The denial was audited with the authenticated identity.
    let event = audit.borrow()[0].clone();
    assert_eq!(event.caller, "/O=G/CN=Eve");
    assert_eq!(event.outcome, "deny");
    assert_eq!(event.reason, Some(gridsec_authz::AuthzError::LocalDeny));
}

#[test]
fn unsigned_request_rejected() {
    let w = world();
    let mut env = make_env(&w, &["xml-signature"]);
    let naked = gridsec_wsse::soap::Envelope::request(
        "invoke",
        Element::new("ogsa:Invoke")
            .with_attr("handle", "gsh:echo-1")
            .with_attr("op", "echo"),
    );
    let reply = env.handle_message(&naked.to_xml());
    assert!(reply.contains("fault"));
    assert!(reply.contains("security"));
}

#[test]
fn garbage_input_yields_fault_not_panic() {
    let w = world();
    let mut env = make_env(&w, &["xml-signature"]);
    for garbage in ["", "not xml", "<a/>", "<soap:Envelope/>"] {
        let reply = env.handle_message(garbage);
        assert!(reply.contains("fault"), "input {garbage:?}");
    }
}

#[test]
fn firewall_observability_of_secured_messages() {
    // Paper §4.4: "a firewall can recognize whether a connection is
    // authenticated". Protected and signed envelopes are recognizable
    // without any keys.
    let w = world();
    let env = Rc::new(RefCell::new(make_env(&w, &["gsi-secure-conversation"])));

    // Wrap the transport to observe wire messages.
    struct Observer<T: Transport> {
        inner: T,
        secured: Rc<RefCell<u32>>,
        total: Rc<RefCell<u32>>,
    }
    impl<T: Transport> Transport for Observer<T> {
        fn call(&mut self, request_xml: String) -> Result<String, OgsaError> {
            *self.total.borrow_mut() += 1;
            let env = gridsec_wsse::soap::Envelope::parse(&request_xml).unwrap();
            if env.is_secured() {
                *self.secured.borrow_mut() += 1;
            }
            self.inner.call(request_xml)
        }
    }

    let secured = Rc::new(RefCell::new(0u32));
    let total = Rc::new(RefCell::new(0u32));
    let mut client = OgsaClient::new(
        Observer {
            inner: InProcessTransport::new(env),
            secured: secured.clone(),
            total: total.clone(),
        },
        w.trust.clone(),
        w.clock.clone(),
        b"firewall test",
    );
    client.add_source(Box::new(StaticCredential(w.alice.clone())));
    let handle = client.create_service("echo", Element::new("args")).unwrap();
    client
        .invoke(&handle, "echo", Element::new("m").with_text("x"))
        .unwrap();

    // getPolicy is unsecured; RST exchanges carry tokens in the body (not
    // the security header); the application messages are secured.
    assert!(*total.borrow() >= 4);
    assert!(*secured.borrow() >= 2);
}

#[test]
fn scheduled_rpc_service_end_to_end() {
    let w = world();
    let network = Network::new();
    // The hosting environment is a scheduler task behind the
    // at-most-once RPC framing, woken per delivery; it runs inside the
    // client's wait.
    let env = Rc::new(RefCell::new(make_env(&w, &["xml-signature"])));
    let mut sched = Scheduler::new(&network);
    CrashableServer::spawn(
        &mut sched,
        network.register("echo-host"),
        "echo-host",
        &CrashPlan::disabled(),
        &env,
    );

    let transport = RpcClient::new(
        network.register("client-1"),
        "echo-host",
        RetryPolicy {
            max_attempts: 4,
            base_timeout: 8,
            multiplier: 2,
            max_timeout: 32,
        },
    );
    let mut client = OgsaClient::new(transport, w.trust.clone(), w.clock.clone(), b"rpc client");
    client.add_source(Box::new(StaticCredential(w.alice.clone())));
    let handle = client.create_service("echo", Element::new("args")).unwrap();
    let reply = client
        .invoke(
            &handle,
            "echo",
            Element::new("m").with_text("via scheduler"),
        )
        .unwrap();
    assert_eq!(reply.text_content(), "via scheduler");
}

/// A peer that can reach a hosting environment cannot tear down another
/// client's WS-SecureConversation: context ids are sequential, so it can
/// name one, but a stray finish under an established id is refused and
/// the conversation stays up.
#[test]
fn stray_rst_naming_another_clients_context_leaves_it_established() {
    let w = world();
    let network = Network::new();
    let env = Rc::new(RefCell::new(make_env(&w, &["gsi-secure-conversation"])));
    let mut sched = Scheduler::new(&network);
    CrashableServer::spawn(
        &mut sched,
        network.register("echo-host"),
        "echo-host",
        &CrashPlan::disabled(),
        &env,
    );
    let policy = RetryPolicy {
        max_attempts: 4,
        base_timeout: 8,
        multiplier: 2,
        max_timeout: 32,
    };
    let mut alice = OgsaClient::new(
        RpcClient::new(network.register("client-1"), "echo-host", policy),
        w.trust.clone(),
        w.clock.clone(),
        b"alice",
    );
    alice.add_source(Box::new(StaticCredential(w.alice.clone())));
    let handle = alice.create_service("echo", Element::new("args")).unwrap();
    assert_eq!(alice.contexts_established, 1);

    let stray = Envelope::request(
        RST_ACTION,
        Element::new("wst:RequestSecurityToken")
            .with_child(Element::new("wsc:Identifier").with_text("uuid:ctx-1"))
            .with_child(Element::new("wst:BinaryExchange").with_text(b64::encode(b"junk"))),
    );
    let mut mallory = RpcClient::new(network.register("client-2"), "echo-host", policy);
    let reply = Envelope::parse(&Transport::call(&mut mallory, stray.to_xml()).unwrap()).unwrap();
    let (_, reason) = parse_fault(&reply).expect("the stray finish is refused");
    assert!(reason.contains("already established"), "{reason}");

    let reply = alice
        .invoke(&handle, "echo", Element::new("m").with_text("still up"))
        .unwrap();
    assert_eq!(reply.text_content(), "still up");
    assert_eq!(alice.contexts_established, 1, "no second handshake");
}
