//! Firewall observability (§4.4) and WS-Routing (§6 future work) tests:
//! a key-free perimeter admits only recognizably-secured traffic, and a
//! routed path lets a client reach a service through an intermediary
//! without the intermediary terminating security.

use std::cell::RefCell;
use std::rc::Rc;

use gridsec_authz::policy::{CombiningAlg, Effect, PolicySet, Rule, SubjectMatch};
use gridsec_crypto::rng::ChaChaRng;
use gridsec_ogsa::client::{OgsaClient, StaticCredential};
use gridsec_ogsa::firewall::{Firewall, FirewalledTransport, RoutedTransport, RouterTask, Verdict};
use gridsec_ogsa::hosting::HostingEnvironment;
use gridsec_ogsa::service::{GridService, RequestContext};
use gridsec_ogsa::transport::{InProcessTransport, ServeTask};
use gridsec_ogsa::OgsaError;
use gridsec_pki::ca::CertificateAuthority;
use gridsec_pki::credential::Credential;
use gridsec_pki::name::DistinguishedName;
use gridsec_pki::store::TrustStore;
use gridsec_testbed::clock::SimClock;
use gridsec_testbed::net::Network;
use gridsec_testbed::sched::Scheduler;
use gridsec_wsse::policy::{PolicyAlternative, Protection, SecurityPolicy};
use gridsec_wsse::routing::RoutingPath;
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

struct World {
    trust: TrustStore,
    user: Credential,
    service: Credential,
    clock: SimClock,
}

fn world() -> World {
    let mut rng = ChaChaRng::from_seed_bytes(b"firewall tests");
    let ca = CertificateAuthority::create_root(&mut rng, dn("/O=G/CN=CA"), 512, 0, 10_000_000);
    let user = ca.issue_identity(&mut rng, dn("/O=G/CN=U"), 512, 0, 1_000_000);
    let service = ca.issue_identity(&mut rng, dn("/O=G/CN=S"), 512, 0, 1_000_000);
    let mut trust = TrustStore::new();
    trust.add_root(ca.certificate().clone());
    World {
        trust,
        user,
        service,
        clock: SimClock::starting_at(100),
    }
}

fn env_for(w: &World, mechanism: &str) -> HostingEnvironment {
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
        "fw-host",
        w.service.clone(),
        w.trust.clone(),
        w.clock.clone(),
        published,
        authz,
    );
    env.registry
        .register_factory("null", Box::new(|_c, _a| Ok(Box::new(Null))));
    env
}

#[test]
fn firewall_classifies_without_keys() {
    let w = world();
    let mut fw = Firewall::new();

    // Unsecured application message: denied.
    let naked = gridsec_wsse::soap::Envelope::request("invoke", Element::new("x"));
    assert!(matches!(fw.inspect(&naked.to_xml()), Verdict::Deny(_)));

    // Policy bootstrap: allowed.
    let boot = gridsec_wsse::soap::Envelope::request("getPolicy", Element::new("q"));
    assert!(matches!(fw.inspect(&boot.to_xml()), Verdict::Allow(_)));

    // Signed message: allowed (recognizable by the Security header).
    let signed = gridsec_wsse::xmlsig::sign_envelope(&naked, &w.user, 100, 300);
    assert!(matches!(fw.inspect(&signed.to_xml()), Verdict::Allow(_)));

    // Garbage: denied.
    assert!(matches!(fw.inspect("not xml"), Verdict::Deny(_)));
    assert_eq!(fw.stats.allowed, 2);
    assert_eq!(fw.stats.denied, 2);
}

#[test]
fn firewalled_client_still_completes_secured_flows() {
    let w = world();
    // Both mechanisms pass a strict perimeter: every message is either a
    // bootstrap, a token exchange, or secured.
    for mechanism in ["gsi-secure-conversation", "xml-signature"] {
        let env = Rc::new(RefCell::new(env_for(&w, mechanism)));
        let transport = FirewalledTransport::new(InProcessTransport::new(env), Firewall::new());
        let mut client = OgsaClient::new(
            transport,
            w.trust.clone(),
            w.clock.clone(),
            format!("fw client {mechanism}").as_bytes(),
        );
        client.add_source(Box::new(StaticCredential(w.user.clone())));
        let handle = client.create_service("null", Element::new("a")).unwrap();
        client.invoke(&handle, "run", Element::new("p")).unwrap();
    }
}

#[test]
fn ws_routing_through_firewalled_intermediary() {
    let w = world();
    let network = Network::new();

    // Service and perimeter router are tasks on one deterministic
    // scheduler — no threads, no registration races, no request caps.
    let mut sched = Scheduler::new(&network);
    sched.spawn_mailbox(
        "inner-host",
        ServeTask::new(&network, "inner-host", env_for(&w, "xml-signature")),
    );
    let fw = Rc::new(RefCell::new(Firewall::new()));
    sched.spawn_mailbox(
        "perimeter",
        RouterTask::new(&network, "perimeter", fw.clone()),
    );

    // Client outside the perimeter, routing via it; each call parks in
    // the scheduler, so router and service run inside its wait.
    let transport = RoutedTransport::connect(
        &network,
        "outside-client",
        RoutingPath::through(&["perimeter"], "inner-host"),
    );
    let mut client = OgsaClient::new(transport, w.trust.clone(), w.clock.clone(), b"routed");
    client.add_source(Box::new(StaticCredential(w.user.clone())));

    let handle = client.create_service("null", Element::new("a")).unwrap();
    let reply = client.invoke(&handle, "run", Element::new("p")).unwrap();
    assert_eq!(reply.name, "ok");

    // getPolicy + createService + invoke all passed the perimeter.
    let stats = fw.borrow().stats;
    assert_eq!(stats.allowed, 3);
    assert_eq!(stats.denied, 0);
}

#[test]
fn router_drops_unsecured_messages() {
    let network = Network::new();
    let mut sched = Scheduler::new(&network);
    let fw = Rc::new(RefCell::new(Firewall::new()));
    sched.spawn_mailbox(
        "perimeter",
        RouterTask::new(&network, "perimeter", fw.clone()),
    );
    let client = network.register("attacker");
    let naked = gridsec_wsse::soap::Envelope::request("invoke", Element::new("x"));
    let mut env = naked;
    gridsec_wsse::routing::set_path(&mut env, &RoutingPath::through(&[], "inner-host"));
    client.send("perimeter", env.to_xml().into_bytes()).unwrap();
    sched.run();
    let reply = client.try_recv().expect("router replied with a fault");
    let text = String::from_utf8_lossy(&reply.payload).into_owned();
    assert!(text.contains("fault"));
    assert!(text.contains("firewall"));
    assert_eq!(fw.borrow().stats.denied, 1);
}

#[test]
fn transports_to_an_unserved_endpoint_time_out_instead_of_parking() {
    use gridsec_ogsa::transport::{NetworkTransport, Transport};

    // "inner-host" and "perimeter" are registered, but nothing serves
    // them: the reply can never come, whether or not a scheduler is
    // bound to look for it.
    let request = gridsec_wsse::soap::Envelope::request("invoke", Element::new("x")).to_xml();
    for driven in [true, false] {
        let network = Network::new();
        let _unserved = (
            network.register("inner-host"),
            network.register("perimeter"),
        );
        let _sched = driven.then(|| Scheduler::new(&network));
        let mut direct = NetworkTransport::connect(&network, "c1", "inner-host");
        let mut routed = RoutedTransport::connect(
            &network,
            "c2",
            RoutingPath::through(&["perimeter"], "inner-host"),
        );
        for err in [
            direct.call(request.clone()).unwrap_err(),
            routed.call(request.clone()).unwrap_err(),
        ] {
            assert_eq!(err, OgsaError::Transport("operation timed out".into()));
        }
    }
}
