//! Firewall observability (§4.4) and WS-Routing (§6 future work) tests:
//! a key-free perimeter admits only recognizably-secured traffic, and a
//! routed path lets a client reach a service through intermediaries
//! without any of them terminating security. A routed call is one
//! at-most-once RPC call end to end, so it survives a lossy WAN and each
//! hop returns every reply to the caller that asked for it.

use std::cell::RefCell;
use std::rc::Rc;

use gridsec_authz::policy::{CombiningAlg, Effect, PolicySet, Rule, SubjectMatch};
use gridsec_crypto::rng::ChaChaRng;
use gridsec_ogsa::client::{OgsaClient, StaticCredential};
use gridsec_ogsa::firewall::{Firewall, FirewallStats, RoutedTransport, RouterTask, Verdict};
use gridsec_ogsa::hosting::HostingEnvironment;
use gridsec_ogsa::service::{GridService, RequestContext};
use gridsec_ogsa::transport::Transport;
use gridsec_ogsa::OgsaError;
use gridsec_pki::ca::CertificateAuthority;
use gridsec_pki::credential::Credential;
use gridsec_pki::name::DistinguishedName;
use gridsec_pki::store::TrustStore;
use gridsec_testbed::clock::SimClock;
use gridsec_testbed::faults::{CrashPlan, CrashRecover, CrashableServer};
use gridsec_testbed::net::{FaultProfile, Network};
use gridsec_testbed::rpc::{self, RpcClient};
use gridsec_testbed::sched::Scheduler;
use gridsec_util::retry::RetryPolicy;
use gridsec_wsse::policy::{PolicyAlternative, Protection, SecurityPolicy};
use gridsec_wsse::routing::{set_path, RoutingPath};
use gridsec_wsse::soap::Envelope;
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
    let naked = Envelope::request("invoke", Element::new("x"));
    assert!(matches!(fw.inspect(&naked.to_xml()), Verdict::Deny(_)));

    // Policy bootstrap: allowed.
    let boot = Envelope::request("getPolicy", Element::new("q"));
    assert!(matches!(fw.inspect(&boot.to_xml()), Verdict::Allow(_)));

    // Signed message: allowed (recognizable by the Security header).
    let signed = gridsec_wsse::xmlsig::sign_envelope(&naked, &w.user, 100, 300);
    assert!(matches!(fw.inspect(&signed.to_xml()), Verdict::Allow(_)));

    // Garbage: denied.
    assert!(matches!(fw.inspect("not xml"), Verdict::Deny(_)));
    assert_eq!(fw.stats.allowed, 2);
    assert_eq!(fw.stats.denied, 2);
}

/// The chaos scenarios' retry policy: eight attempts, timeouts from 16
/// to 64 ticks, against a routed round trip over the lossy WAN of four
/// links of at most seven ticks each.
const PATIENT: RetryPolicy = RetryPolicy {
    max_attempts: 8,
    base_timeout: 16,
    multiplier: 2,
    max_timeout: 64,
};

/// Serve `env` on the scheduler behind the RPC endpoint `name`.
fn serve_env(
    sched: &mut Scheduler,
    network: &Network,
    name: &str,
    env: &Rc<RefCell<HostingEnvironment>>,
) {
    CrashableServer::spawn(
        sched,
        network.register(name),
        name,
        &CrashPlan::disabled(),
        env,
    );
}

/// A router task `name` behind a strict firewall; returns the firewall.
fn router(sched: &mut Scheduler, network: &Network, name: &str) -> Rc<RefCell<Firewall>> {
    let fw = Rc::new(RefCell::new(Firewall::new()));
    sched.spawn_mailbox(name, RouterTask::new(network, name, fw.clone()));
    fw
}

/// An OGSA client at `name` whose calls travel `path`.
fn routed_client(
    w: &World,
    network: &Network,
    name: &str,
    path: RoutingPath,
    seed: &[u8],
) -> OgsaClient<RoutedTransport> {
    let first = path.via.first().unwrap_or(&path.to).clone();
    let rpc = RpcClient::new(network.register(name), &first, PATIENT);
    let mut client = OgsaClient::new(
        RoutedTransport::new(rpc, path),
        w.trust.clone(),
        w.clock.clone(),
        seed,
    );
    client.add_source(Box::new(StaticCredential(w.user.clone())));
    client
}

/// `createService` then `invoke`; the `Null` service answers `ok`.
fn create_and_invoke(client: &mut OgsaClient<RoutedTransport>) -> Result<(), OgsaError> {
    let handle = client.create_service("null", Element::new("a"))?;
    let reply = client.invoke(&handle, "run", Element::new("p"))?;
    assert_eq!(reply.name, "ok");
    Ok(())
}

#[test]
fn firewalled_client_still_completes_secured_flows() {
    let w = world();
    // Both mechanisms pass a strict perimeter: every message is either a
    // bootstrap, a token exchange, or secured.
    for (mechanism, envelopes) in [("gsi-secure-conversation", 5), ("xml-signature", 3)] {
        let network = Network::new();
        let mut sched = Scheduler::new(&network);
        let env = Rc::new(RefCell::new(env_for(&w, mechanism)));
        serve_env(&mut sched, &network, "inner-host", &env);
        let fw = router(&mut sched, &network, "perimeter");

        let path = RoutingPath::through(&["perimeter"], "inner-host");
        let mut client = routed_client(&w, &network, "outside-client", path, mechanism.as_bytes());
        create_and_invoke(&mut client).unwrap();

        // getPolicy, the two token exchanges of a conversation, then
        // createService and invoke all passed the perimeter.
        let stats = fw.borrow().stats;
        assert_eq!((stats.allowed, stats.denied), (envelopes, 0), "{mechanism}");
    }
}

#[test]
fn ws_routing_through_firewalled_intermediary() {
    let w = world();
    let network = Network::new();

    // Service and perimeter router are tasks on one deterministic
    // scheduler; each call parks in it, so router and service run inside
    // the client's wait.
    let mut sched = Scheduler::new(&network);
    let env = Rc::new(RefCell::new(env_for(&w, "xml-signature")));
    serve_env(&mut sched, &network, "inner-host", &env);
    let fw = router(&mut sched, &network, "perimeter");

    // The client outside the perimeter routes via it; the router only
    // forwards, so the service itself creates the instance and answers.
    let path = RoutingPath::through(&["perimeter"], "inner-host");
    let mut client = routed_client(&w, &network, "outside-client", path, b"routed");
    create_and_invoke(&mut client).unwrap();
    assert_eq!(env.borrow().registry.instance_count(), 1);

    // getPolicy + createService + invoke all passed the perimeter.
    let stats = fw.borrow().stats;
    assert_eq!((stats.allowed, stats.denied), (3, 0));
}

#[test]
fn ws_routing_survives_lossy_wan() {
    let w = world();
    let (mut failures, mut dropped, mut duplicated) = (Vec::new(), 0, 0);
    for seed in 1..=8u64 {
        for mechanism in ["gsi-secure-conversation", "xml-signature"] {
            let network = Network::new();
            network.enable_faults(w.clock.clone(), seed, FaultProfile::lossy_wan());
            let mut sched = Scheduler::new(&network);
            let env = Rc::new(RefCell::new(env_for(&w, mechanism)));
            serve_env(&mut sched, &network, "inner-host", &env);
            router(&mut sched, &network, "perimeter");

            let path = RoutingPath::through(&["perimeter"], "inner-host");
            let label = format!("lossy {seed} {mechanism}");
            let mut client = routed_client(&w, &network, "outside-client", path, label.as_bytes());
            match create_and_invoke(&mut client) {
                // Retransmitted and duplicated createService requests
                // were answered from the service's reply cache, not
                // re-executed.
                Ok(()) => assert_eq!(env.borrow().registry.instance_count(), 1, "{label}"),
                Err(e) => failures.push(format!("{label}: {e}")),
            }
            let faults = network.fault_stats().expect("faults armed");
            dropped += faults.dropped;
            duplicated += faults.duplicated;
        }
    }
    assert!(
        failures.is_empty(),
        "{} of 16 routed flows failed: {failures:#?}",
        failures.len()
    );
    assert!(
        dropped > 0 && duplicated > 0,
        "the WAN lost and duplicated frames"
    );
}

#[test]
fn ws_routing_through_two_routers() {
    let w = world();
    for mechanism in ["gsi-secure-conversation", "xml-signature"] {
        let network = Network::new();
        let mut sched = Scheduler::new(&network);
        let env = Rc::new(RefCell::new(env_for(&w, mechanism)));
        serve_env(&mut sched, &network, "inner-host", &env);
        let edge = router(&mut sched, &network, "edge");
        let dmz = router(&mut sched, &network, "dmz");

        let path = RoutingPath::through(&["edge", "dmz"], "inner-host");
        let mut client = routed_client(&w, &network, "outside-client", path, mechanism.as_bytes());
        create_and_invoke(&mut client).unwrap();
        assert_eq!(env.borrow().registry.instance_count(), 1);
        // Each hop saw, and passed, every envelope once.
        assert_eq!(edge.borrow().stats, dmz.borrow().stats, "{mechanism}");
        assert_eq!(edge.borrow().stats.denied, 0);
    }
}

#[test]
fn colliding_call_ids_through_one_router_reach_their_own_callers() {
    let network = Network::new();
    let mut sched = Scheduler::new(&network);
    // The service echoes each request body back.
    struct Echo;
    impl CrashRecover for Echo {
        fn handle(&mut self, _from: &str, _id: u64, body: &[u8]) -> Vec<u8> {
            body.to_vec()
        }
    }
    CrashableServer::spawn(
        &mut sched,
        network.register("inner-host"),
        "inner-host",
        &CrashPlan::disabled(),
        &Rc::new(RefCell::new(Echo)),
    );
    router(&mut sched, &network, "perimeter");

    // Two callers put the same call id in flight at once.
    let callers = [network.register("c1"), network.register("c2")];
    for caller in &callers {
        let mut env = Envelope::request("getPolicy", Element::new("q").with_text(caller.name()));
        set_path(&mut env, &RoutingPath::through(&[], "inner-host"));
        caller
            .send("perimeter", rpc::encode_request(1, env.to_xml().as_bytes()))
            .unwrap();
    }
    sched.run();
    for caller in &callers {
        let reply = caller.try_recv().expect("a reply");
        let (id, body) = rpc::decode_reply(&reply.payload).expect("an RPC reply");
        assert_eq!(id, 1);
        let echoed = Envelope::parse(std::str::from_utf8(body).unwrap()).unwrap();
        assert_eq!(echoed.body[0].text_content(), caller.name());
        assert!(caller.try_recv().is_none());
    }
}

#[test]
fn router_drops_unsecured_messages() {
    let network = Network::new();
    let mut sched = Scheduler::new(&network);
    let fw = router(&mut sched, &network, "perimeter");
    let service = network.register("inner-host");
    let client = network.register("attacker");
    let routed = |action: &str| {
        let mut env = Envelope::request(action, Element::new("x"));
        set_path(&mut env, &RoutingPath::through(&[], "inner-host"));
        env.to_xml().into_bytes()
    };

    // An unsecured application message is answered with a fault under
    // the sender's own call id, and goes no further.
    client
        .send("perimeter", rpc::encode_request(7, &routed("invoke")))
        .unwrap();
    sched.run();
    let reply = client.try_recv().expect("router replied with a fault");
    let (id, body) = rpc::decode_reply(&reply.payload).expect("an RPC reply");
    assert_eq!(id, 7);
    let text = String::from_utf8_lossy(body);
    assert!(text.contains("fault"));
    assert!(text.contains("firewall"));
    assert_eq!(fw.borrow().stats.denied, 1);
    assert!(service.try_recv().is_none());

    // A bare envelope is not an RPC frame: dropped, not inspected.
    client.send("perimeter", routed("getPolicy")).unwrap();
    sched.run();
    assert!(client.try_recv().is_none());
    assert!(service.try_recv().is_none());
    assert_eq!(
        fw.borrow().stats,
        FirewallStats {
            allowed: 0,
            denied: 1
        }
    );

    // A reply under a relay id the router never issued is dropped.
    service
        .send("perimeter", rpc::encode_reply(42, b"forged"))
        .unwrap();
    sched.run();
    assert!(client.try_recv().is_none());

    // An allowed request is forwarded under a relay id; only the hop it
    // went to can answer it, and the answer returns under call id 9.
    client
        .send("perimeter", rpc::encode_request(9, &routed("getPolicy")))
        .unwrap();
    sched.run();
    let forwarded = service.try_recv().expect("forwarded to the next hop");
    let (relay, _) = rpc::decode_request(&forwarded.payload).expect("an RPC request");
    let mallory = network.register("mallory");
    mallory
        .send("perimeter", rpc::encode_reply(relay, b"forged"))
        .unwrap();
    sched.run();
    assert!(client.try_recv().is_none());
    service
        .send("perimeter", rpc::encode_reply(relay, b"answer"))
        .unwrap();
    sched.run();
    let reply = client.try_recv().expect("relayed reply");
    assert_eq!(rpc::decode_reply(&reply.payload), Some((9, &b"answer"[..])));
}

#[test]
fn transports_to_an_unserved_endpoint_time_out_instead_of_parking() {
    // "inner-host" and "perimeter" are registered, but nothing serves
    // them: the reply can never come, whether or not a scheduler is
    // bound to look for it.
    let request = Envelope::request("invoke", Element::new("x")).to_xml();
    for driven in [true, false] {
        let network = Network::new();
        let _unserved = (
            network.register("inner-host"),
            network.register("perimeter"),
        );
        let _sched = driven.then(|| Scheduler::new(&network));
        let mut direct = RpcClient::new(network.register("c1"), "inner-host", PATIENT);
        let mut routed = RoutedTransport::new(
            RpcClient::new(network.register("c2"), "perimeter", PATIENT),
            RoutingPath::through(&["perimeter"], "inner-host"),
        );
        for err in [
            Transport::call(&mut direct, request.clone()).unwrap_err(),
            routed.call(request.clone()).unwrap_err(),
        ] {
            assert_eq!(err, OgsaError::Transport("operation timed out".into()));
        }
    }
}
