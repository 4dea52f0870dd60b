//! A revocation reaches WS-SecureConversation on both ends. A hosting
//! environment given a CRL refuses a revoked client's resumption as well
//! as its full handshake, and a client given a CRL drops the live
//! conversation and the cached ticket of a host it revokes.

use std::cell::RefCell;
use std::rc::Rc;

use gridsec_authz::policy::{CombiningAlg, Effect, PolicySet, Rule, SubjectMatch};
use gridsec_crypto::rng::ChaChaRng;
use gridsec_ogsa::client::{OgsaClient, StaticCredential};
use gridsec_ogsa::hosting::HostingEnvironment;
use gridsec_ogsa::service::{GridService, RequestContext};
use gridsec_ogsa::transport::InProcessTransport;
use gridsec_ogsa::OgsaError;
use gridsec_pki::ca::CertificateAuthority;
use gridsec_pki::credential::Credential;
use gridsec_pki::name::DistinguishedName;
use gridsec_pki::store::{CrlStore, TrustStore};
use gridsec_testbed::clock::SimClock;
use gridsec_wsse::policy::{PolicyAlternative, Protection, SecurityPolicy};
use gridsec_xml::Element;

fn dn(s: &str) -> DistinguishedName {
    DistinguishedName::parse(s).unwrap()
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

struct Rig {
    ca: CertificateAuthority,
    alice: Credential,
    host: Credential,
    env: Rc<RefCell<HostingEnvironment>>,
    client: OgsaClient<InProcessTransport>,
    handle: String,
}

/// Alice holds one conversation with an echo service.
fn rig() -> Rig {
    let mut rng = ChaChaRng::from_seed_bytes(b"conversation revocation");
    let ca = CertificateAuthority::create_root(&mut rng, dn("/O=G/CN=CA"), 512, 0, 1_000_000);
    let alice = ca.issue_identity(&mut rng, dn("/O=G/CN=Alice"), 512, 0, 500_000);
    let host = ca.issue_identity(&mut rng, dn("/O=G/CN=Host"), 512, 0, 500_000);
    let mut trust = TrustStore::new();
    trust.add_root(ca.certificate().clone());
    let clock = SimClock::starting_at(100);
    let policy = SecurityPolicy {
        service: "echo".to_string(),
        alternatives: vec![PolicyAlternative {
            mechanism: "gsi-secure-conversation".to_string(),
            token_types: vec!["x509-chain".to_string()],
            trust_roots: vec![],
            protection: Protection::Sign,
        }],
    };
    let mut authz = PolicySet::new(CombiningAlg::DenyOverrides);
    for (resource, action) in [("factory:echo", "create"), ("service:echo", "*")] {
        authz.add(Rule::new(
            SubjectMatch::Exact("/O=G/CN=Alice".to_string()),
            resource,
            action,
            Effect::Permit,
        ));
    }
    let mut env = HostingEnvironment::new(
        "host",
        host.clone(),
        trust.clone(),
        clock.clone(),
        policy,
        authz,
    );
    env.registry
        .register_factory("echo", Box::new(|_c, _a| Ok(Box::new(Echo))));
    let env = Rc::new(RefCell::new(env));
    let mut client = OgsaClient::new(InProcessTransport::new(env.clone()), trust, clock, b"alice");
    client.add_source(Box::new(StaticCredential(alice.clone())));
    let handle = client.create_service("echo", Element::new("a")).unwrap();
    Rig {
        ca,
        alice,
        host,
        env,
        client,
        handle,
    }
}

impl Rig {
    fn revoking(&self, who: &Credential) -> CrlStore {
        let mut crls = CrlStore::new();
        let crl = self
            .ca
            .issue_crl(vec![who.certificate().body().serial], 100, 1_000_000);
        assert!(crls.add(crl, self.ca.certificate()));
        crls
    }

    fn invoke(&mut self) -> Result<Element, OgsaError> {
        self.client
            .invoke(&self.handle, "run", Element::new("p").with_text("x"))
    }
}

#[test]
fn a_revoked_client_is_refused_when_it_resumes_and_when_it_shakes_hands() {
    let mut r = rig();
    let crls = r.revoking(&r.alice);
    r.env.borrow_mut().set_crls(crls);

    // The conversation is gone; its ticket is offered and refused, and
    // the full handshake it falls back to meets the CRL.
    r.client.reset_session();
    let err = r.invoke().unwrap_err();
    assert!(err.to_string().contains("security"), "{err}");
    assert_eq!(r.client.contexts_resumed, 0, "the ticket was not honoured");

    // A client that starts over with a full handshake fares no better.
    r.client.forget_session();
    let err = r.invoke().unwrap_err();
    assert!(err.to_string().contains("security"), "{err}");
    assert_eq!(
        (r.client.contexts_established, r.client.contexts_resumed),
        (1, 0)
    );
}

#[test]
fn a_client_that_revokes_its_host_stops_talking_to_it() {
    let mut r = rig();
    r.invoke().unwrap();
    let crls = r.revoking(&r.host);
    r.client.set_crls(crls);

    // Neither the live conversation nor its ticket survives: the next
    // call runs a full handshake, whose chain check refuses the host.
    let err = r.invoke().unwrap_err();
    assert!(matches!(err, OgsaError::Wsse(_)), "{err:?}");
    assert_eq!(
        (r.client.contexts_established, r.client.contexts_resumed),
        (1, 0)
    );
}
