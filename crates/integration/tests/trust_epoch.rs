//! One trust epoch per server, on every path that resumes a session.
//!
//! Each row swaps the CRL store of the one party that caches the
//! session, by plain `set_crls`, and checks both halves of the epoch
//! rule:
//!
//! * **A′ resumes** — a session minted under store A resumes after a
//!   swap to A′, a separate store built with A's edit history: equal
//!   histories are one epoch, so nothing is dropped;
//! * **B refuses** — after a swap to B, which holds as many CRLs as A
//!   (one) but a different one, the session is not resumed and the full
//!   handshake runs under B, which revokes the other party, so it fails.
//!
//! [`TRUST_DERIVED_TABLES`] lists every struct field under `crates/*/src`
//! that caches something derived from trust state; `scripts/verify.sh`
//! fails when a field of one of those types is missing from it.

use std::cell::RefCell;
use std::rc::Rc;

use gridsec_authz::gridmap::GridMapFile;
use gridsec_authz::policy::{CombiningAlg, Effect, PolicySet, Rule, SubjectMatch};
use gridsec_crypto::rng::ChaChaRng;
use gridsec_gram::resource::{GramConfig, GramResource};
use gridsec_gram::{GramError, JobDescription, JobState, Requestor};
use gridsec_integration::dn;
use gridsec_ogsa::client::{OgsaClient, StaticCredential};
use gridsec_ogsa::hosting::HostingEnvironment;
use gridsec_ogsa::service::{GridService, RequestContext};
use gridsec_ogsa::transport::Transport;
use gridsec_ogsa::OgsaError;
use gridsec_pki::ca::CertificateAuthority;
use gridsec_pki::credential::Credential;
use gridsec_pki::store::{CrlStore, Epoch, TrustStore};
use gridsec_testbed::clock::SimClock;
use gridsec_testbed::os::SimOs;
use gridsec_wsse::b64;
use gridsec_wsse::policy::{PolicyAlternative, Protection, SecurityPolicy};
use gridsec_wsse::soap::Envelope;
use gridsec_wsse::wssc::RST_ACTION;
use gridsec_xml::Element;

/// Every struct field under `crates/*/src` holding a
/// `ServerSessionCache`, `ClientSessionCache` or `CachedValidator`, as
/// `"<crate>/src/<file>: <Struct>.<field>"`, with how a trust change
/// reaches its entries.
const TRUST_DERIVED_TABLES: &[(&str, &str)] = &[
    (
        "gram/src/requestor.rs: Requestor.sessions",
        "epoch per entry, read by resume_or_establish",
    ),
    (
        "gram/src/resource.rs: GramResource.signers",
        "validator epoch (request_memo.rs)",
    ),
    (
        "gram/src/resource.rs: LmjfsInstance.sessions",
        "epoch per entry; row `LMJFS step 7`",
    ),
    (
        "gssapi/src/net.rs: AcceptorService.sessions",
        "epoch per entry, read by AcceptorContext::accept",
    ),
    (
        "ogsa/src/client.rs: OgsaClient.session_cache",
        "epoch per entry; row `OgsaClient ticket`",
    ),
    (
        "ogsa/src/hosting.rs: HostingEnvironment.signers",
        "validator epoch (stateless_memo.rs)",
    ),
    (
        "tls/src/pool.rs: CryptoPool.validator",
        "validator epoch, per call",
    ),
    (
        "wsse/src/wssc.rs: WsscResponder.sessions",
        "epoch per entry; row `WSSC responder`",
    ),
];

#[test]
fn every_listed_table_exists() {
    let crates = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    for (entry, _) in TRUST_DERIVED_TABLES {
        let (file, field) = entry.split_once(": ").expect("file: Struct.field");
        let (owner, field) = field.split_once('.').expect("Struct.field");
        let source = std::fs::read_to_string(format!("{crates}/{file}")).expect(file);
        let declared = source.split(&format!("struct {owner}")).nth(1);
        let declared = declared.and_then(|rest| rest.split("\n}").next());
        assert!(
            declared.is_some_and(|body| body.contains(&format!(" {field}: "))),
            "{entry} is listed but not declared"
        );
    }
}

struct World {
    trust: TrustStore,
    jane: Credential,
    service: Credential,
    host: Credential,
    clock: SimClock,
    /// One CRL revoking nobody here.
    a: CrlStore,
    /// A separate store with A's edit history.
    a_again: CrlStore,
    /// One CRL, as in A, revoking every party here.
    b: CrlStore,
}

fn world() -> World {
    let mut rng = ChaChaRng::from_seed_bytes(b"trust epoch");
    let ca = CertificateAuthority::create_root(&mut rng, dn("/O=G/CN=CA"), 512, 0, 1_000_000);
    let jane = ca.issue_identity(&mut rng, dn("/O=G/CN=Jane"), 512, 0, 500_000);
    let service = ca.issue_identity(&mut rng, dn("/O=G/CN=Echo"), 512, 0, 500_000);
    let host = ca.issue_host_identity(
        &mut rng,
        dn("/O=G/CN=host compute1"),
        vec!["compute1".into()],
        512,
        0,
        500_000,
    );
    let mut trust = TrustStore::new();
    trust.add_root(ca.certificate().clone());
    let store = |serials: Vec<u64>| {
        let mut crls = CrlStore::new();
        assert!(crls.add(ca.issue_crl(serials, 100, 1_000_000), ca.certificate()));
        crls
    };
    let (a, a_again) = (store(vec![999_999]), store(vec![999_999]));
    let serial = |c: &Credential| c.certificate().tbs.serial;
    let b = store(vec![serial(&jane), serial(&service), serial(&host)]);
    let epoch = |crls: &CrlStore| Epoch::of(&trust, crls);
    assert_eq!(epoch(&a), epoch(&a_again), "one history");
    assert_eq!(a.len(), b.len());
    assert_ne!(epoch(&a), epoch(&b), "one CRL different");
    World {
        trust,
        jane,
        service,
        host,
        clock: SimClock::starting_at(100),
        a,
        a_again,
        b,
    }
}

type Cell = Result<(), String>;

fn check(ok: bool, what: impl Into<String>) -> Cell {
    if ok {
        Ok(())
    } else {
        Err(what.into())
    }
}

// ----------------------------------------------------------------------
// WS-SecureConversation: the responder's stores, then the client's
// ----------------------------------------------------------------------

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

/// In-process dispatch that counts the hellos opening a conversation.
#[derive(Clone)]
struct Counted {
    env: Rc<RefCell<HostingEnvironment>>,
    /// (ClientHellos, ResumeHellos) seen.
    hellos: Rc<RefCell<(usize, usize)>>,
}

impl Transport for Counted {
    fn call(&mut self, request_xml: String) -> Result<String, OgsaError> {
        let request = Envelope::parse(&request_xml)?;
        let opening = request.action.as_deref() == Some(RST_ACTION)
            && request
                .payload()
                .is_some_and(|p| p.find("wsc:Identifier").is_none());
        let token = request
            .payload()
            .and_then(|p| p.find("wst:BinaryExchange"))
            .and_then(|t| b64::decode(&t.text_content()));
        if let (true, Some(token)) = (opening, token) {
            let mut hellos = self.hellos.borrow_mut();
            match token.first() {
                Some(1) => hellos.0 += 1,
                Some(4) => hellos.1 += 1,
                _ => {}
            }
        }
        Ok(self.env.borrow_mut().handle_message(&request_xml))
    }
}

struct Conversation {
    env: Rc<RefCell<HostingEnvironment>>,
    hellos: Rc<RefCell<(usize, usize)>>,
    client: OgsaClient<Counted>,
    handle: String,
}

/// Jane opens a conversation with an echo service, the responder's CRLs
/// set to `server_crls` and hers to `client_crls`.
fn conversation(
    w: &World,
    server_crls: &CrlStore,
    client_crls: &CrlStore,
) -> Result<Conversation, String> {
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
            SubjectMatch::Exact("/O=G/CN=Jane".to_string()),
            resource,
            action,
            Effect::Permit,
        ));
    }
    let mut env = HostingEnvironment::new(
        "echo-host",
        w.service.clone(),
        w.trust.clone(),
        w.clock.clone(),
        policy,
        authz,
    );
    env.registry
        .register_factory("echo", Box::new(|_c, _a| Ok(Box::new(Echo))));
    env.set_crls(server_crls.clone());
    let env = Rc::new(RefCell::new(env));
    let hellos = Rc::new(RefCell::new((0, 0)));
    let transport = Counted {
        env: env.clone(),
        hellos: hellos.clone(),
    };
    let mut client = OgsaClient::new(transport, w.trust.clone(), w.clock.clone(), b"jane");
    client.add_source(Box::new(StaticCredential(w.jane.clone())));
    client.set_crls(client_crls.clone());
    let handle = client
        .create_service("echo", Element::new("a"))
        .map_err(|e| e.to_string())?;
    Ok(Conversation {
        env,
        hellos,
        client,
        handle,
    })
}

impl Conversation {
    fn invoke(&mut self) -> Result<(), OgsaError> {
        self.client
            .invoke(&self.handle, "run", Element::new("p").with_text("x"))
            .map(drop)
    }

    /// (full, resumed) contexts the client established.
    fn contexts(&self) -> (u64, u64) {
        (
            self.client.contexts_established,
            self.client.contexts_resumed,
        )
    }

    fn hellos(&self) -> (usize, usize) {
        *self.hellos.borrow()
    }
}

fn responder_a_again() -> Cell {
    let w = world();
    let mut c = conversation(&w, &w.a, &CrlStore::new())?;
    c.env.borrow_mut().set_crls(w.a_again.clone());
    c.client.reset_session();
    c.invoke().map_err(|e| e.to_string())?;
    check(c.contexts() == (1, 1), format!("{:?}", c.contexts()))
}

fn responder_b() -> Cell {
    let w = world();
    let mut c = conversation(&w, &w.a, &CrlStore::new())?;
    c.env.borrow_mut().set_crls(w.b.clone());
    c.client.reset_session();
    let err = c.invoke().err().ok_or("a revoked client was served")?;
    check(err.to_string().contains("security"), err.to_string())?;
    check(c.contexts() == (1, 0), format!("{:?}", c.contexts()))?;
    check(
        c.hellos() == (2, 1),
        format!("{:?}: the ticket, then the full handshake", c.hellos()),
    )
}

fn client_a_again() -> Cell {
    let w = world();
    let mut c = conversation(&w, &CrlStore::new(), &w.a)?;
    c.client.set_crls(w.a_again.clone());
    c.invoke().map_err(|e| e.to_string())?;
    check(c.contexts() == (1, 0), "the live conversation goes on")?;
    c.client.reset_session();
    c.invoke().map_err(|e| e.to_string())?;
    check(c.contexts() == (1, 1), format!("{:?}", c.contexts()))
}

fn client_b() -> Cell {
    let w = world();
    let mut c = conversation(&w, &CrlStore::new(), &w.a)?;
    c.client.set_crls(w.b.clone());
    match c.invoke() {
        Err(OgsaError::Wsse(_)) => {}
        other => return Err(format!("a revoked host was trusted: {other:?}")),
    }
    check(c.contexts() == (1, 0), format!("{:?}", c.contexts()))?;
    check(
        c.hellos() == (2, 0),
        format!("{:?}: no ticket offered, one full handshake", c.hellos()),
    )
}

// ----------------------------------------------------------------------
// GRAM step 7: an LMJFS's session cache
// ----------------------------------------------------------------------

fn gram(w: &World) -> (GramResource, Requestor) {
    let gridmap = GridMapFile::parse("\"/O=G/CN=Jane\" jdoe\n").unwrap();
    let mut resource = GramResource::install(
        SimOs::new(),
        w.clock.clone(),
        "compute1",
        w.trust.clone(),
        w.host.clone(),
        &gridmap,
        GramConfig::default(),
    )
    .unwrap();
    resource.set_crls(w.a.clone());
    let jane = Requestor::new(w.jane.clone(), w.trust.clone(), b"jane");
    (resource, jane)
}

fn job(n: usize) -> JobDescription {
    JobDescription::new(&format!("/bin/sim{n}"))
}

fn handshakes(resource: &GramResource) -> (u64, u64) {
    (
        resource.stats.full_handshakes,
        resource.stats.resumed_handshakes,
    )
}

fn lmjfs_a_again() -> Cell {
    let w = world();
    let (mut resource, mut jane) = gram(&w);
    jane.submit_job(&mut resource, &job(0), 100)
        .map_err(|e| e.to_string())?;
    resource.set_crls(w.a_again.clone());
    jane.submit_job(&mut resource, &job(1), 100)
        .map_err(|e| e.to_string())?;
    check(
        handshakes(&resource) == (1, 1),
        format!("{:?}", handshakes(&resource)),
    )?;
    check(resource.stats.delegation_keys == 1, "one delegation key")
}

fn lmjfs_b() -> Cell {
    let w = world();
    let (mut resource, mut jane) = gram(&w);
    jane.submit_job(&mut resource, &job(0), 100)
        .map_err(|e| e.to_string())?;
    // Routed under A; step 7 meets B.
    let request = jane.signed_request(&job(1), 100);
    let routed = resource.submit(&request).map_err(|e| e.to_string())?;
    resource.set_crls(w.b.clone());
    let err = jane
        .connect_and_start(&mut resource, &routed.mjs_handle, Some("jdoe"), 100)
        .err()
        .ok_or("a revoked requestor started a job")?;
    check(
        matches!(&err, GramError::Context(why) if why.contains("revoked")),
        format!("{err:?}: the full handshake sees B"),
    )?;
    let misses = resource.lmjfs_sessions("jdoe").map(|s| s.misses());
    check(misses == Some(1), format!("{misses:?}: the ticket missed"))?;
    check(
        handshakes(&resource) == (1, 0),
        format!("{:?}", handshakes(&resource)),
    )?;
    let state = resource.job_state(&routed.mjs_handle);
    check(state == Ok(JobState::Unsubmitted), format!("{state:?}"))
}

const COLUMNS: [&str; 2] = ["A' resumes", "B refuses"];

type Row = (&'static str, [fn() -> Cell; 2]);

#[test]
fn a_session_follows_its_trust_epoch_on_every_path() {
    let rows: [Row; 3] = [
        ("WSSC responder", [responder_a_again, responder_b]),
        ("LMJFS step 7", [lmjfs_a_again, lmjfs_b]),
        ("OgsaClient ticket", [client_a_again, client_b]),
    ];
    let mut table = format!("{:<18}", "path");
    for column in COLUMNS {
        table.push_str(&format!(" | {column:<10}"));
    }
    let mut failures = Vec::new();
    for (path, cells) in rows {
        table.push_str(&format!("\n{path:<18}"));
        for (column, run) in COLUMNS.iter().zip(cells) {
            let verdict = match run() {
                Ok(()) => "ok",
                Err(why) => {
                    failures.push(format!("{path} / {column}: {why}"));
                    "RED"
                }
            };
            table.push_str(&format!(" | {verdict:<10}"));
        }
    }
    println!("{table}");
    assert!(failures.is_empty(), "{table}\n{}", failures.join("\n"));
}
