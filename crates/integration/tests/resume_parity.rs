//! One resume-or-full table across every transport that resumes GSS
//! contexts: GSS over RPC (`gssapi::net`), WS-SecureConversation through
//! `OgsaClient` and a `HostingEnvironment`, and GRAM step 7 in process
//! and over RPC. Each row runs the same four cases against its driver:
//!
//! * **accepted** — a banked ticket resumes, and the rotated session is
//!   banked in its place, so the next context resumes too;
//! * **refused** — the server's cache is gone: one full handshake runs in
//!   the same call, and its session is banked;
//! * **taken** — a ticket whose offer produced no context is never
//!   offered again: the next context is a full handshake;
//! * **bad MAC** — a resumed ServerHello whose Finished MAC fails aborts
//!   the call: no full handshake follows it.
//!
//! The in-process GRAM driver has no wire between requestor and MJS, so
//! its bad-MAC cell cannot be driven; it shares `Requestor`'s one step-7
//! path with the RPC driver, whose cell covers it. Its "taken" cell offers
//! the ticket to an MJS that vanished (`crash_mmjfs`).

use std::cell::RefCell;
use std::rc::Rc;

use gridsec_authz::gridmap::GridMapFile;
use gridsec_authz::policy::{CombiningAlg, Effect, PolicySet, Rule, SubjectMatch};
use gridsec_crypto::rng::ChaChaRng;
use gridsec_gram::remote::{submit_job_remote, RemoteGram, OP_TOKEN1 as GRAM_TOKEN1};
use gridsec_gram::resource::{GramConfig, GramResource};
use gridsec_gram::{GramError, JobDescription, Requestor};
use gridsec_gssapi::net::{
    establish_initiator_cached, parse_request, AcceptorService, OP_RESUME1, OP_TOKEN1,
};
use gridsec_gssapi::GssError;
use gridsec_integration::dn;
use gridsec_ogsa::client::{OgsaClient, StaticCredential};
use gridsec_ogsa::hosting::HostingEnvironment;
use gridsec_ogsa::service::{GridService, RequestContext};
use gridsec_ogsa::transport::Transport;
use gridsec_ogsa::OgsaError;
use gridsec_pki::ca::CertificateAuthority;
use gridsec_pki::credential::Credential;
use gridsec_pki::encoding::{Decoder, Encoder};
use gridsec_pki::store::{CrlStore, TrustStore};
use gridsec_testbed::clock::SimClock;
use gridsec_testbed::net::Network;
use gridsec_testbed::os::SimOs;
use gridsec_testbed::rpc::{RpcClient, RpcServer, ServerTask};
use gridsec_testbed::sched::Scheduler;
use gridsec_tls::handshake::TlsConfig;
use gridsec_tls::session::ClientSessionCache;
use gridsec_util::retry::RetryPolicy;
use gridsec_wsse::b64;
use gridsec_wsse::soap::Envelope;
use gridsec_wsse::wssc::RST_ACTION;
use gridsec_xml::Element;

const HOST: &str = "/O=G/CN=host compute1";
/// Token tags of the full and the abbreviated hello.
const CLIENT_HELLO: u8 = 1;
const RESUME_HELLO: u8 = 4;

const PATIENT: RetryPolicy = RetryPolicy {
    max_attempts: 8,
    base_timeout: 16,
    multiplier: 2,
    max_timeout: 64,
};

struct World {
    trust: TrustStore,
    /// A CRL store that revokes nobody here: trust state with another
    /// history than a server's empty store.
    unrelated_crls: CrlStore,
    user: Credential,
    service: Credential,
    host: Credential,
    clock: SimClock,
}

fn world() -> World {
    let mut rng = ChaChaRng::from_seed_bytes(b"resume parity");
    let ca = CertificateAuthority::create_root(&mut rng, dn("/O=G/CN=CA"), 512, 0, 1_000_000);
    let user = ca.issue_identity(&mut rng, dn("/O=G/CN=Jane"), 512, 0, 500_000);
    let service = ca.issue_identity(&mut rng, dn("/O=G/CN=Echo"), 512, 0, 500_000);
    let host = ca.issue_host_identity(&mut rng, dn(HOST), vec!["compute1".into()], 512, 0, 500_000);
    let mut trust = TrustStore::new();
    trust.add_root(ca.certificate().clone());
    let mut unrelated_crls = CrlStore::new();
    assert!(unrelated_crls.add(
        ca.issue_crl(vec![999_999], 100, 1_000_000),
        ca.certificate()
    ));
    World {
        trust,
        unrelated_crls,
        user,
        service,
        host,
        clock: SimClock::starting_at(100),
    }
}

/// What crossed a wire: every hello by kind, and whether the next
/// resumed ServerHello gets its last (MAC) byte flipped.
#[derive(Default)]
struct Wire {
    client_hellos: usize,
    resume_hellos: Vec<Vec<u8>>,
    flip_mac: bool,
}

impl Wire {
    /// Record a hello; `true` for a ResumeHello.
    fn saw(&mut self, hello: &[u8]) -> bool {
        match hello.first() {
            Some(&CLIENT_HELLO) => self.client_hellos += 1,
            Some(&RESUME_HELLO) => {
                self.resume_hellos.push(hello.to_vec());
                return true;
            }
            _ => {}
        }
        false
    }

    /// How often the ticket of the first ResumeHello was offered: a
    /// ResumeHello is the ticket followed by a 32-byte client random.
    fn first_ticket_offers(&self) -> usize {
        let ticket = |h: &Vec<u8>| h[..h.len() - 32].to_vec();
        let first = ticket(&self.resume_hellos[0]);
        self.resume_hellos
            .iter()
            .filter(|h| ticket(h) == first)
            .count()
    }
}

/// How often the first offered ticket was offered, and how many full
/// handshakes started.
fn offers(wire: &RefCell<Wire>) -> usize {
    wire.borrow().first_ticket_offers()
}

fn fulls(wire: &RefCell<Wire>) -> usize {
    wire.borrow().client_hellos
}

type Cell = Result<(), String>;

fn check(ok: bool, what: impl Into<String>) -> Cell {
    if ok {
        Ok(())
    } else {
        Err(what.into())
    }
}

fn flip_last(mut bytes: Vec<u8>) -> Vec<u8> {
    let n = bytes.len();
    bytes[n - 1] ^= 1;
    bytes
}

// ----------------------------------------------------------------------
// GSS over RPC
// ----------------------------------------------------------------------

struct GssRig {
    w: World,
    rng: ChaChaRng,
    service: Rc<RefCell<AcceptorService<ChaChaRng>>>,
    wire: Rc<RefCell<Wire>>,
    rpc: RpcClient,
    cache: ClientSessionCache,
    _sched: Scheduler,
    _net: Network,
}

fn acceptor(w: &World, seed: &[u8]) -> AcceptorService<ChaChaRng> {
    AcceptorService::new(
        TlsConfig::new(w.service.clone(), w.trust.clone(), 100),
        ChaChaRng::from_seed_bytes(seed),
    )
}

fn gss_rig() -> GssRig {
    let w = world();
    let net = Network::new();
    let service = Rc::new(RefCell::new(acceptor(&w, b"acceptor")));
    let wire = Rc::new(RefCell::new(Wire::default()));
    let (hosted, seen) = (service.clone(), wire.clone());
    let mut sched = Scheduler::new(&net);
    sched.spawn_mailbox(
        "svc",
        ServerTask::new(
            RpcServer::new(net.register("svc")),
            move |from: &str, body: &[u8]| {
                let reply = hosted.borrow_mut().handle(from, body);
                let Ok((op, token)) = parse_request(body) else {
                    return reply;
                };
                let mut wire = seen.borrow_mut();
                let resume = (op == OP_TOKEN1 || op == OP_RESUME1) && wire.saw(&token);
                if !(resume && wire.flip_mac) {
                    return reply;
                }
                let mut d = Decoder::new(&reply);
                let (status, token2) = (d.get_str().unwrap(), d.get_bytes().unwrap());
                let mut e = Encoder::new();
                e.put_str(&status).put_bytes(&flip_last(token2));
                e.finish()
            },
        ),
    );
    let rpc = RpcClient::new(net.register("user"), "svc", PATIENT);
    GssRig {
        w,
        rng: ChaChaRng::from_seed_bytes(b"gss user"),
        service,
        wire,
        rpc,
        cache: ClientSessionCache::new(4),
        _sched: sched,
        _net: net,
    }
}

impl GssRig {
    fn establish(&mut self) -> Result<(), GssError> {
        let cfg = TlsConfig::new(self.w.user.clone(), self.w.trust.clone(), 100);
        establish_initiator_cached(&mut self.rpc, cfg, &mut self.rng, &mut self.cache, 4).map(drop)
    }

    /// (hits, misses) of the acceptor's session cache.
    fn cache_counts(&self) -> (u64, u64) {
        let service = self.service.borrow();
        (service.sessions().hits(), service.sessions().misses())
    }
}

fn gss_accepted() -> Cell {
    let mut r = gss_rig();
    for _ in 0..3 {
        r.establish().map_err(|e| e.to_string())?;
    }
    check(
        r.cache_counts() == (2, 0),
        format!("{:?}", r.cache_counts()),
    )?;
    check(fulls(&r.wire) == 1, "one full handshake")?;
    check(offers(&r.wire) == 1, "rotated ticket")
}

fn gss_refused() -> Cell {
    let mut r = gss_rig();
    r.establish().map_err(|e| e.to_string())?;
    *r.service.borrow_mut() = acceptor(&r.w, b"acceptor reborn");
    r.establish().map_err(|e| e.to_string())?;
    check(
        r.cache_counts() == (0, 1),
        format!("{:?}", r.cache_counts()),
    )?;
    check(fulls(&r.wire) == 2, "one fallback")?;
    r.establish().map_err(|e| e.to_string())?;
    check(
        r.cache_counts() == (1, 1),
        "the fallback's session was banked",
    )
}

fn gss_taken() -> Cell {
    let mut r = gss_rig();
    r.establish().map_err(|e| e.to_string())?;
    r.wire.borrow_mut().flip_mac = true;
    check(r.establish().is_err(), "tampered resumption fails")?;
    r.wire.borrow_mut().flip_mac = false;
    r.establish().map_err(|e| e.to_string())?;
    let n = offers(&r.wire);
    check(n == 1, format!("ticket offered {n} times"))?;
    check(fulls(&r.wire) == 2, "the next context is full")
}

fn gss_bad_mac() -> Cell {
    let mut r = gss_rig();
    r.establish().map_err(|e| e.to_string())?;
    r.wire.borrow_mut().flip_mac = true;
    match r.establish() {
        Err(GssError::Tls(_)) => {}
        other => return Err(format!("expected a context error, got {other:?}")),
    }
    check(fulls(&r.wire) == 1, "no fallback")
}

// ----------------------------------------------------------------------
// WS-SecureConversation through OgsaClient + HostingEnvironment
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

fn hosting(w: &World) -> HostingEnvironment {
    let policy = gridsec_wsse::policy::SecurityPolicy {
        service: "echo".to_string(),
        alternatives: vec![gridsec_wsse::policy::PolicyAlternative {
            mechanism: "gsi-secure-conversation".to_string(),
            token_types: vec!["x509-chain".to_string()],
            trust_roots: vec![],
            protection: gridsec_wsse::policy::Protection::Sign,
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
    env
}

/// Direct dispatch into the hosting environment, watching the RSTs.
#[derive(Clone)]
struct Watched {
    env: Rc<RefCell<HostingEnvironment>>,
    wire: Rc<RefCell<Wire>>,
}

fn binary_exchange(env: &Envelope) -> Option<String> {
    Some(env.payload()?.find("wst:BinaryExchange")?.text_content())
}

impl Transport for Watched {
    fn call(&mut self, request_xml: String) -> Result<String, OgsaError> {
        let request = Envelope::parse(&request_xml)?;
        let opening = request.action.as_deref() == Some(RST_ACTION)
            && request
                .payload()
                .is_some_and(|p| p.find("wsc:Identifier").is_none());
        let resume = match binary_exchange(&request) {
            Some(token) if opening => self.wire.borrow_mut().saw(&b64::decode(&token).unwrap()),
            _ => false,
        };
        let reply = self.env.borrow_mut().handle_message(&request_xml);
        if !(resume && self.wire.borrow().flip_mac) {
            return Ok(reply);
        }
        let Some(token2) = binary_exchange(&Envelope::parse(&reply)?) else {
            return Ok(reply);
        };
        let flipped = b64::encode(&flip_last(b64::decode(&token2).unwrap()));
        Ok(reply.replace(&token2, &flipped))
    }
}

struct OgsaRig {
    w: World,
    env: Rc<RefCell<HostingEnvironment>>,
    wire: Rc<RefCell<Wire>>,
    client: OgsaClient<Watched>,
    handle: String,
}

fn ogsa_rig() -> Result<OgsaRig, String> {
    let w = world();
    let env = Rc::new(RefCell::new(hosting(&w)));
    let wire = Rc::new(RefCell::new(Wire::default()));
    let transport = Watched {
        env: env.clone(),
        wire: wire.clone(),
    };
    let mut client = OgsaClient::new(transport, w.trust.clone(), w.clock.clone(), b"ogsa user");
    client.add_source(Box::new(StaticCredential(w.user.clone())));
    let handle = client
        .create_service("echo", Element::new("a"))
        .map_err(|e| e.to_string())?;
    Ok(OgsaRig {
        w,
        env,
        wire,
        client,
        handle,
    })
}

impl OgsaRig {
    /// Drop the conversation, keeping its ticket, and invoke again.
    fn reconnect(&mut self) -> Result<(), OgsaError> {
        self.client.reset_session();
        self.client
            .invoke(&self.handle, "run", Element::new("p").with_text("x"))
            .map(drop)
    }

    fn counts(&self) -> (u64, u64) {
        (
            self.client.contexts_established,
            self.client.contexts_resumed,
        )
    }
}

fn ogsa_accepted() -> Cell {
    let mut r = ogsa_rig()?;
    r.reconnect().map_err(|e| e.to_string())?;
    r.reconnect().map_err(|e| e.to_string())?;
    check(r.counts() == (1, 2), format!("{:?}", r.counts()))?;
    check(offers(&r.wire) == 1, "rotated ticket")
}

fn ogsa_refused() -> Cell {
    let mut r = ogsa_rig()?;
    // A restarted hosting environment: no session cache, no instances.
    *r.env.borrow_mut() = hosting(&r.w);
    r.client.reset_session();
    r.handle = r
        .client
        .create_service("echo", Element::new("a"))
        .map_err(|e| e.to_string())?;
    check(r.counts() == (2, 0), format!("{:?}", r.counts()))?;
    check(fulls(&r.wire) == 2, "one fallback")?;
    r.reconnect().map_err(|e| e.to_string())?;
    check(r.counts() == (2, 1), "the fallback's session was banked")
}

fn ogsa_taken() -> Cell {
    let mut r = ogsa_rig()?;
    r.wire.borrow_mut().flip_mac = true;
    let _ = r.reconnect();
    r.wire.borrow_mut().flip_mac = false;
    r.reconnect().map_err(|e| e.to_string())?;
    let n = offers(&r.wire);
    check(n == 1, format!("ticket offered {n} times"))
}

fn ogsa_bad_mac() -> Cell {
    let mut r = ogsa_rig()?;
    r.wire.borrow_mut().flip_mac = true;
    match r.reconnect() {
        Err(OgsaError::Wsse(_)) => {}
        other => return Err(format!("expected a security error, got {other:?}")),
    }
    let n = fulls(&r.wire);
    check(n == 1, format!("{n} full handshakes"))
}

// ----------------------------------------------------------------------
// GRAM step 7, in process and over RPC
// ----------------------------------------------------------------------

fn gram_resource(w: &World) -> GramResource {
    let gridmap = GridMapFile::parse("\"/O=G/CN=Jane\" jdoe\n").unwrap();
    GramResource::install(
        SimOs::new(),
        w.clock.clone(),
        "compute1",
        w.trust.clone(),
        w.host.clone(),
        &gridmap,
        GramConfig::default(),
    )
    .unwrap()
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

struct LocalGram {
    resource: GramResource,
    jane: Requestor,
    unrelated_crls: CrlStore,
}

fn local_gram() -> LocalGram {
    let w = world();
    LocalGram {
        resource: gram_resource(&w),
        jane: Requestor::new(w.user.clone(), w.trust.clone(), b"jane local"),
        unrelated_crls: w.unrelated_crls,
    }
}

impl LocalGram {
    fn job(&mut self, n: usize) -> Result<(), GramError> {
        self.jane
            .submit_job(&mut self.resource, &job(n), 100)
            .map(drop)
    }
}

fn local_accepted() -> Cell {
    let mut g = local_gram();
    for n in 0..3 {
        g.job(n).map_err(|e| e.to_string())?;
    }
    check(
        handshakes(&g.resource) == (1, 2),
        format!("{:?}", handshakes(&g.resource)),
    )
}

fn local_refused() -> Cell {
    let mut g = local_gram();
    g.job(0).map_err(|e| e.to_string())?;
    g.resource.set_crls(g.unrelated_crls.clone());
    g.job(1).map_err(|e| e.to_string())?;
    check(
        handshakes(&g.resource) == (2, 0),
        format!("{:?}", handshakes(&g.resource)),
    )?;
    g.job(2).map_err(|e| e.to_string())?;
    check(
        handshakes(&g.resource) == (2, 1),
        "the fallback's session was banked",
    )
}

fn local_taken() -> Cell {
    let mut g = local_gram();
    g.job(0).map_err(|e| e.to_string())?;
    let request = g.jane.signed_request(&job(1), 100);
    let routed = g.resource.submit(&request).map_err(|e| e.to_string())?;
    g.resource.crash_mmjfs();
    let lost = g.jane.connect_and_start(
        &mut g.resource,
        &routed.mjs_handle,
        Some(&routed.account),
        100,
    );
    check(lost.is_err(), "the vanished MJS answers nothing")?;
    g.job(2).map_err(|e| e.to_string())?;
    check(
        handshakes(&g.resource) == (2, 0),
        format!(
            "{:?}: the ticket was offered again",
            handshakes(&g.resource)
        ),
    )
}

struct RemoteRig {
    shared: Rc<RefCell<GramResource>>,
    wire: Rc<RefCell<Wire>>,
    jane: Requestor,
    rpc: RpcClient,
    unrelated_crls: CrlStore,
    _sched: Scheduler,
    _net: Network,
}

fn remote_gram() -> RemoteRig {
    let w = world();
    let shared = Rc::new(RefCell::new(gram_resource(&w)));
    let wire = Rc::new(RefCell::new(Wire::default()));
    let mut service = RemoteGram::new(shared.clone(), b"mjs rng");
    let seen = wire.clone();
    let net = Network::new();
    let mut sched = Scheduler::new(&net);
    sched.spawn_mailbox(
        "mjs-host",
        ServerTask::new(
            RpcServer::new(net.register("mjs-host")),
            move |from: &str, body: &[u8]| {
                let reply = service.handle(from, body);
                let mut d = Decoder::new(body);
                let op = d.get_str().unwrap();
                let (_handle, token) = (d.get_str().unwrap(), d.get_bytes().unwrap());
                let mut wire = seen.borrow_mut();
                if op != GRAM_TOKEN1 || !wire.saw(&token) || !wire.flip_mac {
                    return reply;
                }
                let mut d = Decoder::new(&reply);
                let (status, token2) = (d.get_str().unwrap(), d.get_bytes().unwrap());
                let mut e = Encoder::new();
                e.put_str(&status).put_bytes(&flip_last(token2));
                e.finish()
            },
        ),
    );
    let rpc = RpcClient::new(net.register("jane"), "mjs-host", PATIENT);
    RemoteRig {
        shared,
        wire,
        jane: Requestor::new(w.user.clone(), w.trust.clone(), b"jane remote"),
        rpc,
        unrelated_crls: w.unrelated_crls,
        _sched: sched,
        _net: net,
    }
}

impl RemoteRig {
    fn job(&mut self, n: usize) -> Result<(), GramError> {
        submit_job_remote(&mut self.jane, &mut self.rpc, &job(n), &dn(HOST), 100).map(drop)
    }

    fn handshakes(&self) -> (u64, u64) {
        handshakes(&self.shared.borrow())
    }
}

fn remote_accepted() -> Cell {
    let mut g = remote_gram();
    for n in 0..3 {
        g.job(n).map_err(|e| e.to_string())?;
    }
    check(g.handshakes() == (1, 2), format!("{:?}", g.handshakes()))?;
    check(offers(&g.wire) == 1, "rotated ticket")
}

fn remote_refused() -> Cell {
    let mut g = remote_gram();
    g.job(0).map_err(|e| e.to_string())?;
    g.shared.borrow_mut().set_crls(g.unrelated_crls.clone());
    g.job(1).map_err(|e| e.to_string())?;
    check(g.handshakes() == (2, 0), format!("{:?}", g.handshakes()))?;
    check(fulls(&g.wire) == 2, "one fallback")?;
    g.job(2).map_err(|e| e.to_string())?;
    check(
        g.handshakes() == (2, 1),
        "the fallback's session was banked",
    )
}

fn remote_taken() -> Cell {
    let mut g = remote_gram();
    g.job(0).map_err(|e| e.to_string())?;
    g.wire.borrow_mut().flip_mac = true;
    check(g.job(1).is_err(), "tampered resumption fails")?;
    g.wire.borrow_mut().flip_mac = false;
    g.job(2).map_err(|e| e.to_string())?;
    let n = offers(&g.wire);
    check(n == 1, format!("ticket offered {n} times"))?;
    check(g.handshakes() == (2, 0), format!("{:?}", g.handshakes()))
}

fn remote_bad_mac() -> Cell {
    let mut g = remote_gram();
    g.job(0).map_err(|e| e.to_string())?;
    g.wire.borrow_mut().flip_mac = true;
    match g.job(1) {
        Err(GramError::Context(_)) => {}
        other => return Err(format!("expected a context error, got {other:?}")),
    }
    check(fulls(&g.wire) == 1, "no fallback")?;
    check(g.handshakes() == (1, 0), format!("{:?}", g.handshakes()))
}

// ----------------------------------------------------------------------
// The table
// ----------------------------------------------------------------------

const COLUMNS: [&str; 4] = ["accepted", "refused", "taken", "bad MAC"];

type Row = (&'static str, [Option<fn() -> Cell>; 4]);

#[test]
fn resume_or_full_parity_table() {
    let rows: [Row; 4] = [
        (
            "gss over RPC",
            [
                Some(gss_accepted),
                Some(gss_refused),
                Some(gss_taken),
                Some(gss_bad_mac),
            ],
        ),
        (
            "WS-SC via OgsaClient",
            [
                Some(ogsa_accepted),
                Some(ogsa_refused),
                Some(ogsa_taken),
                Some(ogsa_bad_mac),
            ],
        ),
        (
            "GRAM in process",
            [
                Some(local_accepted),
                Some(local_refused),
                Some(local_taken),
                None,
            ],
        ),
        (
            "GRAM over RPC",
            [
                Some(remote_accepted),
                Some(remote_refused),
                Some(remote_taken),
                Some(remote_bad_mac),
            ],
        ),
    ];
    let mut table = format!("{:<22}", "driver");
    for column in COLUMNS {
        table.push_str(&format!(" | {column:<8}"));
    }
    let mut failures = Vec::new();
    for (driver, cells) in rows {
        table.push_str(&format!("\n{driver:<22}"));
        for (column, cell) in COLUMNS.iter().zip(cells) {
            let verdict = match cell.map(|run| run()) {
                None => "n/a",
                Some(Ok(())) => "ok",
                Some(Err(why)) => {
                    failures.push(format!("{driver} / {column}: {why}"));
                    "RED"
                }
            };
            table.push_str(&format!(" | {verdict:<8}"));
        }
    }
    println!("{table}");
    assert!(failures.is_empty(), "{table}\n{}", failures.join("\n"));
}
