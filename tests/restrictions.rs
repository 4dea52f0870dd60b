//! A restriction binds at every relying party: one table of
//! (server, credential, expected outcome) rows, each expected refusal
//! stated as the typed [`AuthzError`] the server's `ResourceGate::permits`
//! returns.
//!
//! The six servers are the hosting environment's invoke, over stateless
//! signatures and over WS-SecureConversation, GRAM's Proxy Router, the
//! GT2 gatekeeper, and a GridFTP `PUT` and `GET`. The nine
//! credentials are proxies of one mapped user: full, limited,
//! independent, restricted by a CAS assertion that grants the request or
//! one that does not, restricted in a policy language no server
//! understands, and restricted by an expired assertion, by one from an
//! untrusted CAS, and by one issued to another subject.
//!
//! Run with: `cargo test --test restrictions`

use std::cell::RefCell;
use std::rc::Rc;

use gridsec_authz::cas::{CasAssertion, CasAssertionTbs, Right};
use gridsec_authz::gridmap::GridMapFile;
use gridsec_authz::policy::{CombiningAlg, Effect, PolicySet, Rule, SubjectMatch};
use gridsec_authz::{AuthzError, START_JOB};
use gridsec_crypto::rng::ChaChaRng;
use gridsec_gram::gt2::Gt2Gatekeeper;
use gridsec_gram::resource::{GramConfig, GramResource};
use gridsec_gram::{GramError, JobDescription, Requestor};
use gridsec_gridftp::poll::{Dialect, SessionTask};
use gridsec_gridftp::{FtpError, GridFtpClient, GridFtpServer};
use gridsec_ogsa::client::{OgsaClient, StaticCredential};
use gridsec_ogsa::hosting::{AuditEvent, HostingEnvironment};
use gridsec_ogsa::service::{GridService, RequestContext};
use gridsec_ogsa::transport::InProcessTransport;
use gridsec_ogsa::OgsaError;
use gridsec_pki::ca::CertificateAuthority;
use gridsec_pki::credential::Credential;
use gridsec_pki::name::DistinguishedName;
use gridsec_pki::proxy::{issue_proxy, ProxyType};
use gridsec_pki::store::TrustStore;
use gridsec_testbed::clock::SimClock;
use gridsec_testbed::faults::CrashPlan;
use gridsec_testbed::net::Network;
use gridsec_testbed::os::{FileMode, SimOs};
use gridsec_testbed::sched::Scheduler;
use gridsec_wsse::policy::{PolicyAlternative, Protection, SecurityPolicy};
use gridsec_wsse::soap::Envelope;
use gridsec_wsse::xmlsig;
use gridsec_xml::Element;

const NOW: u64 = 100;
const VO: &str = "physics-vo";
const JANE: &str = "/O=G/CN=Jane";
const EXE: &str = "/bin/sim";
const GET_PATH: &str = "/home/jdoe/data.dat";
const PUT_PATH: &str = "/home/jdoe/upload.dat";

fn dn(s: &str) -> DistinguishedName {
    DistinguishedName::parse(s).unwrap()
}

#[derive(Clone, Copy, Debug)]
enum Server {
    HostingInvoke,
    HostingConversation,
    GramSubmit,
    Gt2Submit,
    FtpPut,
    FtpGet,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Cred {
    Full,
    Limited,
    Independent,
    CasGrants,
    CasDenies,
    UnknownLanguage,
    ExpiredAssertion,
    UntrustedCas,
    OtherSubject,
}

/// Every row: the server, the credential Jane presents, and what the
/// server must do with it.
fn rows() -> Vec<(Server, Cred, Result<(), AuthzError>)> {
    use Cred::*;
    use Server::*;
    let unknown = || AuthzError::UnknownRestriction("xacml-2.0".to_string());
    let expired = || AuthzError::AssertionExpired {
        now: NOW,
        not_after: 50,
    };
    let mismatch = || AuthzError::SubjectMismatch {
        assertion_subject: "/O=G/CN=Carl".to_string(),
        presenter: JANE.to_string(),
    };
    vec![
        (HostingInvoke, Full, Ok(())),
        (HostingInvoke, Limited, Ok(())),
        (
            HostingInvoke,
            Independent,
            Err(AuthzError::IndependentProxy),
        ),
        (HostingInvoke, CasGrants, Ok(())),
        (HostingInvoke, CasDenies, Err(AuthzError::NotGranted)),
        (HostingInvoke, UnknownLanguage, Err(unknown())),
        (HostingInvoke, ExpiredAssertion, Err(expired())),
        (
            HostingInvoke,
            UntrustedCas,
            Err(AuthzError::UntrustedAssertion),
        ),
        (HostingInvoke, OtherSubject, Err(mismatch())),
        (HostingConversation, Full, Ok(())),
        (HostingConversation, Limited, Ok(())),
        (
            HostingConversation,
            Independent,
            Err(AuthzError::IndependentProxy),
        ),
        (HostingConversation, CasGrants, Ok(())),
        (HostingConversation, CasDenies, Err(AuthzError::NotGranted)),
        (HostingConversation, UnknownLanguage, Err(unknown())),
        (HostingConversation, ExpiredAssertion, Err(expired())),
        (
            HostingConversation,
            UntrustedCas,
            Err(AuthzError::UntrustedAssertion),
        ),
        (HostingConversation, OtherSubject, Err(mismatch())),
        (GramSubmit, Full, Ok(())),
        (GramSubmit, Limited, Err(AuthzError::LimitedProxy)),
        (GramSubmit, Independent, Err(AuthzError::IndependentProxy)),
        (GramSubmit, CasGrants, Ok(())),
        (GramSubmit, CasDenies, Err(AuthzError::NotGranted)),
        (GramSubmit, UnknownLanguage, Err(unknown())),
        (GramSubmit, ExpiredAssertion, Err(expired())),
        (
            GramSubmit,
            UntrustedCas,
            Err(AuthzError::UntrustedAssertion),
        ),
        (GramSubmit, OtherSubject, Err(mismatch())),
        (Gt2Submit, Full, Ok(())),
        (Gt2Submit, Limited, Err(AuthzError::LimitedProxy)),
        (Gt2Submit, Independent, Err(AuthzError::IndependentProxy)),
        (Gt2Submit, CasGrants, Ok(())),
        (Gt2Submit, CasDenies, Err(AuthzError::NotGranted)),
        (Gt2Submit, UnknownLanguage, Err(unknown())),
        (Gt2Submit, ExpiredAssertion, Err(expired())),
        (Gt2Submit, UntrustedCas, Err(AuthzError::UntrustedAssertion)),
        (Gt2Submit, OtherSubject, Err(mismatch())),
        (FtpPut, Full, Ok(())),
        (FtpPut, Limited, Ok(())),
        (FtpPut, Independent, Err(AuthzError::IndependentProxy)),
        (FtpPut, CasGrants, Ok(())),
        (FtpPut, CasDenies, Err(AuthzError::NotGranted)),
        (FtpPut, UnknownLanguage, Err(unknown())),
        (FtpPut, ExpiredAssertion, Err(expired())),
        (FtpPut, UntrustedCas, Err(AuthzError::UntrustedAssertion)),
        (FtpPut, OtherSubject, Err(mismatch())),
        (FtpGet, Full, Ok(())),
        (FtpGet, Limited, Ok(())),
        (FtpGet, Independent, Err(AuthzError::IndependentProxy)),
        (FtpGet, CasGrants, Ok(())),
        (FtpGet, CasDenies, Err(AuthzError::NotGranted)),
        (FtpGet, UnknownLanguage, Err(unknown())),
        (FtpGet, ExpiredAssertion, Err(expired())),
        (FtpGet, UntrustedCas, Err(AuthzError::UntrustedAssertion)),
        (FtpGet, OtherSubject, Err(mismatch())),
    ]
}

/// Echo service for the hosting environment.
struct EchoService;

impl GridService for EchoService {
    fn service_type(&self) -> &str {
        "echo"
    }
    fn invoke(
        &mut self,
        _ctx: &RequestContext,
        _operation: &str,
        payload: &Element,
    ) -> Result<Element, OgsaError> {
        Ok(Element::new("echo:Reply").with_text(payload.text_content()))
    }
}

struct World {
    rng: ChaChaRng,
    trust: TrustStore,
    jane: Credential,
    /// The CAS every server trusts, and one none of them does.
    cas: Credential,
    rogue_cas: Credential,
    /// The echo service behind stateless signatures, then behind
    /// WS-SecureConversation.
    hosting: [Hosting; 2],
    gram: GramResource,
    gt2: Gt2Gatekeeper,
    ftp: Rc<RefCell<GridFtpServer>>,
}

fn world() -> World {
    let mut rng = ChaChaRng::from_seed_bytes(b"restrictions");
    let ca = CertificateAuthority::create_root(&mut rng, dn("/O=G/CN=CA"), 512, 0, 1_000_000);
    let mut trust = TrustStore::new();
    trust.add_root(ca.certificate().clone());
    let mut identity = |name: &str| ca.issue_identity(&mut rng, dn(name), 512, 0, 1_000_000);
    let jane = identity(JANE);
    let cas = identity("/O=G/CN=CAS");
    let rogue_cas = identity("/O=G/CN=Rogue CAS");
    let echo_host = identity("/O=G/CN=echo host");
    let echo_conversation_host = identity("/O=G/CN=echo conversation host");
    let gram_host = identity("/O=G/CN=host compute1");
    let gt2_host = identity("/O=G/CN=host gt2");
    let ftp_host = identity("/O=G/CN=host data1");
    let gridmap = GridMapFile::parse(&format!("\"{JANE}\" jdoe\n")).unwrap();
    let clock = SimClock::starting_at(NOW);

    let host = |mechanism, credential| {
        let hosting = Hosting::new(mechanism, credential, &trust, &clock, &jane);
        hosting
            .env
            .borrow_mut()
            .gate
            .trust_cas(VO, cas.certificate().public_key().clone());
        hosting
    };
    let hosting = [
        host("xml-signature", echo_host),
        host("gsi-secure-conversation", echo_conversation_host),
    ];

    let mut gram = GramResource::install(
        SimOs::new(),
        clock.clone(),
        "compute1",
        trust.clone(),
        gram_host,
        &gridmap,
        GramConfig::default(),
    )
    .unwrap();
    gram.gate
        .trust_cas(VO, cas.certificate().public_key().clone());

    let mut gt2 = Gt2Gatekeeper::install(
        SimOs::new(),
        clock,
        "gt2",
        trust.clone(),
        gt2_host,
        &gridmap,
    )
    .unwrap();
    gt2.gate
        .trust_cas(VO, cas.certificate().public_key().clone());

    let mut ftp =
        GridFtpServer::new(SimOs::new(), "data1", ftp_host, trust.clone(), gridmap).unwrap();
    ftp.gate
        .trust_cas(VO, cas.certificate().public_key().clone());
    let uid = ftp.os().uid_of("data1", "jdoe").unwrap();
    ftp.os()
        .write_file(
            "data1",
            GET_PATH,
            uid,
            FileMode::private(),
            b"run 7".to_vec(),
        )
        .unwrap();

    World {
        rng,
        trust,
        jane,
        cas,
        rogue_cas,
        hosting,
        gram,
        gt2,
        ftp: Rc::new(RefCell::new(ftp)),
    }
}

/// One hosting environment serving the echo service over one mechanism,
/// its audit trail, and an echo instance Jane created.
struct Hosting {
    env: Rc<RefCell<HostingEnvironment>>,
    audit: Rc<RefCell<Vec<AuditEvent>>>,
    echo_handle: String,
}

impl Hosting {
    /// Local policy admits Jane herself and the VO to the echo service,
    /// and Jane to its factory.
    fn new(
        mechanism: &str,
        credential: Credential,
        trust: &TrustStore,
        clock: &SimClock,
        jane: &Credential,
    ) -> Hosting {
        let mut local = PolicySet::new(CombiningAlg::DenyOverrides);
        for (subject, resource) in [
            (JANE.to_string(), "factory:echo"),
            (JANE.to_string(), "service:echo"),
            (format!("vo:{VO}"), "service:echo"),
        ] {
            local.add(Rule::new(
                SubjectMatch::Exact(subject),
                resource,
                "*",
                Effect::Permit,
            ));
        }
        let policy = SecurityPolicy {
            service: "echo".to_string(),
            alternatives: vec![PolicyAlternative {
                mechanism: mechanism.to_string(),
                token_types: vec!["x509-chain".to_string()],
                trust_roots: vec![],
                protection: Protection::Sign,
            }],
        };
        let mut env = HostingEnvironment::new(
            "echo-host",
            credential,
            trust.clone(),
            clock.clone(),
            policy,
            local,
        );
        env.registry
            .register_factory("echo", Box::new(|_ctx, _args| Ok(Box::new(EchoService))));
        let audit: Rc<RefCell<Vec<AuditEvent>>> = Rc::default();
        let sink = Rc::clone(&audit);
        env.set_audit(Box::new(move |e| sink.borrow_mut().push(e)));
        let env = Rc::new(RefCell::new(env));
        let echo_handle = ogsa_client(&env, trust, jane, clock)
            .create_service("echo", Element::new("args"))
            .unwrap();
        Hosting {
            env,
            audit,
            echo_handle,
        }
    }

    /// Invoke the echo instance presenting `cred`; the refusal's reason as
    /// the audit trail records it.
    fn invoke(&self, trust: &TrustStore, cred: &Credential) -> Result<(), String> {
        let clock = SimClock::starting_at(NOW);
        let mut client = ogsa_client(&self.env, trust, cred, &clock);
        self.audit.borrow_mut().clear();
        let result = client.invoke(&self.echo_handle, "echo", Element::new("m"));
        let event = self.audit.borrow().last().cloned().expect("invoke audited");
        match (result, event.reason) {
            (Ok(_), None) => Ok(()),
            (Err(OgsaError::NotAuthorized { .. }), Some(reason)) => Err(reason.to_string()),
            (other, reason) => Err(format!("unexpected {other:?} / {reason:?}")),
        }
    }
}

fn ogsa_client(
    env: &Rc<RefCell<HostingEnvironment>>,
    trust: &TrustStore,
    cred: &Credential,
    clock: &SimClock,
) -> OgsaClient<InProcessTransport> {
    let transport = InProcessTransport::new(Rc::clone(env));
    let mut client = OgsaClient::new(transport, trust.clone(), clock.clone(), b"client");
    client.add_source(Box::new(StaticCredential(cred.clone())));
    client
}

/// A proxy restricted to a CAS assertion for `subject`, signed by
/// `signer`, granting `rights` until `not_after`.
fn cas_restriction(
    signer: &Credential,
    subject: &str,
    rights: &[(&str, &str)],
    not_after: u64,
) -> ProxyType {
    let tbs = CasAssertionTbs {
        vo: VO.to_string(),
        subject: dn(subject),
        rights: rights
            .iter()
            .map(|(resource, action)| Right {
                resource: resource.to_string(),
                action: action.to_string(),
            })
            .collect(),
        not_before: 0,
        not_after,
    };
    CasAssertion::sign(tbs, signer.key()).restriction()
}

/// Jane's proxy of kind `cred`.
fn credential(w: &mut World, cred: Cred) -> Credential {
    let grants = [
        ("service:echo", "echo"),
        (EXE, START_JOB),
        ("/home/jdoe/*", "*"),
    ];
    let kind = match cred {
        Cred::Full => ProxyType::Impersonation,
        Cred::Limited => ProxyType::Limited,
        Cred::Independent => ProxyType::Independent,
        Cred::CasGrants => cas_restriction(&w.cas, JANE, &grants, 10_000),
        Cred::CasDenies => cas_restriction(&w.cas, JANE, &[("/elsewhere/*", "*")], 10_000),
        Cred::UnknownLanguage => ProxyType::Restricted {
            language: "xacml-2.0".to_string(),
            policy: b"<Policy/>".to_vec(),
        },
        Cred::ExpiredAssertion => cas_restriction(&w.cas, JANE, &grants, 50),
        Cred::UntrustedCas => cas_restriction(&w.rogue_cas, JANE, &grants, 10_000),
        Cred::OtherSubject => cas_restriction(&w.cas, "/O=G/CN=Carl", &grants, 10_000),
    };
    issue_proxy(&mut w.rng, &w.jane, kind, 512, 0, 100_000).unwrap()
}

/// One GridFTP session presenting `cred`: the client's `op`, and the
/// server session's outcome.
fn ftp_session<F>(w: &World, cred: Credential, op: F) -> Result<u64, FtpError>
where
    F: FnOnce(&mut GridFtpClient<gridsec_testbed::net::SimStream>) -> Result<(), FtpError>,
{
    let net = Network::new();
    let mut sched = Scheduler::new(&net);
    let (client_end, server_end) = net.connect("jane", "data1");
    let task = SessionTask {
        server: Rc::clone(&w.ftp),
        dialect: Dialect::Classic,
        now: NOW,
        plan: CrashPlan::disabled(),
    };
    let served = task.spawn(&mut sched, server_end, b"server");
    let mut rng = ChaChaRng::from_seed_bytes(b"ftp client");
    let _ = GridFtpClient::connect(client_end, cred, w.trust.clone(), NOW, &mut rng).and_then(
        |mut client| {
            op(&mut client)?;
            client.quit()
        },
    );
    sched.run();
    let outcome = served.borrow_mut().take().expect("server session resolved");
    outcome
}

/// Drive `server` with `cred`; the refusal, if any, as the server
/// renders its typed reason.
fn drive(w: &mut World, server: Server, cred: Credential) -> Result<(), String> {
    let job = JobDescription::new(EXE);
    match server {
        Server::HostingInvoke => w.hosting[0].invoke(&w.trust, &cred),
        Server::HostingConversation => w.hosting[1].invoke(&w.trust, &cred),
        Server::GramSubmit => {
            let signed =
                Requestor::new(cred, w.trust.clone(), b"requestor").signed_request(&job, NOW);
            match w.gram.submit(&signed) {
                Ok(_) => Ok(()),
                Err(GramError::NotAuthorized(reason)) => Err(reason),
                Err(other) => Err(format!("unexpected {other:?}")),
            }
        }
        Server::Gt2Submit => match w.gt2.submit(&cred, &job) {
            Ok(_) => Ok(()),
            Err(GramError::NotAuthorized(reason)) => Err(reason),
            Err(other) => Err(format!("unexpected {other:?}")),
        },
        Server::FtpPut | Server::FtpGet => {
            let served = ftp_session(w, cred, |c| match server {
                Server::FtpPut => c.put(PUT_PATH, b"results"),
                _ => c.get(GET_PATH).map(drop),
            });
            match served {
                Ok(1) => Ok(()),
                Err(FtpError::RightsRefused(reason)) => Err(reason.to_string()),
                other => Err(format!("unexpected {other:?}")),
            }
        }
    }
}

#[test]
fn every_relying_party_enforces_proxy_rights_and_restrictions() {
    let mut w = world();
    let creds = [
        Cred::Full,
        Cred::Limited,
        Cred::Independent,
        Cred::CasGrants,
        Cred::CasDenies,
        Cred::UnknownLanguage,
        Cred::ExpiredAssertion,
        Cred::UntrustedCas,
        Cred::OtherSubject,
    ];
    let presented: Vec<(Cred, Credential)> =
        creds.iter().map(|&c| (c, credential(&mut w, c))).collect();
    let mut wrong = Vec::new();
    for (server, cred, expected) in rows() {
        let (_, chain) = presented.iter().find(|(c, _)| *c == cred).unwrap();
        let chain = chain.clone();
        let got = drive(&mut w, server, chain);
        let expected = expected.map_err(|e| e.to_string());
        if got != expected {
            wrong.push(format!(
                "{server:?} x {cred:?}: expected {expected:?}, got {got:?}"
            ));
        }
    }
    assert!(
        wrong.is_empty(),
        "{} rows wrong:\n{}",
        wrong.len(),
        wrong.join("\n")
    );
}

/// The Proxy Router refuses a malformed request and a refused
/// restricted proxy before the grid-mapfile step: neither starts a
/// process (no Setuid Starter, no GRIM, no LMJFS).
#[test]
fn refused_gram_requests_start_no_process() {
    let mut w = world();
    let restricted = credential(&mut w, Cred::CasDenies);
    // Pids are handed out in order, so a probe process's pid counts
    // every spawn since the previous probe.
    let os = w.gram.os().clone();
    let probe = || os.spawn("compute1", "probe", "gram").unwrap();
    let before = probe();

    let junk = Envelope::request("submitJob", Element::new("gram:Nonsense"));
    let malformed = xmlsig::sign_envelope(&junk, &w.jane, NOW, 300).to_xml();
    assert!(matches!(
        w.gram.submit(&malformed),
        Err(GramError::RequestRejected(_))
    ));
    let signed = Requestor::new(restricted, w.trust.clone(), b"restricted")
        .signed_request(&JobDescription::new(EXE), NOW);
    assert_eq!(
        w.gram.submit(&signed),
        Err(GramError::NotAuthorized(AuthzError::NotGranted.to_string()))
    );

    assert_eq!(probe(), before + 1, "a refused request spawned a process");
    assert_eq!(
        w.gram.lmjfs_pid("jdoe"),
        None,
        "a refused request started an LMJFS"
    );
    assert_eq!(w.gram.stats.denied, 2);
}
