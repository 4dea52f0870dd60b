//! Step 7 resumption (Figure 4): a sign-on's later jobs resume the
//! context its first job established with the LMJFS — only with that
//! LMJFS, only within the lifetime of both credentials, never across a
//! CRL — and every job is still authorized and gets its own delegated
//! proxy. Every refusal fails closed: no context, no job start, no panic.

use std::cell::RefCell;
use std::rc::Rc;

use gridsec_authz::gridmap::GridMapFile;
use gridsec_crypto::rng::ChaChaRng;
use gridsec_gram::durable::DurableGram;
use gridsec_gram::remote::{submit_job_resilient, OP_START, OP_TOKEN1, OP_TOKEN3};
use gridsec_gram::resource::{GramConfig, GramResource};
use gridsec_gram::types::{JobDescription, JobState};
use gridsec_gram::{GramError, Requestor};
use gridsec_gssapi::context::{EstablishedContext, InitiatorContext};
use gridsec_pki::ca::CertificateAuthority;
use gridsec_pki::credential::Credential;
use gridsec_pki::encoding::Encoder;
use gridsec_pki::name::DistinguishedName;
use gridsec_pki::proxy::{issue_proxy, ProxyType};
use gridsec_pki::store::{CrlStore, TrustStore};
use gridsec_testbed::clock::SimClock;
use gridsec_testbed::faults::{CrashPlan, CrashRecover, CrashableServer, Journal};
use gridsec_testbed::net::{FaultProfile, Network};
use gridsec_testbed::os::{SimOs, ROOT_UID};
use gridsec_testbed::rpc::{Reply, RpcClient};
use gridsec_testbed::sched::Scheduler;
use gridsec_tls::handshake::TlsConfig;
use gridsec_tls::session::{resume_client, ClientSession, DEFAULT_SESSION_LIFETIME};
use gridsec_util::retry::RetryPolicy;
use gridsec_util::trace::{self, Tracer};

fn dn(s: &str) -> DistinguishedName {
    DistinguishedName::parse(s).unwrap()
}

const HOST: &str = "/O=G/CN=host compute1";

struct World {
    rng: ChaChaRng,
    trust: TrustStore,
    ca: CertificateAuthority,
    jane: Credential,
    carl: Credential,
    host_cred: Credential,
    clock: SimClock,
}

/// A CRL store that revokes nobody here: trust state with another
/// history than the resource's empty store.
fn unrelated_crls(w: &World) -> CrlStore {
    let mut crls = CrlStore::new();
    assert!(crls.add(
        w.ca.issue_crl(vec![999_999], 100, 1_000_000),
        w.ca.certificate()
    ));
    crls
}

fn world() -> World {
    let mut rng = ChaChaRng::from_seed_bytes(b"gram step7 resume tests");
    let ca = CertificateAuthority::create_root(&mut rng, dn("/O=G/CN=CA"), 512, 0, 1_000_000);
    let jane = ca.issue_identity(&mut rng, dn("/O=G/CN=Jane"), 512, 0, 500_000);
    let carl = ca.issue_identity(&mut rng, dn("/O=G/CN=Carl"), 512, 0, 500_000);
    let host_cred =
        ca.issue_host_identity(&mut rng, dn(HOST), vec!["compute1".into()], 512, 0, 500_000);
    let mut trust = TrustStore::new();
    trust.add_root(ca.certificate().clone());
    World {
        rng,
        trust,
        ca,
        jane,
        carl,
        host_cred,
        clock: SimClock::starting_at(100),
    }
}

fn install(w: &World, os: SimOs, config: GramConfig) -> GramResource {
    let gridmap = GridMapFile::parse("\"/O=G/CN=Jane\" jdoe\n\"/O=G/CN=Carl\" carl\n").unwrap();
    GramResource::install(
        os,
        w.clock.clone(),
        "compute1",
        w.trust.clone(),
        w.host_cred.clone(),
        &gridmap,
        config,
    )
    .unwrap()
}

fn resource(w: &World) -> GramResource {
    install(w, SimOs::new(), GramConfig::default())
}

fn job(n: usize) -> JobDescription {
    JobDescription::new(&format!("/bin/sim{n}"))
}

/// Job processes ever spawned on the resource's host.
fn job_processes(resource: &GramResource) -> usize {
    resource
        .os()
        .processes("compute1")
        .unwrap()
        .iter()
        .filter(|p| p.name.starts_with("job:"))
        .count()
}

/// Step 7's full handshake driven by hand through the resource's
/// acceptance calls; returns the requestor's half, whose session a
/// replayer may hold.
fn full_handshake(
    resource: &mut GramResource,
    handle: &str,
    credential: &Credential,
    w: &mut World,
) -> EstablishedContext {
    let config = TlsConfig::new(credential.clone(), w.trust.clone(), w.clock.now());
    let (initiator, token1) = InitiatorContext::new(config, &mut w.rng);
    let (token2, acceptor) = resource
        .mjs_accept_hello(handle, &mut w.rng, &token1)
        .unwrap();
    let (token3, context) = initiator.step(&token2).unwrap();
    resource.mjs_accept_finished(acceptor, &token3).unwrap();
    context
}

/// A ResumeHello for the session `context` carries.
fn resume_hello(context: &EstablishedContext, w: &mut World) -> Vec<u8> {
    let session = ClientSession::from_channel(context.channel()).unwrap();
    resume_client(session, w.clock.now(), DEFAULT_SESSION_LIFETIME, &mut w.rng).1
}

fn frame(op: &str, handle: &str, body: &[u8]) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_str(op).put_str(handle).put_bytes(body);
    e.finish()
}

fn refused(reply: &[u8]) -> bool {
    matches!(Reply::decode(reply), Some(Reply::Refused(_)))
}

#[test]
fn sign_on_runs_one_full_and_fifteen_resumed_handshakes() {
    let mut w = world();
    let mut resource = resource(&w);
    let proxy = issue_proxy(
        &mut w.rng,
        &w.jane,
        ProxyType::Impersonation,
        512,
        100,
        50_000,
    )
    .unwrap();
    let mut jane = Requestor::new(proxy, w.trust.clone(), b"jane sign-on");
    for n in 0..16 {
        let active = jane.submit_job(&mut resource, &job(n), 100).unwrap();
        assert_eq!(active.cold_start, n == 0);
        assert_eq!(
            resource.job_state(&active.handle).unwrap(),
            JobState::Active
        );
    }
    assert_eq!(resource.stats.full_handshakes, 1);
    assert_eq!(resource.stats.resumed_handshakes, 15);
    let sessions = resource.lmjfs_sessions("jdoe").unwrap();
    assert_eq!((sessions.hits(), sessions.misses()), (15, 0));
    // Resumed or not, every job got its own delegated credential.
    let procs = resource.os().processes("compute1").unwrap();
    let jobs: Vec<_> = procs
        .iter()
        .filter(|p| p.name.starts_with("job:"))
        .collect();
    assert_eq!(jobs.len(), 16);
    assert!(jobs
        .iter()
        .all(|p| p.credentials.iter().any(|c| c.contains("delegated proxy"))));
}

/// A GRAM service over `resource` under no crash plan, journaling on a
/// host of its own.
fn gram_service(resource: &Rc<RefCell<GramResource>>, seed: &[u8]) -> DurableGram {
    let os = SimOs::new();
    os.add_host("compute1");
    let journal = Journal::open(os, "compute1", "/var/gram/journal.wal", ROOT_UID);
    DurableGram::new(resource.clone(), seed, CrashPlan::disabled(), journal)
}

/// `service` brought up the way `CrashableServer::spawn` brings it up,
/// for tests that call `handle` directly. Its start empties the MJS
/// table before folding in the (empty) journal, so start it before any
/// MJS exists.
fn started(mut service: DurableGram) -> DurableGram {
    service.recover();
    service
}

/// `service` as a task on a scheduler over `net`, plus a client of it.
fn serve(net: &Network, client: &str, service: DurableGram) -> (RpcClient, Scheduler) {
    let mut sched = Scheduler::new(net);
    CrashableServer::spawn(
        &mut sched,
        net.register("mjs-host"),
        "gram",
        &CrashPlan::disabled(),
        &Rc::new(RefCell::new(service)),
    );
    let rpc = RpcClient::new(net.register(client), "mjs-host", policy());
    (rpc, sched)
}

fn policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 8,
        base_timeout: 16,
        multiplier: 2,
        max_timeout: 64,
    }
}

#[test]
fn every_remote_job_is_authorized_and_delegated_resumed_or_not() {
    let w = world();
    let shared = Rc::new(RefCell::new(resource(&w)));
    let net = Network::new();
    let (mut rpc, _sched) = serve(&net, "jane", gram_service(&shared, b"mjs rng"));
    let mut jane = Requestor::new(w.jane.clone(), w.trust.clone(), b"jane remote");

    let tracer = Tracer::new();
    let authorized = Rc::new(RefCell::new(Vec::new()));
    let seen = authorized.clone();
    tracer.set_sink(Box::new(move |r| {
        if r.name == "gram.grim.authorized" {
            seen.borrow_mut().push(r.detail);
        }
    }));
    let _installed = trace::install(&tracer);
    for n in 0..4 {
        submit_job_resilient(&mut jane, &mut rpc, &job(n), &dn(HOST), w.clock.now(), 1).unwrap();
    }
    let stats = shared.borrow().stats;
    assert_eq!((stats.full_handshakes, stats.resumed_handshakes), (1, 3));
    assert_eq!(*authorized.borrow(), vec!["account=jdoe"; 4]);
    assert_eq!(tracer.metrics().counters["gram.delegations"], 4);
}

#[test]
fn resume_hello_for_one_users_lmjfs_is_refused_by_anothers() {
    let mut w = world();
    let shared = Rc::new(RefCell::new(resource(&w)));
    let mut service = started(gram_service(&shared, b"mjs rng"));
    let mut jane = Requestor::new(w.jane.clone(), w.trust.clone(), b"jane");
    let mut carl = Requestor::new(w.carl.clone(), w.trust.clone(), b"carl");

    // Jane's MJS authenticates her once; the replayer captures the
    // ResumeHello her next job would send.
    let request = jane.signed_request(&job(0), 100);
    let jane_job = shared.borrow_mut().submit(&request).unwrap().mjs_handle;
    let jane_cred = w.jane.clone();
    let context = full_handshake(&mut shared.borrow_mut(), &jane_job, &jane_cred, &mut w);
    let hello = resume_hello(&context, &mut w);

    // Carl is resident on the same host, with a session of his own and
    // a job awaiting step 7.
    carl.submit_job(&mut shared.borrow_mut(), &job(1), 100)
        .unwrap();
    let request = carl.signed_request(&job(2), 100);
    let carl_job = shared.borrow_mut().submit(&request).unwrap().mjs_handle;

    // Replayed to Carl's MJS, Jane's ticket is unknown: Carl's LMJFS
    // holds only sessions its own GRIM credential authenticated.
    let err = shared
        .borrow_mut()
        .mjs_accept_hello(&carl_job, &mut w.rng, &hello)
        .err()
        .unwrap();
    assert_eq!(
        err,
        GramError::Context("context error: protocol error: unknown session ticket".into())
    );
    assert!(refused(&service.handle(
        "mallory",
        1,
        &frame(OP_TOKEN1, &carl_job, &hello)
    )));
    assert!(refused(&service.handle(
        "mallory",
        2,
        &frame(OP_TOKEN3, &carl_job, &[6; 33])
    )));
    assert!(refused(&service.handle(
        "mallory",
        3,
        &frame(OP_START, &carl_job, b"start-job")
    )));

    let resource = shared.borrow();
    let carls = resource.lmjfs_sessions("carl").unwrap();
    assert_eq!((carls.hits(), carls.misses()), (0, 2));
    assert_eq!(resource.lmjfs_sessions("jdoe").unwrap().hits(), 0);
    assert_eq!(
        resource.job_state(&carl_job).unwrap(),
        JobState::Unsubmitted
    );
    assert_eq!(resource.stats.resumed_handshakes, 0);
    assert_eq!(job_processes(&resource), 1, "only Carl's first job runs");
}

#[test]
fn a_replayed_resume_hello_cannot_finish_without_the_master_secret() {
    let mut w = world();
    let shared = Rc::new(RefCell::new(resource(&w)));
    let mut service = started(gram_service(&shared, b"mjs rng"));
    let mut jane = Requestor::new(w.jane.clone(), w.trust.clone(), b"jane");
    let request = jane.signed_request(&job(0), 100);
    let first = shared.borrow_mut().submit(&request).unwrap().mjs_handle;
    let jane_cred = w.jane.clone();
    let context = full_handshake(&mut shared.borrow_mut(), &first, &jane_cred, &mut w);
    let hello = resume_hello(&context, &mut w);
    let request = jane.signed_request(&job(1), 100);
    let second = shared.borrow_mut().submit(&request).unwrap().mjs_handle;

    // Jane's own LMJFS knows the ticket and answers the hello, but the
    // finished MAC needs the master secret the replayer lacks.
    assert!(!refused(&service.handle(
        "mallory",
        4,
        &frame(OP_TOKEN1, &second, &hello)
    )));
    let mut forged = vec![6];
    forged.extend_from_slice(&[0; 32]);
    assert!(refused(&service.handle(
        "mallory",
        5,
        &frame(OP_TOKEN3, &second, &forged)
    )));
    // The refused Finished took its half-open handshake with it.
    let again = service.handle("mallory", 6, &frame(OP_TOKEN3, &second, &forged));
    let Some(Reply::Refused(reason)) = Reply::decode(&again) else {
        panic!("not a refusal: {again:?}");
    };
    assert!(reason.contains("no handshake in progress"), "{reason}");
    assert!(refused(&service.handle(
        "mallory",
        7,
        &frame(OP_START, &second, b"start-job")
    )));

    let resource = shared.borrow();
    assert_eq!(resource.stats.resumed_handshakes, 0);
    assert_eq!(resource.job_state(&second).unwrap(), JobState::Unsubmitted);
    assert_eq!(job_processes(&resource), 0);
}

/// The session of a sign-on whose earlier `not_after` — of the requestor
/// proxy or of the GRIM credential — is 1 100: resumed at 1 099, full at
/// 1 100 (the credentials are valid through their `not_after`, the
/// ticket is not), and refused past it, on either side.
fn step7_stops_resuming_at_the_earlier_not_after(proxy_lifetime: u64, grim_lifetime: u64) {
    const NOT_AFTER: u64 = 1_100;
    let mut w = world();
    let config = GramConfig {
        grim_lifetime,
        ..GramConfig::default()
    };
    let mut resource = install(&w, SimOs::new(), config);
    let proxy = issue_proxy(
        &mut w.rng,
        &w.jane,
        ProxyType::Impersonation,
        512,
        100,
        proxy_lifetime,
    )
    .unwrap();
    let mut jane = Requestor::new(proxy.clone(), w.trust.clone(), b"jane short-lived");

    jane.submit_job(&mut resource, &job(0), 100).unwrap();
    let request = jane.signed_request(&job(1), 100);
    let probe = resource.submit(&request).unwrap().mjs_handle;
    let context = full_handshake(&mut resource, &probe, &proxy, &mut w);
    let session = ClientSession::from_channel(context.channel()).unwrap();
    assert_eq!(
        session.expires_at(),
        NOT_AFTER,
        "ticket clamped to the earlier not_after"
    );

    w.clock.advance(NOT_AFTER - 1 - w.clock.now());
    jane.submit_job(&mut resource, &job(2), w.clock.now())
        .unwrap();
    assert_eq!(resource.stats.resumed_handshakes, 1);

    w.clock.advance(1);
    jane.submit_job(&mut resource, &job(3), NOT_AFTER).unwrap();
    assert_eq!(
        resource.stats.resumed_handshakes, 1,
        "no resumption at not_after"
    );
    assert_eq!(resource.stats.full_handshakes, 3);
    let request = jane.signed_request(&job(4), NOT_AFTER);
    let late = resource.submit(&request).unwrap();

    w.clock.advance(1);
    let now = w.clock.now();
    let err = jane
        .connect_and_start(&mut resource, &late.mjs_handle, Some(&late.account), now)
        .unwrap_err();
    assert!(matches!(err, GramError::Context(_)), "{err:?}");
    let hello = resume_hello(&context, &mut w);
    let err = resource
        .mjs_accept_hello(&late.mjs_handle, &mut w.rng, &hello)
        .err()
        .unwrap();
    assert_eq!(
        err,
        GramError::Context("context error: protocol error: expired session ticket".into())
    );
    assert_eq!(
        (
            resource.stats.full_handshakes,
            resource.stats.resumed_handshakes
        ),
        (3, 1)
    );
    assert_eq!(
        resource.job_state(&late.mjs_handle).unwrap(),
        JobState::Unsubmitted
    );
    assert_eq!(job_processes(&resource), 3);
}

#[test]
fn no_step7_resumes_past_the_grim_credentials_not_after() {
    step7_stops_resuming_at_the_earlier_not_after(50_000, 1_000);
}

#[test]
fn no_step7_resumes_past_the_requestor_proxys_not_after() {
    step7_stops_resuming_at_the_earlier_not_after(1_000, 43_200);
}

#[test]
fn set_crls_empties_every_lmjfs_cache() {
    let w = world();
    let mut resource = resource(&w);
    let mut jane = Requestor::new(w.jane.clone(), w.trust.clone(), b"jane");
    let mut carl = Requestor::new(w.carl.clone(), w.trust.clone(), b"carl");
    jane.submit_job(&mut resource, &job(0), 100).unwrap();
    carl.submit_job(&mut resource, &job(1), 100).unwrap();
    let request = jane.signed_request(&job(2), 100);
    let pending = resource.submit(&request).unwrap();
    assert_eq!(resource.lmjfs_sessions("jdoe").unwrap().len(), 1);
    assert_eq!(resource.lmjfs_sessions("carl").unwrap().len(), 1);

    // Jane's EEC is revoked after her job was routed, before step 7.
    let crl =
        w.ca.issue_crl(vec![w.jane.certificate().body().serial], 100, 1_000_000);
    let mut crls = CrlStore::new();
    assert!(crls.add(crl, w.ca.certificate()));
    resource.set_crls(crls);

    // Her ticket was filed under the old epoch, so the LMJFS refuses it
    // and step 7 falls back to the full handshake, whose chain
    // validation now sees the CRL.
    let err = jane
        .connect_and_start(
            &mut resource,
            &pending.mjs_handle,
            Some(&pending.account),
            100,
        )
        .unwrap_err();
    assert!(matches!(err, GramError::Context(_)), "{err:?}");
    assert_eq!(
        resource.job_state(&pending.mjs_handle).unwrap(),
        JobState::Unsubmitted
    );
    assert_eq!(resource.stats.resumed_handshakes, 0);
    assert_eq!(resource.lmjfs_sessions("jdoe").unwrap().misses(), 1);

    // Carl is not revoked: his ticket misses too, one full handshake
    // runs, then resumption again.
    carl.submit_job(&mut resource, &job(3), 100).unwrap();
    assert_eq!(resource.lmjfs_sessions("carl").unwrap().misses(), 1);
    carl.submit_job(&mut resource, &job(4), 100).unwrap();
    assert_eq!(
        (
            resource.stats.full_handshakes,
            resource.stats.resumed_handshakes
        ),
        (3, 1)
    );
    assert_eq!(job_processes(&resource), 4);
}

#[test]
fn an_lmjfs_whose_cache_is_gone_gets_the_full_loop() {
    let w = world();
    let mut resource = resource(&w);
    let mut jane = Requestor::new(w.jane.clone(), w.trust.clone(), b"jane");
    jane.submit_job(&mut resource, &job(0), 100).unwrap();
    resource.set_crls(unrelated_crls(&w));
    jane.submit_job(&mut resource, &job(1), 100).unwrap();
    assert_eq!(
        (
            resource.stats.full_handshakes,
            resource.stats.resumed_handshakes
        ),
        (2, 0)
    );
    assert_eq!(resource.lmjfs_sessions("jdoe").unwrap().misses(), 1);
    assert_eq!(job_processes(&resource), 2, "each job started exactly once");
    jane.submit_job(&mut resource, &job(2), 100).unwrap();
    assert_eq!(resource.stats.resumed_handshakes, 1);
}

#[test]
fn a_rebuilt_service_on_a_fresh_install_gets_the_full_loop() {
    let w = world();
    let mut jane = Requestor::new(w.jane.clone(), w.trust.clone(), b"jane");
    let first = Rc::new(RefCell::new(resource(&w)));
    let net = Network::new();
    let (mut rpc, sched) = serve(&net, "jane", gram_service(&first, b"mjs rng"));
    submit_job_resilient(&mut jane, &mut rpc, &job(0), &dn(HOST), 100, 1).unwrap();
    drop((rpc, sched));

    // The host is reinstalled: a new service over a new resource,
    // whose LMJFS never saw Jane's ticket.
    let rebuilt = Rc::new(RefCell::new(resource(&w)));
    let net = Network::new();
    let (mut rpc, _sched) = serve(&net, "jane", gram_service(&rebuilt, b"mjs rng 2"));
    let active = submit_job_resilient(&mut jane, &mut rpc, &job(1), &dn(HOST), 100, 1).unwrap();
    assert!(active.cold_start);
    let resource = rebuilt.borrow();
    assert_eq!(
        resource.job_state(&active.handle).unwrap(),
        JobState::Active
    );
    assert_eq!(
        (
            resource.stats.full_handshakes,
            resource.stats.resumed_handshakes
        ),
        (1, 0)
    );
    assert_eq!(resource.lmjfs_sessions("jdoe").unwrap().misses(), 1);
    assert_eq!(job_processes(&resource), 1, "the job started exactly once");
}

#[test]
fn a_rebuilt_front_end_over_the_surviving_lmjfs_still_resumes() {
    // The cache lives with the LMJFS, not with the RPC front end; the
    // front end's jobs live in its journal, which survives it too.
    let w = world();
    let mut jane = Requestor::new(w.jane.clone(), w.trust.clone(), b"jane");
    let shared = Rc::new(RefCell::new(resource(&w)));
    let os = SimOs::new();
    os.add_host("compute1");
    let front_end = |seed: &[u8]| {
        let journal = Journal::open(os.clone(), "compute1", "/var/gram/journal.wal", ROOT_UID);
        DurableGram::new(shared.clone(), seed, CrashPlan::disabled(), journal)
    };
    let net = Network::new();
    let (mut rpc, sched) = serve(&net, "jane", front_end(b"mjs rng"));
    let first = submit_job_resilient(&mut jane, &mut rpc, &job(0), &dn(HOST), 100, 1).unwrap();
    drop((rpc, sched));
    // Jane reaches it over a new connection: the journal answers the
    // old connection's `(caller, call id)`s with their committed replies.
    let net = Network::new();
    let (mut rpc, _sched) = serve(&net, "jane:2", front_end(b"mjs rng 2"));
    submit_job_resilient(&mut jane, &mut rpc, &job(1), &dn(HOST), 100, 1).unwrap();
    let resource = shared.borrow();
    assert_eq!(
        (
            resource.stats.full_handshakes,
            resource.stats.resumed_handshakes
        ),
        (1, 1)
    );
    assert_eq!(
        resource.job_state(&first.handle).unwrap(),
        JobState::Active,
        "the first job came back from the journal"
    );
    assert_eq!(job_processes(&resource), 2, "each job started exactly once");
}

#[test]
fn retransmitted_resume_tokens_are_answered_from_the_reply_cache() {
    const JOBS: usize = 8;
    let w = world();
    let shared = Rc::new(RefCell::new(resource(&w)));
    let net = Network::new();
    net.enable_faults(w.clock.clone(), 0x57E7, FaultProfile::lossy_wan());
    let (mut rpc, _sched) = serve(&net, "jane", gram_service(&shared, b"mjs rng"));
    let mut jane = Requestor::new(w.jane.clone(), w.trust.clone(), b"jane lossy");
    for n in 0..JOBS {
        let active =
            submit_job_resilient(&mut jane, &mut rpc, &job(n), &dn(HOST), w.clock.now(), 1)
                .unwrap();
        assert_eq!(
            shared.borrow().job_state(&active.handle).unwrap(),
            JobState::Active
        );
    }
    let faults = net.fault_stats().unwrap();
    assert!(faults.dropped > 0 && faults.duplicated > 0, "{faults:?}");
    assert!(rpc.stats().retransmissions > 0);
    // A ResumeHello stepped twice would count a second hit.
    let resource = shared.borrow();
    let jdoe = resource.lmjfs_sessions("jdoe").unwrap();
    assert_eq!((jdoe.hits(), jdoe.misses()), (JOBS as u64 - 1, 0));
    assert_eq!(
        (
            resource.stats.full_handshakes,
            resource.stats.resumed_handshakes
        ),
        (1, JOBS as u64 - 1)
    );
    assert_eq!(job_processes(&resource), JOBS);
}

/// Two jobs through a crash-durable service whose process dies at the
/// `nth` step-7 session op; returns (full, resumed) handshakes.
fn crash_at_session_op(nth: u64) -> (u64, u64) {
    let w = world();
    let os = SimOs::new();
    let shared = Rc::new(RefCell::new(install(&w, os.clone(), GramConfig::default())));
    let plan = CrashPlan::manual(3);
    plan.arm("gram.session.exec", nth);
    let journal = Journal::open(os.clone(), "compute1", "/var/gram/journal.wal", ROOT_UID);
    let durable = Rc::new(RefCell::new(DurableGram::new(
        shared.clone(),
        b"durable mjs",
        plan.clone(),
        journal,
    )));
    let net = Network::new();
    net.enable_faults(w.clock.clone(), 0x57E8, FaultProfile::default());
    let mut sched = Scheduler::new(&net);
    CrashableServer::spawn(
        &mut sched,
        net.register("mjs-host"),
        "gram",
        &plan,
        &durable,
    );
    let mut rpc = RpcClient::new(net.register("jane"), "mjs-host", policy());
    let mut jane = Requestor::new(w.jane.clone(), w.trust.clone(), b"jane durable");
    for n in 0..2 {
        let active =
            submit_job_resilient(&mut jane, &mut rpc, &job(n), &dn(HOST), w.clock.now(), 8)
                .unwrap();
        assert_eq!(
            shared.borrow().job_state(&active.handle).unwrap(),
            JobState::Active
        );
    }
    assert_eq!(plan.restarts(), 1, "the service was reborn");
    let resource = shared.borrow();
    assert_eq!(job_processes(&resource), 2, "each job started exactly once");
    (
        resource.stats.full_handshakes,
        resource.stats.resumed_handshakes,
    )
}

#[test]
fn a_crash_before_the_resume_hello_runs_still_resumes() {
    // Session ops 1–4 are the first job's (two tokens, two delegation
    // legs); op 5 is the second job's ResumeHello. The LMJFS and its
    // cache survive the service's death, so the retransmission resumes.
    assert_eq!(crash_at_session_op(5), (1, 1));
}

#[test]
fn a_crash_between_the_resume_tokens_falls_back_to_the_full_loop() {
    // Op 6 is the ResumeFinished: the reborn service has lost the
    // half-open session, the requestor gave up the ticket when it
    // offered it, and the retry runs the full handshake.
    assert_eq!(crash_at_session_op(6), (2, 0));
}
