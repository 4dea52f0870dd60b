//! The paper-figure chaos scenarios as reusable library functions.
//!
//! Each figure builds a fresh [`Network`] with the lossy-WAN fault
//! profile seeded from the master seed, wires a [`Tracer`] whose clock
//! is the scenario's `SimClock` (so every span timestamp is simulated
//! time, fully deterministic per seed), attaches a hash-chained
//! [`AuditLog`] as the tracer's event sink, and runs the flow through
//! the retry/RPC stack. The returned [`ScenarioReport`] carries the
//! network transcript, the trace dump, and the metrics snapshot — all
//! three byte-identical functions of the seed.
//!
//! The chaos test suite (`tests/chaos.rs`) asserts on these; the bench
//! crate's `flow_metrics` bin replays them to emit `BENCH_flows.json`
//! for `regen_experiments`.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use gridsec_authz::cas::ResourceGate;
use gridsec_authz::durable::DurableCas;
use gridsec_authz::net::fetch_assertion;
use gridsec_authz::policy::{CombiningAlg, Decision, Effect, PolicySet, Rule, SubjectMatch};
use gridsec_crypto::rng::ChaChaRng;
use gridsec_crypto::sha256::sha256;
use gridsec_gram::durable::DurableGram;
use gridsec_gram::remote::{job_state_remote, submit_job_resilient};
use gridsec_gram::resource::{GramConfig, GramResource};
use gridsec_gram::types::{JobDescription, JobState};
use gridsec_gram::Requestor;
use gridsec_gridftp::poll::{Dialect, SessionTask};
use gridsec_gridftp::resume::{resumable_get, resumable_put};
use gridsec_gridftp::GridFtpServer;
use gridsec_gsi::sso;
use gridsec_gsi::vo::{create_domain, form_vo};
use gridsec_gssapi::net::{
    establish_initiator_cached, establish_initiator_resilient, CrashableAcceptor,
};
use gridsec_ogsa::client::{OgsaClient, StaticCredential};
use gridsec_ogsa::hosting::HostingEnvironment;
use gridsec_ogsa::service::{GridService, RequestContext};
use gridsec_ogsa::transport::{RetryTransport, RpcService};
use gridsec_ogsa::OgsaError;
use gridsec_pki::ca::CertificateAuthority;
use gridsec_pki::store::TrustStore;
use gridsec_services::audit::AuditLog;
use gridsec_testbed::clock::SimClock;
use gridsec_testbed::faults::{CrashPlan, CrashRecover, CrashableServer, Journal};
use gridsec_testbed::net::{Endpoint, FaultProfile, FaultStats, Network, SimStream, StreamPair};
use gridsec_testbed::os::{FileMode, SimOs, ROOT_UID};
use gridsec_testbed::rpc::{RpcClient, ServerTask};
use gridsec_testbed::sched::Scheduler;
use gridsec_tls::handshake::TlsConfig;
use gridsec_tls::session::{ClientSessionCache, DEFAULT_SESSION_CAPACITY};
use gridsec_util::retry::RetryPolicy;
use gridsec_util::trace::{self, MetricsSnapshot, Tracer};
use gridsec_wsse::policy::{PolicyAlternative, Protection, SecurityPolicy};
use gridsec_xml::Element;

use std::sync::Mutex;

use crate::{basic_world, dn};

pub mod crypto_storm;
pub mod expiry_storm;
pub mod portal;
pub mod vo_storm;

/// Options a chaos harness can vary per run.
#[derive(Clone, Debug, Default)]
pub struct ChaosOpts {
    /// Partition every client/server link before the flow runs, forcing
    /// retry-budget exhaustion (the flight recorder's trigger).
    pub partition_all: bool,
    /// Write flight-recorder dumps here (the tracer's flight path).
    pub flight_path: Option<String>,
    /// Enable seeded process crashes: every service runs under a
    /// [`CrashPlan`] that kills it at injection points mid-request, up
    /// to a per-figure cap, with recovery from the write-ahead journal.
    pub crashes: bool,
    /// Explicitly armed kill points (`(point, nth-hit)`); point names
    /// are figure-specific (`cas.issue.journaled`, `gram.start.exec`,
    /// `xfer.put.chunk`, …) so arming one targets one figure.
    pub armed_crashes: Vec<(String, u64)>,
}

/// Everything one scenario produced, all deterministic per seed.
pub struct ScenarioReport {
    /// Network transcript lines, prefixed with the figure tag — crash
    /// and restart events from the [`CrashPlan`] transcript included.
    pub lines: Vec<String>,
    /// Fault-layer counters.
    pub stats: FaultStats,
    /// The trace ring + metrics, rendered (`Tracer::dump` + render).
    pub trace: String,
    /// The metrics snapshot (for `BENCH_*.json` emission).
    pub metrics: MetricsSnapshot,
    /// Records mirrored into the audit hash chain.
    pub audit_records: usize,
    /// Whether the flow completed (false under `partition_all`).
    pub completed: bool,
    /// Process kills delivered by the figure's crash plan.
    pub crashes: u64,
    /// Service restarts (journal recoveries) completed.
    pub restarts: u64,
}

/// Build the figure's crash plan from the options: seeded when
/// `opts.crashes` (salted so each figure draws an independent
/// schedule), manual when only armed points were requested, disabled
/// otherwise. Armed points apply in every mode.
fn crash_plan(opts: &ChaosOpts, seed: u64, salt: u64, probability: f64, max: u64) -> CrashPlan {
    let plan = if opts.crashes {
        CrashPlan::seeded(seed ^ salt, probability, max, 3)
    } else if !opts.armed_crashes.is_empty() {
        CrashPlan::manual(3)
    } else {
        CrashPlan::disabled()
    };
    for (point, nth) in &opts.armed_crashes {
        plan.arm(point, *nth);
    }
    plan
}

/// The retry policy all chaos clients use: ample attempts, timeout
/// windows comfortably above the profile's worst-case latency so an
/// attempt only fails on an actual drop or partition.
pub fn policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 8,
        base_timeout: 16,
        multiplier: 2,
        max_timeout: 64,
    }
}

/// Host `app` on `sched` behind the crashable RPC endpoint `endpoint`
/// (transcript name `service`). The figure's straight-line client code
/// parks in `sched` on every call, so it must outlive the flow.
fn spawn_crashable<A: CrashRecover + 'static>(
    sched: &mut Scheduler,
    endpoint: Endpoint,
    service: &str,
    plan: &CrashPlan,
    journal: Journal,
    persist_replies: bool,
    app: &Rc<RefCell<A>>,
) {
    let mailbox = endpoint.id();
    let server = CrashableServer::new(endpoint, service, plan.clone(), journal, persist_replies);
    sched.spawn_mailbox_id(mailbox, ServerTask::new(server, app.clone()));
}

/// Per-scenario observability rig: tracer on the scenario clock, audit
/// log as the event sink, optional flight path.
struct Rig {
    tracer: Tracer,
    audit: AuditLog,
}

fn rig(clock: &SimClock, opts: &ChaosOpts) -> Rig {
    let tracer = Tracer::new();
    let c = clock.clone();
    tracer.set_clock(move || c.now());
    if let Some(path) = &opts.flight_path {
        tracer.set_flight_path(path.clone());
    }
    let audit = AuditLog::new();
    audit.attach(&tracer);
    Rig { tracer, audit }
}

fn report(tag: &str, net: &Network, r: Rig, completed: bool, plan: &CrashPlan) -> ScenarioReport {
    assert!(
        r.audit.verify().is_ok(),
        "{tag}: audit hash chain must verify"
    );
    let mut lines: Vec<String> = net
        .transcript()
        .into_iter()
        .map(|l| format!("{tag} {l}"))
        .collect();
    lines.extend(plan.transcript().into_iter().map(|l| format!("{tag} {l}")));
    ScenarioReport {
        lines,
        stats: net.fault_stats().expect("faults were enabled"),
        trace: format!("{}{}", r.tracer.dump(), r.tracer.metrics().render()),
        metrics: r.tracer.metrics(),
        audit_records: r.audit.len(),
        completed,
        crashes: plan.crashes(),
        restarts: plan.restarts(),
    }
}

/// Figure 1: GSS-API context establishment (the VO sign-on handshake)
/// across the lossy network, then a secured message both ways. The
/// acceptor runs under a [`CrashableServer`]: security contexts are
/// deliberately *not* journaled — re-establishment through the retry
/// machinery is the recovery path — so a kill at `gss.accept.exec`
/// forces the initiator to restart the handshake from scratch.
pub fn figure1_gss(seed: u64, opts: &ChaosOpts) -> ScenarioReport {
    let net = Network::new();
    let clock = SimClock::starting_at(100);
    net.enable_faults(clock.clone(), seed ^ 0xF161, FaultProfile::lossy_wan());
    let plan = crash_plan(opts, seed, 0xC4A1, 0.04, 2);
    let r = rig(&clock, opts);
    let _guard = trace::install(&r.tracer);
    let _dump = trace::dump_on_panic(&r.tracer, "figure1_gss");

    let mut w = basic_world(b"chaos fig1");
    let initiator_cfg = TlsConfig::new(w.user.clone(), w.trust.clone(), 100);
    let acceptor_cfg = TlsConfig::new(w.service.clone(), w.trust.clone(), 100);

    let os = SimOs::new();
    os.add_host("service");
    let journal = Journal::open(os, "service", "/var/gss/journal.wal", ROOT_UID);
    let service = Rc::new(RefCell::new(CrashableAcceptor::new(
        acceptor_cfg,
        b"chaos fig1 acceptor",
        plan.clone(),
    )));
    // persist_replies = false: an ephemeral handshake reply must not be
    // replayed into a post-restart acceptor that lost the session.
    let mut sched = Scheduler::new(&net);
    let ep = net.register("service");
    spawn_crashable(&mut sched, ep, "gss", &plan, journal, false, &service);
    let mut rpc = RpcClient::new(net.register("user"), "service", policy());

    if opts.partition_all {
        net.partition("user", "service");
        let err = establish_initiator_resilient(&mut rpc, initiator_cfg, &mut w.rng, 1);
        assert!(err.is_err(), "partition must fail establishment");
        return report("fig1", &net, r, false, &plan);
    }

    let mut user_ctx = establish_initiator_resilient(&mut rpc, initiator_cfg, &mut w.rng, 6)
        .expect("figure 1 must establish under lossy WAN + crashes");
    let mut service_ctx = service
        .borrow_mut()
        .service()
        .take_established("user")
        .expect("acceptor side established");

    // The contexts are live: protect one message in each direction.
    let sealed = user_ctx.wrap(b"vo sign-on complete");
    assert_eq!(
        service_ctx.unwrap(&sealed).expect("unwrap at service"),
        b"vo sign-on complete"
    );
    let back = service_ctx.wrap(b"welcome");
    assert_eq!(user_ctx.unwrap(&back).expect("unwrap at user"), b"welcome");
    assert_eq!(service_ctx.peer().base_identity, dn("/O=G/CN=User"));

    // Repeat sign-on through the session cache: normally the abbreviated
    // resumption exchange (no RSA/DH), but any chaos on the resume path —
    // a lost ticket after a kill, an armed `gss.accept.resume` crash —
    // makes it fall back to the full handshake transparently. Either way
    // the second context must come up and carry traffic.
    let mut cache = ClientSessionCache::new(DEFAULT_SESSION_CAPACITY);
    cache.store("service", user_ctx.channel());
    let initiator_cfg2 = TlsConfig::new(w.user.clone(), w.trust.clone(), 100);
    let mut user_ctx2 =
        establish_initiator_cached(&mut rpc, initiator_cfg2, &mut w.rng, &mut cache, 6)
            .expect("figure 1 repeat establishment under lossy WAN + crashes");
    let mut service_ctx2 = service
        .borrow_mut()
        .service()
        .take_established("user")
        .expect("acceptor side re-established");
    let sealed2 = user_ctx2.wrap(b"second session");
    assert_eq!(
        service_ctx2.unwrap(&sealed2).expect("unwrap at service"),
        b"second session"
    );
    let back2 = service_ctx2.wrap(b"welcome back");
    assert_eq!(
        user_ctx2.unwrap(&back2).expect("unwrap at user"),
        b"welcome back"
    );

    report("fig1", &net, r, true, &plan)
}

/// Figure 2: CAS-mediated authorization — fetch a signed capability
/// assertion over the lossy network, then present it to a resource
/// gate that intersects VO rights with local policy.
pub fn figure2_cas(seed: u64, opts: &ChaosOpts) -> ScenarioReport {
    let net = Network::new();
    let clock = SimClock::starting_at(100);
    net.enable_faults(clock.clone(), seed ^ 0xF162, FaultProfile::lossy_wan());
    let r = rig(&clock, opts);
    let _guard = trace::install(&r.tracer);
    let _dump = trace::dump_on_panic(&r.tracer, "figure2_cas");

    let mut rng = ChaChaRng::from_seed_bytes(b"chaos fig2");
    let ca = CertificateAuthority::create_root(&mut rng, dn("/O=VO/CN=CA"), 512, 0, 1_000_000);
    let cas_cred = ca.issue_identity(&mut rng, dn("/O=VO/CN=CAS"), 512, 0, 500_000);
    let alice = dn("/O=G/CN=Alice");

    // The CAS policy DB and issued-assertion log live in a write-ahead
    // journal on the simulated OS; a kill at `cas.issue.*` throws the
    // in-memory server away and recovery replays the journal.
    let plan = crash_plan(opts, seed, 0xC4A2, 0.08, 2);
    let os = SimOs::new();
    os.add_host("cas");
    let journal = Journal::open(os, "cas", "/var/cas/journal.wal", ROOT_UID);
    let durable = Rc::new(RefCell::new(DurableCas::new(
        "physics-vo",
        cas_cred,
        3600,
        clock.clone(),
        plan.clone(),
        journal.clone(),
    )));
    durable
        .borrow()
        .enroll(&alice, vec!["group:analysts".into()]);
    durable.borrow().add_rule(
        SubjectMatch::Exact("group:analysts".to_string()),
        "dataset/*",
        "read",
        Effect::Permit,
    );

    let mut sched = Scheduler::new(&net);
    let ep = net.register("cas");
    spawn_crashable(&mut sched, ep, "cas", &plan, journal, true, &durable);
    let mut rpc = RpcClient::new(net.register("alice"), "cas", policy());

    if opts.partition_all {
        net.partition("alice", "cas");
        assert!(fetch_assertion(&mut rpc, &alice).is_err());
        return report("fig2", &net, r, false, &plan);
    }

    let assertion =
        fetch_assertion(&mut rpc, &alice).expect("figure 2 must fetch under lossy WAN + crashes");
    // At-most-once across restarts: duplicated frames and post-crash
    // retransmits collapsed onto one journaled issuance.
    assert_eq!(
        durable.borrow().issued_count(),
        1,
        "exactly one assertion issued"
    );

    let mut local = PolicySet::new(CombiningAlg::DenyOverrides);
    local.add(Rule::new(
        SubjectMatch::Exact("vo:physics-vo".to_string()),
        "dataset/*",
        "read",
        Effect::Permit,
    ));
    let mut gate = ResourceGate::new(local);
    gate.trust_cas("physics-vo", durable.borrow().cas().public_key().clone());
    let decision = gate
        .authorize_with_cas(&assertion, &alice, "dataset/run7", "read", clock.now())
        .expect("assertion accepted");
    assert_eq!(decision, Decision::Permit);
    trace::event(
        "gate.decision",
        "resource=dataset/run7 action=read outcome=permit",
    );

    report("fig2", &net, r, true, &plan)
}

/// Echo service for the Figure 3 hosting environment.
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

/// Figure 3: the secured OGSA pipeline — policy fetch, secure
/// conversation, createService, invoke, destroy — every envelope an
/// at-most-once RPC over the lossy network. A duplicated
/// `createService` answered from the reply cache must not create a
/// second instance.
pub fn figure3_ogsa(seed: u64, opts: &ChaosOpts) -> ScenarioReport {
    let net = Network::new();
    let clock = SimClock::starting_at(100);
    net.enable_faults(clock.clone(), seed ^ 0xF163, FaultProfile::lossy_wan());
    let r = rig(&clock, opts);
    let _guard = trace::install(&r.tracer);
    let _dump = trace::dump_on_panic(&r.tracer, "figure3_ogsa");

    let w = basic_world(b"chaos fig3");
    let published = SecurityPolicy {
        service: "echo".to_string(),
        alternatives: vec![PolicyAlternative {
            mechanism: "gsi-secure-conversation".to_string(),
            token_types: vec!["x509-chain".to_string()],
            trust_roots: vec![],
            protection: Protection::Sign,
        }],
    };
    let mut authz = PolicySet::new(CombiningAlg::DenyOverrides);
    authz.add(Rule::new(
        SubjectMatch::Exact("/O=G/CN=User".to_string()),
        "factory:echo",
        "create",
        Effect::Permit,
    ));
    authz.add(Rule::new(
        SubjectMatch::Exact("/O=G/CN=User".to_string()),
        "service:echo",
        "*",
        Effect::Permit,
    ));
    let mut env = HostingEnvironment::new(
        "echo-host",
        w.service.clone(),
        w.trust.clone(),
        clock.clone(),
        published,
        authz,
    );
    env.registry
        .register_factory("echo", Box::new(|_ctx, _args| Ok(Box::new(EchoService))));
    let env = Rc::new(RefCell::new(env));

    let mut sched = Scheduler::new(&net);
    sched.spawn_mailbox("echo-host", RpcService::new(&net, "echo-host", env.clone()));
    let transport = RetryTransport::connect(&net, "user", "echo-host", policy());
    let mut client = OgsaClient::new(transport, w.trust.clone(), clock, b"chaos fig3 client");
    client.add_source(Box::new(StaticCredential(w.user.clone())));

    if opts.partition_all {
        net.partition("user", "echo-host");
        assert!(client.create_service("echo", Element::new("args")).is_err());
        return report("fig3", &net, r, false, &CrashPlan::disabled());
    }

    let handle = client
        .create_service("echo", Element::new("args"))
        .expect("figure 3 createService under lossy WAN");
    let reply = client
        .invoke(&handle, "echo", Element::new("m").with_text("hello grid"))
        .expect("figure 3 invoke under lossy WAN");
    assert_eq!(reply.text_content(), "hello grid");
    assert_eq!(reply.attr("caller"), Some("/O=G/CN=User"));
    // Exactly one instance exists despite any duplicated createService.
    assert_eq!(env.borrow().registry.instance_count(), 1);
    client.destroy(&handle).expect("figure 3 destroy");
    assert_eq!(env.borrow().registry.instance_count(), 0);

    report("fig3", &net, r, true, &CrashPlan::disabled())
}

/// Figure 4: the GT3 GRAM chain — signed submission through MMJFS /
/// Setuid Starter / GRIM / LMJFS, then step-7 mutual authentication,
/// GRIM authorization, delegation, and job start, every leg retried
/// over the lossy network. Exactly one LMJFS cold start may happen no
/// matter how many times the submission frame is duplicated.
pub fn figure4_gram(seed: u64, opts: &ChaosOpts) -> ScenarioReport {
    let net = Network::new();
    let clock = SimClock::starting_at(100);
    net.enable_faults(clock.clone(), seed ^ 0xF164, FaultProfile::lossy_wan());
    let r = rig(&clock, opts);
    let _guard = trace::install(&r.tracer);
    let _dump = trace::dump_on_panic(&r.tracer, "figure4_gram");

    let mut rng = ChaChaRng::from_seed_bytes(b"chaos fig4");
    let ca = CertificateAuthority::create_root(&mut rng, dn("/O=G/CN=CA"), 512, 0, 1_000_000);
    let jane = ca.issue_identity(&mut rng, dn("/O=G/CN=Jane"), 512, 0, 500_000);
    let host_cred = ca.issue_host_identity(
        &mut rng,
        dn("/O=G/CN=host compute1"),
        vec!["compute1".into()],
        512,
        0,
        500_000,
    );
    let mut trust = TrustStore::new();
    trust.add_root(ca.certificate().clone());
    let gridmap = gridsec_authz::gridmap::GridMapFile::parse("\"/O=G/CN=Jane\" jdoe\n").unwrap();
    let os = SimOs::new();
    let resource = GramResource::install(
        os.clone(),
        clock.clone(),
        "compute1",
        trust.clone(),
        host_cred,
        &gridmap,
        GramConfig::default(),
    )
    .unwrap();
    let shared = Rc::new(RefCell::new(resource));

    // The MMJFS job table is journaled: a kill at `gram.submit.*` /
    // `gram.start.*` / `gram.session.exec` loses the in-memory MJS
    // layer, and recovery rebuilds it from the journal against the
    // surviving LMJFS processes.
    let plan = crash_plan(opts, seed, 0xC4A4, 0.05, 2);
    let journal = Journal::open(os.clone(), "compute1", "/var/gram/journal.wal", ROOT_UID);
    let durable = Rc::new(RefCell::new(DurableGram::new(
        shared.clone(),
        b"chaos mjs",
        plan.clone(),
        journal.clone(),
    )));
    let mut sched = Scheduler::new(&net);
    let ep = net.register("mjs-host");
    spawn_crashable(&mut sched, ep, "gram", &plan, journal, true, &durable);
    let mut rpc = RpcClient::new(net.register("jane"), "mjs-host", policy());

    let mut jane = Requestor::new(jane, trust, b"chaos jane");

    if opts.partition_all {
        net.partition("jane", "mjs-host");
        let err = submit_job_resilient(
            &mut jane,
            &mut rpc,
            &JobDescription::new("/bin/sim"),
            &dn("/O=G/CN=host compute1"),
            clock.now(),
            1,
        );
        assert!(err.is_err(), "partition must fail submission");
        return report("fig4", &net, r, false, &plan);
    }

    let job = submit_job_resilient(
        &mut jane,
        &mut rpc,
        &JobDescription::new("/bin/sim"),
        &dn("/O=G/CN=host compute1"),
        clock.now(),
        6,
    )
    .expect("figure 4 must submit under lossy WAN + crashes");
    assert_eq!(job.account, "jdoe");
    assert_eq!(
        job_state_remote(&mut rpc, &job.handle).expect("state query"),
        JobState::Active
    );
    // The journal-backed reply cache absorbed duplicated and
    // re-executed submissions across restarts: one cold start, one
    // job process — no duplicate side effects.
    assert_eq!(shared.borrow().stats.cold_starts, 1);
    let jobs = os
        .processes("compute1")
        .unwrap()
        .into_iter()
        .filter(|p| p.alive && p.name.starts_with("job:"))
        .count();
    assert_eq!(jobs, 1, "exactly one job process spawned");

    report("fig4", &net, r, true, &plan)
}

/// Figure 5 (the paper's third GT2 service family, §3): resumable
/// GridFTP data movement. A GET and a PUT of the same 4 KiB payload run
/// over [`StreamPair::lossy`] connections that tear deterministically;
/// the server can additionally be killed at `xfer.get.chunk` /
/// `xfer.put.chunk` mid-transfer. Restart markers (the client buffer
/// for GET, the durable `.part` staging file for PUT) resume every torn
/// session, and both directions finish with SHA-256 digests verified
/// end to end. Under `partition_all` the drop rate is 1.0: the connect
/// budget exhausts and the flight recorder dumps.
pub fn figure5_xfer(seed: u64, opts: &ChaosOpts) -> ScenarioReport {
    let clock = SimClock::starting_at(100);
    let plan = crash_plan(opts, seed, 0xC4A5, 0.10, 2);
    let r = rig(&clock, opts);
    let _guard = trace::install(&r.tracer);
    let _dump = trace::dump_on_panic(&r.tracer, "figure5_xfer");

    let mut rng = ChaChaRng::from_seed_bytes(b"chaos fig5");
    let ca = CertificateAuthority::create_root(&mut rng, dn("/O=G/CN=CA"), 512, 0, 1_000_000);
    let jane = ca.issue_identity(&mut rng, dn("/O=G/CN=Jane"), 512, 0, 500_000);
    let host_cred = ca.issue_host_identity(
        &mut rng,
        dn("/O=G/CN=host data1"),
        vec!["data1".into()],
        512,
        0,
        500_000,
    );
    let mut trust = TrustStore::new();
    trust.add_root(ca.certificate().clone());
    let gridmap = gridsec_authz::gridmap::GridMapFile::parse("\"/O=G/CN=Jane\" jdoe\n").unwrap();
    let server = Arc::new(Mutex::new(
        GridFtpServer::new(SimOs::new(), "data1", host_cred, trust.clone(), gridmap).unwrap(),
    ));

    // Deterministic 4 KiB payload, seeded into the mapped account.
    let data: Vec<u8> = (0..4096usize).map(|i| (i * 31 % 251) as u8).collect();
    let uid = {
        let s = server.lock().unwrap();
        let uid = s.os().uid_of("data1", "jdoe").unwrap();
        s.os()
            .write_file(
                "data1",
                "/home/jdoe/results.dat",
                uid,
                FileMode::private(),
                data.clone(),
            )
            .unwrap();
        uid
    };

    // One sans-io server session task per dial, run inside the client's
    // blocking reads; the session mutex serializes machine construction,
    // and tears propagate symmetrically (a torn write resets the peer),
    // so the shared crash plan draws stay deterministic. The scheduler
    // is drained before reporting.
    let task_net = Network::new();
    let mut sched = Scheduler::new(&task_net);
    let drop_rate = if opts.partition_all { 1.0 } else { 0.10 };
    let mk_dial = |label: u64| {
        let task = SessionTask {
            server: Arc::clone(&server),
            dialect: Dialect::Resumable,
            now: 100,
            plan: plan.clone(),
        };
        let mut sched = sched.clone();
        let net = task_net.clone();
        let mut n = 0u64;
        move |_attempt: u32| {
            n += 1;
            let stream_seed = (seed ^ 0xF165)
                .wrapping_add(label.wrapping_mul(1_000_003))
                .wrapping_add(n);
            let (a, b, _) = StreamPair::lossy(stream_seed, drop_rate);
            let mailbox = format!("fig5-{label}-{n}");
            task.spawn(&mut sched, &net, &mailbox, b, &stream_seed.to_be_bytes());
            Ok::<SimStream, gridsec_tls::TlsError>(a)
        }
    };
    let config = TlsConfig::new(jane, trust, 100);
    let mut client_rng = ChaChaRng::from_seed_bytes(b"chaos fig5 client");
    let finish = |r: Rig, completed: bool, lines: Vec<String>, stats: FaultStats| {
        assert!(r.audit.verify().is_ok(), "fig5: audit hash chain verifies");
        let mut lines = lines;
        lines.extend(plan.transcript().into_iter().map(|l| format!("fig5 {l}")));
        ScenarioReport {
            lines,
            stats,
            trace: format!("{}{}", r.tracer.dump(), r.tracer.metrics().render()),
            metrics: r.tracer.metrics(),
            audit_records: r.audit.len(),
            completed,
            crashes: plan.crashes(),
            restarts: plan.restarts(),
        }
    };

    if opts.partition_all {
        let res = resumable_get(
            &config,
            &mut client_rng,
            policy(),
            mk_dial(1),
            "/home/jdoe/results.dat",
            3,
        );
        assert!(res.is_err(), "total loss must exhaust the resume budget");
        sched.run();
        let stats = FaultStats {
            blocked: 1,
            ..FaultStats::default()
        };
        return finish(r, false, vec!["fig5 xfer blocked".to_string()], stats);
    }

    let got = resumable_get(
        &config,
        &mut client_rng,
        policy(),
        mk_dial(1),
        "/home/jdoe/results.dat",
        64,
    )
    .expect("figure 5 GET must complete under lossy streams + crashes");
    assert_eq!(got.bytes, data, "GET bytes hash-equal");

    let put = resumable_put(
        &config,
        &mut client_rng,
        policy(),
        mk_dial(2),
        "/home/jdoe/upload.dat",
        &data,
        64,
    )
    .expect("figure 5 PUT must complete under lossy streams + crashes");
    sched.run();

    {
        let s = server.lock().unwrap();
        let stored = s
            .os()
            .read_file("data1", "/home/jdoe/upload.dat", uid)
            .unwrap();
        assert_eq!(stored, data, "PUT bytes hash-equal, none lost or doubled");
        assert_eq!(
            s.os()
                .file_len("data1", "/home/jdoe/upload.dat.part")
                .unwrap(),
            None,
            "staging file promoted and removed"
        );
        assert!(s.transfers >= 2, "both directions completed");
    }
    let digest: String = sha256(&data).iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(got.sha256, digest);
    assert_eq!(put.sha256, digest);

    let tears = (got.resumes + put.resumes) as u64;
    let sessions = (got.sessions + put.sessions) as u64;
    let lines = vec![
        format!(
            "fig5 xfer get bytes={} sessions={} resumes={} sha={}",
            got.bytes.len(),
            got.sessions,
            got.resumes,
            got.sha256
        ),
        format!(
            "fig5 xfer put bytes={} sessions={} resumes={} sha={}",
            data.len(),
            put.sessions,
            put.resumes,
            put.sha256
        ),
    ];
    let stats = FaultStats {
        sent: sessions,
        delivered: sessions - tears,
        dropped: tears,
        ..FaultStats::default()
    };
    finish(r, true, lines, stats)
}

/// Figure 5, striped variant: the same GridFTP data movement split
/// across adaptively many parallel lossy channels, with the AIMD
/// congestion controller reacting to per-stripe loss stats and a
/// shared token bucket capping aggregate bandwidth. A GET and a PUT of
/// an 8 KiB payload run under 10% seeded loss; `xfer.stripe.get.chunk`
/// / `xfer.stripe.put.chunk` / `xfer.stripe.merge` are live kill
/// points for armed mid-stripe kills. The controller's decision log is
/// embedded in the transcript, so the two-run CI gate byte-compares
/// the adaptation sequence along with everything else. Not part of
/// [`run_all`] — it has its own verify.sh gate so the legacy
/// transcript drift gates stay untouched.
pub fn figure5_striped(seed: u64, opts: &ChaosOpts) -> ScenarioReport {
    use gridsec_gridftp::stripe::{striped_get, striped_put, StripeOpts};

    let clock = SimClock::starting_at(100);
    let plan = crash_plan(opts, seed, 0xC4A6, 0.10, 2);
    let r = rig(&clock, opts);
    let _guard = trace::install(&r.tracer);
    let _dump = trace::dump_on_panic(&r.tracer, "figure5_striped");

    let mut rng = ChaChaRng::from_seed_bytes(b"chaos fig5s");
    let ca = CertificateAuthority::create_root(&mut rng, dn("/O=G/CN=CA"), 512, 0, 1_000_000);
    let jane = ca.issue_identity(&mut rng, dn("/O=G/CN=Jane"), 512, 0, 500_000);
    let host_cred = ca.issue_host_identity(
        &mut rng,
        dn("/O=G/CN=host data1"),
        vec!["data1".into()],
        512,
        0,
        500_000,
    );
    let mut trust = TrustStore::new();
    trust.add_root(ca.certificate().clone());
    let gridmap = gridsec_authz::gridmap::GridMapFile::parse("\"/O=G/CN=Jane\" jdoe\n").unwrap();
    let server = Arc::new(Mutex::new(
        GridFtpServer::new(SimOs::new(), "data1", host_cred, trust.clone(), gridmap).unwrap(),
    ));

    // Deterministic 8 KiB payload, seeded into the mapped account.
    let data: Vec<u8> = (0..8192usize).map(|i| (i * 31 % 251) as u8).collect();
    let uid = {
        let s = server.lock().unwrap();
        let uid = s.os().uid_of("data1", "jdoe").unwrap();
        s.os()
            .write_file(
                "data1",
                "/home/jdoe/striped.dat",
                uid,
                FileMode::private(),
                data.clone(),
            )
            .unwrap();
        uid
    };

    let task_net = Network::new();
    let mut sched = Scheduler::new(&task_net);
    let drop_rate = if opts.partition_all { 1.0 } else { 0.10 };
    // Dialer per direction: one sans-io striped server task per dial.
    // The client engine drives one stripe exchange at a time, so
    // crash-plan and loss draws stay causally ordered (deterministic).
    let mk_dial = |label: u64| {
        let task = SessionTask {
            server: Arc::clone(&server),
            dialect: Dialect::Striped,
            now: 100,
            plan: plan.clone(),
        };
        let mut sched = sched.clone();
        let net = task_net.clone();
        let mut n = 0u64;
        move |slot: usize, _attempt: u32| {
            n += 1;
            let stream_seed = (seed ^ 0xF165_0513)
                .wrapping_add(label.wrapping_mul(1_000_003))
                .wrapping_add((slot as u64) << 40)
                .wrapping_add(n);
            let (a, b, stats) = StreamPair::lossy(stream_seed, drop_rate);
            let mailbox = format!("fig5s-{label}-{slot}-{n}");
            task.spawn(&mut sched, &net, &mailbox, b, &stream_seed.to_be_bytes());
            Ok::<_, gridsec_tls::TlsError>((a, stats))
        }
    };
    let config = TlsConfig::new(jane, trust, 100);
    let mut client_rng = ChaChaRng::from_seed_bytes(b"chaos fig5s client");
    let finish = |r: Rig, completed: bool, lines: Vec<String>, stats: FaultStats| {
        assert!(r.audit.verify().is_ok(), "fig5s: audit hash chain verifies");
        let mut lines = lines;
        lines.extend(plan.transcript().into_iter().map(|l| format!("fig5s {l}")));
        ScenarioReport {
            lines,
            stats,
            trace: format!("{}{}", r.tracer.dump(), r.tracer.metrics().render()),
            metrics: r.tracer.metrics(),
            audit_records: r.audit.len(),
            completed,
            crashes: plan.crashes(),
            restarts: plan.restarts(),
        }
    };
    let opts_for = |dir_seed: u64| StripeOpts {
        seed: seed ^ dir_seed,
        bucket: Some(gridsec_util::throttle::TokenBucket::new(512, 2048)),
        max_sessions: 128,
        ..StripeOpts::default()
    };

    if opts.partition_all {
        let res = striped_get(
            &config,
            &mut client_rng,
            policy(),
            mk_dial(1),
            "/home/jdoe/striped.dat",
            StripeOpts {
                max_sessions: 3,
                ..opts_for(1)
            },
        );
        assert!(res.is_err(), "total loss must exhaust the stripe budget");
        sched.run();
        let stats = FaultStats {
            blocked: 1,
            ..FaultStats::default()
        };
        return finish(r, false, vec!["fig5s xfer blocked".to_string()], stats);
    }

    let got = striped_get(
        &config,
        &mut client_rng,
        policy(),
        mk_dial(1),
        "/home/jdoe/striped.dat",
        opts_for(1),
    )
    .expect("striped GET must complete under lossy streams + crashes");
    assert_eq!(got.bytes, data, "striped GET bytes hash-equal");

    let put = striped_put(
        &config,
        &mut client_rng,
        policy(),
        mk_dial(2),
        "/home/jdoe/striped-up.dat",
        &data,
        opts_for(2),
    )
    .expect("striped PUT must complete under lossy streams + crashes");
    sched.run();

    {
        let s = server.lock().unwrap();
        let stored = s
            .os()
            .read_file("data1", "/home/jdoe/striped-up.dat", uid)
            .unwrap();
        assert_eq!(stored, data, "striped PUT bytes hash-equal");
        // Every per-range staging file was merged and removed.
        let span = 4 * gridsec_gridftp::resume::CHUNK;
        let mut pos = 0;
        while pos < data.len() {
            let end = (pos + span).min(data.len());
            let part = gridsec_gridftp::stripe::part_path("/home/jdoe/striped-up.dat", pos, end);
            assert_eq!(s.os().file_len("data1", &part).unwrap(), None, "{part}");
            pos = end;
        }
        assert!(s.transfers >= 2, "both directions completed");
    }
    let digest: String = sha256(&data).iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(got.sha256, digest);
    assert_eq!(put.sha256, digest);

    let tears = u64::from(got.tears + put.tears);
    let sessions = u64::from(got.sessions + put.sessions);
    let mut lines = vec![
        format!(
            "fig5s xfer get bytes={} sessions={} tears={} stripes={} ticks={} goodput={} sha={}",
            got.bytes.len(),
            got.sessions,
            got.tears,
            got.peak_stripes,
            got.ticks,
            got.goodput_bpkt,
            got.sha256
        ),
        format!(
            "fig5s xfer put bytes={} sessions={} tears={} stripes={} ticks={} goodput={} sha={}",
            data.len(),
            put.sessions,
            put.tears,
            put.peak_stripes,
            put.ticks,
            put.goodput_bpkt,
            put.sha256
        ),
    ];
    lines.extend(got.decisions.iter().map(|d| format!("fig5s aimd get {d}")));
    lines.extend(put.decisions.iter().map(|d| format!("fig5s aimd put {d}")));
    let stats = FaultStats {
        sent: sessions,
        delivered: sessions - tears.min(sessions),
        dropped: tears,
        ..FaultStats::default()
    };
    finish(r, true, lines, stats)
}

/// The end-to-end multi-domain world (`tests/end_to_end.rs`) wired
/// through the fault layer instead of in-process calls: two domains
/// form a VO, then a siteA user submits a job to siteB's GRAM resource
/// over the lossy WAN with the MMJFS under a crash plan. Completion
/// proves the trust overlay *and* the recovery machinery compose.
pub fn cross_domain_vo(seed: u64, opts: &ChaosOpts) -> ScenarioReport {
    let net = Network::new();
    let clock = SimClock::starting_at(1_000);
    net.enable_faults(clock.clone(), seed ^ 0xE2E0, FaultProfile::lossy_wan());
    let plan = crash_plan(opts, seed, 0xC4AE, 0.05, 2);
    let r = rig(&clock, opts);
    let _guard = trace::install(&r.tracer);
    let _dump = trace::dump_on_panic(&r.tracer, "cross_domain_vo");

    let mut rng = ChaChaRng::from_seed_bytes(b"e2e vo gram");
    let mut domains = vec![
        create_domain(&mut rng, "siteA", 2, 512, 10_000_000),
        create_domain(&mut rng, "siteB", 2, 512, 10_000_000),
    ];
    let _vo = form_vo(&mut rng, "compute-vo", &mut domains, 512, 10_000_000);

    let host_cred = domains[1].ca.issue_host_identity(
        &mut rng,
        dn("/O=siteB/CN=host cluster1"),
        vec!["cluster1.siteB".to_string()],
        512,
        0,
        10_000_000,
    );
    let gridmap =
        gridsec_authz::gridmap::GridMapFile::parse("\"/O=siteA/CN=user0\" grid_a0\n").unwrap();
    let os = SimOs::new();
    let resource = GramResource::install(
        os.clone(),
        clock.clone(),
        "cluster1",
        domains[1].resource_trust.clone(),
        host_cred,
        &gridmap,
        GramConfig::default(),
    )
    .unwrap();
    let shared = Rc::new(RefCell::new(resource));
    let journal = Journal::open(os.clone(), "cluster1", "/var/gram/journal.wal", ROOT_UID);
    let durable = Rc::new(RefCell::new(DurableGram::new(
        shared.clone(),
        b"e2e mjs",
        plan.clone(),
        journal.clone(),
    )));
    let mut sched = Scheduler::new(&net);
    let ep = net.register("cluster1");
    spawn_crashable(&mut sched, ep, "gram", &plan, journal, true, &durable);
    let mut rpc = RpcClient::new(net.register("user0"), "cluster1", policy());

    // The siteA user signs on; trusting siteB's CA for the GRIM check
    // is their own unilateral act.
    let user = domains[0].users[0].clone();
    let session =
        sso::grid_proxy_init(&mut rng, &user, sso::ProxyOptions::default(), clock.now()).unwrap();
    let mut requestor_trust = domains[0].resource_trust.clone();
    requestor_trust.add_root(domains[1].ca.certificate().clone());
    let mut requestor = Requestor::new(session.credential().clone(), requestor_trust, b"a0");

    if opts.partition_all {
        net.partition("user0", "cluster1");
        let err = submit_job_resilient(
            &mut requestor,
            &mut rpc,
            &JobDescription::new("/bin/hpc-sim"),
            &dn("/O=siteB/CN=host cluster1"),
            clock.now(),
            1,
        );
        assert!(err.is_err(), "partition must fail submission");
        return report("e2e", &net, r, false, &plan);
    }

    let job = submit_job_resilient(
        &mut requestor,
        &mut rpc,
        &JobDescription::new("/bin/hpc-sim"),
        &dn("/O=siteB/CN=host cluster1"),
        clock.now(),
        6,
    )
    .expect("cross-domain submission under lossy WAN + crashes");
    assert_eq!(job.account, "grid_a0");
    assert_eq!(
        job_state_remote(&mut rpc, &job.handle).expect("state query"),
        JobState::Active
    );
    // No duplicate side effects across any crash schedule.
    assert_eq!(shared.borrow().stats.cold_starts, 1);
    let jobs = os
        .processes("cluster1")
        .unwrap()
        .into_iter()
        .filter(|p| p.alive && p.name.starts_with("job:"))
        .count();
    assert_eq!(jobs, 1, "exactly one job process spawned");
    // Least privilege held throughout the crash schedule.
    assert!(os.privileged_network_facing("cluster1").unwrap().is_empty());

    report("e2e", &net, r, true, &plan)
}

/// The combined outcome of running all five figures from one seed.
pub struct ChaosRun {
    /// Combined tagged network transcript plus a totals line.
    pub transcript: String,
    /// Summed fault counters.
    pub stats: FaultStats,
    /// Concatenated per-figure trace dumps (spans, events, metrics),
    /// byte-identical per seed.
    pub trace: String,
    /// Per-figure metrics, name-prefixed (`fig1.` … `fig5.`) and merged.
    pub metrics: MetricsSnapshot,
    /// Total audit records mirrored across all figures.
    pub audit_records: usize,
    /// Total service crashes injected across all figures.
    pub crashes: u64,
    /// Total service restarts (always equals `crashes` once a run
    /// completes — every killed service recovered).
    pub restarts: u64,
}

/// Run all five figures from one master seed. Honors
/// `GRIDSEC_FLIGHT_DUMP` (a path prefix; each figure appends its tag)
/// unless `opts.flight_path` is already set.
pub fn run_all(seed: u64, opts: &ChaosOpts) -> ChaosRun {
    let mut transcript = format!("chaos transcript seed=0x{seed:016x}\n");
    let mut trace_out = String::new();
    let mut stats = FaultStats::default();
    let mut metrics = MetricsSnapshot::default();
    let mut audit_records = 0usize;
    let mut crashes = 0u64;
    let mut restarts = 0u64;
    let flight_prefix = std::env::var("GRIDSEC_FLIGHT_DUMP").ok();
    type Figure = fn(u64, &ChaosOpts) -> ScenarioReport;
    let figures: [(&str, Figure); 5] = [
        ("fig1", figure1_gss),
        ("fig2", figure2_cas),
        ("fig3", figure3_ogsa),
        ("fig4", figure4_gram),
        ("fig5", figure5_xfer),
    ];
    for (tag, run) in figures {
        let mut o = opts.clone();
        if o.flight_path.is_none() {
            o.flight_path = flight_prefix.as_ref().map(|p| format!("{p}.{tag}"));
        }
        let rep = run(seed, &o);
        for line in &rep.lines {
            transcript.push_str(line);
            transcript.push('\n');
        }
        trace_out.push_str(&format!("=== {tag} trace ===\n"));
        trace_out.push_str(&rep.trace);
        stats.sent += rep.stats.sent;
        stats.delivered += rep.stats.delivered;
        stats.dropped += rep.stats.dropped;
        stats.duplicated += rep.stats.duplicated;
        stats.blocked += rep.stats.blocked;
        metrics.merge(&rep.metrics.prefixed(tag));
        audit_records += rep.audit_records;
        crashes += rep.crashes;
        restarts += rep.restarts;
    }
    transcript.push_str(&format!(
        "totals sent={} delivered={} dropped={} duplicated={} blocked={} crashes={} restarts={}\n",
        stats.sent,
        stats.delivered,
        stats.dropped,
        stats.duplicated,
        stats.blocked,
        crashes,
        restarts
    ));
    ChaosRun {
        transcript,
        stats,
        trace: trace_out,
        metrics,
        audit_records,
        crashes,
        restarts,
    }
}
