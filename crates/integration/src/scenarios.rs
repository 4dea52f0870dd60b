//! The paper-figure chaos scenarios as reusable library functions.
//!
//! Each scenario starts its world from one chaos `Rig`: a fresh
//! [`Network`] with the scenario's fault profile seeded from the master
//! seed, a [`Tracer`] whose clock is the scenario's `SimClock` (so every
//! span timestamp is simulated time, fully deterministic per seed), a
//! hash-chained [`AuditLog`] as the tracer's event sink, and the
//! scheduler that runs the flow through the retry/RPC stack. The
//! returned [`ScenarioReport`] carries the network transcript, the trace
//! dump, and the metrics snapshot — all three byte-identical functions
//! of the seed.
//!
//! The chaos test suite (`tests/chaos.rs`) asserts on these; the bench
//! crate's `flow_metrics` bin replays them to emit `BENCH_flows.json`
//! for `regen_experiments`.

use std::cell::RefCell;
use std::rc::Rc;

use gridsec_authz::cas::ResourceGate;
use gridsec_authz::durable::DurableCas;
use gridsec_authz::gridmap::GridMapFile;
use gridsec_authz::net::fetch_assertion;
use gridsec_authz::policy::{CombiningAlg, Effect, PolicySet, Rule, SubjectMatch};
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
    establish_initiator_cached, establish_initiator_resilient, AcceptorService,
};
use gridsec_ogsa::client::{OgsaClient, StaticCredential};
use gridsec_ogsa::hosting::HostingEnvironment;
use gridsec_ogsa::service::{GridService, RequestContext};
use gridsec_ogsa::OgsaError;
use gridsec_pki::ca::CertificateAuthority;
use gridsec_pki::credential::Credential;
use gridsec_pki::proxy::issue_proxy;
use gridsec_pki::store::TrustStore;
use gridsec_pki::validate::validate_chain;
use gridsec_services::audit::AuditLog;
use gridsec_testbed::clock::SimClock;
use gridsec_testbed::faults::{CrashPlan, CrashRecover, CrashableServer, Journal};
use gridsec_testbed::net::{FaultProfile, FaultStats, Network};
use gridsec_testbed::os::{FileMode, SimOs, Uid, ROOT_UID};
use gridsec_testbed::rpc::RpcClient;
use gridsec_testbed::sched::Scheduler;
use gridsec_tls::handshake::TlsConfig;
use gridsec_tls::session::{ClientSessionCache, DEFAULT_SESSION_CAPACITY};
use gridsec_util::retry::RetryPolicy;
use gridsec_util::trace::{self, InstallGuard, MetricsSnapshot, PanicDumpGuard, Tracer};
use gridsec_wsse::policy::{PolicyAlternative, Protection, SecurityPolicy};
use gridsec_xml::Element;

use crate::{basic_world, dn};

pub mod crypto_storm;
pub mod expiry_storm;
pub mod portal;
mod storm;
pub mod vo_storm;

/// Options a chaos harness can vary per run.
#[derive(Clone, Debug, Default)]
pub struct ChaosOpts {
    /// Partition every client/server link before the flow runs, forcing
    /// retry-budget exhaustion (the flight recorder's trigger).
    pub partition_all: bool,
    /// Write flight-recorder dumps here (the tracer's flight path);
    /// [`run_all`] appends each figure's tag (`.fig1` … `.fig5`).
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
    /// Process kills delivered by the figure's crash plans.
    pub crashes: u64,
    /// Service restarts (journal recoveries) completed.
    pub restarts: u64,
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

/// The figure-5 network: a fraction `drop` of segments lost, nothing
/// delayed, duplicated or reordered.
fn loss_only(drop: f64) -> FaultProfile {
    FaultProfile {
        drop,
        ..FaultProfile::default()
    }
}

/// Where every chaos scenario's world starts and ends: the network
/// under the scenario's fault profile (transcript recording on), its
/// clock, the scheduler bound to it, and a tracer on that clock —
/// installed while the rig lives, with the options' flight path and a
/// flight dump on panic — whose events mirror into a hash-chained
/// [`AuditLog`]. [`Rig::report`] ends it. The storms' rig is another
/// type: a storm records no transcript, keeps no audit log and finishes
/// with counters, not a report.
struct Rig<'o> {
    tag: &'static str,
    seed: u64,
    opts: &'o ChaosOpts,
    net: Network,
    clock: SimClock,
    sched: Scheduler,
    tracer: Tracer,
    audit: AuditLog,
    _installed: (InstallGuard, PanicDumpGuard),
}

impl<'o> Rig<'o> {
    /// The world of scenario `tag`: faults drawn from `seed ^ salt`
    /// under `profile`, the clock starting at `start`.
    fn new(
        tag: &'static str,
        seed: u64,
        salt: u64,
        profile: FaultProfile,
        start: u64,
        opts: &'o ChaosOpts,
    ) -> Self {
        let net = Network::new();
        let clock = SimClock::starting_at(start);
        net.enable_faults(clock.clone(), seed ^ salt, profile);
        let sched = Scheduler::new(&net);
        let tracer = Tracer::new();
        let c = clock.clone();
        tracer.set_clock(move || c.now());
        if let Some(path) = &opts.flight_path {
            tracer.set_flight_path(path.clone());
        }
        let audit = AuditLog::new();
        audit.attach(&tracer);
        let installed = (trace::install(&tracer), trace::dump_on_panic(&tracer, tag));
        Rig {
            tag,
            seed,
            opts,
            net,
            clock,
            sched,
            tracer,
            audit,
            _installed: installed,
        }
    }

    /// A process's crash plan: seeded when `opts.crashes` (salted so
    /// each process draws an independent schedule, killing with
    /// probability `p` up to `max` times), manual when only armed
    /// points were requested, disabled otherwise. Armed points apply in
    /// every mode.
    fn plan(&self, salt: u64, p: f64, max: u64) -> CrashPlan {
        let plan = if self.opts.crashes {
            CrashPlan::seeded(self.seed ^ salt, p, max, 3)
        } else if !self.opts.armed_crashes.is_empty() {
            CrashPlan::manual(3)
        } else {
            CrashPlan::disabled()
        };
        for (point, nth) in &self.opts.armed_crashes {
            plan.arm(point, *nth);
        }
        plan
    }

    /// Host `app` at `endpoint` under `plan`, named `name` in the
    /// plan's transcript.
    fn serve<A: CrashRecover + 'static>(
        &mut self,
        endpoint: &str,
        name: &str,
        plan: &CrashPlan,
        app: &Rc<RefCell<A>>,
    ) {
        let ep = self.net.register(endpoint);
        CrashableServer::spawn(&mut self.sched, ep, name, plan, app);
    }

    /// An RPC client at `endpoint` calling `server` under [`policy`].
    fn client(&self, endpoint: &str, server: &str) -> RpcClient {
        RpcClient::new(self.net.register(endpoint), server, policy())
    }

    /// The scenario's report; `plans` are the crash plans of every
    /// process it runs, whose transcripts and counts it carries.
    fn report(self, completed: bool, plans: &[&CrashPlan]) -> ScenarioReport {
        let tag = self.tag;
        assert!(
            self.audit.verify().is_ok(),
            "{tag}: audit hash chain must verify"
        );
        let mut lines: Vec<String> = self
            .net
            .transcript()
            .into_iter()
            .map(|l| format!("{tag} {l}"))
            .collect();
        for plan in plans {
            lines.extend(plan.transcript().into_iter().map(|l| format!("{tag} {l}")));
        }
        ScenarioReport {
            lines,
            stats: self.net.fault_stats().expect("faults were enabled"),
            trace: format!("{}{}", self.tracer.dump(), self.tracer.metrics().render()),
            metrics: self.tracer.metrics(),
            audit_records: self.audit.len(),
            completed,
            crashes: plans.iter().map(|plan| plan.crashes()).sum(),
            restarts: plans.iter().map(|plan| plan.restarts()).sum(),
        }
    }
}

/// The world the GRAM, GridFTP and portal scenarios share: a CA, Jane's
/// identity, the credential of the host `host`, a trust store holding
/// the CA and a grid-map of Jane to `jdoe` — drawn in that order.
struct JaneAt {
    /// The world's RNG, past the three credentials.
    rng: ChaChaRng,
    trust: TrustStore,
    jane: Credential,
    host: Credential,
    gridmap: GridMapFile,
}

/// Draw a [`JaneAt`] world from `seed` for the host `host`.
fn jane_at(seed: &[u8], host: &str) -> JaneAt {
    let mut rng = ChaChaRng::from_seed_bytes(seed);
    let ca = CertificateAuthority::create_root(&mut rng, dn("/O=G/CN=CA"), 512, 0, 1_000_000);
    let jane = ca.issue_identity(&mut rng, dn("/O=G/CN=Jane"), 512, 0, 500_000);
    let host = ca.issue_host_identity(
        &mut rng,
        dn(&format!("/O=G/CN=host {host}")),
        vec![host.into()],
        512,
        0,
        500_000,
    );
    let mut trust = TrustStore::new();
    trust.add_root(ca.certificate().clone());
    JaneAt {
        rng,
        trust,
        jane,
        host,
        gridmap: GridMapFile::parse("\"/O=G/CN=Jane\" jdoe\n").unwrap(),
    }
}

impl JaneAt {
    /// The GRAM resource of `compute1` installed on `os`, its MMJFS job
    /// table journaled there, served at `mjs-host` under `plan`; the
    /// MJS layer's RNG is seeded by `mjs_seed`. A kill at
    /// `gram.submit.*` / `gram.start.*` / `gram.session.exec` loses the
    /// in-memory MJS layer, and recovery rebuilds it from the journal
    /// against the surviving LMJFS processes.
    fn serve_gram(
        &self,
        rig: &mut Rig<'_>,
        os: &SimOs,
        mjs_seed: &[u8],
        plan: &CrashPlan,
    ) -> Rc<RefCell<GramResource>> {
        let resource = GramResource::install(
            os.clone(),
            rig.clock.clone(),
            "compute1",
            self.trust.clone(),
            self.host.clone(),
            &self.gridmap,
            GramConfig::default(),
        )
        .unwrap();
        let shared = Rc::new(RefCell::new(resource));
        let journal = Journal::open(os.clone(), "compute1", "/var/gram/journal.wal", ROOT_UID);
        let mjs = DurableGram::new(shared.clone(), mjs_seed, plan.clone(), journal);
        rig.serve("mjs-host", "gram", plan, &Rc::new(RefCell::new(mjs)));
        shared
    }
}

/// No duplicate side effects across any crash schedule: the reply
/// cache, restored from commit records on each restart, absorbed
/// duplicated submissions and starts — one cold start, one job process
/// on `host`.
fn assert_one_job(resource: &RefCell<GramResource>, os: &SimOs, host: &str) {
    assert_eq!(resource.borrow().stats.cold_starts, 1);
    let jobs = os
        .processes(host)
        .unwrap()
        .into_iter()
        .filter(|p| p.alive && p.name.starts_with("job:"))
        .count();
    assert_eq!(jobs, 1, "exactly one job process spawned");
}

/// Figure 5's data host: a GridFTP server on `data1` in a [`JaneAt`]
/// world, `data` seeded into the mapped account, and Jane's client
/// configuration.
struct DataHost {
    server: Rc<RefCell<GridFtpServer>>,
    data: Vec<u8>,
    uid: Uid,
    config: TlsConfig,
}

impl DataHost {
    /// The world drawn from `seed`, with a deterministic `len`-byte
    /// payload at `path` in jdoe's home.
    fn new(seed: &[u8], len: usize, path: &str) -> Self {
        let w = jane_at(seed, "data1");
        let server =
            GridFtpServer::new(SimOs::new(), "data1", w.host, w.trust.clone(), w.gridmap).unwrap();
        let data: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
        let uid = server.os().uid_of("data1", "jdoe").unwrap();
        server
            .os()
            .write_file("data1", path, uid, FileMode::private(), data.clone())
            .unwrap();
        DataHost {
            server: Rc::new(RefCell::new(server)),
            data,
            uid,
            config: TlsConfig::new(w.jane, w.trust, 100),
        }
    }

    /// The server side of one dial: a sans-io session task speaking
    /// `dialect`, killed by `plan`.
    fn task(&self, dialect: Dialect, plan: &CrashPlan) -> SessionTask {
        SessionTask {
            server: Rc::clone(&self.server),
            dialect,
            now: 100,
            plan: plan.clone(),
        }
    }

    /// Both directions landed: the PUT stored the payload at `path`
    /// (none lost or doubled), the server counted both transfers, and
    /// both ends' digests are the payload's.
    fn assert_landed(&self, path: &str, get_sha: &str, put_sha: &str) {
        let s = self.server.borrow();
        let stored = s.os().read_file("data1", path, self.uid).unwrap();
        assert_eq!(
            stored, self.data,
            "PUT bytes hash-equal, none lost or doubled"
        );
        assert!(s.transfers >= 2, "both directions completed");
        let digest: String = sha256(&self.data)
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(get_sha, digest);
        assert_eq!(put_sha, digest);
    }
}

/// Figure 1: GSS-API context establishment (the VO sign-on handshake)
/// across the lossy network, then a secured message both ways. The
/// acceptor runs under a [`CrashableServer`]: security contexts are
/// deliberately *not* journaled — re-establishment through the retry
/// machinery is the recovery path — so a kill at `gss.accept.exec`
/// forces the initiator to restart the handshake from scratch.
pub fn figure1_gss(seed: u64, opts: &ChaosOpts) -> ScenarioReport {
    let mut rig = Rig::new("fig1", seed, 0xF161, FaultProfile::lossy_wan(), 100, opts);
    let plan = rig.plan(0xC4A1, 0.04, 2);

    let mut w = basic_world(b"chaos fig1");
    let initiator_cfg = TlsConfig::new(w.user.clone(), w.trust.clone(), 100);
    let acceptor_cfg = TlsConfig::new(w.service.clone(), w.trust.clone(), 100);

    let service = Rc::new(RefCell::new(AcceptorService::new(
        acceptor_cfg,
        b"chaos fig1 acceptor",
        plan.clone(),
    )));
    rig.serve("service", "gss", &plan, &service);
    let mut rpc = rig.client("user", "service");

    if opts.partition_all {
        rig.net.partition("user", "service");
        let err = establish_initiator_resilient(&mut rpc, initiator_cfg, &mut w.rng, 1);
        assert!(err.is_err(), "partition must fail establishment");
        return rig.report(false, &[&plan]);
    }

    let mut user_ctx = establish_initiator_resilient(&mut rpc, initiator_cfg, &mut w.rng, 6)
        .expect("figure 1 must establish under lossy WAN + crashes");
    let mut service_ctx = service
        .borrow_mut()
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

    rig.report(true, &[&plan])
}

/// Figure 2: CAS-mediated authorization — fetch a signed capability
/// assertion over the lossy network, then present it to a resource
/// gate that intersects VO rights with local policy.
pub(crate) fn figure2_cas(seed: u64, opts: &ChaosOpts) -> ScenarioReport {
    let mut rig = Rig::new("fig2", seed, 0xF162, FaultProfile::lossy_wan(), 100, opts);
    let clock = rig.clock.clone();

    let mut rng = ChaChaRng::from_seed_bytes(b"chaos fig2");
    let ca = CertificateAuthority::create_root(&mut rng, dn("/O=VO/CN=CA"), 512, 0, 1_000_000);
    let cas_cred = ca.issue_identity(&mut rng, dn("/O=VO/CN=CAS"), 512, 0, 500_000);
    let alice = dn("/O=G/CN=Alice");

    // The CAS policy DB and issued-assertion log live in a write-ahead
    // journal on the simulated OS; a kill at `cas.issue.*` throws the
    // in-memory server away and recovery replays the journal.
    let plan = rig.plan(0xC4A2, 0.08, 2);
    let os = SimOs::new();
    os.add_host("cas");
    let journal = Journal::open(os, "cas", "/var/cas/journal.wal", ROOT_UID);
    let durable = Rc::new(RefCell::new(DurableCas::new(
        "physics-vo",
        cas_cred,
        3600,
        clock.clone(),
        plan.clone(),
        journal,
    )));
    durable
        .borrow_mut()
        .enroll(&alice, vec!["group:analysts".into()]);
    durable.borrow_mut().add_rule(
        SubjectMatch::Exact("group:analysts".to_string()),
        "dataset/*",
        "read",
        Effect::Permit,
    );

    rig.serve("cas", "cas", &plan, &durable);
    let mut rpc = rig.client("alice", "cas");

    if opts.partition_all {
        rig.net.partition("alice", "cas");
        assert!(fetch_assertion(&mut rpc, &alice).is_err());
        return rig.report(false, &[&plan]);
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
    // Alice presents the assertion in a restricted proxy, both drawn from
    // their own stream so that no draw above moves.
    let mut proxy_rng = ChaChaRng::from_seed_bytes(b"chaos fig2 proxy");
    let alice_cred = ca.issue_identity(&mut proxy_rng, alice, 512, 0, 500_000);
    let kind = assertion.restriction();
    let proxy = issue_proxy(&mut proxy_rng, &alice_cred, kind, 512, clock.now(), 3600)
        .expect("restricted proxy");
    let mut trust = TrustStore::new();
    trust.add_root(ca.certificate().clone());
    let presented = validate_chain(proxy.chain(), &trust, clock.now()).expect("chain valid");
    gate.permits(&presented, "dataset/run7", "read", clock.now())
        .expect("assertion accepted");
    trace::event(
        "gate.decision",
        "resource=dataset/run7 action=read outcome=permit",
    );

    rig.report(true, &[&plan])
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
pub(crate) fn figure3_ogsa(seed: u64, opts: &ChaosOpts) -> ScenarioReport {
    let mut rig = Rig::new("fig3", seed, 0xF163, FaultProfile::lossy_wan(), 100, opts);

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
        rig.clock.clone(),
        published,
        authz,
    );
    env.registry
        .register_factory("echo", Box::new(|_ctx, _args| Ok(Box::new(EchoService))));
    let env = Rc::new(RefCell::new(env));

    rig.serve("echo-host", "echo-host", &CrashPlan::disabled(), &env);
    let mut client = OgsaClient::new(
        rig.client("user", "echo-host"),
        w.trust.clone(),
        rig.clock.clone(),
        b"chaos fig3 client",
    );
    client.add_source(Box::new(StaticCredential(w.user.clone())));

    if opts.partition_all {
        rig.net.partition("user", "echo-host");
        assert!(client.create_service("echo", Element::new("args")).is_err());
        return rig.report(false, &[]);
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

    rig.report(true, &[])
}

/// Figure 4: the GT3 GRAM chain — signed submission through MMJFS /
/// Setuid Starter / GRIM / LMJFS, then step-7 mutual authentication,
/// GRIM authorization, delegation, and job start, every leg retried
/// over the lossy network. Exactly one LMJFS cold start may happen no
/// matter how many times the submission frame is duplicated.
pub(crate) fn figure4_gram(seed: u64, opts: &ChaosOpts) -> ScenarioReport {
    let mut rig = Rig::new("fig4", seed, 0xF164, FaultProfile::lossy_wan(), 100, opts);

    let w = jane_at(b"chaos fig4", "compute1");
    let os = SimOs::new();
    let plan = rig.plan(0xC4A4, 0.05, 2);
    let shared = w.serve_gram(&mut rig, &os, b"chaos mjs", &plan);
    let mut rpc = rig.client("jane", "mjs-host");

    let mut jane = Requestor::new(w.jane, w.trust, b"chaos jane");
    let (jd, host) = (JobDescription::new("/bin/sim"), dn("/O=G/CN=host compute1"));

    if opts.partition_all {
        rig.net.partition("jane", "mjs-host");
        let err = submit_job_resilient(&mut jane, &mut rpc, &jd, &host, rig.clock.now(), 1);
        assert!(err.is_err(), "partition must fail submission");
        return rig.report(false, &[&plan]);
    }

    let job = submit_job_resilient(&mut jane, &mut rpc, &jd, &host, rig.clock.now(), 6)
        .expect("figure 4 must submit under lossy WAN + crashes");
    assert_eq!(job.account, "jdoe");
    assert_eq!(
        job_state_remote(&mut rpc, &job.handle).expect("state query"),
        JobState::Active
    );
    assert_one_job(&shared, &os, "compute1");

    rig.report(true, &[&plan])
}

/// Figure 5 (the paper's third GT2 service family, §3): resumable
/// GridFTP data movement. A GET and a PUT of the same 4 KiB payload run
/// over connections on a loss-only network (10% of segments dropped,
/// zero latency), where a lost segment tears its connection; the server
/// can additionally be killed at `xfer.get.chunk` / `xfer.put.chunk`
/// mid-transfer. Restart markers (the client buffer for GET, the
/// durable `.part` staging file for PUT) resume every torn session, and
/// both directions finish with SHA-256 digests verified end to end.
/// Under `partition_all` the client host is partitioned from `data1`:
/// the connect budget exhausts and the flight recorder dumps.
pub fn figure5_xfer(seed: u64, opts: &ChaosOpts) -> ScenarioReport {
    let mut rig = Rig::new("fig5", seed, 0xF165, loss_only(0.10), 100, opts);
    let plan = rig.plan(0xC4A5, 0.10, 2);
    let host = DataHost::new(b"chaos fig5", 4096, "/home/jdoe/results.dat");

    // One sans-io server session task per dial, run inside the client's
    // blocking reads; one client exchange is in flight at a time, so the
    // shared crash-plan and fault-layer draws stay deterministic. The
    // scheduler is drained before reporting.
    let mk_dial = |label: u64| {
        let task = host.task(Dialect::Resumable, &plan);
        let mut sched = rig.sched.clone();
        let net = rig.net.clone();
        let mut n = 0u64;
        move |_attempt: u32| {
            n += 1;
            let conn = format!("{label}-{n}");
            let (client, session) = net.connect(&format!("jane:{conn}"), &format!("data1:{conn}"));
            let rng_seed = (seed ^ 0xF165)
                .wrapping_add(label.wrapping_mul(1_000_003))
                .wrapping_add(n);
            task.spawn(&mut sched, session, &rng_seed.to_be_bytes());
            Ok::<_, gridsec_tls::TlsError>(client)
        }
    };
    let config = &host.config;
    let mut client_rng = ChaChaRng::from_seed_bytes(b"chaos fig5 client");

    if opts.partition_all {
        rig.net.partition("jane", "data1");
        let res = resumable_get(
            config,
            &mut client_rng,
            policy(),
            mk_dial(1),
            "/home/jdoe/results.dat",
            3,
        );
        assert!(res.is_err(), "a partition must exhaust the resume budget");
        rig.sched.run();
        return rig.report(false, &[&plan]);
    }

    let got = resumable_get(
        config,
        &mut client_rng,
        policy(),
        mk_dial(1),
        "/home/jdoe/results.dat",
        64,
    )
    .expect("figure 5 GET must complete under lossy streams + crashes");
    assert_eq!(got.bytes, host.data, "GET bytes hash-equal");

    let put = resumable_put(
        config,
        &mut client_rng,
        policy(),
        mk_dial(2),
        "/home/jdoe/upload.dat",
        &host.data,
        64,
    )
    .expect("figure 5 PUT must complete under lossy streams + crashes");
    rig.sched.run();

    host.assert_landed("/home/jdoe/upload.dat", &got.sha256, &put.sha256);
    let part = host
        .server
        .borrow()
        .os()
        .file_len("data1", "/home/jdoe/upload.dat.part")
        .unwrap();
    assert_eq!(part, None, "staging file promoted and removed");

    let mut rep = rig.report(true, &[&plan]);
    rep.lines.extend([
        format!(
            "fig5 xfer get bytes={} sessions={} resumes={} sha={}",
            got.bytes.len(),
            got.sessions,
            got.resumes,
            got.sha256
        ),
        format!(
            "fig5 xfer put bytes={} sessions={} resumes={} sha={}",
            host.data.len(),
            put.sessions,
            put.resumes,
            put.sha256
        ),
    ]);
    rep
}

/// Figure 5, striped variant: the same GridFTP data movement split
/// across adaptively many parallel connections, with the AIMD
/// congestion controller reacting to each stripe's observed loss and a
/// shared token bucket capping aggregate bandwidth. A GET and a PUT of
/// an 8 KiB payload run on a loss-only network dropping 10% of
/// segments; under `partition_all` the client host is partitioned from
/// `data1` and the redial budget exhausts. `xfer.stripe.get.chunk`
/// / `xfer.stripe.put.chunk` / `xfer.stripe.merge` are live kill
/// points for armed mid-stripe kills. The controller's decision log is
/// embedded in the transcript, so the two-run CI gate byte-compares
/// the adaptation sequence along with everything else. Not part of
/// [`run_all`] — it has its own verify.sh gate so the legacy
/// transcript drift gates stay untouched.
pub fn figure5_striped(seed: u64, opts: &ChaosOpts) -> ScenarioReport {
    use gridsec_gridftp::stripe::{striped_get, striped_put, StripeOpts};

    let mut rig = Rig::new("fig5s", seed, 0xF165_0513, loss_only(0.10), 100, opts);
    let plan = rig.plan(0xC4A6, 0.10, 2);
    let host = DataHost::new(b"chaos fig5s", 8192, "/home/jdoe/striped.dat");

    // Dialer per direction: one sans-io striped server task per dial.
    // The client engine drives one stripe exchange at a time, so
    // crash-plan and fault-layer draws stay causally ordered
    // (deterministic).
    let mk_dial = |label: u64| {
        let task = host.task(Dialect::Striped, &plan);
        let mut sched = rig.sched.clone();
        let net = rig.net.clone();
        let mut n = 0u64;
        move |slot: usize, _attempt: u32| {
            n += 1;
            let conn = format!("{label}-{slot}-{n}");
            let (client, session) = net.connect(&format!("jane:{conn}"), &format!("data1:{conn}"));
            let rng_seed = (seed ^ 0xF165_0513)
                .wrapping_add(label.wrapping_mul(1_000_003))
                .wrapping_add((slot as u64) << 40)
                .wrapping_add(n);
            task.spawn(&mut sched, session, &rng_seed.to_be_bytes());
            Ok::<_, gridsec_tls::TlsError>(client)
        }
    };
    let config = &host.config;
    let mut client_rng = ChaChaRng::from_seed_bytes(b"chaos fig5s client");
    let opts_for = |dir_seed: u64| StripeOpts {
        seed: seed ^ dir_seed,
        bucket: Some(gridsec_util::throttle::TokenBucket::new(512, 2048)),
        max_sessions: 128,
        ..StripeOpts::default()
    };

    if opts.partition_all {
        rig.net.partition("jane", "data1");
        let res = striped_get(
            config,
            &mut client_rng,
            policy(),
            mk_dial(1),
            "/home/jdoe/striped.dat",
            StripeOpts {
                max_sessions: 3,
                ..opts_for(1)
            },
        );
        assert!(res.is_err(), "a partition must exhaust the stripe budget");
        rig.sched.run();
        return rig.report(false, &[&plan]);
    }

    let got = striped_get(
        config,
        &mut client_rng,
        policy(),
        mk_dial(1),
        "/home/jdoe/striped.dat",
        opts_for(1),
    )
    .expect("striped GET must complete under lossy streams + crashes");
    assert_eq!(got.bytes, host.data, "striped GET bytes hash-equal");

    let put = striped_put(
        config,
        &mut client_rng,
        policy(),
        mk_dial(2),
        "/home/jdoe/striped-up.dat",
        &host.data,
        opts_for(2),
    )
    .expect("striped PUT must complete under lossy streams + crashes");
    rig.sched.run();

    host.assert_landed("/home/jdoe/striped-up.dat", &got.sha256, &put.sha256);
    // Every per-range staging file was merged and removed.
    let span = 4 * gridsec_gridftp::resume::CHUNK;
    let mut pos = 0;
    while pos < host.data.len() {
        let end = (pos + span).min(host.data.len());
        let part = gridsec_gridftp::stripe::part_path("/home/jdoe/striped-up.dat", pos, end);
        let len = host.server.borrow().os().file_len("data1", &part).unwrap();
        assert_eq!(len, None, "{part}");
        pos = end;
    }

    let mut rep = rig.report(true, &[&plan]);
    rep.lines.extend([
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
            host.data.len(),
            put.sessions,
            put.tears,
            put.peak_stripes,
            put.ticks,
            put.goodput_bpkt,
            put.sha256
        ),
    ]);
    rep.lines
        .extend(got.decisions.iter().map(|d| format!("fig5s aimd get {d}")));
    rep.lines
        .extend(put.decisions.iter().map(|d| format!("fig5s aimd put {d}")));
    rep
}

/// The end-to-end multi-domain world (`tests/end_to_end.rs`) wired
/// through the fault layer instead of in-process calls: two domains
/// form a VO, then a siteA user submits a job to siteB's GRAM resource
/// over the lossy WAN with the MMJFS under a crash plan. Completion
/// proves the trust overlay *and* the recovery machinery compose.
pub fn cross_domain_vo(seed: u64, opts: &ChaosOpts) -> ScenarioReport {
    let mut rig = Rig::new("e2e", seed, 0xE2E0, FaultProfile::lossy_wan(), 1_000, opts);
    let plan = rig.plan(0xC4AE, 0.05, 2);
    let clock = rig.clock.clone();

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
    let gridmap = GridMapFile::parse("\"/O=siteA/CN=user0\" grid_a0\n").unwrap();
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
        journal,
    )));
    rig.serve("cluster1", "gram", &plan, &durable);
    let mut rpc = rig.client("user0", "cluster1");

    // The siteA user signs on; trusting siteB's CA for the GRIM check
    // is their own unilateral act.
    let user = domains[0].users[0].clone();
    let session =
        sso::grid_proxy_init(&mut rng, &user, sso::ProxyOptions::default(), clock.now()).unwrap();
    let mut requestor_trust = domains[0].resource_trust.clone();
    requestor_trust.add_root(domains[1].ca.certificate().clone());
    let mut requestor = Requestor::new(session.credential().clone(), requestor_trust, b"a0");
    let jd = JobDescription::new("/bin/hpc-sim");
    let host = dn("/O=siteB/CN=host cluster1");

    if opts.partition_all {
        rig.net.partition("user0", "cluster1");
        let err = submit_job_resilient(&mut requestor, &mut rpc, &jd, &host, clock.now(), 1);
        assert!(err.is_err(), "partition must fail submission");
        return rig.report(false, &[&plan]);
    }

    let job = submit_job_resilient(&mut requestor, &mut rpc, &jd, &host, clock.now(), 6)
        .expect("cross-domain submission under lossy WAN + crashes");
    assert_eq!(job.account, "grid_a0");
    assert_eq!(
        job_state_remote(&mut rpc, &job.handle).expect("state query"),
        JobState::Active
    );
    assert_one_job(&shared, &os, "cluster1");
    // Least privilege held throughout the crash schedule.
    assert!(os.privileged_network_facing("cluster1").unwrap().is_empty());

    rig.report(true, &[&plan])
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

/// Run all five figures from one master seed. A flight path in `opts`
/// is a prefix: each figure dumps to it with its tag appended.
pub fn run_all(seed: u64, opts: &ChaosOpts) -> ChaosRun {
    let mut transcript = format!("chaos transcript seed=0x{seed:016x}\n");
    let mut trace_out = String::new();
    let mut stats = FaultStats::default();
    let mut metrics = MetricsSnapshot::default();
    let mut audit_records = 0usize;
    let mut crashes = 0u64;
    let mut restarts = 0u64;
    type Figure = fn(u64, &ChaosOpts) -> ScenarioReport;
    let figures: [(&str, Figure); 5] = [
        ("fig1", figure1_gss),
        ("fig2", figure2_cas),
        ("fig3", figure3_ogsa),
        ("fig4", figure4_gram),
        ("fig5", figure5_xfer),
    ];
    for (tag, run) in figures {
        let o = ChaosOpts {
            flight_path: opts.flight_path.as_ref().map(|p| format!("{p}.{tag}")),
            ..opts.clone()
        };
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// The kill points DESIGN.md §10's table lists: the backticked
    /// dotted names in its rows (module paths and file names aside).
    fn table_points() -> Vec<&'static str> {
        let design = include_str!("../../../DESIGN.md");
        let (_, section) = design
            .split_once("### Kill points")
            .expect("DESIGN.md §10 has a kill-point table");
        section
            .lines()
            .skip_while(|line| !line.starts_with('|'))
            .take_while(|line| line.starts_with('|'))
            .flat_map(|row| row.split('`').skip(1).step_by(2))
            .filter(|name| name.contains('.') && !name.contains("::") && !name.starts_with('.'))
            .collect()
    }

    /// The scenario that hosts `point`. No scenario hosts the identity
    /// map: its points are swept over `services::idmap_rpc`'s test world.
    fn owner(point: &str) -> Option<fn(u64, &ChaosOpts) -> ScenarioReport> {
        Some(match point.split('.').next() {
            Some("cas") => figure2_cas,
            Some("gram") => figure4_gram,
            Some("gss") => figure1_gss,
            Some("myproxy" | "cred") => portal::portal_recovery,
            Some("xfer") if point.starts_with("xfer.stripe.") => figure5_striped,
            Some("xfer") => figure5_xfer,
            _ => return None,
        })
    }

    /// Every kill point of the table, armed once on its own in the
    /// scenario that hosts it: the flow completes through exactly one
    /// kill and one restart, the transcript names the point, and the
    /// scenario's own exactly-once checks (asserted inside it) hold.
    #[test]
    fn kill_point_sweep_over_every_table_row() {
        let points = table_points();
        assert!(points.len() >= 20, "the table parsed to {points:?}");
        let mut failed = Vec::new();
        for point in points {
            let Some(figure) = owner(point) else {
                assert!(
                    point.starts_with("idmap."),
                    "{point} has no owning scenario"
                );
                continue;
            };
            let opts = ChaosOpts {
                armed_crashes: vec![(point.to_string(), 1)],
                ..ChaosOpts::default()
            };
            let outcome = catch_unwind(AssertUnwindSafe(|| figure(0xC4A05EED, &opts)));
            let verdict = match outcome {
                Err(_) => Err("panicked".to_string()),
                Ok(rep) if !rep.completed => Err("did not complete".to_string()),
                Ok(rep) if (rep.crashes, rep.restarts) != (1, 1) => Err(format!(
                    "{} crashes, {} restarts",
                    rep.crashes, rep.restarts
                )),
                Ok(rep)
                    if !rep
                        .lines
                        .iter()
                        .any(|l| l.ends_with(&format!("point={point}"))) =>
                {
                    Err("the transcript does not name it".to_string())
                }
                Ok(_) => Ok(()),
            };
            if let Err(why) = verdict {
                failed.push(format!("{point}: {why}"));
            }
        }
        assert!(failed.is_empty(), "failing rows: {failed:#?}");
    }
}
