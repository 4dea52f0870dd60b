//! Step 7's delegation over an LMJFS's one key (Figure 4): every job
//! still gets a fresh proxy of its own, each over the key its LMJFS
//! generated on its first delegation — one key per LMJFS, never shared
//! between users, dropped with the session cache on a CRL change — and
//! the MJS keeps a delegated chain only when the authenticated peer
//! issued and signed it.

use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;

use gridsec_authz::gridmap::GridMapFile;
use gridsec_crypto::rng::ChaChaRng;
use gridsec_crypto::rsa::RsaPublicKey;
use gridsec_gram::durable::DurableGram;
use gridsec_gram::remote::{
    submit_job_remote, submit_job_resilient, RemoteGram, OP_DELEG_CHAIN, OP_DELEG_REQ, OP_START,
    OP_TOKEN1, OP_TOKEN3,
};
use gridsec_gram::resource::{GramConfig, GramResource};
use gridsec_gram::types::{JobDescription, JobState};
use gridsec_gram::{GramError, Requestor};
use gridsec_gssapi::context::{EstablishedContext, InitiatorContext};
use gridsec_gssapi::delegation::request_delegation;
use gridsec_pki::ca::CertificateAuthority;
use gridsec_pki::cert::decode_public_key;
use gridsec_pki::credential::Credential;
use gridsec_pki::encoding::{Codec, Decoder, Encoder};
use gridsec_pki::name::DistinguishedName;
use gridsec_pki::proxy::{issue_delegated_proxy, issue_proxy, ProxyType};
use gridsec_pki::store::{CrlStore, TrustStore};
use gridsec_pki::validate::{validate_chain, EffectiveRights};
use gridsec_testbed::clock::SimClock;
use gridsec_testbed::faults::{CrashPlan, CrashableServer, Journal};
use gridsec_testbed::net::{FaultProfile, Network};
use gridsec_testbed::os::{SimOs, ROOT_UID};
use gridsec_testbed::rpc::{RpcClient, RpcServer, ServerTask};
use gridsec_testbed::sched::Scheduler;
use gridsec_tls::handshake::TlsConfig;
use gridsec_util::retry::RetryPolicy;
use gridsec_util::trace::{self, Tracer};

fn dn(s: &str) -> DistinguishedName {
    DistinguishedName::parse(s).unwrap()
}

const HOST: &str = "/O=G/CN=host compute1";
/// `Requestor`'s delegated-proxy lifetime.
const DELEGATION_LIFETIME: u64 = 43_200;

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
    let mut rng = ChaChaRng::from_seed_bytes(b"gram delegation key tests");
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

fn install(w: &World, os: SimOs) -> GramResource {
    let gridmap = GridMapFile::parse("\"/O=G/CN=Jane\" jdoe\n\"/O=G/CN=Carl\" carl\n").unwrap();
    GramResource::install(
        os,
        w.clock.clone(),
        "compute1",
        w.trust.clone(),
        w.host_cred.clone(),
        &gridmap,
        GramConfig::default(),
    )
    .unwrap()
}

fn resource(w: &World) -> GramResource {
    install(w, SimOs::new())
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

/// The delegation keys the LMJFS process of `account` was granted.
fn granted_keys(resource: &GramResource, account: &str) -> Vec<String> {
    let pid = resource.lmjfs_pid(account).unwrap();
    let lmjfs = resource.os().process("compute1", pid).unwrap();
    lmjfs
        .credentials
        .into_iter()
        .filter(|c| c.starts_with("delegation key"))
        .collect()
}

/// The delegated credential of a started job.
fn delegated(resource: &GramResource, handle: &str) -> Credential {
    resource.job_credential(handle).unwrap().unwrap().clone()
}

fn key_of(resource: &GramResource, account: &str) -> RsaPublicKey {
    resource.lmjfs_delegation_key(account).unwrap().clone()
}

#[test]
fn sixteen_jobs_get_sixteen_fresh_proxies_over_one_lmjfs_key() {
    let mut w = world();
    let mut resource = resource(&w);
    let sign_on = issue_proxy(
        &mut w.rng,
        &w.jane,
        ProxyType::Impersonation,
        512,
        100,
        50_000,
    )
    .unwrap();
    let mut jane = Requestor::new(sign_on.clone(), w.trust.clone(), b"jane sign-on");
    let mut handles = Vec::new();
    for n in 0..16 {
        let now = w.clock.advance(1);
        handles.push((
            jane.submit_job(&mut resource, &job(n), now).unwrap().handle,
            now,
        ));
    }
    assert_eq!(resource.stats.delegation_keys, 1);
    let key = key_of(&resource, "jdoe");
    let mut serials = HashSet::new();
    for (handle, now) in &handles {
        let cred = delegated(&resource, handle);
        let proxy = cred.certificate();
        assert_eq!(proxy.public_key(), &key, "over the LMJFS's key");
        assert_eq!(proxy.issuer(), sign_on.subject(), "issued by the sign-on");
        assert_eq!(proxy.tbs.validity.not_before, *now);
        assert_eq!(proxy.tbs.validity.not_after, now + DELEGATION_LIFETIME);
        assert!(serials.insert(proxy.tbs.serial), "a fresh proxy per job");
        let id = validate_chain(cred.chain(), &w.trust, now + 1).unwrap();
        assert_eq!(id.base_identity, dn("/O=G/CN=Jane"));
        assert_eq!(id.rights, EffectiveRights::Full);
        assert_eq!(id.proxy_depth, 2);
        // The job can act with it.
        let sig = cred.sign(b"job output");
        assert!(proxy.public_key().verify_pkcs1_sha256(b"job output", &sig));
    }
    assert_eq!(serials.len(), 16);
    assert_eq!(job_processes(&resource), 16);
    assert_eq!(
        granted_keys(&resource, "jdoe"),
        vec!["delegation key for /O=G/CN=Jane in jdoe"]
    );
}

#[test]
fn two_users_on_one_resource_get_two_keys() {
    let w = world();
    let mut resource = resource(&w);
    let mut jane = Requestor::new(w.jane.clone(), w.trust.clone(), b"jane");
    let mut carl = Requestor::new(w.carl.clone(), w.trust.clone(), b"carl");
    let mut jobs = Vec::new();
    for n in 0..3 {
        jobs.push((
            "jdoe",
            jane.submit_job(&mut resource, &job(n), 100).unwrap(),
        ));
        jobs.push((
            "carl",
            carl.submit_job(&mut resource, &job(n), 100).unwrap(),
        ));
    }
    assert_eq!(resource.stats.delegation_keys, 2);
    let (jdoe_key, carl_key) = (key_of(&resource, "jdoe"), key_of(&resource, "carl"));
    assert_ne!(jdoe_key, carl_key);
    for (account, active) in &jobs {
        let cred = delegated(&resource, &active.handle);
        assert_eq!(cred.certificate().public_key(), &key_of(&resource, account));
    }
    assert_eq!(granted_keys(&resource, "jdoe").len(), 1);
    assert_eq!(
        granted_keys(&resource, "carl"),
        vec!["delegation key for /O=G/CN=Carl in carl"]
    );

    // Regenerated after a CRL change, the keys stay apart from each other
    // and from the ones they replace.
    resource.set_crls(unrelated_crls(&w));
    jane.submit_job(&mut resource, &job(9), 100).unwrap();
    carl.submit_job(&mut resource, &job(9), 100).unwrap();
    let keys = [
        jdoe_key,
        carl_key,
        key_of(&resource, "jdoe"),
        key_of(&resource, "carl"),
    ];
    for (i, a) in keys.iter().enumerate() {
        assert!(keys[i + 1..].iter().all(|b| a != b), "key {i} repeats");
    }
    assert_eq!(resource.stats.delegation_keys, 4);
}

#[test]
fn set_crls_drops_every_key_and_a_revoked_requestor_is_refused() {
    let w = world();
    let mut resource = resource(&w);
    let mut jane = Requestor::new(w.jane.clone(), w.trust.clone(), b"jane");
    let mut carl = Requestor::new(w.carl.clone(), w.trust.clone(), b"carl");
    jane.submit_job(&mut resource, &job(0), 100).unwrap();
    carl.submit_job(&mut resource, &job(1), 100).unwrap();
    let carl_before = key_of(&resource, "carl");
    let request = jane.signed_request(&job(2), 100);
    let pending = resource.submit(&request).unwrap();

    // Jane's EEC is revoked after her job was routed, before step 7.
    let crl =
        w.ca.issue_crl(vec![w.jane.certificate().tbs.serial], 100, 1_000_000);
    let mut crls = CrlStore::new();
    assert!(crls.add(crl, w.ca.certificate()));
    resource.set_crls(crls);
    assert!(resource.lmjfs_delegation_key("jdoe").is_none());
    assert!(resource.lmjfs_delegation_key("carl").is_none());

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
    assert!(resource
        .job_credential(&pending.mjs_handle)
        .unwrap()
        .is_none());
    assert!(
        resource.lmjfs_delegation_key("jdoe").is_none(),
        "no key drawn for a refused requestor"
    );

    // Carl is not revoked: his next job is delegated over a new key.
    let active = carl.submit_job(&mut resource, &job(3), 100).unwrap();
    let carl_after = key_of(&resource, "carl");
    assert_ne!(carl_after, carl_before);
    assert_eq!(
        delegated(&resource, &active.handle)
            .certificate()
            .public_key(),
        &carl_after
    );
    assert_eq!(resource.stats.delegation_keys, 3);
    assert_eq!(granted_keys(&resource, "carl").len(), 1);
    assert_eq!(job_processes(&resource), 3);
}

/// `service` as a task on a scheduler over `net`, plus a client of it.
fn serve(net: &Network, client: &str, mut service: RemoteGram) -> (RpcClient, Scheduler) {
    let mut sched = Scheduler::new(net);
    sched.spawn_mailbox(
        "mjs-host",
        ServerTask::new(
            RpcServer::new(net.register("mjs-host")),
            move |from: &str, body: &[u8]| service.handle(from, body),
        ),
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
fn the_rpc_driver_reuses_the_key_on_a_lossy_wan() {
    const JOBS: usize = 8;
    let w = world();
    let shared = Rc::new(RefCell::new(resource(&w)));
    let net = Network::new();
    net.enable_faults(w.clock.clone(), 0xDE1E, FaultProfile::lossy_wan());
    let (mut rpc, _sched) = serve(&net, "jane", RemoteGram::new(shared.clone(), b"mjs rng"));
    let mut jane = Requestor::new(w.jane.clone(), w.trust.clone(), b"jane lossy");
    let tracer = Tracer::new();
    let _installed = trace::install(&tracer);
    let mut handles = Vec::new();
    for n in 0..JOBS {
        let active =
            submit_job_remote(&mut jane, &mut rpc, &job(n), &dn(HOST), w.clock.now()).unwrap();
        handles.push(active.handle);
    }
    let faults = net.fault_stats().unwrap();
    assert!(faults.dropped > 0 && faults.duplicated > 0, "{faults:?}");
    assert!(rpc.stats().retransmissions > 0);
    // Retransmits were answered from the reply cache: one delegation per
    // job, one key for them all.
    assert_eq!(tracer.metrics().counters["gram.delegations"], JOBS as u64);
    let resource = shared.borrow();
    assert_eq!(resource.stats.delegation_keys, 1);
    let key = key_of(&resource, "jdoe");
    let serials: HashSet<_> = handles
        .iter()
        .map(|h| {
            let cred = delegated(&resource, h);
            assert_eq!(cred.certificate().public_key(), &key);
            cred.certificate().tbs.serial
        })
        .collect();
    assert_eq!(serials.len(), JOBS);
    assert_eq!(job_processes(&resource), JOBS);
}

#[test]
fn the_key_survives_a_crash_of_the_service() {
    // Op 4 is the first job's DELEG-CHAIN: its DELEG-REQ has drawn the
    // LMJFS's key, then the service dies. The LMJFS outlives it, so the
    // retried step 7 and every later job delegate over that key.
    const JOBS: usize = 3;
    let w = world();
    let os = SimOs::new();
    let shared = Rc::new(RefCell::new(install(&w, os.clone())));
    let plan = CrashPlan::manual(3);
    plan.arm("gram.session.exec", 4);
    let journal = Journal::open(os.clone(), "compute1", "/var/gram/journal.wal", ROOT_UID);
    let durable = Rc::new(RefCell::new(DurableGram::new(
        shared.clone(),
        b"durable mjs",
        plan.clone(),
        journal.clone(),
    )));
    let net = Network::new();
    net.enable_faults(w.clock.clone(), 0xDE1F, FaultProfile::default());
    let server = CrashableServer::new(
        net.register("mjs-host"),
        "gram",
        plan.clone(),
        journal,
        true,
    );
    let mut sched = Scheduler::new(&net);
    sched.spawn_mailbox("mjs-host", ServerTask::new(server, durable));
    let mut rpc = RpcClient::new(net.register("jane"), "mjs-host", policy());
    let mut jane = Requestor::new(w.jane.clone(), w.trust.clone(), b"jane durable");
    let mut handles = Vec::new();
    for n in 0..JOBS {
        let active =
            submit_job_resilient(&mut jane, &mut rpc, &job(n), &dn(HOST), w.clock.now(), 8)
                .unwrap();
        handles.push(active.handle);
    }
    assert_eq!(plan.restarts(), 1, "the service was reborn");
    let resource = shared.borrow();
    assert_eq!(resource.stats.delegation_keys, 1);
    let key = key_of(&resource, "jdoe");
    for handle in &handles {
        assert_eq!(resource.job_state(handle).unwrap(), JobState::Active);
        assert_eq!(
            delegated(&resource, handle).certificate().public_key(),
            &key
        );
    }
    assert_eq!(job_processes(&resource), JOBS, "each job started once");
    assert_eq!(granted_keys(&resource, "jdoe").len(), 1);
}

fn frame(op: &str, handle: &str, body: &[u8]) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_str(op).put_str(handle).put_bytes(body);
    e.finish()
}

/// The body of an `ok` reply; `None` for an `err`.
fn ok_body(reply: &[u8]) -> Option<Vec<u8>> {
    let mut d = Decoder::new(reply);
    (d.get_str().unwrap() == "ok").then(|| d.get_bytes().unwrap())
}

/// Step 7's full handshake as `credential` over `service`'s frames;
/// returns the requestor's half.
fn handshake_over(
    service: &mut RemoteGram,
    handle: &str,
    credential: &Credential,
    w: &mut World,
) -> EstablishedContext {
    let config = TlsConfig::new(credential.clone(), w.trust.clone(), w.clock.now());
    let (initiator, token1) = InitiatorContext::new(config, &mut w.rng);
    let token2 = ok_body(&service.handle("jane", &frame(OP_TOKEN1, handle, &token1))).unwrap();
    let (token3, context) = initiator.step(&token2).unwrap();
    ok_body(&service.handle("jane", &frame(OP_TOKEN3, handle, &token3))).unwrap();
    context
}

#[test]
fn a_proxy_over_the_lmjfs_key_signed_by_another_user_starts_no_job() {
    let mut w = world();
    let shared = Rc::new(RefCell::new(resource(&w)));
    let mut jane = Requestor::new(w.jane.clone(), w.trust.clone(), b"jane");
    jane.submit_job(&mut shared.borrow_mut(), &job(0), 100)
        .unwrap();
    let request = jane.signed_request(&job(1), 100);
    let handle = shared.borrow_mut().submit(&request).unwrap().mjs_handle;

    // Jane's own context asks for the LMJFS's key...
    let mut service = RemoteGram::new(shared.clone(), b"mjs rng");
    let jane_cred = w.jane.clone();
    let mut ctx = handshake_over(&mut service, &handle, &jane_cred, &mut w);
    let d1 = request_delegation(&mut ctx);
    let d2 = ok_body(&service.handle("jane", &frame(OP_DELEG_REQ, &handle, &d1))).unwrap();
    let key_bytes = ctx.unwrap(&d2).unwrap();
    let key = decode_public_key(&mut Decoder::new(&key_bytes)).unwrap();
    assert_eq!(&key, shared.borrow().lmjfs_delegation_key("jdoe").unwrap());

    // ...and sends back a proxy over it that Carl, another trusted user,
    // signed, with Jane's chain attached to pass it off as hers.
    let forged = issue_delegated_proxy(
        &mut w.rng,
        &w.carl,
        &key,
        ProxyType::Impersonation,
        100,
        1_000,
    )
    .unwrap();
    let mut enc = Encoder::new();
    forged.encode(&mut enc);
    enc.put_seq(jane_cred.chain(), |e, c| c.encode(e));
    let d3 = ctx.wrap(&enc.finish());
    assert_eq!(
        ok_body(&service.handle("jane", &frame(OP_DELEG_CHAIN, &handle, &d3))),
        None
    );
    let start = ctx.wrap(b"start-job");
    assert_eq!(
        ok_body(&service.handle("jane", &frame(OP_START, &handle, &start))),
        None
    );
    {
        let resource = shared.borrow();
        assert_eq!(resource.job_state(&handle).unwrap(), JobState::Unsubmitted);
        assert!(resource.job_credential(&handle).unwrap().is_none());
        assert_eq!(job_processes(&resource), 1, "only the first job runs");
    }

    // The refusal wedges nothing: Jane's own delegation starts the job.
    jane.connect_and_start(&mut shared.borrow_mut(), &handle, Some("jdoe"), 100)
        .unwrap();
    let resource = shared.borrow();
    let cred = delegated(&resource, &handle);
    assert_eq!(cred.certificate().issuer(), w.jane.subject());
    assert_eq!(cred.certificate().public_key(), &key);
    assert_eq!(resource.stats.delegation_keys, 1);
}
