//! Step 2's memo of verified requestor chains (Figure 4): the Proxy
//! Router walks a sign-on's chain for its first job and takes the
//! verdict from its memo for the rest — while revocation, expiry, the
//! signature, the reference digests and the grid-mapfile still decide
//! every single submit.

use std::cell::RefCell;
use std::rc::Rc;

use gridsec_authz::gridmap::GridMapFile;
use gridsec_crypto::rng::ChaChaRng;
use gridsec_gram::remote::{submit_job_resilient, RemoteGram};
use gridsec_gram::resource::{GramConfig, GramResource, GRIDMAP_PATH};
use gridsec_gram::types::JobDescription;
use gridsec_gram::{GramError, Requestor};
use gridsec_pki::ca::CertificateAuthority;
use gridsec_pki::credential::Credential;
use gridsec_pki::name::DistinguishedName;
use gridsec_pki::proxy::{issue_delegated_proxy, issue_proxy, ProxyType};
use gridsec_pki::store::{CrlStore, TrustStore};
use gridsec_pki::PkiError;
use gridsec_testbed::clock::SimClock;
use gridsec_testbed::net::{FaultProfile, Network};
use gridsec_testbed::os::{FileMode, SimOs, ROOT_UID};
use gridsec_testbed::rpc::{RpcClient, RpcServer, ServerTask};
use gridsec_testbed::sched::Scheduler;
use gridsec_util::retry::RetryPolicy;
use gridsec_wsse::soap::Envelope;
use gridsec_wsse::xmlsig::{encode_chain, SIGNER_MEMO_CAPACITY};
use gridsec_wsse::WsseError;
use gridsec_xml::Element;

fn dn(s: &str) -> DistinguishedName {
    DistinguishedName::parse(s).unwrap()
}

const HOST: &str = "/O=G/CN=host compute1";
const GRIDMAP: &str = "\"/O=G/CN=Jane\" jdoe\n\"/O=G/CN=Carl\" carl\n";

struct World {
    rng: ChaChaRng,
    trust: TrustStore,
    ca: CertificateAuthority,
    jane: Credential,
    carl: Credential,
    host_cred: Credential,
    clock: SimClock,
}

fn world() -> World {
    let mut rng = ChaChaRng::from_seed_bytes(b"gram request memo tests");
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

fn resource(w: &World) -> GramResource {
    GramResource::install(
        SimOs::new(),
        w.clock.clone(),
        "compute1",
        w.trust.clone(),
        w.host_cred.clone(),
        &GridMapFile::parse(GRIDMAP).unwrap(),
        GramConfig::default(),
    )
    .unwrap()
}

/// A sign-on: a fresh proxy of `user`, valid `[100, 100 + lifetime]`,
/// and a requestor holding it.
fn sign_on(
    w: &mut World,
    user: &Credential,
    lifetime: u64,
    seed: &[u8],
) -> (Credential, Requestor) {
    let proxy = issue_proxy(
        &mut w.rng,
        user,
        ProxyType::Impersonation,
        512,
        100,
        lifetime,
    )
    .unwrap();
    let requestor = Requestor::new(proxy.clone(), w.trust.clone(), seed);
    (proxy, requestor)
}

fn job(n: usize) -> JobDescription {
    JobDescription::new(&format!("/bin/sim{n}"))
}

/// (chain walks, memo hits, memoised chains) of step 2.
fn memo(resource: &GramResource) -> (u64, u64, usize) {
    let m = resource.signer_memo();
    (m.misses(), m.hits(), m.len())
}

/// The refusal step 2 reports for `err`.
fn rejected(err: impl Into<WsseError>) -> String {
    err.into().to_string()
}

#[test]
fn a_sign_on_walks_its_chain_once_and_two_users_twice() {
    let mut w = world();
    let mut resource = resource(&w);
    let (jane, carl) = (w.jane.clone(), w.carl.clone());
    let (_, mut jane) = sign_on(&mut w, &jane, 50_000, b"jane");
    for n in 0..16 {
        jane.submit_job(&mut resource, &job(n), 100).unwrap();
    }
    assert_eq!(memo(&resource), (1, 15, 1));
    let (_, mut carl) = sign_on(&mut w, &carl, 50_000, b"carl");
    for n in 0..16 {
        carl.submit_job(&mut resource, &job(n), 100).unwrap();
    }
    assert_eq!(memo(&resource), (2, 30, 2));
    assert_eq!(resource.stats.jobs_submitted, 32);
    assert_eq!(resource.stats.denied, 0);
}

#[test]
fn set_crls_revoking_the_requestor_denies_the_next_submit() {
    let mut w = world();
    let mut resource = resource(&w);
    let jane_eec = w.jane.clone();
    let (_, mut jane) = sign_on(&mut w, &jane_eec, 50_000, b"jane");
    jane.submit_job(&mut resource, &job(0), 100).unwrap();
    jane.submit_job(&mut resource, &job(1), 100).unwrap();
    assert_eq!(memo(&resource), (1, 1, 1));

    // One CRL revoking somebody else, then — swapped in with the memo
    // warm — one CRL revoking Jane: two stores of one CRL each.
    let crl_of = |serial| {
        let mut crls = CrlStore::new();
        assert!(crls.add(
            w.ca.issue_crl(vec![serial], 100, 1_000_000),
            w.ca.certificate()
        ));
        crls
    };
    resource.set_crls(crl_of(w.carl.certificate().tbs.serial + 1_000));
    jane.submit_job(&mut resource, &job(2), 100).unwrap();
    assert_eq!(
        memo(&resource),
        (2, 1, 1),
        "the next lookup misses and walks"
    );
    jane.submit_job(&mut resource, &job(3), 100).unwrap();
    assert_eq!(memo(&resource), (2, 2, 1));

    let serial = jane_eec.certificate().tbs.serial;
    resource.set_crls(crl_of(serial));
    let request = jane.signed_request(&job(4), 100);
    assert_eq!(
        resource.submit(&request).unwrap_err(),
        GramError::RequestRejected(rejected(PkiError::Revoked { serial }))
    );
    assert_eq!(resource.stats.denied, 1);
    // The refusal is not memoised: it is walked, and refused, again.
    assert!(resource.submit(&request).is_err());
    assert_eq!(memo(&resource), (4, 2, 0));
}

#[test]
fn a_clock_past_the_proxys_not_after_is_refused_with_expired() {
    let mut w = world();
    let mut resource = resource(&w);
    let jane_eec = w.jane.clone();
    let (_, mut jane) = sign_on(&mut w, &jane_eec, 1_000, b"jane");
    jane.submit_job(&mut resource, &job(0), 100).unwrap();
    let now = w.clock.advance(1_000);
    jane.submit_job(&mut resource, &job(1), now).unwrap();
    assert_eq!(memo(&resource), (1, 1, 1));

    let now = w.clock.advance(1);
    let request = jane.signed_request(&job(2), now);
    assert_eq!(
        resource.submit(&request).unwrap_err(),
        GramError::RequestRejected(rejected(PkiError::Expired {
            now,
            not_before: 100,
            not_after: 1_100,
        }))
    );
    assert_eq!(memo(&resource), (2, 1, 0), "the stale verdict is dropped");
}

#[test]
fn a_memoised_token_still_needs_its_body_and_its_signature() {
    let mut w = world();
    let mut resource = resource(&w);
    let (jane_eec, carl_eec) = (w.jane.clone(), w.carl.clone());
    let (jane_proxy, mut jane) = sign_on(&mut w, &jane_eec, 50_000, b"jane");
    let (carl_proxy, mut carl) = sign_on(&mut w, &carl_eec, 50_000, b"carl");
    jane.submit_job(&mut resource, &job(0), 100).unwrap();

    // Jane's signed request with another job in its body.
    let mut tampered = Envelope::parse(&jane.signed_request(&job(1), 100)).unwrap();
    tampered.body[0] = Element::new("gram:JobRequest")
        .with_child(Element::new("gram:Executable").with_text("/bin/evil"));
    assert_eq!(
        resource.submit(&tampered.to_xml()).unwrap_err(),
        GramError::RequestRejected(rejected(WsseError::DigestMismatch))
    );

    // Carl's signed request carrying Jane's token: its signature is
    // checked under the memoised leaf key, which is Jane's.
    let foreign = carl
        .signed_request(&job(2), 100)
        .replace(&encode_chain(&carl_proxy), &encode_chain(&jane_proxy));
    assert_eq!(
        resource.submit(&foreign).unwrap_err(),
        GramError::RequestRejected(rejected(WsseError::BadSignature))
    );
    // Both refusals came from the memo, not from a walk.
    assert_eq!(memo(&resource), (1, 2, 1));
    assert_eq!(resource.stats.denied, 2);
    assert_eq!(resource.stats.jobs_submitted, 1);
}

#[test]
fn the_memo_holds_its_bound() {
    // Distinct tokens of one user: proxies over Jane's own key, each
    // with its own validity window.
    let mut w = world();
    let mut resource = resource(&w);
    let mut tokens: Vec<Requestor> = (0..=SIGNER_MEMO_CAPACITY as u64)
        .map(|i| {
            let cert = issue_delegated_proxy(
                &mut w.rng,
                &w.jane,
                w.jane.certificate().public_key(),
                ProxyType::Impersonation,
                100 - i,
                50_000,
            )
            .unwrap();
            let mut chain = vec![cert];
            chain.extend_from_slice(w.jane.chain());
            let proxy = Credential::new(chain, w.jane.key().clone());
            Requestor::new(proxy, w.trust.clone(), format!("jane {i}").as_bytes())
        })
        .collect();
    for requestor in &mut tokens {
        resource
            .submit(&requestor.signed_request(&job(0), 100))
            .unwrap();
    }
    let cap = SIGNER_MEMO_CAPACITY as u64;
    assert_eq!(memo(&resource), (cap + 1, 0, SIGNER_MEMO_CAPACITY));
    // The last token is still held; the first was evicted, FIFO.
    for i in [SIGNER_MEMO_CAPACITY, 0] {
        resource
            .submit(&tokens[i].signed_request(&job(1), 100))
            .unwrap();
    }
    assert_eq!(memo(&resource), (cap + 2, 1, SIGNER_MEMO_CAPACITY));
}

#[test]
fn a_rewritten_grid_mapfile_decides_the_next_submit() {
    let mut w = world();
    let mut resource = resource(&w);
    let jane_eec = w.jane.clone();
    let (_, mut jane) = sign_on(&mut w, &jane_eec, 50_000, b"jane");
    jane.submit_job(&mut resource, &job(0), 100).unwrap();
    let rewrite = |resource: &GramResource, text: &str, mode| {
        resource
            .os()
            .write_file(
                "compute1",
                GRIDMAP_PATH,
                ROOT_UID,
                mode,
                text.as_bytes().to_vec(),
            )
            .unwrap();
    };

    rewrite(
        &resource,
        "\"/O=G/CN=Carl\" carl\n",
        FileMode::world_readable(),
    );
    assert_eq!(
        jane.submit_job(&mut resource, &job(1), 100).unwrap_err(),
        GramError::NoMapping("/O=G/CN=Jane".to_string())
    );
    rewrite(&resource, GRIDMAP, FileMode::world_readable());
    jane.submit_job(&mut resource, &job(2), 100).unwrap();
    // The same bytes behind a mode the MMJFS may not read: the read is
    // made, and refused, on every submit.
    rewrite(&resource, GRIDMAP, FileMode::private());
    assert!(matches!(
        jane.submit_job(&mut resource, &job(3), 100).unwrap_err(),
        GramError::Os(_)
    ));
    rewrite(&resource, GRIDMAP, FileMode::world_readable());
    jane.submit_job(&mut resource, &job(4), 100).unwrap();
    assert_eq!(resource.stats.jobs_submitted, 3);
    assert_eq!(memo(&resource).0, 1, "the chain itself was walked once");
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
fn the_rpc_driver_on_a_lossy_wan_walks_each_sign_on_once() {
    const JOBS: usize = 16;
    let mut w = world();
    let shared = Rc::new(RefCell::new(resource(&w)));
    let net = Network::new();
    net.enable_faults(w.clock.clone(), 0x5167, FaultProfile::lossy_wan());
    let mut sched = Scheduler::new(&net);
    let mut service = RemoteGram::new(shared.clone(), b"mjs rng");
    sched.spawn_mailbox(
        "mjs-host",
        ServerTask::new(
            RpcServer::new(net.register("mjs-host")),
            move |from: &str, body: &[u8]| service.handle(from, body),
        ),
    );
    let (jane_eec, carl_eec) = (w.jane.clone(), w.carl.clone());
    let mut rpc = RpcClient::new(net.register("jane"), "mjs-host", policy());
    let (_, mut jane) = sign_on(&mut w, &jane_eec, 50_000, b"jane lossy");
    for n in 0..JOBS {
        submit_job_resilient(&mut jane, &mut rpc, &job(n), &dn(HOST), w.clock.now(), 1).unwrap();
    }
    assert_eq!(memo(&shared.borrow()), (1, JOBS as u64 - 1, 1));
    let mut rpc = RpcClient::new(net.register("carl"), "mjs-host", policy());
    let (_, mut carl) = sign_on(&mut w, &carl_eec, 50_000, b"carl lossy");
    for n in 0..JOBS {
        submit_job_resilient(&mut carl, &mut rpc, &job(n), &dn(HOST), w.clock.now(), 1).unwrap();
    }
    let faults = net.fault_stats().unwrap();
    assert!(faults.dropped > 0 && faults.duplicated > 0, "{faults:?}");
    assert!(rpc.stats().retransmissions > 0);
    let resource = shared.borrow();
    assert_eq!(memo(&resource), (2, 2 * JOBS as u64 - 2, 2));
    assert_eq!(resource.stats.jobs_submitted, 2 * JOBS as u64);
}
