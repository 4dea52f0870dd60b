//! Initiator-death recovery: the portal single-sign-on flow from
//! GridCertLib's MyProxy story, with the *client* as the crashing
//! process.
//!
//! A portal signs Jane on, stores her delegated credential at the
//! MyProxy repository, acquires a short-lived proxy, submits a GRAM
//! job with it, and later renews the proxy mid-job. The portal process
//! itself runs under a [`CrashPlan`] with client-side kill points:
//!
//! * `cred.store` — dies right after the credential store landed,
//!   before the portal uses it.
//! * `cred.reacquire` — dies right after a proxy issuance reply
//!   arrived, before the portal records completion (the worst window:
//!   the repository has already minted the proxy).
//! * `cred.renew` — same window, during the mid-job renewal.
//!
//! Every incarnation restarts from the portal's own write-ahead
//! journal. The exactly-once trick mirrors the server side: the portal
//! journals an *intent* record — the reserved RPC call id, the freshly
//! generated key pair, and the exact request bytes — before the first
//! transmission, and a reborn portal re-sends the *same* `(caller,
//! id)` frame via [`PollingCall`]. The repository's reply cache (and
//! the issuance's commit record it is restored from after a repository
//! restart) answers with the *same* proxy certificate, so no kill
//! window can double-issue, and the in-flight
//! GRAM submission resumes exactly once (`cold_starts == 1`, one job
//! process) because submission is guarded by a journaled completion
//! record.

use std::cell::RefCell;
use std::ops::ControlFlow;
use std::rc::Rc;

use gridsec_crypto::rng::ChaChaRng;
use gridsec_crypto::rsa::RsaKeyPair;
use gridsec_gram::remote::{job_state_remote, submit_job_resilient};
use gridsec_gram::types::{JobDescription, JobState};
use gridsec_gram::Requestor;
use gridsec_pki::cert::{decode_public_key, Certificate};
use gridsec_pki::credential::Credential;
use gridsec_pki::encoding::{Codec, Decoder, Encoder};
use gridsec_pki::proxy::{issue_delegated_proxy, ProxyType};
use gridsec_pki::store::TrustStore;
use gridsec_pki::validate::validate_chain;
use gridsec_services::myproxy::{self, MyProxyServer, OP_GET, OP_RENEW};
use gridsec_testbed::clock::SimClock;
use gridsec_testbed::faults::{CrashPlan, Journal};
use gridsec_testbed::net::{Endpoint, FaultProfile, Network};
use gridsec_testbed::os::{SimOs, ROOT_UID};
use gridsec_testbed::rpc::{CallPoll, PollingCall, RpcClient};
use gridsec_testbed::sched;
use gridsec_util::trace;

use super::{assert_one_job, jane_at, policy, ChaosOpts, Rig, ScenarioReport};
use crate::dn;

/// Portal journal tags.
const TAG_STORED: &str = "p-stored";
const TAG_INTENT: &str = "p-intent";
const TAG_SUBMITTED: &str = "p-submitted";

/// The portal died at an armed kill point mid-flow.
struct Killed;

/// A journaled issuance intent: enough to re-send the exact frame and
/// decode the replayed proxy after rebirth.
struct Intent {
    id: u64,
    op: String,
    key: RsaKeyPair,
    request: Vec<u8>,
}

fn encode_intent(id: u64, op: &str, key: &RsaKeyPair, request: &[u8]) -> Vec<u8> {
    let (p, q) = key.primes();
    let mut e = Encoder::new();
    e.put_u64(id)
        .put_str(op)
        .put_biguint(p)
        .put_biguint(q)
        .put_biguint(key.public().exponent())
        .put_bytes(request);
    e.finish()
}

fn decode_intent(body: &[u8]) -> Option<Intent> {
    let mut d = Decoder::new(body);
    let id = d.get_u64().ok()?;
    let op = d.get_str().ok()?;
    let p = d.get_biguint().ok()?;
    let q = d.get_biguint().ok()?;
    let e = d.get_biguint().ok()?;
    let request = d.get_bytes().ok()?;
    let key = RsaKeyPair::from_components(p, q, e).ok()?;
    Some(Intent {
        id,
        op,
        key,
        request,
    })
}

/// What one portal incarnation recovered from its journal.
struct Recovered {
    stored: bool,
    last_intent: Option<Intent>,
    submitted: Option<(String, String)>,
    /// Records the replay read.
    records: usize,
    next_id: u64,
}

fn replay_portal_journal(journal: &Journal) -> Recovered {
    let mut stored = false;
    let mut last_intent = None;
    let mut submitted = None;
    let mut records = 0;
    journal.replay(|tag, body| {
        records += 1;
        match tag {
            TAG_STORED => stored = true,
            TAG_INTENT => last_intent = decode_intent(body),
            TAG_SUBMITTED => {
                let mut d = Decoder::new(body);
                if let (Ok(h), Ok(a)) = (d.get_str(), d.get_str()) {
                    submitted = Some((h, a));
                }
            }
            _ => {}
        }
    });
    Recovered {
        stored,
        last_intent,
        submitted,
        records,
        // Fresh call ids strictly above anything any earlier
        // incarnation can have used: the journal only grows.
        next_id: (records as u64 + 1) * 1_000,
    }
}

/// One portal incarnation's handles on the world.
struct Portal<'w> {
    ep: Endpoint,
    clock: &'w SimClock,
    journal: Journal,
    plan: CrashPlan,
}

impl Portal<'_> {
    /// Drive one credential-repository call to completion, parked in
    /// the world's scheduler ([`RpcClient::call`] around an explicit
    /// call id, so a reborn incarnation can re-send the identical
    /// frame).
    fn call(&self, id: u64, payload: &[u8]) -> Result<Vec<u8>, String> {
        let mut call = PollingCall::new("repo", id, payload, policy());
        sched::wait(self.ep.network(), |now| match call.poll(&self.ep, now) {
            CallPoll::Ready(reply) => ControlFlow::Break(Some(reply)),
            CallPoll::Wait { deadline } => ControlFlow::Continue(Some(deadline)),
            CallPoll::Exhausted => ControlFlow::Break(None),
        })
        .ok()
        .flatten()
        .ok_or_else(|| "retry budget exhausted".to_string())
    }

    /// `fires` + death: returns `Err(Killed)` when the armed point hits.
    fn kill_point(&self, point: &str) -> Result<(), Killed> {
        if self.plan.fires(point) {
            trace::event("portal.killed", point);
            return Err(Killed);
        }
        Ok(())
    }
}

/// The two-round store flow, retried with fresh ids if the repository
/// crashed between rounds (its pending key is volatile by design).
fn store_at_repo(
    portal: &Portal<'_>,
    rng: &mut ChaChaRng,
    delegator: &Credential,
    next_id: &mut u64,
) -> Result<(), String> {
    for _ in 0..4 {
        let mut e = Encoder::new();
        e.put_str(myproxy::OP_STORE_BEGIN)
            .put_str("jane")
            .put_str("s3cret");
        let begin_id = *next_id;
        *next_id += 2;
        let body = myproxy::decode_verdict(&portal.call(begin_id, &e.finish())?)
            .map_err(|e| e.to_string())?;
        let mut d = Decoder::new(&body);
        let repo_key = decode_public_key(&mut d).map_err(|_| "bad repo key".to_string())?;
        let cert = issue_delegated_proxy(
            rng,
            delegator,
            &repo_key,
            ProxyType::Impersonation,
            portal.clock.now(),
            200_000,
        )
        .map_err(|e| format!("delegate: {e:?}"))?;
        let mut e = Encoder::new();
        e.put_str(myproxy::OP_STORE_COMMIT)
            .put_str("jane")
            .put_str("s3cret");
        cert.encode(&mut e);
        e.put_seq(delegator.chain(), |enc, c: &Certificate| c.encode(enc));
        match myproxy::decode_verdict(&portal.call(begin_id + 1, &e.finish())?) {
            Ok(_) => return Ok(()),
            // The pending key died with a repository crash between the
            // rounds — begin again with fresh ids.
            Err(myproxy::MyProxyError::Refused(_)) => continue,
            Err(e) => return Err(e.to_string()),
        }
    }
    Err("store never landed".into())
}

/// Send an issuance intent (or re-send a recovered one) and assemble
/// the proxy credential around the intent's key.
fn run_intent(portal: &Portal<'_>, intent: &Intent) -> Result<Credential, String> {
    let reply = portal.call(intent.id, &intent.request)?;
    let body = myproxy::decode_verdict(&reply).map_err(|e| e.to_string())?;
    let (p, q) = intent.key.primes();
    let key =
        RsaKeyPair::from_components(p.clone(), q.clone(), intent.key.public().exponent().clone())
            .map_err(|_| "intent key rebuild".to_string())?;
    myproxy::assemble_issued(&body, key).map_err(|e| e.to_string())
}

/// One incarnation of the portal process, from what it `recovered` to
/// a verified running job. `Err(Killed)` means an armed kill point
/// fired and the supervisor should restart us.
fn run_incarnation(
    portal: &Portal<'_>,
    mut recovered: Recovered,
    incarnation: u64,
    seed: u64,
    net: &Network,
    jane: &Credential,
    trust: &TrustStore,
) -> Result<Result<(Credential, String), String>, Killed> {
    trace::add("portal.incarnations", 1);
    let mut rng = ChaChaRng::from_seed_bytes(
        &[&seed.to_be_bytes()[..], &incarnation.to_be_bytes()[..]].concat(),
    );

    // Phase 1: the credential must be stored at the repository.
    if !recovered.stored {
        if let Err(e) = store_at_repo(portal, &mut rng, jane, &mut recovered.next_id) {
            return Ok(Err(e));
        }
        if portal.journal.append(TAG_STORED, &[]).is_err() {
            return Ok(Err("portal journal unavailable".into()));
        }
        portal.kill_point("cred.store")?;
    }

    // Phase 2: hold a live proxy — recover the in-flight issuance if
    // one is journaled (re-sending its exact frame), else start fresh.
    let (credential, renewed) = match recovered.last_intent {
        Some(intent) => {
            trace::add("portal.intents.recovered", 1);
            let cred = match run_intent(portal, &intent) {
                Ok(c) => c,
                Err(e) => return Ok(Err(e)),
            };
            portal.kill_point("cred.reacquire")?;
            (cred, intent.op == OP_RENEW)
        }
        None => {
            let key = RsaKeyPair::generate(&mut rng, 512);
            let request =
                myproxy::encode_issue_request(OP_GET, "jane", "s3cret", key.public(), 3_600);
            let intent = Intent {
                id: recovered.next_id,
                op: OP_GET.to_string(),
                key,
                request,
            };
            recovered.next_id += 1;
            if portal
                .journal
                .append(
                    TAG_INTENT,
                    &encode_intent(intent.id, &intent.op, &intent.key, &intent.request),
                )
                .is_err()
            {
                return Ok(Err("portal journal unavailable".into()));
            }
            let cred = match run_intent(portal, &intent) {
                Ok(c) => c,
                Err(e) => return Ok(Err(e)),
            };
            portal.kill_point("cred.reacquire")?;
            (cred, false)
        }
    };

    // Phase 3: the GRAM submission, exactly once — guarded by the
    // journaled completion record, not by luck. Each incarnation uses
    // its own client endpoint name (a reborn process on a new port),
    // so fresh call ids can never collide with a dead incarnation's
    // cached replies.
    let handle = match recovered.submitted {
        Some((handle, account)) => {
            assert_eq!(account, "jdoe");
            handle
        }
        None => {
            let gram_ep = net.register(&format!("portal-g{incarnation}"));
            let mut rpc = RpcClient::new(gram_ep, "mjs-host", policy());
            let mut requestor = Requestor::new(credential.clone(), trust.clone(), b"portal req");
            let job = match submit_job_resilient(
                &mut requestor,
                &mut rpc,
                &JobDescription::new("/bin/portal-sim"),
                &dn("/O=G/CN=host compute1"),
                portal.clock.now(),
                6,
            ) {
                Ok(j) => j,
                Err(e) => return Ok(Err(format!("submit: {e:?}"))),
            };
            assert_eq!(job.account, "jdoe");
            let mut e = Encoder::new();
            e.put_str(&job.handle).put_str(&job.account);
            if portal.journal.append(TAG_SUBMITTED, &e.finish()).is_err() {
                return Ok(Err("portal journal unavailable".into()));
            }
            trace::add("portal.submissions", 1);
            job.handle
        }
    };

    // Phase 4: the mid-job renewal (once). A recovered renew intent
    // *is* the renewal, completed on rebirth.
    if renewed {
        return Ok(Ok((credential, handle)));
    }
    portal.clock.advance(3_000);
    let key = RsaKeyPair::generate(&mut rng, 512);
    let request = myproxy::encode_issue_request(OP_RENEW, "jane", "s3cret", key.public(), 3_600);
    let intent = Intent {
        id: recovered.next_id,
        op: OP_RENEW.to_string(),
        key,
        request,
    };
    if portal
        .journal
        .append(
            TAG_INTENT,
            &encode_intent(intent.id, &intent.op, &intent.key, &intent.request),
        )
        .is_err()
    {
        return Ok(Err("portal journal unavailable".into()));
    }
    let renewed_cred = match run_intent(portal, &intent) {
        Ok(c) => c,
        Err(e) => return Ok(Err(e)),
    };
    portal.kill_point("cred.renew")?;
    Ok(Ok((renewed_cred, handle)))
}

/// The portal-recovery chaos scenario. Arm `cred.store`,
/// `cred.reacquire`, and/or `cred.renew` via
/// [`ChaosOpts::armed_crashes`] to kill the portal at each window; the
/// scenario asserts exactly-once proxy issuance and exactly-once job
/// submission regardless.
pub fn portal_recovery(seed: u64, opts: &ChaosOpts) -> ScenarioReport {
    let mut rig = Rig::new("portal", seed, 0xB0B7, FaultProfile::lossy_wan(), 100, opts);

    let mut w = jane_at(b"chaos portal", "compute1");
    let os = SimOs::new();
    os.add_host("repo");
    os.add_host("portal");

    // The compute resource (server side, stable in this scenario's
    // armed mode; seeded mode can crash it too).
    let gram_plan = rig.plan(0xC4A7, 0.02, 1);
    let shared = w.serve_gram(&mut rig, &os, b"portal mjs", &gram_plan);

    // The MyProxy repository.
    let repo_plan = rig.plan(0xC4A8, 0.02, 1);
    let repo_journal = Journal::open(os.clone(), "repo", "/var/myproxy/journal.wal", ROOT_UID);
    let repo_app = Rc::new(RefCell::new(MyProxyServer::new(
        rig.clock.clone(),
        b"portal repo",
        repo_plan.clone(),
        repo_journal,
        100_000,
    )));
    rig.serve("repo", "myproxy", &repo_plan, &repo_app);

    // The portal process itself: the crashing *client*.
    let portal_plan = rig.plan(0xC4A9, 0.05, 3);
    // The report carries every process's kills: the portal's own and
    // the two servers'.
    let plans = [&portal_plan, &repo_plan, &gram_plan];
    let portal_journal = Journal::open(os.clone(), "portal", "/var/portal/journal.wal", ROOT_UID);

    if opts.partition_all {
        rig.net.partition("portal-cred", "repo");
        let portal = Portal {
            ep: rig.net.register("portal-cred"),
            clock: &rig.clock,
            journal: portal_journal,
            plan: portal_plan.clone(),
        };
        let err = store_at_repo(&portal, &mut w.rng, &w.jane, &mut 1_000);
        assert!(err.is_err(), "partition must fail the store");
        return rig.report(false, &plans);
    }

    let mut incarnation = 0u64;
    let (credential, handle) = loop {
        incarnation += 1;
        assert!(incarnation <= 16, "portal must converge");
        // The journal is read once per incarnation; a reborn portal's
        // restart is confirmed with the records it replayed.
        let recovered = replay_portal_journal(&portal_journal);
        portal_plan.confirm_restart("portal", rig.clock.now(), recovered.records);
        // A reborn portal re-registers its endpoint: replies addressed
        // to the dead incarnation are gone — only the journal survives.
        let portal = Portal {
            ep: rig.net.register("portal-cred"),
            clock: &rig.clock,
            journal: portal_journal.clone(),
            plan: portal_plan.clone(),
        };
        match run_incarnation(
            &portal,
            recovered,
            incarnation,
            seed,
            &rig.net,
            &w.jane,
            &w.trust,
        ) {
            Ok(Ok(done)) => break done,
            Ok(Err(e)) => panic!("portal incarnation {incarnation} failed: {e}"),
            Err(Killed) => {
                let line = portal_plan.confirm_kill("portal", rig.clock.now());
                assert!(line.is_some(), "a kill point latched");
                rig.clock.advance(portal_plan.restart_delay());
            }
        }
    };

    // The renewed proxy validates and the job is still running.
    let id = validate_chain(credential.chain(), &w.trust, rig.clock.now())
        .expect("renewed portal proxy validates");
    assert_eq!(id.base_identity, dn("/O=G/CN=Jane"));
    let mut rpc = rig.client("portal-verify", "mjs-host");
    assert_eq!(
        job_state_remote(&mut rpc, &handle).expect("state query"),
        JobState::Active
    );

    // Exactly-once, end to end: one cold start, one job process, and
    // exactly two visible proxy issuances (the acquire and the renew)
    // no matter how many times the portal died and re-sent.
    assert_one_job(&shared, &os, "compute1");
    assert_eq!(
        repo_app.borrow().issued_count(),
        2,
        "no duplicate proxy issuance across portal deaths"
    );
    trace::add("portal.completed", 1);

    rig.report(true, &plans)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_portal_flow_completes_without_crashes() {
        let rep = portal_recovery(0xB0B7, &ChaosOpts::default());
        assert!(rep.completed);
        assert_eq!(rep.crashes, 0);
        assert_eq!(rep.metrics.counters.get("portal.incarnations"), Some(&1));
    }

    #[test]
    fn armed_kills_at_every_cred_point_recover_exactly_once() {
        let opts = ChaosOpts {
            armed_crashes: vec![
                ("cred.store".into(), 1),
                ("cred.reacquire".into(), 1),
                ("cred.renew".into(), 1),
            ],
            ..ChaosOpts::default()
        };
        let rep = portal_recovery(0xB0B7, &opts);
        // The scenario itself asserts exactly-once issuance and a
        // single job process; here we pin the crash/restart shape.
        assert!(rep.completed);
        assert_eq!(rep.crashes, 3, "all three cred kill points fired");
        assert_eq!(rep.restarts, 3);
        assert_eq!(rep.metrics.counters.get("portal.incarnations"), Some(&4));
        assert_eq!(
            rep.metrics.counters.get("portal.intents.recovered"),
            Some(&2),
            "the acquire and the renew were each completed by a reborn portal"
        );
    }

    #[test]
    fn portal_recovery_is_deterministic_per_seed() {
        let opts = ChaosOpts {
            armed_crashes: vec![("cred.reacquire".into(), 1)],
            ..ChaosOpts::default()
        };
        let a = portal_recovery(0x5EED, &opts);
        let b = portal_recovery(0x5EED, &opts);
        assert_eq!(a.lines, b.lines);
        assert_eq!(a.metrics.counters, b.metrics.counters);
    }
}
