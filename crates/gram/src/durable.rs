//! The Figure-4 service side as a crash-durable, restartable process.
//!
//! In the GT3 architecture the MMJFS and the MJS hosting environment
//! are one unprivileged service process; LMJFS processes run separately
//! in user accounts, and started jobs are ordinary OS processes. A
//! crash of the service therefore loses the in-memory job table and
//! every half-open step-7 session, but *not* the LMJFS credentials, the
//! job processes, or anything on disk. [`DurableGram`] reproduces
//! exactly that blast radius: submissions and job starts are journaled
//! write-ahead, recovery replays them through
//! `GramResource::restore_mjs`, and step-7 sessions are simply gone —
//! clients re-establish them via
//! [`submit_job_resilient`][crate::remote::submit_job_resilient].
//!
//! Requests are the [`crate::remote`] wire ops; replies are [`Reply`]
//! envelopes. Malformed input and out-of-order session ops get
//! refusals, never panics — faulty networks deliver garbage, and a
//! service that crashes on it fails the paper's availability story. An
//! accepted submission and a job start are each one [`Journal::commit`]
//! record holding the effect and the exact reply, so a retransmit after
//! a restart is answered what the first execution answered; everything
//! else (refusals, step-7 token and delegation exchanges) is
//! re-executed.
//!
//! GRIM credentials are never serialized (private keys do not leave the
//! process holding them); recovery re-borrows them from the surviving
//! LMJFS, which also re-pins the owner identity.
//!
//! Kill points (see `testbed::faults`):
//!
//! * `gram.submit.exec` — before the submission executes.
//! * `gram.submit.journaled` — MJS created and journaled, reply lost.
//! * `gram.session.exec` — during a step-7 token/delegation exchange
//!   (purely in-memory state; nothing to journal).
//! * `gram.start.exec` — before the job process spawns.
//! * `gram.start.journaled` — job spawned and journaled, reply lost.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use gridsec_crypto::rng::ChaChaRng;
use gridsec_gssapi::context::EstablishedContext;
use gridsec_gssapi::delegation::PendingDelegation;
use gridsec_pki::credential::Credential;
use gridsec_pki::encoding::{Decoder, Encoder};
use gridsec_testbed::faults::{CrashPlan, CrashRecover, Journal};
use gridsec_testbed::os::Pid;
use gridsec_testbed::rpc::Reply;
use gridsec_util::trace;

use crate::remote::{
    OP_DELEG_CHAIN, OP_DELEG_REQ, OP_START, OP_STATE, OP_SUBMIT, OP_TOKEN1, OP_TOKEN3,
};
use crate::resource::{GramResource, MjsAcceptor};
use crate::types::{JobDescription, JobState};
use crate::GramError;

/// Journal tag for a completed submission (steps 1–6).
pub(crate) const TAG_SUBMIT: &str = "gram-submit";
/// Journal tag for a completed job start (step 7).
pub(crate) const TAG_START: &str = "gram-start";

/// An established step-7 session the service keeps per (caller, MJS
/// handle) until the job starts.
struct Session {
    ctx: EstablishedContext,
    pending: Option<PendingDelegation>,
    delegated: Option<Credential>,
}

/// The GRAM service: a [`GramResource`] behind the RPC wire, with
/// write-ahead journaling and crash recovery; host it on a
/// [`CrashableServer`][gridsec_testbed::faults::CrashableServer] as its
/// [`CrashRecover`] application. The resource is shared via
/// `Rc<RefCell<..>>` so the test scaffold (or a chaos harness) can
/// still advance its clock and inspect jobs between calls.
pub struct DurableGram {
    resource: Rc<RefCell<GramResource>>,
    /// Step 7's handshakes and the delegation key an LMJFS generates on
    /// its first delegation draw from here.
    rng: ChaChaRng,
    /// Step 7's half-open handshakes, awaiting token 3.
    handshakes: HashMap<(String, String), MjsAcceptor>,
    sessions: HashMap<(String, String), Session>,
    seed: Vec<u8>,
    /// Bumped on every incarnation so the reborn acceptor draws a fresh
    /// — but still seed-deterministic — randomness stream.
    generation: u64,
    plan: CrashPlan,
    journal: Journal,
    /// (caller, mjs-handle) pairs whose start command completed.
    started: HashSet<(String, String)>,
}

impl DurableGram {
    /// Serve `resource` durably, journaling into `journal`; `seed`
    /// (mixed with the incarnation's generation) seeds the service's
    /// randomness, keeping runs reproducible. The first incarnation
    /// starts when the service is spawned, replaying any existing
    /// journal.
    pub fn new(
        resource: Rc<RefCell<GramResource>>,
        seed: &[u8],
        plan: CrashPlan,
        journal: Journal,
    ) -> Self {
        DurableGram {
            resource,
            rng: ChaChaRng::from_seed_bytes(seed),
            handshakes: HashMap::new(),
            sessions: HashMap::new(),
            seed: seed.to_vec(),
            generation: 0,
            plan,
            journal,
            started: HashSet::new(),
        }
    }

    /// Answer one request frame before encoding.
    fn serve(&mut self, from: &str, payload: &[u8]) -> Reply {
        let mut d = Decoder::new(payload);
        let parsed = d
            .get_str()
            .and_then(|op| Ok((op, d.get_str()?, d.get_bytes()?)));
        let Ok((op, handle, body)) = parsed else {
            return Reply::Refused("malformed request".into());
        };
        let mut sp = trace::span_with("gram.serve", &format!("op={op} from={from}"));
        let outcome = self.dispatch(from, &op, &handle, &body);
        if let Err(e) = &outcome {
            sp.fail(&e.to_string());
        }
        Reply::from(outcome)
    }

    fn dispatch(
        &mut self,
        from: &str,
        op: &str,
        handle: &str,
        body: &[u8],
    ) -> Result<Vec<u8>, GramError> {
        let ctxerr = |m: &str| GramError::Context(m.to_string());
        let key = (from.to_string(), handle.to_string());
        match op {
            OP_SUBMIT => {
                let xml = String::from_utf8_lossy(body).into_owned();
                let outcome = self.resource.borrow_mut().submit(&xml)?;
                let mut e = Encoder::new();
                e.put_str(&outcome.mjs_handle)
                    .put_u8(u8::from(outcome.cold_start))
                    .put_str(&outcome.account);
                Ok(e.finish())
            }
            OP_TOKEN1 => {
                // A fresh token 1 — ClientHello or ResumeHello — always
                // starts a fresh session: a requestor that timed out
                // mid-handshake and started over must not collide with
                // its abandoned half.
                let (token2, acceptor) =
                    self.resource
                        .borrow_mut()
                        .mjs_accept_hello(handle, &mut self.rng, body)?;
                self.sessions.remove(&key);
                self.handshakes.insert(key, acceptor);
                Ok(token2)
            }
            OP_TOKEN3 => {
                // Taken out before finishing: a refused token 3 leaves no
                // half-open handshake behind.
                let acceptor = self
                    .handshakes
                    .remove(&key)
                    .ok_or(ctxerr("no handshake in progress"))?;
                let ctx = self
                    .resource
                    .borrow_mut()
                    .mjs_accept_finished(acceptor, body)?;
                let session = Session {
                    ctx,
                    pending: None,
                    delegated: None,
                };
                self.sessions.insert(key, session);
                Ok(Vec::new())
            }
            OP_DELEG_REQ => {
                let session = self
                    .sessions
                    .get_mut(&key)
                    .ok_or(ctxerr("no established session"))?;
                let (d2, pending) = self.resource.borrow_mut().mjs_accept_delegation(
                    handle,
                    &mut self.rng,
                    &mut session.ctx,
                    body,
                )?;
                session.pending = Some(pending);
                Ok(d2)
            }
            OP_DELEG_CHAIN => {
                let session = self
                    .sessions
                    .get_mut(&key)
                    .ok_or(ctxerr("no established session"))?;
                let pending = session
                    .pending
                    .take()
                    .ok_or(ctxerr("no delegation in progress"))?;
                let delegated = pending
                    .finish(&mut session.ctx, body)
                    .map_err(|e| ctxerr(&e.to_string()))?;
                session.delegated = Some(delegated);
                Ok(Vec::new())
            }
            OP_START => {
                let session = self
                    .sessions
                    .get_mut(&key)
                    .ok_or(ctxerr("no established session"))?;
                let ctx = &mut session.ctx;
                let plain = ctx.unwrap(body).map_err(|e| ctxerr(&e.to_string()))?;
                if plain != b"start-job" {
                    return Err(ctxerr("start command corrupted"));
                }
                let delegated = session
                    .delegated
                    .take()
                    .ok_or(ctxerr("no delegated credential"))?;
                let requestor_identity = ctx.peer().base_identity.clone();
                self.resource
                    .borrow_mut()
                    .mjs_start_job(handle, &requestor_identity, delegated)?;
                self.sessions.remove(&key);
                Ok(Vec::new())
            }
            OP_STATE => {
                let state = self.resource.borrow().job_state(handle)?;
                let name: &[u8] = match state {
                    JobState::Unsubmitted => b"unsubmitted",
                    JobState::Active => b"active",
                    JobState::Done => b"done",
                    JobState::Cancelled => b"cancelled",
                    JobState::Failed => b"failed",
                };
                Ok(name.to_vec())
            }
            _ => Err(ctxerr("unknown gram op")),
        }
    }

    fn encode_submit_record(&self, handle: &str, account: &str) -> Vec<u8> {
        let resource = self.resource.borrow();
        let account_desc = (|| {
            let desc = resource.job_description(handle).ok()?.clone();
            Some(desc)
        })();
        let desc = account_desc.unwrap_or_else(|| JobDescription::new("<unknown>"));
        // `gsh:mjs-<account>-<n>`: the trailing component is the MJS id
        // counter that recovery must not reuse.
        let mjs_id: u64 = handle
            .rsplit('-')
            .next()
            .and_then(|n| n.parse().ok())
            .unwrap_or(0);
        let mut e = Encoder::new();
        e.put_str(handle)
            .put_str(account)
            .put_u64(mjs_id)
            .put_str(&desc.executable);
        e.put_seq(&desc.arguments, |enc, a| {
            enc.put_str(a);
        });
        e.put_str(&desc.directory)
            .put_str(&desc.stdout)
            .put_str(&desc.queue);
        e.finish()
    }

    fn handle_submit(&mut self, from: &str, id: u64, payload: &[u8]) -> Vec<u8> {
        if self.plan.fires("gram.submit.exec") {
            return Vec::new();
        }
        let reply = self.serve(from, payload);
        // An accepted submission's body is `handle ‖ cold-start ‖ account`.
        let Reply::Ok(body) = &reply else {
            return reply.encode();
        };
        let mut d = Decoder::new(body);
        let Ok(handle) = d.get_str() else {
            return reply.encode();
        };
        let account = d.get_u8().and_then(|_| d.get_str()).unwrap_or_default();
        let reply = reply.encode();
        let record = self.encode_submit_record(&handle, &account);
        self.journal
            .commit(TAG_SUBMIT, from, id, &reply, &record)
            .expect("journal submit");
        if self.plan.fires("gram.submit.journaled") {
            return Vec::new();
        }
        reply
    }

    fn handle_start(&mut self, from: &str, id: u64, handle: &str, payload: &[u8]) -> Vec<u8> {
        // A start re-sent over a re-established session after a restart
        // arrives under a new call id: if the journal proves this exact
        // start already ran and the job is live, acknowledge instead of
        // failing (or worse, double-spawning).
        let key = (from.to_string(), handle.to_string());
        if self.started.contains(&key)
            && self.resource.borrow().job_state(handle) == Ok(JobState::Active)
        {
            trace::event("gram.start.replayed", &format!("handle={handle}"));
            return Reply::Ok(Vec::new()).encode();
        }
        if self.plan.fires("gram.start.exec") {
            return Vec::new();
        }
        let reply = self.serve(from, payload);
        let Reply::Ok(_) = reply else {
            return reply.encode();
        };
        let reply = reply.encode();
        let job_pid = self
            .resource
            .borrow()
            .job_pid(handle)
            .ok()
            .flatten()
            .unwrap_or(0);
        let mut e = Encoder::new();
        e.put_str(from).put_str(handle).put_u64(job_pid);
        self.journal
            .commit(TAG_START, from, id, &reply, &e.finish())
            .expect("journal start");
        if self.plan.fires("gram.start.journaled") {
            return Vec::new();
        }
        self.started.insert(key);
        reply
    }
}

struct SubmitRecord {
    handle: String,
    account: String,
    mjs_id: u64,
    description: JobDescription,
}

fn decode_submit_record(body: &[u8]) -> Option<SubmitRecord> {
    let mut d = Decoder::new(body);
    Some(SubmitRecord {
        handle: d.get_str().ok()?,
        account: d.get_str().ok()?,
        mjs_id: d.get_u64().ok()?,
        description: JobDescription {
            executable: d.get_str().ok()?,
            arguments: d.get_seq(|g| g.get_str()).ok()?,
            directory: d.get_str().ok()?,
            stdout: d.get_str().ok()?,
            queue: d.get_str().ok()?,
        },
    })
}

impl CrashRecover for DurableGram {
    fn handle(&mut self, from: &str, id: u64, body: &[u8]) -> Vec<u8> {
        let mut d = Decoder::new(body);
        let parsed = d.get_str().and_then(|op| Ok((op, d.get_str()?)));
        let Ok((op, handle)) = parsed else {
            return self.serve(from, body).encode();
        };
        match op.as_str() {
            OP_SUBMIT => self.handle_submit(from, id, body),
            OP_START => self.handle_start(from, id, &handle, body),
            _ => {
                // Token and delegation exchanges: in-memory session
                // state only, nothing durable to write.
                if self.plan.fires("gram.session.exec") {
                    return Vec::new();
                }
                self.serve(from, body).encode()
            }
        }
    }

    fn crash(&mut self) {
        // The service process dies: job table and sessions are gone,
        // and the next incarnation draws a fresh randomness stream and
        // has proven no starts.
        self.resource.borrow_mut().crash_mmjfs();
        self.generation += 1;
        let mut seed = self.seed.clone();
        seed.extend_from_slice(&self.generation.to_be_bytes());
        self.rng = ChaChaRng::from_seed_bytes(&seed);
        self.handshakes.clear();
        self.sessions.clear();
        self.started.clear();
    }

    /// Fold the journal into the resource: every journaled MJS comes
    /// back, active if its start was journaled too. Returns the commit
    /// replies from the same read.
    fn recover(&mut self) -> Vec<((String, u64), Vec<u8>)> {
        self.crash();
        let mut submits: Vec<SubmitRecord> = Vec::new();
        let mut starts: HashMap<String, Pid> = HashMap::new();
        let replies = self.journal.replay(|tag, body| match tag {
            TAG_SUBMIT => {
                if let Some(rec) = decode_submit_record(body) {
                    submits.push(rec);
                }
            }
            TAG_START => {
                let mut d = Decoder::new(body);
                let parsed = (|| {
                    let from = d.get_str().ok()?;
                    let handle = d.get_str().ok()?;
                    let pid = d.get_u64().ok()?;
                    Some((from, handle, pid))
                })();
                if let Some((from, handle, pid)) = parsed {
                    starts.insert(handle.clone(), pid);
                    self.started.insert((from, handle));
                }
            }
            _ => {}
        });
        for rec in submits {
            let (state, job_pid) = match starts.get(&rec.handle) {
                Some(&pid) => (JobState::Active, (pid != 0).then_some(pid)),
                None => (JobState::Unsubmitted, None),
            };
            let _ = self.resource.borrow_mut().restore_mjs(
                &rec.handle,
                &rec.account,
                rec.description,
                state,
                job_pid,
                rec.mjs_id,
            );
        }
        replies
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::remote::{job_state_remote, submit_job_resilient};
    use crate::requestor::Requestor;
    use crate::resource::GramConfig;
    use gridsec_authz::gridmap::GridMapFile;
    use gridsec_crypto::rng::ChaChaRng;
    use gridsec_pki::ca::CertificateAuthority;
    use gridsec_pki::credential::Credential;
    use gridsec_pki::name::DistinguishedName;
    use gridsec_pki::store::TrustStore;
    use gridsec_testbed::clock::SimClock;
    use gridsec_testbed::faults::CrashableServer;
    use gridsec_testbed::net::{Endpoint, FaultProfile, Network};
    use gridsec_testbed::os::{SimOs, ROOT_UID};
    use gridsec_testbed::rpc::{decode_reply, encode_request, RpcClient};
    use gridsec_testbed::sched::Scheduler;
    use gridsec_util::retry::RetryPolicy;

    impl DurableGram {
        /// Number of submissions journaled: one commit record each, so
        /// retransmits answered from the journal do not count.
        fn submitted_count(&self) -> usize {
            let mut submitted = 0;
            self.journal.replay(|tag, _| {
                if tag == TAG_SUBMIT {
                    submitted += 1;
                }
            });
            submitted
        }

        /// Number of distinct job starts journaled.
        fn started_count(&self) -> usize {
            self.started.len()
        }
    }

    fn dn(s: &str) -> DistinguishedName {
        DistinguishedName::parse(s).unwrap()
    }

    struct World {
        trust: TrustStore,
        jane: Credential,
        host_cred: Credential,
        clock: SimClock,
    }

    fn world() -> World {
        let mut rng = ChaChaRng::from_seed_bytes(b"gram durable tests");
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
        World {
            trust,
            jane,
            host_cred,
            clock: SimClock::starting_at(100),
        }
    }

    struct Rig {
        durable: Rc<RefCell<DurableGram>>,
        plan: CrashPlan,
        resource: Rc<RefCell<GramResource>>,
        rpc: RpcClient,
        os: SimOs,
        /// Hosts the MJS task the client's calls drive.
        _sched: Scheduler,
    }

    fn rig(w: &World, plan: CrashPlan) -> Rig {
        let os = SimOs::new();
        let gridmap = GridMapFile::parse("\"/O=G/CN=Jane\" jdoe\n").unwrap();
        let resource = Rc::new(RefCell::new(
            GramResource::install(
                os.clone(),
                w.clock.clone(),
                "compute1",
                w.trust.clone(),
                w.host_cred.clone(),
                &gridmap,
                GramConfig::default(),
            )
            .unwrap(),
        ));
        let journal = Journal::open(os.clone(), "compute1", "/var/gram/journal.wal", ROOT_UID);
        let durable = Rc::new(RefCell::new(DurableGram::new(
            resource.clone(),
            b"durable mjs",
            plan.clone(),
            journal,
        )));
        let net = Network::new();
        net.enable_faults(w.clock.clone(), 0x6AAF, FaultProfile::default());
        let mut sched = Scheduler::new(&net);
        CrashableServer::spawn(
            &mut sched,
            net.register("mjs-host"),
            "gram",
            &plan,
            &durable,
        );
        let rpc = RpcClient::new(
            net.register("jane"),
            "mjs-host",
            RetryPolicy {
                max_attempts: 8,
                base_timeout: 16,
                multiplier: 2,
                max_timeout: 64,
            },
        );
        Rig {
            durable,
            plan,
            resource,
            rpc,
            os,
            _sched: sched,
        }
    }

    fn submit(w: &World, rig: &mut Rig) -> crate::requestor::ActiveJob {
        let mut jane = Requestor::new(w.jane.clone(), w.trust.clone(), b"jane durable");
        submit_job_resilient(
            &mut jane,
            &mut rig.rpc,
            &JobDescription::new("/bin/sim"),
            &dn("/O=G/CN=host compute1"),
            w.clock.now(),
            8,
        )
        .unwrap()
    }

    #[test]
    fn full_chain_without_crashes() {
        let w = world();
        let mut r = rig(&w, CrashPlan::disabled());
        let job = submit(&w, &mut r);
        assert!(job.cold_start);
        assert_eq!(
            r.resource.borrow().job_state(&job.handle).unwrap(),
            JobState::Active
        );
        assert_eq!(r.durable.borrow().submitted_count(), 1);
        assert_eq!(r.durable.borrow().started_count(), 1);
        // One commit record per committed request; nothing for the
        // step-7 token and delegation exchanges.
        let mut tags = Vec::new();
        r.durable
            .borrow()
            .journal
            .replay(|tag, _| tags.push(tag.to_string()));
        assert_eq!(tags, [TAG_SUBMIT, TAG_START]);
    }

    #[test]
    fn crash_during_session_reestablishes_and_starts_once() {
        let w = world();
        let plan = CrashPlan::manual(3);
        plan.arm("gram.session.exec", 2);
        let mut r = rig(&w, plan);
        let job = submit(&w, &mut r);
        assert_eq!(r.plan.restarts(), 1, "service was reborn");
        assert_eq!(
            r.resource.borrow().job_state(&job.handle).unwrap(),
            JobState::Active
        );
        // Exactly one job process exists.
        let jobs =
            r.os.processes("compute1")
                .unwrap()
                .into_iter()
                .filter(|p| p.name.starts_with("job:"))
                .count();
        assert_eq!(jobs, 1, "one job started despite the crash");
        assert_eq!(r.resource.borrow().stats.cold_starts, 1);
    }

    #[test]
    fn crash_after_start_journaled_does_not_double_spawn() {
        let w = world();
        let plan = CrashPlan::manual(3);
        plan.arm("gram.start.journaled", 1);
        let mut r = rig(&w, plan);
        let job = submit(&w, &mut r);
        assert_eq!(r.plan.restarts(), 1);
        assert_eq!(
            r.resource.borrow().job_state(&job.handle).unwrap(),
            JobState::Active
        );
        let jobs =
            r.os.processes("compute1")
                .unwrap()
                .into_iter()
                .filter(|p| p.name.starts_with("job:"))
                .count();
        assert_eq!(jobs, 1, "journaled start is acknowledged, not re-run");
        assert_eq!(r.durable.borrow().started_count(), 1);
    }

    #[test]
    fn crash_before_submit_executes_yields_one_mjs() {
        let w = world();
        let plan = CrashPlan::manual(2);
        plan.arm("gram.submit.exec", 1);
        let mut r = rig(&w, plan);
        let job = submit(&w, &mut r);
        assert_eq!(
            r.resource.borrow().job_state(&job.handle).unwrap(),
            JobState::Active
        );
        assert_eq!(r.resource.borrow().job_handles().len(), 1);
        assert_eq!(r.resource.borrow().stats.jobs_submitted, 1);
    }

    /// Send the request frame `frame` as call `id` from `client` and run
    /// `sched` until it is answered; the reply body.
    fn call(sched: &mut Scheduler, client: &Endpoint, id: u64, frame: &[u8]) -> Vec<u8> {
        client.send("mjs-host", encode_request(id, frame)).unwrap();
        sched.run();
        let reply = client.try_recv().expect("answered");
        let (rid, body) = decode_reply(&reply.payload).expect("reply frame");
        assert_eq!(rid, id);
        body.to_vec()
    }

    #[test]
    fn a_new_process_over_the_journal_answers_a_committed_submit() {
        let w = world();
        let mut r = rig(&w, CrashPlan::disabled());
        let mut jane = Requestor::new(w.jane.clone(), w.trust.clone(), b"jane durable");
        let signed = jane.signed_request(&JobDescription::new("/bin/sim"), w.clock.now());
        let mut submit = Encoder::new();
        submit
            .put_str(OP_SUBMIT)
            .put_str("")
            .put_bytes(signed.as_bytes());
        let submit = submit.finish();
        let first = call(&mut r._sched, r.rpc.endpoint(), 7, &submit);
        assert!(matches!(Reply::decode(&first), Some(Reply::Ok(_))));
        // That process is gone; a second one is built over the journal
        // and the LMJFS it left, and spawned: a first start, not a
        // restart.
        let journal = Journal::open(r.os.clone(), "compute1", "/var/gram/journal.wal", ROOT_UID);
        let plan = CrashPlan::disabled();
        let durable = Rc::new(RefCell::new(DurableGram::new(
            r.resource.clone(),
            b"durable mjs",
            plan.clone(),
            journal,
        )));
        let net = Network::new();
        let mut sched = Scheduler::new(&net);
        CrashableServer::spawn(
            &mut sched,
            net.register("mjs-host"),
            "gram",
            &plan,
            &durable,
        );
        let again = call(&mut sched, &net.register("jane"), 7, &submit);
        assert_eq!(first, again, "the committed reply, not a new submit");
        assert_eq!(r.resource.borrow().job_handles().len(), 1, "one MJS");
        assert_eq!(durable.borrow().submitted_count(), 1);
        assert!(plan.transcript().is_empty(), "no restart line");
    }

    #[test]
    fn job_table_survives_restart_for_state_queries() {
        let w = world();
        let mut r = rig(&w, CrashPlan::disabled());
        let job = submit(&w, &mut r);
        r.durable.borrow_mut().crash();
        assert!(r.resource.borrow().job_handles().is_empty());
        r.durable.borrow_mut().recover();
        assert_eq!(
            job_state_remote(&mut r.rpc, &job.handle).unwrap(),
            JobState::Active
        );
    }
}
