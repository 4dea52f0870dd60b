//! Crash-durable GRAM: the Figure-4 service side as a restartable
//! process.
//!
//! In the GT3 architecture the MMJFS and the MJS hosting environment
//! are one unprivileged service process; LMJFS processes run separately
//! in user accounts, and started jobs are ordinary OS processes. A
//! crash of the service therefore loses the in-memory job table and
//! every half-open step-7 session, but *not* the LMJFS credentials, the
//! job processes, or anything on disk. [`DurableGram`] reproduces
//! exactly that blast radius: submissions and job starts are journaled
//! write-ahead, recovery replays them through
//! [`GramResource::restore_mjs`], and step-7 sessions are simply gone —
//! clients re-establish them via
//! [`submit_job_resilient`][crate::remote::submit_job_resilient].
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

use gridsec_pki::encoding::{Decoder, Encoder};
use gridsec_testbed::faults::{CrashPlan, CrashRecover, Journal};
use gridsec_testbed::os::Pid;
use gridsec_util::trace;

use crate::remote::{RemoteGram, OP_START, OP_SUBMIT};
use crate::resource::GramResource;
use crate::types::{JobDescription, JobState};

/// Journal tag for a completed submission (steps 1–6).
pub const TAG_SUBMIT: &str = "gram-submit";
/// Journal tag for a completed job start (step 7).
pub const TAG_START: &str = "gram-start";

/// A [`RemoteGram`] wrapped in write-ahead journaling and crash
/// recovery; plug into a
/// [`CrashableServer`][gridsec_testbed::faults::CrashableServer] as its
/// [`CrashRecover`] application.
pub struct DurableGram {
    resource: Rc<RefCell<GramResource>>,
    remote: RemoteGram,
    seed: Vec<u8>,
    /// Bumped on every restart so the reborn acceptor draws a fresh —
    /// but still seed-deterministic — randomness stream.
    generation: u64,
    plan: CrashPlan,
    journal: Journal,
    /// (caller, call-id) → exact submit reply already served.
    submitted: HashMap<(String, u64), Vec<u8>>,
    /// (caller, mjs-handle) pairs whose start command completed.
    started: HashSet<(String, String)>,
}

impl DurableGram {
    /// Serve `resource` durably, journaling into `journal`. An existing
    /// journal is replayed immediately.
    pub fn new(
        resource: Rc<RefCell<GramResource>>,
        seed: &[u8],
        plan: CrashPlan,
        journal: Journal,
    ) -> Self {
        let remote = RemoteGram::new(resource.clone(), seed);
        let mut durable = DurableGram {
            resource,
            remote,
            seed: seed.to_vec(),
            generation: 0,
            plan,
            journal,
            submitted: HashMap::new(),
            started: HashSet::new(),
        };
        durable.recover();
        durable
    }

    /// The shared resource handle.
    pub fn resource(&self) -> Rc<RefCell<GramResource>> {
        self.resource.clone()
    }

    /// Number of distinct submissions journaled (retransmits and
    /// replays do not count).
    pub fn submitted_count(&self) -> usize {
        self.submitted.len()
    }

    /// Number of distinct job starts journaled.
    pub fn started_count(&self) -> usize {
        self.started.len()
    }

    fn encode_submit_record(&self, from: &str, id: u64, reply: &[u8], handle: &str) -> Vec<u8> {
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
        let mut d = Decoder::new(reply);
        let account = (|| {
            d.get_str().ok()?; // status
            let body = d.get_bytes().ok()?;
            let mut b = Decoder::new(&body);
            b.get_str().ok()?; // handle
            b.get_u8().ok()?; // cold
            b.get_str().ok()
        })()
        .unwrap_or_default();
        let mut e = Encoder::new();
        e.put_str(from)
            .put_u64(id)
            .put_bytes(reply)
            .put_str(handle)
            .put_str(&account)
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
        let key = (from.to_string(), id);
        if let Some(reply) = self.submitted.get(&key) {
            trace::event("gram.submit.replayed", &format!("from={from} id={id}"));
            return reply.clone();
        }
        if self.plan.fires("gram.submit.exec") {
            return Vec::new();
        }
        let reply = self.remote.handle(from, payload);
        let handle = submit_reply_handle(&reply);
        if let Some(handle) = handle {
            let record = self.encode_submit_record(from, id, &reply, &handle);
            self.journal
                .append(TAG_SUBMIT, &record)
                .expect("journal submit");
            if self.plan.fires("gram.submit.journaled") {
                return Vec::new();
            }
            self.submitted.insert(key, reply.clone());
        }
        reply
    }

    fn handle_start(&mut self, from: &str, handle: &str, payload: &[u8]) -> Vec<u8> {
        // Re-execution after a restart: the session died with the old
        // incarnation, but if the journal proves this exact start
        // already ran and the job is live, acknowledge instead of
        // failing (or worse, double-spawning).
        let key = (from.to_string(), handle.to_string());
        if self.started.contains(&key)
            && self.resource.borrow().job_state(handle) == Ok(JobState::Active)
        {
            trace::event("gram.start.replayed", &format!("handle={handle}"));
            let mut e = Encoder::new();
            e.put_str("ok").put_bytes(&[]);
            return e.finish();
        }
        if self.plan.fires("gram.start.exec") {
            return Vec::new();
        }
        let reply = self.remote.handle(from, payload);
        if reply_is_ok(&reply) {
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
                .append(TAG_START, &e.finish())
                .expect("journal start");
            if self.plan.fires("gram.start.journaled") {
                return Vec::new();
            }
            self.started.insert(key);
        }
        reply
    }
}

fn reply_is_ok(reply: &[u8]) -> bool {
    Decoder::new(reply).get_str().is_ok_and(|s| s == "ok")
}

/// Extract the MJS handle from an `ok` submit reply.
fn submit_reply_handle(reply: &[u8]) -> Option<String> {
    let mut d = Decoder::new(reply);
    if d.get_str().ok()? != "ok" {
        return None;
    }
    let body = d.get_bytes().ok()?;
    Decoder::new(&body).get_str().ok()
}

struct SubmitRecord {
    from: String,
    id: u64,
    reply: Vec<u8>,
    handle: String,
    account: String,
    mjs_id: u64,
    description: JobDescription,
}

fn decode_submit_record(body: &[u8]) -> Option<SubmitRecord> {
    let mut d = Decoder::new(body);
    Some(SubmitRecord {
        from: d.get_str().ok()?,
        id: d.get_u64().ok()?,
        reply: d.get_bytes().ok()?,
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
            return self.remote.handle(from, body);
        };
        match op.as_str() {
            OP_SUBMIT => self.handle_submit(from, id, body),
            OP_START => self.handle_start(from, &handle, body),
            _ => {
                // Token and delegation exchanges: in-memory session
                // state only, nothing durable to write.
                if self.plan.fires("gram.session.exec") {
                    return Vec::new();
                }
                self.remote.handle(from, body)
            }
        }
    }

    fn crash(&mut self) {
        // The service process dies: job table and sessions are gone.
        self.resource.borrow_mut().crash_mmjfs();
        self.generation += 1;
        let mut seed = self.seed.clone();
        seed.extend_from_slice(&self.generation.to_be_bytes());
        self.remote = RemoteGram::new(self.resource.clone(), &seed);
        self.submitted.clear();
        self.started.clear();
    }

    fn recover(&mut self) {
        self.crash();
        let records = self.journal.records();
        let mut submits: Vec<SubmitRecord> = Vec::new();
        let mut starts: HashMap<String, Pid> = HashMap::new();
        for (tag, body) in &records {
            match tag.as_str() {
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
            }
        }
        for rec in submits {
            let (state, job_pid) = match starts.get(&rec.handle) {
                Some(&pid) => (JobState::Active, (pid != 0).then_some(pid)),
                None => (JobState::Unsubmitted, None),
            };
            if self
                .resource
                .borrow_mut()
                .restore_mjs(
                    &rec.handle,
                    &rec.account,
                    rec.description,
                    state,
                    job_pid,
                    rec.mjs_id,
                )
                .is_ok()
            {
                self.submitted.insert((rec.from, rec.id), rec.reply);
            }
        }
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
    use gridsec_testbed::net::{FaultProfile, Network};
    use gridsec_testbed::os::{SimOs, ROOT_UID};
    use gridsec_testbed::rpc::{RpcClient, ServerTask};
    use gridsec_testbed::sched::Scheduler;
    use gridsec_util::retry::RetryPolicy;

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
        let server = CrashableServer::new(
            net.register("mjs-host"),
            "gram",
            plan.clone(),
            durable.borrow().journal.clone(),
            true,
        );
        let mut sched = Scheduler::new(&net);
        sched.spawn_mailbox("mjs-host", ServerTask::new(server, durable.clone()));
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
