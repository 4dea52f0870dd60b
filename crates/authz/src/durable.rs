//! Crash-durable CAS: the Figure-2 server as a restartable process.
//!
//! The paper's §4 argument is that security services hold no state a
//! restart cannot recover: policy lives in a database, assertions are
//! stateless signed messages. [`DurableCas`] makes that concrete — every
//! mutation (enrollment, policy rule, issued assertion) is appended to a
//! [`Journal`] *before* it takes effect, and a crash throws away the
//! entire in-memory [`CasServer`]. Recovery replays the journal into a
//! fresh server.
//!
//! Issuance timestamps come from the shared [`SimClock`], so the
//! assertion a retransmit is answered with carries the validity window
//! of the *first* execution — exactly what a client that saw the first
//! reply get lost expects.
//!
//! Every issue request — refusals included — is one [`Journal::commit`]
//! record holding the exact [`Reply`] envelope bytes the caller is sent,
//! written before the reply leaves. A retransmit after a restart is
//! answered from that record by the supervisor instead of signing a
//! second assertion with a fresh validity window — "one assertion
//! issued" holds across any crash schedule.
//!
//! Kill points (see `testbed::faults`):
//!
//! * `cas.issue.exec` — before the assertion is signed (no side effect
//!   yet; the retransmit simply re-runs issuance).
//! * `cas.issue.journaled` — after the commit record is durable but
//!   before the reply leaves (the retransmit is answered from the
//!   journal).

use crate::cas::CasServer;
use crate::net::OP_ISSUE;
use crate::policy::{Effect, Rule, SubjectMatch};
use gridsec_pki::credential::Credential;
use gridsec_pki::encoding::{Codec, Decoder, Encoder};
use gridsec_pki::name::DistinguishedName;
use gridsec_testbed::clock::SimClock;
use gridsec_testbed::faults::{CrashPlan, CrashRecover, Journal};
use gridsec_testbed::rpc::Reply;
use gridsec_util::trace;

/// Journal tag for an enrollment record.
pub(crate) const TAG_ENROLL: &str = "cas-enroll";
/// Journal tag for a VO policy rule record.
pub(crate) const TAG_RULE: &str = "cas-rule";
/// Journal tag for an issue request's commit record.
pub(crate) const TAG_ISSUED: &str = "cas-issued";

/// The CAS service: a [`CasServer`] behind write-ahead journaling and
/// crash recovery, hosted on a
/// [`CrashableServer`][gridsec_testbed::faults::CrashableServer] as its
/// [`CrashRecover`] application. All VO setup must go through
/// [`enroll`][DurableCas::enroll] / [`add_rule`][DurableCas::add_rule]
/// so it lands in the journal.
pub struct DurableCas {
    clock: SimClock,
    plan: CrashPlan,
    journal: Journal,
    cas: CasServer,
}

impl DurableCas {
    /// Create a durable CAS for `vo`, stamping assertions with `clock`
    /// time and journaling into `journal`. An existing journal (e.g.
    /// from a previous incarnation) is replayed when the service is
    /// spawned.
    pub fn new(
        vo: &str,
        credential: Credential,
        assertion_lifetime: u64,
        clock: SimClock,
        plan: CrashPlan,
        journal: Journal,
    ) -> Self {
        DurableCas {
            clock,
            plan,
            journal,
            cas: CasServer::new(vo, credential, assertion_lifetime),
        }
    }

    /// The live (possibly freshly recovered) CAS server.
    pub fn cas(&self) -> &CasServer {
        &self.cas
    }

    /// Number of assertions actually issued (committed `Ok` replies). A
    /// retransmit answered from the journal does not count.
    pub fn issued_count(&self) -> usize {
        self.journal
            .replay(|_, _| {})
            .iter()
            .filter(|(_, reply)| matches!(Reply::decode(reply), Some(Reply::Ok(_))))
            .count()
    }

    /// Enroll a VO member: journaled, then applied.
    pub fn enroll(&mut self, user: &DistinguishedName, groups: Vec<String>) {
        let mut e = Encoder::new();
        e.put_str(&user.to_string());
        e.put_seq(&groups, |enc, g| {
            enc.put_str(g);
        });
        self.journal
            .append(TAG_ENROLL, &e.finish())
            .expect("journal enroll");
        self.cas.enroll(user, groups);
    }

    /// Add a VO policy rule: journaled, then applied. Patterns are kept
    /// as their source strings so replay reparses them identically.
    pub fn add_rule(
        &mut self,
        subject: SubjectMatch,
        resource: &str,
        action: &str,
        effect: Effect,
    ) {
        let mut e = Encoder::new();
        let (kind, name) = match &subject {
            SubjectMatch::Any => (0u8, String::new()),
            SubjectMatch::Exact(s) => (1u8, s.clone()),
        };
        e.put_u8(kind).put_str(&name);
        e.put_str(resource).put_str(action);
        e.put_u8(match effect {
            Effect::Permit => 0,
            Effect::Deny => 1,
        });
        self.journal
            .append(TAG_RULE, &e.finish())
            .expect("journal rule");
        self.cas
            .add_rule(Rule::new(subject, resource, action, effect));
    }

    fn apply_record(cas: &mut CasServer, tag: &str, body: &[u8]) {
        let mut d = Decoder::new(body);
        match tag {
            TAG_ENROLL => {
                let Ok(subject) = d.get_str() else { return };
                let Ok(groups) = d.get_seq(|g| g.get_str()) else {
                    return;
                };
                if let Ok(user) = DistinguishedName::parse(&subject) {
                    cas.enroll(&user, groups);
                }
            }
            TAG_RULE => {
                let parsed = (|| {
                    let kind = d.get_u8()?;
                    let name = d.get_str()?;
                    let resource = d.get_str()?;
                    let action = d.get_str()?;
                    let effect = d.get_u8()?;
                    Ok::<_, gridsec_pki::PkiError>((kind, name, resource, action, effect))
                })();
                if let Ok((kind, name, resource, action, effect)) = parsed {
                    let subject = if kind == 0 {
                        SubjectMatch::Any
                    } else {
                        SubjectMatch::Exact(name)
                    };
                    let effect = if effect == 0 {
                        Effect::Permit
                    } else {
                        Effect::Deny
                    };
                    cas.add_rule(Rule::new(subject, &resource, &action, effect));
                }
            }
            _ => {}
        }
    }

    /// Answer one issue request. Malformed input and non-members get
    /// refusals, never panics.
    fn issue(&self, payload: &[u8]) -> Reply {
        let refused = |reason: &str| Reply::Refused(reason.into());
        let mut d = Decoder::new(payload);
        let parsed = d.get_str().and_then(|op| Ok((op, d.get_str()?)));
        let Ok((op, subject)) = parsed else {
            return refused("malformed request");
        };
        if op != OP_ISSUE {
            return refused("unknown cas op");
        }
        let Ok(user) = DistinguishedName::parse(&subject) else {
            return refused("bad subject DN");
        };
        match self.cas.issue_assertion(&user, self.clock.now()) {
            Some(assertion) => {
                trace::event("cas.decision", &format!("subject={subject} outcome=issued"));
                trace::add("cas.assertions_issued", 1);
                Reply::Ok(assertion.to_bytes())
            }
            None => {
                trace::event(
                    "cas.decision",
                    &format!("subject={subject} outcome=refused"),
                );
                trace::add("cas.refusals", 1);
                Reply::Absent(b"not a VO member".to_vec())
            }
        }
    }
}

impl CrashRecover for DurableCas {
    fn handle(&mut self, from: &str, id: u64, body: &[u8]) -> Vec<u8> {
        if self.plan.fires("cas.issue.exec") {
            return Vec::new();
        }
        let reply = {
            let _sp = trace::span_with("cas.issue", &format!("from={from}"));
            self.issue(body).encode()
        };
        self.journal
            .commit(TAG_ISSUED, from, id, &reply, &[])
            .expect("journal issued");
        if self.plan.fires("cas.issue.journaled") {
            return Vec::new();
        }
        reply
    }

    fn crash(&mut self) {
        // The process dies: every in-memory structure is gone.
        self.cas.forget();
    }

    fn recover(&mut self) -> Vec<((String, u64), Vec<u8>)> {
        self.crash();
        self.journal
            .replay(|tag, body| Self::apply_record(&mut self.cas, tag, body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsec_crypto::rng::ChaChaRng;
    use gridsec_pki::ca::CertificateAuthority;
    use gridsec_testbed::faults::CrashableServer;
    use gridsec_testbed::net::{Endpoint, FaultProfile, Network};
    use gridsec_testbed::os::{SimOs, ROOT_UID};
    use gridsec_testbed::rpc::{decode_reply, encode_request};
    use gridsec_testbed::sched::Scheduler;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn dn(s: &str) -> DistinguishedName {
        DistinguishedName::parse(s).unwrap()
    }

    /// A CAS process over the journal on `os`, whatever it holds.
    fn cas_process(os: &SimOs, plan: CrashPlan) -> DurableCas {
        let mut rng = ChaChaRng::from_seed_bytes(b"durable cas tests");
        let ca = CertificateAuthority::create_root(&mut rng, dn("/O=VO/CN=CA"), 512, 0, 1_000_000);
        let cred = ca.issue_identity(&mut rng, dn("/O=VO/CN=CAS"), 512, 0, 100_000);
        let journal = Journal::open(os.clone(), "cas-host", "/var/cas/journal.wal", ROOT_UID);
        DurableCas::new("physics-vo", cred, 3600, SimClock::new(), plan, journal)
    }

    fn durable_cas(plan: CrashPlan) -> (SimOs, DurableCas) {
        let os = SimOs::new();
        os.add_host("cas-host");
        let mut cas = cas_process(&os, plan);
        cas.enroll(&dn("/O=G/CN=Alice"), vec!["group:analysts".into()]);
        cas.add_rule(
            SubjectMatch::Exact("group:analysts".to_string()),
            "dataset/*",
            "read",
            Effect::Permit,
        );
        (os, cas)
    }

    fn issue_request(user: &str) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_str(OP_ISSUE).put_str(user);
        e.finish()
    }

    #[test]
    fn membership_and_policy_survive_crash() {
        let (_os, mut cas) = durable_cas(CrashPlan::disabled());
        assert_eq!(cas.cas().member_count(), 1);
        cas.crash();
        assert_eq!(cas.cas().member_count(), 0, "crash wipes memory");
        cas.recover();
        assert_eq!(cas.cas().member_count(), 1, "journal replay restores");
        let reply = cas.handle("alice", 1, &issue_request("/O=G/CN=Alice"));
        assert!(matches!(Reply::decode(&reply), Some(Reply::Ok(_))));
    }

    /// A durable CAS behind its [`CrashableServer`] supervisor, and a
    /// client endpoint that frames requests itself so a test can
    /// retransmit any call id it likes.
    struct Served {
        cas: Rc<RefCell<DurableCas>>,
        plan: CrashPlan,
        client: Endpoint,
        sched: Scheduler,
    }

    fn served(plan: CrashPlan) -> Served {
        let (_os, cas) = durable_cas(plan.clone());
        serve(cas, plan)
    }

    fn serve(cas: DurableCas, plan: CrashPlan) -> Served {
        let cas = Rc::new(RefCell::new(cas));
        let net = Network::new();
        net.enable_faults(SimClock::new(), 0xCA5, FaultProfile::default());
        let mut sched = Scheduler::new(&net);
        CrashableServer::spawn(&mut sched, net.register("cas"), "cas", &plan, &cas);
        Served {
            cas,
            plan,
            client: net.register("alice"),
            sched,
        }
    }

    impl Served {
        /// Send call `id` asking for `user`'s assertion; the reply, or
        /// `None` if the process died handling it (the scheduler runs
        /// on through the restart).
        fn call(&mut self, id: u64, user: &str) -> Option<Vec<u8>> {
            self.client
                .send("cas", encode_request(id, &issue_request(user)))
                .unwrap();
            self.sched.run();
            let frame = self.client.try_recv()?;
            let (rid, body) = decode_reply(&frame.payload).expect("reply frame");
            assert_eq!(rid, id);
            Some(body.to_vec())
        }
    }

    #[test]
    fn retransmit_after_restart_gets_identical_assertion() {
        let mut s = served(CrashPlan::manual(2));
        let first = s.call(7, "/O=G/CN=Alice").unwrap();
        // Kill the process on another request; it restarts from the
        // journal before the retransmit of call 7 arrives.
        s.plan.arm("cas.issue.exec", 2);
        assert_eq!(s.call(9, "/O=G/CN=Alice"), None);
        assert_eq!(s.plan.restarts(), 1);
        let second = s.call(7, "/O=G/CN=Alice").unwrap();
        assert_eq!(first, second, "same call-id → byte-identical assertion");
        assert_eq!(
            s.cas.borrow().issued_count(),
            1,
            "only one assertion was issued"
        );
        // A genuinely new call-id issues again (bytes may coincide —
        // signing is deterministic and the clock is frozen — but the
        // journal records a second issuance).
        assert!(s.call(8, "/O=G/CN=Alice").is_some());
        assert_eq!(s.cas.borrow().issued_count(), 2);
    }

    #[test]
    fn a_new_process_over_the_journal_answers_committed_retransmits() {
        let (os, cas) = durable_cas(CrashPlan::disabled());
        let first = serve(cas, CrashPlan::disabled())
            .call(7, "/O=G/CN=Alice")
            .unwrap();
        // That process is gone; a second one is built over the journal
        // file it left and spawned: a first start, not a restart.
        let mut s = serve(
            cas_process(&os, CrashPlan::disabled()),
            CrashPlan::disabled(),
        );
        let again = s.call(7, "/O=G/CN=Alice").unwrap();
        assert_eq!(first, again, "the committed reply, not a new issue");
        assert_eq!(s.cas.borrow().issued_count(), 1, "issued once");
        assert!(s.plan.transcript().is_empty(), "no restart line");
    }

    #[test]
    fn crash_between_journal_and_reply_does_not_double_issue() {
        let plan = CrashPlan::manual(2);
        plan.arm("cas.issue.journaled", 1);
        let mut s = served(plan);
        // First execution commits the assertion, then the latched crash
        // fires and the supervisor discards the reply.
        assert_eq!(s.call(3, "/O=G/CN=Alice"), None, "kill point fired");
        assert_eq!(s.plan.crashes(), 1);
        let replayed = s.call(3, "/O=G/CN=Alice").unwrap();
        assert!(matches!(Reply::decode(&replayed), Some(Reply::Ok(_))));
        assert_eq!(s.cas.borrow().issued_count(), 1, "no duplicate side effect");
    }

    #[test]
    fn refusals_are_journaled_and_stable_too() {
        let mut s = served(CrashPlan::manual(2));
        let refusal = s.call(1, "/O=G/CN=Mallory").unwrap();
        assert_eq!(
            Reply::decode(&refusal),
            Some(Reply::Absent(b"not a VO member".to_vec()))
        );
        s.plan.arm("cas.issue.exec", 2);
        assert_eq!(s.call(2, "/O=G/CN=Alice"), None);
        assert_eq!(
            s.plan.transcript()[1],
            "[t=2] restart svc=cas replayed=1",
            "the refusal's commit record came back"
        );
        let again = s.call(1, "/O=G/CN=Mallory").unwrap();
        assert_eq!(refusal, again);
        assert_eq!(s.cas.borrow().issued_count(), 0);
    }
}
