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
//! Issued assertions are journaled keyed by `(caller, call-id)`, as the
//! exact [`Reply`] envelope bytes the caller was sent. That
//! closes the window where the application record is durable but the
//! RPC reply-cache record is not: a retransmit that re-executes after a
//! restart finds the journaled assertion and returns those exact bytes
//! instead of signing a second assertion with a fresh validity window —
//! "one assertion issued" holds across any crash schedule.
//!
//! Kill points (see `testbed::faults`):
//!
//! * `cas.issue.exec` — before the assertion is signed (no side effect
//!   yet; the retransmit simply re-runs issuance).
//! * `cas.issue.journaled` — after the issuance record is durable but
//!   before the reply leaves (the retransmit is answered from the
//!   journal).

use crate::cas::CasServer;
use crate::net::CasService;
use crate::policy::{Effect, Rule, SubjectMatch};
use gridsec_pki::credential::Credential;
use gridsec_pki::encoding::{Decoder, Encoder};
use gridsec_pki::name::DistinguishedName;
use gridsec_testbed::clock::SimClock;
use gridsec_testbed::faults::{CrashPlan, CrashRecover, Journal};
use gridsec_testbed::rpc::Reply;
use gridsec_util::trace;
use std::collections::HashMap;
use std::rc::Rc;

/// Journal tag for an enrollment record.
pub const TAG_ENROLL: &str = "cas-enroll";
/// Journal tag for a VO policy rule record.
pub const TAG_RULE: &str = "cas-rule";
/// Journal tag for an issued-assertion record (keyed by caller+call-id).
pub const TAG_ISSUED: &str = "cas-issued";

/// A [`CasServer`] wrapped in write-ahead journaling and crash recovery.
///
/// Plug into a [`CrashableServer`][gridsec_testbed::faults::CrashableServer]
/// as its [`CrashRecover`] application. All VO setup must go through
/// [`enroll`][DurableCas::enroll] / [`add_rule`][DurableCas::add_rule]
/// so it lands in the journal.
pub struct DurableCas {
    vo: String,
    credential: Credential,
    assertion_lifetime: u64,
    clock: SimClock,
    plan: CrashPlan,
    journal: Journal,
    cas: Rc<CasServer>,
    service: CasService,
    /// (caller, call-id) → exact reply bytes already issued.
    issued: HashMap<(String, u64), Vec<u8>>,
}

impl DurableCas {
    /// Create a durable CAS for `vo`, journaling into `journal`. An
    /// existing journal (e.g. from a previous incarnation) is replayed
    /// immediately.
    pub fn new(
        vo: &str,
        credential: Credential,
        assertion_lifetime: u64,
        clock: SimClock,
        plan: CrashPlan,
        journal: Journal,
    ) -> Self {
        let cas = Rc::new(CasServer::new(vo, credential.clone(), assertion_lifetime));
        let service = CasService::new(cas.clone(), clock.clone());
        let mut durable = DurableCas {
            vo: vo.to_string(),
            credential,
            assertion_lifetime,
            clock,
            plan,
            journal,
            cas,
            service,
            issued: HashMap::new(),
        };
        durable.recover();
        durable
    }

    /// The live (possibly freshly recovered) CAS server.
    pub fn cas(&self) -> &Rc<CasServer> {
        &self.cas
    }

    /// Number of distinct assertions actually issued (journaled `Ok`
    /// replies). A retransmit answered from the journal does not count.
    pub fn issued_count(&self) -> usize {
        self.issued
            .values()
            .filter(|reply| matches!(Reply::decode(reply), Some(Reply::Ok(_))))
            .count()
    }

    /// Enroll a VO member: journaled, then applied.
    pub fn enroll(&self, user: &DistinguishedName, groups: Vec<String>) {
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
    pub fn add_rule(&self, subject: SubjectMatch, resource: &str, action: &str, effect: Effect) {
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

    fn apply_record(&mut self, tag: &str, body: &[u8]) {
        let mut d = Decoder::new(body);
        match tag {
            TAG_ENROLL => {
                let Ok(subject) = d.get_str() else { return };
                let Ok(groups) = d.get_seq(|g| g.get_str()) else {
                    return;
                };
                if let Ok(user) = DistinguishedName::parse(&subject) {
                    self.cas.enroll(&user, groups);
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
                    self.cas
                        .add_rule(Rule::new(subject, &resource, &action, effect));
                }
            }
            TAG_ISSUED => {
                let parsed = (|| {
                    let from = d.get_str()?;
                    let id = d.get_u64()?;
                    let reply = d.get_bytes()?;
                    Ok::<_, gridsec_pki::PkiError>((from, id, reply))
                })();
                if let Ok((from, id, reply)) = parsed {
                    self.issued.insert((from, id), reply);
                }
            }
            _ => {}
        }
    }
}

impl CrashRecover for DurableCas {
    fn handle(&mut self, from: &str, id: u64, body: &[u8]) -> Vec<u8> {
        let key = (from.to_string(), id);
        // Re-execution after a restart: the reply-cache record may have
        // been lost, but the issuance record is durable — answer with
        // the exact bytes already issued.
        if let Some(reply) = self.issued.get(&key) {
            trace::event("cas.issue.replayed", &format!("from={from} id={id}"));
            return reply.clone();
        }
        if self.plan.fires("cas.issue.exec") {
            return Vec::new();
        }
        let reply = self.service.handle(from, body);
        let mut e = Encoder::new();
        e.put_str(from).put_u64(id).put_bytes(&reply);
        self.journal
            .append(TAG_ISSUED, &e.finish())
            .expect("journal issued");
        if self.plan.fires("cas.issue.journaled") {
            return Vec::new();
        }
        self.issued.insert(key, reply.clone());
        reply
    }

    fn crash(&mut self) {
        // The process dies: every in-memory structure is gone.
        self.cas = Rc::new(CasServer::new(
            &self.vo,
            self.credential.clone(),
            self.assertion_lifetime,
        ));
        self.service = CasService::new(self.cas.clone(), self.clock.clone());
        self.issued.clear();
    }

    fn recover(&mut self) {
        self.crash();
        for (tag, body) in self.journal.records() {
            self.apply_record(&tag, &body);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsec_crypto::rng::ChaChaRng;
    use gridsec_pki::ca::CertificateAuthority;
    use gridsec_testbed::os::{SimOs, ROOT_UID};

    fn dn(s: &str) -> DistinguishedName {
        DistinguishedName::parse(s).unwrap()
    }

    fn durable_cas(plan: CrashPlan) -> (SimOs, DurableCas) {
        let mut rng = ChaChaRng::from_seed_bytes(b"durable cas tests");
        let ca = CertificateAuthority::create_root(&mut rng, dn("/O=VO/CN=CA"), 512, 0, 1_000_000);
        let cred = ca.issue_identity(&mut rng, dn("/O=VO/CN=CAS"), 512, 0, 100_000);
        let os = SimOs::new();
        os.add_host("cas-host");
        let journal = Journal::open(os.clone(), "cas-host", "/var/cas/journal.wal", ROOT_UID);
        let cas = DurableCas::new("physics-vo", cred, 3600, SimClock::new(), plan, journal);
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
        e.put_str(crate::net::OP_ISSUE).put_str(user);
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

    #[test]
    fn retransmit_after_restart_gets_identical_assertion() {
        let (_os, mut cas) = durable_cas(CrashPlan::disabled());
        let first = cas.handle("alice", 7, &issue_request("/O=G/CN=Alice"));
        cas.crash();
        cas.recover();
        let second = cas.handle("alice", 7, &issue_request("/O=G/CN=Alice"));
        assert_eq!(first, second, "same call-id → byte-identical assertion");
        assert_eq!(cas.issued_count(), 1, "only one assertion was issued");
        // A genuinely new call-id issues again (bytes may coincide —
        // signing is deterministic and the clock is frozen — but the
        // journal records a second issuance).
        let _ = cas.handle("alice", 8, &issue_request("/O=G/CN=Alice"));
        assert_eq!(cas.issued_count(), 2);
    }

    #[test]
    fn crash_between_journal_and_reply_does_not_double_issue() {
        let plan = CrashPlan::manual(2);
        plan.arm("cas.issue.journaled", 1);
        let (_os, mut cas) = durable_cas(plan.clone());
        // First execution journals the assertion, then the latched
        // crash fires; the supervisor would discard this reply.
        let _ = cas.handle("alice", 3, &issue_request("/O=G/CN=Alice"));
        assert!(plan.take_pending().is_some(), "kill point fired");
        cas.crash();
        cas.recover();
        let replayed = cas.handle("alice", 3, &issue_request("/O=G/CN=Alice"));
        assert!(matches!(Reply::decode(&replayed), Some(Reply::Ok(_))));
        assert_eq!(cas.issued_count(), 1, "no duplicate side effect");
    }

    #[test]
    fn refusals_are_journaled_and_stable_too() {
        let (_os, mut cas) = durable_cas(CrashPlan::disabled());
        let refusal = cas.handle("mallory", 1, &issue_request("/O=G/CN=Mallory"));
        assert_eq!(
            Reply::decode(&refusal),
            Some(Reply::Absent(b"not a VO member".to_vec()))
        );
        cas.crash();
        cas.recover();
        let again = cas.handle("mallory", 1, &issue_request("/O=G/CN=Mallory"));
        assert_eq!(refusal, again);
        assert_eq!(cas.issued_count(), 0);
    }
}
