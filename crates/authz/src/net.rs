//! The Figure-2 CAS exchange across the simulated network.
//!
//! Step 1 of the paper's CAS flow — "user asks the CAS server for a
//! signed capability assertion" — becomes a remote call that must
//! survive drop/duplicate/reorder faults. The request rides the
//! at-most-once RPC layer ([`gridsec_testbed::rpc`]); issuing an
//! assertion is read-only on the CAS side, but the reply cache still
//! pins one deterministic assertion per call, so a duplicated request
//! cannot yield two assertions with different validity windows.
//!
//! Wire format (via [`gridsec_pki::encoding`]): request
//! `"cas-issue" ‖ subject-DN`; the reply is a [`Reply`] envelope:
//! `Ok(assertion-bytes)`, `Absent("not a VO member")` or
//! `Refused(reason)`.

use crate::cas::{CasAssertion, CasServer};
use crate::AuthzError;
use gridsec_pki::encoding::{Codec, Decoder, Encoder};
use gridsec_pki::name::DistinguishedName;
use gridsec_testbed::clock::SimClock;
use gridsec_testbed::rpc::{Reply, RpcClient};
use gridsec_util::trace;
use std::rc::Rc;

/// Op tag for assertion issuance.
pub(crate) const OP_ISSUE: &str = "cas-issue";

/// The CAS server behind an RPC endpoint: plug [`CasService::handle`]
/// into a [`ServerTask`][gridsec_testbed::rpc::ServerTask] over an
/// `RpcServer`. Issuance timestamps come from the shared [`SimClock`], so a
/// retransmitted request answered from the reply cache carries the
/// validity window of the *first* execution — exactly what a client
/// that saw the first reply get lost expects.
pub struct CasService {
    cas: Rc<CasServer>,
    clock: SimClock,
}

impl CasService {
    /// Serve `cas`, stamping assertions with `clock` time.
    pub fn new(cas: Rc<CasServer>, clock: SimClock) -> Self {
        CasService { cas, clock }
    }

    /// Handle one request frame; returns the reply frame. Malformed
    /// input and non-members get error replies, never panics.
    pub fn handle(&mut self, from: &str, payload: &[u8]) -> Vec<u8> {
        let _sp = trace::span_with("cas.issue", &format!("from={from}"));
        self.issue(payload).encode()
    }

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

/// Fetch a CAS assertion for `user` over `rpc`, retrying per the
/// client's policy. A relying party checks it, once it rides in a
/// restricted proxy, in [`ResourceGate::permits`][crate::cas::ResourceGate::permits]
/// — this function only moves it across the faulty wire.
pub fn fetch_assertion(
    rpc: &mut RpcClient,
    user: &DistinguishedName,
) -> Result<CasAssertion, AuthzError> {
    let mut sp = trace::span_with("cas.fetch", &format!("user={user}"));
    let result = (|| {
        let mut e = Encoder::new();
        e.put_str(OP_ISSUE).put_str(&user.to_string());
        let raw = rpc
            .call(&e.finish())
            .map_err(|err| AuthzError::Transport(err.to_string()))?;
        match Reply::decode(&raw) {
            Some(Reply::Ok(body)) => {
                let mut ad = Decoder::new(&body);
                let assertion = CasAssertion::decode(&mut ad)
                    .map_err(|_| AuthzError::Decode("bad assertion bytes"))?;
                trace::event(
                    "cas.assertion.received",
                    &format!("vo={}", assertion.tbs.vo),
                );
                trace::add("cas.assertions_fetched", 1);
                Ok(assertion)
            }
            Some(Reply::Absent(reason)) => Err(AuthzError::Refused(
                String::from_utf8_lossy(&reason).into_owned(),
            )),
            Some(Reply::Refused(reason)) => Err(AuthzError::Refused(reason)),
            None => Err(AuthzError::Decode("malformed cas reply")),
        }
    })();
    if let Err(e) = &result {
        sp.fail(&e.to_string());
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Effect, Rule, SubjectMatch};
    use gridsec_crypto::rng::ChaChaRng;
    use gridsec_pki::ca::CertificateAuthority;
    use gridsec_testbed::net::{FaultProfile, Network};
    use gridsec_testbed::rpc::{RpcClient, RpcServer, ServerTask};
    use gridsec_testbed::sched::Scheduler;
    use gridsec_util::retry::RetryPolicy;

    fn dn(s: &str) -> DistinguishedName {
        DistinguishedName::parse(s).unwrap()
    }

    fn cas_world() -> (Rc<CasServer>, DistinguishedName) {
        let mut rng = ChaChaRng::from_seed_bytes(b"cas net tests");
        let ca = CertificateAuthority::create_root(&mut rng, dn("/O=VO/CN=CA"), 512, 0, 1_000_000);
        let cred = ca.issue_identity(&mut rng, dn("/O=VO/CN=CAS"), 512, 0, 100_000);
        let cas = Rc::new(CasServer::new("physics-vo", cred, 3600));
        let user = dn("/O=G/CN=Alice");
        cas.enroll(&user, vec!["group:analysts".into()]);
        cas.add_rule(Rule::new(
            SubjectMatch::Exact("group:analysts".to_string()),
            "dataset/*",
            "read",
            Effect::Permit,
        ));
        (cas, user)
    }

    /// `cas` served as a task on the returned scheduler.
    fn serve(net: &Network, cas: Rc<CasServer>, clock: SimClock) -> Scheduler {
        let mut service = CasService::new(cas, clock);
        let mut sched = Scheduler::new(net);
        sched.spawn_mailbox(
            "cas",
            ServerTask::new(
                RpcServer::new(net.register("cas")),
                move |from: &str, body: &[u8]| service.handle(from, body),
            ),
        );
        sched
    }

    fn fetch_over(net: &Network, clock: SimClock) -> (CasAssertion, Rc<CasServer>) {
        let (cas, user) = cas_world();
        let _sched = serve(net, cas.clone(), clock);
        let mut rpc = RpcClient::new(
            net.register("alice"),
            "cas",
            RetryPolicy {
                max_attempts: 8,
                base_timeout: 16,
                multiplier: 2,
                max_timeout: 64,
            },
        );
        let assertion = fetch_assertion(&mut rpc, &user).unwrap();
        (assertion, cas)
    }

    #[test]
    fn fetches_over_perfect_network() {
        let net = Network::new();
        let (assertion, cas) = fetch_over(&net, SimClock::new());
        assert!(assertion.verify(cas.public_key()));
        assert_eq!(assertion.tbs.vo, "physics-vo");
        assert_eq!(assertion.tbs.subject, dn("/O=G/CN=Alice"));
    }

    #[test]
    fn fetches_under_lossy_wan_with_valid_window() {
        let net = Network::new();
        let clock = SimClock::new();
        net.enable_faults(clock.clone(), 0xCA5, FaultProfile::lossy_wan());
        let (assertion, cas) = fetch_over(&net, clock.clone());
        assert!(assertion.verify(cas.public_key()));
        // The window was stamped at first execution; even after retries
        // advanced the clock, the assertion is valid *now*.
        let now = clock.now();
        assert!(assertion.tbs.not_before <= now && now < assertion.tbs.not_after);
    }

    #[test]
    fn non_member_is_refused_not_transport_error() {
        let net = Network::new();
        let (cas, _user) = cas_world();
        let _sched = serve(&net, cas, SimClock::new());
        let mut rpc = RpcClient::new(net.register("mallory"), "cas", RetryPolicy::default());
        match fetch_assertion(&mut rpc, &dn("/O=G/CN=Mallory")) {
            Err(AuthzError::Refused(_)) => {}
            other => panic!("expected Refused, got {other:?}"),
        }
    }
}
