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
//! `Refused(reason)`. The server side is
//! [`DurableCas`][crate::durable::DurableCas].

use crate::cas::CasAssertion;
use crate::AuthzError;
use gridsec_pki::encoding::{Codec, Encoder};
use gridsec_pki::name::DistinguishedName;
use gridsec_testbed::rpc::{Reply, RpcClient};
use gridsec_util::trace;

/// Op tag for assertion issuance.
pub(crate) const OP_ISSUE: &str = "cas-issue";

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
                let assertion = CasAssertion::from_bytes(&body)
                    .map_err(|_| AuthzError::Decode("bad assertion bytes"))?;
                trace::event(
                    "cas.assertion.received",
                    &format!("vo={}", assertion.body().vo),
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
    use crate::durable::DurableCas;
    use crate::policy::{Effect, SubjectMatch};
    use gridsec_crypto::rng::ChaChaRng;
    use gridsec_pki::ca::CertificateAuthority;
    use gridsec_testbed::clock::SimClock;
    use gridsec_testbed::faults::{CrashPlan, CrashableServer, Journal};
    use gridsec_testbed::net::{FaultProfile, Network};
    use gridsec_testbed::os::{SimOs, ROOT_UID};
    use gridsec_testbed::rpc::RpcClient;
    use gridsec_testbed::sched::Scheduler;
    use gridsec_util::retry::RetryPolicy;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn dn(s: &str) -> DistinguishedName {
        DistinguishedName::parse(s).unwrap()
    }

    /// A CAS for `physics-vo` stamping assertions with `clock` time,
    /// with Alice enrolled, as a task on the returned scheduler.
    fn serve(net: &Network, clock: SimClock) -> (Rc<RefCell<DurableCas>>, Scheduler) {
        let mut rng = ChaChaRng::from_seed_bytes(b"cas net tests");
        let ca = CertificateAuthority::create_root(&mut rng, dn("/O=VO/CN=CA"), 512, 0, 1_000_000);
        let cred = ca.issue_identity(&mut rng, dn("/O=VO/CN=CAS"), 512, 0, 100_000);
        let os = SimOs::new();
        os.add_host("cas-host");
        let journal = Journal::open(os, "cas-host", "/var/cas/journal.wal", ROOT_UID);
        let plan = CrashPlan::disabled();
        let mut cas = DurableCas::new("physics-vo", cred, 3600, clock, plan.clone(), journal);
        cas.enroll(&dn("/O=G/CN=Alice"), vec!["group:analysts".into()]);
        cas.add_rule(
            SubjectMatch::Exact("group:analysts".to_string()),
            "dataset/*",
            "read",
            Effect::Permit,
        );
        let cas = Rc::new(RefCell::new(cas));
        let mut sched = Scheduler::new(net);
        CrashableServer::spawn(&mut sched, net.register("cas"), "cas", &plan, &cas);
        (cas, sched)
    }

    fn fetch_over(net: &Network, clock: SimClock) -> (CasAssertion, Rc<RefCell<DurableCas>>) {
        let (cas, _sched) = serve(net, clock);
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
        let assertion = fetch_assertion(&mut rpc, &dn("/O=G/CN=Alice")).unwrap();
        (assertion, cas)
    }

    #[test]
    fn fetches_over_perfect_network() {
        let net = Network::new();
        let (assertion, cas) = fetch_over(&net, SimClock::new());
        assert!(assertion.verify(cas.borrow().cas().public_key()));
        assert_eq!(assertion.body().vo, "physics-vo");
        assert_eq!(assertion.body().subject, dn("/O=G/CN=Alice"));
    }

    #[test]
    fn fetches_under_lossy_wan_with_valid_window() {
        let net = Network::new();
        let clock = SimClock::new();
        net.enable_faults(clock.clone(), 0xCA5, FaultProfile::lossy_wan());
        let (assertion, cas) = fetch_over(&net, clock.clone());
        assert!(assertion.verify(cas.borrow().cas().public_key()));
        // The window was stamped at first execution; even after retries
        // advanced the clock, the assertion is valid *now*.
        let now = clock.now();
        assert!(assertion.body().not_before <= now && now < assertion.body().not_after);
    }

    #[test]
    fn non_member_is_refused_not_transport_error() {
        let net = Network::new();
        let (_cas, _sched) = serve(&net, SimClock::new());
        let mut rpc = RpcClient::new(net.register("mallory"), "cas", RetryPolicy::default());
        match fetch_assertion(&mut rpc, &dn("/O=G/CN=Mallory")) {
            Err(AuthzError::Refused(_)) => {}
            other => panic!("expected Refused, got {other:?}"),
        }
    }
}
