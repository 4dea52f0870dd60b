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
//! `"cas-issue" ‖ subject-DN`; reply `"ok" ‖ assertion-bytes`,
//! `"none" ‖ reason`, or `"err" ‖ reason`.

use crate::cas::{CasAssertion, CasServer};
use crate::AuthzError;
use gridsec_pki::encoding::{Codec, Decoder, Encoder};
use gridsec_pki::name::DistinguishedName;
use gridsec_testbed::clock::SimClock;
use gridsec_testbed::rpc::RpcClient;
use gridsec_util::trace;
use std::sync::Arc;

/// Op tag for assertion issuance.
pub const OP_ISSUE: &str = "cas-issue";

/// The CAS server behind an RPC endpoint: plug [`CasService::handle`]
/// into a [`ServerTask`][gridsec_testbed::rpc::ServerTask] over an
/// `RpcServer`. Issuance timestamps come from the shared [`SimClock`], so a
/// retransmitted request answered from the reply cache carries the
/// validity window of the *first* execution — exactly what a client
/// that saw the first reply get lost expects.
pub struct CasService {
    cas: Arc<CasServer>,
    clock: SimClock,
}

impl CasService {
    /// Serve `cas`, stamping assertions with `clock` time.
    pub fn new(cas: Arc<CasServer>, clock: SimClock) -> Self {
        CasService { cas, clock }
    }

    /// Handle one request frame; returns the reply frame. Malformed
    /// input and non-members get error replies, never panics.
    pub fn handle(&mut self, from: &str, payload: &[u8]) -> Vec<u8> {
        let _sp = trace::span_with("cas.issue", &format!("from={from}"));
        let mut d = Decoder::new(payload);
        let parsed = d.get_str().and_then(|op| Ok((op, d.get_str()?)));
        let (op, subject) = match parsed {
            Ok(x) => x,
            Err(_) => return reply("err", b"malformed request"),
        };
        if op != OP_ISSUE {
            return reply("err", b"unknown cas op");
        }
        let Ok(user) = DistinguishedName::parse(&subject) else {
            return reply("err", b"bad subject DN");
        };
        match self.cas.issue_assertion(&user, self.clock.now()) {
            Some(assertion) => {
                trace::event("cas.decision", &format!("subject={subject} outcome=issued"));
                trace::add("cas.assertions_issued", 1);
                reply("ok", &assertion.to_bytes())
            }
            None => {
                trace::event(
                    "cas.decision",
                    &format!("subject={subject} outcome=refused"),
                );
                trace::add("cas.refusals", 1);
                reply("none", b"not a VO member")
            }
        }
    }
}

fn reply(status: &str, body: &[u8]) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_str(status).put_bytes(body);
    e.finish()
}

/// Fetch a CAS assertion for `user` over `rpc`, retrying per the
/// client's policy. The returned assertion is signature-checked by the
/// caller's [`ResourceGate`][crate::cas::ResourceGate] as usual — this
/// function only moves it across the faulty wire.
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
        let mut d = Decoder::new(&raw);
        let status = d
            .get_str()
            .map_err(|_| AuthzError::Decode("malformed cas reply"))?;
        let body = d
            .get_bytes()
            .map_err(|_| AuthzError::Decode("malformed cas reply"))?;
        match status.as_str() {
            "ok" => {
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
            _ => Err(AuthzError::Refused(
                String::from_utf8_lossy(&body).into_owned(),
            )),
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

    fn cas_world() -> (Arc<CasServer>, DistinguishedName) {
        let mut rng = ChaChaRng::from_seed_bytes(b"cas net tests");
        let ca = CertificateAuthority::create_root(&mut rng, dn("/O=VO/CN=CA"), 512, 0, 1_000_000);
        let cred = ca.issue_identity(&mut rng, dn("/O=VO/CN=CAS"), 512, 0, 100_000);
        let cas = Arc::new(CasServer::new("physics-vo", cred, 3600));
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
    fn serve(net: &Network, cas: Arc<CasServer>, clock: SimClock) -> Scheduler {
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

    fn fetch_over(net: &Network, clock: SimClock) -> (CasAssertion, Arc<CasServer>) {
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
