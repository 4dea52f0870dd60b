//! Proxy renewal under faults: a scheduler task that keeps a session's
//! delegated proxy alive across a long-running job.
//!
//! A GRAM job can easily outlive the twelve-hour proxy that launched it
//! (paper §3's short-lived credentials are a *feature* — the blast
//! radius of a stolen proxy is its remaining lifetime). The renewal
//! agent watches [`Session::remaining`] from inside the discrete-event
//! scheduler and, once the credential enters its *grace window*,
//! re-acquires a fresh short-lived proxy from the MyProxy repository
//! ([`gridsec_services::myproxy`]) over the faulty network.
//!
//! ## Degraded modes — explicit, typed, never a panic or a hang
//!
//! * **Active** — renewals are landing; the session's `not_after`
//!   keeps moving ahead of `now`.
//! * **Degraded** — a renewal attempt failed (retries exhausted, or
//!   the repository refused). The job keeps running on the credential
//!   it still holds; the agent keeps retrying on a fixed pause.
//! * **FailedClosed** — the credential reached hard expiry with no
//!   renewal landed. The agent records a typed [`CredentialExpired`]
//!   fault and stops. Nothing panics, nothing spins: the scheduler
//!   run completes and the fault is inspectable.
//! * **Completed** — the job's window (`run_until`) elapsed while the
//!   credential was still valid; the agent retires quietly.

use std::cell::RefCell;
use std::rc::Rc;

use gridsec_crypto::rng::ChaChaRng;
use gridsec_crypto::rsa::RsaKeyPair;
use gridsec_services::myproxy::{self, OP_RENEW};
use gridsec_testbed::net::Endpoint;
use gridsec_testbed::rpc::{CallPoll, PollingCall};
use gridsec_testbed::sched::{Step, Task, TaskCx};
use gridsec_util::retry::RetryPolicy;
use gridsec_util::trace;

use crate::sso::Session;

/// The typed fault a renewal-starved job fails closed with: the
/// credential reached hard expiry and every renewal path was exhausted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CredentialExpired {
    /// Subject of the expired proxy.
    pub subject: String,
    /// The hard expiry that was reached.
    pub not_after: u64,
    /// Sim time when the agent observed expiry.
    pub now: u64,
}

impl core::fmt::Display for CredentialExpired {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "credential expired: subject={} not_after={} now={}",
            self.subject, self.not_after, self.now
        )
    }
}

impl std::error::Error for CredentialExpired {}

/// Where the agent is in its lifecycle (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AgentState {
    /// Renewals landing on schedule.
    Active,
    /// Last attempt failed; running on the remaining lifetime.
    Degraded,
    /// Hard expiry reached — [`RenewalStatus::fault`] is set.
    FailedClosed,
    /// The job's window elapsed with a valid credential.
    Completed,
}

/// Shared agent outcome, observable from outside the scheduler.
#[derive(Debug, Clone)]
pub struct RenewalStatus {
    /// Renewals that landed.
    pub renewals: u64,
    /// Renewal attempts that failed (exhausted or refused).
    pub failed_attempts: u64,
    /// Lifecycle state.
    pub state: AgentState,
    /// Set exactly when `state == FailedClosed`.
    pub fault: Option<CredentialExpired>,
}

impl Default for RenewalStatus {
    fn default() -> Self {
        RenewalStatus {
            renewals: 0,
            failed_attempts: 0,
            state: AgentState::Active,
            fault: None,
        }
    }
}

/// Renewal agent knobs.
#[derive(Clone, Debug)]
pub struct RenewalConfig {
    /// Renew once remaining lifetime drops to this many sim-seconds.
    pub grace: u64,
    /// Lifetime to request for each renewed proxy.
    pub lifetime: u64,
    /// Key size for renewed proxies.
    pub key_bits: usize,
    /// Per-attempt RPC retry/backoff schedule.
    pub policy: RetryPolicy,
    /// Pause between failed attempts while degraded.
    pub retry_pause: u64,
    /// Sim time at which the watched job ends and the agent retires.
    pub run_until: u64,
}

impl Default for RenewalConfig {
    fn default() -> Self {
        RenewalConfig {
            grace: 600,
            lifetime: 3_600,
            key_bits: 512,
            policy: RetryPolicy {
                max_attempts: 6,
                base_timeout: 16,
                multiplier: 2,
                max_timeout: 128,
            },
            retry_pause: 64,
            run_until: u64::MAX,
        }
    }
}

/// The renewal agent: spawn with [`gridsec_testbed::sched::Scheduler::spawn_mailbox`]
/// on its own endpoint. It shares the session (so the job sees renewed
/// credentials) and its status (so the harness sees the outcome).
pub struct RenewalAgent {
    ep: Endpoint,
    repo: String,
    owner: String,
    passphrase: String,
    session: Rc<RefCell<Session>>,
    status: Rc<RefCell<RenewalStatus>>,
    config: RenewalConfig,
    rng: ChaChaRng,
    call: Option<(PollingCall, RsaKeyPair)>,
    next_id: u64,
    retry_at: u64,
}

impl RenewalAgent {
    /// Build an agent renewing `session` against the repository task
    /// reachable at mailbox `repo`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        ep: Endpoint,
        repo: &str,
        owner: &str,
        passphrase: &str,
        seed: &[u8],
        session: Rc<RefCell<Session>>,
        status: Rc<RefCell<RenewalStatus>>,
        config: RenewalConfig,
    ) -> Self {
        RenewalAgent {
            ep,
            repo: repo.to_string(),
            owner: owner.to_string(),
            passphrase: passphrase.to_string(),
            session,
            status,
            config,
            rng: ChaChaRng::from_seed_bytes(seed),
            call: None,
            next_id: 0,
            retry_at: 0,
        }
    }

    fn fail_attempt(&mut self, now: u64) -> Step {
        self.call = None;
        self.retry_at = now.saturating_add(self.config.retry_pause.max(1));
        let mut st = self.status.borrow_mut();
        st.failed_attempts += 1;
        st.state = AgentState::Degraded;
        trace::add("renewal.degraded", 1);
        Step::Yield
    }
}

impl Task for RenewalAgent {
    fn step(&mut self, cx: &TaskCx) -> Step {
        let now = cx.now();
        let (not_after, subject, expired) = {
            let s = self.session.borrow();
            let cert = s.credential().certificate();
            (
                cert.tbs.validity.not_after,
                cert.subject().to_string(),
                s.is_expired(now),
            )
        };
        if expired {
            // Hard expiry with no renewal landed: fail closed with a
            // typed fault — the job must not keep authenticating on a
            // dead credential, and the agent must not spin.
            let mut st = self.status.borrow_mut();
            st.state = AgentState::FailedClosed;
            st.fault = Some(CredentialExpired {
                subject,
                not_after,
                now,
            });
            trace::add("renewal.fail_closed", 1);
            return Step::Done;
        }
        if now >= self.config.run_until {
            self.status.borrow_mut().state = AgentState::Completed;
            return Step::Done;
        }
        if self.call.is_none() {
            let due = if self.retry_at > now {
                self.retry_at
            } else {
                not_after.saturating_sub(self.config.grace)
            };
            if now < due {
                // Wake at the grace point (or retry point), or at hard
                // expiry / job end, whichever lands first.
                let wake = due.min(not_after + 1).min(self.config.run_until);
                return Step::Sleep(wake);
            }
            let key = RsaKeyPair::generate(&mut self.rng, self.config.key_bits);
            let req = myproxy::encode_issue_request(
                OP_RENEW,
                &self.owner,
                &self.passphrase,
                key.public(),
                self.config.lifetime,
            );
            self.next_id += 1;
            self.call = Some((
                PollingCall::new(&self.repo, self.next_id, &req, self.config.policy),
                key,
            ));
            trace::add("renewal.attempts", 1);
        }
        let (call, _) = self.call.as_mut().expect("call ensured above");
        match call.poll(&self.ep, now) {
            CallPoll::Ready(reply) => {
                let (_, key) = self.call.take().expect("call present on Ready");
                match myproxy::decode_verdict(&reply)
                    .and_then(|body| myproxy::assemble_issued(&body, key))
                {
                    Ok(credential) => {
                        *self.session.borrow_mut() = Session::from_credential(credential, now);
                        self.retry_at = 0;
                        let mut st = self.status.borrow_mut();
                        st.renewals += 1;
                        st.state = AgentState::Active;
                        trace::add("renewal.renewed", 1);
                        Step::Yield
                    }
                    // Refused (credential destroyed, repository lost the
                    // store, ...): degraded — ride out the remaining
                    // lifetime, keep retrying.
                    Err(_) => self.fail_attempt(now),
                }
            }
            CallPoll::Wait { deadline } => Step::WaitMail {
                // Cap at hard expiry so a silent repository cannot
                // delay the fail-closed transition.
                deadline: Some(deadline.min(not_after + 1)),
            },
            CallPoll::Exhausted => self.fail_attempt(now),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sso::{grid_proxy_init, ProxyOptions};
    use gridsec_pki::ca::CertificateAuthority;
    use gridsec_pki::credential::Credential;
    use gridsec_pki::name::DistinguishedName;
    use gridsec_pki::store::TrustStore;
    use gridsec_pki::validate::validate_chain;
    use gridsec_services::myproxy::MyProxyServer;
    use gridsec_testbed::clock::SimClock;
    use gridsec_testbed::faults::{CrashPlan, CrashableServer, Journal};
    use gridsec_testbed::net::{FaultProfile, Network};
    use gridsec_testbed::os::{SimOs, ROOT_UID};
    use gridsec_testbed::rpc::{RpcClient, ServerTask};
    use gridsec_testbed::sched::Scheduler;

    fn dn(s: &str) -> DistinguishedName {
        DistinguishedName::parse(s).unwrap()
    }

    struct Rig {
        net: Network,
        clock: SimClock,
        trust: TrustStore,
        rng: ChaChaRng,
        jane: Credential,
        app: Rc<RefCell<MyProxyServer>>,
        plan: CrashPlan,
        /// Hosts the repository task; [`spawn_world`] adds the agent.
        sched: Scheduler,
    }

    /// A repository task with Jane's credential stored, on a faulty
    /// network.
    fn rig(plan: CrashPlan) -> Rig {
        let mut rng = ChaChaRng::from_seed_bytes(b"renewal tests");
        let ca = CertificateAuthority::create_root(&mut rng, dn("/O=G/CN=CA"), 512, 0, 1_000_000);
        let jane = ca.issue_identity(&mut rng, dn("/O=G/CN=Jane"), 512, 0, 500_000);
        let mut trust = TrustStore::new();
        trust.add_root(ca.certificate().clone());

        let clock = SimClock::new();
        let os = SimOs::new();
        os.add_host("repo");
        let journal = Journal::open(os, "repo", "/var/myproxy/journal.wal", ROOT_UID);
        let app = Rc::new(RefCell::new(MyProxyServer::new(
            clock.clone(),
            b"renewal repo",
            plan.clone(),
            journal.clone(),
            100_000,
        )));
        let net = Network::new();
        net.enable_faults(clock.clone(), 0x7E4E, FaultProfile::default());
        let mut sched = Scheduler::new(&net);
        sched.spawn_mailbox(
            "repo",
            ServerTask::new(
                CrashableServer::new(net.register("repo"), "myproxy", plan.clone(), journal, true),
                app.clone(),
            ),
        );

        // Seed the store with Jane's credential via a plain RPC client.
        let mut rpc = RpcClient::new(
            net.register("seeder"),
            "repo",
            RetryPolicy {
                max_attempts: 8,
                base_timeout: 16,
                multiplier: 2,
                max_timeout: 64,
            },
        );
        myproxy::store_credential(&mut rpc, &mut rng, "jane", "s3cret", &jane, 0, 400_000).unwrap();

        Rig {
            net,
            clock,
            trust,
            rng,
            jane,
            app,
            plan,
            sched,
        }
    }

    fn spawn_world(
        r: &mut Rig,
        config: RenewalConfig,
        passphrase: &str,
        initial_lifetime: u64,
    ) -> (Rc<RefCell<Session>>, Rc<RefCell<RenewalStatus>>) {
        let session = grid_proxy_init(
            &mut r.rng,
            &r.jane,
            ProxyOptions {
                lifetime: initial_lifetime,
                ..ProxyOptions::default()
            },
            r.clock.now(),
        )
        .unwrap();
        let session = Rc::new(RefCell::new(session));
        let status = Rc::new(RefCell::new(RenewalStatus::default()));
        r.sched.spawn_mailbox(
            "agent",
            RenewalAgent::new(
                r.net.register("agent"),
                "repo",
                "jane",
                passphrase,
                b"agent seed",
                session.clone(),
                status.clone(),
                config,
            ),
        );
        (session, status)
    }

    #[test]
    fn agent_renews_ahead_of_expiry_across_a_long_job() {
        let mut r = rig(CrashPlan::disabled());
        let config = RenewalConfig {
            grace: 500,
            lifetime: 2_000,
            run_until: 20_000,
            ..RenewalConfig::default()
        };
        let (session, status) = spawn_world(&mut r, config, "s3cret", 2_000);
        r.sched.run();
        let st = status.borrow();
        assert_eq!(st.state, AgentState::Completed, "{st:?}");
        assert!(st.fault.is_none());
        assert!(st.renewals >= 5, "renewed across the window: {st:?}");
        // The surviving session is a repository-issued delegation chain
        // that still validates.
        let s = session.borrow();
        assert!(!s.is_expired(r.clock.now().min(20_000)));
        let id = validate_chain(s.credential().chain(), &r.trust, s.created_at()).unwrap();
        assert_eq!(id.base_identity, dn("/O=G/CN=Jane"));
    }

    #[test]
    fn renewal_denied_fails_closed_with_typed_fault_at_hard_expiry() {
        let mut r = rig(CrashPlan::disabled());
        let config = RenewalConfig {
            grace: 500,
            lifetime: 2_000,
            retry_pause: 100,
            run_until: 50_000,
            ..RenewalConfig::default()
        };
        // Wrong passphrase: every renewal is refused; the job rides its
        // remaining lifetime, then fails closed — no panic, no hang.
        let (session, status) = spawn_world(&mut r, config, "wrong", 2_000);
        r.sched.run();
        let st = status.borrow();
        assert_eq!(st.state, AgentState::FailedClosed, "{st:?}");
        assert!(st.failed_attempts > 0, "degraded mode was visited: {st:?}");
        let fault = st.fault.as_ref().expect("typed fault recorded");
        let not_after = session
            .borrow()
            .credential()
            .certificate()
            .tbs
            .validity
            .not_after;
        assert_eq!(fault.not_after, not_after);
        assert!(fault.now > fault.not_after, "failed at hard expiry");
        assert_eq!(st.renewals, 0);
    }

    #[test]
    fn repository_crash_mid_renewal_is_exactly_once() {
        let plan = CrashPlan::manual(3);
        let mut r = rig(plan);
        // Kill in the worst window of the FIRST in-scheduler renewal:
        // the issue is journaled but the reply is lost. The agent's
        // retransmission must be answered with the same proxy.
        r.plan.arm("myproxy.issue.journaled", 1);
        let config = RenewalConfig {
            grace: 500,
            lifetime: 2_000,
            run_until: 6_000,
            ..RenewalConfig::default()
        };
        let (_session, status) = spawn_world(&mut r, config, "s3cret", 2_000);
        r.sched.run();
        let st = status.borrow();
        assert_eq!(st.state, AgentState::Completed, "{st:?}");
        assert!(st.renewals >= 1);
        assert_eq!(r.plan.crashes(), 1, "the kill fired");
        assert_eq!(
            r.app.borrow().issued_count() as u64,
            st.renewals,
            "no duplicate issuance across the crash"
        );
    }
}
