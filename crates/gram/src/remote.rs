//! The Figure-4 GRAM flow across the simulated (faulty) network.
//!
//! [`Requestor::submit_job`][crate::Requestor::submit_job] runs steps
//! 1–7 in process; this module runs the same chain through the
//! at-most-once RPC layer ([`gridsec_testbed::rpc`]) so every leg —
//! submission, the step-7 token loop, delegation, job start — survives
//! drop/duplicate/reorder faults with retransmission and exponential
//! backoff. The server-side reply cache is what makes this safe: a
//! retransmitted `gram-submit` must not start a second LMJFS, and a
//! duplicated `gram-tok1`/`gram-tok3` must not re-step a handshake.
//!
//! Wire format (via [`gridsec_pki::encoding`]): every request is
//! `op ‖ mjs-handle ‖ body`; replies are `"ok" ‖ body` or
//! `"err" ‖ reason`. `gram-tok1` carries a ClientHello or, for a
//! requestor resuming an earlier job's session, a ResumeHello; an `err`
//! reply to a ResumeHello sends the requestor back to the full token
//! loop. The delegation tokens cross the wire in exactly the order of
//! the in-process flow — they are wrapped on the secured GSS channel,
//! whose sequence numbers make any other order fail.
//!
//! The requestor's client-side GRIM authorization is the in-process one
//! ([`crate::grim::authorize_mjs`]), remote-aware: the caller names the
//! host it *intended* to contact (`expected_host`), and the MJS's GRIM
//! credential must chain to that identity — the remote analogue of
//! checking `resource.host_identity()` in process.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use gridsec_crypto::rng::ChaChaRng;
use gridsec_gssapi::context::EstablishedContext;
use gridsec_gssapi::delegation::{self, PendingDelegation};
use gridsec_pki::credential::Credential;
use gridsec_pki::encoding::{Decoder, Encoder};
use gridsec_pki::name::DistinguishedName;
use gridsec_pki::proxy::ProxyType;
use gridsec_testbed::rpc::RpcClient;
use gridsec_util::trace;

use crate::requestor::{ActiveJob, MjsLink, Requestor};
use crate::resource::{GramResource, MjsAcceptor};
use crate::types::{JobDescription, JobState};
use crate::GramError;

/// Steps 1–6: deliver the signed job request, get back an MJS handle.
pub const OP_SUBMIT: &str = "gram-submit";
/// Step 7a: first GSS token to the MJS; reply carries token 2.
pub const OP_TOKEN1: &str = "gram-tok1";
/// Step 7b: finished token to the MJS; establishes the acceptor.
pub const OP_TOKEN3: &str = "gram-tok3";
/// Delegation round 1: wrapped request; reply carries the wrapped key.
pub const OP_DELEG_REQ: &str = "gram-deleg-req";
/// Delegation round 2: wrapped proxy chain; MJS finishes delegation.
pub const OP_DELEG_CHAIN: &str = "gram-deleg-chain";
/// Start command, wrapped on the secured channel.
pub const OP_START: &str = "gram-start";
/// Job state query.
pub const OP_STATE: &str = "gram-state";

fn request(op: &str, handle: &str, body: &[u8]) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_str(op).put_str(handle).put_bytes(body);
    e.finish()
}

fn reply_ok(body: &[u8]) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_str("ok").put_bytes(body);
    e.finish()
}

fn reply_err(reason: &str) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_str("err").put_bytes(reason.as_bytes());
    e.finish()
}

/// One RPC round: send `op ‖ handle ‖ body`, unwrap the `ok` body or
/// map the failure. Transport exhaustion becomes
/// [`GramError::Transport`]; a served `err` becomes `to_err(reason)`
/// so callers keep submission refusals distinct from context failures.
fn round(
    rpc: &mut RpcClient,
    op: &str,
    handle: &str,
    body: &[u8],
    to_err: impl FnOnce(String) -> GramError,
) -> Result<Vec<u8>, GramError> {
    trace::event("gram.round", &format!("op={op} handle={handle}"));
    let raw = rpc
        .call(&request(op, handle, body))
        .map_err(|e| GramError::Transport(e.to_string()))?;
    let mut d = Decoder::new(&raw);
    let status = d
        .get_str()
        .map_err(|_| GramError::Transport("malformed reply".into()))?;
    let payload = d
        .get_bytes()
        .map_err(|_| GramError::Transport("malformed reply".into()))?;
    match status.as_str() {
        "ok" => Ok(payload),
        _ => Err(to_err(String::from_utf8_lossy(&payload).into_owned())),
    }
}

/// The current wall time as the client sees it: the network's fault
/// clock when faults are armed (retries advance it, so a `now`
/// captured before submission can predate the GRIM proxy minted
/// during it), else the caller's fallback.
fn wall_now(rpc: &RpcClient, fallback: u64) -> u64 {
    rpc.endpoint()
        .network()
        .fault_clock()
        .map_or(fallback, |c| c.now())
}

/// Remote steps 1–7: submit the signed request over `rpc`, then run
/// [`connect_and_start_remote`] against the returned MJS handle.
///
/// `expected_host` is the host identity the requestor believes it is
/// talking to; the MJS is authorized only if its GRIM credential
/// chains to exactly that identity (§5.3 client-side authorization).
pub fn submit_job_remote(
    requestor: &mut Requestor,
    rpc: &mut RpcClient,
    description: &JobDescription,
    expected_host: &DistinguishedName,
    now: u64,
) -> Result<ActiveJob, GramError> {
    let mut sp = trace::span_with("gram.submit", &format!("host={expected_host}"));
    let result: Result<ActiveJob, GramError> = (|| {
        let job = submit_only(requestor, rpc, description, now)?;
        connect_and_start_remote(
            requestor,
            rpc,
            &job.handle,
            Some(&job.account),
            expected_host,
            now,
        )?;
        Ok(job)
    })();
    if let Err(e) = &result {
        sp.fail(&e.to_string());
    }
    result
}

/// Remote step 7 (mirrors
/// [`Requestor::connect_and_start`][crate::Requestor::connect_and_start]):
/// mutual authentication with the MJS over RPC, GRIM authorization
/// against `expected_host`, delegation, and the start command.
pub fn connect_and_start_remote(
    requestor: &mut Requestor,
    rpc: &mut RpcClient,
    handle: &str,
    expected_account: Option<&str>,
    expected_host: &DistinguishedName,
    now: u64,
) -> Result<(), GramError> {
    let mut sp = trace::span_with("gram.connect_start", &format!("handle={handle}"));
    let result =
        connect_and_start_inner(requestor, rpc, handle, expected_account, expected_host, now);
    if let Err(e) = &result {
        sp.fail(&e.to_string());
    }
    result
}

fn connect_and_start_inner(
    requestor: &mut Requestor,
    rpc: &mut RpcClient,
    handle: &str,
    expected_account: Option<&str>,
    expected_host: &DistinguishedName,
    now: u64,
) -> Result<(), GramError> {
    let ctxerr = |m: &str| GramError::Context(m.to_string());

    // Mutual authentication: the token loop — full or resumed — each
    // leg an RPC call. Validation time is re-read from the clock: the
    // submission's retransmissions may have pushed wall time past `now`,
    // and the GRIM proxy we are about to verify was minted at
    // server-side now.
    let now = wall_now(rpc, now);
    let gss_sp = trace::span_with("gram.gss_loop", &format!("handle={handle}"));
    let mut link = OverRpc { rpc, handle };
    let (mut my_ctx, ()) =
        requestor.authenticate_mjs(&mut link, expected_host, expected_account, now)?;
    let rpc = link.rpc;
    trace::event("gram.context.established", &format!("handle={handle}"));
    drop(gss_sp);

    // Client-side authorization of the MJS (as in process, except the
    // host identity is the one the caller intended).
    let policy = requestor
        .authorize_mjs(&my_ctx, expected_host, expected_account)
        .inspect_err(|e| trace::event("gram.grim.rejected", &e.to_string()))?;
    trace::event(
        "gram.grim.authorized",
        &format!("account={}", policy.account),
    );

    // Delegation, token for token as in process. The wrapped tokens are
    // sequence-numbered on the GSS channel, so the reply cache (not
    // re-execution) must answer any retransmission — which it does.
    let mut deleg_sp = trace::span_with("gram.delegation", &format!("handle={handle}"));
    let deleg: Result<(), GramError> = (|| {
        let d1 = delegation::request_delegation(&mut my_ctx);
        let d2 = round(rpc, OP_DELEG_REQ, handle, &d1, GramError::Context)?;
        let d3 = delegation::deliver_proxy(
            &mut my_ctx,
            &mut requestor.rng,
            &requestor.credential,
            &d2,
            ProxyType::Impersonation,
            now,
            requestor.delegation_lifetime,
        )
        .map_err(|e| ctxerr(&e.to_string()))?;
        round(rpc, OP_DELEG_CHAIN, handle, &d3, GramError::Context)?;
        trace::add("gram.delegations", 1);
        Ok(())
    })();
    if let Err(e) = &deleg {
        deleg_sp.fail(&e.to_string());
    }
    drop(deleg_sp);
    deleg?;

    // Start command over the secured channel.
    let start = my_ctx.wrap(b"start-job");
    round(rpc, OP_START, handle, &start, GramError::Context)?;
    trace::event("gram.job.started", &format!("handle={handle}"));
    Ok(())
}

/// Step 7's handshake tokens as `gram-tok1` / `gram-tok3` rounds.
struct OverRpc<'a> {
    rpc: &'a mut RpcClient,
    handle: &'a str,
}

impl MjsLink for OverRpc<'_> {
    type Half = ();
    type Theirs = ();

    fn hello(&mut self, _: &mut ChaChaRng, token: &[u8]) -> Result<(Vec<u8>, ()), GramError> {
        round(self.rpc, OP_TOKEN1, self.handle, token, GramError::Context).map(|t| (t, ()))
    }

    fn finished(&mut self, (): (), token: &[u8]) -> Result<(), GramError> {
        round(self.rpc, OP_TOKEN3, self.handle, token, GramError::Context).map(drop)
    }
}

/// Remote steps 1–7 with crash resilience: like [`submit_job_remote`],
/// but survives the service dying and restarting mid-chain.
///
/// The submission leg is safe to retry: the at-most-once RPC layer
/// absorbs retransmits, and a durable server
/// ([`DurableGram`][crate::durable::DurableGram]) answers a
/// re-executed submission from its journal. The step-7 leg holds
/// in-memory session state the server loses in a crash — a
/// [`Context`][GramError::Context] or
/// [`Transport`][GramError::Transport] failure there is answered by
/// re-running the whole handshake against the job the journal
/// preserved; the server's journaled start record keeps the job from
/// spawning twice.
pub fn submit_job_resilient(
    requestor: &mut Requestor,
    rpc: &mut RpcClient,
    description: &JobDescription,
    expected_host: &DistinguishedName,
    now: u64,
    max_attempts: u64,
) -> Result<ActiveJob, GramError> {
    let mut sp = trace::span_with("gram.submit_resilient", &format!("host={expected_host}"));
    let result: Result<ActiveJob, GramError> = (|| {
        let recoverable =
            |e: &GramError| matches!(e, GramError::Context(_) | GramError::Transport(_));
        let mut attempt = 0u64;
        // Land the submission.
        let job = loop {
            attempt += 1;
            match submit_only(requestor, rpc, description, now) {
                Ok(job) => break job,
                Err(e) if recoverable(&e) && attempt < max_attempts => {
                    trace::event("gram.reestablish", &format!("leg=submit cause={e}"));
                    trace::add("gram.reestablishes", 1);
                }
                Err(e) => return Err(e),
            }
        };
        // Drive step 7, re-establishing the security context from
        // scratch whenever the service's session state evaporates.
        loop {
            attempt += 1;
            match connect_and_start_remote(
                requestor,
                rpc,
                &job.handle,
                Some(&job.account),
                expected_host,
                now,
            ) {
                Ok(()) => return Ok(job),
                Err(e) if recoverable(&e) && attempt < max_attempts => {
                    trace::event("gram.reestablish", &format!("leg=start cause={e}"));
                    trace::add("gram.reestablishes", 1);
                }
                Err(e) => return Err(e),
            }
        }
    })();
    if let Err(e) = &result {
        sp.fail(&e.to_string());
    }
    result
}

/// Steps 1–6 only: deliver the signed request, decode the MJS handle.
fn submit_only(
    requestor: &mut Requestor,
    rpc: &mut RpcClient,
    description: &JobDescription,
    now: u64,
) -> Result<ActiveJob, GramError> {
    let signed = requestor.signed_request(description, now);
    let body = round(
        rpc,
        OP_SUBMIT,
        "",
        signed.as_bytes(),
        GramError::RequestRejected,
    )?;
    let mut d = Decoder::new(&body);
    let parse = |_: ()| GramError::Transport("malformed submit reply".into());
    let handle = d.get_str().map_err(|_| parse(()))?;
    let cold_start = d.get_u8().map_err(|_| parse(()))? != 0;
    let account = d.get_str().map_err(|_| parse(()))?;
    trace::event(
        "gram.submitted",
        &format!("handle={handle} cold_start={cold_start} account={account}"),
    );
    trace::add("gram.jobs_submitted", 1);
    Ok(ActiveJob {
        handle,
        cold_start,
        account,
    })
}

/// Query a job's state over `rpc`.
pub fn job_state_remote(rpc: &mut RpcClient, handle: &str) -> Result<JobState, GramError> {
    let body = round(rpc, OP_STATE, handle, &[], GramError::NoSuchJob)?;
    match body.as_slice() {
        b"unsubmitted" => Ok(JobState::Unsubmitted),
        b"active" => Ok(JobState::Active),
        b"done" => Ok(JobState::Done),
        b"cancelled" => Ok(JobState::Cancelled),
        b"failed" => Ok(JobState::Failed),
        _ => Err(GramError::Transport("unknown job state".into())),
    }
}

/// An established step-7 session the service keeps per (caller, MJS
/// handle) until the job starts.
struct Session {
    ctx: EstablishedContext,
    pending: Option<PendingDelegation>,
    delegated: Option<Credential>,
}

/// A [`GramResource`] served behind an RPC endpoint: plug
/// [`RemoteGram::handle`] into a
/// [`ServerTask`][gridsec_testbed::rpc::ServerTask] over an `RpcServer`.
/// The resource is shared via `Rc<RefCell<..>>` so the test scaffold
/// (or a chaos harness) can still advance its clock and inspect jobs
/// between calls.
pub struct RemoteGram {
    resource: Rc<RefCell<GramResource>>,
    rng: ChaChaRng,
    /// Step 7's half-open handshakes, awaiting token 3.
    handshakes: HashMap<(String, String), MjsAcceptor>,
    sessions: HashMap<(String, String), Session>,
}

impl RemoteGram {
    /// Serve `resource`; `rng_seed` seeds the service's randomness —
    /// step 7's handshakes and the delegation key an LMJFS generates on
    /// its first delegation — keeping runs reproducible.
    pub fn new(resource: Rc<RefCell<GramResource>>, rng_seed: &[u8]) -> Self {
        RemoteGram {
            resource,
            rng: ChaChaRng::from_seed_bytes(rng_seed),
            handshakes: HashMap::new(),
            sessions: HashMap::new(),
        }
    }

    /// The shared resource handle.
    pub fn resource(&self) -> Rc<RefCell<GramResource>> {
        self.resource.clone()
    }

    /// Handle one request frame; returns the reply frame. Malformed
    /// input and out-of-order session ops get `err` replies, never
    /// panics — faulty networks deliver garbage, and a service that
    /// crashes on it fails the paper's availability story.
    pub fn handle(&mut self, from: &str, payload: &[u8]) -> Vec<u8> {
        let mut d = Decoder::new(payload);
        let parsed = d
            .get_str()
            .and_then(|op| Ok((op, d.get_str()?, d.get_bytes()?)));
        let (op, handle, body) = match parsed {
            Ok(x) => x,
            Err(_) => return reply_err("malformed request"),
        };
        let mut sp = trace::span_with("gram.serve", &format!("op={op} from={from}"));
        match self.dispatch(from, &op, &handle, &body) {
            Ok(reply) => reply,
            Err(e) => {
                sp.fail(&e.to_string());
                reply_err(&e.to_string())
            }
        }
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
                Ok(reply_ok(&e.finish()))
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
                Ok(reply_ok(&token2))
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
                Ok(reply_ok(&[]))
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
                Ok(reply_ok(&d2))
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
                Ok(reply_ok(&[]))
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
                Ok(reply_ok(&[]))
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
                Ok(reply_ok(name))
            }
            _ => Err(ctxerr("unknown gram op")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::GramConfig;
    use gridsec_authz::gridmap::GridMapFile;
    use gridsec_pki::ca::CertificateAuthority;
    use gridsec_pki::store::TrustStore;
    use gridsec_testbed::clock::SimClock;
    use gridsec_testbed::net::{FaultProfile, Network};
    use gridsec_testbed::os::SimOs;
    use gridsec_testbed::rpc::{RpcClient, RpcServer, ServerTask};
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
        let mut rng = ChaChaRng::from_seed_bytes(b"gram remote tests");
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

    fn resource(w: &World) -> GramResource {
        let gridmap = GridMapFile::parse("\"/O=G/CN=Jane\" jdoe\n").unwrap();
        GramResource::install(
            SimOs::new(),
            w.clock.clone(),
            "compute1",
            w.trust.clone(),
            w.host_cred.clone(),
            &gridmap,
            GramConfig::default(),
        )
        .unwrap()
    }

    /// `service` as a task on the returned scheduler, plus a client of it.
    fn rpc_pair(net: &Network, mut service: RemoteGram) -> (RpcClient, Scheduler) {
        let mut sched = Scheduler::new(net);
        sched.spawn_mailbox(
            "mjs-host",
            ServerTask::new(
                RpcServer::new(net.register("mjs-host")),
                move |from: &str, body: &[u8]| service.handle(from, body),
            ),
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
        (rpc, sched)
    }

    fn submit_over(
        net: &Network,
        w: &World,
    ) -> (ActiveJob, Rc<RefCell<GramResource>>, RpcClient, Scheduler) {
        let shared = Rc::new(RefCell::new(resource(w)));
        let (mut rpc, sched) = rpc_pair(net, RemoteGram::new(shared.clone(), b"mjs rng"));
        let mut jane = Requestor::new(w.jane.clone(), w.trust.clone(), b"jane remote");
        let host = dn("/O=G/CN=host compute1");
        let job = submit_job_remote(
            &mut jane,
            &mut rpc,
            &JobDescription::new("/bin/sim"),
            &host,
            w.clock.now(),
        )
        .unwrap();
        (job, shared, rpc, sched)
    }

    #[test]
    fn full_chain_over_perfect_network() {
        let w = world();
        let net = Network::new();
        let (job, shared, mut rpc, _sched) = submit_over(&net, &w);
        assert!(job.cold_start);
        assert_eq!(job.account, "jdoe");
        assert_eq!(
            shared.borrow().job_state(&job.handle).unwrap(),
            JobState::Active
        );
        assert_eq!(
            job_state_remote(&mut rpc, &job.handle).unwrap(),
            JobState::Active
        );
    }

    #[test]
    fn full_chain_under_lossy_wan() {
        let w = world();
        let net = Network::new();
        net.enable_faults(w.clock.clone(), 0x6AA4, FaultProfile::lossy_wan());
        let (job, shared, mut rpc, _sched) = submit_over(&net, &w);
        assert_eq!(
            shared.borrow().job_state(&job.handle).unwrap(),
            JobState::Active
        );
        assert_eq!(
            job_state_remote(&mut rpc, &job.handle).unwrap(),
            JobState::Active
        );
        // The profile actually bit: something was dropped or duplicated,
        // and exactly one LMJFS/MJS chain was started regardless.
        let stats = net.fault_stats().unwrap();
        assert!(stats.dropped + stats.duplicated > 0, "{stats:?}");
        assert_eq!(shared.borrow().stats.cold_starts, 1);
    }

    #[test]
    fn wrong_expected_host_is_rejected_client_side() {
        let w = world();
        let net = Network::new();
        let shared = Rc::new(RefCell::new(resource(&w)));
        let (mut rpc, _sched) = rpc_pair(&net, RemoteGram::new(shared, b"mjs rng"));
        let mut jane = Requestor::new(w.jane.clone(), w.trust.clone(), b"jane remote");
        let err = submit_job_remote(
            &mut jane,
            &mut rpc,
            &JobDescription::new("/bin/sim"),
            &dn("/O=G/CN=host evil"),
            w.clock.now(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            GramError::GrimRejected("GRIM credential chains to the wrong host")
        );
    }

    #[test]
    fn partition_yields_transport_error_then_recovery() {
        let w = world();
        let net = Network::new();
        net.enable_faults(w.clock.clone(), 0x6AA5, FaultProfile::default());
        net.partition("jane", "mjs-host");
        let shared = Rc::new(RefCell::new(resource(&w)));
        let (mut rpc, _sched) = rpc_pair(&net, RemoteGram::new(shared.clone(), b"mjs rng"));
        let mut jane = Requestor::new(w.jane.clone(), w.trust.clone(), b"jane remote");
        let err = submit_job_remote(
            &mut jane,
            &mut rpc,
            &JobDescription::new("/bin/sim"),
            &dn("/O=G/CN=host compute1"),
            w.clock.now(),
        )
        .unwrap_err();
        assert!(matches!(err, GramError::Transport(_)), "{err:?}");

        net.heal_all();
        let job = submit_job_remote(
            &mut jane,
            &mut rpc,
            &JobDescription::new("/bin/sim"),
            &dn("/O=G/CN=host compute1"),
            w.clock.now(),
        )
        .unwrap();
        assert_eq!(
            shared.borrow().job_state(&job.handle).unwrap(),
            JobState::Active
        );
    }

    #[test]
    fn out_of_order_session_ops_get_err_replies() {
        let w = world();
        let shared = Rc::new(RefCell::new(resource(&w)));
        let mut service = RemoteGram::new(shared, b"mjs rng");
        // No handshake at all: every session op must refuse politely.
        for op in [OP_TOKEN3, OP_DELEG_REQ, OP_DELEG_CHAIN, OP_START] {
            let reply = service.handle("jane", &request(op, "mjs-0", b"junk"));
            let mut d = Decoder::new(&reply);
            assert_eq!(d.get_str().unwrap(), "err");
        }
        // Garbage frame.
        let reply = service.handle("jane", b"\xff\xfe");
        let mut d = Decoder::new(&reply);
        assert_eq!(d.get_str().unwrap(), "err");
    }
}
