//! GSS context establishment across the simulated network.
//!
//! [`crate::context::establish_in_memory`] drives the token loop with
//! both sides in one call frame; this module moves the same three
//! tokens over a [`gridsec_testbed::net::Network`] that may be dropping,
//! duplicating, and reordering datagrams. Each token exchange rides the
//! at-most-once RPC layer ([`gridsec_testbed::rpc`]):
//!
//! * the client retransmits with exponential backoff, so a lost token
//!   costs latency, not the context;
//! * the server's reply cache answers retransmitted or duplicated token
//!   frames without re-running the acceptor, which matters because
//!   answering token 1 is *not* idempotent — a second answer would start
//!   a second handshake with fresh randomness.
//!
//! Wire format (via [`gridsec_pki::encoding`]): requests are
//! `op ‖ token` where `op` is `"gss-tok1"`/`"gss-tok3"` for the full
//! handshake or `"gss-res1"`/`"gss-res3"` for the abbreviated
//! resumption handshake ([`gridsec_tls::session`]); replies are
//! `status ‖ body` with status `"ok"` or `"err"`. An `err` reply is the
//! acceptor's refusal; to a ResumeHello it means "no resumable session",
//! and the initiator falls back to the full token loop
//! ([`crate::context::resume_or_establish`]).

use crate::context::{
    resume_or_establish, AcceptorContext, EstablishedContext, InitiatorContext, LoopError,
};
use crate::GssError;
use gridsec_bignum::prime::EntropySource;
use gridsec_pki::encoding::{Decoder, Encoder};
use gridsec_testbed::rpc::RpcClient;
use gridsec_tls::handshake::TlsConfig;
use gridsec_tls::session::{
    ClientSessionCache, ServerSessionCache, DEFAULT_SESSION_CAPACITY, DEFAULT_SESSION_LIFETIME,
};
use gridsec_util::trace;
use std::collections::HashMap;

/// Op tag for the initiator's first token.
pub const OP_TOKEN1: &str = "gss-tok1";
/// Op tag for the initiator's finished token.
pub const OP_TOKEN3: &str = "gss-tok3";
/// Op tag for the resumption hello token.
pub const OP_RESUME1: &str = "gss-res1";
/// Op tag for the resumption finished token.
pub const OP_RESUME3: &str = "gss-res3";

fn request(op: &str, token: &[u8]) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_str(op).put_bytes(token);
    e.finish()
}

/// Parse an `op ‖ token` request frame.
pub fn parse_request(bytes: &[u8]) -> Result<(String, Vec<u8>), GssError> {
    let mut d = Decoder::new(bytes);
    let op = d
        .get_str()
        .map_err(|_| GssError::Transport("malformed gss request".into()))?;
    let token = d
        .get_bytes()
        .map_err(|_| GssError::Transport("malformed gss request".into()))?;
    Ok((op, token))
}

fn reply_ok(body: &[u8]) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_str("ok").put_bytes(body);
    e.finish()
}

fn reply_err(msg: &str) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_str("err").put_bytes(msg.as_bytes());
    e.finish()
}

/// One token exchange: an `err` reply is the acceptor's refusal, an
/// unreachable acceptor or a malformed reply a failure.
fn call(rpc: &mut RpcClient, op: &str, token: &[u8]) -> Result<Vec<u8>, LoopError<GssError>> {
    let raw = rpc
        .call(&request(op, token))
        .map_err(|e| LoopError::Failed(e.into()))?;
    let mut d = Decoder::new(&raw);
    let malformed = || LoopError::Failed(GssError::Transport("malformed gss reply".into()));
    let status = d.get_str().map_err(|_| malformed())?;
    let body = d.get_bytes().map_err(|_| malformed())?;
    if status == "ok" {
        Ok(body)
    } else {
        Err(LoopError::Refused(GssError::Transport(format!(
            "acceptor refused: {}",
            String::from_utf8_lossy(&body)
        ))))
    }
}

/// A full and a resumed token loop's span, op tags, events (token 1
/// sent, token 2 received, token 3 sent, done) and counter.
const FULL: [&str; 8] = [
    "gss.establish",
    OP_TOKEN1,
    OP_TOKEN3,
    "gss.token1.send",
    "gss.token2.recv",
    "gss.token3.send",
    "gss.established",
    "gss.contexts_established",
];
const RESUMED: [&str; 8] = [
    "gss.resume",
    OP_RESUME1,
    OP_RESUME3,
    "gss.resume1.send",
    "gss.resume2.recv",
    "gss.resume3.send",
    "gss.resumed",
    "gss.contexts_resumed",
];

/// The token loop over `rpc`, full or resumed: two RPC round trips.
fn token_loop(
    rpc: &mut RpcClient,
    init: InitiatorContext,
    token1: Vec<u8>,
) -> Result<EstablishedContext, LoopError<GssError>> {
    let [span, op1, op3, send1, recv2, send3, done, counter] =
        if init.resuming() { RESUMED } else { FULL };
    let mut sp = trace::span_with(span, &format!("server={}", rpc.server()));
    let result = (|| {
        trace::event(send1, &format!("len={}", token1.len()));
        let token2 = call(rpc, op1, &token1)?;
        trace::event(recv2, &format!("len={}", token2.len()));
        let (token3, context) = init.step(&token2).map_err(LoopError::Failed)?;
        trace::event(send3, &format!("len={}", token3.len()));
        call(rpc, op3, &token3)?;
        trace::event(done, &format!("peer={}", rpc.server()));
        trace::add(counter, 1);
        Ok(context)
    })();
    if let Err(LoopError::Refused(e) | LoopError::Failed(e)) = &result {
        sp.fail(&e.to_string());
    }
    result
}

/// Establish a GSS context through a client-side session cache:
/// [`resume_or_establish`] over `rpc`, re-run like
/// [`establish_initiator_resilient`] while a transport failure leaves
/// attempts. A resumption the acceptor refuses falls back to the full
/// handshake in the same attempt; the ticket is gone from `cache` once
/// offered, so a retry runs the full handshake. The resulting session is
/// (re)stored, so the *next* establishment to this server is the cheap
/// one.
pub fn establish_initiator_cached<E: EntropySource>(
    rpc: &mut RpcClient,
    config: TlsConfig,
    rng: &mut E,
    cache: &mut ClientSessionCache,
    max_attempts: u64,
) -> Result<EstablishedContext, GssError> {
    let server = rpc.server().to_string();
    let ctx = reestablishing(max_attempts, || {
        resume_or_establish(
            cache,
            Some(&server),
            config.now,
            config.epoch(),
            rng,
            || Ok(config.clone()),
            |_, init, token1| token_loop(rpc, init, token1),
        )
    })?;
    cache.store(&server, ctx.channel());
    Ok(ctx)
}

/// Establish a GSS context as the initiator, exchanging tokens through
/// `rpc` (which carries the retry policy; the acceptor runs as a task on
/// the scheduler bound to `rpc`'s network, inside each call), surviving
/// acceptor crashes: a [`GssError::Transport`] failure (retry budget exhausted
/// while the peer was down, or a reborn acceptor refusing a token it
/// has no session for) is answered by restarting the whole token loop.
/// Contexts are re-establishable by construction — the paper's §4
/// argument for stateless security services — so nothing is lost but
/// the handshake latency.
pub fn establish_initiator_resilient<E: EntropySource>(
    rpc: &mut RpcClient,
    config: TlsConfig,
    rng: &mut E,
    max_attempts: u64,
) -> Result<EstablishedContext, GssError> {
    reestablishing(max_attempts, || {
        let (init, token1) = InitiatorContext::new(config.clone(), rng);
        token_loop(rpc, init, token1).map_err(LoopError::into_inner)
    })
}

/// Run `attempt` until it succeeds, fails other than by a
/// [`GssError::Transport`], or `max_attempts` are spent.
fn reestablishing<T>(
    max_attempts: u64,
    mut attempt: impl FnMut() -> Result<T, GssError>,
) -> Result<T, GssError> {
    let mut attempts = 0u64;
    loop {
        attempts += 1;
        match attempt() {
            Err(GssError::Transport(cause)) if attempts < max_attempts => {
                trace::event("gss.reestablish", &format!("cause={cause}"));
                trace::add("gss.reestablishes", 1);
            }
            done => return done,
        }
    }
}

/// The acceptor side as a pollable service: plug
/// [`AcceptorService::handle`] into a
/// [`ServerTask`][gridsec_testbed::rpc::ServerTask] over an `RpcServer`.
/// One in-progress handshake, full or resumed, is tracked per calling
/// endpoint name; a fresh first token from the same caller abandons the
/// old attempt (the client gave up and started over).
pub struct AcceptorService<E: EntropySource> {
    config: TlsConfig,
    rng: E,
    pending: HashMap<String, AcceptorContext>,
    /// Resumable sessions, each filed under the trust epoch of `config`.
    sessions: ServerSessionCache,
    /// Conversations, not a cache: a trust change leaves them (ROADMAP 6).
    established: HashMap<String, EstablishedContext>,
}

impl<E: EntropySource> AcceptorService<E> {
    /// Service accepting contexts under `config`, drawing handshake
    /// entropy from `rng`.
    pub fn new(config: TlsConfig, rng: E) -> Self {
        AcceptorService {
            config,
            rng,
            pending: HashMap::new(),
            sessions: ServerSessionCache::new(DEFAULT_SESSION_CAPACITY, DEFAULT_SESSION_LIFETIME),
            established: HashMap::new(),
        }
    }

    /// The server-side session cache (hit/miss counters for tests and
    /// metrics).
    pub fn sessions(&self) -> &ServerSessionCache {
        &self.sessions
    }

    /// Handle one request frame from caller `from`; returns the reply
    /// frame. Never panics on malformed input — errors come back as
    /// `"err"` replies the initiator surfaces as [`GssError::Transport`].
    pub fn handle(&mut self, from: &str, payload: &[u8]) -> Vec<u8> {
        let _sp = trace::span_with("gss.accept", &format!("from={from}"));
        let (op, token) = match parse_request(payload) {
            Ok(x) => x,
            Err(_) => return reply_err("malformed request"),
        };
        trace::event("gss.accept.op", &format!("op={op} from={from}"));
        match op.as_str() {
            OP_TOKEN1 | OP_RESUME1 => {
                let config = &self.config;
                match AcceptorContext::accept(
                    &token,
                    &mut self.sessions,
                    config.now,
                    config.epoch(),
                    || config.clone(),
                    &mut self.rng,
                ) {
                    Ok((acceptor, token2)) => {
                        self.pending.insert(from.to_string(), acceptor);
                        reply_ok(&token2)
                    }
                    Err(e) => reply_err(&e.to_string()),
                }
            }
            OP_TOKEN3 | OP_RESUME3 => {
                let Some(acceptor) = self.pending.remove(from) else {
                    return reply_err("no handshake in progress");
                };
                let resumed = acceptor.resuming();
                match acceptor.step(&token) {
                    Ok(context) => {
                        // A resumed context rotates: it mints a fresh ticket.
                        self.sessions.store(context.channel());
                        if resumed {
                            trace::add("gss.accept.resumed", 1);
                        }
                        self.established.insert(from.to_string(), context);
                        reply_ok(b"")
                    }
                    Err(e) => reply_err(&e.to_string()),
                }
            }
            _ => reply_err("unknown gss op"),
        }
    }

    /// Take the established context for caller `from`, if the token
    /// loop completed.
    pub fn take_established(&mut self, from: &str) -> Option<EstablishedContext> {
        self.established.remove(from)
    }
}

/// An [`AcceptorService`] as a crash-recoverable application for
/// [`CrashableServer`][gridsec_testbed::faults::CrashableServer].
///
/// Security contexts are deliberately *not* journaled: they are
/// ephemeral by design (paper §4 — contexts can always be
/// re-established from credentials), and replaying half a handshake
/// would be both pointless and unsound. A crash loses every pending and
/// established context *and the session cache* — a reborn acceptor
/// refuses resumption tickets, which is exactly the signal
/// [`establish_initiator_cached`] turns into a full-handshake
/// fallback. Initiators recover via
/// [`establish_initiator_resilient`]. Serve it with
/// `persist_replies = false` so a reborn acceptor re-executes token
/// exchanges instead of replaying token frames whose session died.
///
/// Kill point: `gss.accept.exec` — before a token exchange executes.
pub struct CrashableAcceptor {
    config: TlsConfig,
    seed: Vec<u8>,
    generation: u64,
    plan: gridsec_testbed::faults::CrashPlan,
    service: AcceptorService<gridsec_crypto::rng::ChaChaRng>,
}

impl CrashableAcceptor {
    /// Accept under `config`; `seed` (mixed with a per-incarnation
    /// generation counter) seeds handshake entropy deterministically.
    pub fn new(config: TlsConfig, seed: &[u8], plan: gridsec_testbed::faults::CrashPlan) -> Self {
        let service = AcceptorService::new(
            config.clone(),
            gridsec_crypto::rng::ChaChaRng::from_seed_bytes(seed),
        );
        CrashableAcceptor {
            config,
            seed: seed.to_vec(),
            generation: 0,
            plan,
            service,
        }
    }

    /// The live acceptor service (for `take_established`).
    pub fn service(&mut self) -> &mut AcceptorService<gridsec_crypto::rng::ChaChaRng> {
        &mut self.service
    }
}

impl gridsec_testbed::faults::CrashRecover for CrashableAcceptor {
    fn handle(&mut self, from: &str, _id: u64, body: &[u8]) -> Vec<u8> {
        // A dedicated injection point for the abbreviated handshake, so
        // chaos harnesses can arm a kill *mid-resume* specifically: the
        // reborn acceptor has lost its session cache, which forces the
        // initiator down the full-handshake fallback path.
        let resume_op = matches!(
            parse_request(body),
            Ok((op, _)) if op == OP_RESUME1 || op == OP_RESUME3
        );
        if resume_op && self.plan.fires("gss.accept.resume") {
            return Vec::new();
        }
        if self.plan.fires("gss.accept.exec") {
            return Vec::new();
        }
        self.service.handle(from, body)
    }

    fn crash(&mut self) {
        self.generation += 1;
        let mut seed = self.seed.clone();
        seed.extend_from_slice(&self.generation.to_be_bytes());
        self.service = AcceptorService::new(
            self.config.clone(),
            gridsec_crypto::rng::ChaChaRng::from_seed_bytes(&seed),
        );
    }

    fn recover(&mut self) {
        // Nothing durable to replay: contexts are re-established, not
        // recovered.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsec_crypto::rng::ChaChaRng;
    use gridsec_pki::ca::CertificateAuthority;
    use gridsec_pki::credential::Credential;
    use gridsec_pki::name::DistinguishedName;
    use gridsec_pki::store::TrustStore;
    use gridsec_testbed::clock::SimClock;
    use gridsec_testbed::net::{FaultProfile, Network};
    use gridsec_testbed::rpc::{RpcClient, RpcServer, ServerTask};
    use gridsec_testbed::sched::Scheduler;
    use gridsec_util::retry::RetryPolicy;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn dn(s: &str) -> DistinguishedName {
        DistinguishedName::parse(s).unwrap()
    }

    struct World {
        rng: ChaChaRng,
        trust: TrustStore,
        alice: Credential,
        service: Credential,
    }

    fn world() -> World {
        let mut rng = ChaChaRng::from_seed_bytes(b"gss net tests");
        let ca = CertificateAuthority::create_root(&mut rng, dn("/O=G/CN=CA"), 512, 0, 1_000_000);
        let alice = ca.issue_identity(&mut rng, dn("/O=G/CN=Alice"), 512, 0, 100_000);
        let service = ca.issue_identity(&mut rng, dn("/O=G/CN=MJS"), 512, 0, 100_000);
        let mut trust = TrustStore::new();
        trust.add_root(ca.certificate().clone());
        World {
            rng,
            trust,
            alice,
            service,
        }
    }

    const PATIENT: RetryPolicy = RetryPolicy {
        max_attempts: 8,
        base_timeout: 16,
        multiplier: 2,
        max_timeout: 64,
    };

    /// One acceptor service as a task on the returned scheduler, and an
    /// RPC client of it.
    fn rig(
        net: &Network,
        w: &World,
    ) -> (
        Rc<RefCell<AcceptorService<ChaChaRng>>>,
        RpcClient,
        Scheduler,
    ) {
        let service = Rc::new(RefCell::new(AcceptorService::new(
            TlsConfig::new(w.service.clone(), w.trust.clone(), 100),
            ChaChaRng::from_seed_bytes(b"acceptor"),
        )));
        let mut sched = Scheduler::new(net);
        let hosted = service.clone();
        sched.spawn_mailbox(
            "mjs",
            ServerTask::new(
                RpcServer::new(net.register("mjs")),
                move |from: &str, body: &[u8]| hosted.borrow_mut().handle(from, body),
            ),
        );
        let rpc = RpcClient::new(net.register("alice"), "mjs", PATIENT);
        (service, rpc, sched)
    }

    fn establish_over(net: &Network) -> (EstablishedContext, EstablishedContext) {
        let mut w = world();
        let (service, mut rpc, _sched) = rig(net, &w);
        let init_ctx = establish_initiator_resilient(
            &mut rpc,
            TlsConfig::new(w.alice.clone(), w.trust.clone(), 100),
            &mut w.rng,
            1,
        )
        .unwrap();
        let accept_ctx = service.borrow_mut().take_established("alice").unwrap();
        (init_ctx, accept_ctx)
    }

    #[test]
    fn establishes_over_perfect_network() {
        let net = Network::new();
        let (mut ic, mut ac) = establish_over(&net);
        assert_eq!(ic.peer().base_identity, dn("/O=G/CN=MJS"));
        assert_eq!(ac.peer().base_identity, dn("/O=G/CN=Alice"));
        let t = ic.wrap(b"over the wire");
        assert_eq!(ac.unwrap(&t).unwrap(), b"over the wire");
    }

    #[test]
    fn establishes_under_lossy_wan() {
        let net = Network::new();
        let clock = SimClock::new();
        net.enable_faults(clock, 0xA11CE, FaultProfile::lossy_wan());
        let (mut ic, mut ac) = establish_over(&net);
        let mic = ic.get_mic(b"job description");
        assert!(ac.verify_mic(b"job description", &mic).is_ok());
        let stats = net.fault_stats().unwrap();
        assert!(stats.sent >= 4, "at least two RPC round trips");
    }

    #[test]
    fn partition_exhausts_retries_with_transport_error() {
        let net = Network::new();
        let clock = SimClock::new();
        net.enable_faults(clock, 1, FaultProfile::default());
        let mut w = world();
        let _server_ep = net.register("mjs");
        let _sched = Scheduler::new(&net);
        let mut rpc = RpcClient::new(net.register("alice"), "mjs", RetryPolicy::default());
        net.partition("alice", "mjs");
        let result = establish_initiator_resilient(
            &mut rpc,
            TlsConfig::new(w.alice.clone(), w.trust.clone(), 100),
            &mut w.rng,
            1,
        );
        match result {
            Err(e) => assert!(matches!(e, GssError::Transport(_)), "{e}"),
            Ok(_) => panic!("establishment should not survive a partition"),
        }
    }

    #[test]
    fn acceptor_crash_mid_handshake_reestablishes() {
        use gridsec_testbed::faults::{CrashPlan, CrashableServer, Journal};
        use gridsec_testbed::os::{SimOs, ROOT_UID};

        let net = Network::new();
        let clock = SimClock::new();
        net.enable_faults(clock, 0x6551, FaultProfile::default());
        let mut w = world();
        // Kill the acceptor on its second exchange: token 1 succeeds,
        // the process dies before token 3 executes.
        let plan = CrashPlan::manual(3);
        plan.arm("gss.accept.exec", 2);
        let os = SimOs::new();
        os.add_host("mjs-host");
        let journal = Journal::open(os, "mjs-host", "/var/gss/journal.wal", ROOT_UID);
        let acceptor = Rc::new(RefCell::new(CrashableAcceptor::new(
            TlsConfig::new(w.service.clone(), w.trust.clone(), 100),
            b"crashable acceptor",
            plan.clone(),
        )));
        let mut sched = Scheduler::new(&net);
        sched.spawn_mailbox(
            "mjs",
            ServerTask::new(
                CrashableServer::new(net.register("mjs"), "gss", plan.clone(), journal, false),
                acceptor.clone(),
            ),
        );
        let mut rpc = RpcClient::new(net.register("alice"), "mjs", PATIENT);
        let mut ic = establish_initiator_resilient(
            &mut rpc,
            TlsConfig::new(w.alice.clone(), w.trust.clone(), 100),
            &mut w.rng,
            8,
        )
        .unwrap();
        assert_eq!(plan.crashes(), 1, "the armed kill fired");
        assert_eq!(plan.restarts(), 1, "the service was reborn");
        // The re-established context is fully functional end to end.
        let mut ac = acceptor
            .borrow_mut()
            .service()
            .take_established("alice")
            .unwrap();
        let t = ic.wrap(b"survived a crash");
        assert_eq!(ac.unwrap(&t).unwrap(), b"survived a crash");
    }

    /// [`rig`] plus a client-side session cache.
    fn cached_rig(
        net: &Network,
    ) -> (
        World,
        Rc<RefCell<AcceptorService<ChaChaRng>>>,
        RpcClient,
        ClientSessionCache,
        Scheduler,
    ) {
        let w = world();
        let (service, rpc, sched) = rig(net, &w);
        (w, service, rpc, ClientSessionCache::new(4), sched)
    }

    #[test]
    fn second_establishment_resumes_via_session_cache() {
        let net = Network::new();
        let (mut w, service, mut rpc, mut cache, _sched) = cached_rig(&net);
        let cfg = TlsConfig::new(w.alice.clone(), w.trust.clone(), 100);

        // First establishment: full handshake, session stored both sides.
        let _ctx1 =
            establish_initiator_cached(&mut rpc, cfg.clone(), &mut w.rng, &mut cache, 4).unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(service.borrow().sessions().hits(), 0);

        // Second establishment: abbreviated handshake.
        let mut ctx2 =
            establish_initiator_cached(&mut rpc, cfg, &mut w.rng, &mut cache, 4).unwrap();
        assert_eq!(service.borrow().sessions().hits(), 1);
        assert_eq!(ctx2.peer().base_identity, dn("/O=G/CN=MJS"));

        // The resumed context protects traffic end to end.
        let mut ac = service.borrow_mut().take_established("alice").unwrap();
        assert_eq!(ac.peer().base_identity, dn("/O=G/CN=Alice"));
        let t = ctx2.wrap(b"resumed traffic");
        assert_eq!(ac.unwrap(&t).unwrap(), b"resumed traffic");
    }

    #[test]
    fn unknown_ticket_falls_back_to_full_handshake() {
        let net = Network::new();
        let (mut w, service, mut rpc, mut cache, _sched) = cached_rig(&net);
        let cfg = TlsConfig::new(w.alice.clone(), w.trust.clone(), 100);
        let _ctx1 =
            establish_initiator_cached(&mut rpc, cfg.clone(), &mut w.rng, &mut cache, 4).unwrap();

        // Wipe the server-side cache, simulating a reborn acceptor.
        *service.borrow_mut() = AcceptorService::new(
            TlsConfig::new(w.service.clone(), w.trust.clone(), 100),
            ChaChaRng::from_seed_bytes(b"acceptor gen2"),
        );

        // The stale ticket is refused; the fallback full handshake wins.
        let mut ctx2 =
            establish_initiator_cached(&mut rpc, cfg, &mut w.rng, &mut cache, 4).unwrap();
        assert_eq!(service.borrow().sessions().misses(), 1);
        assert_eq!(service.borrow().sessions().hits(), 0);
        let mut ac = service.borrow_mut().take_established("alice").unwrap();
        let t = ctx2.wrap(b"after fallback");
        assert_eq!(ac.unwrap(&t).unwrap(), b"after fallback");
        // The fallback re-stored a fresh session for next time.
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn resumption_survives_lossy_wan() {
        let net = Network::new();
        let clock = SimClock::new();
        net.enable_faults(clock, 0x5E55, FaultProfile::lossy_wan());
        let (mut w, service, mut rpc, mut cache, _sched) = cached_rig(&net);
        let cfg = TlsConfig::new(w.alice.clone(), w.trust.clone(), 100);
        let _ctx1 =
            establish_initiator_cached(&mut rpc, cfg.clone(), &mut w.rng, &mut cache, 4).unwrap();
        let mut ctx2 =
            establish_initiator_cached(&mut rpc, cfg, &mut w.rng, &mut cache, 4).unwrap();
        let mut ac = service.borrow_mut().take_established("alice").unwrap();
        let mic = ctx2.get_mic(b"over a lossy link");
        assert!(ac.verify_mic(b"over a lossy link", &mic).is_ok());
    }

    #[test]
    fn malformed_frames_get_err_replies_not_panics() {
        let w = world();
        let mut svc = AcceptorService::new(
            TlsConfig::new(w.service.clone(), w.trust.clone(), 100),
            ChaChaRng::from_seed_bytes(b"acceptor"),
        );
        // Garbage, unknown op, and token3-without-token1 all answer err.
        for payload in [
            b"garbage".to_vec(),
            request("gss-unknown", b"x"),
            request(OP_TOKEN3, b"x"),
        ] {
            let reply = svc.handle("mallory", &payload);
            assert!(Decoder::new(&reply).get_str().unwrap() == "err");
        }
    }
}
