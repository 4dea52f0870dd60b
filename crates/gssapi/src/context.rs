//! The GSS init/accept token loop and established-context operations.
//!
//! A context is established by a full handshake or, between a pair that
//! established one before, by resuming its session
//! ([`gridsec_tls::session`]). Both are the same three tokens through the
//! same two types: [`InitiatorContext`] starts either kind,
//! [`AcceptorContext::accept`] answers either hello, and one `step` on
//! each side finishes either. [`resume_or_establish`] is the one rule
//! for choosing between them; a transport only moves the tokens.

use gridsec_bignum::prime::EntropySource;
use gridsec_pki::validate::ValidatedIdentity;
use gridsec_tls::channel::SecureChannel;
use gridsec_tls::handshake::{ClientHandshake, ServerAwaitFinished, ServerHandshake, TlsConfig};
use gridsec_tls::session::{
    is_resume_hello, resume_client, ClientResume, ClientSession, ClientSessionCache,
    ServerResumeAwait, ServerSessionCache, DEFAULT_SESSION_LIFETIME,
};
use gridsec_util::trace;

use crate::GssError;

/// Result of feeding one token into a context under establishment.
pub enum StepResult {
    /// Send this token to the peer and keep stepping.
    ContinueWith(Vec<u8>),
    /// Context established; `token` (if any) must still be sent to the
    /// peer (the final handshake token), then use the context.
    Established {
        /// Final token to deliver to the peer (initiator side), if any.
        token: Option<Vec<u8>>,
        /// The established security context.
        context: Box<EstablishedContext>,
    },
}

/// A mutually-authenticated context: wrap/unwrap + MIC operations.
pub struct EstablishedContext {
    channel: SecureChannel,
}

impl EstablishedContext {
    /// The underlying channel — read-only, for harvesting resumption
    /// state into a session cache.
    pub fn channel(&self) -> &SecureChannel {
        &self.channel
    }

    /// The authenticated peer.
    pub fn peer(&self) -> &ValidatedIdentity {
        &self.channel.peer
    }

    /// Seal a message for the peer (GSS `Wrap` with confidentiality).
    pub fn wrap(&mut self, msg: &[u8]) -> Vec<u8> {
        self.channel.seal(msg)
    }

    /// Open a sealed message (GSS `Unwrap`).
    pub fn unwrap(&mut self, token: &[u8]) -> Result<Vec<u8>, GssError> {
        Ok(self.channel.open(token)?)
    }

    /// Detached integrity token (GSS `GetMIC`).
    pub fn get_mic(&mut self, msg: &[u8]) -> Vec<u8> {
        self.channel.get_mic(msg)
    }

    /// Verify a detached integrity token (GSS `VerifyMIC`).
    pub fn verify_mic(&mut self, msg: &[u8], mic: &[u8]) -> Result<(), GssError> {
        Ok(self.channel.verify_mic(msg, mic)?)
    }
}

enum InitState {
    AwaitServerHello(Box<ClientHandshake>),
    AwaitResumed(Box<ClientResume>),
    Done,
}

/// The initiating (client) side of context establishment.
pub struct InitiatorContext {
    state: InitState,
}

impl InitiatorContext {
    /// Begin establishment; returns the context and the first token
    /// (GSS `init_sec_context` with no input token).
    pub fn new<E: EntropySource>(config: TlsConfig, rng: &mut E) -> (Self, Vec<u8>) {
        let (hs, token) = ClientHandshake::new(config, rng);
        let state = InitState::AwaitServerHello(Box::new(hs));
        (InitiatorContext { state }, token)
    }

    /// Begin establishment by resuming a cached `session`: the first
    /// token is a ResumeHello, and no certificate, RSA or Diffie–Hellman
    /// work follows on either side. The resumed context carries a rotated
    /// session that expires `lifetime` after `now`, clamped to the
    /// credentials' `not_after`.
    pub fn resume<E: EntropySource>(
        session: ClientSession,
        now: u64,
        lifetime: u64,
        rng: &mut E,
    ) -> (Self, Vec<u8>) {
        let (resume, token) = resume_client(session, now, lifetime, rng);
        let state = InitState::AwaitResumed(Box::new(resume));
        (InitiatorContext { state }, token)
    }

    /// `true` while a resumption awaits the acceptor's answer.
    pub fn resuming(&self) -> bool {
        matches!(self.state, InitState::AwaitResumed(_))
    }

    /// Feed the next token from the acceptor. Either kind finishes on
    /// the acceptor's first answer, with a final token to deliver.
    pub fn step(&mut self, token_in: &[u8]) -> Result<StepResult, GssError> {
        let (finished, channel) = match std::mem::replace(&mut self.state, InitState::Done) {
            InitState::AwaitServerHello(hs) => hs.step(token_in)?,
            InitState::AwaitResumed(resume) => resume.step(token_in)?,
            InitState::Done => return Err(GssError::BadState("initiator already established")),
        };
        Ok(StepResult::Established {
            token: Some(finished),
            context: Box::new(EstablishedContext { channel }),
        })
    }
}

enum AcceptState {
    AwaitClientHello(Box<ServerHandshake>),
    AwaitFinished(Box<ServerAwaitFinished>),
    AwaitResumeFinished(Box<ServerResumeAwait>),
    Done,
}

/// The accepting (server) side of context establishment.
pub struct AcceptorContext {
    state: AcceptState,
}

impl AcceptorContext {
    /// Create the acceptor (GSS `accept_sec_context` loop).
    pub fn new(config: TlsConfig) -> Self {
        AcceptorContext {
            state: AcceptState::AwaitClientHello(Box::new(ServerHandshake::new(config))),
        }
    }

    /// Acceptor that has already consumed a ClientHello (through a
    /// batch driver such as [`crate::mill::HandshakeMill`]) and awaits
    /// the ClientFinished token.
    pub fn from_await_finished(await_finished: ServerAwaitFinished) -> Self {
        AcceptorContext {
            state: AcceptState::AwaitFinished(Box::new(await_finished)),
        }
    }

    /// Answer an initiator's first token, either kind. A ResumeHello is
    /// looked up in `sessions` at `now`; an unknown or expired ticket is
    /// an error the initiator answers with the full handshake
    /// ([`resume_or_establish`]). A ClientHello starts the full handshake
    /// under `config()`, which is built only then. Returns the acceptor,
    /// awaiting the initiator's final token, and the token to send back.
    /// The caller stores the established context's session in `sessions`.
    pub fn accept<E: EntropySource>(
        token: &[u8],
        sessions: &mut ServerSessionCache,
        now: u64,
        config: impl FnOnce() -> TlsConfig,
        rng: &mut E,
    ) -> Result<(Self, Vec<u8>), GssError> {
        let (state, reply) = if is_resume_hello(token) {
            let (reply, wait) = sessions.accept(token, now, rng)?;
            (AcceptState::AwaitResumeFinished(Box::new(wait)), reply)
        } else {
            let (reply, wait) = ServerHandshake::new(config()).step(rng, token)?;
            (AcceptState::AwaitFinished(Box::new(wait)), reply)
        };
        Ok((AcceptorContext { state }, reply))
    }

    /// `true` while finishing a resumed handshake.
    pub fn resuming(&self) -> bool {
        matches!(self.state, AcceptState::AwaitResumeFinished(_))
    }

    /// Feed the next token from the initiator.
    pub fn step<E: EntropySource>(
        &mut self,
        rng: &mut E,
        token_in: &[u8],
    ) -> Result<StepResult, GssError> {
        let channel = match std::mem::replace(&mut self.state, AcceptState::Done) {
            AcceptState::AwaitClientHello(hs) => {
                let (server_hello, await_finished) = hs.step(rng, token_in)?;
                self.state = AcceptState::AwaitFinished(Box::new(await_finished));
                return Ok(StepResult::ContinueWith(server_hello));
            }
            AcceptState::AwaitFinished(wait) => wait.step(token_in)?,
            AcceptState::AwaitResumeFinished(wait) => wait.step(token_in)?,
            AcceptState::Done => return Err(GssError::BadState("acceptor already established")),
        };
        Ok(StepResult::Established {
            token: None,
            context: Box::new(EstablishedContext { channel }),
        })
    }
}

/// How a transport's token loop ended without a context.
#[derive(Debug)]
pub enum LoopError<X> {
    /// The acceptor answered a token with a refusal — for a ResumeHello,
    /// that it holds no such session.
    Refused(X),
    /// Anything else: the transport failed, or a token failed its check
    /// (a resumed ServerHello with a bad Finished MAC is a verdict about
    /// the peer, not a refusal).
    Failed(X),
}

impl<X> LoopError<X> {
    /// The error, whichever way the loop ended.
    pub fn into_inner(self) -> X {
        match self {
            LoopError::Refused(e) | LoopError::Failed(e) => e,
        }
    }
}

/// Establish a context, resuming the session cached under `key` when
/// there is a live one: the one fallback rule every transport shares.
///
/// `token_loop` is the transport's: it delivers an initiator's first
/// token, steps the initiator with the answer and delivers its final
/// token. The session is taken out of `cache` when it is offered, so a
/// ticket is never offered twice. A resumption the acceptor refuses runs
/// the full loop once, under `config()`, built only then; any other
/// failure of the resumption — a transport failure, a bad MAC — ends the
/// call. `key = None` goes straight to the full loop. The caller stores
/// the new context's session, once it has accepted the context.
pub fn resume_or_establish<E, T, X>(
    cache: &mut ClientSessionCache,
    key: Option<&str>,
    now: u64,
    rng: &mut E,
    config: impl FnOnce() -> Result<TlsConfig, X>,
    mut token_loop: impl FnMut(&mut E, InitiatorContext, Vec<u8>) -> Result<T, LoopError<X>>,
) -> Result<T, X>
where
    E: EntropySource,
    X: core::fmt::Display,
{
    let session = key.and_then(|key| {
        let session = cache.lookup(key, now);
        cache.invalidate(key);
        session
    });
    if let Some(session) = session {
        let (init, token) = InitiatorContext::resume(session, now, DEFAULT_SESSION_LIFETIME, rng);
        match token_loop(rng, init, token) {
            Err(LoopError::Refused(cause)) => {
                trace::event("gss.resume.fallback", &format!("cause={cause}"));
                trace::add("gss.resume_fallbacks", 1);
            }
            done => return done.map_err(LoopError::into_inner),
        }
    }
    let (init, token) = InitiatorContext::new(config()?, rng);
    token_loop(rng, init, token).map_err(LoopError::into_inner)
}

/// Drive the full token loop in memory (both sides in one process);
/// returns `(initiator_context, acceptor_context)`.
pub fn establish_in_memory<E: EntropySource>(
    init_config: TlsConfig,
    accept_config: TlsConfig,
    rng: &mut E,
) -> Result<(EstablishedContext, EstablishedContext), GssError> {
    let (mut init, token1) = InitiatorContext::new(init_config, rng);
    let mut acceptor = AcceptorContext::new(accept_config);

    let token2 = match acceptor.step(rng, &token1)? {
        StepResult::ContinueWith(t) => t,
        StepResult::Established { .. } => {
            return Err(GssError::BadState("acceptor finished too early"))
        }
    };
    let (token3, init_ctx) = match init.step(&token2)? {
        StepResult::Established { token, context } => (token, context),
        StepResult::ContinueWith(_) => {
            return Err(GssError::BadState("initiator should finish on token 2"))
        }
    };
    let token3 = token3.ok_or(GssError::BadState("missing finished token"))?;
    let accept_ctx = match acceptor.step(rng, &token3)? {
        StepResult::Established { context, .. } => context,
        StepResult::ContinueWith(_) => {
            return Err(GssError::BadState("acceptor should finish on token 3"))
        }
    };
    Ok((*init_ctx, *accept_ctx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsec_crypto::rng::ChaChaRng;
    use gridsec_pki::ca::CertificateAuthority;
    use gridsec_pki::credential::Credential;
    use gridsec_pki::name::DistinguishedName;
    use gridsec_pki::store::TrustStore;

    fn dn(s: &str) -> DistinguishedName {
        DistinguishedName::parse(s).unwrap()
    }

    pub(crate) struct World {
        pub rng: ChaChaRng,
        pub trust: TrustStore,
        pub alice: Credential,
        pub service: Credential,
    }

    pub(crate) fn world() -> World {
        let mut rng = ChaChaRng::from_seed_bytes(b"gss tests");
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

    fn cfg(w: &World, cred: &Credential) -> TlsConfig {
        TlsConfig::new(cred.clone(), w.trust.clone(), 100)
    }

    #[test]
    fn token_loop_establishes_mutual_context() {
        let mut w = world();
        let (mut ic, mut ac) =
            establish_in_memory(cfg(&w, &w.alice), cfg(&w, &w.service), &mut w.rng).unwrap();
        assert_eq!(ic.peer().base_identity, dn("/O=G/CN=MJS"));
        assert_eq!(ac.peer().base_identity, dn("/O=G/CN=Alice"));

        let t = ic.wrap(b"secured request");
        assert_eq!(ac.unwrap(&t).unwrap(), b"secured request");
        let r = ac.wrap(b"secured reply");
        assert_eq!(ic.unwrap(&r).unwrap(), b"secured reply");
    }

    #[test]
    fn mic_operations() {
        let mut w = world();
        let (mut ic, mut ac) =
            establish_in_memory(cfg(&w, &w.alice), cfg(&w, &w.service), &mut w.rng).unwrap();
        let msg = b"signed but visible job description";
        let mic = ic.get_mic(msg);
        assert!(ac.verify_mic(msg, &mic).is_ok());
        assert!(ac.verify_mic(b"altered", &mic).is_err());
    }

    #[test]
    fn stepping_finished_context_errors() {
        let mut w = world();
        let (mut init, _t1) = InitiatorContext::new(cfg(&w, &w.alice), &mut w.rng);
        let mut acceptor = AcceptorContext::new(cfg(&w, &w.service));
        // Feed garbage to move initiator to Done state via error path.
        assert!(init.step(b"junk").is_err());
        assert!(matches!(init.step(b"junk"), Err(GssError::BadState(_))));
        // Acceptor consumed by garbage as well.
        assert!(acceptor.step(&mut w.rng, b"junk").is_err());
        assert!(matches!(
            acceptor.step(&mut w.rng, b"junk"),
            Err(GssError::BadState(_))
        ));
    }

    #[test]
    fn contexts_are_independent_sessions() {
        let mut w = world();
        let (mut ic1, mut ac1) =
            establish_in_memory(cfg(&w, &w.alice), cfg(&w, &w.service), &mut w.rng).unwrap();
        let (mut ic2, mut ac2) =
            establish_in_memory(cfg(&w, &w.alice), cfg(&w, &w.service), &mut w.rng).unwrap();
        let t1 = ic1.wrap(b"session 1");
        // Cross-session tokens do not decrypt.
        assert!(ac2.unwrap(&t1).is_err());
        assert!(ac1.unwrap(&t1).is_ok());
        let t2 = ic2.wrap(b"session 2");
        assert!(ac2.unwrap(&t2).is_ok());
    }

    /// Both halves of a context through [`resume_or_establish`] in one
    /// process: the acceptor answers from `sessions`, and each side banks
    /// its session. Returns whether the context was resumed.
    fn connect(
        w: &mut World,
        sessions: &mut ServerSessionCache,
        cache: &mut ClientSessionCache,
    ) -> Result<bool, GssError> {
        let (alice, service) = (cfg(w, &w.alice), cfg(w, &w.service));
        let (context, resumed) = resume_or_establish(
            cache,
            Some("mjs"),
            100,
            &mut w.rng,
            || Ok(alice),
            |rng, mut init, token1| {
                let (mut acceptor, token2) =
                    AcceptorContext::accept(&token1, sessions, 100, || service.clone(), rng)
                        .map_err(LoopError::Refused)?;
                let resumed = acceptor.resuming();
                assert_eq!(init.resuming(), resumed);
                let Ok(StepResult::Established {
                    token: Some(token3),
                    context,
                }) = init.step(&token2)
                else {
                    return Err(LoopError::Failed(GssError::BadState("no final token")));
                };
                let Ok(StepResult::Established {
                    context: theirs, ..
                }) = acceptor.step(rng, &token3)
                else {
                    return Err(LoopError::Refused(GssError::BadState("not finished")));
                };
                sessions.store(theirs.channel());
                Ok((context, resumed))
            },
        )?;
        cache.store("mjs", context.channel());
        Ok(resumed)
    }

    #[test]
    fn one_rule_resumes_falls_back_once_and_rebanks() {
        let mut w = world();
        let mut sessions = ServerSessionCache::new(4, DEFAULT_SESSION_LIFETIME);
        let mut cache = ClientSessionCache::new(4);
        assert!(!connect(&mut w, &mut sessions, &mut cache).unwrap());
        assert!(connect(&mut w, &mut sessions, &mut cache).unwrap());
        assert_eq!((sessions.hits(), sessions.misses()), (1, 0));

        // A server that lost its cache refuses the ticket: one full
        // handshake in the same call, whose session is banked.
        let mut reborn = ServerSessionCache::new(4, DEFAULT_SESSION_LIFETIME);
        assert!(!connect(&mut w, &mut reborn, &mut cache).unwrap());
        assert_eq!((reborn.hits(), reborn.misses()), (0, 1));
        assert!(connect(&mut w, &mut reborn, &mut cache).unwrap());
    }

    #[test]
    fn a_failed_resumption_ends_the_call_and_spends_the_ticket() {
        let mut w = world();
        let mut sessions = ServerSessionCache::new(4, DEFAULT_SESSION_LIFETIME);
        let mut cache = ClientSessionCache::new(4);
        connect(&mut w, &mut sessions, &mut cache).unwrap();
        let alice = cfg(&w, &w.alice);
        let mut fulls = 0;
        let err = resume_or_establish(
            &mut cache,
            Some("mjs"),
            100,
            &mut w.rng,
            || Ok(alice),
            |_, init, _| {
                fulls += usize::from(!init.resuming());
                Err::<(), _>(LoopError::Failed(GssError::Transport("gone".into())))
            },
        );
        assert!(matches!(err, Err(GssError::Transport(_))));
        assert_eq!(fulls, 0, "no fallback");
        assert!(cache.is_empty(), "the offered ticket is spent");
    }
}
