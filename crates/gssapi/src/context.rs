//! GSS context establishment and established-context operations.
//!
//! A context is established by a full handshake or, between a pair that
//! established one before, by resuming its session
//! ([`gridsec_tls::session`]). Both are the same three tokens through the
//! same two types: [`InitiatorContext`] starts either kind,
//! [`AcceptorContext::accept`] answers either hello, and one `step` on
//! each side finishes either: a context is one round trip, and the types
//! hold no state the exchange never reaches. [`resume_or_establish`] is
//! the one rule for choosing between them; a transport only moves the
//! tokens.

use gridsec_bignum::prime::EntropySource;
use gridsec_pki::store::Epoch;
use gridsec_pki::validate::ValidatedIdentity;
use gridsec_tls::channel::SecureChannel;
use gridsec_tls::handshake::{ClientHandshake, ServerAwaitFinished, ServerHandshake, TlsConfig};
use gridsec_tls::session::{
    is_resume_hello, resume_client, ClientResume, ClientSession, ClientSessionCache,
    ServerResumeAwait, ServerSessionCache, DEFAULT_SESSION_LIFETIME,
};
use gridsec_util::trace;

use crate::GssError;

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

    /// [`wrap`](Self::wrap) the message in `buf` where it lies.
    pub fn wrap_in_place(&mut self, buf: &mut Vec<u8>) {
        self.channel.seal_in_place(buf)
    }

    /// Open a sealed message (GSS `Unwrap`).
    pub fn unwrap(&mut self, token: &[u8]) -> Result<Vec<u8>, GssError> {
        Ok(self.channel.open(token)?)
    }

    /// [`unwrap`](Self::unwrap) the token in `buf` where it lies: on `Ok`
    /// it holds the message, on `Err` it is left as it was.
    pub fn unwrap_in_place(&mut self, buf: &mut Vec<u8>) -> Result<(), GssError> {
        Ok(self.channel.open_in_place(buf)?)
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
    Full(Box<ClientHandshake>),
    Resumed(Box<ClientResume>),
}

/// The initiating (client) side of context establishment: the first
/// token is sent when it is built, and one [`step`](Self::step) on the
/// acceptor's answer establishes it.
pub struct InitiatorContext {
    state: InitState,
}

impl InitiatorContext {
    /// Begin establishment; returns the context and the first token
    /// (GSS `init_sec_context` with no input token).
    pub fn new<E: EntropySource>(config: TlsConfig, rng: &mut E) -> (Self, Vec<u8>) {
        let (hs, token) = ClientHandshake::new(config, rng);
        let state = InitState::Full(Box::new(hs));
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
        let state = InitState::Resumed(Box::new(resume));
        (InitiatorContext { state }, token)
    }

    /// `true` for a resumption.
    pub fn resuming(&self) -> bool {
        matches!(self.state, InitState::Resumed(_))
    }

    /// Feed the acceptor's answer (token 2). Either kind finishes on it:
    /// returns the final token, which must still reach the acceptor, and
    /// the established context.
    pub fn step(self, token2: &[u8]) -> Result<(Vec<u8>, EstablishedContext), GssError> {
        let (token3, channel) = match self.state {
            InitState::Full(hs) => hs.step(token2)?,
            InitState::Resumed(resume) => resume.step(token2)?,
        };
        Ok((token3, EstablishedContext { channel }))
    }
}

enum AcceptState {
    Full(Box<ServerAwaitFinished>),
    Resumed(Box<ServerResumeAwait>),
}

/// The accepting (server) side of context establishment: built by
/// answering the initiator's first token, established by one
/// [`step`](Self::step) on its final one.
pub struct AcceptorContext {
    state: AcceptState,
}

impl AcceptorContext {
    /// Answer a ClientHello under `config`: the full handshake. Returns
    /// the acceptor, awaiting the initiator's final token, and the token
    /// to send back.
    pub fn answer_hello<E: EntropySource>(
        token: &[u8],
        config: TlsConfig,
        rng: &mut E,
    ) -> Result<(Self, Vec<u8>), GssError> {
        let (reply, wait) = ServerHandshake::new(config).step(rng, token)?;
        let state = AcceptState::Full(Box::new(wait));
        Ok((AcceptorContext { state }, reply))
    }

    /// Answer an initiator's first token, either kind. A ResumeHello is
    /// looked up in `sessions` at `now` under `epoch`, the acceptor's
    /// current trust epoch; an unknown or expired ticket, or one filed
    /// under another epoch, is an error the initiator answers with the
    /// full handshake ([`resume_or_establish`]). A ClientHello is
    /// [answered](Self::answer_hello) under `config()`, which is built
    /// only then and must hold the stores `epoch` was read from. The
    /// caller stores the established context's session in `sessions`.
    pub fn accept<E: EntropySource>(
        token: &[u8],
        sessions: &mut ServerSessionCache,
        now: u64,
        epoch: Epoch,
        config: impl FnOnce() -> TlsConfig,
        rng: &mut E,
    ) -> Result<(Self, Vec<u8>), GssError> {
        if !is_resume_hello(token) {
            return Self::answer_hello(token, config(), rng);
        }
        let (reply, wait) = sessions.accept_under(token, now, epoch, rng)?;
        let state = AcceptState::Resumed(Box::new(wait));
        Ok((AcceptorContext { state }, reply))
    }

    /// `true` for a resumption.
    pub fn resuming(&self) -> bool {
        matches!(self.state, AcceptState::Resumed(_))
    }

    /// Feed the initiator's final token (token 3); finishing draws no
    /// entropy.
    pub fn step(self, token3: &[u8]) -> Result<EstablishedContext, GssError> {
        let channel = match self.state {
            AcceptState::Full(wait) => wait.step(token3)?,
            AcceptState::Resumed(wait) => wait.step(token3)?,
        };
        Ok(EstablishedContext { channel })
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
    pub(crate) fn into_inner(self) -> X {
        match self {
            LoopError::Refused(e) | LoopError::Failed(e) => e,
        }
    }
}

/// Establish a context, resuming the session cached under `key` when
/// there is a live one filed under `epoch`, the initiator's current trust
/// epoch: the one fallback rule every transport shares.
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
    epoch: Epoch,
    rng: &mut E,
    config: impl FnOnce() -> Result<TlsConfig, X>,
    mut token_loop: impl FnMut(&mut E, InitiatorContext, Vec<u8>) -> Result<T, LoopError<X>>,
) -> Result<T, X>
where
    E: EntropySource,
    X: core::fmt::Display,
{
    let session = key.and_then(|key| {
        let session = cache.lookup(key, now, epoch);
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

/// Run the three tokens in memory (both sides in one process);
/// returns `(initiator_context, acceptor_context)`.
pub fn establish_in_memory<E: EntropySource>(
    init_config: TlsConfig,
    accept_config: TlsConfig,
    rng: &mut E,
) -> Result<(EstablishedContext, EstablishedContext), GssError> {
    let (init, token1) = InitiatorContext::new(init_config, rng);
    let (acceptor, token2) = AcceptorContext::answer_hello(&token1, accept_config, rng)?;
    let (token3, init_ctx) = init.step(&token2)?;
    Ok((init_ctx, acceptor.step(&token3)?))
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
    fn junk_tokens_are_refused_on_either_side() {
        let mut w = world();
        let (init, _t1) = InitiatorContext::new(cfg(&w, &w.alice), &mut w.rng);
        assert!(matches!(init.step(b"junk"), Err(GssError::Tls(_))));
        let answered = AcceptorContext::answer_hello(b"junk", cfg(&w, &w.service), &mut w.rng);
        assert!(matches!(answered, Err(GssError::Tls(_))));
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
            alice.epoch(),
            &mut w.rng,
            || Ok(alice),
            |rng, init, token1| {
                let (acceptor, token2) = AcceptorContext::accept(
                    &token1,
                    sessions,
                    100,
                    service.epoch(),
                    || service.clone(),
                    rng,
                )
                .map_err(LoopError::Refused)?;
                let resumed = acceptor.resuming();
                assert_eq!(init.resuming(), resumed);
                let (token3, context) = init.step(&token2).map_err(LoopError::Failed)?;
                let theirs = acceptor.step(&token3).map_err(LoopError::Refused)?;
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
            alice.epoch(),
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
