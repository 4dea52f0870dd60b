//! WS-SecureConversation / WS-Trust — GT3's *stateful* security (paper
//! §5.1).
//!
//! Context establishment: the GSS/TLS handshake tokens from
//! `gridsec-gssapi` ride inside WS-Trust `RequestSecurityToken` (RST) /
//! `RequestSecurityTokenResponse` (RSTR) SOAP envelopes as base64
//! `BinaryExchange` elements. The bytes inside are *identical* to the
//! tokens GT2 sends over TCP — the compatibility property the paper
//! claims and experiment C1 asserts byte-for-byte.
//!
//! After establishment, application envelopes are protected under the
//! context: a `wsc:SecurityContextToken` header names the context and the
//! body is sealed by the context's keys.
//!
//! Repeat conversations between the same pair can skip the asymmetric
//! handshake: the responder keeps a [`ServerSessionCache`], and a
//! client holding a [`ClientSession`] starts its [`WsscInitiator`] from
//! an [`InitiatorContext::resume`] — the same RST/RSTR envelope shapes,
//! but the `BinaryExchange` tokens carry only symmetric-crypto material
//! ([`gridsec_tls::session`]). An unknown ticket, or one filed under
//! another trust epoch than the responder's stores now read, answers with
//! a context fault and the client falls back to the full handshake
//! ([`gridsec_gssapi::context::resume_or_establish`]).

use std::collections::HashMap;

use gridsec_bignum::prime::EntropySource;
use gridsec_crypto::poly1305::TAG_LEN;
use gridsec_gssapi::context::{AcceptorContext, EstablishedContext, InitiatorContext};
use gridsec_pki::store::CrlStore;
use gridsec_pki::validate::ValidatedIdentity;
use gridsec_tls::channel::SecureChannel;
use gridsec_tls::handshake::TlsConfig;
use gridsec_tls::session::{
    ClientSession, ServerSessionCache, DEFAULT_SESSION_CAPACITY, DEFAULT_SESSION_LIFETIME,
};
use gridsec_xml::{Element, Node};

use crate::b64;
use crate::soap::Envelope;
use crate::WsseError;

/// Action URI for token-exchange envelopes.
pub const RST_ACTION: &str = "wst:RequestSecurityToken";
/// Action URI for protected application messages.
pub const SECURED_ACTION_PREFIX: &str = "wsc:Secured/";

fn rst_envelope(kind: &str, ctx_id: Option<&str>, token: Option<&[u8]>) -> Envelope {
    let mut req = Element::new(kind)
        .with_child(Element::new("wst:TokenType").with_text("wsc:SecurityContextToken"));
    if let Some(id) = ctx_id {
        req.push_child(Element::new("wsc:Identifier").with_text(id));
    }
    if let Some(t) = token {
        req.push_child(Element::new("wst:BinaryExchange").with_text(b64::encode(t)));
    }
    Envelope::request(RST_ACTION, req)
}

fn parse_rst(env: &Envelope) -> Result<(Option<String>, Option<Vec<u8>>), WsseError> {
    let req = env.payload().ok_or(WsseError::Missing("RST payload"))?;
    let ctx_id = req.find("wsc:Identifier").map(|e| e.text_content());
    let token = match req.find("wst:BinaryExchange") {
        Some(e) => Some(b64::decode(&e.text_content()).ok_or(WsseError::Base64)?),
        None => None,
    };
    Ok((ctx_id, token))
}

// ----------------------------------------------------------------------
// Initiator (client) side
// ----------------------------------------------------------------------

/// Client side of WS-SecureConversation establishment, full or resumed.
pub struct WsscInitiator {
    inner: InitiatorContext,
}

impl WsscInitiator {
    /// Start establishment; returns the state machine and the first RST
    /// envelope to send.
    pub fn begin<E: EntropySource>(config: TlsConfig, rng: &mut E) -> (Self, Envelope) {
        let (inner, token) = InitiatorContext::new(config, rng);
        Self::carry(inner, &token)
    }

    /// Carry a GSS initiator, full or resumed, whose first token is
    /// `token`: returns the state machine and the first RST envelope.
    pub fn carry(inner: InitiatorContext, token: &[u8]) -> (Self, Envelope) {
        (
            WsscInitiator { inner },
            rst_envelope("wst:RequestSecurityToken", None, Some(token)),
        )
    }

    /// Process the server's RSTR; returns the final RST envelope (which
    /// must be delivered) and the established session.
    pub fn finish(self, rstr: &Envelope) -> Result<(Envelope, WsscSession), WsseError> {
        let (ctx_id, token) = parse_rst(rstr)?;
        let ctx_id = ctx_id.ok_or(WsseError::Context("RSTR missing context id"))?;
        let token = token.ok_or(WsseError::Context("RSTR missing token"))?;
        let (finished, context) = self
            .inner
            .step(&token)
            .map_err(|_| WsseError::Context("handshake failed"))?;
        Ok((
            rst_envelope("wst:RequestSecurityToken", Some(&ctx_id), Some(&finished)),
            WsscSession { ctx_id, context },
        ))
    }
}

/// An established client-side conversation.
pub struct WsscSession {
    /// The context identifier shared with the server.
    pub ctx_id: String,
    context: EstablishedContext,
}

impl WsscSession {
    /// The authenticated peer.
    pub fn peer(&self) -> &ValidatedIdentity {
        self.context.peer()
    }

    /// The underlying channel — read-only, for harvesting resumption
    /// state into a [`gridsec_tls::session::ClientSessionCache`].
    pub fn channel(&self) -> &SecureChannel {
        self.context.channel()
    }

    /// Protect an application envelope under this context.
    pub fn protect(&mut self, env: &Envelope) -> Envelope {
        protect_with(&mut self.context, &self.ctx_id, env)
    }

    /// Open a protected reply from the server.
    pub fn unprotect(&mut self, env: &Envelope) -> Result<Envelope, WsseError> {
        let (id, inner) = unprotect_with(&mut self.context, env)?;
        if id != self.ctx_id {
            return Err(WsseError::Context("context id mismatch"));
        }
        Ok(inner)
    }
}

// ----------------------------------------------------------------------
// Responder (server) side
// ----------------------------------------------------------------------

enum ServerCtx {
    Pending(Box<AcceptorContext>),
    Ready(Box<EstablishedContext>),
}

/// Server side: tracks many concurrent conversations keyed by context id.
pub struct WsscResponder {
    config: TlsConfig,
    next_id: u64,
    /// Conversations, not a cache: a trust change leaves them (ROADMAP 6).
    contexts: HashMap<String, ServerCtx>,
    /// Resumable sessions, each filed under the trust epoch of `config`.
    sessions: ServerSessionCache,
}

impl WsscResponder {
    /// Create a responder with the service's TLS configuration.
    pub fn new(config: TlsConfig) -> Self {
        WsscResponder {
            config,
            next_id: 1,
            contexts: HashMap::new(),
            sessions: ServerSessionCache::new(DEFAULT_SESSION_CAPACITY, DEFAULT_SESSION_LIFETIME),
        }
    }

    /// Handle one RST envelope, returning the RSTR to send back. An RST
    /// without a context id opens a conversation with a ClientHello or,
    /// from a cached session, a ResumeHello; a ResumeHello whose ticket
    /// the responder does not hold is a context fault.
    pub fn handle_rst<E: EntropySource>(
        &mut self,
        env: &Envelope,
        rng: &mut E,
    ) -> Result<Envelope, WsseError> {
        let (ctx_id, token) = parse_rst(env)?;
        let token = token.ok_or(WsseError::Context("RST missing token"))?;
        let failed = |_| WsseError::Context("handshake failed");
        let Some(id) = ctx_id else {
            let config = &self.config;
            let (acceptor, out) = AcceptorContext::accept(
                &token,
                &mut self.sessions,
                config.now,
                config.epoch(),
                || config.clone(),
                rng,
            )
            .map_err(failed)?;
            let id = format!("uuid:ctx-{}", self.next_id);
            self.next_id += 1;
            self.contexts
                .insert(id.clone(), ServerCtx::Pending(Box::new(acceptor)));
            return Ok(rst_envelope(
                "wst:RequestSecurityTokenResponse",
                Some(&id),
                Some(&out),
            ));
        };
        // Only a pending handshake is taken out: a finish naming an
        // established conversation is refused and leaves it in place.
        if let Some(ServerCtx::Ready(_)) = self.contexts.get(&id) {
            return Err(WsseError::Context("context already established"));
        }
        let Some(ServerCtx::Pending(acceptor)) = self.contexts.remove(&id) else {
            return Err(WsseError::Context("unknown context id"));
        };
        let context = acceptor.step(&token).map_err(failed)?;
        // A resumed context rotates: it mints a fresh ticket.
        self.sessions.store(context.channel());
        self.contexts
            .insert(id.clone(), ServerCtx::Ready(Box::new(context)));
        Ok(rst_envelope(
            "wst:RequestSecurityTokenResponse",
            Some(&id),
            None,
        ))
    }

    /// Open a protected application envelope; returns the context id and
    /// the inner envelope.
    pub fn unprotect(&mut self, env: &Envelope) -> Result<(String, Envelope), WsseError> {
        let id = secured_ctx_id(env)?;
        match self.contexts.get_mut(&id) {
            Some(ServerCtx::Ready(ctx)) => {
                let (inner_id, inner) = unprotect_with(ctx, env)?;
                debug_assert_eq!(inner_id, id);
                Ok((id, inner))
            }
            _ => Err(WsseError::Context("no established context for id")),
        }
    }

    /// Protect a reply under an established context.
    pub fn protect(&mut self, ctx_id: &str, env: &Envelope) -> Result<Envelope, WsseError> {
        match self.contexts.get_mut(ctx_id) {
            Some(ServerCtx::Ready(ctx)) => Ok(protect_with(ctx, ctx_id, env)),
            _ => Err(WsseError::Context("no established context for id")),
        }
    }

    /// The authenticated peer of an established context.
    pub fn peer(&self, ctx_id: &str) -> Option<&ValidatedIdentity> {
        match self.contexts.get(ctx_id) {
            Some(ServerCtx::Ready(ctx)) => Some(ctx.peer()),
            _ => None,
        }
    }

    /// What new handshakes run under: the responder's credential and
    /// trust state.
    pub fn config(&self) -> &TlsConfig {
        &self.config
    }

    /// Update the time used to validate chains in *new* handshakes
    /// (already-established contexts are unaffected).
    pub fn set_time(&mut self, now: u64) {
        self.config.now = now;
    }

    /// Install revocation state for new handshakes. The store's epoch
    /// moves with it, so a session cached under the old state stops
    /// resuming; established conversations are left as they are.
    pub fn set_crls(&mut self, crls: CrlStore) {
        self.config.crls = crls;
    }
}

// ----------------------------------------------------------------------
// Message protection plumbing
// ----------------------------------------------------------------------

fn protect_with(ctx: &mut EstablishedContext, ctx_id: &str, env: &Envelope) -> Envelope {
    // Room for the tag too, so sealing in place never regrows the body.
    let body_len = env.body.iter().map(Element::xml_len_hint).sum::<usize>();
    let mut body_xml = String::with_capacity(body_len + TAG_LEN);
    for el in &env.body {
        el.write_xml(&mut body_xml);
    }
    let mut sealed = body_xml.into_bytes();
    ctx.wrap_in_place(&mut sealed);
    let mut out = Envelope::new();
    out.action = Some(format!(
        "{SECURED_ACTION_PREFIX}{}",
        env.action.as_deref().unwrap_or("")
    ));
    out.security_header_mut().push_child(
        Element::new("wsc:SecurityContextToken")
            .with_child(Element::new("wsc:Identifier").with_text(ctx_id)),
    );
    out.body = vec![Element::new("wsc:EncryptedMessage").with_text(b64::encode(&sealed))];
    out
}

fn secured_ctx_id(env: &Envelope) -> Result<String, WsseError> {
    env.security_header()
        .and_then(|s| s.find("wsc:SecurityContextToken"))
        .and_then(|t| t.find("wsc:Identifier"))
        .map(|i| i.text_content())
        .ok_or(WsseError::Missing("wsc:SecurityContextToken"))
}

fn unprotect_with(
    ctx: &mut EstablishedContext,
    env: &Envelope,
) -> Result<(String, Envelope), WsseError> {
    let id = secured_ctx_id(env)?;
    let message = env
        .payload()
        .filter(|p| p.name == "wsc:EncryptedMessage")
        .ok_or(WsseError::Missing("wsc:EncryptedMessage"))?;
    // The parser leaves an unbroken text as one node: decode it where it
    // lies, and join the pieces only when there are several.
    let mut buf = match message.children.as_slice() {
        [Node::Text(text)] => b64::decode(text),
        _ => b64::decode(&message.text_content()),
    }
    .ok_or(WsseError::Base64)?;
    ctx.unwrap_in_place(&mut buf)
        .map_err(|_| WsseError::Decrypt)?;
    let text = String::from_utf8(buf).map_err(|_| WsseError::Decrypt)?;
    let wrapper = Element::parse(&format!("<w>{text}</w>"))?;
    let mut inner = Envelope::new();
    inner.action = env
        .action
        .as_deref()
        .and_then(|a| a.strip_prefix(SECURED_ACTION_PREFIX))
        .filter(|a| !a.is_empty())
        .map(|a| a.to_string());
    inner.body = wrapper.into_child_elements().collect();
    Ok((id, inner))
}

/// Drive a full establishment between a client and a responder in one
/// process (helper for tests, examples, and benches). Returns the client
/// session; the responder retains the server half.
pub fn establish<E: EntropySource>(
    client_config: TlsConfig,
    responder: &mut WsscResponder,
    rng: &mut E,
) -> Result<WsscSession, WsseError> {
    let (initiator, rst1) = WsscInitiator::begin(client_config, rng);
    converse(initiator, rst1, responder, rng)
}

/// Drive an abbreviated resumption exchange against a responder in one
/// process. The round-trip count matches [`establish`] but neither side
/// touches certificates, RSA, or Diffie–Hellman.
pub fn resume<E: EntropySource>(
    session: ClientSession,
    now: u64,
    lifetime: u64,
    responder: &mut WsscResponder,
    rng: &mut E,
) -> Result<WsscSession, WsseError> {
    let (inner, token) = InitiatorContext::resume(session, now, lifetime, rng);
    let (initiator, rst1) = WsscInitiator::carry(inner, &token);
    converse(initiator, rst1, responder, rng)
}

/// The two RST/RSTR round trips, every envelope through its XML form.
fn converse<E: EntropySource>(
    initiator: WsscInitiator,
    rst1: Envelope,
    responder: &mut WsscResponder,
    rng: &mut E,
) -> Result<WsscSession, WsseError> {
    let rstr1 = responder.handle_rst(&Envelope::parse(&rst1.to_xml())?, rng)?;
    let (rst2, session) = initiator.finish(&Envelope::parse(&rstr1.to_xml())?)?;
    let _ack = responder.handle_rst(&Envelope::parse(&rst2.to_xml())?, rng)?;
    Ok(session)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsec_crypto::rng::ChaChaRng;
    use gridsec_pki::ca::CertificateAuthority;
    use gridsec_pki::credential::Credential;
    use gridsec_pki::name::DistinguishedName;
    use gridsec_pki::store::TrustStore;

    impl WsscResponder {
        /// The responder's session cache (hit/miss counters for tests and
        /// metrics).
        fn sessions(&self) -> &ServerSessionCache {
            &self.sessions
        }
    }

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
        let mut rng = ChaChaRng::from_seed_bytes(b"wssc tests");
        let ca = CertificateAuthority::create_root(&mut rng, dn("/O=G/CN=CA"), 512, 0, 1_000_000);
        let alice = ca.issue_identity(&mut rng, dn("/O=G/CN=Alice"), 512, 0, 100_000);
        let service = ca.issue_identity(&mut rng, dn("/O=G/CN=MMJFS"), 512, 0, 100_000);
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
    fn establish_and_exchange() {
        let mut w = world();
        let mut responder = WsscResponder::new(cfg(&w, &w.service));
        let mut session = establish(cfg(&w, &w.alice), &mut responder, &mut w.rng).unwrap();

        assert_eq!(session.peer().base_identity, dn("/O=G/CN=MMJFS"));
        assert_eq!(
            responder.peer(&session.ctx_id).unwrap().base_identity,
            dn("/O=G/CN=Alice")
        );

        // Client → server protected request.
        let req = Envelope::request(
            "createService",
            Element::new("gram:Job").with_text("/bin/sim"),
        );
        let protected = session.protect(&req);
        assert!(protected.is_secured());
        assert!(!protected.to_xml().contains("/bin/sim"));
        let wire = Envelope::parse(&protected.to_xml()).unwrap();
        let (ctx_id, inner) = responder.unprotect(&wire).unwrap();
        assert_eq!(inner.action.as_deref(), Some("createService"));
        assert_eq!(inner.payload().unwrap().text_content(), "/bin/sim");

        // Server → client protected reply.
        let reply = Envelope::request("createServiceResponse", Element::new("gram:Handle"));
        let protected_reply = responder.protect(&ctx_id, &reply).unwrap();
        let opened = session
            .unprotect(&Envelope::parse(&protected_reply.to_xml()).unwrap())
            .unwrap();
        assert_eq!(opened.payload().unwrap().name, "gram:Handle");
    }

    #[test]
    fn resumed_conversation_skips_asymmetric_exchange() {
        let mut w = world();
        let mut responder = WsscResponder::new(cfg(&w, &w.service));
        let first = establish(cfg(&w, &w.alice), &mut responder, &mut w.rng).unwrap();
        assert_eq!(responder.sessions().len(), 1);

        let cached = ClientSession::from_channel(first.channel()).unwrap();
        let mut resumed = resume(cached, 100, 3_600, &mut responder, &mut w.rng).unwrap();
        assert_eq!(responder.sessions().hits(), 1);
        assert_eq!(resumed.peer().base_identity, dn("/O=G/CN=MMJFS"));
        assert_eq!(
            responder.peer(&resumed.ctx_id).unwrap().base_identity,
            dn("/O=G/CN=Alice")
        );

        // The resumed context protects traffic like a full one.
        let req = Envelope::request("query", Element::new("gram:Status"));
        let protected = resumed.protect(&req);
        let (ctx_id, inner) = responder
            .unprotect(&Envelope::parse(&protected.to_xml()).unwrap())
            .unwrap();
        assert_eq!(ctx_id, resumed.ctx_id);
        assert_eq!(inner.payload().unwrap().name, "gram:Status");
    }

    #[test]
    fn resumption_rotates_ticket_for_next_hop() {
        let mut w = world();
        let mut responder = WsscResponder::new(cfg(&w, &w.service));
        let first = establish(cfg(&w, &w.alice), &mut responder, &mut w.rng).unwrap();
        let cached = ClientSession::from_channel(first.channel()).unwrap();
        let old_ticket = *cached.ticket();

        let resumed = resume(cached, 100, 3_600, &mut responder, &mut w.rng).unwrap();
        let rotated = ClientSession::from_channel(resumed.channel()).unwrap();
        assert_ne!(*rotated.ticket(), old_ticket);

        // The rotated ticket resumes again; the original is spent only in
        // the sense that a fresh responder never saw it.
        let again = resume(rotated, 200, 3_600, &mut responder, &mut w.rng).unwrap();
        assert_eq!(again.peer().base_identity, dn("/O=G/CN=MMJFS"));
        assert_eq!(responder.sessions().hits(), 2);
    }

    #[test]
    fn unknown_ticket_faults_and_full_handshake_recovers() {
        let mut w = world();
        let mut responder = WsscResponder::new(cfg(&w, &w.service));
        let first = establish(cfg(&w, &w.alice), &mut responder, &mut w.rng).unwrap();
        let cached = ClientSession::from_channel(first.channel()).unwrap();

        // A freshly restarted responder has an empty session cache.
        let mut reborn = WsscResponder::new(cfg(&w, &w.service));
        match resume(cached, 100, 3_600, &mut reborn, &mut w.rng) {
            Err(WsseError::Context(_)) => {}
            Err(other) => panic!("expected context fault, got {other:?}"),
            Ok(_) => panic!("resume against an empty cache must fault"),
        }
        assert_eq!(reborn.sessions().misses(), 1);

        // Fallback: the client re-runs the full exchange successfully.
        let recovered = establish(cfg(&w, &w.alice), &mut reborn, &mut w.rng).unwrap();
        assert_eq!(recovered.peer().base_identity, dn("/O=G/CN=MMJFS"));
    }

    #[test]
    fn stray_finish_leaves_an_established_context_in_place() {
        let mut w = world();
        let mut responder = WsscResponder::new(cfg(&w, &w.service));
        let mut session = establish(cfg(&w, &w.alice), &mut responder, &mut w.rng).unwrap();
        // Ids are sequential, so any peer can name this one.
        let stray = rst_envelope(
            "wst:RequestSecurityToken",
            Some(&session.ctx_id),
            Some(b"junk"),
        );
        assert!(matches!(
            responder.handle_rst(&stray, &mut w.rng),
            Err(WsseError::Context("context already established"))
        ));
        let protected = session.protect(&Envelope::request("op", Element::new("x")));
        let (id, _) = responder.unprotect(&protected).unwrap();
        assert_eq!(id, session.ctx_id);
    }

    #[test]
    fn multiple_concurrent_contexts() {
        let mut w = world();
        let mut responder = WsscResponder::new(cfg(&w, &w.service));
        let mut s1 = establish(cfg(&w, &w.alice), &mut responder, &mut w.rng).unwrap();
        let mut s2 = establish(cfg(&w, &w.alice), &mut responder, &mut w.rng).unwrap();
        assert_ne!(s1.ctx_id, s2.ctx_id);
        assert_eq!(responder.contexts.len(), 2);

        let p1 = s1.protect(&Envelope::request("a", Element::new("x")));
        let p2 = s2.protect(&Envelope::request("b", Element::new("y")));
        // Each opens only under its own context.
        assert!(responder.unprotect(&p2).is_ok());
        assert!(responder.unprotect(&p1).is_ok());
    }

    #[test]
    fn unknown_context_rejected() {
        let mut w = world();
        let mut responder = WsscResponder::new(cfg(&w, &w.service));
        let mut session = establish(cfg(&w, &w.alice), &mut responder, &mut w.rng).unwrap();
        let mut protected = session.protect(&Envelope::request("a", Element::new("x")));
        // Rewrite the context id inside the Security header.
        protected.headers[0] = Element::new(crate::soap::SECURITY_HEADER).with_child(
            Element::new("wsc:SecurityContextToken")
                .with_child(Element::new("wsc:Identifier").with_text("uuid:ctx-999")),
        );
        assert!(matches!(
            responder.unprotect(&protected).unwrap_err(),
            WsseError::Context(_)
        ));
    }

    #[test]
    fn tampered_protected_body_rejected() {
        let mut w = world();
        let mut responder = WsscResponder::new(cfg(&w, &w.service));
        let mut session = establish(cfg(&w, &w.alice), &mut responder, &mut w.rng).unwrap();
        let protected = session.protect(&Envelope::request("a", Element::new("x")));
        let mut xml = protected.to_xml();
        let pos = xml.find("EncryptedMessage>").unwrap() + 20;
        let replacement = if xml.as_bytes()[pos] == b'A' {
            "B"
        } else {
            "A"
        };
        xml.replace_range(pos..pos + 1, replacement);
        let parsed = Envelope::parse(&xml).unwrap();
        let err = responder.unprotect(&parsed).unwrap_err();
        assert!(matches!(err, WsseError::Decrypt | WsseError::Base64));
    }

    #[test]
    fn untrusted_client_rejected_at_rst() {
        let mut w = world();
        let rogue =
            CertificateAuthority::create_root(&mut w.rng, dn("/O=Evil/CN=CA"), 512, 0, 1_000_000);
        let mallory = rogue.issue_identity(&mut w.rng, dn("/O=Evil/CN=M"), 512, 0, 100_000);
        let mut responder = WsscResponder::new(cfg(&w, &w.service));
        match establish(cfg(&w, &mallory), &mut responder, &mut w.rng) {
            Err(WsseError::Context(_)) => {}
            Err(other) => panic!("unexpected error: {other:?}"),
            Ok(_) => panic!("rogue client must not establish a context"),
        }
    }

    #[test]
    fn rst_envelopes_are_well_formed_soap() {
        let mut w = world();
        let (_initiator, rst) = WsscInitiator::begin(cfg(&w, &w.alice), &mut w.rng);
        let xml = rst.to_xml();
        assert!(xml.contains("RequestSecurityToken"));
        assert!(xml.contains("BinaryExchange"));
        let parsed = Envelope::parse(&xml).unwrap();
        assert_eq!(parsed.action.as_deref(), Some(RST_ACTION));
    }

    #[test]
    fn gss_token_inside_rst_matches_gt2_token_bytes() {
        // Experiment C1's core assertion: the token GT3 sends inside the
        // SOAP envelope is byte-identical to the GT2/TLS token stream.
        let mut w = world();
        // Deterministic RNG → identical tokens from identical state.
        let mut rng1 = ChaChaRng::from_seed_bytes(b"token compare");
        let mut rng2 = ChaChaRng::from_seed_bytes(b"token compare");
        let (_init1, gt2_token) =
            gridsec_gssapi::context::InitiatorContext::new(cfg(&w, &w.alice), &mut rng1);
        let (_init2, rst) = WsscInitiator::begin(cfg(&w, &w.alice), &mut rng2);
        let embedded = rst
            .payload()
            .unwrap()
            .find("wst:BinaryExchange")
            .unwrap()
            .text_content();
        assert_eq!(b64::decode(&embedded).unwrap(), gt2_token);
        let _ = &mut w;
    }
}
