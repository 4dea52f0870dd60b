//! The client-side security pipeline of Figure 3.
//!
//! An application using [`OgsaClient`] supplies: a transport, the trust
//! store, and one or more [`CredentialSource`]s. For each invocation the
//! client's "hosting environment" (this module) performs:
//!
//! 1. **Policy retrieval** — fetch the target's published WS-Policy.
//! 2. **Credential selection / conversion** — intersect the policy with
//!    local capabilities; if the needed token type is not already in
//!    hand, a [`CredentialSource`] produces it (e.g. a KCA conversion
//!    from a Kerberos ticket, or a CAS assertion fetch — both provided by
//!    `gridsec-services`).
//! 3. **Token processing** (with step 4 on the server side) — establish a
//!    WS-SecureConversation context or produce a stateless XML-Signature,
//!    per the negotiated mechanism.
//! 5. The service-side authorization happens in the target's hosting
//!    environment; this client surfaces any `not-authorized` fault.
//!
//! The application itself only ever calls [`OgsaClient::invoke`] /
//! [`OgsaClient::create_service`] — security is infrastructure.

use gridsec_crypto::rng::ChaChaRng;
use gridsec_gssapi::context::{resume_or_establish, LoopError};
use gridsec_pki::credential::Credential;
use gridsec_pki::store::{CrlStore, Epoch, TrustStore};
use gridsec_testbed::clock::SimClock;
use gridsec_tls::handshake::TlsConfig;
use gridsec_tls::session::{ClientSessionCache, DEFAULT_SESSION_CAPACITY};
use gridsec_wsse::policy::{self, PolicyAlternative, Protection, SecurityPolicy};
use gridsec_wsse::soap::Envelope;
use gridsec_wsse::wssc::{WsscInitiator, WsscSession};
use gridsec_wsse::xmlsig;
use gridsec_xml::Element;

use crate::hosting::parse_fault;
use crate::transport::Transport;
use crate::OgsaError;

/// A way to obtain a GSI credential of a particular token type.
///
/// `gridsec-services` provides sources backed by credential-conversion
/// services (KCA) and by CAS; the trivial case is a credential already in
/// hand.
pub trait CredentialSource {
    /// The WS-Policy token type this source can satisfy (e.g.
    /// `"x509-chain"`, `"kerberos-ticket"`, `"cas-assertion"`).
    fn token_type(&self) -> &str;
    /// Produce (possibly by conversion) a GSI credential at time `now`.
    fn obtain(&mut self, now: u64) -> Result<Credential, OgsaError>;
}

/// A credential already in hand (token type `x509-chain`).
pub struct StaticCredential(pub Credential);

impl CredentialSource for StaticCredential {
    fn token_type(&self) -> &str {
        "x509-chain"
    }
    fn obtain(&mut self, _now: u64) -> Result<Credential, OgsaError> {
        Ok(self.0.clone())
    }
}

/// Mechanisms this client implementation supports, in preference order.
const CLIENT_MECHANISMS: [&str; 2] = ["gsi-secure-conversation", "xml-signature"];

/// The OGSA client: Figure 3's left-hand hosting environment.
pub struct OgsaClient<T: Transport> {
    transport: T,
    trust: TrustStore,
    crls: CrlStore,
    clock: SimClock,
    rng: ChaChaRng,
    sources: Vec<Box<dyn CredentialSource>>,
    /// The live conversation, with the trust epoch its handshake
    /// authenticated the server under; used only while that epoch holds.
    session: Option<(Epoch, WsscSession)>,
    /// Tickets, each filed under the epoch of its handshake.
    session_cache: ClientSessionCache,
    server_policy: Option<SecurityPolicy>,
    chosen: Option<PolicyAlternative>,
    message_ttl: u64,
    /// Count of policy fetches (experiment instrumentation).
    pub policy_fetches: u64,
    /// Count of full context establishments (experiment instrumentation).
    pub contexts_established: u64,
    /// Count of contexts re-established via session resumption,
    /// skipping the asymmetric exchange entirely.
    pub contexts_resumed: u64,
}

impl<T: Transport> OgsaClient<T> {
    /// Create a client.
    pub fn new(transport: T, trust: TrustStore, clock: SimClock, rng_seed: &[u8]) -> Self {
        OgsaClient {
            transport,
            trust,
            crls: CrlStore::new(),
            clock,
            rng: ChaChaRng::from_seed_bytes(rng_seed),
            sources: Vec::new(),
            session: None,
            session_cache: ClientSessionCache::new(DEFAULT_SESSION_CAPACITY),
            server_policy: None,
            chosen: None,
            message_ttl: 300,
            policy_fetches: 0,
            contexts_established: 0,
            contexts_resumed: 0,
        }
    }

    /// Add a credential source (step 2 capability).
    pub fn add_source(&mut self, source: Box<dyn CredentialSource>) {
        self.sources.push(source);
    }

    /// Install revocation state for verifying the server: its signed
    /// replies and every new handshake's chain. The store's epoch moves,
    /// so neither the live conversation nor a cached ticket, both
    /// authenticated under the old state, is used again.
    pub fn set_crls(&mut self, crls: CrlStore) {
        self.crls = crls;
    }

    // ------------------------------------------------------------------
    // Figure 3 step 1: policy retrieval
    // ------------------------------------------------------------------

    /// Fetch (and cache) the target's published security policy.
    pub fn fetch_policy(&mut self) -> Result<SecurityPolicy, OgsaError> {
        if let Some(p) = &self.server_policy {
            return Ok(p.clone());
        }
        let req = Envelope::request("getPolicy", Element::new("ogsa:GetPolicy"));
        let reply_xml = self.transport.call(req.to_xml())?;
        let reply = Envelope::parse(&reply_xml)?;
        if let Some((code, msg)) = parse_fault(&reply) {
            return Err(OgsaError::Application(format!("{code}: {msg}")));
        }
        let policy_el = reply
            .payload()
            .ok_or(OgsaError::Malformed("empty policy reply"))?;
        let policy = SecurityPolicy::from_element(policy_el)?;
        self.server_policy = Some(policy.clone());
        self.policy_fetches += 1;
        Ok(policy)
    }

    // ------------------------------------------------------------------
    // Figure 3 step 2: mechanism + credential selection
    // ------------------------------------------------------------------

    fn client_capabilities(&self) -> SecurityPolicy {
        let token_types: Vec<String> = self
            .sources
            .iter()
            .map(|s| s.token_type().to_string())
            .collect();
        SecurityPolicy {
            service: "client".to_string(),
            alternatives: CLIENT_MECHANISMS
                .iter()
                .map(|m| PolicyAlternative {
                    mechanism: m.to_string(),
                    token_types: token_types.clone(),
                    trust_roots: self
                        .trust
                        .roots()
                        .iter()
                        .map(|r| r.subject().to_string())
                        .collect(),
                    protection: Protection::Sign,
                })
                .collect(),
        }
    }

    fn negotiate(&mut self) -> Result<PolicyAlternative, OgsaError> {
        if let Some(alt) = &self.chosen {
            return Ok(alt.clone());
        }
        let server = self.fetch_policy()?;
        let alt = policy::intersect(&self.client_capabilities(), &server)?;
        self.chosen = Some(alt.clone());
        Ok(alt)
    }

    // ------------------------------------------------------------------
    // Figure 3 steps 3-4: secured exchange
    // ------------------------------------------------------------------

    /// Send a secured request and return the reply payload element.
    pub(crate) fn call_secure(&mut self, env: Envelope) -> Result<Envelope, OgsaError> {
        let alt = self.negotiate()?;
        match alt.mechanism.as_str() {
            "gsi-secure-conversation" => self.call_stateful(env, &alt),
            "xml-signature" => self.call_stateless(env, &alt),
            _ => Err(OgsaError::NoUsableCredential),
        }
    }

    /// The session-cache key for this client's single target service.
    fn cache_key(&self) -> String {
        self.server_policy
            .as_ref()
            .map(|p| p.service.clone())
            .unwrap_or_else(|| "service".to_string())
    }

    /// Open a WS-SecureConversation context unless one authenticated
    /// under the current trust epoch is live, by [`resume_or_establish`]:
    /// a cached ticket is offered first, and a fault in answer to it runs
    /// the full exchange once.
    fn ensure_session(&mut self, alt: &PolicyAlternative) -> Result<(), OgsaError> {
        let epoch = Epoch::of(&self.trust, &self.crls);
        if self.session.as_ref().is_some_and(|(e, _)| *e == epoch) {
            return Ok(());
        }
        let key = self.cache_key();
        let now = self.clock.now();
        let (session, resumed) =
            resume_or_establish(
                &mut self.session_cache,
                Some(&key),
                now,
                epoch,
                &mut self.rng,
                || {
                    let credential = credential_for(&mut self.sources, alt, now)?;
                    Ok(TlsConfig::new(credential, self.trust.clone(), now)
                        .with_crls(self.crls.clone()))
                },
                |_, initiator, token| {
                    let resumed = initiator.resuming();
                    let (initiator, rst1) = WsscInitiator::carry(initiator, &token);
                    let rstr1 = token_round_trip(&mut self.transport, rst1)?;
                    let (rst2, session) = initiator
                        .finish(&rstr1)
                        .map_err(|e| LoopError::Failed(e.into()))?;
                    token_round_trip(&mut self.transport, rst2)?;
                    Ok((session, resumed))
                },
            )?;
        // Bank the session: a full handshake mints a ticket, a resumption
        // rotates it.
        self.session_cache.store(&key, session.channel());
        if resumed {
            self.contexts_resumed += 1;
        } else {
            self.contexts_established += 1;
        }
        self.session = Some((epoch, session));
        Ok(())
    }

    fn call_stateful(
        &mut self,
        env: Envelope,
        alt: &PolicyAlternative,
    ) -> Result<Envelope, OgsaError> {
        self.ensure_session(alt)?;
        let (_, session) = self.session.as_mut().expect("ensured above");
        let protected = session.protect(&env);
        let reply_xml = self.transport.call(protected.to_xml())?;
        let reply = Envelope::parse(&reply_xml)?;
        if let Some((code, msg)) = parse_fault(&reply) {
            return Err(fault_to_error(&code, &msg));
        }
        let inner = session.unprotect(&reply)?;
        if let Some((code, msg)) = parse_fault(&inner) {
            return Err(fault_to_error(&code, &msg));
        }
        Ok(inner)
    }

    fn call_stateless(
        &mut self,
        env: Envelope,
        alt: &PolicyAlternative,
    ) -> Result<Envelope, OgsaError> {
        let credential = credential_for(&mut self.sources, alt, self.clock.now())?;
        let signed = xmlsig::sign_envelope(&env, &credential, self.clock.now(), self.message_ttl);
        let reply_xml = self.transport.call(signed.to_xml())?;
        let reply = Envelope::parse(&reply_xml)?;
        if let Some((code, msg)) = parse_fault(&reply) {
            return Err(fault_to_error(&code, &msg));
        }
        // Mutual authentication: the server's reply must verify too.
        xmlsig::verify_envelope(&reply, &self.trust, &self.crls, self.clock.now())
            .map_err(|_| OgsaError::InsecureReply("reply signature invalid"))?;
        Ok(reply)
    }

    // ------------------------------------------------------------------
    // Application-facing operations
    // ------------------------------------------------------------------

    /// `createService` on a factory type; returns the new handle.
    pub fn create_service(
        &mut self,
        service_type: &str,
        args: Element,
    ) -> Result<String, OgsaError> {
        let payload = Element::new("ogsa:CreateService")
            .with_attr("type", service_type)
            .with_child(Element::new("ogsa:Args").with_child(args));
        let reply = self.call_secure(Envelope::request("createService", payload))?;
        Ok(reply
            .payload()
            .ok_or(OgsaError::Malformed("empty create reply"))?
            .text_content())
    }

    /// Invoke an operation on a service instance.
    pub fn invoke(
        &mut self,
        handle: &str,
        operation: &str,
        payload: Element,
    ) -> Result<Element, OgsaError> {
        let body = Element::new("ogsa:Invoke")
            .with_attr("handle", handle)
            .with_attr("op", operation)
            .with_child(payload);
        let reply = self.call_secure(Envelope::request("invoke", body))?;
        reply
            .body
            .into_iter()
            .next()
            .ok_or(OgsaError::Malformed("empty invoke reply"))
    }

    /// Query a service data element.
    pub fn query_service_data(&mut self, handle: &str, name: &str) -> Result<Element, OgsaError> {
        let body = Element::new("ogsa:Query")
            .with_attr("handle", handle)
            .with_attr("name", name);
        let reply = self.call_secure(Envelope::request("queryServiceData", body))?;
        reply
            .body
            .into_iter()
            .next()
            .ok_or(OgsaError::Malformed("empty query reply"))
    }

    /// Destroy a service instance.
    pub fn destroy(&mut self, handle: &str) -> Result<(), OgsaError> {
        let body = Element::new("ogsa:Destroy").with_attr("handle", handle);
        self.call_secure(Envelope::request("destroy", body))?;
        Ok(())
    }

    /// Drop the active conversation. The resumption ticket stays in the
    /// session cache, so the next invocation re-establishes via the
    /// abbreviated exchange instead of a full handshake.
    pub fn reset_session(&mut self) {
        self.session = None;
    }

    /// Drop the active conversation *and* its resumption ticket (forces
    /// a full handshake on the next invocation).
    pub fn forget_session(&mut self) {
        self.session = None;
        self.session_cache.invalidate(&self.cache_key());
    }

    /// Drop cached policy + negotiation (forces re-discovery).
    pub fn reset_policy(&mut self) {
        self.server_policy = None;
        self.chosen = None;
    }
}

/// The first source that can satisfy `alt`, asked for a credential at
/// `now`.
fn credential_for(
    sources: &mut [Box<dyn CredentialSource>],
    alt: &PolicyAlternative,
    now: u64,
) -> Result<Credential, OgsaError> {
    for source in sources {
        if alt.token_types.iter().any(|t| t == source.token_type()) {
            return source.obtain(now);
        }
    }
    Err(OgsaError::NoUsableCredential)
}

/// One RST/RSTR round trip of context establishment: a fault in answer
/// is the service refusing the token.
fn token_round_trip(
    transport: &mut impl Transport,
    rst: Envelope,
) -> Result<Envelope, LoopError<OgsaError>> {
    let reply = transport
        .call(rst.to_xml())
        .and_then(|xml| Ok(Envelope::parse(&xml)?))
        .map_err(LoopError::Failed)?;
    match parse_fault(&reply) {
        Some((code, msg)) => Err(LoopError::Refused(OgsaError::Application(format!(
            "{code}: {msg}"
        )))),
        None => Ok(reply),
    }
}

fn fault_to_error(code: &str, msg: &str) -> OgsaError {
    match code {
        "not-authorized" => OgsaError::NotAuthorized {
            caller: "self".to_string(),
            operation: msg.to_string(),
        },
        "no-such-service" => OgsaError::NoSuchService(msg.to_string()),
        "no-such-factory" => OgsaError::NoSuchFactory(msg.to_string()),
        _ => OgsaError::Application(format!("{code}: {msg}")),
    }
}
