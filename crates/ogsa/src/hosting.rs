//! The hosting environment: the container that terminates security for
//! every service it hosts (paper §4.2, §4.5 server side).
//!
//! One [`HostingEnvironment`] per (host, account) pair in GRAM terms.
//! Its `handle_message` entry point implements the server half of
//! Figure 3: recognize security-protocol messages and route them to the
//! token-processing machinery (step 4), authenticate application
//! messages, call out to the authorization policy (step 5), write audit
//! records, and only then let the application service see the request.

use std::borrow::Cow;

use gridsec_crypto::rng::ChaChaRng;
use gridsec_pki::credential::Credential;
use gridsec_pki::store::{CrlStore, TrustStore};
use gridsec_pki::validate::{CachedValidator, ValidatedIdentity};
use gridsec_testbed::clock::SimClock;
use gridsec_tls::handshake::TlsConfig;
use gridsec_wsse::policy::SecurityPolicy;
use gridsec_wsse::soap::Envelope;
use gridsec_wsse::wssc::{WsscResponder, RST_ACTION, SECURED_ACTION_PREFIX};
use gridsec_wsse::xmlsig::{self, SIGNER_MEMO_CAPACITY};
use gridsec_xml::Element;

use gridsec_authz::cas::ResourceGate;
use gridsec_authz::policy::PolicySet;
use gridsec_authz::AuthzError;

use crate::service::{RequestContext, ServiceRegistry};
use crate::OgsaError;

/// One audit record (paper §4.1's audit service consumes these).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditEvent {
    /// Event time.
    pub now: u64,
    /// Authenticated caller (base identity), or `"-"` for unauthenticated.
    pub caller: String,
    /// The attempted operation (action + target).
    pub operation: String,
    /// `"permit"`, `"deny"`, or `"error"`.
    pub outcome: String,
    /// Why a `"deny"` was denied.
    pub reason: Option<AuthzError>,
}

/// Audit callback type.
pub type AuditSink = Box<dyn FnMut(AuditEvent)>;

/// A container hosting Grid services behind a security pipeline.
pub struct HostingEnvironment {
    clock: SimClock,
    /// Service registry (factories + instances).
    pub registry: ServiceRegistry,
    published_policy: SecurityPolicy,
    /// The WS-SecureConversation responder. Its `config()` is the one
    /// copy of this environment's credential and trust state, which the
    /// stateless branch reads too.
    responder: WsscResponder,
    /// Verdicts on the chains of stateless-message signers, keyed by
    /// `BinarySecurityToken` text and filed under the trust epoch of the
    /// stores they were walked against; bounded by
    /// [`SIGNER_MEMO_CAPACITY`].
    signers: CachedValidator,
    /// The authorization decision point (Figure 3 step 5).
    pub gate: ResourceGate,
    audit: Option<AuditSink>,
    rng: ChaChaRng,
    reply_ttl: u64,
}

impl HostingEnvironment {
    /// Create a hosting environment.
    pub fn new(
        name: &str,
        credential: Credential,
        trust: TrustStore,
        clock: SimClock,
        published_policy: SecurityPolicy,
        authz: PolicySet,
    ) -> Self {
        let tls_config = TlsConfig::new(credential, trust, clock.now());
        HostingEnvironment {
            clock,
            registry: ServiceRegistry::new(),
            published_policy,
            responder: WsscResponder::new(tls_config),
            signers: CachedValidator::new(SIGNER_MEMO_CAPACITY),
            gate: ResourceGate::new(authz),
            audit: None,
            rng: ChaChaRng::from_seed_bytes(name.as_bytes()),
            reply_ttl: 300,
        }
    }

    /// Install an audit sink.
    pub fn set_audit(&mut self, sink: AuditSink) {
        self.audit = Some(sink);
    }

    /// Install revocation state, checked by stateless signed messages
    /// and by every new WS-SecureConversation handshake. Memoised signer
    /// verdicts and resumable sessions filed under the old state stop
    /// hitting, because the store's epoch moved.
    pub fn set_crls(&mut self, crls: CrlStore) {
        self.responder.set_crls(crls);
    }

    fn audit_event(&mut self, caller: &str, op: &str, outcome: &str, why: Option<AuthzError>) {
        if let Some(sink) = &mut self.audit {
            sink(AuditEvent {
                now: self.clock.now(),
                caller: caller.to_string(),
                operation: op.to_string(),
                outcome: outcome.to_string(),
                reason: why,
            });
        }
    }

    /// Top-level entry point: one request envelope in, one reply envelope
    /// out. Never panics on hostile input; faults are SOAP faults.
    pub fn handle_message(&mut self, request_xml: &str) -> String {
        match self.dispatch(request_xml) {
            Ok(reply) => reply.to_xml(),
            Err(e) => fault_envelope(&e).to_xml(),
        }
    }

    fn dispatch(&mut self, request_xml: &str) -> Result<Envelope, OgsaError> {
        let env = Envelope::parse(request_xml)?;
        // Refresh the responder's notion of time lazily: contexts formed
        // earlier remain valid; new handshakes check current time.
        match env.action.as_deref() {
            // Policy retrieval is deliberately unsecured: it is how
            // clients *bootstrap* security (paper §4.3).
            Some("getPolicy") => Ok(Envelope::request(
                "getPolicyResponse",
                self.published_policy.to_element(),
            )),
            // WS-Trust token exchange (Figure 3 steps 3-4).
            Some(a) if a == RST_ACTION => {
                // New handshakes must validate chains at the current time.
                self.responder.set_time(self.clock.now());
                let reply = self
                    .responder
                    .handle_rst(&env, &mut self.rng)
                    .map_err(OgsaError::Wsse)?;
                Ok(reply)
            }
            // Protected application message under an established context.
            Some(a) if a.starts_with(SECURED_ACTION_PREFIX) => {
                let (ctx_id, inner) = self.responder.unprotect(&env).map_err(OgsaError::Wsse)?;
                let caller = self
                    .responder
                    .peer(&ctx_id)
                    .cloned()
                    .ok_or(OgsaError::Malformed("context lost"))?;
                let reply = self.process_authenticated(&inner, caller)?;
                Ok(self
                    .responder
                    .protect(&ctx_id, &reply)
                    .map_err(OgsaError::Wsse)?)
            }
            // Stateless signed message.
            Some(_) => {
                let tls = self.responder.config();
                let verified = xmlsig::verify_envelope_cached(
                    &env,
                    &mut self.signers,
                    &tls.trust,
                    &tls.crls,
                    self.clock.now(),
                )
                .map_err(OgsaError::Wsse)?;
                let reply = self.process_authenticated(&env, verified.identity)?;
                // Sign the reply so the client can authenticate us too.
                Ok(xmlsig::sign_envelope(
                    &reply,
                    &self.responder.config().credential,
                    self.clock.now(),
                    self.reply_ttl,
                ))
            }
            None => Err(OgsaError::Malformed("missing action")),
        }
    }

    /// Process a request whose caller is authenticated (Figure 3 step 5 +
    /// application dispatch).
    fn process_authenticated(
        &mut self,
        env: &Envelope,
        caller: ValidatedIdentity,
    ) -> Result<Envelope, OgsaError> {
        let action = env.action.as_deref().unwrap_or("");
        let payload = env.payload().ok_or(OgsaError::Malformed("empty body"))?;
        let now = self.clock.now();
        let caller_name = caller.base_identity.to_string();

        // Parse the wire payload into a typed request exactly once:
        // every attacker-controlled attribute is validated here, before
        // authorization, and the dispatch below never touches the raw
        // envelope again.
        let req = AppRequest::parse(action, payload)?;

        // Resolve the authorization target: a factory, or the type of an
        // existing instance.
        let service = |handle: &str| {
            self.registry
                .service_type_of(handle)
                .map(|ty| format!("service:{ty}"))
                .ok_or_else(|| OgsaError::NoSuchService(handle.to_string()))
        };
        let (resource, verb, op_desc) = match &req {
            AppRequest::Create { ty, .. } => (
                format!("factory:{ty}"),
                "create",
                format!("createService {ty}"),
            ),
            AppRequest::Invoke { handle, op, .. } => {
                (service(handle)?, *op, format!("invoke {handle} {op}"))
            }
            AppRequest::Query { handle, .. } => {
                (service(handle)?, "query", format!("query {handle}"))
            }
            AppRequest::Destroy { handle } => {
                (service(handle)?, "destroy", format!("destroy {handle}"))
            }
        };

        // Authorization callout (Figure 3 step 5).
        if let Err(e) = self.gate.permits(&caller, &resource, verb, now) {
            self.audit_event(&caller_name, &op_desc, "deny", Some(e));
            return Err(OgsaError::NotAuthorized {
                caller: caller_name,
                operation: op_desc,
            });
        }

        // Application dispatch, consuming the already-validated request.
        let result = match req {
            AppRequest::Create { ty, args } => {
                let ctx = RequestContext {
                    caller,
                    now,
                    handle: String::new(),
                };
                let args = args.cloned().unwrap_or_else(|| Element::new("ogsa:Args"));
                let handle = self.registry.create(ty, &ctx, &args)?;
                Ok(Envelope::request(
                    "createServiceResponse",
                    Element::new("ogsa:Handle").with_text(handle),
                ))
            }
            AppRequest::Invoke { handle, op, inner } => {
                let ctx = RequestContext {
                    caller,
                    now,
                    handle: handle.to_string(),
                };
                let inner =
                    inner.map_or_else(|| Cow::Owned(Element::new("ogsa:Empty")), Cow::Borrowed);
                let out = self.registry.invoke(handle, &ctx, op, &inner)?;
                Ok(Envelope::request("invokeResponse", out))
            }
            AppRequest::Query { handle, name } => {
                let sde = self
                    .registry
                    .query(handle, name)?
                    .unwrap_or_else(|| Element::new("ogsa:NoSuchSde"));
                Ok(Envelope::request("queryServiceDataResponse", sde))
            }
            AppRequest::Destroy { handle } => {
                self.registry.destroy(handle)?;
                Ok(Envelope::request(
                    "destroyResponse",
                    Element::new("ogsa:Ok"),
                ))
            }
        };
        let outcome = if result.is_ok() { "permit" } else { "error" };
        self.audit_event(&caller_name, &op_desc, outcome, None);
        result
    }
}

/// An application request with every wire-derived field extracted and
/// validated. Constructing one is the *only* place dispatch reads
/// attacker-controlled attributes, so a missing attribute is always a
/// typed [`OgsaError::Malformed`] fault — never a panic.
enum AppRequest<'a> {
    /// `createService`: instantiate `ty` via its factory.
    Create {
        ty: &'a str,
        args: Option<&'a Element>,
    },
    /// `invoke`: call `op` on the instance at `handle`.
    Invoke {
        handle: &'a str,
        op: &'a str,
        inner: Option<&'a Element>,
    },
    /// `queryServiceData`: read service-data element `name` of `handle`.
    Query { handle: &'a str, name: &'a str },
    /// `destroy`: terminate the instance at `handle`.
    Destroy { handle: &'a str },
}

impl<'a> AppRequest<'a> {
    fn parse(action: &str, payload: &'a Element) -> Result<Self, OgsaError> {
        match action {
            "createService" => Ok(AppRequest::Create {
                ty: payload
                    .attr("type")
                    .ok_or(OgsaError::Malformed("CreateService needs type"))?,
                args: payload.find("ogsa:Args"),
            }),
            "invoke" => Ok(AppRequest::Invoke {
                handle: payload
                    .attr("handle")
                    .ok_or(OgsaError::Malformed("Invoke needs handle"))?,
                op: payload
                    .attr("op")
                    .ok_or(OgsaError::Malformed("Invoke needs op"))?,
                inner: payload.child_elements().next(),
            }),
            "queryServiceData" => Ok(AppRequest::Query {
                handle: payload
                    .attr("handle")
                    .ok_or(OgsaError::Malformed("Query needs handle"))?,
                name: payload
                    .attr("name")
                    .ok_or(OgsaError::Malformed("Query needs name"))?,
            }),
            "destroy" => Ok(AppRequest::Destroy {
                handle: payload
                    .attr("handle")
                    .ok_or(OgsaError::Malformed("Destroy needs handle"))?,
            }),
            _ => Err(OgsaError::Malformed("unknown action")),
        }
    }
}

/// Render an error as a SOAP fault envelope.
pub fn fault_envelope(err: &OgsaError) -> Envelope {
    let code = match err {
        OgsaError::Wsse(_) => "security",
        OgsaError::NotAuthorized { .. } => "not-authorized",
        OgsaError::NoSuchService(_) => "no-such-service",
        OgsaError::NoSuchFactory(_) => "no-such-factory",
        OgsaError::Application(_) => "application",
        OgsaError::Transport(_) => "transport",
        OgsaError::InsecureReply(_) => "insecure-reply",
        OgsaError::NoUsableCredential => "no-credential",
        OgsaError::Malformed(_) => "malformed",
    };
    Envelope::request(
        "fault",
        Element::new("ogsa:Fault")
            .with_attr("code", code)
            .with_text(err.to_string()),
    )
}

/// Parse a fault envelope back into an error description.
pub fn parse_fault(env: &Envelope) -> Option<(String, String)> {
    if env.action.as_deref() != Some("fault") {
        return None;
    }
    let f = env.payload()?;
    Some((
        f.attr("code").unwrap_or("unknown").to_string(),
        f.text_content(),
    ))
}
