//! The requestor side of GT3 GRAM (Figure 4, left).
//!
//! Implements step 1 (sign the job description) and step 7 (mutual
//! authentication with the MJS, *client-side authorization of the MJS via
//! its GRIM credential*, credential delegation, and job start).
//!
//! Step 7's context is paid for once per LMJFS, then resumed: the
//! requestor keeps the session of every MJS it authorized, keyed by the
//! (host identity, account) it authorized, and its next job there sends
//! a ResumeHello instead of a ClientHello. Authorization and delegation
//! run on every job all the same: each job's proxy is fresh, signed over
//! the delegation key its LMJFS holds
//! ([`GramResource::mjs_accept_delegation`]).

use gridsec_crypto::rng::ChaChaRng;
use gridsec_gssapi::context::{resume_or_establish, EstablishedContext, LoopError};
use gridsec_gssapi::delegation;
use gridsec_pki::credential::Credential;
use gridsec_pki::name::DistinguishedName;
use gridsec_pki::proxy::ProxyType;
use gridsec_pki::store::{CrlStore, Epoch, TrustStore};
use gridsec_tls::handshake::TlsConfig;
use gridsec_tls::session::{ClientSessionCache, DEFAULT_SESSION_CAPACITY};
use gridsec_wsse::soap::Envelope;
use gridsec_wsse::xmlsig;

use crate::grim::{self, GrimPolicy};
use crate::resource::{GramResource, MjsAcceptor};
use crate::types::JobDescription;
use crate::GramError;

/// A running job from the requestor's perspective.
#[derive(Debug)]
pub struct ActiveJob {
    /// The MJS handle.
    pub handle: String,
    /// Whether submission took the cold (MMJFS) path.
    pub cold_start: bool,
    /// The remote account the job runs in.
    pub account: String,
}

/// A GRAM client holding user proxy credentials.
pub struct Requestor {
    pub(crate) credential: Credential,
    pub(crate) trust: TrustStore,
    pub(crate) rng: ChaChaRng,
    pub(crate) request_ttl: u64,
    pub(crate) delegation_lifetime: u64,
    /// Step-7 sessions with MJSs already authorized, by
    /// [`session_key`], each filed under the trust epoch of its handshake.
    sessions: ClientSessionCache,
}

/// How step 7's two handshake tokens reach the MJS: in process, or over
/// RPC ([`crate::remote`]).
pub(crate) trait MjsLink {
    /// What the link keeps of the MJS between token 1 and token 3.
    type Half;
    /// What token 3 leaves the requestor holding of the MJS's side: its
    /// context in process, nothing over RPC.
    type Theirs;
    /// Deliver token 1 (a ClientHello or a ResumeHello); returns token 2.
    fn hello(
        &mut self,
        rng: &mut ChaChaRng,
        token: &[u8],
    ) -> Result<(Vec<u8>, Self::Half), GramError>;
    /// Deliver token 3; the MJS's half of the context is then established.
    fn finished(&mut self, half: Self::Half, token: &[u8]) -> Result<Self::Theirs, GramError>;
}

/// The client cache key for the MJSs of `account` on `host`.
fn session_key(host: &DistinguishedName, account: &str) -> String {
    format!("{host}\n{account}")
}

impl Requestor {
    /// Create a requestor. `credential` is typically a proxy from
    /// `grid-proxy-init` style sign-on.
    pub fn new(credential: Credential, trust: TrustStore, rng_seed: &[u8]) -> Self {
        Requestor {
            credential,
            trust,
            rng: ChaChaRng::from_seed_bytes(rng_seed),
            request_ttl: 300,
            delegation_lifetime: 43_200,
            sessions: ClientSessionCache::new(DEFAULT_SESSION_CAPACITY),
        }
    }

    /// The requestor's grid identity.
    pub(crate) fn identity(&self) -> &DistinguishedName {
        self.credential.base_identity()
    }

    /// Step 1: form and sign the job request. The result is a
    /// transport-independent signed envelope — deliverable to a service
    /// that does not exist yet (the stateless property of §5.1).
    pub fn signed_request(&mut self, description: &JobDescription, now: u64) -> String {
        let env = Envelope::request("createManagedJob", description.to_element());
        xmlsig::sign_envelope(&env, &self.credential, now, self.request_ttl).to_xml()
    }

    /// Full submission: steps 1–7 against a resource, in process.
    pub fn submit_job(
        &mut self,
        resource: &mut GramResource,
        description: &JobDescription,
        now: u64,
    ) -> Result<ActiveJob, GramError> {
        // Steps 1–6.
        let request = self.signed_request(description, now);
        let outcome = resource.submit(&request)?;

        // Step 7.
        self.connect_and_start(resource, &outcome.mjs_handle, Some(&outcome.account), now)?;
        Ok(ActiveJob {
            handle: outcome.mjs_handle,
            cold_start: outcome.cold_start,
            account: outcome.account,
        })
    }

    /// Step 7's mutual authentication with the MJS behind `link`, by
    /// [`resume_or_establish`]: when a live session for (`host`,
    /// `account`) is cached, the abbreviated handshake resumes it;
    /// otherwise — or when the MJS refuses the ticket (unknown, expired,
    /// its LMJFS's cache emptied) — the full token loop runs. The ticket
    /// is taken out of the cache when offered, so one that fails is never
    /// offered again; the session is stored back only by
    /// [`Requestor::authorize_mjs`].
    pub(crate) fn authenticate_mjs<L: MjsLink>(
        &mut self,
        link: &mut L,
        host: &DistinguishedName,
        account: Option<&str>,
        now: u64,
    ) -> Result<(EstablishedContext, L::Theirs), GramError> {
        let key = account.map(|a| session_key(host, a));
        let (credential, trust) = (&self.credential, &self.trust);
        // The requestor checks no CRLs: its epoch is its anchors'.
        let epoch = Epoch::of(trust, &CrlStore::new());
        resume_or_establish(
            &mut self.sessions,
            key.as_deref(),
            now,
            epoch,
            &mut self.rng,
            || Ok(TlsConfig::new(credential.clone(), trust.clone(), now)),
            |rng, initiator, token1| {
                let (token2, half) = link.hello(rng, &token1).map_err(refusal)?;
                let (token3, context) = initiator
                    .step(&token2)
                    .map_err(|e| LoopError::Failed(GramError::context(e)))?;
                let theirs = link.finished(half, &token3).map_err(refusal)?;
                Ok((context, theirs))
            },
        )
    }

    /// Step 7's client-side authorization of the MJS
    /// ([`grim::authorize_mjs`]), run on every context, full or resumed.
    /// An authorized context's session is kept for the next job to the
    /// same host and account.
    pub(crate) fn authorize_mjs(
        &mut self,
        context: &EstablishedContext,
        host: &DistinguishedName,
        account: Option<&str>,
    ) -> Result<GrimPolicy, GramError> {
        let policy = grim::authorize_mjs(context.peer(), host, self.identity(), account)?;
        self.sessions
            .store(&session_key(host, &policy.account), context.channel());
        Ok(policy)
    }

    /// Step 7: connect to the MJS, mutually authenticate, authorize the
    /// MJS via its GRIM credential, delegate, and start the job.
    ///
    /// `expected_account`, when known, is checked against the account the
    /// GRIM credential names — the paper's "running not only on the right
    /// host but also in an appropriate account" — and lets the context
    /// resume the session of an earlier job in that account.
    pub fn connect_and_start(
        &mut self,
        resource: &mut GramResource,
        handle: &str,
        expected_account: Option<&str>,
        now: u64,
    ) -> Result<(), GramError> {
        // Right host: the GRIM chain must bottom out at the resource's
        // host identity (the client knows which host it contacted).
        let host = resource.host_identity().clone();
        let mut link = InProcess { resource, handle };
        let (mut my_ctx, mut mjs_ctx) =
            self.authenticate_mjs(&mut link, &host, expected_account, now)?;
        let resource = link.resource;
        self.authorize_mjs(&my_ctx, &host, expected_account)?;

        // Delegation: the MJS answers with its LMJFS's key; we sign a
        // fresh proxy over it.
        let d1 = delegation::request_delegation(&mut my_ctx);
        let (d2, pending) =
            resource.mjs_accept_delegation(handle, &mut self.rng, &mut mjs_ctx, &d1)?;
        let d3 = delegation::deliver_proxy(
            &mut my_ctx,
            &mut self.rng,
            &self.credential,
            &d2,
            ProxyType::Impersonation,
            now,
            self.delegation_lifetime,
        )
        .map_err(GramError::context)?;
        let delegated = pending
            .finish(&mut mjs_ctx, &d3)
            .map_err(GramError::context)?;

        // Start command over the secured channel.
        let start = my_ctx.wrap(b"start-job");
        let start_plain = mjs_ctx.unwrap(&start).map_err(GramError::context)?;
        if start_plain != b"start-job" {
            return Err(GramError::context("start command corrupted"));
        }
        let requestor_identity = mjs_ctx.peer().base_identity.clone();
        resource.mjs_start_job(handle, &requestor_identity, delegated)?;
        Ok(())
    }

    /// Cancel a job we own.
    pub fn cancel(&mut self, resource: &mut GramResource, handle: &str) -> Result<(), GramError> {
        let me = self.identity().clone();
        resource.cancel(handle, &me)
    }
}

/// A step-7 leg's failure: the MJS refused the token, unless the
/// transport failed.
fn refusal(e: GramError) -> LoopError<GramError> {
    match e {
        GramError::Transport(_) => LoopError::Failed(e),
        refused => LoopError::Refused(refused),
    }
}

/// Step 7's tokens delivered in process to an MJS on `resource`.
struct InProcess<'a> {
    resource: &'a mut GramResource,
    handle: &'a str,
}

impl MjsLink for InProcess<'_> {
    type Half = MjsAcceptor;
    type Theirs = EstablishedContext;

    fn hello(
        &mut self,
        rng: &mut ChaChaRng,
        token: &[u8],
    ) -> Result<(Vec<u8>, MjsAcceptor), GramError> {
        self.resource.mjs_accept_hello(self.handle, rng, token)
    }

    fn finished(
        &mut self,
        acceptor: MjsAcceptor,
        token: &[u8],
    ) -> Result<EstablishedContext, GramError> {
        self.resource.mjs_accept_finished(acceptor, token)
    }
}
