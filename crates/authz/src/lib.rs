//! # gridsec-authz
//!
//! Authorization for the `gridsec` reproduction of *Security for Grid
//! Services* (Welch et al., HPDC 2003): local policy, identity mapping,
//! and the **Community Authorization Service** (CAS).
//!
//! The paper's Figure 2 is the heart of this crate: a VO expresses policy
//! *outsourced to it by resource providers*; a user fetches a signed CAS
//! assertion; the resource enforces **the intersection of local policy
//! and VO policy**, remaining "the ultimate authority over that
//! resource". Concretely:
//!
//! * [`gridmap`] — the grid-mapfile: GSI identity → local account
//!   (paper §5.3 step 3).
//! * [`policy`] — a rule-based policy engine (subject / resource / action
//!   / effect with deny-overrides and friends), standing in for the
//!   XACML evaluation a 2003 deployment would have used.
//! * [`cas`] — the CAS server (issues signed rights assertions scoped to
//!   a user and the VO's outsourced policy) and the resource-side
//!   [`cas::ResourceGate`], whose `permits` is every relying party's one
//!   decision point: proxy rights, restrictions, then `local ∩ VO`.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

pub mod cas;
pub mod durable;
pub mod gridmap;
pub mod net;
pub mod policy;

/// The action a limited proxy may not perform (it may move data).
pub const START_JOB: &str = "start-job";

/// Errors from authorization components.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuthzError {
    /// grid-mapfile line could not be parsed.
    BadMapEntry(String),
    /// Assertion signature invalid or from an untrusted CAS.
    UntrustedAssertion,
    /// Assertion expired or not yet valid.
    AssertionExpired {
        /// Evaluation time.
        now: u64,
        /// Assertion expiry.
        not_after: u64,
    },
    /// Assertion was issued to a different user.
    SubjectMismatch {
        /// User named in the assertion.
        assertion_subject: String,
        /// User presenting it.
        presenter: String,
    },
    /// Structural decode failure.
    Decode(&'static str),
    /// The CAS exchange could not cross the network (retry policy
    /// exhausted, endpoint gone, or a malformed reply).
    Transport(String),
    /// The CAS refused to issue an assertion (e.g. not a VO member).
    Refused(String),
    /// An independent proxy inherits no rights from its issuer.
    IndependentProxy,
    /// A limited proxy asked to start a job.
    LimitedProxy,
    /// A restriction in a policy language the relying party does not know.
    UnknownRestriction(String),
    /// A CAS assertion in the chain does not grant the request.
    NotGranted,
    /// Local policy does not permit the request.
    LocalDeny,
}

impl core::fmt::Display for AuthzError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AuthzError::BadMapEntry(l) => write!(f, "bad grid-mapfile entry: {l}"),
            AuthzError::UntrustedAssertion => write!(f, "untrusted CAS assertion"),
            AuthzError::AssertionExpired { now, not_after } => {
                write!(f, "assertion expired: now={now}, not_after={not_after}")
            }
            AuthzError::SubjectMismatch {
                assertion_subject,
                presenter,
            } => write!(
                f,
                "assertion subject {assertion_subject:?} does not match presenter {presenter:?}"
            ),
            AuthzError::Decode(m) => write!(f, "decode error: {m}"),
            AuthzError::Transport(m) => write!(f, "transport error: {m}"),
            AuthzError::Refused(m) => write!(f, "CAS refused: {m}"),
            AuthzError::IndependentProxy => write!(f, "independent proxies inherit no rights"),
            AuthzError::LimitedProxy => write!(f, "limited proxies may not start jobs"),
            AuthzError::UnknownRestriction(l) => write!(f, "restriction in unknown language {l:?}"),
            AuthzError::NotGranted => write!(f, "the CAS assertion does not grant the request"),
            AuthzError::LocalDeny => write!(f, "local policy does not permit the request"),
        }
    }
}

impl std::error::Error for AuthzError {}
