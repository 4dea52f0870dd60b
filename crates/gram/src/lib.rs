//! # gridsec-gram
//!
//! GT3 Grid Resource Allocation and Management (GRAM) with the tight
//! least-privilege model of §5.2–§5.3 of *Security for Grid Services*
//! (Welch et al., HPDC 2003), plus the GT2 gatekeeper baseline it
//! improved upon.
//!
//! The GT3 architecture (Figure 4), fully reproduced on the simulated OS:
//!
//! 1. The requestor signs a job description (stateless XML-Signature —
//!    the target LMJFS may not exist yet).
//! 2. The **Proxy Router** (unprivileged, network-facing) asks its
//!    `ResourceGate` whether the signer's chain may start the job, then
//!    routes to the user's LMJFS if resident, else to the MMJFS.
//! 3. The **MMJFS** (unprivileged, network-facing) verifies the
//!    signature and maps the grid identity via the grid-mapfile.
//! 4. The MMJFS invokes the **Setuid Starter** — a tiny setuid-root
//!    program whose *sole* function is to start a preconfigured LMJFS in
//!    the user's account.
//! 5. The new **LMJFS** invokes **GRIM** — the second tiny setuid-root
//!    program — which reads the host credential and mints a GRIM proxy
//!    embedding the user's grid identity, account, and policy; the LMJFS
//!    registers with the router.
//! 6. The LMJFS authorizes the user for its account, then creates an
//!    **MJS**.
//! 7. The requestor and MJS mutually authenticate — after a user's first
//!    job, by resuming the session its LMJFS banked; the requestor accepts
//!    the MJS *only* if it presents a GRIM credential from the right host
//!    embedding the requestor's own identity; then delegates job
//!    credentials and starts the job.
//!
//! The privilege discipline is enforced by `gridsec-testbed`'s simulated
//! OS: **no privileged process ever accepts network input** — only the
//! two setuid programs run with euid 0, each for one call, with no
//! network exposure. [`gt2`] implements the contrasting baseline: a
//! root, network-facing gatekeeper. Experiment C4 quantifies the
//! difference by fault injection.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

pub mod durable;
mod grim;
pub mod gt2;
pub mod remote;
mod requestor;
pub mod resource;
pub mod types;

pub use requestor::Requestor;
pub use resource::GramResource;
pub use types::{JobDescription, JobState};

/// Errors across GRAM operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GramError {
    /// Signature or chain on the job request was rejected.
    RequestRejected(String),
    /// No grid-mapfile entry for the requestor.
    NoMapping(String),
    /// The requestor is not authorized for the target account.
    NotAuthorized(String),
    /// OS-level failure (account, process, file).
    Os(String),
    /// Unknown MJS handle.
    NoSuchJob(String),
    /// The MJS presented an unacceptable credential (step 7 client-side
    /// authorization failed).
    GrimRejected(&'static str),
    /// Security-context failure during step 7.
    Context(String),
    /// Job is in the wrong state for the operation.
    BadState(&'static str),
    /// The network path to the resource failed (retries exhausted or a
    /// malformed reply). Remote submissions only.
    Transport(String),
}

impl GramError {
    /// A step-7 security-context failure described by `e`.
    pub(crate) fn context(e: impl core::fmt::Display) -> Self {
        GramError::Context(e.to_string())
    }
}

impl core::fmt::Display for GramError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            GramError::RequestRejected(m) => write!(f, "request rejected: {m}"),
            GramError::NoMapping(dn) => write!(f, "no grid-mapfile entry for {dn}"),
            GramError::NotAuthorized(m) => write!(f, "not authorized: {m}"),
            GramError::Os(m) => write!(f, "OS error: {m}"),
            GramError::NoSuchJob(h) => write!(f, "no such job: {h}"),
            GramError::GrimRejected(m) => write!(f, "GRIM credential rejected: {m}"),
            GramError::Context(m) => write!(f, "security context error: {m}"),
            GramError::BadState(m) => write!(f, "bad job state: {m}"),
            GramError::Transport(m) => write!(f, "transport error: {m}"),
        }
    }
}

impl std::error::Error for GramError {}
