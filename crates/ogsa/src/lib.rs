//! # gridsec-ogsa
//!
//! The Open Grid Services Architecture substrate: Grid services, hosting
//! environments, and the secured-request pipeline of Figure 3 in
//! *Security for Grid Services* (Welch et al., HPDC 2003).
//!
//! The paper's §4 thesis is that security should live in the
//! *infrastructure*, not the application: "Security mechanisms should not
//! have to be instantiated in an application but instead should be
//! supplied by the surrounding Grid infrastructure." Concretely:
//!
//! * [`service`] — the Grid service model: stateful service instances
//!   with handles, factories (`createService`), lifetime management
//!   (`destroy`), and service data elements (`queryServiceData`).
//! * [`hosting`] — the hosting environment (the paper's J2EE/.Net
//!   stand-in): it terminates security for every contained service —
//!   policy publication, WS-SecureConversation contexts, stateless
//!   XML-Signature verification, authorization callout, and audit — and
//!   hands applications a pre-authenticated, pre-authorized request.
//! * [`client`] — the client-side pipeline of Figure 3: (1) retrieve the
//!   target's published policy, (2) select credentials via policy
//!   intersection and [`client::CredentialSource`] conversion, (3/4)
//!   token exchange, (5) invoke. Applications call
//!   [`client::OgsaClient::invoke`]; everything else is infrastructure.
//! * [`transport`] — message transports: in-process (for benches) and
//!   the `gridsec-testbed` network, where every envelope is one
//!   at-most-once RPC call and a hosting environment is an application
//!   on a `faults::CrashableServer` (for multi-host scenarios).
//! * [`firewall`] — the key-free perimeter of §4.4 and the WS-Routing
//!   intermediaries of §6, relaying those same RPC calls hop by hop.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

pub mod client;
pub mod firewall;
pub mod hosting;
pub mod service;
pub mod transport;

use gridsec_wsse::WsseError;

/// Errors from OGSA operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OgsaError {
    /// Security layer failure.
    Wsse(WsseError),
    /// The request was authenticated but not authorized.
    NotAuthorized {
        /// The caller identity.
        caller: String,
        /// The denied operation.
        operation: String,
    },
    /// Unknown service handle.
    NoSuchService(String),
    /// Unknown factory / service type.
    NoSuchFactory(String),
    /// The service rejected the request.
    Application(String),
    /// Transport failure.
    Transport(String),
    /// The peer's reply failed security checks.
    InsecureReply(&'static str),
    /// No credential source satisfies the negotiated policy.
    NoUsableCredential,
    /// Malformed request or reply.
    Malformed(&'static str),
}

impl From<WsseError> for OgsaError {
    fn from(e: WsseError) -> Self {
        OgsaError::Wsse(e)
    }
}

impl core::fmt::Display for OgsaError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            OgsaError::Wsse(e) => write!(f, "security error: {e}"),
            OgsaError::NotAuthorized { caller, operation } => {
                write!(f, "{caller} not authorized for {operation}")
            }
            OgsaError::NoSuchService(h) => write!(f, "no such service: {h}"),
            OgsaError::NoSuchFactory(t) => write!(f, "no such factory: {t}"),
            OgsaError::Application(m) => write!(f, "application error: {m}"),
            OgsaError::Transport(m) => write!(f, "transport error: {m}"),
            OgsaError::InsecureReply(m) => write!(f, "insecure reply: {m}"),
            OgsaError::NoUsableCredential => write!(f, "no usable credential for policy"),
            OgsaError::Malformed(m) => write!(f, "malformed message: {m}"),
        }
    }
}

impl std::error::Error for OgsaError {}
