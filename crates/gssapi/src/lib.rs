//! # gridsec-gssapi
//!
//! A GSS-API-shaped security context layer over the `gridsec-tls` token
//! state machines, for the `gridsec` reproduction of *Security for Grid
//! Services* (Welch et al., HPDC 2003).
//!
//! The paper (§1) notes GSI supports "standardized APIs such as GSS-API":
//! GT code establishes security contexts through an
//! init/accept token loop that is agnostic to how tokens move. This crate
//! provides exactly that shape:
//!
//! * [`context::InitiatorContext`] / [`context::AcceptorContext`] — one
//!   round trip of three tokens: the initiator's hello, the acceptor's
//!   answer (which establishes the initiator and yields its final
//!   token) and that final token (which establishes the acceptor). The
//!   tokens are the *same bytes* as `gridsec-tls` handshake tokens; GT2
//!   moves them over TCP framing, GT3 moves them inside
//!   WS-SecureConversation envelopes (paper §5.1).
//! * [`context::EstablishedContext`] — `wrap`/`unwrap` (sealed messages),
//!   `get_mic`/`verify_mic` (detached integrity), and the authenticated
//!   peer identity.
//! * [`delegation`] — the GSI delegation extension: after mutual
//!   authentication, the initiator delegates a proxy credential to the
//!   acceptor. The acceptor generates the key pair locally, so private
//!   keys never cross the wire (GRAM step 7 depends on this).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod context;
pub mod delegation;
pub mod mill;
pub mod net;
pub mod poll;

pub use context::{AcceptorContext, EstablishedContext, InitiatorContext};

use gridsec_testbed::TestbedError;
use gridsec_tls::TlsError;

/// Errors from GSS operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GssError {
    /// Underlying context/transport failure.
    Tls(TlsError),
    /// A token for a session the acceptor is not waiting on.
    BadState(&'static str),
    /// Delegation protocol violation.
    Delegation(&'static str),
    /// The token exchange could not cross the network (retry policy
    /// exhausted, endpoint gone, or a malformed acceptor reply).
    Transport(String),
}

impl From<TlsError> for GssError {
    fn from(e: TlsError) -> Self {
        GssError::Tls(e)
    }
}

impl From<TestbedError> for GssError {
    fn from(e: TestbedError) -> Self {
        GssError::Transport(e.to_string())
    }
}

impl core::fmt::Display for GssError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            GssError::Tls(e) => write!(f, "context error: {e}"),
            GssError::BadState(m) => write!(f, "bad state: {m}"),
            GssError::Delegation(m) => write!(f, "delegation error: {m}"),
            GssError::Transport(m) => write!(f, "transport error: {m}"),
        }
    }
}

impl std::error::Error for GssError {}
