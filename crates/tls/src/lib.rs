//! # gridsec-tls
//!
//! A TLS-like secure channel protocol — the transport layer of GT2's Grid
//! Security Infrastructure in the `gridsec` reproduction of *Security for
//! Grid Services* (Welch et al., HPDC 2003).
//!
//! The paper (§3, §5.1): "GT2 uses the TLS transport protocol for both
//! security context establishment and message protection", and crucially
//! for GT3: "The GT3 messages carry the same context establishment tokens
//! used by GT2 but transports them over SOAP instead of TCP."
//!
//! That sentence dictates the architecture here:
//!
//! * [`handshake`] — *token-driven* client/server handshake state
//!   machines (DHE-RSA-shaped: ephemeral Diffie–Hellman signed by each
//!   party's certificate key, mutual authentication against a trust
//!   store, HKDF key derivation, Finished MACs). Tokens are opaque byte
//!   strings with no transport assumptions.
//! * [`channel`] — the record protection layer: a [`channel::SecureChannel`]
//!   seals/opens individual messages with ChaCha20-Poly1305 under
//!   direction-specific keys and sequence-number nonces.
//! * [`records`] — the sans-io record layer: feed-bytes-in/events-out
//!   state machines ([`records::ClientConnector`],
//!   [`records::ServerAcceptor`], [`records::RecordSession`]) with no
//!   transport assumptions, so a TLS endpoint can live inside a
//!   discrete-event scheduler task.
//! * [`stream`] — GT2 mode: the blocking client shim over [`records`],
//!   pumping the same tokens over a byte stream with length-prefixed
//!   framing ([`stream::client_connect`]), yielding a
//!   [`stream::SecureStream`]. Every GT2 server is a sans-io scheduler
//!   task over [`records`].
//! * [`session`] — session resumption: a completed handshake mints a
//!   ticket both sides derive from the master secret; a later context
//!   between the same pair runs an abbreviated handshake that skips
//!   certificate validation, RSA, and Diffie–Hellman entirely.
//!
//! `gridsec-gssapi` wraps the token state machines in GSS-API shapes, and
//! `gridsec-wsse` carries the *identical* tokens inside WS-Trust SOAP
//! envelopes — which is what experiment C1 verifies and measures.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

pub mod channel;
pub mod handshake;
pub mod pool;
pub mod records;
pub mod session;
pub mod stream;

use gridsec_pki::PkiError;

/// Errors from handshake or record processing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TlsError {
    /// Peer certificate chain failed validation.
    Pki(PkiError),
    /// A record failed authentication or decryption.
    RecordIntegrity,
    /// Handshake message out of order or malformed.
    Protocol(&'static str),
    /// The peer's signature over the handshake transcript was invalid.
    BadPeerSignature,
    /// The Finished MAC did not verify (keys disagree).
    BadFinished,
    /// Degenerate or invalid Diffie–Hellman share.
    BadDhShare,
    /// I/O error while pumping tokens over a stream.
    Io(String),
}

impl From<PkiError> for TlsError {
    fn from(e: PkiError) -> Self {
        TlsError::Pki(e)
    }
}

impl From<std::io::Error> for TlsError {
    fn from(e: std::io::Error) -> Self {
        TlsError::Io(e.to_string())
    }
}

impl core::fmt::Display for TlsError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TlsError::Pki(e) => write!(f, "peer credential rejected: {e}"),
            TlsError::RecordIntegrity => write!(f, "record integrity failure"),
            TlsError::Protocol(m) => write!(f, "protocol error: {m}"),
            TlsError::BadPeerSignature => write!(f, "bad peer handshake signature"),
            TlsError::BadFinished => write!(f, "finished MAC mismatch"),
            TlsError::BadDhShare => write!(f, "invalid Diffie-Hellman share"),
            TlsError::Io(m) => write!(f, "I/O error: {m}"),
        }
    }
}

impl std::error::Error for TlsError {}
