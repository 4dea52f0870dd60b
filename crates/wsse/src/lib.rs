//! # gridsec-wsse
//!
//! Web services security for GT3: SOAP messaging with WS-Security,
//! XML-Signature, XML-Encryption, WS-SecureConversation / WS-Trust, and
//! WS-Policy — reproducing §4.3–§4.4 and §5.1 of *Security for Grid
//! Services* (Welch et al., HPDC 2003).
//!
//! The paper's two GT3 communication styles are both here:
//!
//! * **Stateful** ([`wssc`]): security contexts established by carrying
//!   the *same* GSS/TLS tokens GT2 used, but inside WS-Trust
//!   `RequestSecurityToken` SOAP envelopes ("GT3 messages carry the same
//!   context establishment tokens used by GT2 but transports them over
//!   SOAP instead of TCP"). Established contexts protect further
//!   envelopes via a `SecurityContextToken` header plus sealed bodies.
//! * **Stateless** ([`xmlsig`]): a message is signed with XML-Signature
//!   and can be verified with no prior contact — "the identity of the
//!   recipient does not have to be known to the sender when the message
//!   is sent", the property GRAM's create-on-first-message flow needs.
//!
//! Supporting modules: [`soap`] (envelopes and the WS-Security header),
//! [`xmlenc`] (XML-Encryption: RSA-wrapped content keys + AEAD payloads),
//! [`policy`] (WS-Policy publication and intersection, paper §4.3), and
//! [`b64`] (base64 for token embedding).

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

pub mod b64;
pub mod policy;
pub mod routing;
pub mod soap;
pub mod wssc;
pub mod xmlenc;
pub mod xmlsig;

use gridsec_pki::PkiError;
use gridsec_xml::XmlError;

/// Errors across the WS-Security stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WsseError {
    /// XML parsing failed.
    Xml(String),
    /// Required element or attribute missing.
    Missing(&'static str),
    /// A digest over referenced content did not match.
    DigestMismatch,
    /// The XML signature value failed to verify.
    BadSignature,
    /// Certificate chain validation failed.
    Pki(PkiError),
    /// Base64 decoding failed.
    Base64,
    /// Decryption failed.
    Decrypt,
    /// Security-context protocol violation.
    Context(&'static str),
    /// Message timestamp outside freshness window.
    Stale {
        /// Verification time.
        now: u64,
        /// Message expiry.
        expires: u64,
    },
    /// No common policy alternative (paper §4.3 negotiation failed).
    NoCommonPolicy,
}

impl From<XmlError> for WsseError {
    fn from(e: XmlError) -> Self {
        WsseError::Xml(e.to_string())
    }
}

impl From<PkiError> for WsseError {
    fn from(e: PkiError) -> Self {
        WsseError::Pki(e)
    }
}

impl core::fmt::Display for WsseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WsseError::Xml(m) => write!(f, "XML error: {m}"),
            WsseError::Missing(m) => write!(f, "missing element: {m}"),
            WsseError::DigestMismatch => write!(f, "reference digest mismatch"),
            WsseError::BadSignature => write!(f, "XML signature invalid"),
            WsseError::Pki(e) => write!(f, "credential rejected: {e}"),
            WsseError::Base64 => write!(f, "base64 decode error"),
            WsseError::Decrypt => write!(f, "decryption failed"),
            WsseError::Context(m) => write!(f, "security context error: {m}"),
            WsseError::Stale { now, expires } => {
                write!(f, "message stale: now={now}, expires={expires}")
            }
            WsseError::NoCommonPolicy => write!(f, "no common security policy alternative"),
        }
    }
}

impl std::error::Error for WsseError {}
