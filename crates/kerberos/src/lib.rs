//! # gridsec-kerberos
//!
//! A simulated Kerberos 5 realm for the `gridsec` reproduction of
//! *Security for Grid Services* (Welch et al., HPDC 2003).
//!
//! The paper's §3 requires GSI to *interoperate with* existing site
//! security: "the Kerberos Certificate Authority (KCA) and SSLK5/PKINIT
//! provide translation from Kerberos to GSI and vice versa". To exercise
//! those gateways (experiment C6 / Figure 3 step 2) we need a working
//! Kerberos substrate — this crate provides one:
//!
//! * [`Kdc`] — a key distribution center with a principal database, AS
//!   exchange (TGT issuance against the client's long-term key) and TGS
//!   exchange (service tickets against a presented TGT + authenticator).
//! * [`Ticket`] — tickets sealed under the target's key with our
//!   ChaCha20-Poly1305 AEAD (playing the role of DES/RC4 in 2003-era
//!   Kerberos).
//! * [`client`] — the client-side state machine: obtain TGT, obtain
//!   service tickets, build authenticators; and the service-side
//!   verification including clock-skew and replay checks.
//!
//! The deliberate contrast with `gridsec-pki` (measured in experiment F1):
//! inter-realm trust here requires *registering a shared key on both
//! KDCs* — the bilateral, administrator-mediated agreement the paper
//! cites as the reason Grid security chose PKI.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

pub mod client;
mod kdc;
pub mod messages;
mod pkinit_tests;

pub use kdc::Kdc;
pub use messages::Ticket;

use messages::Authenticator;
use std::collections::BTreeSet;

/// Errors from Kerberos operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KrbError {
    /// Principal is not registered with the KDC.
    UnknownPrincipal(String),
    /// Decryption or integrity check failed (wrong key or tampering).
    Integrity,
    /// The ticket or authenticator is outside its valid time window.
    Expired {
        /// Time of the check.
        now: u64,
        /// End of validity.
        end_time: u64,
    },
    /// The authenticator timestamp is outside the permitted clock skew.
    ClockSkew {
        /// Server time.
        now: u64,
        /// Authenticator timestamp.
        stamp: u64,
    },
    /// An authenticator was replayed.
    Replay,
    /// Ticket was issued for a different service.
    WrongService {
        /// Service named in the ticket.
        expected: String,
        /// Service that tried to use it.
        got: String,
    },
    /// Structural decode failure.
    Decode(&'static str),
    /// PKINIT: the presented certificate chain was rejected.
    PkiRejected,
    /// PKINIT: no principal mapping for the presented grid identity.
    NoMapping(String),
}

impl core::fmt::Display for KrbError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            KrbError::UnknownPrincipal(p) => write!(f, "unknown principal: {p}"),
            KrbError::Integrity => write!(f, "integrity check failed"),
            KrbError::Expired { now, end_time } => {
                write!(f, "expired: now={now}, end_time={end_time}")
            }
            KrbError::ClockSkew { now, stamp } => {
                write!(f, "clock skew too large: now={now}, stamp={stamp}")
            }
            KrbError::Replay => write!(f, "authenticator replay detected"),
            KrbError::WrongService { expected, got } => {
                write!(f, "ticket for {expected:?} presented to {got:?}")
            }
            KrbError::Decode(m) => write!(f, "decode error: {m}"),
            KrbError::PkiRejected => write!(f, "PKINIT certificate chain rejected"),
            KrbError::NoMapping(dn) => write!(f, "no principal mapping for {dn}"),
        }
    }
}

impl std::error::Error for KrbError {}

/// The permitted clock skew, in seconds, between an authenticator's
/// timestamp and the checking side's clock (the KDC's TGS check and
/// every [`client::ServiceVerifier`]).
pub(crate) const MAX_SKEW: u64 = 300;

/// A checking side's skew rule and replay set (the KDC's TGS exchange
/// and every [`client::ServiceVerifier`]): each authenticator is
/// admitted once. The set holds only the authenticators still inside
/// the skew window, so it stays bounded however long the checker runs.
#[derive(Default)]
pub(crate) struct ReplayWindow {
    /// The largest `now` [`admit`](Self::admit) has been given.
    high_water: u64,
    /// Admitted authenticators as `(timestamp, client, nonce)`, none
    /// older than `high_water - MAX_SKEW`.
    seen: BTreeSet<(u64, String, u64)>,
}

impl ReplayWindow {
    /// Admit `auth` at `now`: refused if its timestamp is more than
    /// [`MAX_SKEW`] from `now`, or if it was admitted before.
    pub(crate) fn admit(&mut self, auth: &Authenticator, now: u64) -> Result<(), KrbError> {
        if auth.timestamp.abs_diff(now) > MAX_SKEW {
            return Err(KrbError::ClockSkew {
                now,
                stamp: auth.timestamp,
            });
        }
        // Entries older than the window behind the latest clock reading
        // are forgotten, and an authenticator that old is refused
        // outright, so forgetting never re-admits one, even for a caller
        // whose `now` runs behind an earlier call's.
        self.high_water = self.high_water.max(now);
        let edge = self.high_water.saturating_sub(MAX_SKEW);
        if auth.timestamp < edge {
            return Err(KrbError::ClockSkew {
                now: self.high_water,
                stamp: auth.timestamp,
            });
        }
        self.seen = self.seen.split_off(&(edge, String::new(), 0));
        if !self
            .seen
            .insert((auth.timestamp, auth.client.clone(), auth.nonce))
        {
            return Err(KrbError::Replay);
        }
        Ok(())
    }

    /// Authenticators remembered.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.seen.len()
    }
}

/// Derive a 32-byte long-term key from a password (the Kerberos
/// string-to-key function, simplified to salted SHA-256).
pub(crate) fn string_to_key(principal: &str, realm: &str, password: &str) -> [u8; 32] {
    let mut data = Vec::new();
    data.extend_from_slice(realm.as_bytes());
    data.extend_from_slice(b"|");
    data.extend_from_slice(principal.as_bytes());
    data.extend_from_slice(b"|");
    data.extend_from_slice(password.as_bytes());
    gridsec_crypto::sha256::sha256(&data)
}

#[cfg(test)]
mod tests {
    use super::string_to_key;

    #[test]
    fn string_to_key_is_salted() {
        let a = string_to_key("alice", "SITE.A", "pw");
        let b = string_to_key("alice", "SITE.B", "pw");
        let c = string_to_key("bob", "SITE.A", "pw");
        let d = string_to_key("alice", "SITE.A", "other");
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_eq!(a, string_to_key("alice", "SITE.A", "pw"));
    }
}
