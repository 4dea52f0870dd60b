//! Client- and service-side Kerberos operations.
//!
//! [`KrbClient`] drives AS/TGS exchanges; [`ServiceVerifier`] is the
//! accepting side (a keytab-holding service) with clock-skew and replay
//! enforcement.

use crate::messages::{
    open, Authenticator, EncKdcReplyPart, Key, ServiceTicketReply, TgtReply, Ticket,
};
use crate::{string_to_key, KrbError};
use gridsec_bignum::prime::EntropySource;
use gridsec_pki::encoding::Codec;
use std::cell::RefCell;
use std::collections::HashSet;

/// A Kerberos client: principal name plus the password-derived key.
pub struct KrbClient {
    /// Client principal.
    pub principal: String,
    /// Client realm.
    pub realm: String,
    key: Key,
}

impl KrbClient {
    /// Derive the long-term key from a password.
    pub fn from_password(principal: &str, realm: &str, password: &str) -> Self {
        KrbClient {
            principal: principal.to_string(),
            realm: realm.to_string(),
            key: string_to_key(principal, realm, password),
        }
    }

    /// Decrypt an AS reply; returns the TGT and the session-key part.
    /// Failure means the password was wrong (or the reply was forged).
    pub fn open_tgt_reply(&self, reply: &TgtReply) -> Result<(Ticket, EncKdcReplyPart), KrbError> {
        let plain = open(&self.key, b"krb-as-rep", &reply.enc_part)?;
        let part =
            EncKdcReplyPart::from_bytes(&plain).map_err(|_| KrbError::Decode("AS reply part"))?;
        Ok((reply.tgt.clone(), part))
    }

    /// Decrypt a TGS reply using the TGT session key.
    pub fn open_service_reply(
        &self,
        tgt_session_key: &Key,
        reply: &ServiceTicketReply,
    ) -> Result<EncKdcReplyPart, KrbError> {
        let plain = open(tgt_session_key, b"krb-tgs-rep", &reply.enc_part)?;
        EncKdcReplyPart::from_bytes(&plain).map_err(|_| KrbError::Decode("TGS reply part"))
    }

    /// Build a sealed authenticator for a given session key at `now`.
    pub fn make_authenticator<E: EntropySource>(
        &self,
        rng: &mut E,
        session_key: &Key,
        now: u64,
    ) -> Vec<u8> {
        let mut nonce_bytes = [0u8; 8];
        rng.fill_bytes(&mut nonce_bytes);
        Authenticator {
            client: self.principal.clone(),
            timestamp: now,
            nonce: u64::from_be_bytes(nonce_bytes),
        }
        .seal_new(rng, session_key)
    }
}

/// The accepting side of Kerberos AP exchange: a service with a keytab
/// key, enforcing skew and replay rules.
pub struct ServiceVerifier {
    /// The service principal this verifier accepts tickets for.
    pub service: String,
    key: Key,
    max_skew: u64,
    seen: RefCell<HashSet<(String, u64, u64)>>,
}

/// Result of accepting a client: the authenticated principal and the
/// session key for subsequent message protection.
#[derive(Clone, PartialEq, Eq)]
pub struct AcceptedClient {
    /// Authenticated client principal.
    pub client: String,
    /// Client's home realm.
    pub client_realm: String,
    /// Session key shared with the client.
    pub session_key: Key,
    /// Ticket expiry.
    pub end_time: u64,
}

impl core::fmt::Debug for AcceptedClient {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // The session key stays out of logs.
        f.debug_struct("AcceptedClient")
            .field("client", &self.client)
            .field("client_realm", &self.client_realm)
            .field("end_time", &self.end_time)
            .finish_non_exhaustive()
    }
}

impl ServiceVerifier {
    /// Create a verifier holding the service's keytab key.
    pub fn new(service: &str, key: Key) -> Self {
        ServiceVerifier {
            service: service.to_string(),
            key,
            max_skew: 300,
            seen: RefCell::new(HashSet::new()),
        }
    }

    /// Verify a ticket + authenticator pair (the AP-REQ).
    pub fn accept(
        &self,
        ticket: &Ticket,
        authenticator_blob: &[u8],
        now: u64,
    ) -> Result<AcceptedClient, KrbError> {
        let body = ticket.unseal(&self.key)?;
        if body.service != self.service {
            return Err(KrbError::WrongService {
                expected: body.service,
                got: self.service.clone(),
            });
        }
        if now > body.end_time {
            return Err(KrbError::Expired {
                now,
                end_time: body.end_time,
            });
        }
        let auth = Authenticator::unseal(&body.session_key, authenticator_blob)?;
        if auth.client != body.client {
            return Err(KrbError::Integrity);
        }
        if auth.timestamp.abs_diff(now) > self.max_skew {
            return Err(KrbError::ClockSkew {
                now,
                stamp: auth.timestamp,
            });
        }
        // Replay cache keyed on (client, timestamp, nonce).
        let replay_key = (auth.client.clone(), auth.timestamp, auth.nonce);
        if !self.seen.borrow_mut().insert(replay_key) {
            return Err(KrbError::Replay);
        }
        Ok(AcceptedClient {
            client: body.client,
            client_realm: body.client_realm,
            session_key: body.session_key,
            end_time: body.end_time,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kdc::Kdc;
    use gridsec_crypto::rng::ChaChaRng;

    #[test]
    fn accepted_client_debug_prints_no_session_key() {
        let key = [0xA5; 32];
        let accepted = AcceptedClient {
            client: "alice".into(),
            client_realm: "SITE.A".into(),
            session_key: key,
            end_time: 2,
        };
        let shown = format!("{accepted:?}");
        let hex: String = key.iter().map(|b| format!("{b:02x}")).collect();
        assert!(shown.contains("alice"), "{shown}");
        assert!(
            !shown.contains(&format!("{key:?}")) && !shown.contains(&hex),
            "{shown}"
        );
    }

    struct Flow {
        rng: ChaChaRng,
        kdc: Kdc,
        client: KrbClient,
        verifier: ServiceVerifier,
    }

    fn flow() -> Flow {
        let mut rng = ChaChaRng::from_seed_bytes(b"client tests");
        let kdc = Kdc::new(&mut rng, "SITE.A", 36_000);
        kdc.add_principal("alice", "pw");
        let svc_key = kdc.add_service(&mut rng, "host/fs1");
        Flow {
            rng,
            kdc,
            client: KrbClient::from_password("alice", "SITE.A", "pw"),
            verifier: ServiceVerifier::new("host/fs1", svc_key),
        }
    }

    fn get_service_ticket(f: &mut Flow, now: u64) -> (Ticket, Key) {
        let tgt_reply = f.kdc.as_exchange(&mut f.rng, "alice", now, 10_000).unwrap();
        let (tgt, tgt_part) = f.client.open_tgt_reply(&tgt_reply).unwrap();
        let auth = f
            .client
            .make_authenticator(&mut f.rng, &tgt_part.session_key, now);
        let st = f
            .kdc
            .tgs_exchange(&mut f.rng, &tgt, &auth, "host/fs1", now, 5000)
            .unwrap();
        let part = f
            .client
            .open_service_reply(&tgt_part.session_key, &st)
            .unwrap();
        (st.ticket, part.session_key)
    }

    #[test]
    fn ap_exchange_end_to_end() {
        let mut f = flow();
        let (ticket, session_key) = get_service_ticket(&mut f, 100);
        let auth = f.client.make_authenticator(&mut f.rng, &session_key, 110);
        let accepted = f.verifier.accept(&ticket, &auth, 120).unwrap();
        assert_eq!(accepted.client, "alice");
        assert_eq!(accepted.client_realm, "SITE.A");
        assert_eq!(accepted.session_key, session_key);
    }

    #[test]
    fn replayed_authenticator_rejected() {
        let mut f = flow();
        let (ticket, session_key) = get_service_ticket(&mut f, 100);
        let auth = f.client.make_authenticator(&mut f.rng, &session_key, 110);
        assert!(f.verifier.accept(&ticket, &auth, 120).is_ok());
        assert_eq!(
            f.verifier.accept(&ticket, &auth, 121).unwrap_err(),
            KrbError::Replay
        );
        // A fresh authenticator still works.
        let auth2 = f.client.make_authenticator(&mut f.rng, &session_key, 130);
        assert!(f.verifier.accept(&ticket, &auth2, 135).is_ok());
    }

    #[test]
    fn expired_ticket_rejected_by_service() {
        let mut f = flow();
        let (ticket, session_key) = get_service_ticket(&mut f, 100);
        let auth = f
            .client
            .make_authenticator(&mut f.rng, &session_key, 100_000);
        assert!(matches!(
            f.verifier.accept(&ticket, &auth, 100_000),
            Err(KrbError::Expired { .. })
        ));
    }

    #[test]
    fn ticket_for_other_service_rejected() {
        let mut f = flow();
        let other_key = f.kdc.add_service(&mut f.rng, "host/web1");
        let (ticket, session_key) = get_service_ticket(&mut f, 100);
        let other = ServiceVerifier::new("host/web1", other_key);
        let auth = f.client.make_authenticator(&mut f.rng, &session_key, 110);
        // Sealed under fs1's key; web1 can't even open it.
        assert_eq!(
            other.accept(&ticket, &auth, 110).unwrap_err(),
            KrbError::Integrity
        );
    }

    #[test]
    fn skewed_client_clock_rejected() {
        let mut f = flow();
        let (ticket, session_key) = get_service_ticket(&mut f, 100);
        let auth = f.client.make_authenticator(&mut f.rng, &session_key, 2000);
        assert!(matches!(
            f.verifier.accept(&ticket, &auth, 110),
            Err(KrbError::ClockSkew { .. })
        ));
    }

    #[test]
    fn stolen_ticket_without_session_key_useless() {
        let mut f = flow();
        let (ticket, _session_key) = get_service_ticket(&mut f, 100);
        // Attacker has the ticket but not the session key.
        let auth = f.client.make_authenticator(&mut f.rng, &[9u8; 32], 110);
        assert_eq!(
            f.verifier.accept(&ticket, &auth, 110).unwrap_err(),
            KrbError::Integrity
        );
    }
}
