//! The key distribution center: principal database, AS and TGS exchanges,
//! and bilateral cross-realm key registration.

use crate::messages::{
    seal, Authenticator, EncKdcReplyPart, Key, ServiceTicketReply, TgtReply, Ticket, TicketBody,
};
use crate::{string_to_key, KrbError, ReplayWindow};
use gridsec_bignum::prime::EntropySource;
use std::cell::RefCell;
use std::collections::HashMap;

/// Principal name of the ticket-granting service.
pub(crate) const TGS_PRINCIPAL: &str = "krbtgt";

/// A simulated Kerberos KDC for one realm.
pub struct Kdc {
    realm: String,
    /// Long-term keys by principal name.
    principals: RefCell<HashMap<String, Key>>,
    /// The TGS key (under which TGTs are sealed).
    tgs_key: Key,
    /// Maximum ticket lifetime the KDC will grant.
    max_life: u64,
    /// TGS-REQ authenticators still inside the skew window.
    replay: RefCell<ReplayWindow>,
}

impl Kdc {
    /// Create a KDC for `realm` with a TGS key derived from `rng`.
    pub fn new<E: EntropySource>(rng: &mut E, realm: &str, max_life: u64) -> Self {
        let mut tgs_key = [0u8; 32];
        rng.fill_bytes(&mut tgs_key);
        Kdc {
            realm: realm.to_string(),
            principals: RefCell::new(HashMap::from([(TGS_PRINCIPAL.to_string(), tgs_key)])),
            tgs_key,
            max_life,
            replay: RefCell::default(),
        }
    }

    /// The realm name.
    pub fn realm(&self) -> &str {
        &self.realm
    }

    /// Register a user principal with a password; returns the derived
    /// long-term key (the client keeps it).
    pub fn add_principal(&self, principal: &str, password: &str) -> Key {
        let key = string_to_key(principal, &self.realm, password);
        self.principals
            .borrow_mut()
            .insert(principal.to_string(), key);
        key
    }

    /// Register a service principal with a random key (a "keytab" entry);
    /// returns the key for the service to hold.
    pub fn add_service<E: EntropySource>(&self, rng: &mut E, service: &str) -> Key {
        let mut key = [0u8; 32];
        rng.fill_bytes(&mut key);
        self.principals
            .borrow_mut()
            .insert(service.to_string(), key);
        key
    }

    /// Bilateral cross-realm trust: both KDC administrators must install
    /// the same inter-realm key (`krbtgt/OTHER.REALM`). This is the
    /// administrator-mediated step the paper contrasts with unilateral CA
    /// trust; experiment F1 counts these pairwise agreements.
    pub fn register_cross_realm_key(&self, other_realm: &str, key: Key) {
        self.principals
            .borrow_mut()
            .insert(format!("{TGS_PRINCIPAL}/{other_realm}"), key);
    }

    fn lookup(&self, principal: &str) -> Result<Key, KrbError> {
        self.principals
            .borrow()
            .get(principal)
            .copied()
            .ok_or_else(|| KrbError::UnknownPrincipal(principal.to_string()))
    }

    /// AS exchange: issue a TGT for `client`. In real Kerberos the reply
    /// is only decryptable with the client's password-derived key, which
    /// is how the client is authenticated; we model exactly that.
    pub fn as_exchange<E: EntropySource>(
        &self,
        rng: &mut E,
        client: &str,
        now: u64,
        requested_life: u64,
    ) -> Result<TgtReply, KrbError> {
        let client_key = self.lookup(client)?;
        let mut session_key = [0u8; 32];
        rng.fill_bytes(&mut session_key);
        let end_time = now + requested_life.min(self.max_life);

        let body = TicketBody {
            client: client.to_string(),
            client_realm: self.realm.clone(),
            service: TGS_PRINCIPAL.to_string(),
            session_key,
            auth_time: now,
            end_time,
        };
        let tgt = Ticket::seal_new(rng, &self.tgs_key, &body);
        let reply_part = EncKdcReplyPart {
            session_key,
            service: TGS_PRINCIPAL.to_string(),
            end_time,
        };
        use gridsec_pki::encoding::Codec;
        let enc_part = seal(rng, &client_key, b"krb-as-rep", &reply_part.to_bytes());
        Ok(TgtReply { tgt, enc_part })
    }

    /// PKINIT-style AS exchange (the SSLK5 direction of the paper's §3
    /// gateways): the client authenticates with a *GSI certificate chain*
    /// instead of a password. The chain is validated against `trust`, a
    /// proof-of-possession signature over `nonce` is checked against the
    /// leaf key, the base identity is mapped to a principal, and the
    /// reply key is RSA-encrypted to the client's certificate key.
    ///
    /// Returns `(wrapped_reply_key, TgtReply)`; the client RSA-decrypts
    /// the reply key and uses it to open `enc_part`.
    #[allow(clippy::too_many_arguments)]
    pub fn pkinit_as_exchange<E: EntropySource>(
        &self,
        rng: &mut E,
        chain: &[gridsec_pki::cert::Certificate],
        pop_signature: &[u8],
        nonce: &[u8],
        trust: &gridsec_pki::store::TrustStore,
        principal_map: impl Fn(&gridsec_pki::name::DistinguishedName) -> Option<String>,
        now: u64,
        requested_life: u64,
    ) -> Result<(Vec<u8>, TgtReply), KrbError> {
        use gridsec_pki::validate::validate_chain;
        let identity = validate_chain(chain, trust, now).map_err(|_| KrbError::PkiRejected)?;
        let mut pop_payload = b"pkinit-pop".to_vec();
        pop_payload.extend_from_slice(nonce);
        if !identity
            .public_key
            .verify_pkcs1_sha256(&pop_payload, pop_signature)
        {
            return Err(KrbError::PkiRejected);
        }
        let principal = principal_map(&identity.base_identity)
            .ok_or_else(|| KrbError::NoMapping(identity.base_identity.to_string()))?;
        // Principal must exist (or be implicitly registered as PKINIT-only).
        if !self.principals.borrow().contains_key(&principal) {
            return Err(KrbError::UnknownPrincipal(principal));
        }

        let mut session_key = [0u8; 32];
        rng.fill_bytes(&mut session_key);
        let mut reply_key = [0u8; 32];
        rng.fill_bytes(&mut reply_key);
        let end_time = now + requested_life.min(self.max_life);

        let body = TicketBody {
            client: principal.clone(),
            client_realm: self.realm.clone(),
            service: TGS_PRINCIPAL.to_string(),
            session_key,
            auth_time: now,
            end_time,
        };
        let tgt = Ticket::seal_new(rng, &self.tgs_key, &body);
        let reply_part = EncKdcReplyPart {
            session_key,
            service: TGS_PRINCIPAL.to_string(),
            end_time,
        };
        use gridsec_pki::encoding::Codec;
        let enc_part = seal(rng, &reply_key, b"krb-as-rep", &reply_part.to_bytes());
        let wrapped_key = identity
            .public_key
            .encrypt_pkcs1(rng, &reply_key)
            .map_err(|_| KrbError::PkiRejected)?;
        Ok((wrapped_key, TgtReply { tgt, enc_part }))
    }

    /// TGS exchange: given a TGT and a fresh authenticator under its
    /// session key, issue a ticket for `service`.
    pub fn tgs_exchange<E: EntropySource>(
        &self,
        rng: &mut E,
        tgt: &Ticket,
        authenticator_blob: &[u8],
        service: &str,
        now: u64,
        requested_life: u64,
    ) -> Result<ServiceTicketReply, KrbError> {
        // Validate the TGT.
        let tgt_body = tgt.unseal(&self.tgs_key)?;
        if tgt_body.service != TGS_PRINCIPAL {
            return Err(KrbError::WrongService {
                expected: tgt_body.service,
                got: TGS_PRINCIPAL.to_string(),
            });
        }
        if now > tgt_body.end_time {
            return Err(KrbError::Expired {
                now,
                end_time: tgt_body.end_time,
            });
        }
        // Validate the authenticator under the TGT session key.
        let auth = Authenticator::unseal(&tgt_body.session_key, authenticator_blob)?;
        if auth.client != tgt_body.client {
            return Err(KrbError::Integrity);
        }
        self.replay.borrow_mut().admit(&auth, now)?;

        // Issue the service ticket.
        let service_key = self.lookup(service)?;
        let mut session_key = [0u8; 32];
        rng.fill_bytes(&mut session_key);
        let end_time = (now + requested_life.min(self.max_life)).min(tgt_body.end_time);
        let body = TicketBody {
            client: tgt_body.client.clone(),
            client_realm: tgt_body.client_realm.clone(),
            service: service.to_string(),
            session_key,
            auth_time: now,
            end_time,
        };
        let ticket = Ticket::seal_new(rng, &service_key, &body);
        let reply_part = EncKdcReplyPart {
            session_key,
            service: service.to_string(),
            end_time,
        };
        use gridsec_pki::encoding::Codec;
        let enc_part = seal(
            rng,
            &tgt_body.session_key,
            b"krb-tgs-rep",
            &reply_part.to_bytes(),
        );
        Ok(ServiceTicketReply { ticket, enc_part })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::KrbClient;
    use gridsec_crypto::rng::ChaChaRng;

    fn setup() -> (ChaChaRng, Kdc) {
        let mut rng = ChaChaRng::from_seed_bytes(b"kdc tests");
        let kdc = Kdc::new(&mut rng, "SITE.A", 36_000);
        (rng, kdc)
    }

    #[test]
    fn as_exchange_requires_known_principal() {
        let (mut rng, kdc) = setup();
        assert!(matches!(
            kdc.as_exchange(&mut rng, "ghost", 0, 100),
            Err(KrbError::UnknownPrincipal(_))
        ));
    }

    #[test]
    fn as_reply_only_opens_with_password_key() {
        let (mut rng, kdc) = setup();
        kdc.add_principal("alice", "correct horse");
        let reply = kdc.as_exchange(&mut rng, "alice", 0, 100).unwrap();
        // Correct password works.
        let ok = KrbClient::from_password("alice", "SITE.A", "correct horse");
        assert!(ok.open_tgt_reply(&reply).is_ok());
        // Wrong password cannot decrypt the session key.
        let bad = KrbClient::from_password("alice", "SITE.A", "wrong");
        assert_eq!(bad.open_tgt_reply(&reply).unwrap_err(), KrbError::Integrity);
    }

    #[test]
    fn lifetime_capped_by_kdc_policy() {
        let (mut rng, kdc) = setup();
        kdc.add_principal("alice", "pw");
        let reply = kdc.as_exchange(&mut rng, "alice", 100, u64::MAX).unwrap();
        let client = KrbClient::from_password("alice", "SITE.A", "pw");
        let (_, part) = client.open_tgt_reply(&reply).unwrap();
        assert_eq!(part.end_time, 100 + 36_000);
    }

    #[test]
    fn full_tgs_flow() {
        let (mut rng, kdc) = setup();
        kdc.add_principal("alice", "pw");
        let fs_key = kdc.add_service(&mut rng, "host/fs1");

        let client = KrbClient::from_password("alice", "SITE.A", "pw");
        let tgt_reply = kdc.as_exchange(&mut rng, "alice", 0, 1000).unwrap();
        let (tgt, tgt_part) = client.open_tgt_reply(&tgt_reply).unwrap();

        let auth = client.make_authenticator(&mut rng, &tgt_part.session_key, 10);
        let st_reply = kdc
            .tgs_exchange(&mut rng, &tgt, &auth, "host/fs1", 10, 500)
            .unwrap();
        let st_part = client
            .open_service_reply(&tgt_part.session_key, &st_reply)
            .unwrap();

        // The service can unseal the ticket with its keytab key and sees
        // the same session key the client got.
        let body = st_reply.ticket.unseal(&fs_key).unwrap();
        assert_eq!(body.client, "alice");
        assert_eq!(body.session_key, st_part.session_key);
        assert_eq!(body.service, "host/fs1");
    }

    #[test]
    fn tgs_rejects_expired_tgt() {
        let (mut rng, kdc) = setup();
        kdc.add_principal("alice", "pw");
        kdc.add_service(&mut rng, "host/fs1");
        let client = KrbClient::from_password("alice", "SITE.A", "pw");
        let tgt_reply = kdc.as_exchange(&mut rng, "alice", 0, 100).unwrap();
        let (tgt, part) = client.open_tgt_reply(&tgt_reply).unwrap();
        let auth = client.make_authenticator(&mut rng, &part.session_key, 200);
        assert!(matches!(
            kdc.tgs_exchange(&mut rng, &tgt, &auth, "host/fs1", 200, 100),
            Err(KrbError::Expired { .. })
        ));
    }

    #[test]
    fn tgs_rejects_skewed_authenticator() {
        let (mut rng, kdc) = setup();
        kdc.add_principal("alice", "pw");
        kdc.add_service(&mut rng, "host/fs1");
        let client = KrbClient::from_password("alice", "SITE.A", "pw");
        let tgt_reply = kdc.as_exchange(&mut rng, "alice", 0, 10_000).unwrap();
        let (tgt, part) = client.open_tgt_reply(&tgt_reply).unwrap();
        // Authenticator stamped far from KDC time.
        let auth = client.make_authenticator(&mut rng, &part.session_key, 10);
        assert!(matches!(
            kdc.tgs_exchange(&mut rng, &tgt, &auth, "host/fs1", 5000, 100),
            Err(KrbError::ClockSkew { .. })
        ));
    }

    #[test]
    fn tgs_refuses_a_resent_authenticator() {
        let (mut rng, kdc) = setup();
        kdc.add_principal("alice", "pw");
        kdc.add_service(&mut rng, "host/fs1");
        let client = KrbClient::from_password("alice", "SITE.A", "pw");
        let tgt_reply = kdc.as_exchange(&mut rng, "alice", 0, 10_000).unwrap();
        let (tgt, part) = client.open_tgt_reply(&tgt_reply).unwrap();
        let auth = client.make_authenticator(&mut rng, &part.session_key, 100);
        assert!(kdc
            .tgs_exchange(&mut rng, &tgt, &auth, "host/fs1", 100, 100)
            .is_ok());
        // A captured (TGT, authenticator) pair buys no second ticket
        // inside the skew window.
        assert_eq!(
            kdc.tgs_exchange(&mut rng, &tgt, &auth, "host/fs1", 110, 100)
                .unwrap_err(),
            KrbError::Replay
        );
        // A fresh authenticator still does.
        let fresh = client.make_authenticator(&mut rng, &part.session_key, 110);
        assert!(kdc
            .tgs_exchange(&mut rng, &tgt, &fresh, "host/fs1", 110, 100)
            .is_ok());
    }

    #[test]
    fn tgs_rejects_forged_authenticator() {
        let (mut rng, kdc) = setup();
        kdc.add_principal("alice", "pw");
        kdc.add_service(&mut rng, "host/fs1");
        let client = KrbClient::from_password("alice", "SITE.A", "pw");
        let tgt_reply = kdc.as_exchange(&mut rng, "alice", 0, 10_000).unwrap();
        let (tgt, _) = client.open_tgt_reply(&tgt_reply).unwrap();
        // Authenticator sealed under the wrong key.
        let auth = client.make_authenticator(&mut rng, &[0u8; 32], 10);
        assert_eq!(
            kdc.tgs_exchange(&mut rng, &tgt, &auth, "host/fs1", 10, 100)
                .unwrap_err(),
            KrbError::Integrity
        );
    }

    #[test]
    fn service_ticket_for_unknown_service_fails() {
        let (mut rng, kdc) = setup();
        kdc.add_principal("alice", "pw");
        let client = KrbClient::from_password("alice", "SITE.A", "pw");
        let tgt_reply = kdc.as_exchange(&mut rng, "alice", 0, 10_000).unwrap();
        let (tgt, part) = client.open_tgt_reply(&tgt_reply).unwrap();
        let auth = client.make_authenticator(&mut rng, &part.session_key, 10);
        assert!(matches!(
            kdc.tgs_exchange(&mut rng, &tgt, &auth, "host/ghost", 10, 100),
            Err(KrbError::UnknownPrincipal(_))
        ));
    }

    #[test]
    fn service_ticket_cannot_act_as_tgt() {
        let (mut rng, kdc) = setup();
        kdc.add_principal("alice", "pw");
        kdc.add_service(&mut rng, "host/fs1");
        let client = KrbClient::from_password("alice", "SITE.A", "pw");
        let tgt_reply = kdc.as_exchange(&mut rng, "alice", 0, 10_000).unwrap();
        let (tgt, part) = client.open_tgt_reply(&tgt_reply).unwrap();
        let auth = client.make_authenticator(&mut rng, &part.session_key, 10);
        let st = kdc
            .tgs_exchange(&mut rng, &tgt, &auth, "host/fs1", 10, 100)
            .unwrap();
        // Present the service ticket where a TGT is expected: it is sealed
        // under the service key, not the TGS key → integrity failure.
        let auth2 = client.make_authenticator(&mut rng, &part.session_key, 10);
        assert!(kdc
            .tgs_exchange(&mut rng, &st.ticket, &auth2, "host/fs1", 10, 100)
            .is_err());
    }

    #[test]
    fn cross_realm_key_registration() {
        let (mut rng, kdc_a) = setup();
        let kdc_b = Kdc::new(&mut rng, "SITE.B", 36_000);
        let mut xkey = [0u8; 32];
        EntropySource::fill_bytes(&mut rng, &mut xkey);
        // Both administrators must act — the bilateral agreement.
        kdc_a.register_cross_realm_key("SITE.B", xkey);
        kdc_b.register_cross_realm_key("SITE.A", xkey);
        assert_eq!(kdc_a.lookup("krbtgt/SITE.B").unwrap(), xkey);
        assert_eq!(kdc_b.lookup("krbtgt/SITE.A").unwrap(), xkey);
    }
}
