//! Kerberos message structures: tickets, authenticators, KDC replies.
//!
//! Encodings reuse the deterministic TLV codec from `gridsec-pki`;
//! encryption is ChaCha20-Poly1305 with a per-message random nonce
//! prepended to the ciphertext.

use crate::KrbError;
use gridsec_bignum::prime::EntropySource;
use gridsec_crypto::aead;
use gridsec_pki::encoding::{Codec, Decoder, Encoder};
use gridsec_pki::PkiError;

/// A 32-byte symmetric key.
pub type Key = [u8; 32];

/// Seal a plaintext under `key` with a fresh random nonce; output is
/// `nonce || ciphertext || tag`.
pub fn seal<E: EntropySource>(rng: &mut E, key: &Key, aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
    let mut nonce = [0u8; 12];
    rng.fill_bytes(&mut nonce);
    let mut out = nonce.to_vec();
    out.extend_from_slice(&aead::seal(key, &nonce, aad, plaintext));
    out
}

/// Open a blob produced by [`seal`].
pub fn open(key: &Key, aad: &[u8], blob: &[u8]) -> Result<Vec<u8>, KrbError> {
    if blob.len() < 12 {
        return Err(KrbError::Decode("sealed blob too short"));
    }
    let nonce: [u8; 12] = blob[..12].try_into().unwrap();
    aead::open(key, &nonce, aad, &blob[12..]).map_err(|_| KrbError::Integrity)
}

fn map_decode(_: PkiError) -> KrbError {
    KrbError::Decode("TLV decode failed")
}

/// The plaintext body of a ticket (encrypted under the target's key).
#[derive(Clone, PartialEq, Eq)]
pub struct TicketBody {
    /// Client principal, e.g. `alice`.
    pub client: String,
    /// Client realm.
    pub client_realm: String,
    /// Service principal the ticket is for (e.g. `krbtgt` or `host/fs1`).
    pub service: String,
    /// Session key shared between client and service.
    pub session_key: Key,
    /// Issue time.
    pub auth_time: u64,
    /// Expiry time.
    pub end_time: u64,
}

impl core::fmt::Debug for TicketBody {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // The session key stays out of logs.
        f.debug_struct("TicketBody")
            .field("client", &self.client)
            .field("client_realm", &self.client_realm)
            .field("service", &self.service)
            .field("auth_time", &self.auth_time)
            .field("end_time", &self.end_time)
            .finish_non_exhaustive()
    }
}

impl Codec for TicketBody {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(&self.client)
            .put_str(&self.client_realm)
            .put_str(&self.service)
            .put_bytes(&self.session_key)
            .put_u64(self.auth_time)
            .put_u64(self.end_time);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, PkiError> {
        let client = dec.get_str()?;
        let client_realm = dec.get_str()?;
        let service = dec.get_str()?;
        let key_bytes = dec.get_bytes()?;
        let session_key: Key = key_bytes
            .try_into()
            .map_err(|_| PkiError::Decode("bad session key length"))?;
        Ok(TicketBody {
            client,
            client_realm,
            service,
            session_key,
            auth_time: dec.get_u64()?,
            end_time: dec.get_u64()?,
        })
    }
}

/// A ticket: service name in the clear plus the body sealed under the
/// service's long-term key.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Ticket {
    /// Service principal (cleartext routing hint).
    pub service: String,
    /// Sealed [`TicketBody`].
    pub enc_body: Vec<u8>,
}

impl Ticket {
    /// Seal a body under the service key.
    pub fn seal_new<E: EntropySource>(rng: &mut E, service_key: &Key, body: &TicketBody) -> Self {
        Ticket {
            service: body.service.clone(),
            enc_body: seal(rng, service_key, b"krb-ticket", &body.to_bytes()),
        }
    }

    /// Decrypt and decode with the service's key.
    pub fn unseal(&self, service_key: &Key) -> Result<TicketBody, KrbError> {
        let plain = open(service_key, b"krb-ticket", &self.enc_body)?;
        TicketBody::from_bytes(&plain).map_err(map_decode)
    }
}

impl Codec for Ticket {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(&self.service).put_bytes(&self.enc_body);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, PkiError> {
        Ok(Ticket {
            service: dec.get_str()?,
            enc_body: dec.get_bytes()?,
        })
    }
}

/// The authenticator a client sends alongside a ticket, sealed under the
/// ticket's session key: proves current possession of the session key.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Authenticator {
    /// Client principal (must match the ticket body).
    pub client: String,
    /// Timestamp (checked against clock skew and replay caches).
    pub timestamp: u64,
    /// Random uniquifier for replay detection within one second.
    pub nonce: u64,
}

impl Codec for Authenticator {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(&self.client)
            .put_u64(self.timestamp)
            .put_u64(self.nonce);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, PkiError> {
        Ok(Authenticator {
            client: dec.get_str()?,
            timestamp: dec.get_u64()?,
            nonce: dec.get_u64()?,
        })
    }
}

impl Authenticator {
    /// Seal under a session key.
    pub fn seal_new<E: EntropySource>(&self, rng: &mut E, session_key: &Key) -> Vec<u8> {
        seal(rng, session_key, b"krb-authenticator", &self.to_bytes())
    }

    /// Open with the session key.
    pub fn unseal(session_key: &Key, blob: &[u8]) -> Result<Authenticator, KrbError> {
        let plain = open(session_key, b"krb-authenticator", blob)?;
        Authenticator::from_bytes(&plain).map_err(map_decode)
    }
}

/// The part of a KDC reply the client decrypts: the session key matching
/// the accompanying ticket.
#[derive(Clone, PartialEq, Eq)]
pub struct EncKdcReplyPart {
    /// Session key for the issued ticket.
    pub session_key: Key,
    /// Service the ticket targets.
    pub service: String,
    /// Ticket expiry.
    pub end_time: u64,
}

impl core::fmt::Debug for EncKdcReplyPart {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // The session key stays out of logs.
        f.debug_struct("EncKdcReplyPart")
            .field("service", &self.service)
            .field("end_time", &self.end_time)
            .finish_non_exhaustive()
    }
}

impl Codec for EncKdcReplyPart {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_bytes(&self.session_key)
            .put_str(&self.service)
            .put_u64(self.end_time);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, PkiError> {
        let key_bytes = dec.get_bytes()?;
        let session_key: Key = key_bytes
            .try_into()
            .map_err(|_| PkiError::Decode("bad session key length"))?;
        Ok(EncKdcReplyPart {
            session_key,
            service: dec.get_str()?,
            end_time: dec.get_u64()?,
        })
    }
}

/// Reply to an AS exchange: a TGT plus the reply part sealed under the
/// client's long-term key.
#[derive(Clone, Debug)]
pub struct TgtReply {
    /// The ticket-granting ticket (sealed under the KDC's TGS key).
    pub tgt: Ticket,
    /// [`EncKdcReplyPart`] sealed under the client's long-term key.
    pub enc_part: Vec<u8>,
}

/// Reply to a TGS exchange: a service ticket plus the reply part sealed
/// under the TGT session key.
#[derive(Clone, Debug)]
pub struct ServiceTicketReply {
    /// The service ticket (sealed under the service's long-term key).
    pub ticket: Ticket,
    /// [`EncKdcReplyPart`] sealed under the TGT session key.
    pub enc_part: Vec<u8>,
}

pub use EncKdcReplyPart as ReplyPart;

#[cfg(test)]
mod tests {
    use super::*;
    use gridsec_crypto::rng::ChaChaRng;

    /// `true` iff `shown` holds `key` in either form a derived `Debug`
    /// or a hex dump would print it.
    fn shows_key(shown: &str, key: &Key) -> bool {
        let hex: String = key.iter().map(|b| format!("{b:02x}")).collect();
        shown.contains(&format!("{key:?}")) || shown.contains(&hex)
    }

    #[test]
    fn ticket_body_debug_prints_no_session_key() {
        let body = TicketBody {
            client: "alice".into(),
            client_realm: "SITE.A".into(),
            service: "host/fs1".into(),
            session_key: [0xA5; 32],
            auth_time: 1,
            end_time: 2,
        };
        let shown = format!("{body:?}");
        assert!(shown.contains("host/fs1"), "{shown}");
        assert!(!shows_key(&shown, &body.session_key), "{shown}");
    }

    #[test]
    fn reply_part_debug_prints_no_session_key() {
        let part = EncKdcReplyPart {
            session_key: [0xA5; 32],
            service: "host/fs1".into(),
            end_time: 2,
        };
        let shown = format!("{part:?}");
        assert!(shown.contains("host/fs1"), "{shown}");
        assert!(!shows_key(&shown, &part.session_key), "{shown}");
    }

    #[test]
    fn seal_open_roundtrip() {
        let mut rng = ChaChaRng::from_seed_bytes(b"krb seal");
        let key = [7u8; 32];
        let blob = seal(&mut rng, &key, b"ctx", b"payload");
        assert_eq!(open(&key, b"ctx", &blob).unwrap(), b"payload");
        assert!(open(&key, b"other", &blob).is_err());
        assert!(open(&[8u8; 32], b"ctx", &blob).is_err());
    }

    #[test]
    fn seal_uses_fresh_nonces() {
        let mut rng = ChaChaRng::from_seed_bytes(b"krb nonce");
        let key = [7u8; 32];
        let a = seal(&mut rng, &key, b"", b"x");
        let b = seal(&mut rng, &key, b"", b"x");
        assert_ne!(a, b);
    }

    #[test]
    fn ticket_roundtrip() {
        let mut rng = ChaChaRng::from_seed_bytes(b"krb ticket");
        let service_key = [1u8; 32];
        let body = TicketBody {
            client: "alice".into(),
            client_realm: "SITE.A".into(),
            service: "host/fs1".into(),
            session_key: [9u8; 32],
            auth_time: 100,
            end_time: 200,
        };
        let t = Ticket::seal_new(&mut rng, &service_key, &body);
        assert_eq!(t.service, "host/fs1");
        assert_eq!(t.unseal(&service_key).unwrap(), body);
        assert_eq!(t.unseal(&[2u8; 32]).unwrap_err(), KrbError::Integrity);
    }

    #[test]
    fn ticket_codec_roundtrip() {
        let mut rng = ChaChaRng::from_seed_bytes(b"krb codec");
        let body = TicketBody {
            client: "alice".into(),
            client_realm: "SITE.A".into(),
            service: "krbtgt".into(),
            session_key: [3u8; 32],
            auth_time: 1,
            end_time: 2,
        };
        let t = Ticket::seal_new(&mut rng, &[1u8; 32], &body);
        let decoded = Ticket::from_bytes(&t.to_bytes()).unwrap();
        assert_eq!(decoded, t);
    }

    #[test]
    fn authenticator_roundtrip() {
        let mut rng = ChaChaRng::from_seed_bytes(b"krb auth");
        let key = [5u8; 32];
        let a = Authenticator {
            client: "alice".into(),
            timestamp: 1234,
            nonce: 42,
        };
        let blob = a.seal_new(&mut rng, &key);
        assert_eq!(Authenticator::unseal(&key, &blob).unwrap(), a);
        assert!(Authenticator::unseal(&[6u8; 32], &blob).is_err());
    }

    #[test]
    fn bad_session_key_length_rejected() {
        let mut enc = Encoder::new();
        enc.put_bytes(&[1, 2, 3]).put_str("svc").put_u64(9);
        assert!(EncKdcReplyPart::from_bytes(&enc.finish()).is_err());
    }
}
