//! Session resumption: amortizing the asymmetric-crypto handshake cost.
//!
//! A completed full handshake leaves both sides holding the master
//! secret. `ResumptionData` derives a *ticket* (an HMAC of the master
//! secret under a fixed label) that both sides compute independently —
//! no extra bytes ride on the full-handshake tokens, so GT2/GT3 token
//! compatibility is untouched. A later context between the same pair can
//! then run the abbreviated handshake (token tags 4/5/6):
//!
//! 1. **ResumeHello** — ticket + fresh client random.
//! 2. **ResumeServerHello** — fresh server random + server Finished MAC.
//! 3. **ResumeFinished** — client Finished MAC.
//!
//! The cached master secret plays the role of the Diffie–Hellman shared
//! secret in the key schedule, so the abbreviated handshake re-derives
//! fresh direction keys while skipping certificate-chain validation, RSA
//! sign/verify, and DH key agreement entirely — only symmetric HKDF/HMAC
//! work remains. Each resumption also *rotates* the session: the resumed
//! channel carries new `ResumptionData` under the new master secret.
//!
//! A resumed context skips chain validation, so a session is only as good
//! as the trust anchors and CRLs its full handshake validated under. Each
//! `ResumptionData` records that [`Epoch`], rotation carries it forward,
//! and both caches treat a lookup under another epoch as a miss: a server
//! that installs new stores needs no invalidation step.
//!
//! Determinism: both caches are capacity-bounded with FIFO eviction and
//! expiry driven by the caller-supplied clock (`SimClock` in the
//! simulation harness), so two runs with the same seed evict and expire
//! identically. An unknown, expired or other-epoch ticket is an error the
//! caller turns into a fall back to the full handshake.

use std::borrow::Borrow;
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

use gridsec_bignum::prime::EntropySource;
use gridsec_crypto::ct::ct_eq;
use gridsec_crypto::hmac::{hmac_sha256, PrimedHmac};
use gridsec_crypto::sha256::sha256;
use gridsec_pki::cert::Certificate;
use gridsec_pki::encoding::{Codec, Decoder, Encoder};
use gridsec_pki::store::Epoch;
use gridsec_pki::validate::ValidatedIdentity;
use gridsec_pki::PkiError;

use crate::channel::SecureChannel;
use crate::handshake::{get_array32, KeySchedule};
use crate::TlsError;

/// Lifetime of a resumable session, in the same units as
/// [`crate::handshake::TlsConfig::now`].
pub const DEFAULT_SESSION_LIFETIME: u64 = 3_600;

/// Default capacity for both session caches.
pub const DEFAULT_SESSION_CAPACITY: usize = 64;

const TICKET_LABEL: &[u8] = b"gsi-tls resumption ticket v1";

/// Resumption state minted by a completed handshake (full or
/// abbreviated) and carried on the resulting [`SecureChannel`].
#[derive(Clone)]
pub(crate) struct ResumptionData {
    ticket: [u8; 32],
    master: [u8; 32],
    expires_at: u64,
    cred_not_after: u64,
    /// The trust epoch of the full handshake that authenticated the
    /// session; never on the wire.
    epoch: Epoch,
}

impl core::fmt::Debug for ResumptionData {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Deliberately omits the master secret.
        f.debug_struct("ResumptionData")
            .field("expires_at", &self.expires_at)
            .field("cred_not_after", &self.cred_not_after)
            .field("epoch", &self.epoch)
            .finish_non_exhaustive()
    }
}

impl ResumptionData {
    /// Derive the ticket from the master secret, through an
    /// already-primed master-keyed HMAC schedule (`primed` MUST be keyed
    /// by `master`; `primed_ticket_matches_one_shot` below pins it to the
    /// one-shot HMAC). Both handshake sides call this with identical
    /// inputs, so the ticket never needs to be negotiated on the wire
    /// during the full handshake.
    ///
    /// `cred_not_after` is the earliest `not_after` across both sides'
    /// certificate chains; the ticket lifetime is clamped to it so a
    /// session can never be resumed after the credentials that
    /// authenticated it have expired. Rotation on resumption carries
    /// the bound forward, so no chain of abbreviated handshakes can
    /// outlive the original proxy either.
    pub(crate) fn from_master_primed(
        primed: &PrimedHmac,
        master: [u8; 32],
        expires_at: u64,
        cred_not_after: u64,
        epoch: Epoch,
    ) -> Self {
        let ticket = primed.mac(TICKET_LABEL);
        debug_assert_eq!(ticket, hmac_sha256(&master, TICKET_LABEL));
        ResumptionData {
            ticket,
            master,
            expires_at: expires_at.min(cred_not_after),
            cred_not_after,
            epoch,
        }
    }

    /// `true` once `now` has reached the expiry instant.
    pub(crate) fn is_expired(&self, now: u64) -> bool {
        now >= self.expires_at
    }
}

/// Earliest `not_after` across a certificate chain — the instant the
/// chain as a whole stops validating. Empty chains are unbounded.
pub(crate) fn chain_not_after(chain: &[Certificate]) -> u64 {
    chain
        .iter()
        .map(|c| c.tbs.validity.not_after)
        .min()
        .unwrap_or(u64::MAX)
}

// ----------------------------------------------------------------------
// Wire messages (token tags 4/5/6; full handshake uses 1/2/3)
// ----------------------------------------------------------------------

struct ResumeHello {
    ticket: [u8; 32],
    client_random: [u8; 32],
}

struct ResumeServerHello {
    server_random: [u8; 32],
    finished_mac: [u8; 32],
}

struct ResumeFinished {
    mac: [u8; 32],
}

impl Codec for ResumeHello {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(4);
        enc.put_bytes(&self.ticket);
        enc.put_bytes(&self.client_random);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, PkiError> {
        if dec.get_u8()? != 4 {
            return Err(PkiError::Decode("not a ResumeHello token"));
        }
        Ok(ResumeHello {
            ticket: get_array32(dec)?,
            client_random: get_array32(dec)?,
        })
    }
}

impl Codec for ResumeServerHello {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(5);
        enc.put_bytes(&self.server_random);
        enc.put_bytes(&self.finished_mac);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, PkiError> {
        if dec.get_u8()? != 5 {
            return Err(PkiError::Decode("not a ResumeServerHello token"));
        }
        Ok(ResumeServerHello {
            server_random: get_array32(dec)?,
            finished_mac: get_array32(dec)?,
        })
    }
}

impl Codec for ResumeFinished {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(6);
        enc.put_bytes(&self.mac);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, PkiError> {
        if dec.get_u8()? != 6 {
            return Err(PkiError::Decode("not a ResumeFinished token"));
        }
        Ok(ResumeFinished {
            mac: get_array32(dec)?,
        })
    }
}

/// `true` iff `token` looks like a ResumeHello (tag 4), letting a
/// transport dispatch between full and abbreviated handshakes without
/// parsing the whole token.
pub fn is_resume_hello(token: &[u8]) -> bool {
    token.first() == Some(&4)
}

// ----------------------------------------------------------------------
// Client side
// ----------------------------------------------------------------------

/// A cached session: resumption state plus the peer identity the
/// original full handshake authenticated. Both caches hold these.
#[derive(Clone, Debug)]
pub struct ClientSession {
    data: ResumptionData,
    /// The peer identity from the full handshake's chain validation.
    /// A resumed channel reuses it — that is sound because only the
    /// authenticated peer holds the master secret the resumption MACs
    /// are keyed on.
    pub peer: ValidatedIdentity,
}

impl ClientSession {
    /// Extract a cacheable session from an established channel, if it
    /// carries resumption state.
    pub fn from_channel(channel: &SecureChannel) -> Option<ClientSession> {
        channel.resumption().map(|data| ClientSession {
            data: data.clone(),
            peer: channel.peer.clone(),
        })
    }

    /// Expiry instant of the underlying resumption state.
    pub fn expires_at(&self) -> u64 {
        self.data.expires_at
    }

    /// The resumption ticket this session would present.
    pub fn ticket(&self) -> &[u8; 32] {
        &self.data.ticket
    }
}

/// Sessions by key, at most `capacity` of them, the oldest evicted
/// first: both caches' bound and eviction.
struct Fifo<K> {
    capacity: usize,
    map: HashMap<K, ClientSession>,
    order: VecDeque<K>,
}

impl<K: Clone + Eq + Hash> Fifo<K> {
    fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "session cache capacity must be positive");
        Fifo {
            capacity,
            map: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    fn insert(&mut self, key: K, session: ClientSession) {
        if self.map.insert(key.clone(), session).is_some() {
            self.order.retain(|k| k != &key);
        } else if self.map.len() > self.capacity {
            if let Some(oldest) = self.order.pop_front() {
                self.map.remove(&oldest);
            }
        }
        self.order.push_back(key);
    }

    fn remove<Q: Hash + Eq + ?Sized>(&mut self, key: &Q)
    where
        K: Borrow<Q>,
    {
        if self.map.remove(key).is_some() {
            self.order.retain(|k| k.borrow() != key);
        }
    }
}

/// Client-side session cache keyed by server name, capacity-bounded
/// with deterministic FIFO eviction.
pub struct ClientSessionCache {
    sessions: Fifo<String>,
}

impl ClientSessionCache {
    /// Cache holding at most `capacity` sessions (`capacity > 0`).
    pub fn new(capacity: usize) -> Self {
        ClientSessionCache {
            sessions: Fifo::new(capacity),
        }
    }

    /// Remember the session carried by `channel` under `server`.
    /// Returns `false` when the channel has no resumption state.
    pub fn store(&mut self, server: &str, channel: &SecureChannel) -> bool {
        let session = ClientSession::from_channel(channel);
        session
            .map(|s| self.sessions.insert(server.to_string(), s))
            .is_some()
    }

    /// Look up an unexpired session for `server` filed under `epoch`,
    /// the caller's current trust epoch.
    pub fn lookup(&self, server: &str, now: u64, epoch: Epoch) -> Option<ClientSession> {
        let session = self.sessions.map.get(server);
        session
            .filter(|s| !s.data.is_expired(now) && s.data.epoch == epoch)
            .cloned()
    }

    /// Drop the session for `server` (e.g. after a failed resumption).
    pub fn invalidate(&mut self, server: &str) {
        self.sessions.remove(server);
    }

    /// Number of cached sessions.
    pub fn len(&self) -> usize {
        self.sessions.map.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.sessions.map.is_empty()
    }
}

/// Client side of the abbreviated handshake: ResumeHello sent, awaiting
/// ResumeServerHello.
pub struct ClientResume {
    session: ClientSession,
    client_random: [u8; 32],
    /// SHA-256 of the ResumeHello sent, for the key schedule.
    transcript: [u8; 32],
    new_expires_at: u64,
}

/// Start an abbreviated handshake from a cached session. Returns the
/// state machine and the ResumeHello token. `now`/`lifetime` stamp the
/// rotated session the resumed channel will carry.
pub fn resume_client<E: EntropySource>(
    session: ClientSession,
    now: u64,
    lifetime: u64,
    rng: &mut E,
) -> (ClientResume, Vec<u8>) {
    let mut client_random = [0u8; 32];
    rng.fill_bytes(&mut client_random);
    let hello = ResumeHello {
        ticket: session.data.ticket,
        client_random,
    };
    let hello_bytes = hello.to_bytes();
    (
        ClientResume {
            session,
            client_random,
            transcript: sha256(&hello_bytes),
            new_expires_at: now.saturating_add(lifetime),
        },
        hello_bytes,
    )
}

impl ClientResume {
    /// Consume the ResumeServerHello token; returns the ResumeFinished
    /// token plus the resumed channel.
    pub fn step(self, token: &[u8]) -> Result<(Vec<u8>, SecureChannel), TlsError> {
        let sh = ResumeServerHello::from_bytes(token)
            .map_err(|_| TlsError::Protocol("malformed ResumeServerHello"))?;
        // The cached master secret stands in for the DH shared secret;
        // fresh randoms give the resumed context fresh direction keys.
        let ks = KeySchedule::derive(
            &self.session.data.master,
            &self.client_random,
            &sh.server_random,
            self.transcript,
        );
        if !ct_eq(&ks.finished_mac("resume server finished"), &sh.finished_mac) {
            return Err(TlsError::BadFinished);
        }
        let finished = ResumeFinished {
            mac: ks.finished_mac("resume client finished"),
        };
        let data = &self.session.data;
        let resumption = ks.resumption(self.new_expires_at, data.cred_not_after, data.epoch);
        let channel = SecureChannel::from_key_block(self.session.peer, &ks.key_block, true)
            .with_resumption(resumption);
        Ok((finished.to_bytes(), channel))
    }
}

// ----------------------------------------------------------------------
// Server side
// ----------------------------------------------------------------------

/// Server-side session cache keyed by ticket, capacity-bounded with
/// deterministic FIFO eviction.
pub struct ServerSessionCache {
    sessions: Fifo<[u8; 32]>,
    lifetime: u64,
    hits: u64,
    misses: u64,
}

impl ServerSessionCache {
    /// Cache holding at most `capacity` sessions; resumed sessions are
    /// stamped with `now + lifetime`.
    pub fn new(capacity: usize, lifetime: u64) -> Self {
        ServerSessionCache {
            sessions: Fifo::new(capacity),
            lifetime,
            hits: 0,
            misses: 0,
        }
    }

    /// Remember the session carried by `channel`. Returns `false` when
    /// the channel has no resumption state.
    pub fn store(&mut self, channel: &SecureChannel) -> bool {
        let session = ClientSession::from_channel(channel);
        session
            .map(|s| self.sessions.insert(s.data.ticket, s))
            .is_some()
    }

    /// Consume a ResumeHello token under `epoch`, the caller's current
    /// trust epoch. On a hit, returns the ResumeServerHello token and the
    /// await-finished state. An unknown or expired ticket, or one filed
    /// under another epoch, is an error — the caller signals the client,
    /// which falls back to a full handshake. Expired and other-epoch
    /// entries are dropped on lookup so the cache cannot fill with dead
    /// sessions.
    pub fn accept_under<E: EntropySource>(
        &mut self,
        token: &[u8],
        now: u64,
        epoch: Epoch,
        rng: &mut E,
    ) -> Result<(Vec<u8>, ServerResumeAwait), TlsError> {
        self.take(token, now, Some(epoch), rng)
    }

    /// [`Self::accept_under`] with no epoch check. Kept only because the
    /// frozen `benchmark/` crate's resumption probe calls it (ROADMAP
    /// item 1(a)); no server does.
    pub fn accept<E: EntropySource>(
        &mut self,
        token: &[u8],
        now: u64,
        rng: &mut E,
    ) -> Result<(Vec<u8>, ServerResumeAwait), TlsError> {
        self.take(token, now, None, rng)
    }

    fn take<E: EntropySource>(
        &mut self,
        token: &[u8],
        now: u64,
        epoch: Option<Epoch>,
        rng: &mut E,
    ) -> Result<(Vec<u8>, ServerResumeAwait), TlsError> {
        let hello = ResumeHello::from_bytes(token)
            .map_err(|_| TlsError::Protocol("malformed ResumeHello"))?;
        let refusal = match self.sessions.map.get(&hello.ticket) {
            None => Some("unknown session ticket"),
            Some(s) if s.data.is_expired(now) => Some("expired session ticket"),
            Some(s) if epoch.is_some_and(|e| e != s.data.epoch) => {
                Some("session ticket from another trust epoch")
            }
            Some(_) => None,
        };
        if let Some(refusal) = refusal {
            self.sessions.remove(&hello.ticket);
            self.misses += 1;
            return Err(TlsError::Protocol(refusal));
        }
        let ClientSession { data, peer } = &self.sessions.map[&hello.ticket];
        self.hits += 1;

        let mut server_random = [0u8; 32];
        rng.fill_bytes(&mut server_random);
        let ks = KeySchedule::derive(
            &data.master,
            &hello.client_random,
            &server_random,
            sha256(token),
        );
        let sh = ResumeServerHello {
            server_random,
            finished_mac: ks.finished_mac("resume server finished"),
        };
        let expires_at = now.saturating_add(self.lifetime);
        let resumption = ks.resumption(expires_at, data.cred_not_after, data.epoch);
        Ok((
            sh.to_bytes(),
            ServerResumeAwait {
                expected_mac: ks.finished_mac("resume client finished"),
                peer: peer.clone(),
                key_block: ks.key_block,
                resumption,
            },
        ))
    }

    /// Successful ticket lookups so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Unknown, expired and other-epoch ticket lookups so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of cached sessions.
    pub fn len(&self) -> usize {
        self.sessions.map.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.sessions.map.is_empty()
    }
}

/// Server-side intermediate state: ResumeServerHello sent, awaiting
/// ResumeFinished.
pub struct ServerResumeAwait {
    expected_mac: [u8; 32],
    peer: ValidatedIdentity,
    key_block: Vec<u8>,
    resumption: ResumptionData,
}

impl ServerResumeAwait {
    /// Consume the ResumeFinished token; on success the resumed context
    /// is live and carries rotated resumption state.
    pub fn step(self, token: &[u8]) -> Result<SecureChannel, TlsError> {
        let cf = ResumeFinished::from_bytes(token)
            .map_err(|_| TlsError::Protocol("malformed ResumeFinished"))?;
        if !ct_eq(&cf.mac, &self.expected_mac) {
            return Err(TlsError::BadFinished);
        }
        Ok(
            SecureChannel::from_key_block(self.peer, &self.key_block, false)
                .with_resumption(self.resumption),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handshake::{handshake_in_memory, TlsConfig};
    use gridsec_crypto::rng::ChaChaRng;
    use gridsec_pki::ca::CertificateAuthority;
    use gridsec_pki::credential::Credential;
    use gridsec_pki::name::DistinguishedName;
    use gridsec_pki::store::{CrlStore, TrustStore};

    fn dn(s: &str) -> DistinguishedName {
        DistinguishedName::parse(s).unwrap()
    }

    struct World {
        rng: ChaChaRng,
        trust: TrustStore,
        alice: Credential,
        server: Credential,
    }

    fn world() -> World {
        let mut rng = ChaChaRng::from_seed_bytes(b"tls session tests");
        let ca = CertificateAuthority::create_root(&mut rng, dn("/O=G/CN=CA"), 512, 0, 1_000_000);
        let alice = ca.issue_identity(&mut rng, dn("/O=G/CN=Alice"), 512, 0, 100_000);
        let server = ca.issue_identity(&mut rng, dn("/O=G/CN=host fs1"), 512, 0, 100_000);
        let mut trust = TrustStore::new();
        trust.add_root(ca.certificate().clone());
        World {
            rng,
            trust,
            alice,
            server,
        }
    }

    impl World {
        fn epoch(&self) -> Epoch {
            Epoch::of(&self.trust, &CrlStore::new())
        }
    }

    fn cfg(w: &World, cred: &Credential) -> TlsConfig {
        TlsConfig::new(cred.clone(), w.trust.clone(), 100)
    }

    /// Full handshake, then populate both caches from the channels.
    fn establish_and_cache(
        w: &mut World,
    ) -> (ClientSessionCache, ServerSessionCache, ClientSession) {
        let cfg_c = cfg(w, &w.alice);
        let cfg_s = cfg(w, &w.server);
        let (cch, sch) = handshake_in_memory(cfg_c, cfg_s, &mut w.rng).unwrap();
        let mut client_cache = ClientSessionCache::new(4);
        let mut server_cache = ServerSessionCache::new(4, DEFAULT_SESSION_LIFETIME);
        assert!(client_cache.store("fs1", &cch));
        assert!(server_cache.store(&sch));
        let session = client_cache.lookup("fs1", 100, w.epoch()).unwrap();
        (client_cache, server_cache, session)
    }

    #[test]
    fn resumed_handshake_round_trips() {
        let mut w = world();
        let (_cc, mut sc, session) = establish_and_cache(&mut w);
        let peer_before = session.peer.base_identity.clone();

        let (cr, hello) = resume_client(session, 200, 3_600, &mut w.rng);
        assert!(is_resume_hello(&hello));
        let (sh, await_finished) = sc.accept_under(&hello, 200, w.epoch(), &mut w.rng).unwrap();
        let (finished, mut cch) = cr.step(&sh).unwrap();
        let mut sch = await_finished.step(&finished).unwrap();
        assert_eq!(sc.hits(), 1);

        // Identities survive resumption.
        assert_eq!(cch.peer.base_identity, peer_before);
        assert_eq!(sch.peer.base_identity, dn("/O=G/CN=Alice"));

        // The resumed channel protects traffic both ways.
        let m = cch.seal(b"GET /jobs");
        assert_eq!(sch.open(&m).unwrap(), b"GET /jobs");
        let r = sch.seal(b"200 OK");
        assert_eq!(cch.open(&r).unwrap(), b"200 OK");
    }

    #[test]
    fn primed_ticket_matches_one_shot() {
        // The primed-HMAC derivation path (KeySchedule::resumption →
        // from_master_primed) must be byte-identical to the one-shot
        // reference, full and abbreviated handshakes alike.
        let mut w = world();
        let (_cc, mut sc, session) = establish_and_cache(&mut w);
        let check = |data: &ResumptionData| {
            assert_eq!(data.ticket, hmac_sha256(&data.master, TICKET_LABEL));
            assert!(data.expires_at <= data.cred_not_after, "clamped");
        };
        check(&session.data);

        let (cr, hello) = resume_client(session, 200, 3_600, &mut w.rng);
        let (sh, await_finished) = sc.accept_under(&hello, 200, w.epoch(), &mut w.rng).unwrap();
        let (finished, cch) = cr.step(&sh).unwrap();
        let sch = await_finished.step(&finished).unwrap();
        check(cch.resumption().unwrap());
        check(sch.resumption().unwrap());
        assert_eq!(
            cch.resumption().unwrap().ticket,
            sch.resumption().unwrap().ticket,
            "both sides mint the same rotated ticket"
        );
    }

    #[test]
    fn resumption_rotates_the_ticket() {
        let mut w = world();
        let (_cc, mut sc, session) = establish_and_cache(&mut w);
        let old_ticket = session.data.ticket;

        let (cr, hello) = resume_client(session, 200, 3_600, &mut w.rng);
        let (sh, await_finished) = sc.accept_under(&hello, 200, w.epoch(), &mut w.rng).unwrap();
        let (finished, cch) = cr.step(&sh).unwrap();
        let sch = await_finished.step(&finished).unwrap();

        let new_ticket = cch.resumption().unwrap().ticket;
        assert_ne!(new_ticket, old_ticket);
        // Rotation carries the epoch forward on both sides.
        assert_eq!(cch.resumption().unwrap().epoch, w.epoch());
        assert_eq!(sch.resumption().unwrap().epoch, w.epoch());
        // Both sides rotate to the same new session.
        assert_eq!(new_ticket, sch.resumption().unwrap().ticket);
    }

    #[test]
    fn unknown_ticket_is_a_miss() {
        let mut w = world();
        let (_cc, sc, session) = establish_and_cache(&mut w);
        let mut fresh = ServerSessionCache::new(4, 3_600);
        let (_cr, hello) = resume_client(session, 200, 3_600, &mut w.rng);
        assert!(matches!(
            fresh.accept_under(&hello, 200, w.epoch(), &mut w.rng),
            Err(TlsError::Protocol("unknown session ticket"))
        ));
        assert_eq!(fresh.misses(), 1);
        assert_eq!(sc.hits(), 0);
    }

    #[test]
    fn another_epoch_is_a_miss_on_both_sides() {
        let mut w = world();
        let (cc, mut sc, session) = establish_and_cache(&mut w);
        assert_eq!(session.data.epoch, w.epoch(), "filed under its stores");
        let ca = CertificateAuthority::create_root(&mut w.rng, dn("/O=H/CN=CA"), 512, 0, 1_000_000);
        let mut trust = w.trust.clone();
        trust.add_root(ca.certificate().clone());
        let other = Epoch::of(&trust, &CrlStore::new());

        assert!(cc.lookup("fs1", 100, other).is_none());
        let (_cr, hello) = resume_client(session, 200, 3_600, &mut w.rng);
        assert!(matches!(
            sc.accept_under(&hello, 200, other, &mut w.rng),
            Err(TlsError::Protocol(
                "session ticket from another trust epoch"
            ))
        ));
        assert_eq!((sc.hits(), sc.misses()), (0, 1));
        assert!(sc.is_empty(), "the dead entry was dropped on lookup");
    }

    #[test]
    fn expired_ticket_rejected_and_dropped() {
        let mut w = world();
        let (_cc, mut sc, session) = establish_and_cache(&mut w);
        let expiry = session.expires_at();
        assert_eq!(sc.len(), 1);
        let (_cr, hello) = resume_client(session, expiry, 3_600, &mut w.rng);
        assert!(matches!(
            sc.accept_under(&hello, expiry, w.epoch(), &mut w.rng),
            Err(TlsError::Protocol("expired session ticket"))
        ));
        // The dead entry was dropped on lookup.
        assert!(sc.is_empty());
    }

    #[test]
    fn client_cache_expiry_and_invalidate() {
        let mut w = world();
        let (cc, _sc, session) = establish_and_cache(&mut w);
        assert!(cc
            .lookup("fs1", session.expires_at() - 1, w.epoch())
            .is_some());
        assert!(cc.lookup("fs1", session.expires_at(), w.epoch()).is_none());
        let mut cc = cc;
        cc.invalidate("fs1");
        assert!(cc.is_empty());
    }

    #[test]
    fn caches_evict_oldest_first() {
        let mut cache = ClientSessionCache::new(2);
        let mut w = world();
        for name in ["s1", "s2", "s3"] {
            let (cch, _sch) =
                handshake_in_memory(cfg(&w, &w.alice), cfg(&w, &w.server), &mut w.rng).unwrap();
            assert!(cache.store(name, &cch));
        }
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup("s1", 100, w.epoch()).is_none()); // evicted
        assert!(cache.lookup("s2", 100, w.epoch()).is_some());
        assert!(cache.lookup("s3", 100, w.epoch()).is_some());
    }

    #[test]
    fn ticket_lifetime_bounded_by_credential_expiry() {
        use gridsec_pki::proxy::{issue_proxy, ProxyType};
        use gridsec_pki::validate::validate_chain;
        use gridsec_testbed::clock::SimClock;

        let mut w = world();
        let clock = SimClock::starting_at(100);

        // A short-lived proxy: expires long before the default session
        // lifetime would.
        let proxy = issue_proxy(
            &mut w.rng,
            &w.alice,
            ProxyType::Impersonation,
            512,
            clock.now(),
            500,
        )
        .unwrap();
        let proxy_expiry = proxy.certificate().tbs.validity.not_after;
        assert_eq!(proxy_expiry, 600);

        let cfg_c = TlsConfig::new(proxy.clone(), w.trust.clone(), clock.now());
        let cfg_s = TlsConfig::new(w.server.clone(), w.trust.clone(), clock.now());
        let (cch, sch) = handshake_in_memory(cfg_c, cfg_s, &mut w.rng).unwrap();

        // Both sides clamp the ticket to the proxy's not_after, not
        // now + DEFAULT_SESSION_LIFETIME.
        assert_eq!(cch.resumption().unwrap().expires_at, proxy_expiry);
        assert_eq!(sch.resumption().unwrap().expires_at, proxy_expiry);
        assert_eq!(cch.resumption().unwrap().cred_not_after, proxy_expiry);

        let mut client_cache = ClientSessionCache::new(4);
        let mut server_cache = ServerSessionCache::new(4, DEFAULT_SESSION_LIFETIME);
        assert!(client_cache.store("fs1", &cch));
        assert!(server_cache.store(&sch));
        let session = client_cache.lookup("fs1", clock.now(), w.epoch()).unwrap();

        // The proxy expires between the full handshake and the attempted
        // abbreviated one.
        clock.advance(600);
        let now = clock.now();
        assert!(now > proxy_expiry);

        // Client-side cache already refuses to offer the session ...
        assert!(client_cache.lookup("fs1", now, w.epoch()).is_none());

        // ... and a stale client that held on to it is refused by the
        // server, which drops the dead entry.
        let (_cr, hello) = resume_client(session, now, DEFAULT_SESSION_LIFETIME, &mut w.rng);
        assert!(matches!(
            server_cache.accept_under(&hello, now, w.epoch(), &mut w.rng),
            Err(TlsError::Protocol("expired session ticket"))
        ));
        assert!(server_cache.is_empty());

        // The fall-back full handshake then fails chain validation: the
        // expired proxy cannot re-authenticate.
        assert!(validate_chain(proxy.chain(), &w.trust, now).is_err());
        let cfg_c = TlsConfig::new(proxy, w.trust.clone(), now);
        let cfg_s = TlsConfig::new(w.server.clone(), w.trust.clone(), now);
        assert!(matches!(
            handshake_in_memory(cfg_c, cfg_s, &mut w.rng),
            Err(TlsError::Pki(_))
        ));
    }

    #[test]
    fn rotation_cannot_outlive_the_credential() {
        use gridsec_pki::proxy::{issue_proxy, ProxyType};

        let mut w = world();
        let proxy = issue_proxy(
            &mut w.rng,
            &w.alice,
            ProxyType::Impersonation,
            512,
            100,
            900,
        )
        .unwrap();
        let proxy_expiry = proxy.certificate().tbs.validity.not_after;

        let cfg_c = TlsConfig::new(proxy, w.trust.clone(), 100);
        let cfg_s = TlsConfig::new(w.server.clone(), w.trust.clone(), 100);
        let (cch, sch) = handshake_in_memory(cfg_c, cfg_s, &mut w.rng).unwrap();
        let mut client_cache = ClientSessionCache::new(4);
        let mut server_cache = ServerSessionCache::new(4, DEFAULT_SESSION_LIFETIME);
        client_cache.store("fs1", &cch);
        server_cache.store(&sch);

        // Resume repeatedly, advancing time; every rotated ticket stays
        // clamped to the original credential expiry, so the chain of
        // abbreviated handshakes dies exactly when the proxy does.
        let mut now = 300;
        for _ in 0..3 {
            let session = client_cache.lookup("fs1", now, w.epoch()).unwrap();
            let (cr, hello) = resume_client(session, now, DEFAULT_SESSION_LIFETIME, &mut w.rng);
            let (sh, await_finished) = server_cache
                .accept_under(&hello, now, w.epoch(), &mut w.rng)
                .unwrap();
            let (finished, cch) = cr.step(&sh).unwrap();
            let sch = await_finished.step(&finished).unwrap();
            assert_eq!(cch.resumption().unwrap().expires_at, proxy_expiry);
            assert_eq!(sch.resumption().unwrap().expires_at, proxy_expiry);
            client_cache.store("fs1", &cch);
            server_cache.store(&sch);
            now += 200;
        }

        // Past the proxy's not_after, the last rotated ticket is dead too.
        assert!(client_cache
            .lookup("fs1", proxy_expiry, w.epoch())
            .is_none());
    }

    #[test]
    fn tampered_resume_tokens_rejected() {
        let mut w = world();
        let (_cc, mut sc, session) = establish_and_cache(&mut w);
        let (cr, hello) = resume_client(session, 200, 3_600, &mut w.rng);
        let (mut sh, await_finished) = sc.accept_under(&hello, 200, w.epoch(), &mut w.rng).unwrap();
        let n = sh.len();
        sh[n - 1] ^= 1;
        assert_eq!(cr.step(&sh).unwrap_err(), TlsError::BadFinished);
        assert_eq!(
            await_finished
                .step(&ResumeFinished { mac: [0u8; 32] }.to_bytes())
                .unwrap_err(),
            TlsError::BadFinished
        );
    }
}
