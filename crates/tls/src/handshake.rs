//! Token-driven mutual-authentication handshake (DHE-RSA shape).
//!
//! Three tokens establish a context:
//!
//! 1. **ClientHello** — client random, ephemeral DH share, certificate
//!    chain, and a signature by the client's certificate key binding the
//!    share (proves the share was minted by the credential holder).
//! 2. **ServerHello** — server random, ephemeral DH share, chain, a
//!    signature binding *both* randoms and *both* shares (prevents
//!    replay), and the server Finished MAC under the derived master
//!    secret.
//! 3. **ClientFinished** — the client Finished MAC; its verification
//!    completes *mutual* authentication (only the genuine client could
//!    derive the master secret for the share it signed).
//!
//! Tokens carry no transport framing: `stream` pumps them over byte
//! streams (GT2 / TCP) and `gridsec-wsse` carries the very same bytes in
//! WS-Trust SOAP envelopes (GT3) — the token-compatibility property the
//! paper states in §5.1 and experiment C1 checks byte-for-byte.

use std::sync::{Arc, Mutex};

use gridsec_bignum::prime::EntropySource;
use gridsec_bignum::BigUint;
use gridsec_crypto::ct::ct_eq;
use gridsec_crypto::dh::{DhGroup, DhKeyPair};
use gridsec_crypto::hmac::{hkdf_extract, PrimedHmac};
use gridsec_crypto::rng::ChaChaRng;
use gridsec_crypto::sha256::sha256;
use gridsec_pki::cert::Certificate;
use gridsec_pki::credential::Credential;
use gridsec_pki::encoding::{Codec, Decoder, Encoder};
use gridsec_pki::store::{CrlStore, TrustStore};
use gridsec_pki::validate::{validate_chain_with_crls, ValidatedIdentity};
use gridsec_pki::PkiError;

use crate::channel::SecureChannel;
use crate::pool::CryptoPool;
use crate::session::{ResumptionData, DEFAULT_SESSION_LIFETIME};
use crate::TlsError;

/// Handshake configuration shared by both sides.
#[derive(Clone)]
pub struct TlsConfig {
    /// Local credential used to authenticate.
    pub credential: Credential,
    /// Trust anchors for validating the peer.
    pub trust: TrustStore,
    /// Revocation state (empty by default).
    pub crls: CrlStore,
    /// Current time for validity checking.
    pub now: u64,
    /// Diffie–Hellman group (defaults to the fast 256-bit test group; use
    /// [`DhGroup::modp2048`] for realistically-sized handshakes).
    pub group: DhGroup,
    /// Optional shared crypto state (see [`crate::pool`]). When set,
    /// chain validation and binding-signature verification route
    /// through the pool's cached validator and shared verify contexts;
    /// verdicts are identical to the pool-less path. The handle type is
    /// frozen for the `benchmark/` crate, which builds it itself; it
    /// turns single-owner with ROADMAP item 1(a).
    pub pool: Option<Arc<Mutex<CryptoPool>>>,
}

impl TlsConfig {
    /// Config with the fast test DH group and no CRLs.
    pub fn new(credential: Credential, trust: TrustStore, now: u64) -> Self {
        TlsConfig {
            credential,
            trust,
            crls: CrlStore::new(),
            now,
            group: DhGroup::test_group_256(),
            pool: None,
        }
    }

    /// Builder: share crypto state across handshakes (see
    /// [`crate::pool`]). Clones of the config share the same pool.
    pub fn with_pool(mut self, pool: Arc<Mutex<CryptoPool>>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Validate a peer chain — through the pool when one is attached.
    fn validate_peer(&self, chain: &[Certificate]) -> Result<ValidatedIdentity, TlsError> {
        let identity = match &self.pool {
            Some(pool) => pool.lock().expect("crypto pool lock").validate(
                chain,
                &self.trust,
                &self.crls,
                self.now,
            )?,
            None => validate_chain_with_crls(chain, &self.trust, &self.crls, self.now)?,
        };
        Ok(identity)
    }

    /// Verify a hello-binding signature — through the pool's shared
    /// contexts when one is attached.
    fn verify_binding(
        &self,
        key: &gridsec_crypto::rsa::RsaPublicKey,
        msg: &[u8],
        sig: &[u8],
    ) -> bool {
        match &self.pool {
            Some(pool) => pool
                .lock()
                .expect("crypto pool lock")
                .verify_binding(key, msg, sig),
            None => key.verify_pkcs1_sha256(msg, sig),
        }
    }

    /// Builder: select a DH group.
    pub fn with_group(mut self, group: DhGroup) -> Self {
        self.group = group;
        self
    }

    /// Builder: supply revocation state.
    pub fn with_crls(mut self, crls: CrlStore) -> Self {
        self.crls = crls;
        self
    }
}

// ----------------------------------------------------------------------
// Wire messages
// ----------------------------------------------------------------------

struct ClientHello {
    client_random: [u8; 32],
    dh_public: BigUint,
    chain: Vec<Certificate>,
    signature: Vec<u8>,
}

struct ServerHello {
    server_random: [u8; 32],
    dh_public: BigUint,
    chain: Vec<Certificate>,
    signature: Vec<u8>,
    finished_mac: [u8; 32],
}

struct ClientFinished {
    mac: [u8; 32],
}

pub(crate) fn get_array32(dec: &mut Decoder<'_>) -> Result<[u8; 32], PkiError> {
    dec.get_bytes()?
        .try_into()
        .map_err(|_| PkiError::Decode("expected 32 bytes"))
}

impl Codec for ClientHello {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(1); // token type tag
        enc.put_bytes(&self.client_random);
        enc.put_biguint(&self.dh_public);
        enc.put_seq(&self.chain, |e, c| c.encode(e));
        enc.put_bytes(&self.signature);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, PkiError> {
        if dec.get_u8()? != 1 {
            return Err(PkiError::Decode("not a ClientHello token"));
        }
        Ok(ClientHello {
            client_random: get_array32(dec)?,
            dh_public: dec.get_biguint()?,
            chain: dec.get_seq(Certificate::decode)?,
            signature: dec.get_bytes()?,
        })
    }
}

impl Codec for ServerHello {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(2);
        enc.put_bytes(&self.server_random);
        enc.put_biguint(&self.dh_public);
        enc.put_seq(&self.chain, |e, c| c.encode(e));
        enc.put_bytes(&self.signature);
        enc.put_bytes(&self.finished_mac);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, PkiError> {
        if dec.get_u8()? != 2 {
            return Err(PkiError::Decode("not a ServerHello token"));
        }
        Ok(ServerHello {
            server_random: get_array32(dec)?,
            dh_public: dec.get_biguint()?,
            chain: dec.get_seq(Certificate::decode)?,
            signature: dec.get_bytes()?,
            finished_mac: get_array32(dec)?,
        })
    }
}

impl Codec for ClientFinished {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(3);
        enc.put_bytes(&self.mac);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, PkiError> {
        if dec.get_u8()? != 3 {
            return Err(PkiError::Decode("not a ClientFinished token"));
        }
        Ok(ClientFinished {
            mac: get_array32(dec)?,
        })
    }
}

// ----------------------------------------------------------------------
// Key schedule
// ----------------------------------------------------------------------

pub(crate) struct KeySchedule {
    pub(crate) master: [u8; 32],
    pub(crate) key_block: Vec<u8>,
    /// Master-keyed HMAC schedule, primed once: the Finished MACs and
    /// the resumption ticket are all keyed by the master secret, so the
    /// padded-key absorption is paid once per handshake instead of once
    /// per MAC (the symmetric analogue of the fixed-base DH precomp).
    primed: PrimedHmac,
    transcript: [u8; 32],
    server_random: [u8; 32],
}

impl KeySchedule {
    pub(crate) fn derive(
        shared_secret: &[u8],
        client_random: &[u8; 32],
        server_random: &[u8; 32],
        client_hello_bytes: &[u8],
    ) -> Self {
        let mut salt = Vec::with_capacity(64);
        salt.extend_from_slice(client_random);
        salt.extend_from_slice(server_random);
        let master = hkdf_extract(&salt, shared_secret);
        let transcript = sha256(client_hello_bytes);
        let mut info = b"gsi tls key expansion".to_vec();
        info.extend_from_slice(&transcript);
        let primed = PrimedHmac::new(&master);
        let key_block = primed.expand(&info, crate::channel::KEY_BLOCK_LEN);
        KeySchedule {
            master,
            key_block,
            primed,
            transcript,
            server_random: *server_random,
        }
    }

    pub(crate) fn finished_mac(&self, label: &str) -> [u8; 32] {
        let mut mac = self.primed.begin();
        mac.update(label.as_bytes());
        mac.update(&self.transcript);
        mac.update(&self.server_random);
        mac.finalize()
    }

    /// Mint the resumption state for this key schedule, deriving the
    /// ticket through the primed master-keyed HMAC.
    pub(crate) fn resumption(&self, expires_at: u64, cred_not_after: u64) -> ResumptionData {
        ResumptionData::from_master_primed(&self.primed, self.master, expires_at, cred_not_after)
    }
}

fn client_signature_payload(client_random: &[u8; 32], dh_public: &BigUint) -> Vec<u8> {
    let mut data = b"gsi-tls client binding".to_vec();
    data.extend_from_slice(client_random);
    data.extend_from_slice(&dh_public.to_bytes_be());
    data
}

fn server_signature_payload(
    client_random: &[u8; 32],
    server_random: &[u8; 32],
    client_dh: &BigUint,
    server_dh: &BigUint,
) -> Vec<u8> {
    let mut data = b"gsi-tls server binding".to_vec();
    data.extend_from_slice(client_random);
    data.extend_from_slice(server_random);
    data.extend_from_slice(&client_dh.to_bytes_be());
    data.extend_from_slice(&server_dh.to_bytes_be());
    data
}

// ----------------------------------------------------------------------
// Client state machine
// ----------------------------------------------------------------------

/// Client side of the handshake: emits ClientHello, consumes ServerHello,
/// emits ClientFinished.
pub struct ClientHandshake {
    config: TlsConfig,
    dh: DhKeyPair,
    client_random: [u8; 32],
    hello_bytes: Vec<u8>,
}

impl ClientHandshake {
    /// Start a handshake; returns the state machine and the first token.
    pub fn new<E: EntropySource>(config: TlsConfig, rng: &mut E) -> (Self, Vec<u8>) {
        let mut seed = [0u8; 32];
        rng.fill_bytes(&mut seed);
        let mut local_rng = ChaChaRng::from_seed_bytes(&seed);

        let mut client_random = [0u8; 32];
        EntropySource::fill_bytes(&mut local_rng, &mut client_random);
        let dh = DhKeyPair::generate(&mut local_rng, &config.group);
        let payload = client_signature_payload(&client_random, &dh.public);
        let signature = config.credential.sign(&payload);
        let hello = ClientHello {
            client_random,
            dh_public: dh.public.clone(),
            chain: config.credential.chain().to_vec(),
            signature,
        };
        let hello_bytes = hello.to_bytes();
        (
            ClientHandshake {
                config,
                dh,
                client_random,
                hello_bytes: hello_bytes.clone(),
            },
            hello_bytes,
        )
    }

    /// Consume the ServerHello token; returns the final ClientFinished
    /// token plus the established channel.
    pub fn step(self, server_hello_token: &[u8]) -> Result<(Vec<u8>, SecureChannel), TlsError> {
        let sh = ServerHello::from_bytes(server_hello_token)
            .map_err(|_| TlsError::Protocol("malformed ServerHello"))?;

        // Authenticate the server.
        let peer = self.config.validate_peer(&sh.chain)?;
        let payload = server_signature_payload(
            &self.client_random,
            &sh.server_random,
            &self.dh.public,
            &sh.dh_public,
        );
        if !self
            .config
            .verify_binding(&peer.public_key, &payload, &sh.signature)
        {
            return Err(TlsError::BadPeerSignature);
        }

        // Key agreement and schedule.
        let shared = self.dh.agree(&sh.dh_public).ok_or(TlsError::BadDhShare)?;
        let ks = KeySchedule::derive(
            &shared,
            &self.client_random,
            &sh.server_random,
            &self.hello_bytes,
        );
        if !ct_eq(&ks.finished_mac("server finished"), &sh.finished_mac) {
            return Err(TlsError::BadFinished);
        }

        let finished = ClientFinished {
            mac: ks.finished_mac("client finished"),
        };
        // Both chains bound the ticket: resumption skips revalidation,
        // so the ticket must die with whichever credential dies first.
        let cred_not_after = crate::session::chain_not_after(self.config.credential.chain())
            .min(crate::session::chain_not_after(&sh.chain));
        let resumption = ks.resumption(
            self.config.now.saturating_add(DEFAULT_SESSION_LIFETIME),
            cred_not_after,
        );
        let channel =
            SecureChannel::from_key_block(peer, &ks.key_block, true).with_resumption(resumption);
        Ok((finished.to_bytes(), channel))
    }
}

// ----------------------------------------------------------------------
// Server state machine
// ----------------------------------------------------------------------

/// Server side: consumes ClientHello, emits ServerHello, then awaits the
/// ClientFinished token.
pub struct ServerHandshake {
    config: TlsConfig,
}

/// Intermediate server state: ServerHello sent, awaiting ClientFinished.
pub struct ServerAwaitFinished {
    expected_mac: [u8; 32],
    peer: ValidatedIdentity,
    key_block: Vec<u8>,
    resumption: ResumptionData,
}

impl ServerHandshake {
    /// Create the server side.
    pub fn new(config: TlsConfig) -> Self {
        ServerHandshake { config }
    }

    /// Consume the ClientHello; emit the ServerHello token and the
    /// await-finished state.
    pub fn step<E: EntropySource>(
        self,
        rng: &mut E,
        client_hello_token: &[u8],
    ) -> Result<(Vec<u8>, ServerAwaitFinished), TlsError> {
        accept_hello(&self.config, rng, client_hello_token)
    }
}

/// Accept one ClientHello: parse it, authenticate the client (GSI is
/// always mutual), check the hello binding, respond. The one path
/// behind [`ServerHandshake::step`] and [`server_accept_batch`].
fn accept_hello<E: EntropySource>(
    config: &TlsConfig,
    rng: &mut E,
    client_hello_token: &[u8],
) -> Result<(Vec<u8>, ServerAwaitFinished), TlsError> {
    let ch = ClientHello::from_bytes(client_hello_token)
        .map_err(|_| TlsError::Protocol("malformed ClientHello"))?;
    let peer = config.validate_peer(&ch.chain)?;
    let payload = client_signature_payload(&ch.client_random, &ch.dh_public);
    if !config.verify_binding(&peer.public_key, &payload, &ch.signature) {
        return Err(TlsError::BadPeerSignature);
    }
    server_respond(config, rng, &ch, client_hello_token, peer)
}

/// The server's second half: mint the DH share, derive the schedule,
/// sign the binding, and build the ServerHello.
fn server_respond<E: EntropySource>(
    config: &TlsConfig,
    rng: &mut E,
    ch: &ClientHello,
    client_hello_token: &[u8],
    peer: ValidatedIdentity,
) -> Result<(Vec<u8>, ServerAwaitFinished), TlsError> {
    let mut seed = [0u8; 32];
    rng.fill_bytes(&mut seed);
    let mut local_rng = ChaChaRng::from_seed_bytes(&seed);
    let mut server_random = [0u8; 32];
    EntropySource::fill_bytes(&mut local_rng, &mut server_random);
    let dh = DhKeyPair::generate(&mut local_rng, &config.group);
    let shared = dh.agree(&ch.dh_public).ok_or(TlsError::BadDhShare)?;
    let ks = KeySchedule::derive(
        &shared,
        &ch.client_random,
        &server_random,
        client_hello_token,
    );

    let payload =
        server_signature_payload(&ch.client_random, &server_random, &ch.dh_public, &dh.public);
    let sh = ServerHello {
        server_random,
        dh_public: dh.public.clone(),
        chain: config.credential.chain().to_vec(),
        signature: config.credential.sign(&payload),
        finished_mac: ks.finished_mac("server finished"),
    };
    // Same symmetric bound the client computes in `ClientHandshake::step`,
    // so both sides mint identically-stamped resumption state.
    let cred_not_after = crate::session::chain_not_after(config.credential.chain())
        .min(crate::session::chain_not_after(&ch.chain));
    let resumption = ks.resumption(
        config.now.saturating_add(DEFAULT_SESSION_LIFETIME),
        cred_not_after,
    );
    Ok((
        sh.to_bytes(),
        ServerAwaitFinished {
            expected_mac: ks.finished_mac("client finished"),
            peer,
            key_block: ks.key_block,
            resumption,
        },
    ))
}

/// Accept a wave of ClientHello tokens: in order, each exactly what
/// [`ServerHandshake::step`] returns for that token — same verdict,
/// and `rng` is drawn from in wave order and only by accepted hellos.
/// A loop, kept only because the frozen `benchmark/` crate and the mill
/// call it; what a pool attached to `config` buys a wave is what it
/// buys a single session, the verdict cache.
pub fn server_accept_batch<E: EntropySource>(
    config: &TlsConfig,
    rng: &mut E,
    hellos: &[&[u8]],
) -> Vec<Result<(Vec<u8>, ServerAwaitFinished), TlsError>> {
    hellos
        .iter()
        .map(|token| accept_hello(config, rng, token))
        .collect()
}

impl ServerAwaitFinished {
    /// Consume the ClientFinished token; on success the context is
    /// mutually authenticated.
    pub fn step(self, client_finished_token: &[u8]) -> Result<SecureChannel, TlsError> {
        let cf = ClientFinished::from_bytes(client_finished_token)
            .map_err(|_| TlsError::Protocol("malformed ClientFinished"))?;
        if !ct_eq(&cf.mac, &self.expected_mac) {
            return Err(TlsError::BadFinished);
        }
        Ok(
            SecureChannel::from_key_block(self.peer, &self.key_block, false)
                .with_resumption(self.resumption),
        )
    }
}

/// Drive a full in-memory handshake (helper for tests and single-process
/// benchmarks). Returns `(client_channel, server_channel)`.
pub fn handshake_in_memory<E: EntropySource>(
    client_config: TlsConfig,
    server_config: TlsConfig,
    rng: &mut E,
) -> Result<(SecureChannel, SecureChannel), TlsError> {
    let (client, hello) = ClientHandshake::new(client_config, rng);
    let server = ServerHandshake::new(server_config);
    let (server_hello, await_finished) = server.step(rng, &hello)?;
    let (finished, client_channel) = client.step(&server_hello)?;
    let server_channel = await_finished.step(&finished)?;
    Ok((client_channel, server_channel))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsec_pki::ca::CertificateAuthority;
    use gridsec_pki::name::DistinguishedName;
    use gridsec_pki::proxy::{issue_proxy, ProxyType};
    use gridsec_pki::validate::EffectiveRights;

    fn dn(s: &str) -> DistinguishedName {
        DistinguishedName::parse(s).unwrap()
    }

    struct World {
        rng: ChaChaRng,
        ca: CertificateAuthority,
        trust: TrustStore,
        alice: Credential,
        server: Credential,
    }

    fn world() -> World {
        let mut rng = ChaChaRng::from_seed_bytes(b"tls handshake tests");
        let ca = CertificateAuthority::create_root(&mut rng, dn("/O=G/CN=CA"), 512, 0, 1_000_000);
        let alice = ca.issue_identity(&mut rng, dn("/O=G/CN=Alice"), 512, 0, 100_000);
        let server = ca.issue_host_identity(
            &mut rng,
            dn("/O=G/CN=host fs1"),
            vec!["fs1".into()],
            512,
            0,
            100_000,
        );
        let mut trust = TrustStore::new();
        trust.add_root(ca.certificate().clone());
        World {
            rng,
            ca,
            trust,
            alice,
            server,
        }
    }

    fn cfg(w: &World, cred: &Credential) -> TlsConfig {
        TlsConfig::new(cred.clone(), w.trust.clone(), 100)
    }

    #[test]
    fn mutual_handshake_succeeds() {
        let mut w = world();
        let (mut cch, mut sch) =
            handshake_in_memory(cfg(&w, &w.alice), cfg(&w, &w.server), &mut w.rng).unwrap();
        // Peer identities are as expected.
        assert_eq!(cch.peer.base_identity, dn("/O=G/CN=host fs1"));
        assert_eq!(sch.peer.base_identity, dn("/O=G/CN=Alice"));
        // Channel works both ways.
        let m = cch.seal(b"GET /jobs");
        assert_eq!(sch.open(&m).unwrap(), b"GET /jobs");
        let r = sch.seal(b"200 OK");
        assert_eq!(cch.open(&r).unwrap(), b"200 OK");
    }

    #[test]
    fn proxy_credential_authenticates_as_base_identity() {
        let mut w = world();
        let proxy = issue_proxy(
            &mut w.rng,
            &w.alice,
            ProxyType::Impersonation,
            512,
            50,
            10_000,
        )
        .unwrap();
        let (_c, s) = handshake_in_memory(cfg(&w, &proxy), cfg(&w, &w.server), &mut w.rng).unwrap();
        assert_eq!(s.peer.base_identity, dn("/O=G/CN=Alice"));
        assert_eq!(s.peer.proxy_depth, 1);
        assert_eq!(s.peer.rights, EffectiveRights::Full);
    }

    #[test]
    fn untrusted_client_rejected() {
        let mut w = world();
        let rogue_ca =
            CertificateAuthority::create_root(&mut w.rng, dn("/O=Evil/CN=CA"), 512, 0, 1_000_000);
        let mallory = rogue_ca.issue_identity(&mut w.rng, dn("/O=Evil/CN=M"), 512, 0, 100_000);
        let err =
            handshake_in_memory(cfg(&w, &mallory), cfg(&w, &w.server), &mut w.rng).unwrap_err();
        assert!(matches!(err, TlsError::Pki(PkiError::UntrustedRoot)));
    }

    #[test]
    fn untrusted_server_rejected_by_client() {
        let mut w = world();
        let rogue_ca =
            CertificateAuthority::create_root(&mut w.rng, dn("/O=Evil/CN=CA"), 512, 0, 1_000_000);
        let fake_server =
            rogue_ca.issue_identity(&mut w.rng, dn("/O=G/CN=host fs1"), 512, 0, 100_000);
        // Server trusts the real CA (so the client passes), but the client
        // must reject the rogue server chain.
        let err =
            handshake_in_memory(cfg(&w, &w.alice), cfg(&w, &fake_server), &mut w.rng).unwrap_err();
        assert!(matches!(err, TlsError::Pki(PkiError::UntrustedRoot)));
    }

    #[test]
    fn expired_credential_rejected() {
        let mut w = world();
        let short =
            w.ca.issue_identity(&mut w.rng, dn("/O=G/CN=Short"), 512, 0, 50);
        // now=100 > 50.
        let err = handshake_in_memory(cfg(&w, &short), cfg(&w, &w.server), &mut w.rng).unwrap_err();
        assert!(matches!(err, TlsError::Pki(PkiError::Expired { .. })));
    }

    #[test]
    fn tampered_server_hello_rejected() {
        let mut w = world();
        let (client, hello) = ClientHandshake::new(cfg(&w, &w.alice), &mut w.rng);
        let server = ServerHandshake::new(cfg(&w, &w.server));
        let (mut server_hello, _await) = server.step(&mut w.rng, &hello).unwrap();
        // Flip a byte somewhere in the middle (dh share / chain region).
        let mid = server_hello.len() / 2;
        server_hello[mid] ^= 0x40;
        let err = client.step(&server_hello).unwrap_err();
        assert!(
            matches!(
                err,
                TlsError::BadPeerSignature
                    | TlsError::BadFinished
                    | TlsError::Protocol(_)
                    | TlsError::Pki(_)
            ),
            "unexpected: {err:?}"
        );
    }

    #[test]
    fn wrong_finished_rejected() {
        let mut w = world();
        let (client, hello) = ClientHandshake::new(cfg(&w, &w.alice), &mut w.rng);
        let server = ServerHandshake::new(cfg(&w, &w.server));
        let (server_hello, await_finished) = server.step(&mut w.rng, &hello).unwrap();
        let (mut finished, _cch) = client.step(&server_hello).unwrap();
        let n = finished.len();
        finished[n - 1] ^= 1;
        assert_eq!(
            await_finished.step(&finished).unwrap_err(),
            TlsError::BadFinished
        );
    }

    #[test]
    fn replayed_client_hello_cannot_finish() {
        let mut w = world();
        // Legitimate exchange, capturing the ClientHello.
        let (client, hello) = ClientHandshake::new(cfg(&w, &w.alice), &mut w.rng);
        let server = ServerHandshake::new(cfg(&w, &w.server));
        let (server_hello, _await1) = server.step(&mut w.rng, &hello).unwrap();
        let _ = client.step(&server_hello).unwrap();

        // Attacker replays the captured hello to a fresh server instance.
        let server2 = ServerHandshake::new(cfg(&w, &w.server));
        let (_sh2, await2) = server2.step(&mut w.rng, &hello).unwrap();
        // Without Alice's DH private key the attacker cannot produce the
        // matching Finished MAC; any guess fails.
        assert_eq!(
            await2
                .step(&ClientFinished { mac: [0u8; 32] }.to_bytes())
                .unwrap_err(),
            TlsError::BadFinished
        );
    }

    #[test]
    fn tokens_are_transport_neutral() {
        // The experiment-C1 property: tokens produced here are plain bytes
        // with a self-describing type tag, so any transport can carry them.
        let mut w = world();
        let (_client, hello) = ClientHandshake::new(cfg(&w, &w.alice), &mut w.rng);
        assert_eq!(hello[0], 1); // ClientHello tag
        let ch = ClientHello::from_bytes(&hello).unwrap();
        assert_eq!(ch.chain.len(), w.alice.chain().len());
    }

    #[test]
    fn garbage_tokens_rejected() {
        let mut w = world();
        let server = ServerHandshake::new(cfg(&w, &w.server));
        assert!(matches!(
            server.step(&mut w.rng, b"not a token"),
            Err(TlsError::Protocol(_))
        ));
        let (client, _hello) = ClientHandshake::new(cfg(&w, &w.alice), &mut w.rng);
        assert!(matches!(
            client.step(&[0u8; 64]),
            Err(TlsError::Protocol(_))
        ));
    }
}
