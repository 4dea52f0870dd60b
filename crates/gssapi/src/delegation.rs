//! GSI credential delegation over an established context (paper §3, §5.3
//! step 7).
//!
//! Protocol (all messages wrapped under the established context):
//!
//! 1. Initiator → acceptor: `DELEG-REQ` (announces intent + proxy type).
//! 2. Acceptor replies with the public half of a key pair it holds
//!    *locally* (a CSR in spirit): one it generates for this delegation
//!    ([`respond_with_key`]) or one it already keeps ([`respond`]). The
//!    private key never leaves the acceptor.
//! 3. Initiator signs a fresh proxy certificate over that key with its
//!    own credential and sends the certificate plus its chain.
//! 4. Acceptor checks that the proxy is over its key and was issued and
//!    signed by the context's authenticated peer, whose chain it carries,
//!    then assembles the delegated [`Credential`].
//!
//! This is how an MJS obtains "GSI credentials for the job" without the
//! user's key material ever crossing the network.

use gridsec_bignum::prime::EntropySource;
use gridsec_crypto::rsa::RsaKeyPair;
use gridsec_pki::cert::Certificate;
use gridsec_pki::credential::Credential;
use gridsec_pki::encoding::{Codec, Decoder, Encoder};
use gridsec_pki::proxy::{issue_delegated_proxy, ProxyType};
use gridsec_pki::PkiError;

use crate::context::EstablishedContext;
use crate::GssError;

const REQ_MAGIC: &[u8] = b"GSI-DELEG-REQ-V1";

/// Message 3 payload: the signed proxy certificate and the issuer chain.
struct DelegatedChain {
    proxy_cert: Certificate,
    issuer_chain: Vec<Certificate>,
}

/// A [`DelegatedChain`]'s encoding: the proxy certificate, then the
/// issuer chain's wire encoding as its credential holds it.
fn delegated_chain_bytes(proxy_cert: &Certificate, issuer_chain: &[u8]) -> Vec<u8> {
    let mut enc = Encoder::new();
    proxy_cert.encode(&mut enc);
    enc.put_raw(issuer_chain);
    enc.finish()
}

impl DelegatedChain {
    fn from_bytes(bytes: &[u8]) -> Result<Self, PkiError> {
        let mut dec = Decoder::new(bytes);
        let msg = DelegatedChain {
            proxy_cert: Certificate::decode(&mut dec)?,
            issuer_chain: dec.get_seq(Certificate::decode)?,
        };
        dec.expect_exhausted()?;
        Ok(msg)
    }
}

/// Initiator step 1: produce the (wrapped) delegation request token.
pub fn request_delegation(ctx: &mut EstablishedContext) -> Vec<u8> {
    ctx.wrap(REQ_MAGIC)
}

/// Acceptor step 2 with a fresh key: generate a local key pair of
/// `key_bits` and [`respond`] with it.
pub fn respond_with_key<E: EntropySource>(
    ctx: &mut EstablishedContext,
    rng: &mut E,
    request_token: &[u8],
    key_bits: usize,
) -> Result<(Vec<u8>, PendingDelegation), GssError> {
    respond(ctx, request_token, RsaKeyPair::generate(rng, key_bits))
}

/// Acceptor step 2: on receiving the request, return the (wrapped)
/// public half of `key` plus the pending state that holds `key`.
pub fn respond(
    ctx: &mut EstablishedContext,
    request_token: &[u8],
    key: RsaKeyPair,
) -> Result<(Vec<u8>, PendingDelegation), GssError> {
    let req = ctx.unwrap(request_token)?;
    if req != REQ_MAGIC {
        return Err(GssError::Delegation("not a delegation request"));
    }
    let mut enc = Encoder::new();
    gridsec_pki::cert::encode_public_key(&mut enc, key.public());
    let token = ctx.wrap(&enc.finish());
    Ok((token, PendingDelegation { key }))
}

/// Initiator step 3: sign a proxy over the acceptor's public key and send
/// the certificate + chain.
pub fn deliver_proxy<E: EntropySource>(
    ctx: &mut EstablishedContext,
    rng: &mut E,
    delegator: &Credential,
    key_token: &[u8],
    proxy_type: ProxyType,
    now: u64,
    lifetime: u64,
) -> Result<Vec<u8>, GssError> {
    let key_bytes = ctx.unwrap(key_token)?;
    let mut dec = Decoder::new(&key_bytes);
    let remote_public = gridsec_pki::cert::decode_public_key(&mut dec)
        .map_err(|_| GssError::Delegation("malformed public key"))?;
    dec.expect_exhausted()
        .map_err(|_| GssError::Delegation("trailing bytes in key token"))?;

    let proxy_cert =
        issue_delegated_proxy(rng, delegator, &remote_public, proxy_type, now, lifetime)
            .map_err(|_| GssError::Delegation("proxy issuance refused"))?;
    let msg = delegated_chain_bytes(&proxy_cert, delegator.encoded_chain());
    Ok(ctx.wrap(&msg))
}

/// Acceptor-side state between steps 2 and 4: the key answered with.
pub struct PendingDelegation {
    key: RsaKeyPair,
}

impl PendingDelegation {
    /// Acceptor step 4: assemble the delegated credential. The proxy
    /// must be over the held key, name the context's peer as its issuer
    /// and verify under the peer's key, and the chain it carries must
    /// start at the peer's own certificate: a chain that speaks for
    /// anyone but the authenticated peer is refused.
    pub fn finish(
        self,
        ctx: &mut EstablishedContext,
        chain_token: &[u8],
    ) -> Result<Credential, GssError> {
        let bytes = ctx.unwrap(chain_token)?;
        let msg = DelegatedChain::from_bytes(&bytes)
            .map_err(|_| GssError::Delegation("malformed delegated chain"))?;
        let proxy = &msg.proxy_cert;
        if proxy.public_key() != self.key.public() {
            return Err(GssError::Delegation("certificate is not over our key"));
        }
        let peer = ctx.peer();
        if proxy.issuer() != &peer.subject {
            return Err(GssError::Delegation("proxy not issued by the peer"));
        }
        if !proxy.verify_signature(&peer.public_key) {
            return Err(GssError::Delegation("proxy not signed by the peer"));
        }
        if msg.issuer_chain.first().map(Certificate::public_key) != Some(&peer.public_key) {
            return Err(GssError::Delegation("issuer chain is not the peer's"));
        }
        let mut chain = vec![msg.proxy_cert];
        chain.extend(msg.issuer_chain);
        Ok(Credential::new(chain, self.key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::establish_in_memory;
    use gridsec_crypto::rng::ChaChaRng;
    use gridsec_crypto::rsa::RsaPublicKey;
    use gridsec_pki::ca::CertificateAuthority;
    use gridsec_pki::name::DistinguishedName;
    use gridsec_pki::store::TrustStore;
    use gridsec_pki::validate::{validate_chain, EffectiveRights};
    use gridsec_tls::handshake::TlsConfig;

    fn dn(s: &str) -> DistinguishedName {
        DistinguishedName::parse(s).unwrap()
    }

    struct Setup {
        rng: ChaChaRng,
        trust: TrustStore,
        alice: Credential,
        /// Another identity the acceptor trusts.
        mallory: Credential,
        ic: EstablishedContext,
        ac: EstablishedContext,
    }

    fn setup() -> Setup {
        let mut rng = ChaChaRng::from_seed_bytes(b"delegation tests");
        let ca = CertificateAuthority::create_root(&mut rng, dn("/O=G/CN=CA"), 512, 0, 1_000_000);
        let alice = ca.issue_identity(&mut rng, dn("/O=G/CN=Alice"), 512, 0, 100_000);
        let mjs = ca.issue_identity(&mut rng, dn("/O=G/CN=MJS"), 512, 0, 100_000);
        let mallory = ca.issue_identity(&mut rng, dn("/O=G/CN=Mallory"), 512, 0, 100_000);
        let mut trust = TrustStore::new();
        trust.add_root(ca.certificate().clone());
        let (ic, ac) = establish_in_memory(
            TlsConfig::new(alice.clone(), trust.clone(), 100),
            TlsConfig::new(mjs, trust.clone(), 100),
            &mut rng,
        )
        .unwrap();
        Setup {
            rng,
            trust,
            alice,
            mallory,
            ic,
            ac,
        }
    }

    /// Step 4 fed the message 3 payload `forge` builds over the
    /// acceptor's key.
    fn finish_forged(
        s: &mut Setup,
        forge: impl FnOnce(&mut Setup, &RsaPublicKey) -> Vec<u8>,
    ) -> Result<Credential, GssError> {
        let t1 = request_delegation(&mut s.ic);
        let (_t2, pending) = respond_with_key(&mut s.ac, &mut s.rng, &t1, 512).unwrap();
        let msg = forge(s, pending.key.public());
        let t3 = s.ic.wrap(&msg);
        pending.finish(&mut s.ac, &t3)
    }

    /// A proxy `issuer` signs over `key`.
    fn proxy_by(s: &mut Setup, issuer: &Credential, key: &RsaPublicKey) -> Certificate {
        issue_delegated_proxy(&mut s.rng, issuer, key, ProxyType::Impersonation, 100, 1000).unwrap()
    }

    fn run_delegation(s: &mut Setup, proxy_type: ProxyType) -> Credential {
        let t1 = request_delegation(&mut s.ic);
        let (t2, pending) = respond_with_key(&mut s.ac, &mut s.rng, &t1, 512).unwrap();
        let t3 =
            deliver_proxy(&mut s.ic, &mut s.rng, &s.alice, &t2, proxy_type, 100, 5000).unwrap();
        pending.finish(s.ic_to_ac_ctx_hack(), &t3).unwrap()
    }

    impl Setup {
        // `finish` must run on the acceptor context; this helper exists to
        // keep borrows simple in run_delegation.
        fn ic_to_ac_ctx_hack(&mut self) -> &mut EstablishedContext {
            &mut self.ac
        }
    }

    #[test]
    fn delegated_credential_is_valid_proxy_of_initiator() {
        let mut s = setup();
        let cred = run_delegation(&mut s, ProxyType::Impersonation);
        assert_eq!(cred.base_identity(), &dn("/O=G/CN=Alice"));
        assert_eq!(cred.proxy_depth(), 1);
        let id = validate_chain(cred.chain(), &s.trust, 200).unwrap();
        assert_eq!(id.base_identity, dn("/O=G/CN=Alice"));
        assert_eq!(id.rights, EffectiveRights::Full);
    }

    #[test]
    fn limited_delegation_yields_limited_rights() {
        let mut s = setup();
        let cred = run_delegation(&mut s, ProxyType::Limited);
        let id = validate_chain(cred.chain(), &s.trust, 200).unwrap();
        assert_eq!(id.rights, EffectiveRights::Limited);
    }

    #[test]
    fn delegated_key_can_sign() {
        let mut s = setup();
        let cred = run_delegation(&mut s, ProxyType::Impersonation);
        let sig = cred.sign(b"act on behalf of alice");
        assert!(cred
            .certificate()
            .public_key()
            .verify_pkcs1_sha256(b"act on behalf of alice", &sig));
    }

    #[test]
    fn non_request_token_rejected() {
        let mut s = setup();
        let bogus = s.ic.wrap(b"not a delegation request");
        assert!(matches!(
            respond_with_key(&mut s.ac, &mut s.rng, &bogus, 512),
            Err(GssError::Delegation(_))
        ));
    }

    #[test]
    fn mismatched_certificate_rejected() {
        let mut s = setup();
        // Initiator signs over the WRONG key (its own, not the acceptor's).
        let refused = finish_forged(&mut s, |s, _| {
            let alice = s.alice.clone();
            let proxy = proxy_by(s, &alice, alice.certificate().public_key());
            delegated_chain_bytes(&proxy, alice.encoded_chain())
        });
        assert!(matches!(
            refused,
            Err(GssError::Delegation("certificate is not over our key"))
        ));
    }

    #[test]
    fn proxy_issued_by_another_trusted_party_is_refused() {
        // Mallory signs over the acceptor's key and attaches Alice's
        // chain: the credential would claim Alice's identity.
        let mut s = setup();
        let refused = finish_forged(&mut s, |s, key| {
            let mallory = s.mallory.clone();
            let proxy = proxy_by(s, &mallory, key);
            delegated_chain_bytes(&proxy, s.alice.encoded_chain())
        });
        assert!(matches!(
            refused,
            Err(GssError::Delegation("proxy not issued by the peer"))
        ));
    }

    #[test]
    fn proxy_naming_the_peer_but_signed_by_another_is_refused() {
        let mut s = setup();
        let refused = finish_forged(&mut s, |s, key| {
            let alice = s.alice.clone();
            let named = proxy_by(s, &alice, key);
            let proxy = Certificate::sign(named.tbs, s.mallory.key());
            delegated_chain_bytes(&proxy, alice.encoded_chain())
        });
        assert!(matches!(
            refused,
            Err(GssError::Delegation("proxy not signed by the peer"))
        ));
    }

    #[test]
    fn peers_proxy_carrying_another_chain_is_refused() {
        let mut s = setup();
        let refused = finish_forged(&mut s, |s, key| {
            let alice = s.alice.clone();
            let proxy = proxy_by(s, &alice, key);
            delegated_chain_bytes(&proxy, s.mallory.encoded_chain())
        });
        assert!(matches!(
            refused,
            Err(GssError::Delegation("issuer chain is not the peer's"))
        ));
    }

    #[test]
    fn respond_answers_with_the_key_it_is_given() {
        let mut s = setup();
        let key = RsaKeyPair::generate(&mut s.rng, 512);
        let t1 = request_delegation(&mut s.ic);
        let (t2, pending) = respond(&mut s.ac, &t1, key.clone()).unwrap();
        let t3 = deliver_proxy(
            &mut s.ic,
            &mut s.rng,
            &s.alice,
            &t2,
            ProxyType::Impersonation,
            100,
            5000,
        )
        .unwrap();
        let cred = pending.finish(&mut s.ac, &t3).unwrap();
        assert_eq!(cred.certificate().public_key(), key.public());
        assert_eq!(cred.base_identity(), &dn("/O=G/CN=Alice"));
    }

    #[test]
    fn delegation_chain_can_be_redelegated() {
        // MJS redelegates alice's credential onward (proxy of proxy).
        let mut s = setup();
        let first = run_delegation(&mut s, ProxyType::Impersonation);
        // New context: MJS (holding delegated cred) → another service.
        let mut rng2 = ChaChaRng::from_seed_bytes(b"redelegate");
        let ca2 = &s.trust; // same trust
        let (mut ic2, mut ac2) = establish_in_memory(
            TlsConfig::new(first.clone(), ca2.clone(), 200),
            TlsConfig::new(s.alice.clone(), ca2.clone(), 200),
            &mut rng2,
        )
        .unwrap();
        let t1 = request_delegation(&mut ic2);
        let (t2, pending) = respond_with_key(&mut ac2, &mut rng2, &t1, 512).unwrap();
        let t3 = deliver_proxy(
            &mut ic2,
            &mut rng2,
            &first,
            &t2,
            ProxyType::Impersonation,
            200,
            1000,
        )
        .unwrap();
        let second = pending.finish(&mut ac2, &t3).unwrap();
        assert_eq!(second.proxy_depth(), 2);
        let id = validate_chain(second.chain(), &s.trust, 250).unwrap();
        assert_eq!(id.base_identity, dn("/O=G/CN=Alice"));
    }
}
