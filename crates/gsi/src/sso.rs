//! Single sign-on: `grid-proxy-init` and session handling (paper §3).
//!
//! A user signs on once by creating a short-lived proxy from their
//! long-lived identity credential; every subsequent authentication uses
//! the proxy, so the long-lived key can stay offline.

use gridsec_bignum::prime::EntropySource;
use gridsec_pki::credential::Credential;
use gridsec_pki::proxy::{issue_proxy, ProxyType};
use gridsec_pki::PkiError;

/// Options for proxy creation.
#[derive(Clone, Debug)]
pub struct ProxyOptions {
    /// Proxy lifetime in seconds (GT default was 12 hours).
    pub lifetime: u64,
    /// Proxy key size.
    pub key_bits: usize,
    /// Kind of proxy to create.
    pub proxy_type: ProxyType,
}

impl Default for ProxyOptions {
    fn default() -> Self {
        ProxyOptions {
            lifetime: 12 * 3600,
            key_bits: 512,
            proxy_type: ProxyType::Impersonation,
        }
    }
}

/// A signed-on session: the proxy credential plus its metadata.
pub struct Session {
    credential: Credential,
}

impl Session {
    /// The session's proxy credential.
    pub fn credential(&self) -> &Credential {
        &self.credential
    }

    /// Remaining lifetime at `now` (0 when expired).
    pub fn remaining(&self, now: u64) -> u64 {
        self.credential
            .certificate()
            .body()
            .validity
            .not_after
            .saturating_sub(now)
    }
}

/// `grid-proxy-init`: create a session proxy from a long-lived identity.
pub fn grid_proxy_init<E: EntropySource>(
    rng: &mut E,
    identity: &Credential,
    options: ProxyOptions,
    now: u64,
) -> Result<Session, PkiError> {
    let credential = issue_proxy(
        rng,
        identity,
        options.proxy_type,
        options.key_bits,
        now,
        options.lifetime,
    )?;
    Ok(Session { credential })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsec_crypto::rng::ChaChaRng;
    use gridsec_pki::ca::CertificateAuthority;
    use gridsec_pki::name::DistinguishedName;
    use gridsec_pki::store::TrustStore;
    use gridsec_pki::validate::{validate_chain, EffectiveRights};

    fn dn(s: &str) -> DistinguishedName {
        DistinguishedName::parse(s).unwrap()
    }

    fn setup() -> (ChaChaRng, TrustStore, Credential) {
        let mut rng = ChaChaRng::from_seed_bytes(b"sso tests");
        let ca = CertificateAuthority::create_root(&mut rng, dn("/O=G/CN=CA"), 512, 0, 10_000_000);
        let user = ca.issue_identity(&mut rng, dn("/O=G/CN=Jane"), 512, 0, 1_000_000);
        let mut trust = TrustStore::new();
        trust.add_root(ca.certificate().clone());
        (rng, trust, user)
    }

    #[test]
    fn sign_on_and_validate() {
        let (mut rng, trust, user) = setup();
        let session = grid_proxy_init(&mut rng, &user, ProxyOptions::default(), 1000).unwrap();
        assert_eq!(session.remaining(1000), 12 * 3600);
        let id = validate_chain(session.credential().chain(), &trust, 2000).unwrap();
        assert_eq!(id.base_identity, dn("/O=G/CN=Jane"));
        assert_eq!(id.rights, EffectiveRights::Full);
    }

    #[test]
    fn session_expires() {
        let (mut rng, trust, user) = setup();
        let session = grid_proxy_init(
            &mut rng,
            &user,
            ProxyOptions {
                lifetime: 100,
                ..ProxyOptions::default()
            },
            1000,
        )
        .unwrap();
        assert_eq!(session.remaining(1101), 0);
        assert!(validate_chain(session.credential().chain(), &trust, 1101).is_err());
    }

    #[test]
    fn limited_session() {
        let (mut rng, trust, user) = setup();
        let session = grid_proxy_init(
            &mut rng,
            &user,
            ProxyOptions {
                proxy_type: ProxyType::Limited,
                ..ProxyOptions::default()
            },
            0,
        )
        .unwrap();
        let id = validate_chain(session.credential().chain(), &trust, 10).unwrap();
        assert_eq!(id.rights, EffectiveRights::Limited);
    }

    #[test]
    fn renew_produces_fresh_proxy() {
        let (mut rng, _trust, user) = setup();
        let s1 = grid_proxy_init(&mut rng, &user, ProxyOptions::default(), 0).unwrap();
        // Renewal signs on again: a fresh proxy, not an extension.
        let s2 = grid_proxy_init(&mut rng, &user, ProxyOptions::default(), 5000).unwrap();
        assert_ne!(
            s1.credential().certificate().subject(),
            s2.credential().certificate().subject()
        );
        assert_eq!(
            s2.credential().certificate().body().validity.not_before,
            5000
        );
    }
}
