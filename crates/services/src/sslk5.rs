//! SSLK5: GSI → Kerberos credential conversion (the reverse gateway of
//! paper §3), built on the KDC's PKINIT-style AS exchange.
//!
//! A grid user holding an X.509 credential obtains a Kerberos TGT at a
//! Kerberos-only site, letting GSI users consume Kerberized services
//! without a site password.

use gridsec_bignum::prime::EntropySource;
use gridsec_kerberos::messages::{open, Key, ReplyPart, Ticket};
use gridsec_kerberos::{Kdc, KrbError};
use gridsec_pki::credential::Credential;
use gridsec_pki::encoding::Codec;
use gridsec_pki::name::DistinguishedName;
use gridsec_pki::store::TrustStore;

/// The result of an SSLK5 login: a TGT plus its session key, usable for
/// ordinary TGS exchanges afterwards.
pub struct Sslk5Login {
    /// The issued ticket-granting ticket.
    pub tgt: Ticket,
    /// Session key for the TGT.
    pub session_key: Key,
    /// The mapped principal.
    pub principal: String,
    /// TGT expiry.
    pub end_time: u64,
}

impl core::fmt::Debug for Sslk5Login {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // The session key stays out of logs.
        f.debug_struct("Sslk5Login")
            .field("tgt", &self.tgt)
            .field("principal", &self.principal)
            .field("end_time", &self.end_time)
            .finish_non_exhaustive()
    }
}

/// Perform the PKINIT exchange: authenticate to `kdc` with `credential`
/// (validated against the KDC's `trust`), mapping grid identities to
/// principals with `principal_map`.
#[allow(clippy::too_many_arguments)]
pub fn sslk5_login<E: EntropySource>(
    rng: &mut E,
    kdc: &Kdc,
    credential: &Credential,
    trust: &TrustStore,
    principal_map: impl Fn(&DistinguishedName) -> Option<String>,
    now: u64,
    requested_life: u64,
) -> Result<Sslk5Login, KrbError> {
    // Proof of possession over a fresh nonce.
    let mut nonce = [0u8; 16];
    rng.fill_bytes(&mut nonce);
    let mut pop_payload = b"pkinit-pop".to_vec();
    pop_payload.extend_from_slice(&nonce);
    let pop_signature = credential.sign(&pop_payload);

    let principal_preview = principal_map(credential.base_identity());

    let (wrapped_key, reply) = kdc.pkinit_as_exchange(
        rng,
        credential.chain(),
        &pop_signature,
        &nonce,
        trust,
        principal_map,
        now,
        requested_life,
    )?;

    // Unwrap the RSA-encrypted reply key with our certificate key.
    let reply_key_bytes = credential
        .key()
        .decrypt_pkcs1(&wrapped_key)
        .map_err(|_| KrbError::Integrity)?;
    let reply_key: Key = reply_key_bytes
        .try_into()
        .map_err(|_| KrbError::Decode("bad reply key length"))?;
    let plain = open(&reply_key, b"krb-as-rep", &reply.enc_part)?;
    let part = ReplyPart::from_bytes(&plain).map_err(|_| KrbError::Decode("reply part"))?;

    Ok(Sslk5Login {
        tgt: reply.tgt,
        session_key: part.session_key,
        principal: principal_preview.unwrap_or_default(),
        end_time: part.end_time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsec_crypto::rng::ChaChaRng;
    use gridsec_kerberos::client::KrbClient;
    use gridsec_pki::ca::CertificateAuthority;
    use gridsec_pki::proxy::{issue_proxy, ProxyType};

    fn dn(s: &str) -> DistinguishedName {
        DistinguishedName::parse(s).unwrap()
    }

    struct World {
        rng: ChaChaRng,
        kdc: Kdc,
        trust: TrustStore,
        jane: Credential,
    }

    fn world() -> World {
        let mut rng = ChaChaRng::from_seed_bytes(b"sslk5 tests");
        let kdc = Kdc::new(&mut rng, "SITE.B", 36_000);
        kdc.add_principal("jdoe", "site-password");
        let ca = CertificateAuthority::create_root(&mut rng, dn("/O=G/CN=CA"), 512, 0, 1_000_000);
        let jane = ca.issue_identity(&mut rng, dn("/O=G/CN=Jane"), 512, 0, 500_000);
        let mut trust = TrustStore::new();
        trust.add_root(ca.certificate().clone());
        World {
            rng,
            kdc,
            trust,
            jane,
        }
    }

    fn jane_map(d: &DistinguishedName) -> Option<String> {
        (d == &dn("/O=G/CN=Jane")).then(|| "jdoe".to_string())
    }

    #[test]
    fn login_debug_prints_no_session_key() {
        let mut w = world();
        let login =
            sslk5_login(&mut w.rng, &w.kdc, &w.jane, &w.trust, jane_map, 100, 10_000).unwrap();
        let shown = format!("{login:?}");
        let key = login.session_key;
        let hex: String = key.iter().map(|b| format!("{b:02x}")).collect();
        assert!(shown.contains("jdoe"), "{shown}");
        assert!(
            !shown.contains(&format!("{key:?}")) && !shown.contains(&hex),
            "{shown}"
        );
    }

    #[test]
    fn gsi_user_obtains_usable_tgt() {
        let mut w = world();
        let login =
            sslk5_login(&mut w.rng, &w.kdc, &w.jane, &w.trust, jane_map, 100, 10_000).unwrap();
        assert_eq!(login.principal, "jdoe");

        // The TGT works for a normal TGS exchange.
        let fs_key = w.kdc.add_service(&mut w.rng, "host/fs1");
        let client = KrbClient::from_password("jdoe", "SITE.B", "site-password");
        let auth = client.make_authenticator(&mut w.rng, &login.session_key, 110);
        let st = w
            .kdc
            .tgs_exchange(&mut w.rng, &login.tgt, &auth, "host/fs1", 110, 1000)
            .unwrap();
        let body = st.ticket.unseal(&fs_key).unwrap();
        assert_eq!(body.client, "jdoe");
    }

    #[test]
    fn proxy_credential_works_via_base_identity() {
        let mut w = world();
        let proxy = issue_proxy(
            &mut w.rng,
            &w.jane,
            ProxyType::Impersonation,
            512,
            50,
            10_000,
        )
        .unwrap();
        let login =
            sslk5_login(&mut w.rng, &w.kdc, &proxy, &w.trust, jane_map, 100, 10_000).unwrap();
        assert_eq!(login.principal, "jdoe");
    }

    #[test]
    fn untrusted_chain_rejected() {
        let mut w = world();
        let rogue =
            CertificateAuthority::create_root(&mut w.rng, dn("/O=Evil/CN=CA"), 512, 0, 1000);
        let fake = rogue.issue_identity(&mut w.rng, dn("/O=G/CN=Jane"), 512, 0, 1000);
        assert_eq!(
            sslk5_login(&mut w.rng, &w.kdc, &fake, &w.trust, jane_map, 100, 1000).unwrap_err(),
            KrbError::PkiRejected
        );
    }

    #[test]
    fn unmapped_identity_rejected() {
        let mut w = world();
        let err =
            sslk5_login(&mut w.rng, &w.kdc, &w.jane, &w.trust, |_| None, 100, 1000).unwrap_err();
        assert!(matches!(err, KrbError::NoMapping(_)));
    }

    #[test]
    fn mapping_to_unregistered_principal_rejected() {
        let mut w = world();
        let err = sslk5_login(
            &mut w.rng,
            &w.kdc,
            &w.jane,
            &w.trust,
            |_| Some("ghost".to_string()),
            100,
            1000,
        )
        .unwrap_err();
        assert!(matches!(err, KrbError::UnknownPrincipal(_)));
    }
}
