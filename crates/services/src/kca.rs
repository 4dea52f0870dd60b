//! The Kerberos Certificate Authority (KCA): Kerberos → GSI credential
//! conversion (paper §3 and Figure 3 step 2; Kornievskaia et al., ref 29).
//!
//! A site with an existing Kerberos infrastructure runs a KCA: users
//! authenticate with a Kerberos service ticket and receive a short-lived
//! X.509 certificate over a locally-generated key pair, letting them act
//! on the Grid without a personal long-lived certificate.

use gridsec_bignum::prime::EntropySource;
use gridsec_crypto::rsa::RsaKeyPair;
use gridsec_kerberos::client::{KrbClient, ServiceVerifier};
use gridsec_kerberos::messages::Key;
use gridsec_kerberos::{Kdc, KrbError, Ticket};
use gridsec_ogsa::client::CredentialSource;
use gridsec_ogsa::OgsaError;
use gridsec_pki::ca::CertificateAuthority;
use gridsec_pki::cert::Certificate;
use gridsec_pki::credential::Credential;
use gridsec_pki::name::DistinguishedName;
use std::rc::Rc;

/// The KCA service principal registered with the KDC.
pub(crate) const KCA_SERVICE: &str = "kca/grid";

/// The KCA: an online CA that certifies Kerberos-authenticated users.
pub struct KerberosCa {
    ca: CertificateAuthority,
    verifier: ServiceVerifier,
    realm: String,
    cert_lifetime: u64,
}

impl KerberosCa {
    /// Stand up a KCA for a realm: registers the `kca/grid` service with
    /// the KDC and creates the KCA's own (short-lived-issuing) CA.
    ///
    /// Grid relying parties that want to accept this site's users add
    /// `kca.certificate()` to their trust stores — a *unilateral* act.
    pub fn new<E: EntropySource>(
        rng: &mut E,
        kdc: &Kdc,
        ca_key_bits: usize,
        ca_validity: u64,
        cert_lifetime: u64,
    ) -> Self {
        let key: Key = kdc.add_service(rng, KCA_SERVICE);
        let realm = kdc.realm().to_string();
        let name = DistinguishedName::parse(&format!("/O=KCA {realm}/CN=Kerberos CA"))
            .expect("static name");
        let ca = CertificateAuthority::create_root(rng, name, ca_key_bits, 0, ca_validity);
        KerberosCa {
            ca,
            verifier: ServiceVerifier::new(KCA_SERVICE, key),
            realm,
            cert_lifetime,
        }
    }

    /// The KCA's root certificate (trust anchor for its issued certs).
    pub fn certificate(&self) -> &Certificate {
        self.ca.certificate()
    }

    /// The DN the KCA will issue for a principal.
    pub(crate) fn dn_for_principal(&self, principal: &str) -> DistinguishedName {
        DistinguishedName::parse(&format!("/O=KCA {}/CN={principal}", self.realm))
            .expect("principal names are attribute-safe")
    }

    /// Convert: given a valid (ticket, authenticator) for `kca/grid` and a
    /// client-generated public key, issue a short-lived certificate. The
    /// private key never leaves the requester.
    pub(crate) fn convert(
        &self,
        ticket: &Ticket,
        authenticator: &[u8],
        public_key: &gridsec_crypto::rsa::RsaPublicKey,
        now: u64,
    ) -> Result<Certificate, KrbError> {
        let accepted = self.verifier.accept(ticket, authenticator, now)?;
        let subject = self.dn_for_principal(&accepted.client);
        let extensions = gridsec_pki::cert::Extensions {
            basic_constraints: Some(gridsec_pki::cert::BasicConstraints {
                is_ca: false,
                path_len: None,
            }),
            key_usage: Some(
                gridsec_pki::cert::key_usage::DIGITAL_SIGNATURE
                    | gridsec_pki::cert::key_usage::KEY_ENCIPHERMENT,
            ),
            proxy_cert_info: None,
            subject_alt_names: vec![format!("{}@{}", accepted.client, self.realm)],
        };
        Ok(self.ca.issue_certificate(
            subject,
            public_key.clone(),
            gridsec_pki::cert::Validity {
                not_before: now,
                not_after: (now + self.cert_lifetime).min(accepted.end_time.max(now)),
            },
            extensions,
        ))
    }
}

/// A [`CredentialSource`] backed by a Kerberos login + the KCA — the
/// client half of Figure 3 step 2. It shares the realm's KDC and KCA with
/// the scenario that registers principals there (and with every other
/// source of that realm) through `Rc` handles, which also satisfies the
/// `'static` bound `OgsaClient` places on sources.
pub struct KcaCredentialSource {
    kdc: Rc<Kdc>,
    kca: Rc<KerberosCa>,
    client: KrbClient,
    key_bits: usize,
    rng: gridsec_crypto::rng::ChaChaRng,
    cached: Option<(u64, Credential)>,
}

impl KcaCredentialSource {
    /// Create a source for a Kerberos user (`principal`/`password`).
    pub fn new(
        kdc: Rc<Kdc>,
        kca: Rc<KerberosCa>,
        principal: &str,
        password: &str,
        key_bits: usize,
        rng_seed: &[u8],
    ) -> Self {
        let client = KrbClient::from_password(principal, kdc.realm(), password);
        KcaCredentialSource {
            kdc,
            kca,
            client,
            key_bits,
            rng: gridsec_crypto::rng::ChaChaRng::from_seed_bytes(rng_seed),
            cached: None,
        }
    }

    fn convert_now(&mut self, now: u64) -> Result<Credential, OgsaError> {
        let fail = |stage: &str, e: KrbError| {
            OgsaError::Application(format!("KCA conversion failed at {stage}: {e}"))
        };
        // Kerberos login: AS then TGS for kca/grid.
        let tgt_reply = self
            .kdc
            .as_exchange(&mut self.rng, &self.client.principal, now, 36_000)
            .map_err(|e| fail("AS", e))?;
        let (tgt, tgt_part) = self
            .client
            .open_tgt_reply(&tgt_reply)
            .map_err(|e| fail("AS-open", e))?;
        let auth = self
            .client
            .make_authenticator(&mut self.rng, &tgt_part.session_key, now);
        let st = self
            .kdc
            .tgs_exchange(&mut self.rng, &tgt, &auth, KCA_SERVICE, now, 3600)
            .map_err(|e| fail("TGS", e))?;
        let st_part = self
            .client
            .open_service_reply(&tgt_part.session_key, &st)
            .map_err(|e| fail("TGS-open", e))?;

        // Local key pair; KCA certifies the public half.
        let key = RsaKeyPair::generate(&mut self.rng, self.key_bits);
        let ap_auth = self
            .client
            .make_authenticator(&mut self.rng, &st_part.session_key, now);
        let cert = self
            .kca
            .convert(&st.ticket, &ap_auth, key.public(), now)
            .map_err(|e| fail("convert", e))?;
        Ok(Credential::new(
            vec![cert, self.kca.certificate().clone()],
            key,
        ))
    }
}

impl CredentialSource for KcaCredentialSource {
    fn token_type(&self) -> &str {
        "kerberos-ticket"
    }

    fn obtain(&mut self, now: u64) -> Result<Credential, OgsaError> {
        if let Some((t, cred)) = &self.cached {
            if *t == now {
                return Ok(cred.clone());
            }
        }
        let cred = self.convert_now(now)?;
        self.cached = Some((now, cred.clone()));
        Ok(cred)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsec_crypto::rng::ChaChaRng;
    use gridsec_ogsa::client::CredentialSource;
    use gridsec_pki::store::TrustStore;
    use gridsec_pki::validate::validate_chain;

    struct World {
        rng: ChaChaRng,
        kdc: Rc<Kdc>,
        kca: Rc<KerberosCa>,
    }

    fn world() -> World {
        let mut rng = ChaChaRng::from_seed_bytes(b"kca tests");
        let kdc = Kdc::new(&mut rng, "SITE.A", 36_000);
        kdc.add_principal("alice", "pw");
        let kca = KerberosCa::new(&mut rng, &kdc, 512, 1_000_000, 43_200);
        World {
            rng,
            kdc: Rc::new(kdc),
            kca: Rc::new(kca),
        }
    }

    #[test]
    fn kerberos_user_becomes_grid_identity() {
        let w = world();
        let mut source = KcaCredentialSource::new(
            w.kdc.clone(),
            w.kca.clone(),
            "alice",
            "pw",
            512,
            b"alice rng",
        );
        let cred = source.obtain(100).unwrap();
        assert_eq!(cred.subject().to_string(), "/O=KCA SITE.A/CN=alice");

        // A grid relying party that unilaterally trusts this KCA can
        // validate the credential.
        let mut trust = TrustStore::new();
        trust.add_root(w.kca.certificate().clone());
        let id = validate_chain(cred.chain(), &trust, 200).unwrap();
        assert_eq!(id.base_identity.to_string(), "/O=KCA SITE.A/CN=alice");
    }

    #[test]
    fn issued_certs_are_short_lived() {
        let w = world();
        let mut source = KcaCredentialSource::new(
            w.kdc.clone(),
            w.kca.clone(),
            "alice",
            "pw",
            512,
            b"alice rng",
        );
        let cred = source.obtain(100).unwrap();
        let v = cred.certificate().body().validity;
        assert_eq!(v.not_before, 100);
        assert!(v.not_after <= 100 + 43_200);
    }

    #[test]
    fn wrong_password_fails_conversion() {
        let w = world();
        let mut source = KcaCredentialSource::new(
            w.kdc.clone(),
            w.kca.clone(),
            "alice",
            "WRONG",
            512,
            b"alice rng",
        );
        assert!(matches!(source.obtain(100), Err(OgsaError::Application(_))));
    }

    #[test]
    fn unknown_principal_fails() {
        let w = world();
        let mut source =
            KcaCredentialSource::new(w.kdc.clone(), w.kca.clone(), "mallory", "pw", 512, b"m rng");
        assert!(source.obtain(100).is_err());
    }

    #[test]
    fn stolen_ticket_without_key_fails_at_kca() {
        let mut w = world();
        // Get a legit ticket for the KCA.
        let client = KrbClient::from_password("alice", "SITE.A", "pw");
        let tgt_reply = w.kdc.as_exchange(&mut w.rng, "alice", 100, 1000).unwrap();
        let (tgt, part) = client.open_tgt_reply(&tgt_reply).unwrap();
        let auth = client.make_authenticator(&mut w.rng, &part.session_key, 100);
        let st = w
            .kdc
            .tgs_exchange(&mut w.rng, &tgt, &auth, KCA_SERVICE, 100, 1000)
            .unwrap();
        // Attacker has the ticket but not the session key: authenticator
        // under a guessed key is rejected.
        let bad_auth = client.make_authenticator(&mut w.rng, &[0u8; 32], 100);
        let key = RsaKeyPair::generate(&mut w.rng, 512);
        assert!(w
            .kca
            .convert(&st.ticket, &bad_auth, key.public(), 100)
            .is_err());
    }

    #[test]
    fn token_type_is_kerberos() {
        let w = world();
        let source =
            KcaCredentialSource::new(w.kdc.clone(), w.kca.clone(), "alice", "pw", 512, b"rng");
        assert_eq!(source.token_type(), "kerberos-ticket");
    }
}
