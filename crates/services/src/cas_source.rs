//! CAS as a credential-conversion service (paper §4.5 step 2): "CAS, for
//! translating the user's personal credential to a VO credential".
//!
//! The translation is concrete: the user asks their VO's CAS for a signed
//! rights assertion, then self-issues a **restricted proxy** whose
//! RFC 3820 policy field carries the serialized assertion. The identity
//! *and* the rights travel in one credential: every relying party's
//! [`ResourceGate::permits`](gridsec_authz::cas::ResourceGate::permits)
//! reads the assertion from the validated chain and refuses what it does
//! not grant.

use gridsec_authz::cas::CasServer;
use gridsec_crypto::rng::ChaChaRng;
use gridsec_ogsa::client::CredentialSource;
use gridsec_ogsa::OgsaError;
use gridsec_pki::credential::Credential;
use gridsec_pki::proxy::issue_proxy;

/// A [`CredentialSource`] producing VO credentials: personal credential +
/// CAS assertion → restricted proxy.
pub struct CasCredentialSource<'a> {
    cas: &'a CasServer,
    personal: Credential,
    proxy_key_bits: usize,
    proxy_lifetime: u64,
    rng: ChaChaRng,
}

impl<'a> CasCredentialSource<'a> {
    /// Create a source for a user with a personal credential.
    pub fn new(
        cas: &'a CasServer,
        personal: Credential,
        proxy_key_bits: usize,
        proxy_lifetime: u64,
        rng_seed: &[u8],
    ) -> Self {
        CasCredentialSource {
            cas,
            personal,
            proxy_key_bits,
            proxy_lifetime,
            rng: ChaChaRng::from_seed_bytes(rng_seed),
        }
    }

    /// The step-1 exchange plus proxy embedding, explicitly.
    pub fn vo_credential(&mut self, now: u64) -> Result<Credential, OgsaError> {
        let assertion = self
            .cas
            .issue_assertion(self.personal.base_identity(), now)
            .ok_or_else(|| {
                OgsaError::Application(format!(
                    "{} is not a member of VO {}",
                    self.personal.base_identity(),
                    self.cas.vo()
                ))
            })?;
        issue_proxy(
            &mut self.rng,
            &self.personal,
            assertion.restriction(),
            self.proxy_key_bits,
            now,
            self.proxy_lifetime,
        )
        .map_err(|e| OgsaError::Application(format!("proxy issuance failed: {e}")))
    }
}

impl CredentialSource for CasCredentialSource<'_> {
    fn token_type(&self) -> &str {
        "cas-assertion"
    }

    fn obtain(&mut self, now: u64) -> Result<Credential, OgsaError> {
        self.vo_credential(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsec_authz::cas::ResourceGate;
    use gridsec_authz::policy::{CombiningAlg, Effect, PolicySet, Rule, SubjectMatch};
    use gridsec_authz::AuthzError;
    use gridsec_pki::ca::CertificateAuthority;
    use gridsec_pki::name::DistinguishedName;
    use gridsec_pki::store::TrustStore;
    use gridsec_pki::validate::validate_chain;

    fn dn(s: &str) -> DistinguishedName {
        DistinguishedName::parse(s).unwrap()
    }

    struct World {
        trust: TrustStore,
        cas: CasServer,
        jane: Credential,
    }

    fn world() -> World {
        let mut rng = ChaChaRng::from_seed_bytes(b"cas source tests");
        let ca = CertificateAuthority::create_root(&mut rng, dn("/O=G/CN=CA"), 512, 0, 1_000_000);
        let jane = ca.issue_identity(&mut rng, dn("/O=G/CN=Jane"), 512, 0, 500_000);
        let cas_cred = ca.issue_identity(&mut rng, dn("/O=G/CN=CAS"), 512, 0, 500_000);
        let cas = CasServer::new("physics-vo", cas_cred, 3600);
        cas.enroll(&dn("/O=G/CN=Jane"), vec![]);
        cas.add_rule(Rule::new(
            SubjectMatch::Exact("/O=G/CN=Jane".to_string()),
            "/detector/*",
            "read",
            Effect::Permit,
        ));
        let mut trust = TrustStore::new();
        trust.add_root(ca.certificate().clone());
        World { trust, cas, jane }
    }

    /// A relying party's gate: the VO may read detector data.
    fn gate(w: &World) -> ResourceGate {
        let mut local = PolicySet::new(CombiningAlg::DenyOverrides);
        local.add(Rule::new(
            SubjectMatch::Exact("vo:physics-vo".to_string()),
            "/detector/*",
            "read",
            Effect::Permit,
        ));
        let mut gate = ResourceGate::new(local);
        gate.trust_cas("physics-vo", w.cas.public_key().clone());
        gate
    }

    #[test]
    fn vo_credential_carries_assertion_through_validation() {
        let w = world();
        let mut source = CasCredentialSource::new(&w.cas, w.jane.clone(), 512, 3600, b"jane rng");
        let vo_cred = source.obtain(100).unwrap();
        assert_eq!(vo_cred.proxy_depth(), 1);

        // A relying party validates the chain; the assertion rides in it,
        // so a gate that trusts this CAS honours it and one that does not
        // refuses it.
        let id = validate_chain(vo_cred.chain(), &w.trust, 200).unwrap();
        assert_eq!(id.base_identity, dn("/O=G/CN=Jane"));
        assert_eq!(gate(&w).permits(&id, "/detector/run1", "read", 200), Ok(()));
        let mut untrusting = gate(&w);
        untrusting.trust_cas("physics-vo", w.jane.certificate().public_key().clone());
        assert_eq!(
            untrusting.permits(&id, "/detector/run1", "read", 200),
            Err(AuthzError::UntrustedAssertion)
        );
    }

    #[test]
    fn recovered_assertion_drives_resource_gate() {
        let w = world();
        let mut source = CasCredentialSource::new(&w.cas, w.jane.clone(), 512, 3600, b"jane rng");
        let vo_cred = source.obtain(100).unwrap();
        let id = validate_chain(vo_cred.chain(), &w.trust, 200).unwrap();

        let gate = gate(&w);
        assert_eq!(gate.permits(&id, "/detector/run1", "read", 200), Ok(()));
        assert_eq!(
            gate.permits(&id, "/detector/run1", "write", 200),
            Err(AuthzError::NotGranted)
        );
    }

    #[test]
    fn non_member_cannot_obtain_vo_credential() {
        let w = world();
        let mut rng = ChaChaRng::from_seed_bytes(b"eve");
        let ca2 = CertificateAuthority::create_root(&mut rng, dn("/O=G2/CN=CA"), 512, 0, 1000);
        let eve = ca2.issue_identity(&mut rng, dn("/O=G2/CN=Eve"), 512, 0, 1000);
        let mut source = CasCredentialSource::new(&w.cas, eve, 512, 3600, b"eve rng");
        assert!(matches!(source.obtain(100), Err(OgsaError::Application(_))));
    }

    #[test]
    fn token_type() {
        let w = world();
        let source = CasCredentialSource::new(&w.cas, w.jane.clone(), 512, 3600, b"rng");
        assert_eq!(source.token_type(), "cas-assertion");
    }
}
