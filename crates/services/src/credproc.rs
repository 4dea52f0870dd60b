//! The credential processing service (paper §4.1): "handles the details
//! of processing and validating authentication tokens" — the XKMS-shaped
//! token validation service of Figure 3 steps 3–4.
//!
//! Hosting environments *can* validate chains locally (and do, in the
//! fast path); this service exists so that validation can also be
//! outsourced, exactly as the paper envisions, and is used by the F3
//! benchmark to measure the outsourced variant.

use gridsec_ogsa::service::{GridService, RequestContext};
use gridsec_ogsa::OgsaError;
use gridsec_pki::store::{CrlStore, TrustStore};
use gridsec_pki::validate::{validate_chain_with_crls, EffectiveRights};
use gridsec_wsse::xmlsig::decode_chain;
use gridsec_xml::Element;

/// Token validation as a hostable Grid service. Operation `validate`
/// takes a base64 chain (the BinarySecurityToken format) and returns the
/// validated identity attributes, each restriction's policy language
/// included, or a fault.
pub struct CredentialProcessingService {
    trust: TrustStore,
    crls: CrlStore,
}

impl CredentialProcessingService {
    /// Create with the trust anchors this validator accepts.
    pub fn new(trust: TrustStore, crls: CrlStore) -> Self {
        CredentialProcessingService { trust, crls }
    }
}

impl GridService for CredentialProcessingService {
    fn service_type(&self) -> &str {
        "credential-processing"
    }

    fn invoke(
        &mut self,
        ctx: &RequestContext,
        operation: &str,
        payload: &Element,
    ) -> Result<Element, OgsaError> {
        match operation {
            "validate" => {
                let chain = decode_chain(&payload.text_content())
                    .map_err(|e| OgsaError::Application(format!("bad token: {e}")))?;
                match validate_chain_with_crls(&chain, &self.trust, &self.crls, ctx.now) {
                    Ok(id) => Ok(Element::new("credproc:Identity")
                        .with_attr("subject", id.subject.to_string())
                        .with_attr("base", id.base_identity.to_string())
                        .with_attr("proxyDepth", id.proxy_depth.to_string())
                        .with_attr(
                            "rights",
                            match id.rights {
                                EffectiveRights::Full => "full",
                                EffectiveRights::Limited => "limited",
                                EffectiveRights::Independent => "independent",
                            },
                        )
                        .with_attr(
                            "restrictions",
                            id.restriction_languages().collect::<Vec<_>>().join(" "),
                        )),
                    Err(e) => Ok(Element::new("credproc:Invalid").with_text(e.to_string())),
                }
            }
            other => Err(OgsaError::Application(format!("unknown op {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsec_authz::cas::CasServer;
    use gridsec_crypto::rng::ChaChaRng;
    use gridsec_pki::ca::CertificateAuthority;
    use gridsec_pki::name::DistinguishedName;
    use gridsec_pki::proxy::{issue_proxy, ProxyType};
    use gridsec_pki::validate::validate_chain;
    use gridsec_wsse::xmlsig::encode_chain;

    fn dn(s: &str) -> DistinguishedName {
        DistinguishedName::parse(s).unwrap()
    }

    fn setup() -> (
        ChaChaRng,
        CertificateAuthority,
        TrustStore,
        CredentialProcessingService,
        RequestContext,
    ) {
        let mut rng = ChaChaRng::from_seed_bytes(b"credproc tests");
        let ca = CertificateAuthority::create_root(&mut rng, dn("/O=G/CN=CA"), 512, 0, 1_000_000);
        let mut trust = TrustStore::new();
        trust.add_root(ca.certificate().clone());
        let svc = CredentialProcessingService::new(trust.clone(), CrlStore::new());
        let caller = ca.issue_identity(&mut rng, dn("/O=G/CN=Host"), 512, 0, 1_000_000);
        let ctx = RequestContext {
            caller: validate_chain(caller.chain(), &trust, 100).unwrap(),
            now: 100,
            handle: "gsh:credproc".to_string(),
        };
        (rng, ca, trust, svc, ctx)
    }

    #[test]
    fn validates_good_proxy_chain() {
        let (mut rng, ca, _trust, mut svc, ctx) = setup();
        let user = ca.issue_identity(&mut rng, dn("/O=G/CN=Jane"), 512, 0, 500_000);
        let proxy = issue_proxy(&mut rng, &user, ProxyType::Limited, 512, 50, 10_000).unwrap();
        let token = encode_chain(&proxy);
        let result = svc
            .invoke(&ctx, "validate", &Element::new("t").with_text(token))
            .unwrap();
        assert_eq!(result.name, "credproc:Identity");
        assert_eq!(result.attr("base"), Some("/O=G/CN=Jane"));
        assert_eq!(result.attr("proxyDepth"), Some("1"));
        assert_eq!(result.attr("rights"), Some("limited"));
    }

    #[test]
    fn reports_restriction_languages_of_a_restricted_chain() {
        let (mut rng, ca, _trust, mut svc, ctx) = setup();
        let user = ca.issue_identity(&mut rng, dn("/O=G/CN=Jane"), 512, 0, 500_000);
        let cas = ca.issue_identity(&mut rng, dn("/O=G/CN=CAS"), 512, 0, 500_000);
        let vo = CasServer::new("physics-vo", cas, 3600);
        vo.enroll(user.base_identity(), vec![]);
        let assertion = vo.issue_assertion(user.base_identity(), 50).unwrap();
        let proxy = issue_proxy(&mut rng, &user, assertion.restriction(), 512, 50, 10_000).unwrap();
        let token = encode_chain(&proxy);
        let result = svc
            .invoke(&ctx, "validate", &Element::new("t").with_text(token))
            .unwrap();
        assert_eq!(result.attr("rights"), Some("full"));
        assert_eq!(result.attr("restrictions"), Some("cas-rights-v1"));
        // An unrestricted chain names none.
        let token = encode_chain(&user);
        let result = svc
            .invoke(&ctx, "validate", &Element::new("t").with_text(token))
            .unwrap();
        assert_eq!(result.attr("rights"), Some("full"));
        assert_eq!(result.attr("restrictions"), Some(""));
    }

    #[test]
    fn reports_invalid_for_untrusted_chain() {
        let (mut rng, _ca, _trust, mut svc, ctx) = setup();
        let rogue = CertificateAuthority::create_root(&mut rng, dn("/O=Evil/CN=CA"), 512, 0, 1000);
        let fake = rogue.issue_identity(&mut rng, dn("/O=G/CN=Jane"), 512, 0, 1000);
        let token = encode_chain(&fake);
        let result = svc
            .invoke(&ctx, "validate", &Element::new("t").with_text(token))
            .unwrap();
        assert_eq!(result.name, "credproc:Invalid");
    }

    #[test]
    fn garbage_token_is_application_error() {
        let (_rng, _ca, _trust, mut svc, ctx) = setup();
        assert!(svc
            .invoke(&ctx, "validate", &Element::new("t").with_text("!!!"))
            .is_err());
    }
}
