//! The Community Authorization Service (paper §3, Figure 2; Pearlman et
//! al., ref 26).
//!
//! Three-step flow, reproduced exactly:
//!
//! 1. A user authenticates to the [`CasServer`] and receives a signed
//!    [`CasAssertion`] enumerating the rights the VO grants them.
//! 2. The user presents the assertion to a resource alongside the
//!    request.
//! 3. The resource's [`ResourceGate`] checks **both** its local policy
//!    (does the VO get to use this resource at all? does the local admin
//!    forbid this specific thing?) and the VO policy in the assertion.
//!    "CAS allows a resource to remain the ultimate authority over that
//!    resource."

use crate::policy::{CombiningAlg, Decision, Pattern, PolicySet, Request};
use crate::AuthzError;
use gridsec_crypto::rsa::RsaPublicKey;
use gridsec_pki::credential::Credential;
use gridsec_pki::encoding::{Codec, Decoder, Encoder};
use gridsec_pki::name::DistinguishedName;
use gridsec_pki::PkiError;
use std::cell::RefCell;
use std::collections::HashMap;

/// A right granted by the VO: (resource pattern, action pattern).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Right {
    /// Resource pattern string (`*`, `prefix*`, or exact).
    pub resource: String,
    /// Action pattern string.
    pub action: String,
}

impl Right {
    /// Does this right cover the concrete (resource, action)?
    pub fn covers(&self, resource: &str, action: &str) -> bool {
        Pattern::parse(&self.resource).matches(resource)
            && Pattern::parse(&self.action).matches(action)
    }
}

/// The signed content of a CAS assertion (SAML-attribute-assertion in
/// spirit).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CasAssertionTbs {
    /// Name of the issuing VO.
    pub vo: String,
    /// The user the rights are granted to (base identity).
    pub subject: DistinguishedName,
    /// Granted rights.
    pub rights: Vec<Right>,
    /// Start of validity.
    pub not_before: u64,
    /// End of validity.
    pub not_after: u64,
}

impl Codec for CasAssertionTbs {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(&self.vo);
        self.subject.encode(enc);
        enc.put_seq(&self.rights, |e, r| {
            e.put_str(&r.resource).put_str(&r.action);
        });
        enc.put_u64(self.not_before).put_u64(self.not_after);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, PkiError> {
        Ok(CasAssertionTbs {
            vo: dec.get_str()?,
            subject: DistinguishedName::decode(dec)?,
            rights: dec.get_seq(|d| {
                Ok(Right {
                    resource: d.get_str()?,
                    action: d.get_str()?,
                })
            })?,
            not_before: dec.get_u64()?,
            not_after: dec.get_u64()?,
        })
    }
}

/// A signed CAS assertion.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CasAssertion {
    /// Signed content.
    pub tbs: CasAssertionTbs,
    /// CAS signature over the encoded TBS.
    pub signature: Vec<u8>,
}

impl Codec for CasAssertion {
    fn encode(&self, enc: &mut Encoder) {
        self.tbs.encode(enc);
        enc.put_bytes(&self.signature);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, PkiError> {
        Ok(CasAssertion {
            tbs: CasAssertionTbs::decode(dec)?,
            signature: dec.get_bytes()?,
        })
    }
}

impl CasAssertion {
    /// Verify the issuer signature.
    pub fn verify(&self, cas_key: &RsaPublicKey) -> bool {
        cas_key.verify_pkcs1_sha256(&self.tbs.to_bytes(), &self.signature)
    }
}

/// The CAS server: VO membership, outsourced policy, assertion issuance.
pub struct CasServer {
    vo: String,
    credential: Credential,
    /// user base identity → group tags.
    membership: RefCell<HashMap<String, Vec<String>>>,
    /// The VO's policy over its users and groups.
    policy: RefCell<PolicySet>,
    /// Default assertion lifetime.
    assertion_lifetime: u64,
}

impl CasServer {
    /// Create a CAS server for a VO, signing with `credential`.
    pub fn new(vo: &str, credential: Credential, assertion_lifetime: u64) -> Self {
        CasServer {
            vo: vo.to_string(),
            credential,
            membership: RefCell::new(HashMap::new()),
            policy: RefCell::new(PolicySet::new(CombiningAlg::DenyOverrides)),
            assertion_lifetime,
        }
    }

    /// The VO name.
    pub fn vo(&self) -> &str {
        &self.vo
    }

    /// The CAS public key (resources pin this).
    pub fn public_key(&self) -> &RsaPublicKey {
        self.credential.certificate().public_key()
    }

    /// Enroll a user with group tags.
    pub fn enroll(&self, user: &DistinguishedName, groups: Vec<String>) {
        self.membership
            .borrow_mut()
            .insert(user.to_string(), groups);
    }

    /// Add a VO policy rule.
    pub fn add_rule(&self, rule: crate::policy::Rule) {
        self.policy.borrow_mut().add(rule);
    }

    /// Number of enrolled users.
    pub fn member_count(&self) -> usize {
        self.membership.borrow().len()
    }

    /// Step 1 of Figure 2: issue an assertion to an authenticated user.
    /// Returns `None` if the user is not a VO member.
    pub fn issue_assertion(&self, user: &DistinguishedName, now: u64) -> Option<CasAssertion> {
        let membership = self.membership.borrow();
        let groups = membership.get(&user.to_string())?;
        let rights: Vec<Right> = self
            .policy
            .borrow()
            .permitted_rights(&user.to_string(), groups)
            .into_iter()
            .map(|(resource, action)| Right { resource, action })
            .collect();
        let tbs = CasAssertionTbs {
            vo: self.vo.clone(),
            subject: user.clone(),
            rights,
            not_before: now,
            not_after: now + self.assertion_lifetime,
        };
        let signature = self.credential.sign(&tbs.to_bytes());
        Some(CasAssertion { tbs, signature })
    }
}

/// The resource-side enforcement point (Figure 2 step 3).
pub struct ResourceGate {
    /// Local policy — the resource remains the ultimate authority.
    pub local_policy: PolicySet,
    /// Trusted CAS servers: VO name → CAS public key.
    trusted_cas: HashMap<String, RsaPublicKey>,
}

impl ResourceGate {
    /// Create a gate with a local policy.
    pub fn new(local_policy: PolicySet) -> Self {
        ResourceGate {
            local_policy,
            trusted_cas: HashMap::new(),
        }
    }

    /// Outsource policy to a VO: trust its CAS key. This is the
    /// "resource providers outsource policy control to the VO" step.
    pub fn trust_cas(&mut self, vo: &str, key: RsaPublicKey) {
        self.trusted_cas.insert(vo.to_string(), key);
    }

    /// Authorize a direct (no CAS) request under local policy only.
    pub fn authorize_direct(
        &self,
        subject: &DistinguishedName,
        resource: &str,
        action: &str,
    ) -> Decision {
        self.local_policy
            .evaluate(&Request::new(&subject.to_string(), resource, action))
    }

    /// Authorize a CAS-mediated request: the presenter shows an assertion
    /// with their rights. The decision is the *intersection*: the VO must
    /// grant the right AND local policy must permit the VO's use of the
    /// resource (subject `vo:<name>`), with local denies overriding.
    pub fn authorize_with_cas(
        &self,
        assertion: &CasAssertion,
        presenter: &DistinguishedName,
        resource: &str,
        action: &str,
        now: u64,
    ) -> Result<Decision, AuthzError> {
        // Assertion authenticity.
        let key = self
            .trusted_cas
            .get(&assertion.tbs.vo)
            .ok_or(AuthzError::UntrustedAssertion)?;
        if !assertion.verify(key) {
            return Err(AuthzError::UntrustedAssertion);
        }
        // Freshness.
        if now < assertion.tbs.not_before || now > assertion.tbs.not_after {
            return Err(AuthzError::AssertionExpired {
                now,
                not_after: assertion.tbs.not_after,
            });
        }
        // Binding to the presenter.
        if assertion.tbs.subject != *presenter {
            return Err(AuthzError::SubjectMismatch {
                assertion_subject: assertion.tbs.subject.to_string(),
                presenter: presenter.to_string(),
            });
        }
        // VO policy: does the assertion grant this right?
        let vo_grants = assertion
            .tbs
            .rights
            .iter()
            .any(|r| r.covers(resource, action));
        if !vo_grants {
            return Ok(Decision::Deny);
        }
        // Local policy: the request is evaluated as the VO (the resource
        // outsourced this slice of policy to the VO) with the user's own
        // identity as a tag so user-specific local denies still bite.
        let req = Request::new(&format!("vo:{}", assertion.tbs.vo), resource, action)
            .with_tag(&presenter.to_string());
        Ok(self.local_policy.evaluate(&req))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Effect, Rule, SubjectMatch};
    use gridsec_crypto::rng::ChaChaRng;
    use gridsec_pki::ca::CertificateAuthority;

    fn dn(s: &str) -> DistinguishedName {
        DistinguishedName::parse(s).unwrap()
    }

    struct World {
        cas: CasServer,
        gate: ResourceGate,
    }

    fn world() -> World {
        let mut rng = ChaChaRng::from_seed_bytes(b"cas tests");
        let ca = CertificateAuthority::create_root(&mut rng, dn("/O=G/CN=CA"), 512, 0, 1_000_000);
        let cas_cred = ca.issue_identity(&mut rng, dn("/O=G/CN=CAS physics-vo"), 512, 0, 1_000_000);
        let cas = CasServer::new("physics-vo", cas_cred, 3600);

        // VO membership + outsourced policy.
        cas.enroll(&dn("/O=G/CN=Jane"), vec!["group:analysts".to_string()]);
        cas.enroll(&dn("/O=G/CN=Carl"), vec![]);
        cas.add_rule(Rule::new(
            SubjectMatch::Exact("group:analysts".to_string()),
            "/detector/*",
            "read",
            Effect::Permit,
        ));
        cas.add_rule(Rule::new(
            SubjectMatch::Exact("/O=G/CN=Carl".to_string()),
            "/detector/run1",
            "read",
            Effect::Permit,
        ));

        // Resource: local policy lets the VO read detector data, but the
        // local admin has blacklisted a particular dataset and a user.
        let mut local = PolicySet::new(CombiningAlg::DenyOverrides);
        local.add(Rule::new(
            SubjectMatch::Exact("vo:physics-vo".to_string()),
            "/detector/*",
            "read",
            Effect::Permit,
        ));
        local.add(Rule::new(
            SubjectMatch::Exact("vo:physics-vo".to_string()),
            "/detector/embargoed",
            "*",
            Effect::Deny,
        ));
        local.add(Rule::new(
            SubjectMatch::Exact("/O=G/CN=Banned".to_string()),
            "*",
            "*",
            Effect::Deny,
        ));
        let mut gate = ResourceGate::new(local);
        gate.trust_cas("physics-vo", cas.public_key().clone());
        World { cas, gate }
    }

    #[test]
    fn figure2_full_flow() {
        let w = world();
        // Step 1: Jane gets an assertion.
        let assertion = w.cas.issue_assertion(&dn("/O=G/CN=Jane"), 100).unwrap();
        assert!(assertion.verify(w.cas.public_key()));
        assert_eq!(assertion.tbs.vo, "physics-vo");
        // Steps 2-3: present to the resource.
        let d = w
            .gate
            .authorize_with_cas(
                &assertion,
                &dn("/O=G/CN=Jane"),
                "/detector/run7",
                "read",
                200,
            )
            .unwrap();
        assert_eq!(d, Decision::Permit);
    }

    #[test]
    fn vo_policy_limits_rights() {
        let w = world();
        let assertion = w.cas.issue_assertion(&dn("/O=G/CN=Jane"), 100).unwrap();
        // VO granted read, not write.
        let d = w
            .gate
            .authorize_with_cas(
                &assertion,
                &dn("/O=G/CN=Jane"),
                "/detector/run7",
                "write",
                200,
            )
            .unwrap();
        assert_eq!(d, Decision::Deny);
    }

    #[test]
    fn local_policy_overrides_vo_grant() {
        let w = world();
        // Give the VO a rule that *would* grant the embargoed dataset.
        w.cas.add_rule(Rule::new(
            SubjectMatch::Exact("group:analysts".to_string()),
            "/detector/embargoed",
            "read",
            Effect::Permit,
        ));
        let assertion = w.cas.issue_assertion(&dn("/O=G/CN=Jane"), 100).unwrap();
        let d = w
            .gate
            .authorize_with_cas(
                &assertion,
                &dn("/O=G/CN=Jane"),
                "/detector/embargoed",
                "read",
                200,
            )
            .unwrap();
        // Resource remains the ultimate authority.
        assert_eq!(d, Decision::Deny);
    }

    #[test]
    fn non_member_gets_no_assertion() {
        let w = world();
        assert!(w
            .cas
            .issue_assertion(&dn("/O=G/CN=Stranger"), 100)
            .is_none());
        assert_eq!(w.cas.member_count(), 2);
    }

    #[test]
    fn stolen_assertion_unusable_by_other_subject() {
        let w = world();
        let assertion = w.cas.issue_assertion(&dn("/O=G/CN=Jane"), 100).unwrap();
        let err = w
            .gate
            .authorize_with_cas(
                &assertion,
                &dn("/O=G/CN=Eve"),
                "/detector/run7",
                "read",
                200,
            )
            .unwrap_err();
        assert!(matches!(err, AuthzError::SubjectMismatch { .. }));
    }

    #[test]
    fn expired_assertion_rejected() {
        let w = world();
        let assertion = w.cas.issue_assertion(&dn("/O=G/CN=Jane"), 100).unwrap();
        let err = w
            .gate
            .authorize_with_cas(
                &assertion,
                &dn("/O=G/CN=Jane"),
                "/detector/run7",
                "read",
                10_000,
            )
            .unwrap_err();
        assert!(matches!(err, AuthzError::AssertionExpired { .. }));
    }

    #[test]
    fn forged_assertion_rejected() {
        let w = world();
        let mut assertion = w.cas.issue_assertion(&dn("/O=G/CN=Jane"), 100).unwrap();
        assertion.tbs.rights.push(Right {
            resource: "*".to_string(),
            action: "*".to_string(),
        });
        let err = w
            .gate
            .authorize_with_cas(&assertion, &dn("/O=G/CN=Jane"), "/anything", "write", 200)
            .unwrap_err();
        assert_eq!(err, AuthzError::UntrustedAssertion);
    }

    #[test]
    fn assertion_from_unknown_vo_rejected() {
        let mut rng = ChaChaRng::from_seed_bytes(b"other vo");
        let ca = CertificateAuthority::create_root(&mut rng, dn("/O=X/CN=CA"), 512, 0, 1000);
        let rogue_cred = ca.issue_identity(&mut rng, dn("/O=X/CN=CAS"), 512, 0, 1000);
        let rogue = CasServer::new("rogue-vo", rogue_cred, 3600);
        rogue.enroll(&dn("/O=G/CN=Jane"), vec![]);
        rogue.add_rule(Rule::new(SubjectMatch::Any, "*", "*", Effect::Permit));
        let assertion = rogue.issue_assertion(&dn("/O=G/CN=Jane"), 100).unwrap();

        let w = world();
        let err = w
            .gate
            .authorize_with_cas(
                &assertion,
                &dn("/O=G/CN=Jane"),
                "/detector/run7",
                "read",
                200,
            )
            .unwrap_err();
        assert_eq!(err, AuthzError::UntrustedAssertion);
    }

    #[test]
    fn assertion_codec_roundtrip() {
        let w = world();
        let assertion = w.cas.issue_assertion(&dn("/O=G/CN=Jane"), 100).unwrap();
        let decoded = CasAssertion::from_bytes(&assertion.to_bytes()).unwrap();
        assert_eq!(decoded, assertion);
        assert!(decoded.verify(w.cas.public_key()));
    }

    #[test]
    fn direct_local_authorization() {
        let w = world();
        // No VO involvement: local policy alone, which has no rule for
        // individual users on the detector → NotApplicable.
        assert_eq!(
            w.gate
                .authorize_direct(&dn("/O=G/CN=Jane"), "/detector/run7", "read"),
            Decision::NotApplicable
        );
    }

    #[test]
    fn per_user_local_deny_bites_through_cas() {
        let mut w = world();
        w.cas
            .enroll(&dn("/O=G/CN=Banned"), vec!["group:analysts".to_string()]);
        let assertion = w.cas.issue_assertion(&dn("/O=G/CN=Banned"), 100).unwrap();
        let d = w
            .gate
            .authorize_with_cas(
                &assertion,
                &dn("/O=G/CN=Banned"),
                "/detector/run7",
                "read",
                200,
            )
            .unwrap();
        assert_eq!(d, Decision::Deny);
        let _ = &mut w;
    }
}
