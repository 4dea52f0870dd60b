//! The Community Authorization Service (paper §3, Figure 2; Pearlman et
//! al., ref 26).
//!
//! Three-step flow, reproduced exactly:
//!
//! 1. A user authenticates to the [`CasServer`] and receives a signed
//!    [`CasAssertion`] enumerating the rights the VO grants them.
//! 2. The user embeds the assertion in a restricted proxy
//!    (`CAS_POLICY_LANGUAGE`) and presents that chain with the request.
//! 3. The resource's [`ResourceGate::permits`] reads the assertion from
//!    the validated chain and checks **both** its local policy (does the
//!    VO get to use this resource at all? does the local admin forbid
//!    this specific thing?) and the VO policy in the assertion. "CAS
//!    allows a resource to remain the ultimate authority over that
//!    resource."

use crate::policy::{CombiningAlg, Decision, Pattern, PolicySet, Request};
use crate::{AuthzError, START_JOB};
use gridsec_crypto::rsa::{RsaKeyPair, RsaPublicKey};
use gridsec_pki::credential::Credential;
use gridsec_pki::encoding::{Codec, Decoder, Encoder};
use gridsec_pki::name::DistinguishedName;
use gridsec_pki::proxy::ProxyType;
use gridsec_pki::signed::Signed;
use gridsec_pki::validate::{EffectiveRights as Rights, ValidatedIdentity};
use gridsec_pki::PkiError;
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
    pub(crate) fn covers(&self, resource: &str, action: &str) -> bool {
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

/// A signed CAS assertion: the bytes its CAS signed over a
/// [`CasAssertionTbs`] ([`Signed`]). A credential in its holder's hands,
/// not a cache: a later trust or policy change does not recall it, only
/// its lifetime ends it (ROADMAP item 6 measures how long it outlives
/// one).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CasAssertion(Signed<CasAssertionTbs>);

impl Codec for CasAssertion {
    fn encode(&self, enc: &mut Encoder) {
        self.0.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, PkiError> {
        Signed::decode(dec).map(CasAssertion)
    }
}

impl CasAssertion {
    /// Sign `tbs` with the CAS key `key`.
    pub fn sign(tbs: CasAssertionTbs, key: &RsaKeyPair) -> Self {
        CasAssertion(Signed::sign(tbs, key))
    }

    /// The signed content.
    pub fn body(&self) -> &CasAssertionTbs {
        self.0.body()
    }

    /// Verify the issuer signature.
    pub(crate) fn verify(&self, cas_key: &RsaPublicKey) -> bool {
        self.0.verify(cas_key)
    }

    /// The RFC 3820 restriction that carries this assertion in a proxy.
    pub fn restriction(&self) -> ProxyType {
        let (language, policy) = (CAS_POLICY_LANGUAGE.to_string(), self.to_bytes());
        ProxyType::Restricted { language, policy }
    }
}

/// The CAS server: VO membership, outsourced policy, assertion issuance.
pub struct CasServer {
    vo: String,
    credential: Credential,
    /// user base identity → group tags.
    membership: HashMap<String, Vec<String>>,
    /// The VO's policy over its users and groups.
    policy: PolicySet,
    /// Default assertion lifetime.
    assertion_lifetime: u64,
}

impl CasServer {
    /// Create a CAS server for a VO, signing with `credential`.
    pub fn new(vo: &str, credential: Credential, assertion_lifetime: u64) -> Self {
        CasServer {
            vo: vo.to_string(),
            credential,
            membership: HashMap::new(),
            policy: PolicySet::new(CombiningAlg::DenyOverrides),
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
    pub fn enroll(&mut self, user: &DistinguishedName, groups: Vec<String>) {
        self.membership.insert(user.to_string(), groups);
    }

    /// Add a VO policy rule.
    pub fn add_rule(&mut self, rule: crate::policy::Rule) {
        self.policy.add(rule);
    }

    /// Number of enrolled users.
    pub fn member_count(&self) -> usize {
        self.membership.len()
    }

    /// Forget every member and rule: what a process death leaves of the
    /// server (its signing credential is reloaded, not remembered).
    pub(crate) fn forget(&mut self) {
        self.membership.clear();
        self.policy = PolicySet::new(CombiningAlg::DenyOverrides);
    }

    /// Step 1 of Figure 2: issue an assertion to an authenticated user.
    /// Returns `None` if the user is not a VO member.
    pub fn issue_assertion(&self, user: &DistinguishedName, now: u64) -> Option<CasAssertion> {
        let groups = self.membership.get(&user.to_string())?;
        let rights: Vec<Right> = self
            .policy
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
        Some(CasAssertion::sign(tbs, self.credential.key()))
    }
}

/// The RFC 3820 policy-language identifier for embedded CAS assertions.
pub(crate) const CAS_POLICY_LANGUAGE: &str = "cas-rights-v1";

/// The one place a validated chain becomes a yes or no (Figure 2 step 3
/// at every relying party). A gate without local policy leaves local
/// authority to the grid-mapfile and the OS.
#[derive(Clone, Default)]
pub struct ResourceGate {
    /// Local policy — the resource remains the ultimate authority.
    pub local_policy: Option<PolicySet>,
    /// Trusted CAS servers: VO name → CAS public key.
    trusted_cas: HashMap<String, RsaPublicKey>,
}

impl ResourceGate {
    /// Create a gate with a local policy.
    pub fn new(local_policy: PolicySet) -> Self {
        ResourceGate {
            local_policy: Some(local_policy),
            trusted_cas: HashMap::new(),
        }
    }

    /// Outsource policy to a VO: trust its CAS key. This is the
    /// "resource providers outsource policy control to the VO" step.
    pub fn trust_cas(&mut self, vo: &str, key: RsaPublicKey) {
        self.trusted_cas.insert(vo.to_string(), key);
    }

    /// May the holder of `peer` perform `action` on `resource` at `now`?
    /// DESIGN.md §18's four rules, in order, each refusal its own
    /// [`AuthzError`]: (1) an independent proxy is refused; (2) a limited
    /// proxy is refused [`START_JOB`]; (3) every restriction must be a
    /// `CAS_POLICY_LANGUAGE` assertion (RFC 3820: understand or reject)
    /// signed by the CAS trusted for its VO, fresh, issued to the base
    /// identity and covering the request; (4) local policy, if any, must
    /// permit the request as `vo:<name>` tagged with the presenter for
    /// each assertion, else as the base identity. Rules 1–3 allocate
    /// nothing for a chain without restrictions.
    pub fn permits(
        &self,
        peer: &ValidatedIdentity,
        resource: &str,
        action: &str,
        now: u64,
    ) -> Result<(), AuthzError> {
        match peer.rights {
            Rights::Independent => return Err(AuthzError::IndependentProxy),
            Rights::Limited if action == START_JOB => return Err(AuthzError::LimitedProxy),
            _ => {}
        }
        let mut vos = Vec::new();
        for (language, policy) in &peer.restrictions {
            if language != CAS_POLICY_LANGUAGE {
                return Err(AuthzError::UnknownRestriction(language.clone()));
            }
            let assertion = CasAssertion::from_bytes(policy)
                .map_err(|_| AuthzError::Decode("bad assertion bytes"))?;
            let tbs = assertion.body();
            let key = self.trusted_cas.get(&tbs.vo);
            if !key.is_some_and(|key| assertion.verify(key)) {
                return Err(AuthzError::UntrustedAssertion);
            }
            if now < tbs.not_before || now > tbs.not_after {
                let not_after = tbs.not_after;
                return Err(AuthzError::AssertionExpired { now, not_after });
            }
            if tbs.subject != peer.base_identity {
                return Err(AuthzError::SubjectMismatch {
                    assertion_subject: tbs.subject.to_string(),
                    presenter: peer.base_identity.to_string(),
                });
            }
            if !tbs.rights.iter().any(|r| r.covers(resource, action)) {
                return Err(AuthzError::NotGranted);
            }
            vos.push(tbs.vo.clone());
        }
        let Some(local) = &self.local_policy else {
            return Ok(());
        };
        let presenter = peer.base_identity.to_string();
        let permit = |req: Request| local.evaluate(&req) == Decision::Permit;
        let granted = if vos.is_empty() {
            permit(Request::new(&presenter, resource, action))
        } else {
            let as_vo =
                |vo| Request::new(&format!("vo:{vo}"), resource, action).with_tag(&presenter);
            vos.iter().all(|vo| permit(as_vo(vo)))
        };
        granted.then_some(()).ok_or(AuthzError::LocalDeny)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Effect, Rule, SubjectMatch};
    use gridsec_crypto::rng::ChaChaRng;
    use gridsec_pki::ca::CertificateAuthority;
    use gridsec_pki::proxy::issue_proxy;
    use gridsec_pki::store::TrustStore;
    use gridsec_pki::validate::validate_chain;

    fn dn(s: &str) -> DistinguishedName {
        DistinguishedName::parse(s).unwrap()
    }

    struct World {
        rng: ChaChaRng,
        ca: CertificateAuthority,
        trust: TrustStore,
        cas: CasServer,
        gate: ResourceGate,
    }

    impl World {
        /// What a relying party sees at `now` when `user` presents a
        /// proxy of `kind`, or their own certificate given `None`.
        fn presented(
            &mut self,
            user: &str,
            kind: Option<ProxyType>,
            now: u64,
        ) -> ValidatedIdentity {
            let name = dn(&format!("/O=G/CN={user}"));
            let mut cred = self
                .ca
                .issue_identity(&mut self.rng, name, 512, 0, 1_000_000);
            if let Some(kind) = kind {
                cred = issue_proxy(&mut self.rng, &cred, kind, 512, 0, 100_000).unwrap();
            }
            validate_chain(cred.chain(), &self.trust, now).unwrap()
        }

        /// `user` presenting a proxy restricted to `assertion`.
        fn with_assertion(
            &mut self,
            user: &str,
            assertion: &CasAssertion,
            now: u64,
        ) -> ValidatedIdentity {
            self.presented(user, Some(assertion.restriction()), now)
        }
    }

    fn world() -> World {
        let mut rng = ChaChaRng::from_seed_bytes(b"cas tests");
        let ca = CertificateAuthority::create_root(&mut rng, dn("/O=G/CN=CA"), 512, 0, 1_000_000);
        let cas_cred = ca.issue_identity(&mut rng, dn("/O=G/CN=CAS physics-vo"), 512, 0, 1_000_000);
        let mut cas = CasServer::new("physics-vo", cas_cred, 3600);
        let mut trust = TrustStore::new();
        trust.add_root(ca.certificate().clone());

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
        World {
            rng,
            ca,
            trust,
            cas,
            gate,
        }
    }

    #[test]
    fn figure2_full_flow() {
        let mut w = world();
        // Step 1: Jane gets an assertion.
        let assertion = w.cas.issue_assertion(&dn("/O=G/CN=Jane"), 100).unwrap();
        assert!(assertion.verify(w.cas.public_key()));
        assert_eq!(assertion.body().vo, "physics-vo");
        // Steps 2-3: present it, embedded in her proxy, to the resource.
        let jane = w.with_assertion("Jane", &assertion, 200);
        assert_eq!(w.gate.permits(&jane, "/detector/run7", "read", 200), Ok(()));
    }

    #[test]
    fn vo_policy_limits_rights() {
        let mut w = world();
        let assertion = w.cas.issue_assertion(&dn("/O=G/CN=Jane"), 100).unwrap();
        let jane = w.with_assertion("Jane", &assertion, 200);
        // VO granted read, not write.
        assert_eq!(
            w.gate.permits(&jane, "/detector/run7", "write", 200),
            Err(AuthzError::NotGranted)
        );
    }

    #[test]
    fn local_policy_overrides_vo_grant() {
        let mut w = world();
        // Give the VO a rule that *would* grant the embargoed dataset.
        w.cas.add_rule(Rule::new(
            SubjectMatch::Exact("group:analysts".to_string()),
            "/detector/embargoed",
            "read",
            Effect::Permit,
        ));
        let assertion = w.cas.issue_assertion(&dn("/O=G/CN=Jane"), 100).unwrap();
        let jane = w.with_assertion("Jane", &assertion, 200);
        // Resource remains the ultimate authority.
        assert_eq!(
            w.gate.permits(&jane, "/detector/embargoed", "read", 200),
            Err(AuthzError::LocalDeny)
        );
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
        let mut w = world();
        let assertion = w.cas.issue_assertion(&dn("/O=G/CN=Jane"), 100).unwrap();
        let eve = w.with_assertion("Eve", &assertion, 200);
        let err = w
            .gate
            .permits(&eve, "/detector/run7", "read", 200)
            .unwrap_err();
        assert!(matches!(err, AuthzError::SubjectMismatch { .. }));
    }

    #[test]
    fn expired_assertion_rejected() {
        let mut w = world();
        let assertion = w.cas.issue_assertion(&dn("/O=G/CN=Jane"), 100).unwrap();
        let jane = w.with_assertion("Jane", &assertion, 10_000);
        let err = w
            .gate
            .permits(&jane, "/detector/run7", "read", 10_000)
            .unwrap_err();
        assert!(matches!(err, AuthzError::AssertionExpired { .. }));
    }

    #[test]
    fn forged_assertion_rejected() {
        let mut w = world();
        let assertion = w.cas.issue_assertion(&dn("/O=G/CN=Jane"), 100).unwrap();
        // The widened body beside the CAS's signature, as a forger sends it.
        let mut tbs = assertion.body().clone();
        tbs.rights.push(Right {
            resource: "*".to_string(),
            action: "*".to_string(),
        });
        let signed = assertion.to_bytes();
        let signature = &signed[assertion.body().to_bytes().len()..];
        let assertion = CasAssertion::from_bytes(&[tbs.to_bytes(), signature.to_vec()].concat())
            .expect("a forgery decodes");
        let jane = w.with_assertion("Jane", &assertion, 200);
        assert_eq!(
            w.gate.permits(&jane, "/anything", "write", 200),
            Err(AuthzError::UntrustedAssertion)
        );
    }

    #[test]
    fn assertion_from_unknown_vo_rejected() {
        let mut rng = ChaChaRng::from_seed_bytes(b"other vo");
        let ca = CertificateAuthority::create_root(&mut rng, dn("/O=X/CN=CA"), 512, 0, 1000);
        let rogue_cred = ca.issue_identity(&mut rng, dn("/O=X/CN=CAS"), 512, 0, 1000);
        let mut rogue = CasServer::new("rogue-vo", rogue_cred, 3600);
        rogue.enroll(&dn("/O=G/CN=Jane"), vec![]);
        rogue.add_rule(Rule::new(SubjectMatch::Any, "*", "*", Effect::Permit));
        let assertion = rogue.issue_assertion(&dn("/O=G/CN=Jane"), 100).unwrap();

        let mut w = world();
        let jane = w.with_assertion("Jane", &assertion, 200);
        assert_eq!(
            w.gate.permits(&jane, "/detector/run7", "read", 200),
            Err(AuthzError::UntrustedAssertion)
        );
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
        let mut w = world();
        // No VO involvement: local policy alone, which has no rule for
        // individual users on the detector, so Jane's own chain is refused.
        let jane = w.presented("Jane", None, 200);
        assert_eq!(
            w.gate.permits(&jane, "/detector/run7", "read", 200),
            Err(AuthzError::LocalDeny)
        );
        // A gate without local policy leaves that to the grid-mapfile.
        assert_eq!(
            ResourceGate::default().permits(&jane, "/x", "read", 200),
            Ok(())
        );
    }

    #[test]
    fn per_user_local_deny_bites_through_cas() {
        let mut w = world();
        w.cas
            .enroll(&dn("/O=G/CN=Banned"), vec!["group:analysts".to_string()]);
        let assertion = w.cas.issue_assertion(&dn("/O=G/CN=Banned"), 100).unwrap();
        let banned = w.with_assertion("Banned", &assertion, 200);
        assert_eq!(
            w.gate.permits(&banned, "/detector/run7", "read", 200),
            Err(AuthzError::LocalDeny)
        );
    }

    #[test]
    fn proxy_rights_and_unknown_languages_refused_before_local_policy() {
        let mut w = world();
        let open = ResourceGate::default();
        let independent = w.presented("Jane", Some(ProxyType::Independent), 200);
        assert_eq!(
            open.permits(&independent, "/data", "read", 200),
            Err(AuthzError::IndependentProxy)
        );
        let limited = w.presented("Jane", Some(ProxyType::Limited), 200);
        assert_eq!(open.permits(&limited, "/data", "read", 200), Ok(()));
        assert_eq!(
            open.permits(&limited, "/bin/sim", crate::START_JOB, 200),
            Err(AuthzError::LimitedProxy)
        );
        let foreign = ProxyType::Restricted {
            language: "xacml-2.0".to_string(),
            policy: b"<Policy/>".to_vec(),
        };
        let restricted = w.presented("Jane", Some(foreign), 200);
        assert_eq!(
            open.permits(&restricted, "/data", "read", 200),
            Err(AuthzError::UnknownRestriction("xacml-2.0".to_string()))
        );
    }
}
