//! Virtual organizations: the policy-domain overlay of Figure 1.
//!
//! "Multiple resources or organizations outsource certain policy
//! control(s) to a third party, the VO, which coordinates the outsourced
//! policy in a consistent manner." This module builds that overlay over
//! classical domains and counts the trust acts it takes — the basis for
//! experiment F1's unilateral-vs-bilateral comparison:
//!
//! * GSI: every trust decision is **unilateral** (add a CA certificate to
//!   your own store; no other party participates).
//! * Kerberos: inter-realm trust is **bilateral** (both KDC
//!   administrators must install a shared key), so a full mesh of D
//!   domains needs D·(D−1)/2 coordinated agreements.

use gridsec_authz::cas::{CasServer, ResourceGate};
use gridsec_authz::policy::{CombiningAlg, Effect, PolicySet, Rule, SubjectMatch};
use gridsec_bignum::prime::EntropySource;
use gridsec_pki::ca::CertificateAuthority;
use gridsec_pki::credential::Credential;
use gridsec_pki::name::DistinguishedName;
use gridsec_pki::store::TrustStore;

/// A classical organization: its own CA, users, and resource trust.
pub struct ClassicalDomain {
    /// Domain name (e.g. `"anl.gov"`).
    pub name: String,
    /// The domain's certificate authority.
    pub ca: CertificateAuthority,
    /// User credentials issued by this domain.
    pub users: Vec<Credential>,
    /// What this domain's resources trust (starts as just its own CA).
    pub resource_trust: TrustStore,
    /// The domain resource's enforcement gate.
    pub gate: ResourceGate,
}

/// Create a domain with `n_users` enrolled users.
pub fn create_domain<E: EntropySource>(
    rng: &mut E,
    name: &str,
    n_users: usize,
    key_bits: usize,
    validity: u64,
) -> ClassicalDomain {
    let ca_dn = DistinguishedName::parse(&format!("/O={name}/CN=CA")).expect("valid name");
    let ca = CertificateAuthority::create_root(rng, ca_dn, key_bits, 0, validity);
    let users = (0..n_users)
        .map(|i| {
            let dn =
                DistinguishedName::parse(&format!("/O={name}/CN=user{i}")).expect("valid name");
            ca.issue_identity(rng, dn, key_bits, 0, validity)
        })
        .collect();
    let mut resource_trust = TrustStore::new();
    resource_trust.add_root(ca.certificate().clone());
    // Local policy: local users may use local resources; nothing else yet.
    let mut local = PolicySet::new(CombiningAlg::DenyOverrides);
    local.add(Rule::new(
        SubjectMatch::Any,
        &format!("{name}:*"),
        "local-use",
        Effect::Permit,
    ));
    ClassicalDomain {
        name: name.to_string(),
        ca,
        users,
        resource_trust,
        gate: ResourceGate::new(local),
    }
}

/// A formed VO: its CAS, its own trust view, and formation accounting.
pub struct VirtualOrganization {
    /// VO name.
    pub name: String,
    /// The VO's community authorization service.
    pub cas: CasServer,
    /// Trust view of VO-operated services (all member-domain CAs).
    pub trust: TrustStore,
    /// Number of unilateral trust acts performed during formation.
    pub unilateral_acts: u64,
}

/// Form a VO over `domains` (Figure 1): create the VO's CAS, enroll all
/// domain users, and have every domain's resources (a) trust the other
/// domains' CAs and (b) outsource a policy slice to the VO CAS.
///
/// Every single step is unilateral: one administrator editing their own
/// trust store or policy. The returned `unilateral_acts` counts them.
pub fn form_vo<E: EntropySource>(
    rng: &mut E,
    vo_name: &str,
    domains: &mut [ClassicalDomain],
    key_bits: usize,
    validity: u64,
) -> VirtualOrganization {
    let mut acts: u64 = 0;

    // The VO brings its own infrastructure: a CA for the CAS identity.
    let vo_ca = CertificateAuthority::create_root(
        rng,
        DistinguishedName::parse(&format!("/O={vo_name}/CN=VO CA")).expect("valid"),
        key_bits,
        0,
        validity,
    );
    let cas_cred = vo_ca.issue_identity(
        rng,
        DistinguishedName::parse(&format!("/O={vo_name}/CN=CAS")).expect("valid"),
        key_bits,
        0,
        validity,
    );
    let mut cas = CasServer::new(vo_name, cas_cred, 3600);

    // The VO (one admin) decides to trust each member domain's CA, so it
    // can authenticate their users: D unilateral acts.
    let mut vo_trust = TrustStore::new();
    vo_trust.add_root(vo_ca.certificate().clone());
    for d in domains.iter() {
        vo_trust.add_root(d.ca.certificate().clone());
        acts += 1;
    }

    // VO membership: enroll every user of every domain.
    for d in domains.iter() {
        for u in &d.users {
            cas.enroll(u.base_identity(), vec![format!("group:{}", d.name)]);
        }
    }

    // Each domain's resource administrator (unilaterally):
    //   1. trusts the other domains' CAs (so overlay members authenticate),
    //   2. outsources a policy slice to the VO (trusts the CAS key and
    //      permits `vo:<name>` in local policy).
    let snapshot: Vec<_> = domains.iter().map(|d| d.ca.certificate().clone()).collect();
    for (i, d) in domains.iter_mut().enumerate() {
        for (j, cert) in snapshot.iter().enumerate() {
            if i != j {
                d.resource_trust.add_root(cert.clone());
                acts += 1;
            }
        }
        d.gate.trust_cas(vo_name, cas.public_key().clone());
        acts += 1;
        if let Some(local) = &mut d.gate.local_policy {
            local.add(Rule::new(
                SubjectMatch::Exact(format!("vo:{vo_name}")),
                &format!("{}:*", d.name),
                "*",
                Effect::Permit,
            ));
        }
        acts += 1;
    }

    VirtualOrganization {
        name: vo_name.to_string(),
        cas,
        trust: vo_trust,
        unilateral_acts: acts,
    }
}

/// The number of *bilateral* agreements a Kerberos realm mesh needs for
/// the same D domains (each agreement requires both administrators).
pub fn kerberos_bilateral_agreements(domains: usize) -> u64 {
    (domains as u64) * (domains as u64 - 1) / 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsec_authz::AuthzError;
    use gridsec_crypto::rng::ChaChaRng;
    use gridsec_pki::proxy::issue_proxy;
    use gridsec_pki::validate::validate_chain;

    fn domains(rng: &mut ChaChaRng, n: usize) -> Vec<ClassicalDomain> {
        (0..n)
            .map(|i| create_domain(rng, &format!("site{i}"), 2, 512, 1_000_000))
            .collect()
    }

    #[test]
    fn overlay_enables_cross_domain_authentication() {
        let mut rng = ChaChaRng::from_seed_bytes(b"vo tests");
        let mut ds = domains(&mut rng, 3);
        // Before: site1's resources cannot validate site0's users.
        let user = ds[0].users[0].clone();
        assert!(validate_chain(user.chain(), &ds[1].resource_trust, 100).is_err());

        let _vo = form_vo(&mut rng, "physics-vo", &mut ds, 512, 1_000_000);

        // After: they can (Figure 1's common trust domain).
        let id = validate_chain(user.chain(), &ds[1].resource_trust, 100).unwrap();
        assert_eq!(id.base_identity.to_string(), "/O=site0/CN=user0");
    }

    #[test]
    fn overlay_enables_cas_mediated_authorization() {
        let mut rng = ChaChaRng::from_seed_bytes(b"vo cas");
        let mut ds = domains(&mut rng, 2);
        let mut vo = form_vo(&mut rng, "physics-vo", &mut ds, 512, 1_000_000);
        // VO grants group rights on site1's storage.
        vo.cas.add_rule(Rule::new(
            SubjectMatch::Exact("group:site0".to_string()),
            "site1:/storage/*",
            "read",
            Effect::Permit,
        ));
        let user = &ds[0].users[0];
        let assertion = vo.cas.issue_assertion(user.base_identity(), 100).unwrap();
        // The user embeds the assertion in a restricted proxy; each site
        // reads it from the chain it validates.
        let proxy = issue_proxy(&mut rng, user, assertion.restriction(), 512, 100, 10_000).unwrap();
        let at =
            |d: &ClassicalDomain| validate_chain(proxy.chain(), &d.resource_trust, 200).unwrap();
        assert_eq!(
            ds[1]
                .gate
                .permits(&at(&ds[1]), "site1:/storage/run1", "read", 200),
            Ok(())
        );
        // But not on site0's resources (VO granted only site1 paths).
        assert_eq!(
            ds[0]
                .gate
                .permits(&at(&ds[0]), "site0:/storage/run1", "read", 200),
            Err(AuthzError::NotGranted)
        );
    }

    #[test]
    fn trust_acts_scale_quadratically_but_stay_unilateral() {
        let mut rng = ChaChaRng::from_seed_bytes(b"vo scale");
        for n in [2usize, 4] {
            let mut ds = domains(&mut rng, n);
            let vo = form_vo(&mut rng, "vo", &mut ds, 512, 1_000_000);
            // acts = D (VO trusts members) + D*(D-1) (pairwise resource
            // trust) + 2D (CAS outsourcing) — all unilateral.
            let expected = n as u64 + (n as u64) * (n as u64 - 1) + 2 * n as u64;
            assert_eq!(vo.unilateral_acts, expected, "n={n}");
        }
        // Kerberos needs coordinated pairs.
        assert_eq!(kerberos_bilateral_agreements(2), 1);
        assert_eq!(kerberos_bilateral_agreements(4), 6);
        assert_eq!(kerberos_bilateral_agreements(16), 120);
    }

    #[test]
    fn partial_participation_is_possible() {
        // The paper: "establishment of VOs that involve only some portion
        // of an organization" — a single domain resource can join without
        // the others.
        let mut rng = ChaChaRng::from_seed_bytes(b"vo partial");
        let mut ds = domains(&mut rng, 3);
        // Only domains 0 and 1 join.
        let mut joined: Vec<ClassicalDomain> = ds.drain(0..2).collect();
        let _vo = form_vo(&mut rng, "small-vo", &mut joined, 512, 1_000_000);
        let outsider = &ds[0]; // domain 2 untouched
        let member_user = &joined[0].users[0];
        assert!(validate_chain(member_user.chain(), &outsider.resource_trust, 100).is_err());
        assert!(validate_chain(member_user.chain(), &joined[1].resource_trust, 100).is_ok());
    }
}
