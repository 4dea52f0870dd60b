//! Virtual-organization collaboration — Figures 1 and 2 of *Security for
//! Grid Services*.
//!
//! Three classical domains form a VO: the policy overlay makes
//! cross-domain authentication work (Figure 1), and CAS-mediated
//! authorization enforces `local policy ∩ VO policy` (Figure 2). Also
//! prints the unilateral-vs-bilateral trust accounting of experiment F1.
//!
//! Run with: `cargo run --example vo_collaboration`

use gridsec_gsi::prelude::*;
use gridsec_gsi::vo::{create_domain, form_vo, kerberos_bilateral_agreements};

fn main() {
    let mut rng = ChaChaRng::from_seed_bytes(b"vo example");

    // Three classical organizations, each with its own CA and users.
    let mut domains: Vec<_> = ["anl.gov", "isi.edu", "uchicago.edu"]
        .iter()
        .map(|name| create_domain(&mut rng, name, 3, 512, 100_000_000))
        .collect();

    // Before the VO: a UChicago resource cannot even authenticate an ANL
    // user (no common trust).
    let anl_user = domains[0].users[0].clone();
    let pre = validate_chain(anl_user.chain(), &domains[2].resource_trust, 100);
    println!(
        "before VO: uchicago validates {}? {}",
        anl_user.subject(),
        if pre.is_ok() {
            "yes"
        } else {
            "no (no trust path)"
        }
    );

    // Form the VO (Figure 1's policy overlay).
    let mut vo = form_vo(&mut rng, "climate-vo", &mut domains, 512, 100_000_000);
    println!(
        "\nformed {}: {} members enrolled, {} unilateral trust acts",
        vo.name,
        vo.cas.member_count(),
        vo.unilateral_acts
    );
    println!(
        "equivalent Kerberos mesh would need {} *bilateral* agreements",
        kerberos_bilateral_agreements(domains.len())
    );

    // After: authentication works across domains.
    let post = validate_chain(anl_user.chain(), &domains[2].resource_trust, 100).unwrap();
    println!(
        "after VO:  uchicago validates {} -> base identity {}",
        anl_user.subject(),
        post.base_identity
    );

    // Figure 2: the VO expresses policy over outsourced resource slices.
    vo.cas.add_rule(Rule::new(
        SubjectMatch::Exact("group:anl.gov".to_string()),
        "isi.edu:/cluster/*",
        "submit",
        Effect::Permit,
    ));
    // ISI's local admin embargoes one queue regardless of VO policy.
    if let Some(local) = domains[1].gate.local_policy.as_mut() {
        local.add(Rule::new(
            SubjectMatch::Exact("vo:climate-vo".to_string()),
            "isi.edu:/cluster/secure-queue",
            "*",
            Effect::Deny,
        ));
    }

    // Step 1: the user fetches a CAS assertion.
    let assertion = vo
        .cas
        .issue_assertion(anl_user.base_identity(), 100)
        .expect("member assertion");
    println!(
        "\nCAS assertion for {}: {} right(s), valid until t={}",
        assertion.body().subject,
        assertion.body().rights.len(),
        assertion.body().not_after
    );

    // Step 2: embed it in a restricted proxy, the one credential that
    // carries both the identity and the VO rights.
    let vo_proxy = issue_proxy(&mut rng, &anl_user, assertion.restriction(), 512, 100, 3600)
        .expect("restricted proxy");
    let presented = validate_chain(vo_proxy.chain(), &domains[1].resource_trust, 150).unwrap();

    // Step 3: the ISI resource's gate reads the assertion from the chain.
    for (resource, action) in [
        ("isi.edu:/cluster/batch", "submit"),
        ("isi.edu:/cluster/secure-queue", "submit"),
        ("isi.edu:/cluster/batch", "drain"),
    ] {
        let decision = domains[1].gate.permits(&presented, resource, action, 150);
        println!("  {action:<7} {resource:<30} -> {decision:?}");
    }
    println!(
        "\n(first allowed by VO∩local; second blocked by LOCAL embargo even though\n the VO would allow it; third never granted by the VO)"
    );
}
