//! Experiment F2 (Figure 2): the three-step CAS flow — assertion
//! issuance, presentation, and resource-side `local ∩ VO` enforcement —
//! with a VO-policy-size sweep, against a no-CAS local-only baseline.
//!
//! Expected shape: per-request enforcement stays cheap and flat-ish in
//! policy size (the assertion carries the user's slice); issuance scales
//! with the number of rules scanned.

use gridsec_authz::cas::{CasServer, ResourceGate};
use gridsec_authz::policy::{CombiningAlg, Effect, PolicySet, Rule, SubjectMatch};
use gridsec_bench::{bench_world, dn, KEY_BITS};
use gridsec_pki::proxy::issue_proxy;
use gridsec_pki::validate::{validate_chain, ValidatedIdentity};
use gridsec_util::bench::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// The VO, the resource's gate, and what the gate sees from the user:
/// a proxy carrying their assertion, and their own unrestricted chain.
fn setup_cas(
    rules: usize,
) -> (
    CasServer,
    ResourceGate,
    ValidatedIdentity,
    ValidatedIdentity,
) {
    let mut w = bench_world(b"f2 cas");
    let cas_cred =
        w.ca.issue_identity(&mut w.rng, dn("/O=B/CN=CAS"), KEY_BITS, 0, u64::MAX / 4);
    let mut cas = CasServer::new("bench-vo", cas_cred, 100_000);
    cas.enroll(&dn("/O=B/CN=User"), vec!["group:g".to_string()]);
    // VO policy with `rules` entries; the user's group matches a handful.
    for i in 0..rules {
        let subject = if i % 100 == 0 {
            "group:g".to_string()
        } else {
            format!("group:other{i}")
        };
        cas.add_rule(Rule::new(
            SubjectMatch::Exact(subject),
            &format!("/data/part{i}/*"),
            "read",
            Effect::Permit,
        ));
    }
    let mut local = PolicySet::new(CombiningAlg::DenyOverrides);
    local.add(Rule::new(
        SubjectMatch::Exact("vo:bench-vo".to_string()),
        "/data/*",
        "read",
        Effect::Permit,
    ));
    let mut gate = ResourceGate::new(local);
    gate.trust_cas("bench-vo", cas.public_key().clone());
    let user =
        w.ca.issue_identity(&mut w.rng, dn("/O=B/CN=User"), KEY_BITS, 0, u64::MAX / 4);
    let assertion = cas.issue_assertion(user.base_identity(), 100).unwrap();
    let kind = assertion.restriction();
    let proxy = issue_proxy(&mut w.rng, &user, kind, KEY_BITS, 100, 100_000).unwrap();
    let with_cas = validate_chain(proxy.chain(), &w.trust, 200).unwrap();
    let direct = validate_chain(user.chain(), &w.trust, 200).unwrap();
    (cas, gate, with_cas, direct)
}

fn issuance(c: &mut Criterion) {
    let mut group = c.benchmark_group("f2_issue_assertion");
    group.sample_size(10);
    for rules in [10usize, 100, 1_000, 10_000] {
        let (cas, ..) = setup_cas(rules);
        group.bench_with_input(BenchmarkId::new("vo_rules", rules), &rules, |b, _| {
            b.iter(|| cas.issue_assertion(&dn("/O=B/CN=User"), 100).unwrap())
        });
    }
    group.finish();
}

fn enforcement(c: &mut Criterion) {
    let mut group = c.benchmark_group("f2_enforcement");
    group.sample_size(10);
    for rules in [10usize, 1_000] {
        let (_cas, gate, with_cas, _) = setup_cas(rules);
        group.bench_with_input(BenchmarkId::new("with_cas_rules", rules), &rules, |b, _| {
            b.iter(|| {
                gate.permits(&with_cas, "/data/part0/file", "read", 200)
                    .unwrap()
            })
        });
    }
    // Baseline: a direct (no CAS) chain, decided by local policy alone.
    let (_cas, gate, _, direct) = setup_cas(10);
    group.bench_function("local_only_baseline", |b| {
        b.iter(|| gate.permits(&direct, "/data/part0/file", "read", 200))
    });
    group.finish();
}

criterion_group!(benches, issuance, enforcement);
criterion_main!(benches);
