//! Experiment F3 (Figure 3): the five-step secured OGSA request, with a
//! per-step breakdown and the credential-conversion variant (C6: a
//! Kerberos-site client through the KCA).
//!
//! Expected shape: cold invocations pay policy retrieval + token
//! exchange; warm invocations (cached policy + context) are an order of
//! magnitude cheaper; KCA conversion adds Kerberos exchanges + keygen on
//! top of the cold path.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic seed counter shared across the bench runner's repeated routine
/// invocations (a per-closure counter would reset and replay nonces).
static SEED: AtomicU64 = AtomicU64::new(1);

fn next_seed() -> [u8; 8] {
    SEED.fetch_add(1, Ordering::Relaxed).to_le_bytes()
}

use gridsec_authz::policy::{CombiningAlg, Effect, PolicySet, Rule, SubjectMatch};
use gridsec_bench::{bench_world, dn, BenchWorld, KEY_BITS};
use gridsec_kerberos::Kdc;
use gridsec_ogsa::client::{CredentialSource, OgsaClient, StaticCredential};
use gridsec_ogsa::hosting::HostingEnvironment;
use gridsec_ogsa::service::{GridService, RequestContext};
use gridsec_ogsa::transport::InProcessTransport;
use gridsec_ogsa::OgsaError;
use gridsec_services::kca::{KcaCredentialSource, KerberosCa};
use gridsec_testbed::clock::SimClock;
use gridsec_util::bench::{criterion_group, criterion_main, Criterion};
use gridsec_wsse::policy::{PolicyAlternative, Protection, SecurityPolicy};
use gridsec_xml::Element;

struct Echo;
impl GridService for Echo {
    fn service_type(&self) -> &str {
        "echo"
    }
    fn invoke(
        &mut self,
        _ctx: &RequestContext,
        _op: &str,
        payload: &Element,
    ) -> Result<Element, OgsaError> {
        Ok(payload.clone())
    }
}

fn make_env(w: &BenchWorld, clock: &SimClock, allow: &str) -> Rc<RefCell<HostingEnvironment>> {
    let published = SecurityPolicy {
        service: "echo".to_string(),
        alternatives: vec![PolicyAlternative {
            mechanism: "gsi-secure-conversation".to_string(),
            token_types: vec!["x509-chain".to_string(), "kerberos-ticket".to_string()],
            trust_roots: vec![],
            protection: Protection::SignAndEncrypt,
        }],
    };
    let mut authz = PolicySet::new(CombiningAlg::DenyOverrides);
    authz.add(Rule::new(
        SubjectMatch::Exact(allow.to_string()),
        "factory:echo",
        "create",
        Effect::Permit,
    ));
    authz.add(Rule::new(
        SubjectMatch::Exact(allow.to_string()),
        "service:echo",
        "*",
        Effect::Permit,
    ));
    let mut env = HostingEnvironment::new(
        "bench-host",
        w.service.clone(),
        w.trust.clone(),
        clock.clone(),
        published,
        authz,
    );
    env.registry
        .register_factory("echo", Box::new(|_c, _a| Ok(Box::new(Echo))));
    Rc::new(RefCell::new(env))
}

fn pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("f3_pipeline");
    group.sample_size(10);
    let w = bench_world(b"f3 pipeline");
    let clock = SimClock::starting_at(100);

    // Cold: fresh client each iteration — policy fetch + context + call.
    let env = make_env(&w, &clock, "/O=B/CN=User");
    group.bench_function("cold_full_pipeline", |b| {
        b.iter(|| {
            let mut client = OgsaClient::new(
                InProcessTransport::new(env.clone()),
                w.trust.clone(),
                clock.clone(),
                &next_seed(),
            );
            client.add_source(Box::new(StaticCredential(w.user.clone())));
            let h = client.create_service("echo", Element::new("a")).unwrap();
            client
                .invoke(&h, "run", Element::new("p").with_text("x"))
                .unwrap();
            client.destroy(&h).unwrap()
        })
    });

    // Warm: one client, cached policy + context; measure invoke only.
    let env2 = make_env(&w, &clock, "/O=B/CN=User");
    let mut client = OgsaClient::new(
        InProcessTransport::new(env2),
        w.trust.clone(),
        clock.clone(),
        b"warm client",
    );
    client.add_source(Box::new(StaticCredential(w.user.clone())));
    let handle = client.create_service("echo", Element::new("a")).unwrap();
    group.bench_function("warm_invoke", |b| {
        b.iter(|| {
            client
                .invoke(&handle, "run", Element::new("p").with_text("x"))
                .unwrap()
        })
    });

    // Step 1 alone: policy retrieval.
    let env3 = make_env(&w, &clock, "/O=B/CN=User");
    group.bench_function("step1_policy_fetch", |b| {
        b.iter(|| {
            let mut c2 = OgsaClient::new(
                InProcessTransport::new(env3.clone()),
                w.trust.clone(),
                clock.clone(),
                &next_seed(),
            );
            c2.add_source(Box::new(StaticCredential(w.user.clone())));
            c2.fetch_policy().unwrap()
        })
    });
    group.finish();
}

fn kca_conversion_path(c: &mut Criterion) {
    // Experiment C6 shares this harness: Figure 3 step 2 with a real
    // mechanism bridge in the loop.
    let mut group = c.benchmark_group("f3_kca_conversion");
    group.sample_size(10);
    let mut w = bench_world(b"f3 kca");
    let clock = SimClock::starting_at(100);

    let kdc = Kdc::new(&mut w.rng, "SITE.K", 1_000_000);
    kdc.add_principal("alice", "pw");
    let kca = Rc::new(KerberosCa::new(
        &mut w.rng,
        &kdc,
        KEY_BITS,
        u64::MAX / 4,
        50_000,
    ));
    let kdc = Rc::new(kdc);
    // The service must trust the KCA.
    let mut trust = w.trust.clone();
    trust.add_root(kca.certificate().clone());

    // Step 2 alone: Kerberos login + conversion.
    group.bench_function("step2_kca_convert", |b| {
        b.iter(|| {
            let mut source = KcaCredentialSource::new(
                kdc.clone(),
                kca.clone(),
                "alice",
                "pw",
                KEY_BITS,
                &next_seed(),
            );
            source.obtain(clock.now()).unwrap()
        })
    });

    // Full pipeline with conversion in the loop. Both sides use the
    // combined trust store (grid CA for the service, KCA for the client).
    let w2 = BenchWorld {
        trust: trust.clone(),
        ..w
    };
    let env = make_env(&w2, &clock, "/O=KCA SITE.K/CN=alice");
    group.bench_function("cold_pipeline_with_kca", |b| {
        b.iter(|| {
            let mut client = OgsaClient::new(
                InProcessTransport::new(env.clone()),
                trust.clone(),
                clock.clone(),
                &next_seed(),
            );
            client.add_source(Box::new(KcaCredentialSource::new(
                kdc.clone(),
                kca.clone(),
                "alice",
                "pw",
                KEY_BITS,
                &next_seed(),
            )));
            let h = client.create_service("echo", Element::new("a")).unwrap();
            client.invoke(&h, "run", Element::new("p")).unwrap()
        })
    });
    group.finish();
    let _ = dn("/O=B/CN=User");
}

criterion_group!(benches, pipeline, kca_conversion_path);
criterion_main!(benches);
