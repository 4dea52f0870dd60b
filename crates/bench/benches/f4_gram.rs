//! Experiment F4 (Figure 4): GT3 GRAM job initiation — cold path (MMJFS
//! → Setuid Starter → GRIM → LMJFS) vs. warm path (resident LMJFS) vs.
//! the GT2 gatekeeper baseline.
//!
//! Expected shape: cold ≫ warm (the cold path pays two setuid program
//! executions and a GRIM key generation); GT2 sits near the warm path in
//! latency — its problem is privilege, not speed (see c4_report).

use gridsec_authz::gridmap::GridMapFile;
use gridsec_bench::{bench_world, KEY_BITS};
use gridsec_gram::gt2::Gt2Gatekeeper;
use gridsec_gram::resource::{GramConfig, GramResource};
use gridsec_gram::types::JobDescription;
use gridsec_gram::Requestor;
use gridsec_testbed::clock::SimClock;
use gridsec_testbed::os::SimOs;
use gridsec_util::bench::{criterion_group, criterion_main, Criterion};

fn gram_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("f4_gram");
    group.sample_size(10);
    let w = bench_world(b"f4 gram");
    let clock = SimClock::starting_at(100);
    let gridmap = GridMapFile::parse("\"/O=B/CN=User\" u1\n").unwrap();
    let config = GramConfig {
        key_bits: KEY_BITS,
        ..GramConfig::default()
    };

    // Cold path: fresh resource each iteration (first job of a user).
    group.bench_function("cold_submission", |b| {
        let mut requestor = Requestor::new(w.user.clone(), w.trust.clone(), b"f4 cold");
        b.iter_batched(
            || {
                GramResource::install(
                    SimOs::new(),
                    clock.clone(),
                    "node",
                    w.trust.clone(),
                    w.host.clone(),
                    &gridmap,
                    config.clone(),
                )
                .unwrap()
            },
            |mut resource| {
                requestor
                    .submit_job(&mut resource, &JobDescription::new("/bin/x"), clock.now())
                    .unwrap()
            },
            gridsec_util::bench::BatchSize::SmallInput,
        )
    });

    // Warm path: LMJFS resident after a priming job.
    let mut resource = GramResource::install(
        SimOs::new(),
        clock.clone(),
        "node",
        w.trust.clone(),
        w.host.clone(),
        &gridmap,
        config.clone(),
    )
    .unwrap();
    let mut requestor = Requestor::new(w.user.clone(), w.trust.clone(), b"f4 warm");
    requestor
        .submit_job(
            &mut resource,
            &JobDescription::new("/bin/prime"),
            clock.now(),
        )
        .unwrap();
    group.bench_function("warm_submission", |b| {
        b.iter(|| {
            requestor
                .submit_job(&mut resource, &JobDescription::new("/bin/x"), clock.now())
                .unwrap()
        })
    });

    // Steps 1–6 only (no step-7 connect): the signed-request fast half.
    // This isolates the cold-path overhead — Setuid Starter + GRIM key
    // generation — from step 7, where the cold path also generates the
    // new LMJFS's delegation key.
    group.bench_function("warm_steps_1_to_6_only", |b| {
        b.iter(|| {
            let signed = requestor.signed_request(&JobDescription::new("/bin/x"), clock.now());
            resource.submit(&signed).unwrap()
        })
    });
    group.bench_function("cold_steps_1_to_6_only", |b| {
        b.iter_batched(
            || {
                let r = GramResource::install(
                    SimOs::new(),
                    clock.clone(),
                    "node",
                    w.trust.clone(),
                    w.host.clone(),
                    &gridmap,
                    config.clone(),
                )
                .unwrap();
                let signed = requestor.signed_request(&JobDescription::new("/bin/x"), clock.now());
                (r, signed)
            },
            |(mut r, signed)| r.submit(&signed).unwrap(),
            gridsec_util::bench::BatchSize::SmallInput,
        )
    });

    // GT2 baseline.
    let mut gatekeeper = Gt2Gatekeeper::install(
        SimOs::new(),
        clock.clone(),
        "gt2node",
        w.trust.clone(),
        w.host.clone(),
        &gridmap,
    )
    .unwrap();
    group.bench_function("gt2_gatekeeper_submission", |b| {
        b.iter(|| {
            gatekeeper
                .submit(&w.user, &JobDescription::new("/bin/x"))
                .unwrap()
        })
    });
    group.finish();

    // Cold/warm factor (printed once; recorded in EXPERIMENTS.md).
    let stats = resource.stats;
    println!(
        "\n[f4] resource stats after bench: {} jobs, {} cold, {} warm",
        stats.jobs_submitted, stats.cold_starts, stats.warm_starts
    );
}

criterion_group!(benches, gram_paths);
criterion_main!(benches);
