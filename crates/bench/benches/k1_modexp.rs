//! Kernel benchmark: the Montgomery-form modexp dispatched by
//! [`gridsec_bignum::modular::mod_pow`] against the classic 4-bit-window
//! reference it replaced, on RSA-sign-shaped operands (full-width
//! exponent, odd modulus) plus the short-exponent verify shape.
//!
//! `perf_guard` re-times the 512-bit sign shape with `Instant` and fails
//! CI if Montgomery ever regresses below classic; this bench records the
//! same comparison in `BENCH_k1_modexp.json` for EXPERIMENTS.md, from
//! 256 bits — the width every protocol modexp runs at: an RSA-512 CRT
//! half, a DH-256 agreement, a Miller–Rabin witness on a 256-bit prime
//! candidate — to 1024.
//!
//! `prime_search/256` and `rsa_keygen/512` are what those
//! exponentiations add up to in a constructed, proven prime (the row
//! keeps the name it was first recorded under). The walk to a prime is
//! geometric in length, so each of their samples is one prime (one key)
//! from its own seeded stream: the same primes on every run, median and
//! p95 over their distribution.

use gridsec_bench::sign_shape;
use gridsec_bignum::modular::{mod_pow, mod_pow_classic};
use gridsec_bignum::prime::generate_prime;
use gridsec_bignum::BigUint;
use gridsec_crypto::rng::ChaChaRng;
use gridsec_crypto::rsa::RsaKeyPair;
use gridsec_util::bench::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};

fn modexp(c: &mut Criterion) {
    let mut group = c.benchmark_group("k1_modexp");
    group.sample_size(10);
    let mut rng = ChaChaRng::from_seed_bytes(b"k1 modexp");

    for bits in [256usize, 512, 1024] {
        let (base, exp, modulus) = sign_shape(&mut rng, bits);
        group.bench_with_input(BenchmarkId::new("montgomery_sign", bits), &(), |b, ()| {
            b.iter(|| mod_pow(&base, &exp, &modulus))
        });
        group.bench_with_input(BenchmarkId::new("classic_sign", bits), &(), |b, ()| {
            b.iter(|| mod_pow_classic(&base, &exp, &modulus))
        });
    }

    // RSA verify: e = 65537 — the short-exponent fast path.
    let (base, _, modulus) = sign_shape(&mut rng, 512);
    let e = BigUint::from(65_537u64);
    group.bench_function("montgomery_verify_e65537/512", |b| {
        b.iter(|| mod_pow(&base, &e, &modulus))
    });
    group.bench_function("classic_verify_e65537/512", |b| {
        b.iter(|| mod_pow_classic(&base, &e, &modulus))
    });

    // One sample = one prime from its own seeded stream.
    group.sample_size(64);
    let mut seed = 0u64;
    let mut next_rng = move || {
        seed += 1;
        ChaChaRng::from_seed_bytes(format!("k1 prime search {seed}").as_bytes())
    };
    group.bench_function("prime_search/256", |b| {
        b.iter_batched(
            &mut next_rng,
            |mut rng| generate_prime(&mut rng, 256, 16),
            BatchSize::PerIteration,
        )
    });
    group.bench_function("rsa_keygen/512", |b| {
        b.iter_batched(
            &mut next_rng,
            |mut rng| RsaKeyPair::generate(&mut rng, 512),
            BatchSize::PerIteration,
        )
    });
    group.finish();
}

criterion_group!(benches, modexp);
criterion_main!(benches);
