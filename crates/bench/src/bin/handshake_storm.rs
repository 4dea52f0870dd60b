//! Handshake-storm scale bench: drive a portal login wave — ~10k
//! sessions from a modest set of distinct clients — through the pooled
//! acceptor path ([`HandshakeMill`]) and through a pool-less
//! per-session baseline (fresh [`AcceptorContext`] per hello), and
//! report both rates. Both run the one Montgomery kernel with the
//! tables their keys and group own, and a wave is a loop over the
//! single acceptance; the ratio is what the pool's verdict cache buys.
//!
//! Every metric except the wall-time figures is a pure function of the
//! seed and the scale parameters, so CI runs a reduced-scale version
//! twice and byte-compares the `--metrics-out` render plus
//! `BENCH_handshake_storm.json` (see `scripts/verify.sh`). Wall times
//! and the speedup ratio go to stdout only; the not-slower perf gate
//! lives in `perf_guard`, which medians over repeated waves.
//!
//! Usage:
//!
//! ```text
//! handshake_storm [--seed 0x4A5D] [--sessions 10000] [--clients 64]
//!                 [--wave 256] [--baseline-sessions 1000]
//!                 [--metrics-out FILE]
//! # reports -> $GRIDSEC_BENCH_DIR (default .)
//! # env overrides: GRIDSEC_STORM_SESSIONS, GRIDSEC_STORM_SEED
//! ```

use std::collections::BTreeMap;
use std::time::Instant;

use gridsec_bench::{dn, KEY_BITS};
use gridsec_crypto::rng::ChaChaRng;
use gridsec_gssapi::context::{AcceptorContext, InitiatorContext};
use gridsec_gssapi::mill::HandshakeMill;
use gridsec_pki::ca::CertificateAuthority;
use gridsec_pki::credential::Credential;
use gridsec_pki::store::TrustStore;
use gridsec_tls::handshake::TlsConfig;
use gridsec_util::trace::MetricsSnapshot;

fn parse_u64(v: &str, what: &str) -> u64 {
    let v = v.trim();
    if let Some(hex) = v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).unwrap_or_else(|_| panic!("hex {what}"))
    } else {
        v.parse().unwrap_or_else(|_| panic!("decimal {what}"))
    }
}

struct StormOpts {
    seed: u64,
    sessions: usize,
    clients: usize,
    wave: usize,
    baseline_sessions: usize,
}

struct StormWorld {
    trust: TrustStore,
    users: Vec<Credential>,
    service: Credential,
}

fn build_world(opts: &StormOpts) -> StormWorld {
    let mut rng = ChaChaRng::from_seed_bytes(format!("storm world {:#x}", opts.seed).as_bytes());
    let ca = CertificateAuthority::create_root(
        &mut rng,
        dn("/O=Storm/CN=CA"),
        KEY_BITS,
        0,
        u64::MAX / 2,
    );
    let users = (0..opts.clients)
        .map(|i| {
            ca.issue_identity(
                &mut rng,
                dn(&format!("/O=Storm/CN=User{i}")),
                KEY_BITS,
                0,
                u64::MAX / 4,
            )
        })
        .collect();
    let service = ca.issue_identity(
        &mut rng,
        dn("/O=Storm/CN=Portal"),
        KEY_BITS,
        0,
        u64::MAX / 4,
    );
    let mut trust = TrustStore::new();
    trust.add_root(ca.certificate().clone());
    StormWorld {
        trust,
        users,
        service,
    }
}

/// Generate `n` session openers: each is a fresh ClientHello from one
/// of the distinct clients, round-robin — plus its initiator so the
/// session can be completed. Every 97th "session" is a garbage token
/// (a client that speaks the wrong protocol), exercising the
/// rejection path deterministically.
fn make_hellos(
    world: &StormWorld,
    rng: &mut ChaChaRng,
    n: usize,
) -> Vec<(Option<InitiatorContext>, Vec<u8>)> {
    (0..n)
        .map(|i| {
            if i % 97 == 96 {
                (None, format!("not a hello {i}").into_bytes())
            } else {
                let user = &world.users[i % world.users.len()];
                let cfg = TlsConfig::new(user.clone(), world.trust.clone(), 100);
                let (init, hello) = InitiatorContext::new(cfg, rng);
                (Some(init), hello)
            }
        })
        .collect()
}

fn main() {
    let mut opts = StormOpts {
        seed: 0x4A5D,
        sessions: 10_000,
        clients: 64,
        wave: 256,
        baseline_sessions: 1_000,
    };
    if let Ok(v) = std::env::var("GRIDSEC_STORM_SEED") {
        opts.seed = parse_u64(&v, "GRIDSEC_STORM_SEED");
    }
    if let Ok(v) = std::env::var("GRIDSEC_STORM_SESSIONS") {
        opts.sessions = parse_u64(&v, "GRIDSEC_STORM_SESSIONS") as usize;
    }
    let mut metrics_out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |what: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{what} needs a value"))
        };
        match arg.as_str() {
            "--seed" => opts.seed = parse_u64(&take("--seed"), "seed"),
            "--sessions" => opts.sessions = parse_u64(&take("--sessions"), "sessions") as usize,
            "--clients" => opts.clients = parse_u64(&take("--clients"), "clients") as usize,
            "--wave" => opts.wave = parse_u64(&take("--wave"), "wave") as usize,
            "--baseline-sessions" => {
                opts.baseline_sessions =
                    parse_u64(&take("--baseline-sessions"), "baseline sessions") as usize;
            }
            "--metrics-out" => metrics_out = Some(take("--metrics-out")),
            other => {
                eprintln!("unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    opts.clients = opts.clients.max(1);
    opts.wave = opts.wave.max(1);
    opts.baseline_sessions = opts.baseline_sessions.min(opts.sessions).max(1);

    let world = build_world(&opts);

    // ---- Baseline: per-session acceptor, no pool --------------------
    // Every hello gets a fresh AcceptorContext with a plain config.
    let mut rng = ChaChaRng::from_seed_bytes(format!("storm baseline {:#x}", opts.seed).as_bytes());
    let mut baseline_hellos = make_hellos(&world, &mut rng, opts.baseline_sessions);
    let plain_cfg = TlsConfig::new(world.service.clone(), world.trust.clone(), 100);
    let mut baseline_accepted = 0u64;
    let mut baseline_rejected = 0u64;
    let t0 = Instant::now();
    for (_init, hello) in &baseline_hellos {
        match AcceptorContext::answer_hello(hello, plain_cfg.clone(), &mut rng) {
            Ok(_) => baseline_accepted += 1,
            Err(_) => baseline_rejected += 1,
        }
    }
    let baseline_ns = t0.elapsed().as_nanos().max(1);
    baseline_hellos.clear();

    // ---- Storm: batched waves through the mill ----------------------
    let mut rng = ChaChaRng::from_seed_bytes(format!("storm batch {:#x}", opts.seed).as_bytes());
    let mut mill = HandshakeMill::new(TlsConfig::new(
        world.service.clone(),
        world.trust.clone(),
        100,
    ));
    let mut sessions = make_hellos(&world, &mut rng, opts.sessions);
    let mut completed = 0u64;
    let mut batch_ns = 0u128;
    let mut waves = 0u64;
    for chunk in sessions.chunks_mut(opts.wave) {
        waves += 1;
        let hello_refs: Vec<&[u8]> = chunk.iter().map(|(_, h)| h.as_slice()).collect();
        let t0 = Instant::now();
        let wave = mill.accept_wave(&mut rng, &hello_refs);
        batch_ns += t0.elapsed().as_nanos();
        // Outside the timed region: complete the first good session of
        // the wave end-to-end to prove the contexts actually work.
        for ((init, _), accepted) in chunk.iter_mut().zip(wave) {
            let (Some(init), Ok((acceptor, server_hello))) = (init.take(), accepted) else {
                continue;
            };
            let (finished, mut ictx) = init.step(&server_hello).expect("initiator finishes");
            let mut actx = acceptor.step(&finished).expect("acceptor finishes");
            let sealed = ictx.wrap(b"login");
            assert_eq!(actx.unwrap(&sealed).expect("unwrap"), b"login");
            completed += 1;
            break;
        }
    }
    let batch_ns = batch_ns.max(1);

    // ---- Report ------------------------------------------------------
    let pool = mill.pool();
    let pool = pool.lock().expect("pool lock");
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    counters.insert("storm.sessions".into(), opts.sessions as u64);
    counters.insert("storm.clients".into(), opts.clients as u64);
    counters.insert("storm.wave_size".into(), opts.wave as u64);
    counters.insert("storm.waves".into(), waves);
    counters.insert("storm.accepted".into(), mill.accepted());
    counters.insert("storm.rejected".into(), mill.rejected());
    counters.insert("storm.completed".into(), completed);
    counters.insert("storm.validator_hits".into(), pool.validator().hits());
    counters.insert("storm.validator_misses".into(), pool.validator().misses());
    counters.insert("storm.binding_hits".into(), pool.binding_hits());
    counters.insert("storm.binding_misses".into(), pool.binding_misses());
    counters.insert("baseline.sessions".into(), opts.baseline_sessions as u64);
    counters.insert("baseline.accepted".into(), baseline_accepted);
    counters.insert("baseline.rejected".into(), baseline_rejected);
    let metrics = MetricsSnapshot {
        counters,
        hists: BTreeMap::new(),
    };

    if let Some(path) = &metrics_out {
        let mut render = format!(
            "handshake_storm seed=0x{:x} sessions={} clients={} wave={} baseline={}\n",
            opts.seed, opts.sessions, opts.clients, opts.wave, opts.baseline_sessions
        );
        render.push_str(&metrics.render());
        std::fs::write(path, render).expect("write --metrics-out file");
    }
    let dir = std::env::var("GRIDSEC_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
    let path = metrics
        .write_bench_json("handshake_storm", &dir)
        .expect("write BENCH_handshake_storm.json");

    let batch_rate = mill.accepted() as f64 * 1e9 / batch_ns as f64;
    let baseline_rate = baseline_accepted as f64 * 1e9 / baseline_ns as f64;
    println!(
        "handshake_storm: seed=0x{:x} sessions={} clients={} wave={} \
         accepted={} rejected={} completed={} \
         batch={:.1}/s baseline={:.1}/s speedup=x{:.2} \
         batch_ms={} baseline_ms={} -> {path}",
        opts.seed,
        opts.sessions,
        opts.clients,
        opts.wave,
        mill.accepted(),
        mill.rejected(),
        completed,
        batch_rate,
        baseline_rate,
        batch_rate / baseline_rate,
        batch_ns / 1_000_000,
        baseline_ns / 1_000_000,
    );
}
