//! CI bench-smoke guard: asserts the perf claims this stack depends
//! on, offline and in seconds, exiting nonzero on regression.
//!
//! 1. **Kernel**: Montgomery-form `mod_pow` beats the classic 4-bit
//!    window reference on 512-bit RSA-sign-shaped operands.
//! 2. **Session resumption**: the abbreviated handshake beats the full
//!    asymmetric handshake.
//! 3. **Pooled acceptance**: a [`HandshakeMill`] wave on a warm
//!    verdict cache accepts hellos no slower than a pool-less
//!    per-session acceptor (fresh acceptor per hello) — the claim
//!    behind `handshake_storm`. A wave is a loop over the single
//!    acceptance, so the ratio prices a cache hit — a hash and a
//!    compare of the bytes the hello carried the chain in — against a
//!    chain walk.
//! 4. **Striping**: four pinned stripes finish the 32 KiB reference
//!    fetch at 5% loss, over a WAN with 1–4 s latency, in ≤2/3 the sim
//!    seconds of a single stream (≥1.5× goodput) — the headline claim
//!    behind `striped_xfer`. The stripes overlap their round trips on
//!    the world's clock; deterministic by seed.
//! 5. **Pooled poll establishment**: the full three-leg poll
//!    establishment (hello → ServerHello → Finished) through a
//!    [`WaveAcceptor`] wave on a warm verdict cache runs the acceptor
//!    side no slower than a pool-less per-session acceptor (fresh
//!    [`AcceptorContext`] per hello) — the claim behind `crypto_storm`.
//! 6. **Storm scale** (two ratios, counted as claims 6 and 7): the
//!    recorded `crypto_storm` run covers ≥5× the recorded `vo_storm`
//!    population with real per-principal handshake crypto, at a
//!    live-task high-water mark (the peak-RSS proxy) at least 20×
//!    smaller than the population — cohort admission bounds residency.
//!    They read the recorded artifacts; they measure the repo's
//!    evidence, not this machine.
//! 8. **Protected-message byte path**: on a `wssc::establish`ed pair,
//!    opening a protected 16 KiB envelope takes at most twice what
//!    protecting it took, and `b64::decode` runs at ≥0.3× the
//!    throughput of `b64::encode` on the same 16 KiB. Each is the
//!    ratio of two readings taken back to back in this process: the
//!    receive side once cost 3.6× the send side because its base64
//!    decoder allocated per quad, and no ledger line showed it.
//! 9. **The protocol width stays in its loop**: a full-exponent
//!    256-bit `mod_pow` — an RSA-512 CRT half, a DH-256 agreement, a
//!    Miller–Rabin witness on a 256-bit candidate — costs at most
//!    0.16× a 512-bit one. By multiply-add count it is 0.126×; it read
//!    0.16–0.19× while the four-limb CIOS multiply was compiled out of
//!    line and passed its operands through memory, which `k1_modexp`,
//!    benching 512 and 1024 bits only, could not show.
//! 10. **A prime is proven, not confirmed**: 64 seeded
//!     `generate_prime(256, 16)` cost at most 40 of those 256-bit
//!     `mod_pow`s each. A constructed prime pays one exponentiation for
//!     each of the ≈12.5 candidates `2kq + 1` that survive the sieve,
//!     then the same for the 128-bit `q` and the 64-bit prime under it
//!     at a fraction of the width, and two sieves with their word-sized
//!     inverses: 28–30 as this ratio reads it. The search it replaced
//!     confirmed each prime with 29 further witnesses and read 44–50;
//!     it fails this budget, as does a generator that stops sieving.
//! 11. **A key is two prime searches** — a count, not a time: over 256
//!     seeded 512-bit keys, replaying each seed's stream through bare
//!     `generate_prime` pairs until the key's primes come out takes
//!     exactly 2.000 searches per key. It took 3.234 on these seeds
//!     while only the top bit of each prime was forced and a pair whose
//!     product came out one bit short was thrown away whole.
//! 12. **A sign-on pays for one step-7 handshake** — a count, not a
//!     time: a seeded sign-on submitting 16 Figure-4 jobs to one
//!     resource runs exactly 1 full and 15 resumed step-7 handshakes, as
//!     the resource's `GramStats` counts them. Before resumption every
//!     job ran the full RSA/DH handshake with an LMJFS the requestor had
//!     authenticated one job earlier: 16 and 0.
//! 13. **An LMJFS generates one delegation key** — a count too: the
//!     same sign-on's 16 delegations generate exactly 1 key pair, and a
//!     second user's sign-on on the same resource brings it to 2, as
//!     `GramStats::delegation_keys` counts them. Every job's proxy is
//!     still fresh, over its LMJFS's one key. Before, each job's MJS
//!     generated a key of its own: 16, then 32.
//! 14. **A sign-on's chain is walked once** — a count too: the same two
//!     sign-ons' 32 signed requests cost step 2 exactly 1 chain walk for
//!     the first user's 16 jobs and 2 after the second user's, as the
//!     Proxy Router's signer memo counts its misses. Before the memo every
//!     request decoded and walked its chain: 16, then 32.
//! 15. **The keystream runs four blocks wide** — a count read from
//!     this executable's own machine code, not a time: the four-lane
//!     ChaCha20 rounds (`gridsec_util::chacha::wide_blocks`, or
//!     `xor_stream` where it is inlined, as it is at the baseline x86-64
//!     target), disassembled with binutils' `objdump`, hold at least 48
//!     packed `paddd`. One add of a state word across four lanes is one
//!     SSE2 `paddd`: a double round is eight quarter rounds of four adds
//!     (32), and the feed-forward adds the sixteen input words (16).
//!     It reads 49 where the loop is vectorised (the 49th steps the
//!     lane counters) and 3 with `LANES = 1`, whose one-lane rounds
//!     compile to scalar `add` and `rol` — the shape three earlier
//!     layouts compiled to. The AEAD under every protected message
//!     seals through it. This claim was a ratio of `xor_stream` over
//!     64 KiB against one `chacha20::block` call per 64 bytes (floor
//!     1.4×), which read 1.7–1.9× vectorised and ≈ 1.0× scalar.
//! 16. **The SHA-256 schedule runs sixteen blocks wide** — a count read
//!     from this executable's own machine code, not a time:
//!     `gridsec_util::sha256::Sha256::update`, disassembled with binutils'
//!     `objdump`, holds at least 16 packed `paddd`. One schedule word
//!     across sixteen lanes is four SSE2 registers of four adds each (the
//!     two σ terms, `W[t−7]`, `W[t−16]` and the folded `K[t]` — four
//!     additions), so 16 is the vectorised loop body at the baseline
//!     x86-64 target; a four-lane schedule, unrolled before the vectoriser
//!     sees it, compiles to scalar `rol` and 2 `paddd`. Every resumable
//!     transfer's end-to-end check hashes through it. This claim was a
//!     ratio of `sha256` of 64 KiB against 1 024 one-block `update` calls
//!     (floor 1.25×), which read 1.19–1.27× on an unchanged kernel on a
//!     shared 2-core host.
//! 17. **A file version is hashed once** — a count, not a time: one
//!     resumable session that `GETR`s an unchanged 256 KiB file 8 times
//!     makes the server compute 1 digest, and 8 when the file is
//!     overwritten before each `GETR`, as `SimOs::digests_computed`
//!     counts them. Before the stored digest every `GETR` hashed the
//!     whole file: 8 and 8.
//! 18. **A warm wave walks no chain** — a count: claim 3's mill adds 0
//!     validator misses over its 7 timed waves, the work claim 3's ratio
//!     prices. A verdict cache keyed on anything a peer can re-frame, or
//!     flushed per wave, reads 168.
//!
//! Claims 1–3 and 5 use median-of-N wall times on identical inputs
//! and require only `faster < slower`, so scheduler noise cannot flake
//! CI. Claims 3 and 5 time their two arms round by round, one of each
//! per round, so a noisy neighbour slows both medians alike. Both arms
//! of claims 3 and 5 run the one Montgomery kernel with
//! the tables their keys and group own and the one hello acceptance,
//! so those ratios are what the pool buys (validator hits: a hash and a
//! compare of the chain's wire bytes in place of a chain walk);
//! absolute acceptor speed is gated by gridbench's `ops_per_s` on
//! `establish_storm`. Claims 9 and 10 are
//! medians of per-round ratios, the two arms of a round interleaved, so
//! a slow phase of the machine lands on numerator and denominator alike.
//! Claims 11–18 read no clock: one run, the same count on every machine
//! with the same toolchain.
//!
//! Every claim prints its measured ratio, its threshold, and the
//! recorded bench artifact it gates (`BENCH_*.json`), pass or fail.

use std::time::Instant;

use gridsec_authz::gridmap::GridMapFile;
use gridsec_bench::striped::{run_get_cell, seed_file, striped_payload, striped_world};
use gridsec_bench::{bench_world, dn, sign_shape, KEY_BITS};
use gridsec_bignum::modular::{mod_pow, mod_pow_classic};
use gridsec_bignum::prime::generate_prime;
use gridsec_crypto::rng::ChaChaRng;
use gridsec_crypto::rsa::RsaKeyPair;
use gridsec_gram::resource::{GramConfig, GramResource};
use gridsec_gram::{JobDescription, Requestor};
use gridsec_gridftp::poll::{Dialect, ServerSession};
use gridsec_gsi::sso::{grid_proxy_init, ProxyOptions};
use gridsec_gssapi::context::{AcceptorContext, InitiatorContext};
use gridsec_gssapi::mill::HandshakeMill;
use gridsec_gssapi::poll::WaveAcceptor;
use gridsec_testbed::clock::SimClock;
use gridsec_testbed::faults::CrashPlan;
use gridsec_testbed::os::{FileMode, SimOs};
use gridsec_tls::handshake::{handshake_in_memory, TlsConfig};
use gridsec_tls::records::{frame, ClientConnector};
use gridsec_tls::session::{resume_client, ClientSession, ServerSessionCache};
use gridsec_util::rng::RngCore;
use gridsec_wsse::b64;
use gridsec_wsse::soap::Envelope;
use gridsec_wsse::wssc::{establish, WsscResponder};
use gridsec_xml::Element;

/// Medians of `rounds` rounds that time arm `a` once, then arm `b` once,
/// both on `state`: a slow phase of the machine lands on both arms.
fn interleaved_medians<S>(
    rounds: usize,
    state: &mut S,
    mut a: impl FnMut(&mut S) -> u128,
    mut b: impl FnMut(&mut S) -> u128,
) -> (u128, u128) {
    let (mut xs, mut ys): (Vec<u128>, Vec<u128>) =
        (0..rounds).map(|_| (a(state), b(state))).unzip();
    xs.sort_unstable();
    ys.sort_unstable();
    (xs[rounds / 2], ys[rounds / 2])
}

/// Median wall time in nanoseconds of `rounds` runs of `f`.
fn median_ns(rounds: usize, mut f: impl FnMut()) -> u128 {
    let mut times: Vec<u128> = (0..rounds)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// Wall time in nanoseconds of one run of `f`.
fn time_ns(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as f64
}

/// Median of `rounds` readings of `ratio`.
fn median_ratio(rounds: usize, mut ratio: impl FnMut() -> f64) -> f64 {
    let mut ratios: Vec<f64> = (0..rounds).map(|_| ratio()).collect();
    ratios.sort_by(f64::total_cmp);
    ratios[ratios.len() / 2]
}

/// Uniform claim verdict: prints measured ratio, threshold, and the
/// recorded `BENCH_*.json` the claim gates — pass or fail — and counts
/// the failure.
fn claim(failures: &mut u32, name: &str, measured: f64, threshold: f64, bench: &str) {
    let dir = std::env::var("GRIDSEC_PERF_SOURCE_DIR")
        .unwrap_or_else(|_| "bench-results/after".to_string());
    let pass = measured >= threshold;
    println!(
        "[perf_guard] {name}: measured x{measured:.2} threshold x{threshold:.2} \
         source {dir}/BENCH_{bench}.json -> {}",
        if pass { "PASS" } else { "FAIL" }
    );
    if !pass {
        *failures += 1;
    }
}

/// The packed `paddd` instructions in this executable's first
/// `gridsec_util` function whose mangled name holds one of `names`,
/// tried in order, as binutils' `objdump` reads them.
fn packed_adds_in(names: &[&str]) -> Result<usize, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let objdump = |args: &[&str]| {
        let out = std::process::Command::new("objdump")
            .args(args)
            .arg(&exe)
            .output()
            .map_err(|e| format!("objdump: {e}"))?;
        if !out.status.success() {
            return Err(format!("objdump {args:?}: {}", out.status));
        }
        Ok(String::from_utf8_lossy(&out.stdout).into_owned())
    };
    let symbols = objdump(&["-t"])?;
    let symbol = names
        .iter()
        .find_map(|name| {
            symbols
                .lines()
                .filter_map(|line| line.split_whitespace().last())
                .find(|symbol| symbol.contains("gridsec_util") && symbol.contains(name))
        })
        .ok_or(format!("no symbol for any of {names:?}"))?;
    let code = objdump(&[
        "-d",
        "--no-show-raw-insn",
        &format!("--disassemble={symbol}"),
    ])?;
    Ok(code
        .lines()
        .filter(|line| line.split_whitespace().nth(1) == Some("paddd"))
        .count())
}

/// Claim `name`: at least `floor` packed adds in the first of `names`.
fn packed_adds_claim(failures: &mut u32, name: &str, what: &str, names: &[&str], floor: usize) {
    let packed_adds = packed_adds_in(names).unwrap_or_else(|why| {
        eprintln!("[perf_guard] cannot read {what}'s machine code: {why}");
        0
    });
    println!("[perf_guard] {what} holds {packed_adds} packed paddd, must be at least {floor}");
    claim(
        failures,
        name,
        packed_adds as f64,
        floor as f64,
        "c1_message_protection",
    );
}

fn main() {
    let mut failures = 0u32;

    // --- Claim 1: Montgomery beats classic on 512-bit sign shapes. ---
    let mut rng = ChaChaRng::from_seed_bytes(b"perf guard modexp");
    let (base, exp, modulus) = sign_shape(&mut rng, 512);
    assert_eq!(
        mod_pow(&base, &exp, &modulus),
        mod_pow_classic(&base, &exp, &modulus),
        "kernels disagree — correctness before speed"
    );
    let mont = median_ns(15, || {
        std::hint::black_box(mod_pow(&base, &exp, &modulus));
    });
    let classic = median_ns(15, || {
        std::hint::black_box(mod_pow_classic(&base, &exp, &modulus));
    });
    println!("[perf_guard] modexp 512-bit sign: montgomery {mont}ns vs classic {classic}ns");
    claim(
        &mut failures,
        "modexp-montgomery-vs-classic",
        classic as f64 / mont as f64,
        1.0,
        "k1_modexp",
    );

    // --- Claim 2: resumed handshake beats the full handshake. ---
    let mut w = bench_world(b"perf guard resume");
    let client_cfg = TlsConfig::new(w.user.clone(), w.trust.clone(), 10);
    let server_cfg = TlsConfig::new(w.service.clone(), w.trust.clone(), 10);
    let (chan, _) =
        handshake_in_memory(client_cfg.clone(), server_cfg.clone(), &mut w.rng).unwrap();
    let session = ClientSession::from_channel(&chan).expect("resumption state");
    let mut sessions = ServerSessionCache::new(8, 1_000_000);
    sessions.store(&chan);

    let full = median_ns(9, || {
        std::hint::black_box(
            handshake_in_memory(client_cfg.clone(), server_cfg.clone(), &mut w.rng).unwrap(),
        );
    });
    let resumed = median_ns(9, || {
        let (resume, t1) = resume_client(session.clone(), 10, 1_000, &mut w.rng);
        let (t2, wait) = sessions
            .accept_under(&t1, 10, server_cfg.epoch(), &mut w.rng)
            .unwrap();
        let (t3, client_chan) = resume.step(&t2).unwrap();
        let server_chan = wait.step(&t3).unwrap();
        std::hint::black_box((client_chan, server_chan));
    });
    println!("[perf_guard] handshake: resumed {resumed}ns vs full {full}ns");
    claim(
        &mut failures,
        "handshake-resumed-vs-full",
        full as f64 / resumed as f64,
        1.0,
        "c1_establishment",
    );

    // --- Claim 3: batched wave not slower than per-session. ---
    // One wave of hellos, accepted two ways: a fresh pool-less acceptor
    // per hello, then a mill, which gets a warm-up wave so the timed
    // waves measure the steady state a login storm settles into.
    const WAVE: usize = 24;
    let mut w = bench_world(b"perf guard wave");
    let server_cfg = TlsConfig::new(w.service.clone(), w.trust.clone(), 10);
    let hellos: Vec<Vec<u8>> = (0..WAVE)
        .map(|_| {
            let cfg = TlsConfig::new(w.user.clone(), w.trust.clone(), 10);
            InitiatorContext::new(cfg, &mut w.rng).1
        })
        .collect();
    let hello_refs: Vec<&[u8]> = hellos.iter().map(|h| h.as_slice()).collect();

    let mut mill = HandshakeMill::new(server_cfg.clone());
    for r in mill.accept_wave(&mut w.rng, &hello_refs) {
        r.expect("warm-up wave accepts");
    }
    let walks = |mill: &HandshakeMill| mill.pool().lock().unwrap().validator().misses();
    let warm_walks = walks(&mill);
    let (per_session, batched) = interleaved_medians(
        7,
        &mut w.rng,
        |rng| {
            time_ns(|| {
                for hello in &hello_refs {
                    let answered = AcceptorContext::answer_hello(hello, server_cfg.clone(), rng);
                    std::hint::black_box(answered.unwrap());
                }
            }) as u128
        },
        |rng| {
            time_ns(|| {
                for r in mill.accept_wave(rng, &hello_refs) {
                    std::hint::black_box(r.expect("timed wave accepts"));
                }
            }) as u128
        },
    );
    let timed_walks = walks(&mill) - warm_walks;
    println!("[perf_guard] wave of {WAVE}: batched {batched}ns vs per-session {per_session}ns");
    claim(
        &mut failures,
        "batched-wave-vs-per-session",
        per_session as f64 / batched as f64,
        1.0,
        "handshake_storm",
    );

    // --- Claim 18: a warm wave walks no chain. ---
    println!("[perf_guard] 7 warm waves of {WAVE}: {timed_walks} chain walks, must be 0");
    claim(
        &mut failures,
        "warm-wave-walks-no-chain",
        if timed_walks == 0 { 1.0 } else { 0.0 },
        1.0,
        "handshake_storm",
    );

    // --- Claim 4: 4 stripes ≥1.5× a single stream at 5% loss. ---
    // Sim seconds on a WAN with latency, through the same harness and
    // seeds as the recorded `striped_xfer` run (32 KiB, 5% drop).
    let world = striped_world(format!("striped world {:#x}", 0x5712u64).as_bytes());
    let data = striped_payload(32 * 1024);
    seed_file(&world, "/home/jdoe/bench.dat", &data);
    let cell = |stripes: u32| {
        let base = 0x5712u64 ^ (50u64 << 32) ^ ((stripes as u64) << 16);
        run_get_cell(&world, base, 0.05, Some(stripes), "/home/jdoe/bench.dat")
    };
    let single = cell(1);
    let four = cell(4);
    assert_eq!(single.bytes, data, "single-stream cell corrupted payload");
    assert_eq!(four.bytes, data, "four-stripe cell corrupted payload");
    println!(
        "[perf_guard] striped 32KiB at 5% loss: s4 {} s ({}B/s) vs s1 {} s ({}B/s)",
        four.secs, four.goodput, single.secs, single.goodput
    );
    claim(
        &mut failures,
        "striped-4-vs-1-at-5pct-loss",
        single.secs as f64 / four.secs.max(1) as f64,
        1.5,
        "striped_xfer",
    );

    // --- Claim 5: mill-batched poll establishment not slower than
    // per-session. ---
    // Full three-leg establishment, acceptor side timed: hello wave
    // (or per-session hello step) plus Finished processing. Client-side
    // work — initiator creation and ServerHello feeding — happens off
    // the clock in both arms, so the ratio isolates the acceptor path
    // the storm gateways run. The WaveAcceptor gets a warm-up wave so
    // the timed waves measure the steady state.
    const POLL_WAVE: usize = 24;
    let mut w = bench_world(b"perf guard poll wave");
    let server_cfg = TlsConfig::new(w.service.clone(), w.trust.clone(), 10);
    let mk_inits = |w: &mut gridsec_bench::BenchWorld| -> Vec<(InitiatorContext, Vec<u8>)> {
        (0..POLL_WAVE)
            .map(|_| {
                let cfg = TlsConfig::new(w.user.clone(), w.trust.clone(), 10);
                InitiatorContext::new(cfg, &mut w.rng)
            })
            .collect()
    };

    let mut wave_acceptor = WaveAcceptor::new(server_cfg.clone());
    let run_wave = |wave_acceptor: &mut WaveAcceptor, w: &mut gridsec_bench::BenchWorld| -> u128 {
        let inits = mk_inits(w);
        let mut parked = Vec::with_capacity(POLL_WAVE);
        let t = Instant::now();
        for (id, (_, hello)) in inits.iter().enumerate() {
            wave_acceptor.submit_hello(id as u64, hello.clone());
        }
        let replies = wave_acceptor.flush_wave(&mut w.rng);
        let acceptor_ns = t.elapsed().as_nanos();
        for ((id, reply), (init, _)) in replies.into_iter().zip(inits) {
            let (finished, _ctx) = init.step(&reply.expect("wave accepts")).unwrap();
            parked.push((id, finished));
        }
        let t = Instant::now();
        for (id, finished) in parked {
            std::hint::black_box(
                wave_acceptor
                    .submit_finished(id, &mut w.rng, &finished)
                    .expect("finished accepted"),
            );
        }
        acceptor_ns + t.elapsed().as_nanos()
    };
    run_wave(&mut wave_acceptor, &mut w); // warm-up: fills the pool

    // Baseline the same way (acceptor-side only) for a like-for-like
    // ratio: fresh pool-less acceptor per session.
    let (per_session_acceptor, batched) = interleaved_medians(
        7,
        &mut w,
        |w| {
            let mut acceptor_ns = 0u128;
            for (init, hello) in mk_inits(w) {
                let cfg = server_cfg.clone();
                let t = Instant::now();
                let (acceptor, server_hello) =
                    AcceptorContext::answer_hello(&hello, cfg, &mut w.rng).unwrap();
                acceptor_ns += t.elapsed().as_nanos();
                let (finished, _ctx) = init.step(&server_hello).unwrap();
                let t = Instant::now();
                std::hint::black_box(acceptor.step(&finished).unwrap());
                acceptor_ns += t.elapsed().as_nanos();
            }
            acceptor_ns
        },
        |w| run_wave(&mut wave_acceptor, w),
    );
    println!(
        "[perf_guard] poll wave of {POLL_WAVE}: batched {batched}ns vs \
         per-session {per_session_acceptor}ns (acceptor side)"
    );
    claim(
        &mut failures,
        "mill-batched-poll-vs-per-session",
        per_session_acceptor as f64 / batched as f64,
        1.0,
        "crypto_storm",
    );

    // --- Claim 6: recorded storm scale, bounded residency. ---
    // Reads the recorded artifacts: crypto_storm population ≥5× the
    // vo_storm population, and ≥20× its own live-task high-water mark.
    let dir = std::env::var("GRIDSEC_PERF_SOURCE_DIR")
        .unwrap_or_else(|_| "bench-results/after".to_string());
    let counter_from = |bench: &str, name: &str| -> Option<f64> {
        let text = std::fs::read_to_string(format!("{dir}/BENCH_{bench}.json")).ok()?;
        let needle = format!("\"name\": \"{name}\"");
        let line = text.lines().find(|l| l.contains(&needle))?;
        let value = line.split("\"value\": ").nth(1)?;
        value.trim_end_matches(['}', ',', ' ']).parse::<f64>().ok()
    };
    match (
        counter_from("crypto_storm", "cstorm.principals"),
        counter_from("vo_storm", "storm.principals"),
        counter_from("crypto_storm", "cstorm.live_high_water"),
    ) {
        (Some(cstorm), Some(vstorm), Some(live_hw)) if vstorm > 0.0 && live_hw > 0.0 => {
            println!(
                "[perf_guard] recorded storms: crypto_storm {cstorm:.0} principals, \
                 vo_storm {vstorm:.0}, crypto_storm live high-water {live_hw:.0}"
            );
            claim(
                &mut failures,
                "crypto-storm-vs-vo-storm-population",
                cstorm / vstorm,
                5.0,
                "crypto_storm",
            );
            claim(
                &mut failures,
                "crypto-storm-population-vs-live-high-water",
                cstorm / live_hw,
                20.0,
                "crypto_storm",
            );
        }
        _ => {
            eprintln!(
                "[perf_guard] storm-scale counters missing from {dir} \
                 (need BENCH_crypto_storm.json and BENCH_vo_storm.json)"
            );
            failures += 1;
        }
    }

    // --- Claim 8: the receive side of a protected message costs what
    // the send side does. ---
    const BODY: usize = 16 * 1024;
    let mut w = bench_world(b"perf guard wssc");
    let mut responder = WsscResponder::new(TlsConfig::new(w.service.clone(), w.trust.clone(), 10));
    let client_cfg = TlsConfig::new(w.user.clone(), w.trust.clone(), 10);
    let mut session = establish(client_cfg, &mut responder, &mut w.rng).expect("establishment");
    let env = Envelope::request("invoke", Element::new("p").with_text("x".repeat(BODY)));
    // Sequence numbers bind the order: protect a run of messages, then
    // open them in that order.
    let mut protected = Vec::new();
    let protect = median_ns(31, || protected.push(session.protect(&env)));
    let mut in_order = protected.iter();
    let unprotect = median_ns(31, || {
        let (_, inner) = responder
            .unprotect(in_order.next().expect("one per round"))
            .expect("in order");
        assert_eq!(inner.body, env.body);
    });
    println!("[perf_guard] protected 16 KiB: protect {protect}ns vs unprotect {unprotect}ns");
    claim(
        &mut failures,
        "wssc-protect-vs-unprotect",
        protect as f64 / unprotect as f64,
        0.5,
        "c1_message_protection",
    );
    let mut blob = vec![0u8; BODY];
    w.rng.fill_bytes(&mut blob);
    let text = b64::encode(&blob);
    assert_eq!(b64::decode(&text).as_deref(), Some(&blob[..]));
    let encode = median_ns(31, || {
        std::hint::black_box(b64::encode(std::hint::black_box(&blob)));
    });
    let decode = median_ns(31, || {
        std::hint::black_box(b64::decode(std::hint::black_box(&text)));
    });
    println!("[perf_guard] base64 16 KiB: encode {encode}ns vs decode {decode}ns");
    claim(
        &mut failures,
        "b64-decode-vs-encode",
        encode as f64 / decode as f64,
        0.3,
        "c1_message_protection",
    );

    // --- Claim 9: the 256-bit multiply stays inside its loop. ---
    let mut rng = ChaChaRng::from_seed_bytes(b"perf guard widths");
    let (b256, e256, m256) = sign_shape(&mut rng, 256);
    let (b512, e512, m512) = sign_shape(&mut rng, 512);
    let modexp_256 = || {
        std::hint::black_box(mod_pow(std::hint::black_box(&b256), &e256, &m256));
    };
    let modexp_512 = || {
        std::hint::black_box(mod_pow(std::hint::black_box(&b512), &e512, &m512));
    };
    let wide_vs_narrow = median_ratio(31, || {
        let narrow = time_ns(|| (0..64).for_each(|_| modexp_256()));
        let wide = time_ns(|| (0..8).for_each(|_| modexp_512()));
        (wide / 8.0) / (narrow / 64.0)
    });
    println!(
        "[perf_guard] modexp widths: one 512-bit costs {wide_vs_narrow:.2} 256-bit ones \
         (256-bit at {:.3}x)",
        1.0 / wide_vs_narrow
    );
    claim(
        &mut failures,
        "modexp-512-vs-256",
        wide_vs_narrow,
        1.0 / 0.16,
        "k1_modexp",
    );

    // --- Claim 10: a prime costs its sieved candidates, with nothing
    // spent confirming it. ---
    const SEARCHES: u64 = 64;
    const MODEXP_BUDGET: f64 = 40.0;
    let modexps_per_search = median_ratio(5, || {
        // A few modexps beside each search, so both sums sample the
        // same stretches of the run.
        let (mut modexps, mut searches) = (0.0, 0.0);
        for seed in 0..SEARCHES {
            modexps += time_ns(|| (0..4).for_each(|_| modexp_256()));
            let mut rng = ChaChaRng::from_seed_bytes(format!("perf guard prime {seed}").as_bytes());
            searches += time_ns(|| {
                std::hint::black_box(generate_prime(&mut rng, 256, 16));
            });
        }
        searches / (modexps / 4.0)
    });
    println!(
        "[perf_guard] prime search: generate_prime(256, 16) costs {modexps_per_search:.1} \
         256-bit modexps (mean of {SEARCHES} seeded searches), budget {MODEXP_BUDGET:.0}"
    );
    claim(
        &mut failures,
        "prime-search-within-modexp-budget",
        MODEXP_BUDGET / modexps_per_search,
        1.0,
        "k1_modexp",
    );

    // --- Claim 11: a 512-bit key is two prime searches. ---
    const KEYS: u64 = 256;
    let mut searches = 0u64;
    for seed in 0..KEYS {
        let seed = format!("perf guard keygen {seed}");
        let key = RsaKeyPair::generate(&mut ChaChaRng::from_seed_bytes(seed.as_bytes()), 512);
        // The same stream again, one bare pair of searches at a time,
        // until the pair `generate` kept comes out.
        let mut replay = ChaChaRng::from_seed_bytes(seed.as_bytes());
        loop {
            searches += 2;
            let p = generate_prime(&mut replay, 256, 16);
            let q = generate_prime(&mut replay, 256, 16);
            if (&p, &q) == key.primes() {
                break;
            }
        }
    }
    let searches_per_key = searches as f64 / KEYS as f64;
    println!(
        "[perf_guard] keygen: {searches_per_key:.3} prime searches per 512-bit key \
         (mean of {KEYS} seeded keys, counted by stream replay), must be 2.000"
    );
    claim(
        &mut failures,
        "keygen-512-is-two-searches",
        2.0 / searches_per_key,
        1.0,
        "k1_modexp",
    );

    // --- Claim 12: a sign-on's jobs resume its first step-7 context. ---
    const JOBS: u64 = 16;
    let mut w = bench_world(b"perf guard gram sign-on");
    let mut resource = GramResource::install(
        SimOs::new(),
        SimClock::starting_at(100),
        "node",
        w.trust.clone(),
        w.host.clone(),
        &GridMapFile::parse("\"/O=B/CN=User\" u1\n\"/O=B/CN=User2\" u2\n").unwrap(),
        GramConfig::default(),
    )
    .unwrap();
    let sign_on = grid_proxy_init(&mut w.rng, &w.user, ProxyOptions::default(), 100).unwrap();
    let mut requestor = Requestor::new(
        sign_on.credential().clone(),
        w.trust.clone(),
        b"perf guard requestor",
    );
    for n in 0..JOBS {
        let job = JobDescription::new("/bin/simulate").with_args(&[&n.to_string()]);
        requestor.submit_job(&mut resource, &job, 100).unwrap();
    }
    let (full, resumed) = (
        resource.stats.full_handshakes,
        resource.stats.resumed_handshakes,
    );
    println!(
        "[perf_guard] gram sign-on of {JOBS} jobs: {full} full + {resumed} resumed step-7 \
         handshakes, must be 1 + {}",
        JOBS - 1
    );
    claim(
        &mut failures,
        "gram-sign-on-is-one-full-handshake",
        if (full, resumed) == (1, JOBS - 1) {
            1.0
        } else {
            0.0
        },
        1.0,
        "f4_gram",
    );

    // --- Claim 13: an LMJFS delegates every job over one key. ---
    let one_user = resource.stats.delegation_keys;
    let one_user_walks = resource.signer_memo().misses();
    let user2 =
        w.ca.issue_identity(&mut w.rng, dn("/O=B/CN=User2"), KEY_BITS, 0, u64::MAX / 4);
    let sign_on = grid_proxy_init(&mut w.rng, &user2, ProxyOptions::default(), 100).unwrap();
    let mut requestor = Requestor::new(
        sign_on.credential().clone(),
        w.trust.clone(),
        b"perf guard requestor 2",
    );
    for n in 0..JOBS {
        let job = JobDescription::new("/bin/simulate").with_args(&[&n.to_string()]);
        requestor.submit_job(&mut resource, &job, 100).unwrap();
    }
    let two_users = resource.stats.delegation_keys;
    let two_users_walks = resource.signer_memo().misses();
    println!(
        "[perf_guard] gram delegation keys: {one_user} for one sign-on of {JOBS} jobs, \
         {two_users} after a second user's, must be 1 and 2"
    );
    claim(
        &mut failures,
        "gram-lmjfs-delegates-over-one-key",
        if (one_user, two_users) == (1, 2) {
            1.0
        } else {
            0.0
        },
        1.0,
        "f4_gram",
    );

    // --- Claim 14: step 2 walks a sign-on's chain once. ---
    println!(
        "[perf_guard] gram request chain walks: {one_user_walks} for one sign-on of {JOBS} \
         jobs, {two_users_walks} after a second user's, must be 1 and 2"
    );
    claim(
        &mut failures,
        "gram-sign-on-chain-walked-once",
        if (one_user_walks, two_users_walks) == (1, 2) {
            1.0
        } else {
            0.0
        },
        1.0,
        "f4_gram",
    );

    // --- Claim 15: the keystream runs four blocks wide. ---
    packed_adds_claim(
        &mut failures,
        "keystream-four-blocks-wide",
        "ChaCha20's four-lane rounds",
        &["6chacha11wide_blocks", "6chacha10xor_stream"],
        48,
    );

    // --- Claim 16: the SHA-256 schedule runs sixteen blocks wide. ---
    packed_adds_claim(
        &mut failures,
        "sha256-sixteen-blocks-wide",
        "Sha256::update",
        &["6Sha2566update"],
        16,
    );

    // --- Claim 17: a GridFTP server hashes each file version once. ---
    const GETRS: usize = 8;
    let world = striped_world(b"perf guard stored digest");
    let (os, uid) = {
        let server = world.server.borrow();
        let uid = server.os().uid_of("node1", "jdoe").expect("jdoe uid");
        (server.os().clone(), uid)
    };
    let file = striped_payload(256 * 1024);
    let digests_for = |overwrite: bool| {
        let mut rng = ChaChaRng::from_seed_bytes(b"perf guard getr session");
        let mut server = ServerSession::new(
            &world.server.borrow(),
            Dialect::Resumable,
            100,
            CrashPlan::disabled(),
        );
        // One frame in, every reply frame out: the server's whole turn.
        let mut turn = |server: &mut ServerSession, token: &[u8]| {
            server.feed(&frame(token));
            server.drive(&mut rng);
            server
                .take_output()
                .iter()
                .flat_map(|r| frame(r))
                .collect::<Vec<u8>>()
        };
        let config = TlsConfig::new(world.user.clone(), world.trust.clone(), 100);
        let (mut connector, hello) = ClientConnector::new(
            config,
            &mut ChaChaRng::from_seed_bytes(b"perf guard client"),
        );
        connector.feed(&turn(&mut server, &hello));
        let (finished, mut client) = connector
            .advance()
            .expect("handshake")
            .expect("server hello complete");
        client.feed(&turn(&mut server, &finished));
        assert!(client.next_message().expect("greeting").is_some());
        let before = os.digests_computed();
        for n in 0..GETRS {
            if overwrite || n == 0 {
                let mut version = file.clone();
                version[0] = n as u8;
                os.write_file(
                    "node1",
                    "/home/jdoe/getr.dat",
                    uid,
                    FileMode::private(),
                    version,
                )
                .expect("write the file");
            }
            let request = client.send(b"GETR /home/jdoe/getr.dat 0");
            client.feed(&turn(&mut server, &request));
            let mut received = 0;
            while let Some(msg) = client.next_message().expect("records open") {
                received += msg.len();
            }
            assert!(received > file.len(), "header and whole file");
        }
        os.digests_computed() - before
    };
    let (unchanged, overwritten) = (digests_for(false), digests_for(true));
    println!(
        "[perf_guard] gridftp digests: {unchanged} for {GETRS} GETRs of an unchanged \
         256 KiB file, {overwritten} when it is overwritten before each, must be 1 and {GETRS}"
    );
    claim(
        &mut failures,
        "gridftp-file-version-hashed-once",
        if (unchanged, overwritten) == (1, GETRS as u64) {
            1.0
        } else {
            0.0
        },
        1.0,
        "striped_xfer",
    );

    if failures > 0 {
        eprintln!("[perf_guard] {failures} perf claim(s) regressed");
        std::process::exit(1);
    }
    println!("[perf_guard] all perf claims hold");
}
