//! Crypto-storm scale bench: run `scenarios::crypto_storm` at 5×10⁵
//! principals — every one performing real per-session handshake crypto
//! against mill gateways, zero threads — and emit the storm's trace
//! metrics as `BENCH_crypto_storm.json`.
//!
//! Every metric except wall time is a pure function of the seed, so CI
//! runs a reduced-scale version twice and byte-compares the metrics
//! files plus the deterministic render (see `scripts/verify.sh`). The
//! recorded BENCH json additionally carries wall-clock throughput rows
//! (`cstorm.wall_ms`, `cstorm.established_per_sec`) — those are
//! measurements, not invariants, and stay out of the deterministic
//! render.
//!
//! Usage:
//!
//! ```text
//! crypto_storm [--seed 0xC57] [--principals 500000] [--metrics-out FILE]
//! # reports -> $GRIDSEC_BENCH_DIR (default .)
//! ```

use gridsec_bench::parse_u64;
use gridsec_integration::scenarios::crypto_storm::{run_crypto_storm, CryptoStormOpts};

fn main() {
    let mut seed: u64 = 0x0000_0C57;
    let mut principals: usize = 500_000;
    let mut metrics_out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                seed = parse_u64(&args.next().expect("--seed needs a value"), "seed");
            }
            "--principals" => {
                principals = parse_u64(
                    &args.next().expect("--principals needs a value"),
                    "principals",
                ) as usize;
            }
            "--metrics-out" => {
                metrics_out = Some(args.next().expect("--metrics-out needs a value"));
            }
            other => {
                eprintln!("unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }

    let dir = std::env::var("GRIDSEC_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
    let report = run_crypto_storm(&CryptoStormOpts::new(principals, seed));

    if let Some(path) = &metrics_out {
        std::fs::write(path, report.deterministic_render()).expect("write --metrics-out file");
    }

    // The BENCH artifact = deterministic counters + wall-clock
    // throughput rows (two-run CI compares the render, not this file).
    let mut bench = report.metrics.clone();
    bench
        .counters
        .insert("cstorm.principals".into(), report.principals as u64);
    bench.counters.insert(
        "cstorm.live_high_water".into(),
        report.sched.live_high_water,
    );
    bench
        .counters
        .insert("cstorm.wall_ms".into(), report.wall_ms as u64);
    bench.counters.insert(
        "cstorm.established_per_sec".into(),
        report.flows_per_wall_second() as u64,
    );
    bench.counters.insert(
        "cstorm.messages_per_sec".into(),
        (report.traffic.messages as u128 * 1000)
            .checked_div(report.wall_ms)
            .unwrap_or(0) as u64,
    );
    let path = bench
        .write_bench_json("crypto_storm", &dir)
        .expect("write BENCH_crypto_storm.json");

    println!(
        "crypto_storm: seed=0x{seed:016x} principals={} established={} rejected={} \
         sim_s={} msgs={} waves={} live_hw={} steps={} est/wall_s={:.1} wall_ms={} -> {path}",
        report.principals,
        report.established,
        report.rejected,
        report.sim_seconds,
        report.traffic.messages,
        report
            .metrics
            .counters
            .get("cstorm.gw.waves")
            .copied()
            .unwrap_or(0),
        report.sched.live_high_water,
        report.sched.steps,
        report.flows_per_wall_second(),
        report.wall_ms,
    );
}
