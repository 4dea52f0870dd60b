//! VO-storm scale bench: run `scenarios::vo_storm` at 10⁵ principals
//! (one scheduled task each, zero threads) and emit the storm's trace
//! metrics as `BENCH_vo_storm.json`.
//!
//! Every metric except wall time is a pure function of the seed, so CI
//! runs a reduced-scale version twice and byte-compares the metrics
//! files plus the deterministic render (see `scripts/verify.sh`).
//!
//! Usage:
//!
//! ```text
//! vo_storm [--seed 0x570A11] [--principals 100000] [--metrics-out FILE]
//! # reports -> $GRIDSEC_BENCH_DIR (default .)
//! ```
//!
//! `--metrics-out FILE` additionally writes the deterministic render
//! (report header + metrics, no wall time) to FILE — the artifact the
//! CI two-run gate compares.

use gridsec_bench::parse_u64;
use gridsec_integration::scenarios::vo_storm::{run_vo_storm, StormOpts};

fn main() {
    let mut seed: u64 = 0x0057_0A11;
    let mut principals: usize = 100_000;
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
    let report = run_vo_storm(&StormOpts::new(principals, seed));

    if let Some(path) = &metrics_out {
        std::fs::write(path, report.deterministic_render()).expect("write --metrics-out file");
    }
    // The BENCH artifact = deterministic counters + wall-clock
    // throughput rows (two-run CI compares the render, not this file).
    let mut bench = report.metrics.clone();
    bench
        .counters
        .insert("storm.principals".into(), report.principals as u64);
    bench
        .counters
        .insert("storm.live_high_water".into(), report.sched.live_high_water);
    bench
        .counters
        .insert("storm.wall_ms".into(), report.wall_ms as u64);
    bench.counters.insert(
        "storm.flows_per_sec".into(),
        (report.completed as u128 * 1000)
            .checked_div(report.wall_ms)
            .unwrap_or(0) as u64,
    );
    bench.counters.insert(
        "storm.messages_per_sec".into(),
        (report.traffic.messages as u128 * 1000)
            .checked_div(report.wall_ms)
            .unwrap_or(0) as u64,
    );
    let path = bench
        .write_bench_json("vo_storm", &dir)
        .expect("write BENCH_vo_storm.json");

    println!(
        "vo_storm: seed=0x{seed:016x} principals={} completed={} failed={} \
         sim_s={} msgs={} retx={} steps={} flows/sim_s={:.1} wall_ms={} -> {path}",
        report.principals,
        report.completed,
        report.failed,
        report.sim_seconds,
        report.traffic.messages,
        report
            .metrics
            .counters
            .get("storm.retransmissions")
            .copied()
            .unwrap_or(0),
        report.sched.steps,
        report.flows_per_sim_second(),
        report.wall_ms,
    );
}
