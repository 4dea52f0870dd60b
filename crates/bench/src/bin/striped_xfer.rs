//! Striped-transfer goodput bench: fetch one seeded payload over a WAN
//! with 1–4 s latency across the loss × parallelism grid — drop rates
//! {0%, 1%, 5%} × {1, 2, 4, 8 pinned stripes, the adaptive AIMD
//! controller} — and record every cell's goodput in bytes per sim
//! second.
//!
//! Time is the world's sim clock, so **every** figure in
//! `BENCH_striped_xfer.json` is a pure function of the seed: CI runs a
//! reduced-scale version twice and byte-compares the `--metrics-out`
//! render. Wall time goes to stdout only. The ≥1.5× striping-vs-single-
//! stream gate lives in `perf_guard`, which recomputes the same two
//! cells through the same harness.
//!
//! Usage:
//!
//! ```text
//! striped_xfer [--seed 0x5712] [--bytes 32768] [--metrics-out FILE]
//! # reports -> $GRIDSEC_BENCH_DIR (default .)
//! ```

use std::collections::BTreeMap;
use std::time::Instant;

use gridsec_bench::parse_u64;
use gridsec_bench::striped::{run_get_cell, seed_file, striped_payload, striped_world};
use gridsec_util::trace::MetricsSnapshot;

const LOSSES_PERMILLE: [u64; 3] = [0, 10, 50];
/// Pinned stripe counts; 0 is the adaptive controller.
const STRIPE_COUNTS: [u32; 5] = [1, 2, 4, 8, 0];
const PATH: &str = "/home/jdoe/bench.dat";

/// Cell seed: isolates every (loss, stripes) cell's loss-layer and
/// controller draws. `stripes = 0` encodes the adaptive cell.
fn cell_seed(seed: u64, loss_permille: u64, stripes: u32) -> u64 {
    seed ^ (loss_permille << 32) ^ ((stripes as u64) << 16)
}

fn main() {
    let mut seed: u64 = 0x5712;
    let mut bytes: usize = 32 * 1024;
    let mut metrics_out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |what: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{what} needs a value"))
        };
        match arg.as_str() {
            "--seed" => seed = parse_u64(&take("--seed"), "seed"),
            "--bytes" => bytes = parse_u64(&take("--bytes"), "bytes") as usize,
            "--metrics-out" => metrics_out = Some(take("--metrics-out")),
            other => {
                eprintln!("unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    let bytes = bytes.max(1024);

    let world = striped_world(format!("striped world {seed:#x}").as_bytes());
    let data = striped_payload(bytes);
    seed_file(&world, PATH, &data);

    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    counters.insert("striped.bytes".into(), bytes as u64);
    let t0 = Instant::now();

    let mut record = |label: String, loss_permille: u64, stripes: u32| {
        let drop = loss_permille as f64 / 1000.0;
        let pinned = (stripes > 0).then_some(stripes);
        let out = run_get_cell(
            &world,
            cell_seed(seed, loss_permille, stripes),
            drop,
            pinned,
            PATH,
        );
        assert_eq!(out.bytes, data, "cell {label} corrupted the payload");
        counters.insert(format!("{label}.secs"), out.secs);
        counters.insert(format!("{label}.goodput_bps"), out.goodput);
        counters.insert(format!("{label}.tears"), out.tears as u64);
        counters.insert(format!("{label}.sessions"), out.sessions as u64);
        counters.insert(format!("{label}.peak_stripes"), out.peak_stripes as u64);
        println!(
            "striped_xfer: {label} loss={}% secs={} goodput={}B/s tears={} sessions={} peak={}",
            loss_permille / 10,
            out.secs,
            out.goodput,
            out.tears,
            out.sessions,
            out.peak_stripes,
        );
    };

    for &lp in &LOSSES_PERMILLE {
        for &s in &STRIPE_COUNTS {
            let cell = if s == 0 {
                "adaptive".to_string()
            } else {
                format!("s{s}")
            };
            record(format!("striped.l{lp:03}.{cell}"), lp, s);
        }
    }

    let metrics = MetricsSnapshot {
        counters,
        hists: BTreeMap::new(),
    };
    if let Some(path) = &metrics_out {
        let mut render = format!("striped_xfer seed=0x{seed:x} bytes={bytes}\n");
        render.push_str(&metrics.render());
        std::fs::write(path, render).expect("write --metrics-out file");
    }
    let dir = std::env::var("GRIDSEC_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
    let path = metrics
        .write_bench_json("striped_xfer", &dir)
        .expect("write BENCH_striped_xfer.json");
    println!(
        "striped_xfer: seed=0x{seed:x} bytes={bytes} cells={} wall_ms={} -> {path}",
        LOSSES_PERMILLE.len() * STRIPE_COUNTS.len(),
        t0.elapsed().as_millis(),
    );
}
