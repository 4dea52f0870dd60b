//! Driver ≡ scenario: at reduced scale and the scenarios' default seeds,
//! the `establish_storm` and `vo_flows` drivers' deterministic counters
//! equal the recorded storms' (`scenarios::crypto_storm`,
//! `scenarios::vo_storm`), so the benchmark cannot drift from what
//! EXPERIMENTS.md §S3 records.

use gridbench::harness::{Config, Workload};
use gridbench::workloads::establish_storm::{EstablishStorm, StormOpts};
use gridbench::workloads::vo_flows::{run_storm, FlowOpts};
use gridsec_integration::scenarios::crypto_storm::{run_crypto_storm, CryptoStormOpts};
use gridsec_integration::scenarios::vo_storm::{run_vo_storm, StormOpts as VoStormOpts};

#[test]
fn establish_storm_slice_zero_equals_the_recorded_crypto_storm() {
    const SEED: u64 = 0x0C57;
    const PRINCIPALS: usize = 600;
    let reference = run_crypto_storm(&CryptoStormOpts {
        credentials: 16,
        ..CryptoStormOpts::new(PRINCIPALS, SEED)
    });

    let mut driver = EstablishStorm::with_opts(
        &Config::new(SEED),
        StormOpts {
            cohort: PRINCIPALS,
            credentials: 16,
            gateways: 4,
            start_spread: 60,
            reject_every: 97,
        },
    );
    let out = driver.slice(0);
    let totals = driver.totals();
    let [hits, misses, _, _] = driver.pool_stats();

    let counter = |name: &str| reference.metrics.counters.get(name).copied().unwrap_or(0);
    assert_eq!(totals.counters.established, reference.established);
    assert_eq!(totals.counters.rejected, reference.rejected);
    assert_eq!(totals.counters.waves, counter("cstorm.gw.waves"));
    assert_eq!(totals.messages, reference.traffic.messages);
    assert_eq!(totals.bytes, reference.traffic.bytes);
    assert_eq!(totals.sched, reference.sched);
    assert_eq!(
        (hits, misses),
        (reference.validator_hits, reference.validator_misses)
    );
    // And the slice's own tally is those same numbers.
    assert_eq!(out.ok, reference.established);
    assert_eq!(out.attempted, PRINCIPALS as u64);
    assert_eq!(out.failed, 0);
    assert_eq!(out.msgs, reference.traffic.messages);
}

#[test]
fn vo_flows_storm_equals_the_recorded_vo_storm() {
    const SEED: u64 = 0x0057_0A11;
    const PRINCIPALS: usize = 1200;
    let reference = run_vo_storm(&VoStormOpts::new(PRINCIPALS, SEED));
    let counts = run_storm(&FlowOpts::new(PRINCIPALS), SEED);

    let counter = |name: &str| reference.metrics.counters.get(name).copied().unwrap_or(0);
    assert_eq!(counts.completed, reference.completed);
    assert_eq!(counts.failed, reference.failed);
    assert_eq!(counts.retransmissions, counter("storm.retransmissions"));
    assert_eq!(counts.answered, counter("storm.gw.answered"));
    assert_eq!(counts.messages, reference.traffic.messages);
    assert_eq!(counts.bytes, reference.traffic.bytes);
    assert_eq!(counts.faults, reference.fault_stats);
    assert_eq!(counts.sched, reference.sched);
    assert!(counts.sched.live_high_water >= PRINCIPALS as u64);
}
