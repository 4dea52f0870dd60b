//! Cross-commit chaos goldens: the way a chaos scenario builds its
//! world (network, clock, scheduler, tracer, audit log, crash plans) may
//! be restructured, what a seeded run observes may not move.
//!
//! Each `chaos.*` pin in `tests/golden.pins` holds the SHA-256 and
//! length of one whole deterministic render at the chaos suite's default
//! seed: the five paper figures together (`run_all`, whose transcript
//! ends in a totals line), the cross-domain VO submission and the
//! portal's initiator-death recovery, each with no crashes, with seeded
//! crashes, and under a total partition. A render is completion (the
//! single scenarios), crash, restart and audit-record counts, the
//! transcript and the trace dump with its metrics — the same shape as
//! the `xfer.fig5s.*` pins of the striped figure.

use gridsec_crypto::sha256::sha256;
use gridsec_integration::scenarios::portal::portal_recovery;
use gridsec_integration::scenarios::{cross_domain_vo, run_all, ChaosOpts, ScenarioReport};
use gridsec_util::pins;

/// The chaos suite's default master seed (`tests/chaos.rs`).
const CHAOS_SEED: u64 = 0xC4A0_5EED;

/// Hold `render` to the pin `name`; a failing run prints it.
fn check_render(name: &str, render: &str) {
    println!("{name}:\n{render}");
    pins::check(name, sha256(render.as_bytes()), render.len());
}

/// The three modes every pinned scenario runs in, by pin suffix.
fn modes() -> [(&'static str, ChaosOpts); 3] {
    [
        ("default", ChaosOpts::default()),
        (
            "crashes",
            ChaosOpts {
                crashes: true,
                ..ChaosOpts::default()
            },
        ),
        (
            "partition",
            ChaosOpts {
                partition_all: true,
                ..ChaosOpts::default()
            },
        ),
    ]
}

fn render_report(r: &ScenarioReport) -> String {
    format!(
        "completed={} crashes={} restarts={} audit={}\n{}\n{}",
        r.completed,
        r.crashes,
        r.restarts,
        r.audit_records,
        r.lines.join("\n"),
        r.trace
    )
}

#[test]
fn run_all_renders_are_the_recorded_ones() {
    for (mode, opts) in modes() {
        let r = run_all(CHAOS_SEED, &opts);
        let render = format!(
            "crashes={} restarts={} audit={}\n{}{}",
            r.crashes, r.restarts, r.audit_records, r.transcript, r.trace
        );
        check_render(&format!("chaos.run_all.{mode}"), &render);
    }
}

#[test]
fn cross_domain_vo_renders_are_the_recorded_ones() {
    for (mode, opts) in modes() {
        let render = render_report(&cross_domain_vo(CHAOS_SEED, &opts));
        check_render(&format!("chaos.cross_domain_vo.{mode}"), &render);
    }
}

#[test]
fn portal_recovery_renders_are_the_recorded_ones() {
    for (mode, opts) in modes() {
        let render = render_report(&portal_recovery(CHAOS_SEED, &opts));
        check_render(&format!("chaos.portal_recovery.{mode}"), &render);
    }
}
