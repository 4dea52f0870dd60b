//! VO-scale load storm over the discrete-event scheduler.
//!
//! The paper's architecture is sized for virtual-organization
//! populations, but the thread-per-endpoint testbed capped chaos runs
//! at a few hundred principals. This generator drives **tens to
//! hundreds of thousands** of concurrent principals through
//! message-level emulations of the paper's two canonical flows —
//! figure 1 (GSI context establishment + a secured request) and
//! figure 4 (GRAM job submission with delegation) — in one process,
//! every principal a resumable [`Task`] on one
//! [`Scheduler`](gridsec_testbed::sched::Scheduler).
//!
//! The emulation is *message-shaped*, not crypto-real: each flow is its
//! sequence of request/reply legs with paper-scale payload sizes, run
//! through the full retry/RPC framing
//! ([`PollingCall`](gridsec_testbed::rpc::PollingCall)) over the seeded
//! fault layer. Real RSA/DH handshakes cost ~milliseconds each, which
//! at 10⁵ principals would measure the crypto kernel, not the
//! event-loop; the cryptographic correctness of both flows is already
//! covered end-to-end by the chaos suite. What the storm measures is
//! what only scale can: scheduler throughput, retry behavior under
//! congestion-free loss, and latency distributions across a population.
//!
//! Everything observable — flow latency histograms, throughput
//! counters, fault stats, scheduler stats — is a pure function of
//! [`StormOpts::seed`]. [`StormReport::deterministic_render`] is the
//! byte-identical two-run CI artifact; wall-clock time is reported
//! separately and excluded from it. The gateways, the leg runner and
//! the rig are `scenarios::storm`'s.

use std::fmt::Write as _;

use gridsec_testbed::net::{Endpoint, FaultStats, TrafficStats};
use gridsec_testbed::sched::{SchedStats, Step, Task, TaskCx};
use gridsec_util::rng::{DetRng, RngCore};
use gridsec_util::trace::{self, MetricsSnapshot};

use super::storm::{render_wire, Gateway, LegPoll, Legs, Rig};

/// Figure-1 legs (request, reply) in bytes: two GSS token rounds, then
/// the secured application exchange (paper §3, figure 1 shape).
const FIG1_LEGS: &[(usize, usize)] = &[(620, 380), (240, 160), (410, 300)];

/// Figure-4 legs: submit, two GSS rounds with the gatekeeper,
/// delegation request/chain, job start, job state (paper §5, figure 4
/// shape).
const FIG4_LEGS: &[(usize, usize)] = &[
    (300, 90),
    (620, 380),
    (240, 160),
    (150, 520),
    (680, 120),
    (200, 90),
    (120, 140),
];

/// Per-mille of principals running the figure-4 GRAM flow; the rest
/// run figure 1.
const FIG4_PERMILLE: u64 = 300;

/// Storm configuration. Everything that affects behavior is explicit
/// or derived from it, so a report names its own reproduction.
#[derive(Clone, Debug)]
pub struct StormOpts {
    /// Number of principals (one scheduled task + endpoint each).
    pub principals: usize,
    /// Master seed: fault layer, flow mix, gateway assignment, stagger.
    pub seed: u64,
    /// Start-time stagger window in sim seconds (uniform draw).
    pub start_spread: u64,
}

impl StormOpts {
    /// Defaults for a population of `principals` under `seed`: a
    /// 10-minute stagger window.
    pub fn new(principals: usize, seed: u64) -> Self {
        StormOpts {
            principals,
            seed,
            start_spread: 600,
        }
    }
}

/// Everything one storm run produced. All fields except `wall_ms` are
/// pure functions of the seed.
#[derive(Clone, Debug)]
pub struct StormReport {
    /// Population size.
    pub principals: usize,
    /// Flows that completed every leg.
    pub completed: u64,
    /// Flows that exhausted a leg's retry budget.
    pub failed: u64,
    /// Sim time at quiescence.
    pub sim_seconds: u64,
    /// Network traffic (messages/bytes delivered).
    pub traffic: TrafficStats,
    /// Fault-layer counters.
    pub fault_stats: FaultStats,
    /// Scheduler counters.
    pub sched: SchedStats,
    /// Trace counters + latency histograms.
    pub metrics: MetricsSnapshot,
    /// Wall-clock duration (NOT deterministic; excluded from the
    /// deterministic render).
    pub wall_ms: u128,
}

impl StormReport {
    /// The byte-identical-per-seed artifact the CI gate compares across
    /// two runs: population, outcomes, traffic, fault and scheduler
    /// counters, and the full metrics render — everything except wall
    /// time.
    pub fn deterministic_render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "storm principals={} completed={} failed={} sim_seconds={}",
            self.principals, self.completed, self.failed, self.sim_seconds
        );
        render_wire(&mut out, &self.traffic, &self.fault_stats, &self.sched);
        out.push_str(&self.metrics.render());
        out
    }

    /// Completed flows per simulated second (the storm's headline
    /// throughput figure).
    pub fn flows_per_sim_second(&self) -> f64 {
        if self.sim_seconds == 0 {
            return 0.0;
        }
        self.completed as f64 / self.sim_seconds as f64
    }
}

/// One principal: sleeps until its staggered start, then runs its
/// flow's legs back to back, the next leg in the same step.
struct Principal {
    ep: Endpoint,
    gateway: String,
    fig4: bool,
    legs: Legs,
    start_at: u64,
    began: Option<u64>,
}

impl Task for Principal {
    fn step(&mut self, cx: &TaskCx) -> Step {
        let now = cx.now();
        let began = match self.began {
            Some(began) => began,
            None if now < self.start_at => return Step::Sleep(self.start_at),
            None => *self.began.insert(now),
        };
        loop {
            match self.legs.poll(&self.ep, &self.gateway, now) {
                LegPoll::Leg => {}
                LegPoll::Flow => {
                    let latency = now - began;
                    if self.fig4 {
                        trace::record("storm.fig4.latency_s", latency);
                        trace::add("storm.fig4.completed", 1);
                    } else {
                        trace::record("storm.fig1.latency_s", latency);
                        trace::add("storm.fig1.completed", 1);
                    }
                    trace::add("storm.flows.completed", 1);
                    if self.legs.retransmissions > 0 {
                        trace::add("storm.retransmissions", self.legs.retransmissions);
                    }
                    return Step::Done;
                }
                LegPoll::Wait(deadline) => {
                    return Step::WaitMail {
                        deadline: Some(deadline),
                    }
                }
                LegPoll::Exhausted => {
                    trace::add("storm.flows.failed", 1);
                    return Step::Done;
                }
            }
        }
    }
}

/// Run the storm to quiescence and report.
pub fn run_vo_storm(opts: &StormOpts) -> StormReport {
    let mut rig = Rig::lossy(opts.seed);
    // VO gateways, scaled to the population.
    let count = (opts.principals / 4096).clamp(4, 64);
    let gateways = rig.spawn_gateways("vo-gw", count, |_, ep| Gateway::new(ep, true));

    let mut rng = DetRng::seed_from_u64(opts.seed ^ 0x5702_4A11);
    for i in 0..opts.principals {
        let fig4 = rng.next_u64() % 1000 < FIG4_PERMILLE;
        let gateway = gateways[rng.next_u64() as usize % gateways.len()].clone();
        let start_at = if opts.start_spread == 0 {
            0
        } else {
            rng.next_u64() % (opts.start_spread + 1)
        };
        rig.spawn(&format!("p{i}"), |ep| Principal {
            ep,
            gateway,
            fig4,
            legs: Legs::new(if fig4 { FIG4_LEGS } else { FIG1_LEGS }),
            start_at,
            began: None,
        });
    }

    let run = rig.finish();
    StormReport {
        principals: opts.principals,
        completed: run.counter("storm.flows.completed"),
        failed: run.counter("storm.flows.failed"),
        sim_seconds: run.sim_seconds,
        traffic: run.traffic,
        fault_stats: run.fault_stats,
        sched: run.sched,
        metrics: run.metrics,
        wall_ms: run.wall_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_storm_completes_and_is_deterministic() {
        let opts = StormOpts::new(1200, 0x0057_0A11);
        let r1 = run_vo_storm(&opts);
        let r2 = run_vo_storm(&opts);
        assert_eq!(
            r1.deterministic_render(),
            r2.deterministic_render(),
            "same seed, byte-identical storm report"
        );
        assert_eq!(
            r1.completed + r1.failed,
            1200,
            "every flow reached a verdict"
        );
        assert!(
            r1.completed >= 1195,
            "1% loss with 8 attempts virtually never exhausts: {} completed",
            r1.completed
        );
        assert!(
            r1.metrics
                .counters
                .get("storm.retransmissions")
                .copied()
                .unwrap_or(0)
                > 0,
            "1% loss over thousands of messages must retransmit"
        );
        let h = r1.metrics.hists.get("storm.fig1.latency_s").unwrap();
        assert!(h.count > 0 && h.max >= h.min);
        // A different seed is a different storm.
        let r3 = run_vo_storm(&StormOpts::new(1200, 0x0057_0A12));
        assert_ne!(r1.deterministic_render(), r3.deterministic_render());
    }

    #[test]
    fn storm_scales_population_not_threads() {
        // 20k principals (and their ~28k tasks' worth of traffic) in
        // one process, no spawned threads: the tentpole claim at a
        // test-budget scale. The bench bin runs the 10⁵ version.
        let mut opts = StormOpts::new(20_000, 0xB16_570A);
        opts.start_spread = 1200;
        let r = run_vo_storm(&opts);
        assert_eq!(r.completed + r.failed, 20_000);
        assert!(r.completed >= 19_900);
        assert!(r.sched.steps > 100_000, "steps: {}", r.sched.steps);
    }
}
