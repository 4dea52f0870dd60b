//! VO-scale load storm over the discrete-event scheduler.
//!
//! The paper's architecture is sized for virtual-organization
//! populations, but the thread-per-endpoint testbed capped chaos runs
//! at a few hundred principals. This generator drives **tens to
//! hundreds of thousands** of concurrent principals through
//! message-level emulations of the paper's two canonical flows —
//! figure 1 (GSI context establishment + a secured request) and
//! figure 4 (GRAM job submission with delegation) — in one process,
//! every principal a resumable [`Task`] on one [`Scheduler`].
//!
//! The emulation is *message-shaped*, not crypto-real: each flow is its
//! sequence of request/reply legs with paper-scale payload sizes, run
//! through the full retry/RPC framing ([`PollingCall`]) over the seeded
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
//! separately and excluded from it.
//!
//! The gateway emulation is stateless (every reply is a function of the
//! request), so duplicates are re-answered by recomputation rather than
//! an at-most-once reply cache — caching ~10⁵ replies would dominate
//! memory without changing any observable. The real at-most-once
//! discipline is exercised by the chaos suite's stateful services.

use std::fmt::Write as _;

use gridsec_testbed::clock::SimClock;
use gridsec_testbed::net::{Endpoint, FaultProfile, FaultStats, Network, TrafficStats};
use gridsec_testbed::rpc::{self, CallPoll, PollingCall};
use gridsec_testbed::sched::{SchedStats, Scheduler, Step, Task, TaskCx};
use gridsec_util::retry::RetryPolicy;
use gridsec_util::rng::{DetRng, RngCore};
use gridsec_util::trace::{self, MetricsSnapshot, Tracer};

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

const FIG1_TAG: u8 = 1;
const FIG4_TAG: u8 = 4;

fn legs_for(tag: u8) -> &'static [(usize, usize)] {
    if tag == FIG4_TAG {
        FIG4_LEGS
    } else {
        FIG1_LEGS
    }
}

/// Storm configuration. Everything that affects behavior is explicit,
/// so a report names its own reproduction.
#[derive(Clone, Debug)]
pub struct StormOpts {
    /// Number of principals (one scheduled task + endpoint each).
    pub principals: usize,
    /// Master seed: fault layer, flow mix, gateway assignment, stagger.
    pub seed: u64,
    /// Per-mille of principals running the figure-4 GRAM flow; the
    /// rest run figure 1.
    pub fig4_permille: u32,
    /// Start-time stagger window in sim seconds (uniform draw).
    pub start_spread: u64,
    /// VO gateway endpoints the population is sharded across.
    pub gateways: usize,
    /// Fault profile for every link.
    pub profile: FaultProfile,
    /// Retry policy for every leg.
    pub policy: RetryPolicy,
}

impl StormOpts {
    /// Defaults for a population of `principals` under `seed`: 30%
    /// figure-4, a 10-minute stagger window, gateway count scaled to
    /// the population, the light-loss WAN profile, and the chaos
    /// suite's retry policy.
    pub fn new(principals: usize, seed: u64) -> Self {
        StormOpts {
            principals,
            seed,
            fig4_permille: 300,
            start_spread: 600,
            gateways: (principals / 4096).clamp(4, 64),
            profile: Self::storm_wan(),
            policy: super::policy(),
        }
    }

    /// The storm's WAN: 1% loss, 1% duplication, 1–3s latency, 5%
    /// reorder jitter — lossy enough to exercise retransmission on a
    /// meaningful fraction of 10⁵ flows, reliable enough that the
    /// retry budget virtually never exhausts.
    pub(crate) fn storm_wan() -> FaultProfile {
        FaultProfile {
            drop: 0.01,
            duplicate: 0.01,
            max_extra_copies: 1,
            min_latency: 1,
            max_latency: 3,
            reorder: 0.05,
            reorder_jitter: 2,
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
        let _ = writeln!(
            out,
            "traffic messages={} bytes={}",
            self.traffic.messages, self.traffic.bytes
        );
        let f = &self.fault_stats;
        let _ = writeln!(
            out,
            "faults sent={} delivered={} dropped={} duplicated={} blocked={}",
            f.sent, f.delivered, f.dropped, f.duplicated, f.blocked
        );
        let s = &self.sched;
        let _ = writeln!(
            out,
            "sched spawned={} completed={} steps={} clock_advances={} mail_wakes={} timer_wakes={}",
            s.spawned, s.completed, s.steps, s.clock_advances, s.mail_wakes, s.timer_wakes
        );
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

/// A VO gateway: answers every leg of both flows, statelessly.
struct Gateway {
    ep: Endpoint,
}

impl Task for Gateway {
    fn step(&mut self, _cx: &TaskCx) -> Step {
        let mut answered = 0u64;
        while let Some(m) = self.ep.try_recv() {
            let Some((id, body)) = rpc::decode_request(&m.payload) else {
                continue;
            };
            // body[0] = flow tag, body[1] = leg index; anything shorter
            // or out of range is answered with an empty reply rather
            // than dropped, so a corrupted frame fails fast client-side.
            let reply_len = body
                .first()
                .zip(body.get(1))
                .and_then(|(tag, leg)| legs_for(*tag).get(*leg as usize))
                .map(|(_, rep)| *rep)
                .unwrap_or(0);
            let _ = self
                .ep
                .send(&m.from, rpc::encode_reply(id, &vec![0u8; reply_len]));
            answered += 1;
        }
        if answered > 0 {
            trace::add("storm.gw.answered", answered);
        }
        Step::WaitMail { deadline: None }
    }
}

/// One principal: sleeps until its staggered start, then runs its
/// flow's legs as sequential [`PollingCall`]s.
struct Principal {
    ep: Endpoint,
    gateway: String,
    tag: u8,
    leg: usize,
    call: Option<PollingCall>,
    start_at: u64,
    began: Option<u64>,
    retransmissions: u64,
    policy: RetryPolicy,
}

impl Task for Principal {
    fn step(&mut self, cx: &TaskCx) -> Step {
        let now = cx.now();
        if self.began.is_none() {
            if now < self.start_at {
                return Step::Sleep(self.start_at);
            }
            self.began = Some(now);
        }
        let legs = legs_for(self.tag);
        loop {
            if self.call.is_none() {
                let (req_len, _) = legs[self.leg];
                let mut payload = vec![0u8; req_len.max(2)];
                payload[0] = self.tag;
                payload[1] = self.leg as u8;
                self.call = Some(PollingCall::new(
                    &self.gateway,
                    (self.leg + 1) as u64,
                    &payload,
                    self.policy,
                ));
            }
            let call = self.call.as_mut().expect("just ensured");
            match call.poll(&self.ep, now) {
                CallPoll::Ready(_reply) => {
                    self.retransmissions += call.retransmissions();
                    self.call = None;
                    self.leg += 1;
                    if self.leg == legs.len() {
                        let latency = now - self.began.expect("began set");
                        if self.tag == FIG4_TAG {
                            trace::record("storm.fig4.latency_s", latency);
                            trace::add("storm.fig4.completed", 1);
                        } else {
                            trace::record("storm.fig1.latency_s", latency);
                            trace::add("storm.fig1.completed", 1);
                        }
                        trace::add("storm.flows.completed", 1);
                        if self.retransmissions > 0 {
                            trace::add("storm.retransmissions", self.retransmissions);
                        }
                        return Step::Done;
                    }
                }
                CallPoll::Wait { deadline } => {
                    return Step::WaitMail {
                        deadline: Some(deadline),
                    }
                }
                CallPoll::Exhausted => {
                    trace::add("storm.flows.failed", 1);
                    return Step::Done;
                }
            }
        }
    }
}

/// Run the storm to quiescence and report.
pub fn run_vo_storm(opts: &StormOpts) -> StormReport {
    let wall = std::time::Instant::now();
    let net = Network::new();
    let clock = SimClock::new();
    net.enable_faults(clock.clone(), opts.seed, opts.profile);
    // One formatted transcript line per send would dominate memory at
    // storm scale; determinism is asserted on the metrics instead.
    net.set_transcript_recording(false);

    let tracer = Tracer::new();
    let c = clock.clone();
    tracer.set_clock(move || c.now());
    let guard = trace::install(&tracer);

    let mut sched = Scheduler::new(&net);
    let gateways = opts.gateways.max(1);
    for g in 0..gateways {
        let name = format!("vo-gw-{g}");
        let ep = net.register(&name);
        sched.spawn_mailbox(&name, Gateway { ep });
    }

    let mut rng = DetRng::seed_from_u64(opts.seed ^ 0x5702_4A11);
    for i in 0..opts.principals {
        let tag = if rng.next_u64() % 1000 < u64::from(opts.fig4_permille) {
            FIG4_TAG
        } else {
            FIG1_TAG
        };
        let gateway = format!("vo-gw-{}", rng.next_u64() as usize % gateways);
        let start_at = if opts.start_spread == 0 {
            0
        } else {
            rng.next_u64() % (opts.start_spread + 1)
        };
        let name = format!("p{i}");
        let ep = net.register(&name);
        sched.spawn_mailbox(
            &name,
            Principal {
                ep,
                gateway,
                tag,
                leg: 0,
                call: None,
                start_at,
                began: None,
                retransmissions: 0,
                policy: opts.policy,
            },
        );
    }

    let sched_stats = sched.run();
    let metrics = tracer.metrics();
    drop(guard);

    let counter = |name: &str| metrics.counters.get(name).copied().unwrap_or(0);
    StormReport {
        principals: opts.principals,
        completed: counter("storm.flows.completed"),
        failed: counter("storm.flows.failed"),
        sim_seconds: clock.now(),
        traffic: net.stats(),
        fault_stats: net.fault_stats().expect("faults are armed"),
        sched: sched_stats,
        metrics,
        wall_ms: wall.elapsed().as_millis(),
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
