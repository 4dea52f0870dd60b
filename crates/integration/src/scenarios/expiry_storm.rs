//! Expiry storm: thousands of portal principals with fault-injected
//! credential lifetimes fanning cross-domain VO flows through shared
//! gateways, while a renewal coordinator batches each wave of
//! grace-window renewals through the [`HandshakeMill`].
//!
//! This is the scale companion to `scenarios::portal`: where the portal
//! proves the *mechanism* (a MyProxy `OP_RENEW` issued exactly once
//! across repository kills), the storm proves the *population
//! dynamics*, and its hard-expiry fail-closed is the typed answer to a
//! renewal that never lands. Every lifetime fault is drawn from one seeded
//! [`LifetimeFaults`] injector — clock-skewed issuers (proxies born in
//! the future or already stale), near-zero lifetimes, and staggered
//! sign-on offsets that pile renewal deadlines into waves — so two
//! runs under the same seed produce byte-identical transcripts and
//! metrics ([`ExpiryReport::deterministic_render`]; the CI
//! `cred_chaos` stage compares two runs).
//!
//! Population behavior:
//!
//! * A principal whose skewed issuance window doesn't even contain its
//!   sign-on instant is *stillborn* — it fails closed immediately.
//! * A live principal runs cross-domain VO flow legs (sign-on, hop,
//!   resource access — the `cross_domain_vo` shape) on a think-time
//!   loop, and enqueues itself with the renewal coordinator once its
//!   remaining lifetime drops inside the grace window.
//! * The coordinator fires on a fixed wave interval, draining the
//!   queue and pushing one ClientHello per renewing principal through
//!   the mill's batched acceptor path; mill-accepted principals get a
//!   fresh (fault-injected) lifetime, rejected ones stay on their
//!   dying credential and may re-enqueue.
//! * A principal that reaches hard expiry un-renewed fails closed —
//!   counted, never a panic or a hang.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

use gridsec_crypto::rng::ChaChaRng;
use gridsec_gssapi::mill::HandshakeMill;
use gridsec_pki::credential::Credential;
use gridsec_pki::store::TrustStore;
use gridsec_testbed::faults::LifetimeFaults;
use gridsec_testbed::net::{Endpoint, FaultStats, TrafficStats};
use gridsec_testbed::sched::{SchedStats, Step, Task, TaskCx};
use gridsec_tls::handshake::TlsConfig;
use gridsec_util::trace::{self, MetricsSnapshot};

use super::storm::{render_wire, Gateway, LegPoll, Legs, Rig, StormWorld};

/// The cross-domain VO flow, leg by leg as (request, reply) byte
/// sizes: VO sign-on exchange, cross-domain gateway hop, then the
/// secured resource access (the `cross_domain_vo` scenario's shape).
const VO_LEGS: &[(usize, usize)] = &[(192, 160), (256, 224), (640, 96)];

// The storm's shape, times in sim-seconds: 8 real credential classes
// behind the handshakes (shared round-robin; lifetimes are
// per-principal); 50-minute nominal lifetimes against a 90-minute
// horizon, so the bulk of the population needs one renewal; sign-ons
// staggered over 20 minutes; issuer clocks skewed up to 8 minutes, and
// backdated by the classic five-minute grid allowance, so only forward
// skew beyond it leaves a proxy stillborn; 7% near-zero lifetimes of at
// most a minute; renewal inside a 700 s grace, in waves every 4 minutes.
const CLASSES: usize = 8;
const NOMINAL_LIFETIME: u64 = 3_000;
const HORIZON: u64 = 5_400;
const SPREAD: u64 = 1_200;
const SKEW_MAX: u64 = 480;
const BACKDATE: u64 = 300;
const SHORT_PERMILLE: u64 = 70;
const SHORT_MAX: u64 = 60;
const GRACE: u64 = 700;
const WAVE_INTERVAL: u64 = 240;

/// Storm configuration: everything else is a constant of the storm or
/// derived from the population.
#[derive(Clone, Debug)]
pub struct ExpiryOpts {
    /// Population size (one task + endpoint each).
    pub principals: usize,
    /// Master seed: lifetime faults, stagger, network faults, mill rng.
    pub seed: u64,
}

impl ExpiryOpts {
    /// A population of `principals` under `seed`.
    pub fn new(principals: usize, seed: u64) -> Self {
        ExpiryOpts { principals, seed }
    }
}

/// Everything one storm run produced; all fields except `wall_ms` are
/// pure functions of the seed.
#[derive(Clone, Debug)]
pub struct ExpiryReport {
    /// Population size.
    pub principals: usize,
    /// Principals that worked to the horizon on a live credential.
    pub survived: u64,
    /// Principals whose skewed issuance window excluded their own
    /// sign-on instant.
    pub stillborn: u64,
    /// Principals that reached hard expiry un-renewed and failed
    /// closed mid-storm.
    pub failed_closed: u64,
    /// Renewals granted across all waves.
    pub renewals: u64,
    /// Coordinator waves that processed at least one hello.
    pub waves: u64,
    /// Hellos the mill rejected (corrupt openers).
    pub mill_rejected: u64,
    /// Issuances the injector skewed / shortened.
    pub skewed: u64,
    /// Near-zero lifetimes drawn.
    pub shortened: u64,
    /// Flow legs completed / flows failed on the network.
    pub flows_completed: u64,
    /// Flows that exhausted a retry budget.
    pub flows_failed: u64,
    /// Sim time at quiescence.
    pub sim_seconds: u64,
    /// Network traffic.
    pub traffic: TrafficStats,
    /// Fault-layer counters.
    pub fault_stats: FaultStats,
    /// Scheduler counters.
    pub sched: SchedStats,
    /// Trace counters + histograms.
    pub metrics: MetricsSnapshot,
    /// Wall-clock duration (excluded from the deterministic render).
    pub wall_ms: u128,
}

impl ExpiryReport {
    /// The byte-identical-per-seed artifact the `cred_chaos` CI stage
    /// compares across two runs: everything except wall time.
    pub fn deterministic_render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "expiry_storm principals={} survived={} stillborn={} failed_closed={} sim_seconds={}",
            self.principals, self.survived, self.stillborn, self.failed_closed, self.sim_seconds
        );
        let _ = writeln!(
            out,
            "renewal waves={} renewals={} mill_rejected={} skewed={} shortened={}",
            self.waves, self.renewals, self.mill_rejected, self.skewed, self.shortened
        );
        let _ = writeln!(
            out,
            "flows completed={} failed={}",
            self.flows_completed, self.flows_failed
        );
        render_wire(&mut out, &self.traffic, &self.fault_stats, &self.sched);
        out.push_str(&self.metrics.render());
        out
    }
}

/// Per-principal credential-lifetime bookkeeping, shared between the
/// principal task and the renewal coordinator.
struct Window {
    not_before: u64,
    not_after: u64,
    pending: bool,
    renewals: u64,
    class: usize,
}

struct StormState {
    windows: Vec<Window>,
    queue: Vec<usize>,
}

/// One portal principal: staggered sign-on, think-time flow loop
/// yielding after every leg, grace-window renewal enqueue, hard-expiry
/// fail-closed.
struct Principal {
    ep: Endpoint,
    gateway: String,
    index: usize,
    state: Rc<RefCell<StormState>>,
    start_at: u64,
    legs: Legs,
    next_flow_at: u64,
}

impl Principal {
    /// Whether the credential window excludes `now`; a live one inside
    /// grace enqueues for the next renewal wave.
    fn expired(&self, now: u64) -> bool {
        let mut st = self.state.borrow_mut();
        let w = &mut st.windows[self.index];
        if now < w.not_before || now > w.not_after {
            return true;
        }
        if w.not_after - now < GRACE && !w.pending {
            w.pending = true;
            let idx = self.index;
            st.queue.push(idx);
            trace::add("expiry.enqueued", 1);
        }
        false
    }

    /// Think time before the next flow: deterministic per-principal
    /// jitter, cheap and seedless, that spreads flow starts so gateway
    /// mailboxes don't spike in lockstep.
    fn thinks(&self) -> u64 {
        300 + (self.index as u64 * 37) % 151
    }
}

impl Task for Principal {
    fn step(&mut self, cx: &TaskCx) -> Step {
        let now = cx.now();
        if now < self.start_at {
            return Step::Sleep(self.start_at);
        }
        if now >= HORIZON {
            trace::add("expiry.survived", 1);
            return Step::Done;
        }
        // Fail closed the moment the credential window no longer
        // contains `now` — a principal never authenticates on a dead
        // proxy, and never panics or spins either.
        if self.expired(now) {
            if self.start_at == now && self.legs.calls == 0 {
                trace::add("expiry.stillborn", 1);
            } else {
                trace::add("expiry.failed_closed", 1);
            }
            return Step::Done;
        }
        if self.legs.idle() && now < self.next_flow_at {
            // Wake for the next flow, or at hard expiry (to fail
            // closed promptly), whichever is earlier.
            let expiry = self.state.borrow().windows[self.index].not_after + 1;
            return Step::Sleep(self.next_flow_at.min(expiry).min(HORIZON));
        }
        match self.legs.poll(&self.ep, &self.gateway, now) {
            LegPoll::Leg => {}
            LegPoll::Flow => {
                self.next_flow_at = now + super::policy().base_timeout.max(1) + self.thinks();
                trace::add("expiry.flows.completed", 1);
            }
            LegPoll::Wait(deadline) => {
                return Step::WaitMail {
                    deadline: Some(deadline),
                }
            }
            LegPoll::Exhausted => {
                trace::add("expiry.flows.failed", 1);
                self.next_flow_at = now + self.thinks();
            }
        }
        Step::Yield
    }
}

/// The renewal coordinator: drains the grace queue on a fixed wave
/// interval and batches the wave through the mill.
struct Coordinator {
    state: Rc<RefCell<StormState>>,
    mill: HandshakeMill,
    rng: ChaChaRng,
    classes: Vec<Credential>,
    trust: TrustStore,
    faults: LifetimeFaults,
    next_wave: u64,
    hellos_sent: u64,
}

impl Task for Coordinator {
    fn step(&mut self, cx: &TaskCx) -> Step {
        let now = cx.now();
        if now >= HORIZON {
            return Step::Done;
        }
        if now < self.next_wave {
            return Step::Sleep(self.next_wave.min(HORIZON));
        }
        self.next_wave = now + WAVE_INTERVAL;
        let wave: Vec<usize> = {
            let mut st = self.state.borrow_mut();
            std::mem::take(&mut st.queue)
        };
        if wave.is_empty() {
            return Step::Sleep(self.next_wave.min(HORIZON));
        }
        trace::add("expiry.waves", 1);
        trace::record("expiry.wave_size", wave.len() as u64);
        // One ClientHello per renewing principal, from its credential
        // class; every 29th hello across the run is corrupt,
        // exercising the mill's rejection path deterministically.
        let hellos: Vec<Vec<u8>> = wave
            .iter()
            .map(|&p| {
                self.hellos_sent += 1;
                if self.hellos_sent.is_multiple_of(29) {
                    format!("not a hello {p}").into_bytes()
                } else {
                    let class = self.state.borrow().windows[p].class;
                    let cfg = TlsConfig::new(self.classes[class].clone(), self.trust.clone(), now);
                    let (_init, hello) =
                        gridsec_gssapi::context::InitiatorContext::new(cfg, &mut self.rng);
                    hello
                }
            })
            .collect();
        let refs: Vec<&[u8]> = hellos.iter().map(|h| h.as_slice()).collect();
        let results = self.mill.accept_wave(&mut self.rng, &refs);
        let mut st = self.state.borrow_mut();
        for (&p, result) in wave.iter().zip(&results) {
            let w = &mut st.windows[p];
            w.pending = false;
            match result {
                Ok(_) => {
                    // A renewed proxy: fresh fault-injected lifetime
                    // from `now` (renewal issuers are honest about the
                    // clock; the injector may still shorten).
                    w.not_after = now + self.faults.lifetime(NOMINAL_LIFETIME).max(1);
                    w.not_before = w.not_before.min(now);
                    w.renewals += 1;
                    trace::add("expiry.renewals", 1);
                }
                Err(_) => {
                    trace::add("expiry.mill_rejected", 1);
                }
            }
        }
        Step::Sleep(self.next_wave.min(HORIZON))
    }
}

/// Run the expiry storm to quiescence and report.
pub fn run_expiry_storm(opts: &ExpiryOpts) -> ExpiryReport {
    let mut rig = Rig::lossy(opts.seed);

    // The small pool of real credentials behind the population.
    let world = StormWorld::build("expiry", opts.seed, "Class", CLASSES);

    // One injector seeds every lifetime fault in the run; a second,
    // independently salted one drives renewal-time lifetimes so the
    // coordinator's draw order can't perturb the mint sequence.
    let mut mint_faults = LifetimeFaults::seeded(opts.seed, SKEW_MAX, SHORT_PERMILLE, SHORT_MAX);
    let renew_faults = LifetimeFaults::seeded(
        opts.seed ^ 0x7E9E_3A11,
        0, // renewal issuers are clock-honest
        SHORT_PERMILLE,
        SHORT_MAX,
    );

    // VO gateways, scaled to the population.
    let count = (opts.principals / 512).clamp(2, 16);
    let gateways = rig.spawn_gateways("exp-gw", count, |_, ep| Gateway::new(ep, false));

    let state = Rc::new(RefCell::new(StormState {
        windows: Vec::with_capacity(opts.principals),
        queue: Vec::new(),
    }));

    for i in 0..opts.principals {
        // The mint sequence: staggered sign-on, skewed issuer clock,
        // fault-injected lifetime — all from the one injector, in
        // principal order.
        let start_at = mint_faults.storm_offset(SPREAD);
        let issued_at = mint_faults.issuer_now(start_at);
        let lifetime = mint_faults.lifetime(NOMINAL_LIFETIME);
        state.borrow_mut().windows.push(Window {
            not_before: issued_at.saturating_sub(BACKDATE),
            not_after: issued_at.saturating_add(lifetime),
            pending: false,
            renewals: 0,
            class: i % CLASSES,
        });
        rig.spawn(&format!("e{i}"), |ep| Principal {
            ep,
            gateway: gateways[i % gateways.len()].clone(),
            index: i,
            state: state.clone(),
            start_at,
            legs: Legs::new(VO_LEGS),
            next_flow_at: 0,
        });
    }

    let skewed = mint_faults.skewed();
    let shortened_minted = mint_faults.shortened();

    let mill = HandshakeMill::new(TlsConfig::new(world.service, world.trust.clone(), 0));
    rig.sched.spawn(Coordinator {
        state: state.clone(),
        mill,
        rng: ChaChaRng::from_seed_bytes(format!("expiry mill {:#x}", opts.seed).as_bytes()),
        classes: world.users,
        trust: world.trust,
        faults: renew_faults,
        next_wave: WAVE_INTERVAL,
        hellos_sent: 0,
    });

    let run = rig.finish();
    let st = state.borrow();
    ExpiryReport {
        principals: opts.principals,
        survived: run.counter("expiry.survived"),
        stillborn: run.counter("expiry.stillborn"),
        failed_closed: run.counter("expiry.failed_closed"),
        renewals: st.windows.iter().map(|w| w.renewals).sum(),
        waves: run.counter("expiry.waves"),
        mill_rejected: run.counter("expiry.mill_rejected"),
        skewed,
        shortened: shortened_minted,
        flows_completed: run.counter("expiry.flows.completed"),
        flows_failed: run.counter("expiry.flows.failed"),
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
    fn small_storm_exercises_every_lifetime_fault_and_is_deterministic() {
        let opts = ExpiryOpts::new(400, 0x0E59_0057);
        let a = run_expiry_storm(&opts);
        // Every fault dimension fired at this scale.
        assert!(a.stillborn > 0, "skewed issuers produced stillborn proxies");
        assert!(a.failed_closed > 0, "near-zero lifetimes failed closed");
        assert!(a.renewals > 0, "waves renewed the graceful majority");
        assert!(a.waves > 1, "renewals arrived in waves");
        assert!(a.mill_rejected > 0, "corrupt openers were rejected");
        assert!(a.survived > (opts.principals as u64) / 2, "{a:?}");
        // Population conservation: every principal ended exactly one way.
        assert_eq!(
            a.survived + a.stillborn + a.failed_closed,
            opts.principals as u64
        );
        let b = run_expiry_storm(&opts);
        assert_eq!(
            a.deterministic_render(),
            b.deterministic_render(),
            "same seed, byte-identical storm"
        );
    }

    #[test]
    fn different_seed_diverges() {
        let a = run_expiry_storm(&ExpiryOpts::new(120, 1));
        let b = run_expiry_storm(&ExpiryOpts::new(120, 2));
        assert_ne!(a.deterministic_render(), b.deterministic_render());
    }
}
