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
use gridsec_pki::ca::CertificateAuthority;
use gridsec_pki::credential::Credential;
use gridsec_pki::store::TrustStore;
use gridsec_testbed::clock::SimClock;
use gridsec_testbed::faults::LifetimeFaults;
use gridsec_testbed::net::{Endpoint, FaultProfile, FaultStats, Network, TrafficStats};
use gridsec_testbed::rpc::{self, CallPoll, PollingCall};
use gridsec_testbed::sched::{SchedStats, Scheduler, Step, Task, TaskCx};
use gridsec_tls::handshake::TlsConfig;
use gridsec_util::retry::RetryPolicy;
use gridsec_util::trace::{self, MetricsSnapshot, Tracer};

use crate::dn;

/// The cross-domain VO flow, leg by leg as (request, reply) byte
/// sizes: VO sign-on exchange, cross-domain gateway hop, then the
/// secured resource access (the `cross_domain_vo` scenario's shape).
const VO_LEGS: &[(usize, usize)] = &[(192, 160), (256, 224), (640, 96)];

/// Storm configuration. Everything behavioral is explicit and seeded.
#[derive(Clone, Debug)]
pub struct ExpiryOpts {
    /// Population size (one task + endpoint each).
    pub principals: usize,
    /// Master seed: lifetime faults, stagger, network faults, mill rng.
    pub seed: u64,
    /// VO gateways the population is sharded across.
    pub gateways: usize,
    /// Distinct real credentials backing the population's handshakes
    /// (principals share them round-robin; lifetime bookkeeping is
    /// per-principal).
    pub classes: usize,
    /// Nominal proxy lifetime in sim-seconds.
    pub nominal_lifetime: u64,
    /// Sign-on stagger window.
    pub spread: u64,
    /// Issuer clock-skew bound fed to [`LifetimeFaults`].
    pub skew_max: u64,
    /// Per-mille of issuances with a near-zero lifetime.
    pub short_permille: u64,
    /// Near-zero lifetime upper bound.
    pub short_max: u64,
    /// Issuers backdate `not_before` by this much (the classic
    /// five-minute grid allowance): only forward skew *beyond* it
    /// leaves a proxy stillborn.
    pub backdate: u64,
    /// Renew once remaining lifetime drops below this.
    pub grace: u64,
    /// Coordinator wave interval.
    pub wave_interval: u64,
    /// Principals stop working (and the coordinator stops renewing) at
    /// this sim time.
    pub horizon: u64,
    /// Think time between a principal's flows.
    pub think: u64,
    /// Fault profile for every link.
    pub profile: FaultProfile,
    /// Retry policy for every leg.
    pub policy: RetryPolicy,
}

impl ExpiryOpts {
    /// Defaults for a population of `principals` under `seed`: 50-min
    /// nominal lifetimes against a 90-min horizon (so the bulk of the
    /// population needs exactly one renewal), ~7% near-zero lifetimes,
    /// issuer skew up to 8 minutes, and the vo_storm WAN profile.
    pub fn new(principals: usize, seed: u64) -> Self {
        ExpiryOpts {
            principals,
            seed,
            gateways: (principals / 512).clamp(2, 16),
            classes: 8,
            nominal_lifetime: 3_000,
            spread: 1_200,
            skew_max: 480,
            short_permille: 70,
            short_max: 60,
            backdate: 300,
            grace: 700,
            wave_interval: 240,
            horizon: 5_400,
            think: 350,
            profile: super::vo_storm::StormOpts::storm_wan(),
            policy: super::policy(),
        }
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

/// A VO gateway: answers every leg statelessly (the storm's real
/// at-most-once discipline lives in the chaos suite's services).
struct Gateway {
    ep: Endpoint,
}

impl Task for Gateway {
    fn step(&mut self, _cx: &TaskCx) -> Step {
        while let Some(m) = self.ep.try_recv() {
            let Some((id, body)) = rpc::decode_request(&m.payload) else {
                continue;
            };
            let reply_len = body
                .first()
                .and_then(|leg| VO_LEGS.get(*leg as usize))
                .map(|(_, rep)| *rep)
                .unwrap_or(0);
            let _ = self
                .ep
                .send(&m.from, rpc::encode_reply(id, &vec![0u8; reply_len]));
        }
        Step::WaitMail { deadline: None }
    }
}

/// One portal principal: staggered sign-on, think-time flow loop,
/// grace-window renewal enqueue, hard-expiry fail-closed.
struct Principal {
    ep: Endpoint,
    gateway: String,
    index: usize,
    state: Rc<RefCell<StormState>>,
    start_at: u64,
    leg: usize,
    call: Option<PollingCall>,
    next_id: u64,
    next_flow_at: u64,
    policy: RetryPolicy,
    horizon: u64,
    grace: u64,
}

impl Principal {
    /// Expiry/grace checks against the shared window; enqueues for the
    /// next renewal wave when inside grace.
    fn credential_state(&self, now: u64) -> CredState {
        let mut st = self.state.borrow_mut();
        let w = &mut st.windows[self.index];
        if now < w.not_before || now > w.not_after {
            return CredState::Expired;
        }
        if w.not_after - now < self.grace && !w.pending {
            w.pending = true;
            let idx = self.index;
            st.queue.push(idx);
            trace::add("expiry.enqueued", 1);
        }
        CredState::Live
    }
}

enum CredState {
    Live,
    Expired,
}

impl Task for Principal {
    fn step(&mut self, cx: &TaskCx) -> Step {
        let now = cx.now();
        if now < self.start_at {
            return Step::Sleep(self.start_at);
        }
        if now >= self.horizon {
            trace::add("expiry.survived", 1);
            return Step::Done;
        }
        // Fail closed the moment the credential window no longer
        // contains `now` — a principal never authenticates on a dead
        // proxy, and never panics or spins either.
        if matches!(self.credential_state(now), CredState::Expired) {
            if self.start_at == now && self.next_id == 0 {
                trace::add("expiry.stillborn", 1);
            } else {
                trace::add("expiry.failed_closed", 1);
            }
            return Step::Done;
        }
        if self.call.is_none() {
            if now < self.next_flow_at {
                // Wake for the next flow, or at hard expiry (to fail
                // closed promptly), whichever is earlier.
                let expiry = self.state.borrow().windows[self.index].not_after + 1;
                return Step::Sleep(self.next_flow_at.min(expiry).min(self.horizon));
            }
            let (req_len, _) = VO_LEGS[self.leg];
            let mut payload = vec![0u8; req_len.max(1)];
            payload[0] = self.leg as u8;
            self.next_id += 1;
            self.call = Some(PollingCall::new(
                &self.gateway,
                self.next_id,
                &payload,
                self.policy,
            ));
        }
        let call = self.call.as_mut().expect("call ensured above");
        match call.poll(&self.ep, now) {
            CallPoll::Ready(_) => {
                self.call = None;
                self.leg += 1;
                if self.leg == VO_LEGS.len() {
                    self.leg = 0;
                    self.next_flow_at = now + self.policy.base_timeout.max(1) + self.thinks();
                    trace::add("expiry.flows.completed", 1);
                }
                Step::Yield
            }
            CallPoll::Wait { deadline } => Step::WaitMail {
                deadline: Some(deadline),
            },
            CallPoll::Exhausted => {
                trace::add("expiry.flows.failed", 1);
                self.call = None;
                self.leg = 0;
                self.next_flow_at = now + self.thinks();
                Step::Yield
            }
        }
    }
}

impl Principal {
    fn thinks(&self) -> u64 {
        // Deterministic per-principal think jitter, cheap and seedless:
        // spreads flow starts so gateway mailboxes don't spike in
        // lockstep.
        300 + (self.index as u64 * 37) % 151
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
    wave_interval: u64,
    horizon: u64,
    nominal: u64,
    hellos_sent: u64,
}

impl Task for Coordinator {
    fn step(&mut self, cx: &TaskCx) -> Step {
        let now = cx.now();
        if now >= self.horizon {
            return Step::Done;
        }
        if now < self.next_wave {
            return Step::Sleep(self.next_wave.min(self.horizon));
        }
        self.next_wave = now + self.wave_interval;
        let wave: Vec<usize> = {
            let mut st = self.state.borrow_mut();
            std::mem::take(&mut st.queue)
        };
        if wave.is_empty() {
            return Step::Sleep(self.next_wave.min(self.horizon));
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
                    w.not_after = now + self.faults.lifetime(self.nominal).max(1);
                    w.not_before = w.not_before.min(now);
                    w.renewals += 1;
                    trace::add("expiry.renewals", 1);
                }
                Err(_) => {
                    trace::add("expiry.mill_rejected", 1);
                }
            }
        }
        Step::Sleep(self.next_wave.min(self.horizon))
    }
}

/// Run the expiry storm to quiescence and report.
pub fn run_expiry_storm(opts: &ExpiryOpts) -> ExpiryReport {
    let wall = std::time::Instant::now();
    let net = Network::new();
    let clock = SimClock::new();
    net.enable_faults(clock.clone(), opts.seed, opts.profile);
    // As in vo_storm: per-send transcript lines would dominate memory
    // at storm scale; determinism is asserted on the metrics render.
    net.set_transcript_recording(false);

    let tracer = Tracer::new();
    let c = clock.clone();
    tracer.set_clock(move || c.now());
    let guard = trace::install(&tracer);

    // The small pool of real credentials behind the population.
    let mut rng = ChaChaRng::from_seed_bytes(format!("expiry world {:#x}", opts.seed).as_bytes());
    let ca =
        CertificateAuthority::create_root(&mut rng, dn("/O=Storm/CN=CA"), 512, 0, u64::MAX / 2);
    let classes: Vec<Credential> = (0..opts.classes.max(1))
        .map(|i| {
            ca.issue_identity(
                &mut rng,
                dn(&format!("/O=Storm/CN=Class{i}")),
                512,
                0,
                u64::MAX / 4,
            )
        })
        .collect();
    let service = ca.issue_identity(&mut rng, dn("/O=Storm/CN=Portal"), 512, 0, u64::MAX / 4);
    let mut trust = TrustStore::new();
    trust.add_root(ca.certificate().clone());

    // One injector seeds every lifetime fault in the run; a second,
    // independently salted one drives renewal-time lifetimes so the
    // coordinator's draw order can't perturb the mint sequence.
    let mut mint_faults = LifetimeFaults::seeded(
        opts.seed,
        opts.skew_max,
        opts.short_permille,
        opts.short_max,
    );
    let renew_faults = LifetimeFaults::seeded(
        opts.seed ^ 0x7E9E_3A11,
        0, // renewal issuers are clock-honest
        opts.short_permille,
        opts.short_max,
    );

    let mut sched = Scheduler::new(&net);
    let gateways = opts.gateways.max(1);
    for g in 0..gateways {
        let name = format!("exp-gw-{g}");
        let ep = net.register(&name);
        sched.spawn_mailbox(&name, Gateway { ep });
    }

    let state = Rc::new(RefCell::new(StormState {
        windows: Vec::with_capacity(opts.principals),
        queue: Vec::new(),
    }));

    for i in 0..opts.principals {
        // The mint sequence: staggered sign-on, skewed issuer clock,
        // fault-injected lifetime — all from the one injector, in
        // principal order.
        let start_at = mint_faults.storm_offset(opts.spread.max(1));
        let issued_at = mint_faults.issuer_now(start_at);
        let lifetime = mint_faults.lifetime(opts.nominal_lifetime);
        state.borrow_mut().windows.push(Window {
            not_before: issued_at.saturating_sub(opts.backdate),
            not_after: issued_at.saturating_add(lifetime),
            pending: false,
            renewals: 0,
            class: i % opts.classes.max(1),
        });
        let name = format!("e{i}");
        let ep = net.register(&name);
        sched.spawn_mailbox(
            &name,
            Principal {
                ep,
                gateway: format!("exp-gw-{}", i % gateways),
                index: i,
                state: state.clone(),
                start_at,
                leg: 0,
                call: None,
                next_id: 0,
                next_flow_at: 0,
                policy: opts.policy,
                horizon: opts.horizon,
                grace: opts.grace,
            },
        );
    }

    let skewed = mint_faults.skewed();
    let shortened_minted = mint_faults.shortened();

    let mill = HandshakeMill::new(TlsConfig::new(service, trust.clone(), 0));
    sched.spawn(Coordinator {
        state: state.clone(),
        mill,
        rng: ChaChaRng::from_seed_bytes(format!("expiry mill {:#x}", opts.seed).as_bytes()),
        classes,
        trust,
        faults: renew_faults,
        next_wave: opts.wave_interval,
        wave_interval: opts.wave_interval,
        horizon: opts.horizon,
        nominal: opts.nominal_lifetime,
        hellos_sent: 0,
    });

    let sched_stats = sched.run();
    let metrics = tracer.metrics();
    drop(guard);

    let counter = |name: &str| metrics.counters.get(name).copied().unwrap_or(0);
    let st = state.borrow();
    ExpiryReport {
        principals: opts.principals,
        survived: counter("expiry.survived"),
        stillborn: counter("expiry.stillborn"),
        failed_closed: counter("expiry.failed_closed"),
        renewals: st.windows.iter().map(|w| w.renewals).sum(),
        waves: counter("expiry.waves"),
        mill_rejected: counter("expiry.mill_rejected"),
        skewed,
        shortened: shortened_minted,
        flows_completed: counter("expiry.flows.completed"),
        flows_failed: counter("expiry.flows.failed"),
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
