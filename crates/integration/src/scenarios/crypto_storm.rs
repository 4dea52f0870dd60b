//! Crypto-real login storm over the discrete-event scheduler.
//!
//! [`super::vo_storm`] proved the scheduler carries 10⁵ principals, but
//! its flows are message-shaped: no principal performs a single modular
//! exponentiation. This storm closes that gap. Every principal is a
//! scheduler task that performs **real per-principal handshake
//! crypto** — a fresh DH keypair and hello signature on its way in
//! ([`InitiatorContext::new`]), real verification and key derivation on
//! the acceptor's reply, and a sealed proof round-trip over the
//! established channel — against mill gateways that batch hellos
//! *across tasks* at mail quiescence ([`WaveAcceptor`]), so certificate
//! checks group by issuer and DH/signing state comes from shared
//! [`gridsec_tls::pool::CryptoPool`]s exactly as a GT3 container under
//! a login storm would arrange it.
//!
//! Three scale decisions distinguish this from the message storm:
//!
//! * **Credential pool, not per-principal keygen.** Issuing 10⁶ RSA
//!   identities would measure the CA, not the handshake path. A pool of
//!   [`CryptoStormOpts::credentials`] distinct users is issued up
//!   front; each principal *session* still pays its own DH keygen,
//!   hello signature, verify, and key schedule — the per-session work a
//!   real container pays — while chain validation amortizes across the
//!   pool exactly as [`gridsec_pki::validate::CachedValidator`] would.
//! * **Cohort spawning bounds residency.** Principals spawn in cohorts
//!   of [`CryptoStormOpts::cohort`]; the scheduler runs each cohort to
//!   quiescence before the next spawns, so the live-task high-water
//!   mark — the peak-RSS proxy [`SchedStats::live_high_water`] — stays
//!   ~cohort-sized while the population scales unbounded.
//! * **Clean network.** Loss/retransmission behavior at population
//!   scale is vo_storm's subject; here the network is faultless so the
//!   measured quantity is crypto + scheduling. Sim time advances only
//!   through the start-stagger window.
//!
//! Everything observable except wall time — outcomes, wave-size
//! histogram, validator amortization, traffic, scheduler counters — is
//! a pure function of [`CryptoStormOpts::seed`];
//! [`CryptoStormReport::deterministic_render`] is the two-run CI
//! artifact. Wall-clock throughput goes to `BENCH_crypto_storm.json`
//! only.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use gridsec_crypto::rng::ChaChaRng;
use gridsec_gssapi::context::{EstablishedContext, InitiatorContext};
use gridsec_gssapi::poll::WaveAcceptor;
use gridsec_pki::ca::CertificateAuthority;
use gridsec_pki::credential::Credential;
use gridsec_pki::store::TrustStore;
use gridsec_testbed::net::{Endpoint, Network, TrafficStats};
use gridsec_testbed::sched::{SchedStats, Scheduler, Step, Task, TaskCx};
use gridsec_tls::handshake::TlsConfig;
use gridsec_tls::pool::CryptoPool;
use gridsec_util::rng::{DetRng, RngCore};
use gridsec_util::trace::{self, MetricsSnapshot, Tracer};

use crate::dn;

/// Mail tags, principal -> gateway.
const TAG_HELLO: u8 = 1;
const TAG_FINISHED: u8 = 2;
/// Mail tags, gateway -> principal.
const TAG_SERVER_HELLO: u8 = 1;
const TAG_PROOF: u8 = 2;
const TAG_REJECT: u8 = 0;

/// The plaintext every gateway seals over the freshly established
/// channel; a principal counts as established only after unsealing it.
const PROOF: &[u8] = b"cstorm proof of keys";

/// Storm configuration. Everything that affects behavior is explicit.
#[derive(Clone, Debug)]
pub struct CryptoStormOpts {
    /// Total principal sessions.
    pub principals: usize,
    /// Master seed: credential world, per-principal rngs, stagger.
    pub seed: u64,
    /// Distinct user credentials the sessions draw from (round-robin).
    pub credentials: usize,
    /// Mill gateways the population is sharded across.
    pub gateways: usize,
    /// Cohort size: at most this many principals are live at once
    /// (plus the gateways), whatever the population.
    pub cohort: usize,
    /// Start-stagger window in sim seconds within each cohort.
    pub start_spread: u64,
    /// Every n-th principal sends a garbage hello instead (0 = none),
    /// exercising the rejection path at scale.
    pub reject_every: usize,
}

impl CryptoStormOpts {
    /// Defaults for a population of `principals` under `seed`: a
    /// 128-credential pool, 4 gateways, 4096-task cohorts, a 60-second
    /// stagger, one garbage hello per 97 sessions.
    pub fn new(principals: usize, seed: u64) -> Self {
        CryptoStormOpts {
            principals,
            seed,
            credentials: 128,
            gateways: 4,
            cohort: 4096,
            start_spread: 60,
            reject_every: 97,
        }
    }
}

/// Everything one storm run produced. All fields except `wall_ms` are
/// pure functions of the seed.
#[derive(Clone, Debug)]
pub struct CryptoStormReport {
    /// Population size.
    pub principals: usize,
    /// Sessions that unsealed the gateway's proof message.
    pub established: u64,
    /// Sessions refused at the hello (garbage or untrusted).
    pub rejected: u64,
    /// Sim time at quiescence.
    pub sim_seconds: u64,
    /// Network traffic (messages/bytes delivered).
    pub traffic: TrafficStats,
    /// Scheduler counters; `live_high_water` is the peak-RSS proxy the
    /// cohort bound caps.
    pub sched: SchedStats,
    /// Validator chain-walk misses summed over the gateways' pools
    /// (the amortization witness: ≈ credential-pool size, not
    /// population size).
    pub validator_misses: u64,
    /// Validator cache hits summed over the gateways' pools.
    pub validator_hits: u64,
    /// Trace counters + wave-size histogram.
    pub metrics: MetricsSnapshot,
    /// Wall-clock duration (NOT deterministic; excluded from the
    /// deterministic render).
    pub wall_ms: u128,
}

impl CryptoStormReport {
    /// The byte-identical-per-seed artifact the CI gate compares across
    /// two runs — everything except wall time.
    pub fn deterministic_render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "cstorm principals={} established={} rejected={} sim_seconds={}",
            self.principals, self.established, self.rejected, self.sim_seconds
        );
        let _ = writeln!(
            out,
            "traffic messages={} bytes={}",
            self.traffic.messages, self.traffic.bytes
        );
        let s = &self.sched;
        let _ = writeln!(
            out,
            "sched spawned={} completed={} steps={} live_high_water={} mail_wakes={} timer_wakes={}",
            s.spawned, s.completed, s.steps, s.live_high_water, s.mail_wakes, s.timer_wakes
        );
        let _ = writeln!(
            out,
            "validator misses={} hits={}",
            self.validator_misses, self.validator_hits
        );
        out.push_str(&self.metrics.render());
        out
    }

    /// Established sessions per wall-clock second (NOT deterministic —
    /// the bench bin's headline figure, kept out of the render above).
    pub fn flows_per_wall_second(&self) -> f64 {
        if self.wall_ms == 0 {
            return 0.0;
        }
        self.established as f64 * 1000.0 / self.wall_ms as f64
    }
}

/// A mill gateway: drains its mailbox, parks Finished-pending sessions,
/// and flushes everything that arrived since its last step as one
/// mill wave.
struct MillGateway {
    ep: Endpoint,
    acceptor: WaveAcceptor,
    rng: ChaChaRng,
    /// Reply route for hellos parked in the wave: mill session id
    /// (the sender's interned [`gridsec_testbed::names::NameId`]
    /// index) back to the sender's mailbox name. Entries live only
    /// from hello to wave flush, so the map stays wave-sized.
    routes: HashMap<u64, String>,
}

impl MillGateway {
    fn reply(&self, to: &str, tag: u8, body: &[u8]) {
        let mut payload = Vec::with_capacity(1 + body.len());
        payload.push(tag);
        payload.extend_from_slice(body);
        let _ = self.ep.send(to, payload);
    }
}

impl Task for MillGateway {
    fn step(&mut self, _cx: &TaskCx) -> Step {
        while let Some(m) = self.ep.try_recv() {
            let Some((&tag, body)) = m.payload.split_first() else {
                continue;
            };
            let session = self.ep.network().intern(&m.from).index() as u64;
            match tag {
                TAG_HELLO => {
                    self.routes.insert(session, m.from.clone());
                    self.acceptor.submit_hello(session, body.to_vec());
                }
                TAG_FINISHED => match self.acceptor.submit_finished(session, &mut self.rng, body) {
                    Ok(mut ctx) => {
                        let sealed = ctx.wrap(PROOF);
                        self.reply(&m.from, TAG_PROOF, &sealed);
                    }
                    Err(_) => self.reply(&m.from, TAG_REJECT, &[]),
                },
                _ => self.reply(&m.from, TAG_REJECT, &[]),
            }
        }
        // Mail quiescence: everything that accumulated across tasks
        // since the last step is one wave.
        if self.acceptor.pending() > 0 {
            let wave = self.acceptor.flush_wave(&mut self.rng);
            trace::add("cstorm.gw.waves", 1);
            trace::record("cstorm.wave_size", wave.len() as u64);
            for (session, result) in wave {
                let to = self
                    .routes
                    .remove(&session)
                    .expect("wave session was routed");
                match result {
                    Ok(server_hello) => self.reply(&to, TAG_SERVER_HELLO, &server_hello),
                    Err(_) => {
                        trace::add("cstorm.gw.rejected", 1);
                        self.reply(&to, TAG_REJECT, &[]);
                    }
                }
            }
        }
        Step::WaitMail { deadline: None }
    }
}

enum PrincipalState {
    Boot,
    AwaitServerHello(InitiatorContext),
    AwaitProof(Box<EstablishedContext>),
    /// Garbage-hello sent; the only acceptable reply is a rejection.
    AwaitReject,
}

/// One login session: sleeps to its staggered start, performs its real
/// handshake against the mill gateway, and proves the channel works.
struct Principal {
    ep: Endpoint,
    gateway: String,
    config: Option<TlsConfig>,
    rng: ChaChaRng,
    state: PrincipalState,
    start_at: u64,
    /// Garbage-hello principal (tests the rejection path).
    garbage: bool,
}

impl Principal {
    fn send(&self, tag: u8, body: &[u8]) {
        let mut payload = Vec::with_capacity(1 + body.len());
        payload.push(tag);
        payload.extend_from_slice(body);
        let _ = self.ep.send(&self.gateway, payload);
    }
}

impl Task for Principal {
    fn step(&mut self, cx: &TaskCx) -> Step {
        if matches!(self.state, PrincipalState::Boot) {
            if cx.now() < self.start_at {
                return Step::Sleep(self.start_at);
            }
            if self.garbage {
                self.send(TAG_HELLO, b"not a hello");
                self.state = PrincipalState::AwaitReject;
            } else {
                let config = self.config.take().expect("config consumed once");
                let (init, hello) = InitiatorContext::new(config, &mut self.rng);
                self.send(TAG_HELLO, &hello);
                self.state = PrincipalState::AwaitServerHello(init);
            }
        }
        while let Some(m) = self.ep.try_recv() {
            let Some((&tag, body)) = m.payload.split_first() else {
                continue;
            };
            if tag == TAG_REJECT {
                trace::add("cstorm.flows.rejected", 1);
                if !self.garbage {
                    trace::add("cstorm.flows.rejected_credential", 1);
                }
                return Step::Done;
            }
            match std::mem::replace(&mut self.state, PrincipalState::Boot) {
                PrincipalState::AwaitServerHello(init) if tag == TAG_SERVER_HELLO => {
                    match init.step(body) {
                        Ok((finished, ctx)) => {
                            self.send(TAG_FINISHED, &finished);
                            self.state = PrincipalState::AwaitProof(Box::new(ctx));
                        }
                        Err(_) => {
                            trace::add("cstorm.flows.bad_server_hello", 1);
                            return Step::Done;
                        }
                    }
                }
                PrincipalState::AwaitProof(mut ctx) if tag == TAG_PROOF => {
                    match ctx.unwrap(body) {
                        Ok(clear) if clear == PROOF => trace::add("cstorm.flows.established", 1),
                        _ => trace::add("cstorm.flows.bad_proof", 1),
                    }
                    return Step::Done;
                }
                _ => {
                    trace::add("cstorm.flows.protocol_error", 1);
                    return Step::Done;
                }
            }
        }
        Step::WaitMail { deadline: None }
    }
}

/// Run the storm to quiescence and report.
pub fn run_crypto_storm(opts: &CryptoStormOpts) -> CryptoStormReport {
    let wall = std::time::Instant::now();
    let net = Network::new();
    let mut sched = Scheduler::new(&net);

    let tracer = Tracer::new();
    let clock = sched.clock();
    tracer.set_clock(move || clock.now());
    let guard = trace::install(&tracer);

    // ---- Credential world --------------------------------------------
    let mut world_rng =
        ChaChaRng::from_seed_bytes(format!("cstorm world {:#x}", opts.seed).as_bytes());
    let ca = CertificateAuthority::create_root(
        &mut world_rng,
        dn("/O=Storm/CN=CA"),
        512,
        0,
        u64::MAX / 2,
    );
    let users: Vec<Credential> = (0..opts.credentials.max(1))
        .map(|i| {
            ca.issue_identity(
                &mut world_rng,
                dn(&format!("/O=Storm/CN=U{i}")),
                512,
                0,
                u64::MAX / 4,
            )
        })
        .collect();
    let service = ca.issue_identity(
        &mut world_rng,
        dn("/O=Storm/CN=Portal"),
        512,
        0,
        u64::MAX / 4,
    );
    let mut trust = TrustStore::new();
    trust.add_root(ca.certificate().clone());

    // One shared client-side pool — the initiator-side amortization
    // (validated gateway chain, binding-verify context) the mill's pool
    // provides acceptor-side. `Arc<Mutex<_>>` is the pool handle type
    // `TlsConfig::with_pool` takes, frozen for `benchmark/` (`tls::pool`).
    let client_pool = Arc::new(Mutex::new(CryptoPool::new()));

    // ---- Gateways ----------------------------------------------------
    let gateways = opts.gateways.max(1);
    let mut gateway_pools = Vec::with_capacity(gateways);
    for g in 0..gateways {
        let name = format!("cstorm-gw-{g}");
        let ep = net.register(&name);
        let acceptor = WaveAcceptor::new(TlsConfig::new(service.clone(), trust.clone(), 100));
        gateway_pools.push(acceptor.mill().pool());
        let rng = ChaChaRng::from_seed_bytes(format!("cstorm gw{g} {:#x}", opts.seed).as_bytes());
        sched.spawn_mailbox(
            &name,
            MillGateway {
                ep,
                acceptor,
                rng,
                routes: HashMap::new(),
            },
        );
    }

    // ---- Cohorts of principals ---------------------------------------
    let mut assign_rng = DetRng::seed_from_u64(opts.seed ^ 0xC59_7057);
    let mut spawned = 0usize;
    while spawned < opts.principals {
        let cohort = (opts.principals - spawned).min(opts.cohort.max(1));
        let base_now = sched.now();
        for i in spawned..spawned + cohort {
            let user = users[assign_rng.next_u64() as usize % users.len()].clone();
            let gateway = format!("cstorm-gw-{}", assign_rng.next_u64() as usize % gateways);
            let start_at = base_now
                + if opts.start_spread == 0 {
                    0
                } else {
                    assign_rng.next_u64() % (opts.start_spread + 1)
                };
            let garbage = opts.reject_every != 0 && (i + 1) % opts.reject_every == 0;
            let name = format!("c{i}");
            let ep = net.register(&name);
            let mut seed_bytes = [0u8; 16];
            seed_bytes[..8].copy_from_slice(&opts.seed.to_be_bytes());
            seed_bytes[8..].copy_from_slice(&(i as u64).to_be_bytes());
            let config =
                TlsConfig::new(user, trust.clone(), 100).with_pool(Arc::clone(&client_pool));
            let id = ep.id();
            sched.spawn_mailbox_id(
                id,
                Principal {
                    ep,
                    gateway,
                    config: Some(config),
                    rng: ChaChaRng::from_seed_bytes(&seed_bytes),
                    state: PrincipalState::Boot,
                    start_at,
                    garbage,
                },
            );
        }
        spawned += cohort;
        // Run this cohort to quiescence before admitting the next: the
        // live-task high-water mark stays ~cohort + gateways.
        sched.run();
    }

    let sched_stats = sched.run();
    let metrics = tracer.metrics();
    drop(guard);

    let (mut hits, mut misses) = (0u64, 0u64);
    for pool in &gateway_pools {
        let p = pool.lock().expect("gateway pool lock");
        hits += p.validator().hits();
        misses += p.validator().misses();
    }

    let counter = |name: &str| metrics.counters.get(name).copied().unwrap_or(0);
    CryptoStormReport {
        principals: opts.principals,
        established: counter("cstorm.flows.established"),
        rejected: counter("cstorm.flows.rejected"),
        sim_seconds: sched.now(),
        traffic: net.stats(),
        sched: sched_stats,
        validator_misses: misses,
        validator_hits: hits,
        metrics,
        wall_ms: wall.elapsed().as_millis(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_crypto_storm_establishes_and_is_deterministic() {
        let mut opts = CryptoStormOpts::new(600, 0x00C0_DE57);
        opts.cohort = 200;
        opts.credentials = 16;
        let r1 = run_crypto_storm(&opts);
        let r2 = run_crypto_storm(&opts);
        assert_eq!(
            r1.deterministic_render(),
            r2.deterministic_render(),
            "same seed, byte-identical crypto-storm report"
        );
        // Every session reached a verdict; only the garbage hellos were
        // refused (600/97 = 6 of them).
        assert_eq!(r1.established + r1.rejected, 600);
        assert_eq!(r1.rejected, 6);
        assert_eq!(
            r1.metrics
                .counters
                .get("cstorm.flows.rejected_credential")
                .copied()
                .unwrap_or(0),
            0,
            "no trusted credential may be refused"
        );
        // Real crypto amortized, not skipped: at most one chain walk
        // per distinct credential (pool users + the service identity)
        // per gateway pool, cache hits for everyone else.
        assert!(
            r1.validator_misses <= (opts.gateways * (opts.credentials + 1)) as u64,
            "misses: {}",
            r1.validator_misses
        );
        assert!(r1.validator_hits >= 500, "hits: {}", r1.validator_hits);
        // Cohorts bound task residency: population 600, but at most
        // cohort + gateways + 1 live at once.
        assert!(
            r1.sched.live_high_water <= (opts.cohort + opts.gateways + 1) as u64,
            "live high water {} exceeds cohort bound",
            r1.sched.live_high_water
        );
        // Cross-task batching actually happened.
        let waves = r1.metrics.counters.get("cstorm.gw.waves").copied().unwrap();
        assert!(waves > 0);
        let h = r1.metrics.hists.get("cstorm.wave_size").unwrap();
        assert!(h.max >= 2, "waves never batched: max {}", h.max);
        // A different seed is a different storm.
        let r3 = run_crypto_storm(&CryptoStormOpts {
            cohort: 200,
            credentials: 16,
            ..CryptoStormOpts::new(600, 0x00C0_DE58)
        });
        assert_ne!(r1.deterministic_render(), r3.deterministic_render());
    }
}
