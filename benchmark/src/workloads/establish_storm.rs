//! `establish_storm`: op = one GSS/TLS context established and proven
//! by a sealed round trip.
//!
//! The same shape as `scenarios::crypto_storm` (which `tests/parity.rs`
//! holds this driver equal to): principals are scheduler tasks built on
//! `gssapi::poll::PollInitiator`, gateways batch the hellos that arrive
//! between their steps through `WaveAcceptor`/`HandshakeMill`, one in
//! [`StormOpts::reject_every`] principals sends a garbage hello that
//! must be refused. One cohort is one slice; the world (credentials,
//! pools, network, scheduler, gateways) persists across slices as it
//! does across the recorded storm's cohorts.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

use gridsec_crypto::rng::ChaChaRng;
use gridsec_gssapi::context::EstablishedContext;
use gridsec_gssapi::poll::{PollInitiator, WaveAcceptor};
use gridsec_pki::ca::CertificateAuthority;
use gridsec_pki::credential::Credential;
use gridsec_pki::name::DistinguishedName;
use gridsec_pki::store::TrustStore;
use gridsec_testbed::net::{Endpoint, Network};
use gridsec_testbed::sched::{SchedStats, Scheduler, Step, Task, TaskCx};
use gridsec_tls::handshake::TlsConfig;
use gridsec_tls::pool::CryptoPool;
use gridsec_util::rng::{DetRng, RngCore};

use crate::harness::{slice_seed, Config, Digest, Sabotage, SliceOutcome, Workload};
use crate::span::span;

const TAG_HELLO: u8 = 1;
const TAG_FINISHED: u8 = 2;
const TAG_SERVER_HELLO: u8 = 1;
const TAG_PROOF: u8 = 2;
const TAG_REJECT: u8 = 0;

/// What every gateway seals over a fresh channel; the op's payload.
const PROOF: &[u8] = b"cstorm proof of keys";

/// The storm's shape. The benchmark's constants are [`StormOpts::bench`].
#[derive(Clone, Debug)]
pub struct StormOpts {
    /// Principals per slice (one cohort).
    pub cohort: usize,
    pub credentials: usize,
    pub gateways: usize,
    /// Start-stagger window in sim seconds.
    pub start_spread: u64,
    /// Every n-th principal sends a garbage hello.
    pub reject_every: usize,
}

impl StormOpts {
    /// 291 principals over four scheduler ticks on 4 gateways is the
    /// recorded storm's arrival density (4096 over 61 ticks: 17–18
    /// hellos per gateway per tick); 291 = 3 × 97, so every slice holds
    /// exactly 3 garbage hellos and 288 valid ops, ≈50 ms of work.
    pub fn bench() -> Self {
        StormOpts {
            cohort: 291,
            credentials: 128,
            gateways: 4,
            start_spread: 3,
            reject_every: 97,
        }
    }
}

/// Counters the tasks share with the driver.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub established: u64,
    pub rejected: u64,
    /// Refusals of a principal that presented a real credential.
    pub rejected_credential: u64,
    /// Garbage hellos that got anything but a refusal.
    pub garbage_accepted: u64,
    /// Bad server hello / bad proof / out-of-order token.
    pub protocol_errors: u64,
    pub waves: u64,
    /// Hellos in each wave flushed since the last slice ended.
    pub wave_sizes: Vec<u64>,
}

/// Totals since the world was built, in the recorded storm's terms.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Totals {
    pub counters: Counters,
    pub messages: u64,
    pub bytes: u64,
    pub sched: SchedStats,
}

type Shared = Rc<RefCell<Counters>>;

fn dn(s: &str) -> DistinguishedName {
    DistinguishedName::parse(s).expect("benchmark DN")
}

fn tagged(tag: u8, body: &[u8]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(1 + body.len());
    payload.push(tag);
    payload.extend_from_slice(body);
    payload
}

struct MillGateway {
    ep: Endpoint,
    acceptor: WaveAcceptor,
    rng: ChaChaRng,
    routes: HashMap<u64, String>,
    shared: Shared,
    /// [`Sabotage::AcceptGarbageHello`], armed until it fires once.
    accept_one_garbage: bool,
}

impl MillGateway {
    fn reply(&self, to: &str, tag: u8, body: &[u8]) {
        let _ = span("testbed.net_send", 0, || {
            self.ep.send(to, tagged(tag, body))
        });
    }
}

impl Task for MillGateway {
    fn step(&mut self, _cx: &TaskCx) -> Step {
        span("task.gateway", 0, || self.step_inner())
    }
}

impl MillGateway {
    fn step_inner(&mut self) -> Step {
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
                TAG_FINISHED => {
                    let accepted = span("gssapi.submit_finished", session, || {
                        self.acceptor.submit_finished(session, &mut self.rng, body)
                    });
                    match accepted {
                        Ok(mut ctx) => {
                            let sealed = span("gssapi.wrap", session, || ctx.wrap(PROOF));
                            self.reply(&m.from, TAG_PROOF, &sealed);
                        }
                        Err(_) => self.reply(&m.from, TAG_REJECT, &[]),
                    }
                }
                _ => self.reply(&m.from, TAG_REJECT, &[]),
            }
        }
        if self.acceptor.pending() > 0 {
            let size = self.acceptor.pending() as u64;
            let wave = span("gssapi.wave_flush", size, || {
                self.acceptor.flush_wave(&mut self.rng)
            });
            let mut c = self.shared.borrow_mut();
            c.waves += 1;
            c.wave_sizes.push(size);
            drop(c);
            for (session, result) in wave {
                let to = self
                    .routes
                    .remove(&session)
                    .expect("wave session was routed");
                match result {
                    Ok(server_hello) => self.reply(&to, TAG_SERVER_HELLO, &server_hello),
                    Err(_) if self.accept_one_garbage => {
                        self.accept_one_garbage = false;
                        self.reply(&to, TAG_SERVER_HELLO, b"sabotaged acceptance");
                    }
                    Err(_) => self.reply(&to, TAG_REJECT, &[]),
                }
            }
        }
        Step::WaitMail { deadline: None }
    }
}

enum PrincipalState {
    Boot,
    AwaitServerHello(PollInitiator),
    AwaitProof(Box<EstablishedContext>),
    AwaitReject,
}

struct Principal {
    op: u64,
    ep: Endpoint,
    gateway: String,
    config: Option<TlsConfig>,
    rng: ChaChaRng,
    state: PrincipalState,
    start_at: u64,
    garbage: bool,
    shared: Shared,
}

impl Principal {
    fn send(&self, tag: u8, body: &[u8]) {
        let _ = span("testbed.net_send", self.op, || {
            self.ep.send(&self.gateway, tagged(tag, body))
        });
    }
}

impl Task for Principal {
    fn step(&mut self, cx: &TaskCx) -> Step {
        span("task.principal", self.op, || self.step_inner(cx))
    }
}

impl Principal {
    fn step_inner(&mut self, cx: &TaskCx) -> Step {
        if matches!(self.state, PrincipalState::Boot) {
            if cx.now() < self.start_at {
                return Step::Sleep(self.start_at);
            }
            if self.garbage {
                self.send(TAG_HELLO, b"not a hello");
                self.state = PrincipalState::AwaitReject;
            } else {
                let config = self.config.take().expect("config consumed once");
                let (init, hello) = span("gssapi.initiator_new", self.op, || {
                    PollInitiator::new(config, &mut self.rng)
                });
                self.send(TAG_HELLO, &hello);
                self.state = PrincipalState::AwaitServerHello(init);
            }
        }
        while let Some(m) = self.ep.try_recv() {
            let Some((&tag, body)) = m.payload.split_first() else {
                continue;
            };
            let mut c = self.shared.borrow_mut();
            if tag == TAG_REJECT {
                c.rejected += 1;
                if !self.garbage {
                    c.rejected_credential += 1;
                }
                return Step::Done;
            }
            drop(c);
            match std::mem::replace(&mut self.state, PrincipalState::Boot) {
                PrincipalState::AwaitServerHello(init) if tag == TAG_SERVER_HELLO => {
                    match span("gssapi.initiator_feed", self.op, || init.feed(body)) {
                        Ok((finished, ctx)) => {
                            self.send(TAG_FINISHED, &finished);
                            self.state = PrincipalState::AwaitProof(Box::new(ctx));
                        }
                        Err(_) => {
                            self.shared.borrow_mut().protocol_errors += 1;
                            return Step::Done;
                        }
                    }
                }
                PrincipalState::AwaitProof(mut ctx) if tag == TAG_PROOF => {
                    let clear = span("gssapi.unwrap", self.op, || ctx.unwrap(body));
                    let mut c = self.shared.borrow_mut();
                    match clear {
                        Ok(clear) if clear == PROOF => c.established += 1,
                        _ => c.protocol_errors += 1,
                    }
                    return Step::Done;
                }
                PrincipalState::AwaitReject => {
                    self.shared.borrow_mut().garbage_accepted += 1;
                    return Step::Done;
                }
                _ => {
                    self.shared.borrow_mut().protocol_errors += 1;
                    return Step::Done;
                }
            }
        }
        Step::WaitMail { deadline: None }
    }
}

/// The persistent world: credential pool, pools, network, gateways.
pub struct EstablishStorm {
    seed: u64,
    opts: StormOpts,
    net: Network,
    sched: Scheduler,
    pub(crate) users: Vec<Credential>,
    pub(crate) service: Credential,
    pub(crate) trust: TrustStore,
    pub(crate) client_pool: Arc<Mutex<CryptoPool>>,
    gateway_pools: Vec<Arc<Mutex<CryptoPool>>>,
    shared: Shared,
}

impl EstablishStorm {
    /// Build the world exactly as the recorded storm does for `seed`.
    pub fn with_opts(cfg: &Config, opts: StormOpts) -> Self {
        let seed = cfg.seed;
        let net = Network::new();
        let mut sched = Scheduler::new(&net);
        let mut world_rng =
            ChaChaRng::from_seed_bytes(format!("cstorm world {seed:#x}").as_bytes());
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

        let client_pool = Arc::new(Mutex::new(CryptoPool::new()));
        {
            let probe = TlsConfig::new(users[0].clone(), trust.clone(), 100);
            let mut p = client_pool.lock().expect("client pool lock");
            p.register_group(&probe.group);
            for u in &users {
                p.register_signer(u);
            }
        }

        let shared: Shared = Rc::default();
        let mut gateway_pools = Vec::new();
        for g in 0..opts.gateways.max(1) {
            let name = format!("cstorm-gw-{g}");
            let ep = net.register(&name);
            let acceptor = WaveAcceptor::new(TlsConfig::new(service.clone(), trust.clone(), 100));
            gateway_pools.push(acceptor.mill().pool());
            let rng = ChaChaRng::from_seed_bytes(format!("cstorm gw{g} {seed:#x}").as_bytes());
            sched.spawn_mailbox(
                &name,
                MillGateway {
                    ep,
                    acceptor,
                    rng,
                    routes: HashMap::new(),
                    shared: Rc::clone(&shared),
                    accept_one_garbage: g == 0
                        && cfg.sabotage == Some(Sabotage::AcceptGarbageHello),
                },
            );
        }

        EstablishStorm {
            seed,
            opts,
            net,
            sched,
            users,
            service,
            trust,
            client_pool,
            gateway_pools,
            shared,
        }
    }

    /// Totals since the world was built.
    pub fn totals(&self) -> Totals {
        let traffic = self.net.stats();
        Totals {
            counters: self.shared.borrow().clone(),
            messages: traffic.messages,
            bytes: traffic.bytes,
            sched: self.sched.stats(),
        }
    }

    /// (validator hits, validator misses, binding hits, binding misses)
    /// summed over the gateways' pools.
    pub fn pool_stats(&self) -> [u64; 4] {
        let mut s = [0u64; 4];
        for pool in &self.gateway_pools {
            let p = pool.lock().expect("gateway pool lock");
            s[0] += p.validator().hits();
            s[1] += p.validator().misses();
            s[2] += p.binding_hits();
            s[3] += p.binding_misses();
        }
        s
    }

    pub fn opts(&self) -> &StormOpts {
        &self.opts
    }
}

impl Workload for EstablishStorm {
    const NAME: &'static str = "establish_storm";
    const CLOSED_LOOP: bool = false;

    fn build(cfg: &Config) -> Self {
        Self::with_opts(cfg, StormOpts::bench())
    }

    fn slice(&mut self, index: u64) -> SliceOutcome {
        let before = self.totals();
        let pools_before = self.pool_stats();
        let seed = slice_seed(self.seed, index);
        let opts = self.opts.clone();
        let gateways = opts.gateways.max(1);
        let mut assign = DetRng::seed_from_u64(seed ^ 0xC59_7057);
        let base_now = self.sched.now();
        let mut garbage_sent = 0u64;
        for i in 0..opts.cohort {
            let user = self.users[assign.next_u64() as usize % self.users.len()].clone();
            let gateway = format!("cstorm-gw-{}", assign.next_u64() as usize % gateways);
            let start_at = base_now
                + if opts.start_spread == 0 {
                    0
                } else {
                    assign.next_u64() % (opts.start_spread + 1)
                };
            let garbage = opts.reject_every != 0 && (i + 1) % opts.reject_every == 0;
            garbage_sent += u64::from(garbage);
            // Names are reused by every slice: re-registering replaces
            // the finished principal's mailbox, so the name table and
            // endpoint map stay cohort-sized however long the run.
            let ep = self.net.register(&format!("c{i}"));
            let mut seed_bytes = [0u8; 16];
            seed_bytes[..8].copy_from_slice(&seed.to_be_bytes());
            seed_bytes[8..].copy_from_slice(&(i as u64).to_be_bytes());
            let config = TlsConfig::new(user, self.trust.clone(), 100)
                .with_pool(Arc::clone(&self.client_pool));
            let id = ep.id();
            self.sched.spawn_mailbox_id(
                id,
                Principal {
                    op: i as u64,
                    ep,
                    gateway,
                    config: Some(config),
                    rng: ChaChaRng::from_seed_bytes(&seed_bytes),
                    state: PrincipalState::Boot,
                    start_at,
                    garbage,
                    shared: Rc::clone(&self.shared),
                },
            );
        }
        span("testbed.sched_run", index, || self.sched.run());

        let after = self.totals();
        let (b, a) = (&before.counters, &after.counters);
        let established = a.established - b.established;
        let rejected = a.rejected - b.rejected;
        let garbage_accepted = a.garbage_accepted - b.garbage_accepted;
        let valid = opts.cohort as u64 - garbage_sent;
        let messages = after.messages - before.messages;
        let bytes = after.bytes - before.bytes;
        let waves = a.waves - b.waves;

        let mut d = Digest::new(Self::NAME);
        d.u64(established)
            .u64(rejected)
            .u64(a.rejected_credential - b.rejected_credential)
            .u64(garbage_accepted)
            .u64(a.protocol_errors - b.protocol_errors)
            .u64(waves)
            .u64(messages)
            .u64(bytes)
            .u64(after.sched.steps - before.sched.steps);

        let mut counts = vec![
            ("gssapi.waves", waves),
            ("gssapi.rejected", rejected),
            (
                "testbed.sched_steps",
                after.sched.steps - before.sched.steps,
            ),
        ];
        const POOL_COUNTS: [&str; 4] = [
            "gssapi.validator_hits",
            "gssapi.validator_misses",
            "gssapi.binding_hits",
            "gssapi.binding_misses",
        ];
        let pools_after = self.pool_stats();
        for (k, name) in POOL_COUNTS.into_iter().enumerate() {
            counts.push((name, pools_after[k] - pools_before[k]));
        }
        let sizes = std::mem::take(&mut self.shared.borrow_mut().wave_sizes);
        counts.extend(sizes.into_iter().map(|n| ("gssapi.wave_size", n)));
        SliceOutcome {
            attempted: opts.cohort as u64,
            ok: established,
            failed: (valid - established.min(valid)) + garbage_accepted,
            payload_bytes: established * PROOF.len() as u64,
            wire_bytes: bytes,
            msgs: messages,
            digest: d.finish(),
            op_ns: Vec::new(),
            busy_ns: 0,
            counts,
        }
    }
}
