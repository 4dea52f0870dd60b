//! The storm engine `vo_storm`, `expiry_storm` and `crypto_storm` share.
//!
//! * [`Rig`] — the network (under [`STORM_WAN`] with transcript
//!   recording off, or clean), the clock, the installed tracer and the
//!   scheduler, plus one spawn for every gateway and principal task.
//! * [`Gateway`] — the stateless leg gateway. A leg's request opens
//!   with the length of the reply it wants (two bytes, big-endian), so
//!   every reply is a function of its request and a duplicate is
//!   answered by recomputation rather than an at-most-once reply cache:
//!   caching ~10⁵ replies would dominate memory without changing any
//!   observable. The real at-most-once discipline is exercised by the
//!   chaos suite's stateful services.
//! * [`Legs`] — a flow's `(request, reply)` legs run in order as
//!   [`PollingCall`]s, call ids a running counter.
//! * [`StormWorld`] — the CA, the credential pool, the portal service
//!   credential and the trust store behind the crypto-real handshakes.
//!
//! Renders count bytes, not content, so every storm render is a pure
//! function of its seed and the legs' lengths.

use std::fmt::Write as _;
use std::time::Instant;

use gridsec_crypto::rng::ChaChaRng;
use gridsec_pki::ca::CertificateAuthority;
use gridsec_pki::credential::Credential;
use gridsec_pki::store::TrustStore;
use gridsec_testbed::clock::SimClock;
use gridsec_testbed::net::{Endpoint, FaultProfile, FaultStats, Network, TrafficStats};
use gridsec_testbed::rpc::{self, CallPoll, PollingCall};
use gridsec_testbed::sched::{SchedStats, Scheduler, Step, Task, TaskCx};
use gridsec_util::trace::{self, InstallGuard, MetricsSnapshot, Tracer};

use crate::dn;

/// The storms' WAN: 1% loss, 1% duplication, 1–3s latency, 5% reorder
/// jitter — lossy enough to exercise retransmission on a meaningful
/// fraction of 10⁵ flows, reliable enough that the retry budget
/// virtually never exhausts.
const STORM_WAN: FaultProfile = FaultProfile {
    drop: 0.01,
    duplicate: 0.01,
    max_extra_copies: 1,
    min_latency: 1,
    max_latency: 3,
    reorder: 0.05,
    reorder_jitter: 2,
};

/// One storm's network, clock, tracer and scheduler.
pub(crate) struct Rig {
    net: Network,
    pub(crate) sched: Scheduler,
    tracer: Tracer,
    guard: InstallGuard,
    wall: Instant,
}

/// What a rig observed by quiescence; everything but `wall_ms` is a
/// pure function of the seed.
pub(crate) struct RigRun {
    pub(crate) sim_seconds: u64,
    pub(crate) traffic: TrafficStats,
    /// All zero on a clean rig.
    pub(crate) fault_stats: FaultStats,
    pub(crate) sched: SchedStats,
    pub(crate) metrics: MetricsSnapshot,
    pub(crate) wall_ms: u128,
}

impl RigRun {
    /// The trace counter `name`, 0 if it never moved.
    pub(crate) fn counter(&self, name: &str) -> u64 {
        self.metrics.counters.get(name).copied().unwrap_or(0)
    }
}

impl Rig {
    /// A rig over the storm WAN seeded by `seed`. One formatted
    /// transcript line per send would dominate memory at storm scale, so
    /// recording is off (it touches neither the fault RNG nor its
    /// stats); determinism is asserted on the metrics instead.
    pub(crate) fn lossy(seed: u64) -> Rig {
        let net = Network::new();
        net.enable_faults(SimClock::new(), seed, STORM_WAN);
        net.set_transcript_recording(false);
        Rig::over(net)
    }

    /// A rig over a faultless network.
    pub(crate) fn clean() -> Rig {
        Rig::over(Network::new())
    }

    fn over(net: Network) -> Rig {
        let wall = Instant::now();
        let sched = Scheduler::new(&net);
        let tracer = Tracer::new();
        let clock = sched.clock();
        tracer.set_clock(move || clock.now());
        let guard = trace::install(&tracer);
        Rig {
            net,
            sched,
            tracer,
            guard,
            wall,
        }
    }

    /// Register endpoint `name` and spawn `make(endpoint)` on its
    /// mailbox.
    pub(crate) fn spawn<T: Task + 'static>(
        &mut self,
        name: &str,
        make: impl FnOnce(Endpoint) -> T,
    ) {
        let ep = self.net.register(name);
        let id = ep.id();
        self.sched.spawn_mailbox_id(id, make(ep));
    }

    /// Spawn `count` gateways `{prefix}-{g}`, `make(g, endpoint)` each,
    /// and return their names.
    pub(crate) fn spawn_gateways<T: Task + 'static>(
        &mut self,
        prefix: &str,
        count: usize,
        mut make: impl FnMut(usize, Endpoint) -> T,
    ) -> Vec<String> {
        (0..count)
            .map(|g| {
                let name = format!("{prefix}-{g}");
                self.spawn(&name, |ep| make(g, ep));
                name
            })
            .collect()
    }

    /// Run to quiescence and uninstall the tracer.
    pub(crate) fn finish(mut self) -> RigRun {
        let sched = self.sched.run();
        let metrics = self.tracer.metrics();
        drop(self.guard);
        RigRun {
            sim_seconds: self.sched.now(),
            traffic: self.net.stats(),
            fault_stats: self.net.fault_stats().unwrap_or_default(),
            sched,
            metrics,
            wall_ms: self.wall.elapsed().as_millis(),
        }
    }
}

/// The `traffic`, `faults` and `sched` lines of a lossy storm's render.
pub(crate) fn render_wire(
    out: &mut String,
    traffic: &TrafficStats,
    f: &FaultStats,
    s: &SchedStats,
) {
    let _ = writeln!(
        out,
        "traffic messages={} bytes={}",
        traffic.messages, traffic.bytes
    );
    let _ = writeln!(
        out,
        "faults sent={} delivered={} dropped={} duplicated={} blocked={}",
        f.sent, f.delivered, f.dropped, f.duplicated, f.blocked
    );
    let _ = writeln!(
        out,
        "sched spawned={} completed={} steps={} clock_advances={} mail_wakes={} timer_wakes={}",
        s.spawned, s.completed, s.steps, s.clock_advances, s.mail_wakes, s.timer_wakes
    );
}

/// A stateless leg gateway: answers every RPC request with as many zero
/// bytes as its first two name, and an RPC frame too short to name a
/// length with an empty reply (so a corrupted frame fails fast
/// client-side); anything else is not RPC and is skipped.
pub(crate) struct Gateway {
    ep: Endpoint,
    /// Add the answers to the `storm.gw.answered` counter.
    tally: bool,
}

impl Gateway {
    pub(crate) fn new(ep: Endpoint, tally: bool) -> Self {
        Gateway { ep, tally }
    }
}

impl Task for Gateway {
    fn step(&mut self, _cx: &TaskCx) -> Step {
        let mut answered = 0u64;
        while let Some(m) = self.ep.try_recv() {
            let Some((id, body)) = rpc::decode_request(&m.payload) else {
                continue;
            };
            let reply_len = body
                .get(..2)
                .map_or(0, |len| u16::from_be_bytes([len[0], len[1]]) as usize);
            let _ = self
                .ep
                .send(&m.from, rpc::encode_reply(id, &vec![0u8; reply_len]));
            answered += 1;
        }
        if self.tally && answered > 0 {
            trace::add("storm.gw.answered", answered);
        }
        Step::WaitMail { deadline: None }
    }
}

/// What one [`Legs::poll`] came to.
pub(crate) enum LegPoll {
    /// A leg's reply arrived; the next leg starts on the next poll.
    Leg,
    /// The flow's last reply arrived; the next poll starts the flow over.
    Flow,
    /// Waiting on the gateway until mail or `deadline`.
    Wait(u64),
    /// A leg exhausted its retry budget; the next poll starts the flow
    /// over.
    Exhausted,
}

/// One principal's flow: its legs in order, each a [`PollingCall`] to
/// one gateway under the chaos suite's retry policy.
pub(crate) struct Legs {
    legs: &'static [(usize, usize)],
    leg: usize,
    call: Option<PollingCall>,
    /// Calls made so far; the last call's id.
    pub(crate) calls: u64,
    /// Retransmissions of the legs that got their reply.
    pub(crate) retransmissions: u64,
}

impl Legs {
    /// A flow of `legs`, each `(request, reply)` in bytes.
    pub(crate) fn new(legs: &'static [(usize, usize)]) -> Self {
        Legs {
            legs,
            leg: 0,
            call: None,
            calls: 0,
            retransmissions: 0,
        }
    }

    /// No call in flight: the flow is between legs or between flows.
    pub(crate) fn idle(&self) -> bool {
        self.call.is_none()
    }

    /// Drive the current leg against `gateway` at `now`, starting it if
    /// no call is in flight.
    pub(crate) fn poll(&mut self, ep: &Endpoint, gateway: &str, now: u64) -> LegPoll {
        let call = match &mut self.call {
            Some(call) => call,
            slot => {
                let (request, reply) = self.legs[self.leg];
                let mut payload = vec![0u8; request.max(2)];
                let reply = u16::try_from(reply).expect("a leg's reply length fits two bytes");
                payload[..2].copy_from_slice(&reply.to_be_bytes());
                self.calls += 1;
                slot.insert(PollingCall::new(
                    gateway,
                    self.calls,
                    &payload,
                    super::policy(),
                ))
            }
        };
        match call.poll(ep, now) {
            CallPoll::Ready(_) => {
                self.retransmissions += call.retransmissions();
                self.call = None;
                self.leg += 1;
                if self.leg < self.legs.len() {
                    return LegPoll::Leg;
                }
                self.leg = 0;
                LegPoll::Flow
            }
            CallPoll::Wait { deadline } => LegPoll::Wait(deadline),
            CallPoll::Exhausted => {
                self.call = None;
                self.leg = 0;
                LegPoll::Exhausted
            }
        }
    }
}

/// The credentials behind a crypto-real storm: one CA, a pool of user
/// identities, the portal service's identity, and a store trusting the
/// CA.
pub(crate) struct StormWorld {
    pub(crate) users: Vec<Credential>,
    pub(crate) service: Credential,
    pub(crate) trust: TrustStore,
}

impl StormWorld {
    /// Issue `users` identities `/O=Storm/CN={user_cn}{i}` (at least
    /// one) and the service's, every key drawn from the stream
    /// `"{label} world {seed:#x}"`.
    pub(crate) fn build(label: &str, seed: u64, user_cn: &str, users: usize) -> Self {
        let mut rng = ChaChaRng::from_seed_bytes(format!("{label} world {seed:#x}").as_bytes());
        let ca =
            CertificateAuthority::create_root(&mut rng, dn("/O=Storm/CN=CA"), 512, 0, u64::MAX / 2);
        let mut issue = |cn: &str| {
            ca.issue_identity(
                &mut rng,
                dn(&format!("/O=Storm/CN={cn}")),
                512,
                0,
                u64::MAX / 4,
            )
        };
        let users = (0..users.max(1))
            .map(|i| issue(&format!("{user_cn}{i}")))
            .collect();
        let service = issue("Portal");
        let mut trust = TrustStore::new();
        trust.add_root(ca.certificate().clone());
        StormWorld {
            users,
            service,
            trust,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gateway_skips_non_rpc_and_answers_a_short_frame_empty() {
        let net = Network::new();
        let mut sched = Scheduler::new(&net);
        let client = net.register("client");
        let gw = net.register("gw");
        let id = gw.id();
        sched.spawn_mailbox_id(id, Gateway::new(gw, false));
        client.send("gw", b"not an rpc frame".to_vec()).unwrap();
        client.send("gw", rpc::encode_request(7, &[0])).unwrap();
        client
            .send("gw", rpc::encode_request(8, &[0, 3, 9, 9]))
            .unwrap();
        sched.run();
        let replies: Vec<_> = std::iter::from_fn(|| client.try_recv())
            .map(|m| {
                let (id, body) = rpc::decode_reply(&m.payload).expect("an RPC reply");
                (id, body.to_vec())
            })
            .collect();
        assert_eq!(replies, vec![(7, vec![]), (8, vec![0; 3])]);
    }
}
