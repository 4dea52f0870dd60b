//! `vo_flows`: op = one completed Figure-1 or Figure-4 message-shaped
//! flow.
//!
//! The same shape as `scenarios::vo_storm` (which `tests/parity.rs`
//! holds this driver equal to): every principal is a scheduler task
//! running its flow's legs as sequential `testbed::rpc::PollingCall`s
//! through the seeded `storm_wan` fault profile against stateless
//! gateways. No modular exponentiation happens anywhere in an op. Each
//! slice is a whole storm of [`FlowOpts::principals`] on a fresh
//! network, resident at once, so this is also the memory workload.

use std::cell::RefCell;
use std::rc::Rc;

use gridsec_testbed::clock::SimClock;
use gridsec_testbed::net::{Endpoint, FaultProfile, FaultStats, Network};
use gridsec_testbed::rpc::{self, CallPoll, PollingCall};
use gridsec_testbed::sched::{SchedStats, Scheduler, Step, Task, TaskCx};
use gridsec_util::retry::RetryPolicy;
use gridsec_util::rng::{DetRng, RngCore};

use crate::harness::{slice_seed, Config, Digest, Sabotage, SliceOutcome, Workload};
use crate::span::span;

/// Figure-1 legs (request, reply) in bytes.
const FIG1_LEGS: &[(usize, usize)] = &[(620, 380), (240, 160), (410, 300)];
/// Figure-4 legs.
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

/// The storm's shape; the defaults are `vo_storm::StormOpts::new`'s.
#[derive(Clone, Debug)]
pub struct FlowOpts {
    /// Principals per slice.
    pub principals: usize,
    pub fig4_permille: u32,
    pub start_spread: u64,
    pub gateways: usize,
    pub profile: FaultProfile,
    pub policy: RetryPolicy,
}

impl FlowOpts {
    pub fn new(principals: usize) -> Self {
        FlowOpts {
            principals,
            fig4_permille: 300,
            start_spread: 600,
            gateways: (principals / 4096).clamp(4, 64),
            // 1% loss, 1% duplication, 1–3 s latency, 5% reorder jitter.
            profile: FaultProfile {
                drop: 0.01,
                duplicate: 0.01,
                max_extra_copies: 1,
                min_latency: 1,
                max_latency: 3,
                reorder: 0.05,
                reorder_jitter: 2,
            },
            policy: RetryPolicy {
                max_attempts: 8,
                base_timeout: 16,
                multiplier: 2,
                max_timeout: 64,
            },
        }
    }

    /// 4 000 principals ≈ 65 ms of work per slice.
    pub fn bench() -> Self {
        FlowOpts::new(4_000)
    }
}

/// What one storm produced, in the recorded storm's terms.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StormCounts {
    pub completed: u64,
    pub failed: u64,
    pub retransmissions: u64,
    pub calls: u64,
    pub answered: u64,
    pub messages: u64,
    pub bytes: u64,
    pub faults: FaultStats,
    pub sched: SchedStats,
    /// Bytes the tasks put on the wire (lost copies included).
    pub sent_bytes: u64,
    /// Leg payload bytes of completed flows.
    pub payload_bytes: u64,
}

type Shared = Rc<RefCell<StormCounts>>;

struct Gateway {
    ep: Endpoint,
    shared: Shared,
}

impl Task for Gateway {
    fn step(&mut self, _cx: &TaskCx) -> Step {
        span("task.gateway", 0, || {
            while let Some(m) = self.ep.try_recv() {
                let Some((id, body)) = rpc::decode_request(&m.payload) else {
                    continue;
                };
                let reply_len = body
                    .first()
                    .zip(body.get(1))
                    .and_then(|(tag, leg)| legs_for(*tag).get(*leg as usize))
                    .map(|(_, rep)| *rep)
                    .unwrap_or(0);
                let reply = rpc::encode_reply(id, &vec![0u8; reply_len]);
                let mut c = self.shared.borrow_mut();
                c.answered += 1;
                c.sent_bytes += reply.len() as u64;
                drop(c);
                let _ = self.ep.send(&m.from, reply);
            }
            Step::WaitMail { deadline: None }
        })
    }
}

struct Principal {
    op: u64,
    ep: Endpoint,
    gateway: String,
    tag: u8,
    leg: usize,
    call: Option<PollingCall>,
    /// Framed size of the current leg's request.
    frame_len: u64,
    start_at: u64,
    began: bool,
    retransmissions: u64,
    policy: RetryPolicy,
    shared: Shared,
}

impl Principal {
    /// Account for a finished call: every attempt put one frame on the
    /// wire.
    fn settle(&mut self, call: &PollingCall) {
        let retx = call.retransmissions();
        self.retransmissions += retx;
        let mut c = self.shared.borrow_mut();
        c.calls += 1;
        c.sent_bytes += self.frame_len * (1 + retx);
    }
}

impl Task for Principal {
    fn step(&mut self, cx: &TaskCx) -> Step {
        span("task.principal", self.op, || self.step_inner(cx))
    }
}

impl Principal {
    fn step_inner(&mut self, cx: &TaskCx) -> Step {
        let now = cx.now();
        if !self.began {
            if now < self.start_at {
                return Step::Sleep(self.start_at);
            }
            self.began = true;
        }
        let legs = legs_for(self.tag);
        loop {
            if self.call.is_none() {
                let (req_len, _) = legs[self.leg];
                let mut payload = vec![0u8; req_len.max(2)];
                payload[0] = self.tag;
                payload[1] = self.leg as u8;
                let id = (self.leg + 1) as u64;
                self.frame_len = rpc::encode_request(id, &payload).len() as u64;
                self.call = Some(PollingCall::new(&self.gateway, id, &payload, self.policy));
            }
            let call = self.call.as_mut().expect("just ensured");
            match call.poll(&self.ep, now) {
                CallPoll::Ready(_reply) => {
                    let call = self.call.take().expect("polled above");
                    self.settle(&call);
                    self.leg += 1;
                    if self.leg == legs.len() {
                        let mut c = self.shared.borrow_mut();
                        c.completed += 1;
                        c.retransmissions += self.retransmissions;
                        c.payload_bytes += legs.iter().map(|(q, r)| (q + r) as u64).sum::<u64>();
                        return Step::Done;
                    }
                }
                CallPoll::Wait { deadline } => {
                    return Step::WaitMail {
                        deadline: Some(deadline),
                    }
                }
                CallPoll::Exhausted => {
                    let call = self.call.take().expect("polled above");
                    self.settle(&call);
                    self.shared.borrow_mut().failed += 1;
                    return Step::Done;
                }
            }
        }
    }
}

/// Run one storm of `opts.principals` under `seed` to quiescence.
pub fn run_storm(opts: &FlowOpts, seed: u64) -> StormCounts {
    let net = Network::new();
    let clock = SimClock::new();
    net.enable_faults(clock, seed, opts.profile);
    net.set_transcript_recording(false);
    let mut sched = Scheduler::new(&net);
    let shared: Shared = Rc::default();

    let gateways = opts.gateways.max(1);
    for g in 0..gateways {
        let name = format!("vo-gw-{g}");
        let ep = net.register(&name);
        sched.spawn_mailbox(
            &name,
            Gateway {
                ep,
                shared: Rc::clone(&shared),
            },
        );
    }
    let mut rng = DetRng::seed_from_u64(seed ^ 0x5702_4A11);
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
                op: i as u64,
                ep,
                gateway,
                tag,
                leg: 0,
                call: None,
                frame_len: 0,
                start_at,
                began: false,
                retransmissions: 0,
                policy: opts.policy,
                shared: Rc::clone(&shared),
            },
        );
    }
    let sched_stats = span("testbed.sched_run", 0, || sched.run());

    let traffic = net.stats();
    let mut counts = shared.borrow().clone();
    counts.messages = traffic.messages;
    counts.bytes = traffic.bytes;
    counts.faults = net.fault_stats().expect("faults are armed");
    counts.sched = sched_stats;
    counts
}

/// The workload: nothing persists between slices but the options.
pub struct VoFlows {
    seed: u64,
    opts: FlowOpts,
}

impl VoFlows {
    pub fn with_opts(cfg: &Config, mut opts: FlowOpts) -> Self {
        if cfg.sabotage == Some(Sabotage::FailValidOp) {
            opts.policy.max_attempts = 1;
        }
        VoFlows {
            seed: cfg.seed,
            opts,
        }
    }
}

impl Workload for VoFlows {
    const NAME: &'static str = "vo_flows";
    const CLOSED_LOOP: bool = false;

    fn build(cfg: &Config) -> Self {
        Self::with_opts(cfg, FlowOpts::bench())
    }

    fn slice(&mut self, index: u64) -> SliceOutcome {
        let c = run_storm(&self.opts, slice_seed(self.seed, index));
        let mut d = Digest::new(Self::NAME);
        d.u64(c.completed)
            .u64(c.failed)
            .u64(c.retransmissions)
            .u64(c.answered)
            .u64(c.messages)
            .u64(c.bytes)
            .u64(c.faults.sent)
            .u64(c.faults.delivered)
            .u64(c.faults.dropped)
            .u64(c.faults.duplicated)
            .u64(c.sched.steps)
            .u64(c.sched.live_high_water);
        SliceOutcome {
            attempted: self.opts.principals as u64,
            ok: c.completed,
            failed: self.opts.principals as u64 - c.completed,
            payload_bytes: c.payload_bytes,
            wire_bytes: c.sent_bytes,
            msgs: c.faults.sent,
            digest: d.finish(),
            op_ns: Vec::new(),
            busy_ns: 0,
            counts: vec![
                ("testbed.sched_steps", c.sched.steps),
                ("testbed.sched_live_high_water", c.sched.live_high_water),
                ("testbed.rpc_calls", c.calls),
                ("testbed.rpc_retransmissions", c.retransmissions),
                ("testbed.net_sent", c.faults.sent),
                ("testbed.net_dropped", c.faults.dropped),
            ],
        }
    }
}
