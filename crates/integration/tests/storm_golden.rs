//! Cross-commit storm goldens: `testbed::{net, sched, rpc}` may be
//! rebuilt on other data structures, what a seeded storm observes may
//! not move.
//!
//! Every `storm.*` pin in `tests/golden.pins` was recorded at the commit
//! *before* the message path left `Mutex` / `mpsc` / `BinaryHeap` (PR
//! 16's tree), and all but one have not moved since: the renders hold
//! counts and simulated times, no key bytes, so `scripts/repin.sh` must
//! leave them as they are whenever only seeded keys change. The one
//! move is `storm.crypto_1500` in PR 20, by one line of its render
//! (`validator misses=491 hits=994` → `misses=484 hits=1001`): the
//! render counts chain walks, and the batch validator deleted there
//! walked a chain once per occurrence in a wave before caching it,
//! where a wave accepted as a loop walks it once. No message, wake,
//! verdict or simulated time in it moved. Each pins the SHA-256
//! and length of a whole deterministic render, so a single reordered
//! wake, shifted fault draw or miscounted drop anywhere in a run of
//! 10⁴–10⁵ messages changes it. The last test keeps the fault
//! transcript on and pins it line for line together with the three
//! stats blocks — the storms themselves run with recording off.

use gridsec_crypto::sha256::sha256;
use gridsec_integration::scenarios::crypto_storm::{run_crypto_storm, CryptoStormOpts};
use gridsec_integration::scenarios::expiry_storm::{run_expiry_storm, ExpiryOpts};
use gridsec_integration::scenarios::policy;
use gridsec_integration::scenarios::vo_storm::{run_vo_storm, StormOpts};
use gridsec_testbed::clock::SimClock;
use gridsec_testbed::net::{Endpoint, FaultProfile, Network};
use gridsec_testbed::rpc::{self, CallPoll, PollingCall};
use gridsec_testbed::sched::{Scheduler, Step, TaskCx};
use gridsec_util::pins;
use gridsec_util::rng::{DetRng, RngCore};

/// Hold `render` to the pin `name`; a failing run prints it.
fn check_render(name: &str, render: &str) {
    println!("{name}:\n{render}");
    pins::check(name, sha256(render.as_bytes()), render.len());
}

#[test]
fn vo_storm_render_is_the_recorded_one() {
    // verify.sh's smoke size, under the bench bin's seed and one more.
    for (seed, name) in [
        (0x0057_0A11, "storm.vo_2000.570a11"),
        (0x0057_0A12, "storm.vo_2000.570a12"),
    ] {
        let render = run_vo_storm(&StormOpts::new(2_000, seed)).deterministic_render();
        check_render(name, &render);
    }
}

#[test]
fn crypto_storm_render_is_the_recorded_one() {
    let render = run_crypto_storm(&CryptoStormOpts::new(1_500, 0x0C57)).deterministic_render();
    check_render("storm.crypto_1500", &render);
}

#[test]
fn expiry_storm_render_is_the_recorded_one() {
    let render = run_expiry_storm(&ExpiryOpts::new(400, 0xC4A0_5EED)).deterministic_render();
    check_render("storm.expiry_400", &render);
}

/// A stateless echo gateway on `ep`: answers every request frame with
/// its body reversed.
fn gateway(ep: Endpoint) -> impl FnMut(&TaskCx) -> Step {
    move |_cx| {
        while let Some(m) = ep.try_recv() {
            if let Some((id, body)) = rpc::decode_request(&m.payload) {
                let reply: Vec<u8> = body.iter().rev().copied().collect();
                let _ = ep.send(&m.from, rpc::encode_reply(id, &reply));
            }
        }
        Step::WaitMail { deadline: None }
    }
}

/// A principal on `ep`: sleeps to `start_at`, then makes `calls`
/// sequential calls to `server`.
fn principal(
    ep: Endpoint,
    server: String,
    start_at: u64,
    calls: u64,
) -> impl FnMut(&TaskCx) -> Step {
    let mut call: Option<PollingCall> = None;
    let mut done = 0u64;
    move |cx| {
        if cx.now() < start_at {
            return Step::Sleep(start_at);
        }
        loop {
            let c = call.get_or_insert_with(|| {
                let body = vec![done as u8; 40 + 25 * done as usize];
                PollingCall::new(&server, done + 1, &body, policy())
            });
            match c.poll(&ep, cx.now()) {
                CallPoll::Ready(_) => {
                    call = None;
                    done += 1;
                    if done == calls {
                        return Step::Done;
                    }
                }
                CallPoll::Wait { deadline } => {
                    return Step::WaitMail {
                        deadline: Some(deadline),
                    }
                }
                CallPoll::Exhausted => return Step::Done,
            }
        }
    }
}

#[test]
fn lossy_wan_storm_transcript_and_stats_are_the_recorded_ones() {
    let net = Network::new();
    net.enable_faults(SimClock::new(), 0x601D, FaultProfile::lossy_wan());
    let mut sched = Scheduler::new(&net);
    for g in 0..3 {
        let name = format!("gw-{g}");
        sched.spawn_mailbox(&name, gateway(net.register(&name)));
    }
    let mut rng = DetRng::seed_from_u64(0x601D ^ 0x5702_4A11);
    for i in 0..200 {
        let server = format!("gw-{}", rng.next_u64() % 3);
        let start_at = rng.next_u64() % 61;
        let name = format!("p{i}");
        sched.spawn_mailbox(&name, principal(net.register(&name), server, start_at, 4));
    }
    let sched_stats = sched.run();

    let transcript = net.transcript();
    let fault_stats = net.fault_stats().expect("faults are armed");
    assert_eq!(transcript.len() as u64, fault_stats.sent);
    assert!(fault_stats.dropped > 0 && fault_stats.duplicated > 0);
    let stats = format!("{sched_stats:?}\n{fault_stats:?}\n{:?}\n", net.stats());
    assert_eq!(
        stats,
        "SchedStats { spawned: 203, completed: 200, steps: 1837, clock_advances: 175, \
         mail_wakes: 1251, timer_wakes: 383, live_high_water: 203 }\n\
         FaultStats { sent: 2001, delivered: 2014, dropped: 260, duplicated: 273, blocked: 0 }\n\
         TrafficStats { messages: 2062, bytes: 183749 }\n",
    );
    let transcript = transcript.join("\n");
    pins::check(
        "storm.lossy_wan_200.transcript",
        sha256(transcript.as_bytes()),
        transcript.len(),
    );
}
