//! The byte-stream contract of a [`SimStream`], swept over fault
//! profiles: 24 seeds × {perfect, drop-only, duplicate-only,
//! reorder-only, `lossy_wan`}.
//!
//! A call-shaped client writes a few chunks per round and reads their
//! echo back from a scheduled server task. Whatever the network does to
//! the segments:
//!
//! * each side reads an in-order prefix of what the other wrote — no
//!   byte duplicated, reordered or invented;
//! * a tear surfaces as `ConnectionReset` on both sides (the server
//!   learns of it from the client's RST, unless that segment is itself
//!   lost), never as a hang;
//! * on a network that loses nothing, every round completes and the
//!   server reads EOF after the client hangs up.

use std::cell::RefCell;
use std::io::{ErrorKind, Read, Write};
use std::rc::Rc;

use gridsec_testbed::clock::SimClock;
use gridsec_testbed::net::{FaultProfile, Network, SimStream};
use gridsec_testbed::sched::{Scheduler, Step, TaskCx};
use gridsec_util::rng::{DetRng, RngCore};

const SEEDS: u64 = 24;
const ROUNDS: usize = 12;

/// How the server task's half ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum End {
    Eof,
    Reset,
    /// Still waiting when the world went quiescent.
    Parked,
}

/// Everything one run observed.
struct Run {
    /// What the client wrote.
    sent: Vec<u8>,
    /// What the server read (and echoed).
    seen: Vec<u8>,
    /// What the client read back.
    got: Vec<u8>,
    /// The client's first error, if the exchange stopped early.
    client: Option<ErrorKind>,
    server: End,
    transcript: Vec<String>,
}

/// Echo every byte read back to the client until the stream ends.
fn spawn_echo(
    sched: &mut Scheduler,
    mut half: SimStream,
) -> (Rc<RefCell<Vec<u8>>>, Rc<RefCell<End>>) {
    let seen = Rc::new(RefCell::new(Vec::new()));
    let end = Rc::new(RefCell::new(End::Parked));
    let (seen_by_task, end_by_task) = (seen.clone(), end.clone());
    sched.spawn_mailbox_id(half.endpoint().id(), move |_cx: &TaskCx| {
        let mut buf = [0u8; 256];
        loop {
            match half.try_read(&mut buf) {
                Ok(Some(0)) => {
                    *end_by_task.borrow_mut() = End::Eof;
                    return Step::Done;
                }
                Ok(Some(n)) => {
                    seen_by_task.borrow_mut().extend_from_slice(&buf[..n]);
                    // A failed echo means the client hung up; the next
                    // read reports how.
                    let _ = half.write_all(&buf[..n]);
                }
                Ok(None) => return Step::WaitMail { deadline: None },
                Err(e) => {
                    assert_eq!(e.kind(), ErrorKind::ConnectionReset, "{e}");
                    *end_by_task.borrow_mut() = End::Reset;
                    return Step::Done;
                }
            }
        }
    });
    (seen, end)
}

fn run(seed: u64, profile: FaultProfile) -> Run {
    let net = Network::new();
    net.enable_faults(SimClock::new(), seed, profile);
    let mut sched = Scheduler::new(&net);
    let (mut client, server) = net.connect("client:1", "server:1");
    let (seen, end) = spawn_echo(&mut sched, server);

    let mut rng = DetRng::seed_from_u64(seed ^ 0x57_2EA4);
    let (mut sent, mut got, mut failed) = (Vec::new(), Vec::new(), None);
    'rounds: for _ in 0..ROUNDS {
        let mut want = 0;
        for _ in 0..1 + rng.next_u64() % 3 {
            let len = 1 + (rng.next_u64() % 48) as usize;
            let chunk: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            if let Err(e) = client.write_all(&chunk) {
                failed = Some(e.kind());
                break 'rounds;
            }
            sent.extend_from_slice(&chunk);
            want += len;
        }
        let mut echo = vec![0u8; want];
        let mut filled = 0;
        while filled < want {
            match client.read(&mut echo[filled..]) {
                Ok(0) => panic!("seed {seed}: the server hung up first"),
                Ok(n) => filled += n,
                Err(e) => {
                    got.extend_from_slice(&echo[..filled]);
                    failed = Some(e.kind());
                    break 'rounds;
                }
            }
        }
        got.extend_from_slice(&echo);
    }
    drop(client);
    sched.run();
    let seen = seen.borrow().clone();
    let server = *end.borrow();
    Run {
        sent,
        seen,
        got,
        client: failed,
        server,
        transcript: net.transcript(),
    }
}

fn sweep(name: &str, profile: FaultProfile) -> (u64, u64) {
    let mut tears = 0;
    for seed in 0..SEEDS {
        let r = run(seed, profile);
        let at = format!("{name} seed {seed}");
        assert!(r.sent.starts_with(&r.seen), "{at}: server read other bytes");
        assert!(r.seen.starts_with(&r.got), "{at}: client read other bytes");
        // The client's hang-up is the run's last segment; the server
        // misses it only if the fault layer dropped it.
        let hang_up_lost = r.transcript.last().is_some_and(|l| l.ends_with("drop"));
        match r.client {
            None => {
                assert_eq!(r.got, r.sent, "{at}: a completed run echoes everything");
                let want = if hang_up_lost { End::Parked } else { End::Eof };
                assert_eq!(r.server, want, "{at}");
            }
            Some(kind) => {
                tears += 1;
                assert_eq!(kind, ErrorKind::ConnectionReset, "{at}");
                let want = if hang_up_lost {
                    End::Parked
                } else {
                    End::Reset
                };
                assert_eq!(r.server, want, "{at}");
            }
        }
    }
    (SEEDS - tears, tears)
}

#[test]
fn lossless_profiles_deliver_everything_in_order_then_eof() {
    let profiles = [
        ("perfect", FaultProfile::default()),
        (
            "duplicate-only",
            FaultProfile {
                duplicate: 0.3,
                max_extra_copies: 2,
                ..FaultProfile::default()
            },
        ),
        (
            "reorder-only",
            FaultProfile {
                reorder: 0.5,
                reorder_jitter: 3,
                ..FaultProfile::default()
            },
        ),
    ];
    for (name, profile) in profiles {
        assert_eq!(sweep(name, profile), (SEEDS, 0), "{name}: nothing may tear");
    }
}

#[test]
fn lossy_profiles_tear_as_resets_on_both_sides_never_hangs() {
    let drop_only = FaultProfile {
        drop: 0.05,
        ..FaultProfile::default()
    };
    for (name, profile) in [
        ("drop-only", drop_only),
        ("lossy_wan", FaultProfile::lossy_wan()),
    ] {
        let (completed, torn) = sweep(name, profile);
        assert!(torn > 0, "{name}: no seed tore — the sweep is vacuous");
        assert!(completed + torn == SEEDS);
    }
}

#[test]
fn a_swept_run_replays_byte_identically() {
    let a = run(7, FaultProfile::lossy_wan());
    let b = run(7, FaultProfile::lossy_wan());
    assert_eq!(a.transcript, b.transcript);
    assert_eq!((a.got, a.client, a.server), (b.got, b.client, b.server));
}
