//! What happens to a mailbox when its handle goes away.
//!
//! An [`Endpoint`] and its network slot share one plain queue. Dropping
//! the handle frees the queue and leaves a tombstone — not a vacancy: a
//! storm's gateways keep answering principals that have already
//! finished, and those sends must go on being accepted and drawing
//! their fate, or every later fault decision in the run would shift.

use gridsec_testbed::clock::SimClock;
use gridsec_testbed::net::{Endpoint, FaultProfile, FaultStats, Network, TrafficStats};
use gridsec_testbed::sched::{SchedStats, Scheduler, Step, TaskCx};
use gridsec_testbed::TestbedError;

/// A lossy world with `ghost` registered — and, unless `keep`, its
/// handle dropped again — in which `alice` sends to `ghost` and then to
/// `bob`. Returns everything observable about the run.
fn ghost_world(keep: bool) -> (Vec<String>, FaultStats, TrafficStats, SchedStats, u64) {
    let net = Network::new();
    let clock = SimClock::new();
    net.enable_faults(clock.clone(), 0x6057, FaultProfile::lossy_wan());
    let mut sched = Scheduler::new(&net);
    let alice = net.register("alice");
    let bob = net.register("bob");
    let ghost = net.register("ghost");
    let kept: Option<Endpoint> = keep.then_some(ghost);
    // A task is parked on the ghost's mailbox name either way; only
    // mail that lands can wake it.
    sched.spawn_mailbox("ghost", move |_cx: &TaskCx| {
        while kept.as_ref().and_then(Endpoint::try_recv).is_some() {}
        Step::WaitMail { deadline: None }
    });
    sched.run();
    for i in 0..40u8 {
        assert_eq!(alice.send("ghost", vec![i; 30]), Ok(()), "accepted");
        assert_eq!(alice.send("bob", vec![i; 50]), Ok(()));
    }
    let stats = sched.run();
    while bob.try_recv().is_some() {}
    (
        net.transcript(),
        net.fault_stats().expect("faults are armed"),
        net.stats(),
        stats,
        clock.now(),
    )
}

#[test]
fn send_to_a_dropped_handle_is_accepted_and_drawn_then_dropped_and_wakes_nobody() {
    let (transcript, faults, traffic, sched, end) = ghost_world(true);
    let (ghost_transcript, ghost_faults, ghost_traffic, ghost_sched, ghost_end) =
        ghost_world(false);
    // Every send drew exactly the fate it draws with the handle alive,
    // so nothing after it shifted.
    assert_eq!(transcript.len(), 80);
    assert_eq!(ghost_transcript, transcript);
    assert_eq!(
        ghost_end, end,
        "arrivals at the tombstone still hold the clock"
    );
    assert!(sched.mail_wakes > 0, "the live ghost was woken by its mail");
    assert_eq!(ghost_sched.mail_wakes, 0, "nobody is woken for a tombstone");
    // Copies that arrive at the tombstone are counted on the wire and
    // then as dropped, where the live handle's were delivered.
    let at_ghost = faults.delivered - ghost_faults.delivered;
    assert!(at_ghost > 0);
    assert_eq!(ghost_faults.dropped, faults.dropped + at_ghost);
    assert_eq!(ghost_faults.sent, faults.sent);
    assert_eq!(ghost_faults.duplicated, faults.duplicated);
    assert_eq!(ghost_traffic, traffic);

    // Without a fault layer there is no later: the send itself reports
    // the hang-up, as it always has.
    let net = Network::new();
    let alice = net.register("alice");
    drop(net.register("ghost"));
    assert_eq!(
        alice.send("ghost", b"anyone?".to_vec()),
        Err(TestbedError::Disconnected)
    );
    assert!(net.is_registered("ghost"), "a tombstone is not a vacancy");
    assert!(matches!(
        net.try_register("ghost"),
        Err(TestbedError::EndpointInUse(_))
    ));
}

#[test]
fn reregister_leaves_the_old_handle_its_mail_and_the_new_one_the_name() {
    let net = Network::new();
    let clock = SimClock::new();
    let latency3 = FaultProfile {
        min_latency: 3,
        max_latency: 3,
        ..FaultProfile::default()
    };
    net.enable_faults(clock.clone(), 1, latency3);
    let alice = net.register("alice");
    let old = net.register("bob");
    alice.send("bob", b"landed".to_vec()).unwrap();
    clock.set(3);
    assert_eq!(net.pump(), 1);
    alice.send("bob", b"in flight".to_vec()).unwrap();
    let new = net.register("bob");
    clock.set(6);
    assert_eq!(net.pump(), 1);
    // What had landed stays with the old handle; what was still in
    // flight goes to whoever holds the name on arrival.
    assert_eq!(old.try_recv().unwrap().payload, b"landed");
    assert!(old.try_recv().is_none());
    assert_eq!(new.try_recv().unwrap().payload, b"in flight");
    // Dropping the replaced handle must not bury its replacement.
    drop(old);
    alice.send("bob", b"after".to_vec()).unwrap();
    clock.set(9);
    assert_eq!(net.pump(), 1);
    assert_eq!(new.try_recv().unwrap().payload, b"after");
    assert_eq!(net.fault_stats().unwrap().dropped, 0);
}

/// Resident set size of this process in bytes.
#[cfg(target_os = "linux")]
fn vm_rss() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .expect("VmRSS line");
    let kib: usize = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmRSS in kB");
    kib * 1024
}

#[test]
#[cfg(target_os = "linux")]
fn finished_endpoints_do_not_pin_their_mailboxes() {
    // A storm principal's life: register, get mail, finish. Before
    // mailboxes were shared queues each one pinned its channel for the
    // life of the world (722 B measured). What may remain is the
    // interned name and a tombstone.
    const CYCLES: usize = 100_000;
    let net = Network::new();
    let sender = net.register("sender");
    let cycle = |i: usize| {
        let name = format!("e{i}");
        let ep = net.register(&name);
        sender.send(&name, vec![0u8; 64]).unwrap();
        assert_eq!(ep.try_recv().unwrap().payload.len(), 64);
    };
    // Let the allocator and the tables reach a steady shape first.
    (0..CYCLES / 10).for_each(cycle);
    let before = vm_rss();
    (CYCLES / 10..CYCLES / 10 + CYCLES).for_each(cycle);
    let per_endpoint = vm_rss().saturating_sub(before) / CYCLES;
    assert!(
        per_endpoint <= 200,
        "{per_endpoint} B retained per finished endpoint"
    );
}
