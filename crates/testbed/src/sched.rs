//! Deterministic discrete-event scheduler — the one owner of simulated
//! time.
//!
//! One process hosts 10⁵–10⁶ endpoints as a single-threaded run queue of
//! resumable tasks over the simulated [`Network`] and [`SimClock`], and
//! every interleaving is a pure function of the seed. Nothing else in
//! the workspace advances the clock while waiting or spins for
//! progress: scheduled code returns a [`Step`], and call-shaped code
//! that must wait for a scheduled peer parks in [`wait`], which drives
//! this same queue from the caller's frame.
//!
//! # Execution model
//!
//! A [`Task`] is a poll-style state machine: the scheduler calls
//! [`Task::step`], the task does whatever synchronous work it can
//! (drain its mailbox, send messages, advance its protocol state), and
//! returns a [`Step`] saying when it next wants to run:
//!
//! * [`Step::Yield`] — runnable again this same tick (after the other
//!   ready tasks).
//! * [`Step::Sleep`] — wake at an absolute sim time.
//! * [`Step::WaitMail`] — wake when the task's registered mailbox
//!   receives a delivery, or at an optional deadline, whichever is
//!   first.
//! * [`Step::Done`] — the task is finished and is dropped.
//!
//! The main loop ([`Scheduler::run`]) runs ready tasks in FIFO order,
//! pumps the network's pending-delivery queue, routes delivery
//! notifications (the [`Network`] wake log) to waiting tasks, and only
//! when nothing is runnable advances the shared clock to the earliest
//! of the next timer and the next scheduled network delivery. Time
//! never moves while any task is runnable, and each wake source is
//! totally ordered (FIFO ready queue, `(time, registration order)`
//! timer queue, delivery-order wake log), so a run is deterministic per
//! seed.
//!
//! # Foreground waits
//!
//! A flow that reads top to bottom ([`crate::rpc::RpcClient::call`], a
//! blocking [`SimStream`](crate::net::SimStream) read, an OGSA
//! transport) does not own a loop of its own. It calls [`wait`] with a
//! *probe*; the scheduler bound to the flow's [`Network`] (by
//! [`Scheduler::new`]) runs the same loop as [`Scheduler::run`] with
//! the probe as one more participant: poll ready tasks, probe, stop at
//! the probe's deadline, otherwise advance to the next timer or
//! delivery. A world with nothing left to do ends the wait with
//! [`TestbedError::Timeout`] — never a parked thread.

use crate::buckets::TimeBuckets;
use crate::clock::SimClock;
use crate::names::NameId;
use crate::net::Network;
use crate::TestbedError;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::ops::ControlFlow;
use std::rc::Rc;

/// What a task wants next, returned from [`Task::step`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// The task is finished; the scheduler drops it.
    Done,
    /// Run again in this same tick, after the other ready tasks.
    Yield,
    /// Wake at the given absolute sim time. A time at or before *now*
    /// reschedules the task immediately (a deadline already in the past
    /// must fire, not hang).
    Sleep(u64),
    /// Wake when the task's registered mailbox receives a delivery, or
    /// at `deadline`, whichever comes first. A deadline at or before
    /// *now* reschedules immediately: the task gets exactly one more
    /// chance to drain mail that is already due before it treats the
    /// wait as timed out. Tasks spawned without a mailbox may still use
    /// this as a pure timer.
    WaitMail {
        /// Absolute sim time at which to wake even without mail.
        deadline: Option<u64>,
    },
}

/// Identifies a spawned task within its scheduler.
pub type TaskId = usize;

/// Per-step context handed to [`Task::step`].
pub struct TaskCx {
    now: u64,
    id: TaskId,
}

impl TaskCx {
    /// Current sim time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The stepped task's id.
    pub fn id(&self) -> TaskId {
        self.id
    }
}

/// A resumable unit of work driven by the [`Scheduler`].
pub trait Task {
    /// Perform available synchronous work and say when to run next.
    fn step(&mut self, cx: &TaskCx) -> Step;
}

impl<F: FnMut(&TaskCx) -> Step> Task for F {
    fn step(&mut self, cx: &TaskCx) -> Step {
        self(cx)
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum State {
    Ready,
    Sleeping,
    WaitingMail,
}

struct Slot {
    task: Box<dyn Task>,
    state: State,
    mailbox: Option<NameId>,
}

/// Counters describing one scheduler run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Tasks spawned over the scheduler's lifetime.
    pub spawned: u64,
    /// Tasks that returned [`Step::Done`].
    pub completed: u64,
    /// Total [`Task::step`] invocations.
    pub steps: u64,
    /// Times the clock was advanced because nothing was runnable.
    pub clock_advances: u64,
    /// Wakes caused by a mailbox delivery.
    pub mail_wakes: u64,
    /// Wakes caused by a timer (sleep or wait deadline).
    pub timer_wakes: u64,
    /// Peak number of simultaneously live tasks — the storm benches'
    /// bounded-memory proxy: completed task slots are recycled, so this
    /// tracks arena size, not total tasks spawned.
    pub live_high_water: u64,
}

/// A deterministic run queue of [`Task`]s over one [`Network`].
///
/// The value is a handle: clones share one queue, and the network holds
/// a weak reference to it (bound by [`Scheduler::new`]) so foreground
/// [`wait`]s on that network find their driver without being told.
///
/// Task slots form a free-list arena: a slot vacated by [`Step::Done`]
/// is reused by the next spawn (LIFO), so a storm that spawns 10⁶
/// short-lived tasks holds memory proportional to the *live*
/// high-water mark, not the spawn count. Per-slot wake epochs survive
/// reuse — they are bumped on every step *and* on every respawn — so a
/// stale timer registered by a slot's previous occupant can never wake
/// its current one.
#[derive(Clone)]
pub struct Scheduler {
    core: Rc<RefCell<Core>>,
}

/// The queue itself, borrowed once per [`Scheduler::run`] or [`wait`]
/// and never per step.
pub(crate) struct Core {
    net: Network,
    clock: SimClock,
    slots: Vec<Option<Slot>>,
    /// Vacated slot indexes available for reuse (LIFO).
    free: Vec<TaskId>,
    /// Per-slot wake epoch; lives outside [`Slot`] so it persists
    /// across vacancy and reuse.
    epochs: Vec<u64>,
    ready: VecDeque<TaskId>,
    /// `(task, epoch)` by wake time, in registration order within a
    /// tick; `epoch` invalidates entries for waits that already ended.
    timers: TimeBuckets<(TaskId, u64)>,
    /// The task waiting on each mailbox, indexed by [`NameId::index`].
    mailboxes: Vec<Option<TaskId>>,
    /// Scratch for one round's delivery notifications; trades places
    /// with the network's log so neither is re-grown per round.
    wakes: Vec<NameId>,
    live: usize,
    stats: SchedStats,
}

impl Scheduler {
    /// Create a scheduler over `net` and bind it as that network's
    /// driver (replacing any earlier one). Uses the network's fault
    /// clock if the fault layer is armed (so sends, timers, and traces
    /// share one timeline), a fresh [`SimClock`] otherwise. Enables the
    /// network's delivery wake log.
    pub fn new(net: &Network) -> Self {
        net.enable_wake_log();
        let core = Rc::new(RefCell::new(Core {
            net: net.clone(),
            clock: net.fault_clock().unwrap_or_default(),
            slots: Vec::new(),
            free: Vec::new(),
            epochs: Vec::new(),
            ready: VecDeque::new(),
            timers: TimeBuckets::default(),
            mailboxes: Vec::new(),
            wakes: Vec::new(),
            live: 0,
            stats: SchedStats::default(),
        }));
        net.bind_driver(Rc::downgrade(&core));
        Scheduler { core }
    }

    /// The scheduler's clock (shared with the fault layer when armed).
    pub fn clock(&self) -> SimClock {
        self.core.borrow().clock.clone()
    }

    /// Current sim time.
    pub fn now(&self) -> u64 {
        self.core.borrow().clock.now()
    }

    /// Number of live (not yet `Done`) tasks.
    pub fn live(&self) -> usize {
        self.core.borrow().live
    }

    /// Counters so far.
    pub fn stats(&self) -> SchedStats {
        self.core.borrow().stats
    }

    /// Spawn a task with no mailbox. It starts ready.
    pub fn spawn(&mut self, task: impl Task + 'static) -> TaskId {
        self.core.borrow_mut().spawn_slot(None, Box::new(task))
    }

    /// Spawn a task that waits on deliveries to `mailbox` (the name of
    /// the [`Endpoint`](crate::net::Endpoint) the task receives on).
    /// One task per mailbox; spawning a second waiter for the same name
    /// replaces the first as the wake target (mirroring
    /// [`Network::register`]'s replace semantics). It starts ready.
    pub fn spawn_mailbox(&mut self, mailbox: &str, task: impl Task + 'static) -> TaskId {
        let mut core = self.core.borrow_mut();
        let id = core.net.intern(mailbox);
        core.spawn_slot(Some(id), Box::new(task))
    }

    /// Like [`Scheduler::spawn_mailbox`] but with the mailbox name
    /// already interned ([`Network::intern`]) — the storm generators'
    /// hot path, which avoids re-hashing the name string per spawn.
    pub fn spawn_mailbox_id(&mut self, mailbox: NameId, task: impl Task + 'static) -> TaskId {
        self.core
            .borrow_mut()
            .spawn_slot(Some(mailbox), Box::new(task))
    }

    /// Run to quiescence: no task runnable, no timer pending, no
    /// delivery scheduled. Returns the final counters. Tasks that are
    /// still blocked at quiescence (e.g. a server in `WaitMail` with no
    /// deadline and no traffic left) remain live and simply never run
    /// again; [`Scheduler::live`] reports them.
    pub fn run(&mut self) -> SchedStats {
        let mut core = self.core.borrow_mut();
        // A wait for nothing, without a deadline: it ends at quiescence.
        core.wait(|_| ControlFlow::<(), _>::Continue(None));
        core.stats
    }
}

/// Park call-shaped code in the scheduler bound to `net` until `probe`
/// is satisfied.
///
/// `probe(now)` looks for whatever the caller is waiting for (and may
/// send, e.g. a retransmission): [`ControlFlow::Break`] ends the wait
/// with its value; [`ControlFlow::Continue`] asks to be probed again
/// after more of the world has run, at the latest at the given absolute
/// deadline. Each round polls ready tasks to quiescence, probes, and —
/// only if the probe made nothing runnable — advances the clock to the
/// earliest of the next timer, the next delivery and the deadline.
///
/// Fails with [`TestbedError::Timeout`] when nothing can satisfy the
/// probe any more: the world is quiescent and the probe named no
/// deadline, the deadline it named is already over, no live scheduler is
/// bound to `net`, or the caller *is* a task mid-step (a task must
/// return a [`Step`], not wait). In the last two cases the probe still
/// gets one look at what has already arrived.
pub fn wait<T>(
    net: &Network,
    mut probe: impl FnMut(u64) -> ControlFlow<T, Option<u64>>,
) -> Result<T, TestbedError> {
    let driver = net.driver();
    let found = match driver.as_ref().map(|core| core.try_borrow_mut()) {
        Some(Ok(mut core)) => core.wait(probe),
        _ => match probe(net.fault_clock().map_or(0, |c| c.now())) {
            ControlFlow::Break(value) => Some(value),
            ControlFlow::Continue(_) => None,
        },
    };
    found.ok_or(TestbedError::Timeout)
}

impl Core {
    fn spawn_slot(&mut self, mailbox: Option<NameId>, task: Box<dyn Task>) -> TaskId {
        let id = match self.free.pop() {
            Some(id) => id,
            None => {
                self.slots.push(None);
                self.epochs.push(0);
                self.slots.len() - 1
            }
        };
        // Invalidate any timer still queued from the slot's previous
        // occupant.
        self.epochs[id] += 1;
        if let Some(mb) = mailbox {
            if self.mailboxes.len() <= mb.index() {
                self.mailboxes.resize(mb.index() + 1, None);
            }
            self.mailboxes[mb.index()] = Some(id);
        }
        self.slots[id] = Some(Slot {
            task,
            state: State::Ready,
            mailbox,
        });
        self.live += 1;
        self.stats.spawned += 1;
        self.stats.live_high_water = self.stats.live_high_water.max(self.live as u64);
        self.ready.push_back(id);
        id
    }

    /// Route pending deliveries and due timers to their tasks: pump the
    /// network, wake mailbox waiters in delivery order, then release
    /// every timer at or before *now* in `(time, registration)` order.
    fn absorb_wakes(&mut self) {
        let mut wakes = std::mem::take(&mut self.wakes);
        self.net.absorb(&mut wakes);
        for name in wakes.drain(..) {
            if let Some(&Some(id)) = self.mailboxes.get(name.index()) {
                if let Some(slot) = self.slots[id].as_mut() {
                    if slot.state == State::WaitingMail {
                        slot.state = State::Ready;
                        self.stats.mail_wakes += 1;
                        self.ready.push_back(id);
                    }
                }
            }
        }
        self.wakes = wakes;
        let now = self.clock.now();
        while let Some((id, epoch)) = self.timers.pop_due(now) {
            if let Some(slot) = self.slots[id].as_mut() {
                if self.epochs[id] == epoch && slot.state != State::Ready {
                    slot.state = State::Ready;
                    self.stats.timer_wakes += 1;
                    self.ready.push_back(id);
                }
            }
        }
    }

    fn step_task(&mut self, id: TaskId) {
        let Some(mut slot) = self.slots[id].take() else {
            return;
        };
        let cx = TaskCx {
            now: self.clock.now(),
            id,
        };
        let step = slot.task.step(&cx);
        self.stats.steps += 1;
        self.epochs[id] += 1;
        match step {
            Step::Done => {
                self.live -= 1;
                self.stats.completed += 1;
                if let Some(mb) = slot.mailbox {
                    if self.mailboxes[mb.index()] == Some(id) {
                        self.mailboxes[mb.index()] = None;
                    }
                }
                // The slot stays vacated (the task is dropped here) and
                // its index goes back to the arena for reuse.
                self.free.push(id);
                return;
            }
            Step::Yield => {
                slot.state = State::Ready;
                self.ready.push_back(id);
            }
            Step::Sleep(at) => {
                if at <= cx.now {
                    slot.state = State::Ready;
                    self.ready.push_back(id);
                } else {
                    slot.state = State::Sleeping;
                    self.timers.push(at, (id, self.epochs[id]));
                }
            }
            Step::WaitMail { deadline } => match deadline {
                Some(d) if d <= cx.now => {
                    slot.state = State::Ready;
                    self.ready.push_back(id);
                }
                other => {
                    slot.state = State::WaitingMail;
                    if let Some(d) = other {
                        self.timers.push(d, (id, self.epochs[id]));
                    }
                }
            },
        }
        self.slots[id] = Some(slot);
    }

    /// Run every currently-runnable task to quiescence *without*
    /// advancing the clock. Due timers and pending deliveries at or
    /// before *now* are honored. Returns the number of task steps
    /// executed.
    fn poll(&mut self) -> usize {
        let mut steps = 0;
        loop {
            self.absorb_wakes();
            let Some(id) = self.ready.pop_front() else {
                return steps;
            };
            self.step_task(id);
            steps += 1;
        }
    }

    /// Advance the clock to the next event: the earliest of the next
    /// timer, the next scheduled network delivery and `limit` (a
    /// foreground waiter's deadline). Returns `false` if there is none
    /// — the world is quiescent.
    fn advance(&mut self, limit: Option<u64>) -> bool {
        // Discard stale timer heads so they cannot force a pointless
        // clock stop.
        while let Some(&(id, epoch)) = self.timers.peek() {
            let stale = match &self.slots[id] {
                Some(slot) => self.epochs[id] != epoch || slot.state == State::Ready,
                None => true,
            };
            if !stale {
                break;
            }
            self.timers.pop_due(u64::MAX);
        }
        let next_timer = self.timers.next_at();
        let next_net = self.net.next_event_at();
        let Some(target) = [next_timer, next_net, limit].into_iter().flatten().min() else {
            return false;
        };
        if target > self.clock.now() {
            self.clock.set(target);
        }
        self.stats.clock_advances += 1;
        true
    }

    /// The one wait loop: poll ready tasks to quiescence, probe, and —
    /// only if the probe made nothing runnable — advance the clock to
    /// the next timer, delivery or `probe`'s deadline. `None` when there
    /// is nothing left to advance to, or the deadline is already over.
    fn wait<T>(&mut self, mut probe: impl FnMut(u64) -> ControlFlow<T, Option<u64>>) -> Option<T> {
        loop {
            self.poll();
            let deadline = match probe(self.clock.now()) {
                ControlFlow::Break(value) => return Some(value),
                ControlFlow::Continue(deadline) => deadline,
            };
            // Whatever the probe's sends made runnable goes before time
            // does, and gets probed again.
            if self.poll() > 0 {
                continue;
            }
            let over = deadline.is_some_and(|d| d <= self.clock.now());
            if over || !self.advance(deadline) {
                return None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{FaultProfile, Network};

    #[test]
    fn sleep_ordering_is_deterministic() {
        let net = Network::new();
        let mut sched = Scheduler::new(&net);
        let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        for (tag, at) in [
            ("late", 30u64),
            ("early", 10),
            ("mid", 20),
            ("also-early", 10),
        ] {
            let log = log.clone();
            let mut slept = false;
            sched.spawn(move |cx: &TaskCx| {
                if !slept {
                    slept = true;
                    return Step::Sleep(at);
                }
                log.borrow_mut().push(format!("{tag}@{}", cx.now()));
                Step::Done
            });
        }
        let stats = sched.run();
        assert_eq!(
            *log.borrow(),
            vec!["early@10", "also-early@10", "mid@20", "late@30"],
            "timer queue is (time, registration) ordered"
        );
        assert_eq!(stats.completed, 4);
        assert_eq!(sched.live(), 0);
        assert_eq!(sched.now(), 30);
    }

    #[test]
    fn sleep_in_the_past_fires_immediately() {
        let net = Network::new();
        let clock = SimClock::new();
        net.enable_faults(clock.clone(), 1, FaultProfile::default());
        clock.set(100);
        let mut sched = Scheduler::new(&net);
        let mut asked = false;
        sched.spawn(move |cx: &TaskCx| {
            if !asked {
                asked = true;
                Step::Sleep(5) // long past
            } else {
                assert_eq!(cx.now(), 100, "no time travel, no hang");
                Step::Done
            }
        });
        let stats = sched.run();
        assert_eq!(stats.completed, 1);
        assert_eq!(clock.now(), 100, "clock untouched by a past deadline");
    }

    #[test]
    fn mail_wakes_waiting_task() {
        let net = Network::new();
        let clock = SimClock::new();
        net.enable_faults(
            clock.clone(),
            1,
            FaultProfile {
                min_latency: 4,
                max_latency: 4,
                ..FaultProfile::default()
            },
        );
        let mut sched = Scheduler::new(&net);
        let rx = net.register("rx");
        let tx = net.register("tx");
        let got = std::rc::Rc::new(std::cell::RefCell::new(None));
        let got2 = got.clone();
        sched.spawn_mailbox("rx", move |cx: &TaskCx| {
            if let Some(m) = rx.try_recv() {
                *got2.borrow_mut() = Some((cx.now(), m.payload));
                return Step::Done;
            }
            Step::WaitMail { deadline: None }
        });
        let mut sent = false;
        sched.spawn(move |_cx: &TaskCx| {
            if !sent {
                sent = true;
                tx.send("rx", b"ping".to_vec()).unwrap();
            }
            Step::Done
        });
        sched.run();
        assert_eq!(*got.borrow(), Some((4, b"ping".to_vec())));
    }

    #[test]
    fn wait_deadline_fires_without_mail() {
        let net = Network::new();
        let clock = SimClock::new();
        net.enable_faults(clock.clone(), 1, FaultProfile::default());
        let mut sched = Scheduler::new(&net);
        let ep = net.register("lonely");
        let outcome = std::rc::Rc::new(std::cell::RefCell::new(None));
        let o2 = outcome.clone();
        sched.spawn_mailbox("lonely", move |cx: &TaskCx| {
            if ep.try_recv().is_some() {
                *o2.borrow_mut() = Some("mail");
                return Step::Done;
            }
            if cx.now() >= 25 {
                *o2.borrow_mut() = Some("timeout");
                return Step::Done;
            }
            Step::WaitMail { deadline: Some(25) }
        });
        let stats = sched.run();
        assert_eq!(*outcome.borrow(), Some("timeout"));
        assert_eq!(clock.now(), 25, "clock advanced exactly to the deadline");
        assert_eq!(stats.timer_wakes, 1);
    }

    #[test]
    fn yield_runs_again_same_tick() {
        let net = Network::new();
        let mut sched = Scheduler::new(&net);
        let mut spins = 0;
        sched.spawn(move |cx: &TaskCx| {
            assert_eq!(cx.now(), 0);
            spins += 1;
            if spins < 3 {
                Step::Yield
            } else {
                Step::Done
            }
        });
        let stats = sched.run();
        assert_eq!(stats.steps, 3);
        assert_eq!(stats.clock_advances, 0);
    }

    #[test]
    fn stale_timer_does_not_wake_later_wait() {
        // Task waits with a deadline, gets mail *before* it, then waits
        // again with a much later deadline. The first (now stale) timer
        // must not wake the second wait early.
        let net = Network::new();
        let clock = SimClock::new();
        net.enable_faults(
            clock.clone(),
            1,
            FaultProfile {
                min_latency: 2,
                max_latency: 2,
                ..FaultProfile::default()
            },
        );
        let mut sched = Scheduler::new(&net);
        let rx = net.register("rx");
        let tx = net.register("tx");
        let wakes = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let w2 = wakes.clone();
        let mut got_mail = false;
        sched.spawn_mailbox("rx", move |cx: &TaskCx| {
            if !got_mail {
                if rx.try_recv().is_some() {
                    got_mail = true;
                    w2.borrow_mut().push(("mail", cx.now()));
                    return Step::WaitMail { deadline: Some(50) };
                }
                return Step::WaitMail { deadline: Some(10) };
            }
            w2.borrow_mut().push(("wake", cx.now()));
            Step::Done
        });
        let mut sent = false;
        sched.spawn(move |_cx: &TaskCx| {
            if !sent {
                sent = true;
                tx.send("rx", b"m".to_vec()).unwrap();
            }
            Step::Done
        });
        sched.run();
        assert_eq!(*wakes.borrow(), vec![("mail", 2), ("wake", 50)]);
    }
}
