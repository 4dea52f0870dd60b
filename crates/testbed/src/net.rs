//! In-memory network simulation.
//!
//! Two abstractions:
//!
//! * [`Network`] / [`Endpoint`] — datagram-style message passing between
//!   named endpoints, with global byte/message accounting. GT3's
//!   SOAP-based exchanges run over this.
//! * [`StreamPair`] — a pair of connected byte streams implementing
//!   [`std::io::Read`]/[`std::io::Write`]. GT2's TLS channel runs over
//!   this.
//!
//! The accounting counters feed experiment C1 (bytes on the wire for
//! GT2-TLS vs. GT3-WS-SecureConversation context establishment).
//!
//! # Deterministic fault injection
//!
//! [`Network::enable_faults`] arms a seed-driven fault layer: every
//! message is subject to per-link latency, drop, duplication, and
//! reorder decisions drawn from one [`DetRng`], in send order, so a
//! given `(seed, profile, send sequence)` always produces the same
//! [`Network::transcript`]. Latencies are measured on
//! the shared [`SimClock`]; delayed messages sit in a pending queue
//! until [`Network::pump`] is called with the clock at or past their
//! delivery time. The network never moves the clock itself: the
//! [`Scheduler`](crate::sched::Scheduler) bound to it does, which is how
//! client retry loops experience timeouts without wall-clock sleeps.
//! [`Network::partition`] severs a host pair bidirectionally until
//! healed. None of this affects a network whose faults were never
//! enabled: the legacy zero-latency direct-delivery path is unchanged.
//!
//! # One owner
//!
//! A world is single-threaded (the scheduler bound to it is an
//! `Rc<RefCell<_>>`), so everything a [`Network`] knows lives in one
//! state behind one `Rc<RefCell<_>>`, borrowed once per operation and
//! never across a call into task code; mailboxes and stream directions
//! are plain queues shared by the side that fills them and the side
//! that drains them (DESIGN.md §12.5).

use crate::buckets::TimeBuckets;
use crate::clock::SimClock;
use crate::names::{NameId, NameTable};
use crate::sched;
use crate::TestbedError;
use gridsec_util::rng::{DetRng, RngCore};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt::Write as _;
use std::io::{self, Read, Write};
use std::ops::ControlFlow;
use std::rc::{Rc, Weak};

/// A network-wide traffic accounting snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct TrafficStats {
    /// Total messages (or stream writes) delivered.
    pub messages: u64,
    /// Total payload bytes delivered.
    pub bytes: u64,
}

impl TrafficStats {
    fn record(&mut self, bytes: usize) {
        self.messages += 1;
        self.bytes += bytes as u64;
    }
}

/// Per-pair loss accounting across both directions of a stream,
/// observable while the streams are live (the congestion controller in
/// `gridsec-gridftp` reads this per stripe to weigh its decisions).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct LossStats {
    /// Writes attempted on either side, including the ones the loss
    /// layer tore (a perfect pair counts these too, with zero tears).
    pub write_attempts: u64,
    /// Writes the seeded loss layer dropped, tearing the connection.
    pub torn_writes: u64,
    /// `Reset` markers observed by a reader (the peer-visible side of a
    /// torn write; at most one per direction per pair).
    pub resets_seen: u64,
}

impl LossStats {
    /// Observed loss rate in permille of attempted writes.
    pub fn loss_permille(&self) -> u64 {
        (self.torn_writes * 1000)
            .checked_div(self.write_attempts)
            .unwrap_or(0)
    }
}

/// A delivered message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Message {
    /// Sending endpoint name.
    pub from: String,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

/// Per-link fault knobs. The [`Default`] profile injects nothing, so an
/// armed fault layer with default profile behaves like a perfect
/// network that merely goes through the pending queue.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultProfile {
    /// Probability in `[0, 1]` that a message is silently dropped.
    pub drop: f64,
    /// Probability in `[0, 1]` that a message is duplicated.
    pub duplicate: f64,
    /// Upper bound on extra copies when duplication fires (≥ 1 copy).
    pub max_extra_copies: u32,
    /// Minimum per-message latency in SimClock seconds.
    pub min_latency: u64,
    /// Maximum per-message latency in SimClock seconds (inclusive).
    pub max_latency: u64,
    /// Probability in `[0, 1]` that a message gets extra reorder jitter
    /// on top of its drawn latency.
    pub reorder: f64,
    /// Maximum extra seconds of reorder jitter (inclusive).
    pub reorder_jitter: u64,
}

impl Default for FaultProfile {
    fn default() -> Self {
        FaultProfile {
            drop: 0.0,
            duplicate: 0.0,
            max_extra_copies: 1,
            min_latency: 0,
            max_latency: 0,
            reorder: 0.0,
            reorder_jitter: 0,
        }
    }
}

impl FaultProfile {
    /// The acceptance-criteria regime from ISSUE 2: 10% drop, 10%
    /// duplication with up to 2 extra copies, 1–4s latency, and a 25%
    /// chance of up to 3s reorder jitter.
    pub fn lossy_wan() -> Self {
        FaultProfile {
            drop: 0.10,
            duplicate: 0.10,
            max_extra_copies: 2,
            min_latency: 1,
            max_latency: 4,
            reorder: 0.25,
            reorder_jitter: 3,
        }
    }
}

/// Counters for what the fault layer did to traffic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages offered to the fault layer.
    pub sent: u64,
    /// Copies actually delivered to a mailbox.
    pub delivered: u64,
    /// Messages dropped by the loss draw.
    pub dropped: u64,
    /// Extra copies created by the duplication draw.
    pub duplicated: u64,
    /// Messages blocked by an active partition.
    pub blocked: u64,
}

/// One scheduled delivery in the pending queue, which hands copies back
/// in `(deliver_at, push order)` order — total and deterministic.
struct PendingDelivery {
    from: NameId,
    to: NameId,
    payload: Vec<u8>,
}

struct FaultState {
    clock: SimClock,
    rng: DetRng,
    profile: FaultProfile,
    link_profiles: HashMap<(NameId, NameId), FaultProfile>,
    partitions: HashSet<(NameId, NameId)>,
    pending: TimeBuckets<PendingDelivery>,
    transcript: Vec<String>,
    record_transcript: bool,
    stats: FaultStats,
}

impl FaultState {
    fn draw_unit(&mut self) -> f64 {
        (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn draw_in(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return lo;
        }
        lo + self.rng.next_u64() % (hi - lo + 1)
    }

    fn profile_for(&self, from: NameId, to: NameId) -> FaultProfile {
        self.link_profiles
            .get(&(from, to))
            .copied()
            .unwrap_or(self.profile)
    }

    fn partitioned(&self, a: NameId, b: NameId) -> bool {
        self.partitions.contains(&normalize_pair(a, b))
    }

    /// One scheduled arrival time: latency draw plus optional reorder
    /// jitter. Draw order is fixed so transcripts replay exactly.
    fn draw_arrival(&mut self, now: u64, prof: &FaultProfile) -> u64 {
        let latency = self.draw_in(prof.min_latency, prof.max_latency);
        let jitter = if self.draw_unit() < prof.reorder {
            self.draw_in(0, prof.reorder_jitter)
        } else {
            0
        };
        now + latency + jitter
    }

    /// Decide the fate of one sent message and queue its copies. The
    /// caller supplies the endpoint names alongside their ids so
    /// transcript lines (when recording is on) need no table lookup.
    ///
    /// Every transcript hangs off the order of draws here — latency,
    /// reorder unit, jitter if reordered, duplicate unit, extra count if
    /// duplicated, then each extra copy's arrival — and off copies
    /// entering the queue in the order their arrivals were drawn.
    fn inject(&mut self, from: NameId, to: NameId, names: (&str, &str), payload: Vec<u8>) {
        self.stats.sent += 1;
        let now = self.clock.now();
        let id = self.stats.sent;
        let len = payload.len();
        let (from_name, to_name) = names;
        let prof = self.profile_for(from, to);

        if self.partitioned(from, to) {
            self.stats.blocked += 1;
            if self.record_transcript {
                self.transcript.push(format!(
                    "[t={now}] #{id} {from_name}->{to_name} {len}B partitioned"
                ));
            }
            return;
        }
        if self.draw_unit() < prof.drop {
            self.stats.dropped += 1;
            if self.record_transcript {
                self.transcript.push(format!(
                    "[t={now}] #{id} {from_name}->{to_name} {len}B drop"
                ));
            }
            return;
        }
        let mut deliver_at = self.draw_arrival(now, &prof);
        let extra = if self.draw_unit() < prof.duplicate {
            self.draw_in(1, u64::from(prof.max_extra_copies.max(1)))
        } else {
            0
        };
        self.stats.duplicated += extra;
        let mut line = self
            .record_transcript
            .then(|| format!("[t={now}] #{id} {from_name}->{to_name} {len}B deliver@{deliver_at}"));
        // Only the extra copies clone; the last (usually only) copy
        // takes the payload itself.
        for _ in 0..extra {
            let copy = PendingDelivery {
                from,
                to,
                payload: payload.clone(),
            };
            self.pending.push(deliver_at, copy);
            deliver_at = self.draw_arrival(now, &prof);
            if let Some(line) = &mut line {
                let _ = write!(line, ",@{deliver_at}");
            }
        }
        self.pending
            .push(deliver_at, PendingDelivery { from, to, payload });
        self.transcript.extend(line);
    }
}

fn normalize_pair(a: NameId, b: NameId) -> (NameId, NameId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// A mailbox: a plain queue shared by its endpoint slot (which fills
/// it) and its [`Endpoint`] handle (which drains it).
type Mailbox = Rc<RefCell<VecDeque<Message>>>;

/// What the network holds for one interned name.
#[derive(Default)]
enum Slot {
    /// Never registered, or unregistered: sends fail with
    /// [`TestbedError::NoSuchEndpoint`], copies in flight evaporate.
    #[default]
    Vacant,
    /// Registered, handle alive.
    Live(Mailbox),
    /// Tombstone: the handle was dropped (and its queue freed with it).
    /// The name stays addressable — sends are accepted and draw their
    /// fate like any other, so no later fault decision shifts — but
    /// every copy that arrives counts as dropped and wakes nobody.
    Gone,
}

/// A named message network.
#[derive(Clone, Default)]
pub struct Network {
    inner: Rc<RefCell<NetState>>,
}

#[derive(Default)]
struct NetState {
    names: NameTable,
    boxes: Mailboxes,
    faults: Option<FaultState>,
    /// The scheduler that drives this world ([`Scheduler::new`] binds
    /// it). Weak: the scheduler's tasks own endpoints of this network.
    ///
    /// [`Scheduler::new`]: crate::sched::Scheduler::new
    driver: Weak<RefCell<sched::Core>>,
}

/// The receiving side of the network: where a copy lands, and what is
/// counted and logged when it does.
#[derive(Default)]
struct Mailboxes {
    /// Indexed by [`NameId::index`]; names past the end are vacant.
    slots: Vec<Slot>,
    traffic: TrafficStats,
    wakes: WakeLog,
}

/// Delivery notifications for the discrete-event scheduler
/// ([`crate::sched`]): when enabled, every successful mailbox delivery
/// appends the recipient's interned id, in delivery order, so the
/// scheduler can wake the task waiting on that mailbox without polling
/// every endpoint. Disabled by default so non-scheduled networks pay
/// nothing and accumulate nothing.
#[derive(Default)]
struct WakeLog {
    enabled: bool,
    ids: Vec<NameId>,
}

impl WakeLog {
    fn record(&mut self, to: NameId) {
        if self.enabled {
            self.ids.push(to);
        }
    }
}

impl Mailboxes {
    fn is_vacant(&self, id: NameId) -> bool {
        matches!(self.slots.get(id.index()), None | Some(Slot::Vacant))
    }

    fn set(&mut self, id: NameId, slot: Slot) {
        if self.slots.len() <= id.index() {
            self.slots.resize_with(id.index() + 1, Slot::default);
        }
        self.slots[id.index()] = slot;
    }

    /// Put a message in `to`'s mailbox and log the wake. `false` if
    /// nobody can receive it: a vacant slot, or a tombstone — which
    /// still counts the traffic, as the wire to a host whose process
    /// died still carries the packets.
    fn deliver(&mut self, from: &str, to: NameId, payload: Vec<u8>) -> bool {
        match self.slots.get(to.index()) {
            Some(Slot::Live(mailbox)) => {
                self.traffic.record(payload.len());
                mailbox.borrow_mut().push_back(Message {
                    from: from.to_string(),
                    payload,
                });
                self.wakes.record(to);
                true
            }
            Some(Slot::Gone) => {
                self.traffic.record(payload.len());
                false
            }
            Some(Slot::Vacant) | None => false,
        }
    }
}

impl NetState {
    fn pump(&mut self) -> usize {
        let Some(fs) = self.faults.as_mut() else {
            return 0;
        };
        let now = fs.clock.now();
        let mut delivered = 0;
        while let Some(copy) = fs.pending.pop_due(now) {
            let from = self.names.resolve(copy.from);
            if self.boxes.deliver(from, copy.to, copy.payload) {
                fs.stats.delivered += 1;
                delivered += 1;
            } else {
                fs.stats.dropped += 1;
            }
        }
        delivered
    }
}

impl Network {
    /// Create an empty network.
    pub fn new() -> Self {
        Network::default()
    }

    /// Intern `name` in the network's name table, returning its dense
    /// [`NameId`]. Idempotent; the id is valid for the network's
    /// lifetime.
    pub fn intern(&self, name: &str) -> NameId {
        self.inner.borrow_mut().names.intern(name)
    }

    /// Look up an already-interned name without interning it.
    pub fn lookup(&self, name: &str) -> Option<NameId> {
        self.inner.borrow().names.get(name)
    }

    /// Resolve an interned id back to its name (owned, since the table
    /// lives inside the network's state).
    pub fn resolve(&self, id: NameId) -> String {
        self.inner.borrow().names.resolve(id).to_string()
    }

    /// Register an endpoint name, returning its handle. Re-registering a
    /// name replaces the previous endpoint: the old handle keeps any mail
    /// already in its mailbox but receives nothing further. Use
    /// [`Network::try_register`] to refuse instead of replace.
    pub fn register(&self, name: &str) -> Endpoint {
        let mut st = self.inner.borrow_mut();
        let id = st.names.intern(name);
        self.install(&mut st, name, id)
    }

    /// Register an endpoint name, erroring with
    /// [`TestbedError::EndpointInUse`] if the name is already taken
    /// (instead of silently replacing it as [`Network::register`] does).
    /// A name whose handle was dropped without [`Network::unregister`]
    /// is still taken.
    pub fn try_register(&self, name: &str) -> Result<Endpoint, TestbedError> {
        let mut st = self.inner.borrow_mut();
        let id = st.names.intern(name);
        if !st.boxes.is_vacant(id) {
            return Err(TestbedError::EndpointInUse(name.to_string()));
        }
        Ok(self.install(&mut st, name, id))
    }

    fn install(&self, st: &mut NetState, name: &str, id: NameId) -> Endpoint {
        let mailbox = Mailbox::default();
        st.boxes.set(id, Slot::Live(mailbox.clone()));
        Endpoint {
            name: name.to_string(),
            id,
            network: self.clone(),
            mailbox,
        }
    }

    /// Remove an endpoint: sends to the name fail until it is registered
    /// again, and its handle receives nothing further.
    pub fn unregister(&self, name: &str) {
        let mut st = self.inner.borrow_mut();
        if let Some(id) = st.names.get(name) {
            st.boxes.set(id, Slot::Vacant);
        }
    }

    /// `true` iff an endpoint with this name is registered.
    pub fn is_registered(&self, name: &str) -> bool {
        let st = self.inner.borrow();
        st.names.get(name).is_some_and(|id| !st.boxes.is_vacant(id))
    }

    /// Arm the deterministic fault layer. All subsequent sends draw
    /// their fate (drop/duplicate/latency/reorder) from a [`DetRng`]
    /// seeded with `seed`; latencies are scheduled on `clock` and
    /// delivered by [`Network::pump`]. Calling this again resets the
    /// fault state (fresh RNG, empty queue, empty transcript).
    pub fn enable_faults(&self, clock: SimClock, seed: u64, profile: FaultProfile) {
        self.inner.borrow_mut().faults = Some(FaultState {
            clock,
            rng: DetRng::seed_from_u64(seed),
            profile,
            link_profiles: HashMap::new(),
            partitions: HashSet::new(),
            pending: TimeBuckets::default(),
            transcript: Vec::new(),
            record_transcript: true,
            stats: FaultStats::default(),
        });
    }

    /// Run `f` on the fault state, if armed.
    fn with_faults<R>(&self, f: impl FnOnce(&mut FaultState) -> R) -> Option<R> {
        self.inner.borrow_mut().faults.as_mut().map(f)
    }

    /// Turn fault-transcript recording on or off. Storm-scale runs
    /// (hundreds of thousands of endpoints, millions of sends) disable
    /// it: one formatted line per send would dominate memory, and those
    /// runs assert determinism on the metrics snapshot instead. Fault
    /// *decisions* (RNG draws, stats) are unaffected, so a run is
    /// byte-identical per seed whether or not the transcript is kept.
    pub fn set_transcript_recording(&self, on: bool) {
        self.with_faults(|fs| fs.record_transcript = on);
    }

    /// Start recording delivery notifications for the scheduler.
    pub(crate) fn enable_wake_log(&self) {
        self.inner.borrow_mut().boxes.wakes.enabled = true;
    }

    /// One scheduler round's worth of network work under one borrow:
    /// deliver what is due ([`Network::pump`]), then move the delivery
    /// notification log — the interned ids of endpoints that received
    /// mail since the last call, in delivery order — into `wakes`
    /// (which must come in empty; the two buffers trade places, so
    /// neither is re-grown per batch).
    pub(crate) fn absorb(&self, wakes: &mut Vec<NameId>) {
        let mut st = self.inner.borrow_mut();
        st.pump();
        std::mem::swap(&mut st.boxes.wakes.ids, wakes);
    }

    /// Name `core` as the scheduler foreground waits on this network
    /// park in, replacing any earlier binding.
    pub(crate) fn bind_driver(&self, core: Weak<RefCell<sched::Core>>) {
        self.inner.borrow_mut().driver = core;
    }

    /// The bound scheduler, if it is still alive.
    pub(crate) fn driver(&self) -> Option<Rc<RefCell<sched::Core>>> {
        self.inner.borrow().driver.upgrade()
    }

    /// Append a synthetic delivery notification for `id`, exactly as if
    /// a message had just been delivered to that mailbox. This is how
    /// non-datagram wake sources (e.g. a [`SimStream`] becoming
    /// readable, see [`SimStream::wake_on_readable`]) reach a scheduler
    /// task parked in `WaitMail`.
    pub fn notify_wake(&self, id: NameId) {
        self.inner.borrow_mut().boxes.wakes.record(id);
    }

    /// `true` iff [`Network::enable_faults`] has armed the fault layer.
    pub fn faults_enabled(&self) -> bool {
        self.inner.borrow().faults.is_some()
    }

    /// The clock the fault layer schedules on, if armed.
    pub fn fault_clock(&self) -> Option<SimClock> {
        self.with_faults(|fs| fs.clock.clone())
    }

    /// Override the fault profile for one directed link `from -> to`.
    pub fn set_link_profile(&self, from: &str, to: &str, profile: FaultProfile) {
        let key = (self.intern(from), self.intern(to));
        self.with_faults(|fs| fs.link_profiles.insert(key, profile));
    }

    /// Sever the pair `(a, b)` in both directions. Messages sent across
    /// an active partition are blocked (counted in
    /// [`FaultStats::blocked`]); copies already in flight still arrive.
    pub fn partition(&self, a: &str, b: &str) {
        let key = normalize_pair(self.intern(a), self.intern(b));
        self.with_faults(|fs| fs.partitions.insert(key));
    }

    /// Heal the partition between `a` and `b`, if any.
    pub fn heal(&self, a: &str, b: &str) {
        let key = normalize_pair(self.intern(a), self.intern(b));
        self.with_faults(|fs| fs.partitions.remove(&key));
    }

    /// Heal all partitions.
    pub fn heal_all(&self) {
        self.with_faults(|fs| fs.partitions.clear());
    }

    /// Deliver every pending copy whose scheduled time is at or before
    /// the fault clock's now. Returns the number of copies delivered.
    /// A no-op (returning 0) when faults are not armed.
    pub fn pump(&self) -> usize {
        self.inner.borrow_mut().pump()
    }

    /// Scheduled time of the earliest pending delivery, if any.
    pub(crate) fn next_event_at(&self) -> Option<u64> {
        self.inner.borrow().faults.as_ref()?.pending.next_at()
    }

    /// The fault event transcript so far: one line per send decision,
    /// in send order. Byte-identical across runs with the same seed,
    /// profile, and send sequence — the chaos suite's replay check.
    pub fn transcript(&self) -> Vec<String> {
        self.with_faults(|fs| fs.transcript.clone())
            .unwrap_or_default()
    }

    /// Fault-layer counters, if armed.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.with_faults(|fs| fs.stats)
    }

    fn send(
        &self,
        from: NameId,
        from_name: &str,
        to: &str,
        payload: Vec<u8>,
    ) -> Result<(), TestbedError> {
        let mut st = self.inner.borrow_mut();
        // A tombstone is still an address: only a vacant slot refuses,
        // and it refuses before anything is drawn.
        let to_id = match st.names.get(to) {
            Some(id) if !st.boxes.is_vacant(id) => id,
            _ => return Err(TestbedError::NoSuchEndpoint(to.to_string())),
        };
        if let Some(fs) = st.faults.as_mut() {
            fs.inject(from, to_id, (from_name, to), payload);
            // Zero-latency copies may already be due.
            st.pump();
            return Ok(());
        }
        if st.boxes.deliver(from_name, to_id, payload) {
            Ok(())
        } else {
            Err(TestbedError::Disconnected)
        }
    }

    /// Traffic accounting since creation.
    pub fn stats(&self) -> TrafficStats {
        self.inner.borrow().boxes.traffic
    }
}

/// A registered endpoint: can send to any name and receive its own mail.
pub struct Endpoint {
    name: String,
    id: NameId,
    network: Network,
    mailbox: Mailbox,
}

impl Endpoint {
    /// This endpoint's registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// This endpoint's interned id in the network's name table.
    pub fn id(&self) -> NameId {
        self.id
    }

    /// The network this endpoint is registered on.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Send `payload` to endpoint `to`.
    pub fn send(&self, to: &str, payload: Vec<u8>) -> Result<(), TestbedError> {
        self.network.send(self.id, &self.name, to, payload)
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Message> {
        self.mailbox.borrow_mut().pop_front()
    }
}

impl Drop for Endpoint {
    /// Leave a tombstone where this handle's mailbox was, so the queue
    /// is freed with the handle instead of pinned for the life of the
    /// world. Not [`Network::unregister`]: a send to a finished
    /// principal must still be accepted and still draw its fate, or
    /// every later fault decision in the run would shift. A slot that
    /// was re-registered or unregistered meanwhile is not this handle's
    /// to touch.
    fn drop(&mut self) {
        // Nothing holds the state across a call that could drop an
        // endpoint; if something ever does, leaking the slot beats a
        // panic inside `drop`.
        if let Ok(mut st) = self.network.inner.try_borrow_mut() {
            if let Some(slot) = st.boxes.slots.get_mut(self.id.index()) {
                if matches!(slot, Slot::Live(mailbox) if Rc::ptr_eq(mailbox, &self.mailbox)) {
                    *slot = Slot::Gone;
                }
            }
        }
    }
}

/// Seeded write-side loss for one stream direction.
struct StreamFault {
    rng: DetRng,
    drop: f64,
}

/// One direction of a byte stream: a plain queue of written chunks
/// shared by its writer and its reader, plus the two ways it ends.
#[derive(Default)]
struct Pipe {
    chunks: VecDeque<Vec<u8>>,
    /// The other side hung up. To the reader: EOF once `chunks` is
    /// drained. To the writer: `BrokenPipe`.
    closed: bool,
    /// The loss layer tore the connection on a write: the reader sees
    /// `ConnectionReset` once it has drained what was written before.
    reset: bool,
}

/// What a reader finds at the head of its [`Pipe`].
enum Head {
    Data(Vec<u8>),
    Reset,
    Eof,
}

impl Pipe {
    /// Take the head; `None` means nothing yet, and the writer is
    /// still there.
    fn take(&mut self) -> Option<Head> {
        match self.chunks.pop_front() {
            Some(data) => Some(Head::Data(data)),
            None if self.reset => Some(Head::Reset),
            None if self.closed => Some(Head::Eof),
            None => None,
        }
    }
}

/// Byte and loss accounting shared by both halves of a pair and its
/// [`StreamStats`].
#[derive(Default)]
struct StreamCounters {
    traffic: TrafficStats,
    loss: LossStats,
}

/// A readable-side wake registration, shared by both halves of one
/// stream direction: the reader installs `(network, mailbox id)` via
/// [`SimStream::wake_on_readable`]; the writer notifies it after every
/// chunk (and on drop) so a scheduler task parked in `WaitMail` wakes
/// when bytes — or EOF — become observable. The registration also tells
/// the writer's half which world its peer lives in: that is where its
/// own blocking reads park.
type WakeSlot = Rc<RefCell<Option<(Network, NameId)>>>;

/// One side of a byte stream pair.
struct StreamHalf {
    tx: Rc<RefCell<Pipe>>,
    rx: Rc<RefCell<Pipe>>,
    read_buf: Vec<u8>,
    read_pos: usize,
    counters: Rc<RefCell<StreamCounters>>,
    fault: Option<StreamFault>,
    dead: bool,
    /// Wake slot for *this* half's read direction (we are the reader).
    read_wake: WakeSlot,
    /// Wake slot for the peer's read direction (we are the writer).
    write_wake: WakeSlot,
}

/// A connected in-memory byte stream (one side of a pair).
///
/// Both read forms take what the peer has already written and differ
/// only in what an empty pipe means:
///
/// * [`SimStream::try_read`] — for scheduler tasks, which must never
///   wait inside a step: it reports "nothing yet" and the task parks in
///   [`Step::WaitMail`](crate::sched::Step::WaitMail), woken through
///   [`SimStream::wake_on_readable`].
/// * [`Read::read`] — for call-shaped code whose peer is such a task:
///   it parks in [`sched::wait`] on the network the peer registered its
///   wake with, so the peer runs inside the read. A peer that never
///   registered, or a world with nothing left to run, fails the read
///   with `ConnectionReset` ("stream stalled") instead of hanging.
pub struct SimStream {
    half: StreamHalf,
}

/// Create a connected stream pair with shared byte accounting.
pub struct StreamPair;

impl StreamPair {
    /// Create two connected [`SimStream`]s. Bytes written to one can be
    /// read from the other. The returned stats handle reflects all bytes
    /// written on either side.
    #[allow(clippy::new_ret_no_self)]
    pub fn new() -> (SimStream, SimStream, StreamStats) {
        StreamPair::build(None)
    }

    /// Like [`StreamPair::new`], but each write has probability
    /// `drop_rate` of being lost. A TCP stream cannot paper over a lost
    /// segment here (there is no transport-level retransmission in the
    /// sim), so a loss tears the connection down: the writer sees
    /// `ConnectionReset` and the reader sees `ConnectionReset` once it
    /// reaches the tear point. Deterministic per `seed` (each direction
    /// gets an independent stream derived from it). Retry-capable
    /// callers dial a fresh pair per attempt.
    pub fn lossy(seed: u64, drop_rate: f64) -> (SimStream, SimStream, StreamStats) {
        StreamPair::build(Some((seed, drop_rate)))
    }

    fn build(fault: Option<(u64, f64)>) -> (SimStream, SimStream, StreamStats) {
        let a2b = Rc::<RefCell<Pipe>>::default();
        let b2a = Rc::<RefCell<Pipe>>::default();
        let counters = Rc::<RefCell<StreamCounters>>::default();
        // One wake slot per direction, shared by its writer and reader.
        let a_reads = WakeSlot::default();
        let b_reads = WakeSlot::default();
        let mk_fault = |dir: u64| {
            fault.map(|(seed, drop)| StreamFault {
                rng: DetRng::seed_from_u64(seed ^ dir),
                drop,
            })
        };
        let a = SimStream {
            half: StreamHalf {
                tx: a2b.clone(),
                rx: b2a.clone(),
                read_buf: Vec::new(),
                read_pos: 0,
                counters: counters.clone(),
                fault: mk_fault(0x05ee_da2b_u64),
                dead: false,
                read_wake: a_reads.clone(),
                write_wake: b_reads.clone(),
            },
        };
        let b = SimStream {
            half: StreamHalf {
                tx: b2a,
                rx: a2b,
                read_buf: Vec::new(),
                read_pos: 0,
                counters: counters.clone(),
                fault: mk_fault(0x05ee_db2a_u64),
                dead: false,
                read_wake: b_reads,
                write_wake: a_reads,
            },
        };
        (a, b, StreamStats { counters })
    }
}

/// Shared traffic statistics for a stream pair.
#[derive(Clone)]
pub struct StreamStats {
    counters: Rc<RefCell<StreamCounters>>,
}

impl StreamStats {
    /// Snapshot of writes/bytes across both directions.
    pub fn snapshot(&self) -> TrafficStats {
        self.counters.borrow().traffic
    }

    /// Snapshot of loss accounting across both directions: attempted
    /// writes, seeded tears, and observed resets.
    pub fn loss(&self) -> LossStats {
        self.counters.borrow().loss
    }
}

fn reset_err() -> io::Error {
    io::Error::new(
        io::ErrorKind::ConnectionReset,
        "connection torn by simulated loss",
    )
}

impl SimStream {
    /// Register a wake target for this stream's read direction: every
    /// chunk the peer writes (and the peer's eventual drop) appends a
    /// delivery notification for `mailbox` to `net`'s wake log, exactly
    /// like datagram mail. A scheduler task owning this stream parks
    /// with [`Step::WaitMail`](crate::sched::Step::WaitMail) and is
    /// woken when bytes are observable via [`SimStream::try_read`].
    pub fn wake_on_readable(&self, net: &Network, mailbox: &str) {
        let id = net.intern(mailbox);
        *self.half.read_wake.borrow_mut() = Some((net.clone(), id));
    }

    fn notify_peer(&self) {
        if let Some((net, id)) = self.half.write_wake.borrow().as_ref() {
            net.notify_wake(*id);
        }
    }

    /// Make the read buffer non-empty from `head`. `Ok(true)` means
    /// bytes are now available; `Ok(false)` means EOF (peer dropped).
    fn accept(&mut self, head: Head) -> io::Result<bool> {
        match head {
            Head::Data(data) => {
                self.half.read_buf = data;
                self.half.read_pos = 0;
                Ok(true)
            }
            Head::Reset => {
                self.half.dead = true;
                self.half.counters.borrow_mut().loss.resets_seen += 1;
                Err(reset_err())
            }
            Head::Eof => Ok(false),
        }
    }

    fn copy_out(&mut self, buf: &mut [u8]) -> usize {
        let available = &self.half.read_buf[self.half.read_pos..];
        let n = available.len().min(buf.len());
        buf[..n].copy_from_slice(&available[..n]);
        self.half.read_pos += n;
        n
    }

    /// Park in the scheduler of the peer's world until the peer writes
    /// or hangs up. The peer named that world when it registered
    /// [`SimStream::wake_on_readable`] on its half.
    fn await_head(&self) -> io::Result<Head> {
        let world = self.half.write_wake.borrow().as_ref().map(|w| w.0.clone());
        world
            .and_then(|net| {
                sched::wait(&net, |_| match self.half.rx.borrow_mut().take() {
                    None => ControlFlow::Continue(None),
                    Some(arrived) => ControlFlow::Break(arrived),
                })
                .ok()
            })
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "stream stalled: scheduler quiescent with no data",
                )
            })
    }

    /// Non-blocking read for scheduler tasks. Returns:
    ///
    /// * `Ok(Some(n))` with `n > 0` — bytes copied out.
    /// * `Ok(Some(0))` — EOF: the peer dropped its stream.
    /// * `Ok(None)` — no data *yet*; park in `WaitMail` (with
    ///   [`SimStream::wake_on_readable`] registered) and try again.
    /// * `Err` — the connection was torn by the seeded loss layer.
    pub fn try_read(&mut self, buf: &mut [u8]) -> io::Result<Option<usize>> {
        if self.half.dead {
            return Err(reset_err());
        }
        if self.half.read_pos == self.half.read_buf.len() {
            let Some(head) = self.half.rx.borrow_mut().take() else {
                return Ok(None);
            };
            if !self.accept(head)? {
                return Ok(Some(0));
            }
        }
        Ok(Some(self.copy_out(buf)))
    }
}

impl Drop for SimStream {
    fn drop(&mut self) {
        // Hang up both directions: the peer's next read sees EOF after
        // what was written, its next write `BrokenPipe`, and what it
        // wrote that nobody will read is freed now.
        self.half.tx.borrow_mut().closed = true;
        {
            let mut rx = self.half.rx.borrow_mut();
            rx.closed = true;
            rx.chunks = VecDeque::new();
        }
        // Wake the peer so a parked scheduler task observes the close
        // instead of waiting forever.
        self.notify_peer();
    }
}

impl Read for SimStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.half.dead {
            return Err(reset_err());
        }
        if self.half.read_pos == self.half.read_buf.len() {
            let head = self.half.rx.borrow_mut().take();
            let head = match head {
                Some(arrived) => arrived,
                None => self.await_head()?,
            };
            if !self.accept(head)? {
                return Ok(0);
            }
        }
        Ok(self.copy_out(buf))
    }
}

impl Write for SimStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.half.dead {
            return Err(reset_err());
        }
        self.half.counters.borrow_mut().loss.write_attempts += 1;
        if let Some(f) = &mut self.half.fault {
            let draw = (f.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            if draw < f.drop {
                self.half.dead = true;
                self.half.counters.borrow_mut().loss.torn_writes += 1;
                self.half.tx.borrow_mut().reset = true;
                self.notify_peer();
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "write lost; connection torn",
                ));
            }
        }
        self.half.counters.borrow_mut().traffic.record(buf.len());
        {
            let mut tx = self.half.tx.borrow_mut();
            if tx.closed {
                return Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "peer disconnected",
                ));
            }
            tx.chunks.push_back(buf.to_vec());
        }
        self.notify_peer();
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{Scheduler, Step, TaskCx};
    use std::io::{Read, Write};

    /// Foreground receive: park in the scheduler bound to `ep`'s network
    /// until mail arrives or `timeout` sim-seconds pass.
    fn recv_within(ep: &Endpoint, timeout: u64) -> Result<Message, TestbedError> {
        let clock = ep.network().fault_clock().expect("faults armed");
        let deadline = clock.now().saturating_add(timeout);
        sched::wait(ep.network(), |_| match ep.try_recv() {
            Some(m) => ControlFlow::Break(m),
            None => ControlFlow::Continue(Some(deadline)),
        })
    }

    #[test]
    fn message_delivery() {
        let net = Network::new();
        let a = net.register("alice");
        let _b = net.register("bob");
        a.send("bob", b"hi".to_vec()).unwrap();
        let b = net.register("bob"); // re-register drops old mailbox
        a.send("bob", b"hi again".to_vec()).unwrap();
        let m = b.try_recv().unwrap();
        assert_eq!(m.from, "alice");
        assert_eq!(m.payload, b"hi again");
    }

    #[test]
    fn reregister_keeps_old_mail_but_disconnects_handle() {
        // The documented replace semantics: the old handle drains what it
        // already had and then stays empty; new mail goes to the
        // replacement only.
        let net = Network::new();
        let a = net.register("alice");
        let old = net.register("bob");
        a.send("bob", b"before".to_vec()).unwrap();
        let new = net.register("bob");
        a.send("bob", b"after".to_vec()).unwrap();
        assert_eq!(old.try_recv().unwrap().payload, b"before");
        assert!(old.try_recv().is_none());
        assert_eq!(new.try_recv().unwrap().payload, b"after");
        assert!(new.try_recv().is_none());
    }

    #[test]
    fn try_register_refuses_duplicates() {
        let net = Network::new();
        let a = net.try_register("alice").unwrap();
        assert_eq!(
            net.try_register("alice").err(),
            Some(TestbedError::EndpointInUse("alice".into()))
        );
        // The original endpoint is untouched by the failed attempt.
        let b = net.register("bob");
        b.send("alice", b"still here".to_vec()).unwrap();
        assert_eq!(a.try_recv().unwrap().payload, b"still here");
        // After unregister the name is free again.
        net.unregister("alice");
        assert!(net.try_register("alice").is_ok());
    }

    #[test]
    fn unknown_endpoint_errors() {
        let net = Network::new();
        let a = net.register("alice");
        assert!(matches!(
            a.send("nobody", vec![]),
            Err(TestbedError::NoSuchEndpoint(_))
        ));
    }

    #[test]
    fn unregister_disconnects() {
        let net = Network::new();
        let a = net.register("alice");
        net.register("bob");
        net.unregister("bob");
        assert!(!net.is_registered("bob"));
        assert!(a.send("bob", vec![]).is_err());
    }

    #[test]
    fn traffic_accounting() {
        let net = Network::new();
        let a = net.register("alice");
        let b = net.register("bob");
        a.send("bob", vec![0u8; 100]).unwrap();
        a.send("bob", vec![0u8; 50]).unwrap();
        let _ = b.try_recv();
        assert_eq!(
            net.stats(),
            TrafficStats {
                messages: 2,
                bytes: 150
            }
        );
    }

    #[test]
    fn try_recv_nonblocking() {
        let net = Network::new();
        let a = net.register("alice");
        assert!(a.try_recv().is_none());
        let b = net.register("bob");
        a.send("bob", b"x".to_vec()).unwrap();
        assert!(b.try_recv().is_some());
        assert!(b.try_recv().is_none());
    }

    #[test]
    fn fault_layer_latency_and_pump() {
        let net = Network::new();
        let clock = SimClock::new();
        net.enable_faults(
            clock.clone(),
            1,
            FaultProfile {
                min_latency: 3,
                max_latency: 3,
                ..FaultProfile::default()
            },
        );
        let a = net.register("alice");
        let b = net.register("bob");
        a.send("bob", b"delayed".to_vec()).unwrap();
        assert!(b.try_recv().is_none(), "latency holds the message");
        assert_eq!(net.pump(), 0, "not due before t=3");
        clock.set(3);
        assert_eq!(net.pump(), 1);
        assert_eq!(b.try_recv().unwrap().payload, b"delayed");
    }

    #[test]
    fn foreground_wait_advances_clock_to_delivery() {
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
        let _sched = Scheduler::new(&net);
        let a = net.register("alice");
        let b = net.register("bob");
        a.send("bob", b"m".to_vec()).unwrap();
        let m = recv_within(&b, 10).unwrap();
        assert_eq!(m.payload, b"m");
        assert_eq!(clock.now(), 2, "clock advanced exactly to delivery");
        // Nothing further: timeout fires and the clock lands on the deadline.
        assert_eq!(recv_within(&b, 5), Err(TestbedError::Timeout));
        assert_eq!(clock.now(), 7);
    }

    /// One foreground receive on a fresh world: optionally send one
    /// message, let `pre_advance` seconds pass before the receiver shows
    /// up, then wait `timeout` more. Returns the outcome and the clock
    /// at return.
    fn foreground_recv(
        profile: FaultProfile,
        send: bool,
        timeout: u64,
        pre_advance: u64,
    ) -> (Result<Vec<u8>, TestbedError>, u64) {
        let net = Network::new();
        let clock = SimClock::new();
        net.enable_faults(clock.clone(), 11, profile);
        let _sched = Scheduler::new(&net);
        let a = net.register("alice");
        let b = net.register("bob");
        if send {
            a.send("bob", b"m".to_vec()).unwrap();
        }
        clock.advance(pre_advance);
        (recv_within(&b, timeout).map(|m| m.payload), clock.now())
    }

    #[test]
    fn zero_timeout_foreground_wait_takes_due_mail_and_never_moves_time() {
        // A zero window still gets one poll-and-probe: due mail
        // (zero-latency profile) is returned, an empty mailbox times out,
        // and neither moves the clock.
        let due = FaultProfile::default();
        assert_eq!(foreground_recv(due, true, 0, 0), (Ok(b"m".to_vec()), 0));
        assert_eq!(
            foreground_recv(due, false, 0, 0),
            (Err(TestbedError::Timeout), 0)
        );
    }

    #[test]
    fn past_deadline_foreground_wait_resolves_at_once() {
        // The receiver shows up at t=7 with a window that is already
        // over. The wait must resolve immediately — delivering mail that
        // became due at t=2, or timing out — never hang or move time.
        let latency2 = FaultProfile {
            min_latency: 2,
            max_latency: 2,
            ..FaultProfile::default()
        };
        assert_eq!(
            foreground_recv(latency2, true, 0, 7),
            (Ok(b"m".to_vec()), 7)
        );
        assert_eq!(
            foreground_recv(latency2, false, 0, 7),
            (Err(TestbedError::Timeout), 7)
        );
        // A deadline that has not passed yet is honoured to the second.
        assert_eq!(
            foreground_recv(latency2, false, 5, 7),
            (Err(TestbedError::Timeout), 12)
        );
    }

    #[test]
    fn undriven_or_quiescent_wait_times_out_instead_of_parking() {
        // No scheduler bound: the probe gets one look, then Timeout.
        let net = Network::new();
        let a = net.register("alice");
        let b = net.register("bob");
        let look = |ep: &Endpoint| {
            sched::wait(ep.network(), |_| match ep.try_recv() {
                Some(m) => ControlFlow::Break(m.payload),
                None => ControlFlow::Continue(None),
            })
        };
        assert_eq!(look(&b), Err(TestbedError::Timeout));
        a.send("bob", b"already here".to_vec()).unwrap();
        assert_eq!(look(&b).unwrap(), b"already here");
        // A bound scheduler with nothing left to run is no different,
        // and neither is a task that tries to wait inside its own step.
        let mut sched = Scheduler::new(&net);
        assert_eq!(look(&b), Err(TestbedError::Timeout));
        let inner = std::rc::Rc::new(RefCell::new(None));
        let seen = inner.clone();
        sched.spawn(move |_cx: &TaskCx| {
            *seen.borrow_mut() = Some(look(&b));
            Step::Done
        });
        sched.run();
        assert_eq!(*inner.borrow(), Some(Err(TestbedError::Timeout)));
    }

    #[test]
    fn two_tasks_racing_one_delivery_tick_is_deterministic() {
        use std::rc::Rc;
        // Two messages to two different waiters, both scheduled for the
        // same delivery tick, driven by a foreground waiter whose own
        // mail lands on that tick too. Wake order must follow delivery
        // order (pending-queue (deliver_at, seq)), identical across
        // runs, and both tasks run before the foreground probe sees its
        // mail.
        let run = || {
            let net = Network::new();
            let clock = SimClock::new();
            net.enable_faults(
                clock.clone(),
                5,
                FaultProfile {
                    min_latency: 3,
                    max_latency: 3,
                    ..FaultProfile::default()
                },
            );
            let tx = net.register("tx");
            let order: Rc<RefCell<Vec<(String, u64)>>> = Rc::new(RefCell::new(Vec::new()));
            let mut sched = Scheduler::new(&net);
            for name in ["racer-b", "racer-a"] {
                let ep = net.register(name);
                let order = order.clone();
                sched.spawn_mailbox(name, move |cx: &TaskCx| {
                    if let Some(m) = ep.try_recv() {
                        order
                            .borrow_mut()
                            .push((String::from_utf8(m.payload).unwrap(), cx.now()));
                        return Step::Done;
                    }
                    Step::WaitMail { deadline: None }
                });
            }
            // Send b-then-a: delivery order is send order (same tick,
            // ascending seq), regardless of spawn order.
            let fg = net.register("foreground");
            tx.send("racer-b", b"first-sent".to_vec()).unwrap();
            tx.send("racer-a", b"second-sent".to_vec()).unwrap();
            tx.send("foreground", b"third-sent".to_vec()).unwrap();
            let mine = recv_within(&fg, 10).unwrap();
            order
                .borrow_mut()
                .push((String::from_utf8(mine.payload).unwrap(), clock.now()));
            let observed = order.borrow().clone();
            observed
        };
        let o1 = run();
        let o2 = run();
        assert_eq!(o1, o2, "same seed, same wake order");
        assert_eq!(
            o1,
            vec![
                ("first-sent".to_string(), 3),
                ("second-sent".to_string(), 3),
                ("third-sent".to_string(), 3)
            ],
            "all woke on the same tick, tasks in delivery (seq) order first"
        );
    }

    #[test]
    fn partition_blocks_until_healed() {
        let net = Network::new();
        let clock = SimClock::new();
        net.enable_faults(clock.clone(), 1, FaultProfile::default());
        let _sched = Scheduler::new(&net);
        let a = net.register("alice");
        let b = net.register("bob");
        net.partition("alice", "bob");
        a.send("bob", b"lost".to_vec()).unwrap();
        assert_eq!(recv_within(&b, 5), Err(TestbedError::Timeout));
        net.heal("alice", "bob");
        a.send("bob", b"through".to_vec()).unwrap();
        assert_eq!(recv_within(&b, 5).unwrap().payload, b"through");
        let stats = net.fault_stats().unwrap();
        assert_eq!(stats.blocked, 1);
        assert_eq!(stats.delivered, 1);
    }

    #[test]
    fn same_seed_same_transcript() {
        let run = |seed: u64| {
            let net = Network::new();
            let clock = SimClock::new();
            net.enable_faults(clock.clone(), seed, FaultProfile::lossy_wan());
            let _sched = Scheduler::new(&net);
            let a = net.register("alice");
            let b = net.register("bob");
            for i in 0..50u32 {
                a.send("bob", vec![0u8; i as usize % 7 + 1]).unwrap();
                let _ = recv_within(&b, 2);
            }
            (net.transcript(), net.fault_stats().unwrap())
        };
        let (t1, s1) = run(0xC11A05);
        let (t2, s2) = run(0xC11A05);
        assert_eq!(t1, t2);
        assert_eq!(s1, s2);
        assert!(s1.dropped > 0, "lossy_wan at 50 sends should drop some");
        let (t3, _) = run(0xC11A06);
        assert_ne!(t1, t3, "different seed, different transcript");
    }

    #[test]
    fn duplicates_are_delivered_as_extra_copies() {
        let net = Network::new();
        let clock = SimClock::new();
        net.enable_faults(
            clock.clone(),
            7,
            FaultProfile {
                duplicate: 1.0,
                max_extra_copies: 2,
                ..FaultProfile::default()
            },
        );
        let a = net.register("alice");
        let b = net.register("bob");
        a.send("bob", b"dup".to_vec()).unwrap();
        net.pump();
        let mut copies = 0;
        while b.try_recv().is_some() {
            copies += 1;
        }
        assert!(copies >= 2, "duplication at p=1.0 yields extra copies");
        let stats = net.fault_stats().unwrap();
        assert_eq!(stats.delivered, copies);
        assert_eq!(stats.duplicated, copies - 1);
    }

    #[test]
    fn stream_roundtrip() {
        let (mut a, mut b, stats) = StreamPair::new();
        a.write_all(b"hello stream").unwrap();
        let mut buf = [0u8; 12];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello stream");
        assert_eq!(stats.snapshot().bytes, 12);
    }

    #[test]
    fn stream_bidirectional() {
        let (mut a, mut b, _) = StreamPair::new();
        a.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        b.read_exact(&mut buf).unwrap();
        b.write_all(b"pong").unwrap();
        a.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"pong");
    }

    #[test]
    fn stream_partial_reads() {
        let (mut a, mut b, _) = StreamPair::new();
        a.write_all(&[1, 2, 3, 4, 5]).unwrap();
        let mut buf = [0u8; 2];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(buf, [1, 2]);
        let mut rest = [0u8; 3];
        b.read_exact(&mut rest).unwrap();
        assert_eq!(rest, [3, 4, 5]);
    }

    #[test]
    fn stream_eof_on_drop() {
        let (a, mut b, _) = StreamPair::new();
        drop(a);
        let mut buf = [0u8; 1];
        assert_eq!(b.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn read_on_a_silent_peer_stalls_instead_of_parking() {
        // No scheduled peer at all: nothing could ever write.
        let (mut a, _b, _) = StreamPair::new();
        let mut buf = [0u8; 1];
        let err = a.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        assert!(err.to_string().contains("stream stalled"), "{err}");

        // A scheduled peer that wakes, reads, and never answers: the
        // read drives it to quiescence, then fails.
        let net = Network::new();
        let mut sched = Scheduler::new(&net);
        let (mut a, mut b, _) = StreamPair::new();
        b.wake_on_readable(&net, "mute");
        sched.spawn_mailbox("mute", move |_cx: &TaskCx| {
            let mut sink = [0u8; 16];
            while let Ok(Some(n)) = b.try_read(&mut sink) {
                if n == 0 {
                    return Step::Done;
                }
            }
            Step::WaitMail { deadline: None }
        });
        a.write_all(b"anyone?").unwrap();
        let err = a.read(&mut buf).unwrap_err();
        assert!(err.to_string().contains("stream stalled"), "{err}");
        assert!(sched.stats().steps >= 1, "the peer did run");
    }

    #[test]
    fn lossy_stream_eventually_tears_and_is_deterministic() {
        let run = |seed: u64| {
            let (mut a, mut b, _) = StreamPair::lossy(seed, 0.2);
            let mut survived = 0u32;
            for _ in 0..100 {
                match a.write_all(b"chunk") {
                    Ok(()) => survived += 1,
                    Err(e) => {
                        assert_eq!(e.kind(), io::ErrorKind::ConnectionReset);
                        break;
                    }
                }
            }
            // Reader drains what got through, then sees the reset.
            let mut drained = 0u32;
            let mut buf = [0u8; 5];
            loop {
                match b.read_exact(&mut buf) {
                    Ok(()) => drained += 1,
                    Err(e) => {
                        assert_eq!(e.kind(), io::ErrorKind::ConnectionReset);
                        break;
                    }
                }
            }
            assert_eq!(drained, survived);
            survived
        };
        let s1 = run(42);
        let s2 = run(42);
        assert_eq!(s1, s2, "same seed, same tear point");
        assert!(s1 < 100, "p=0.2 over 100 writes tears the stream");
    }

    #[test]
    fn lossy_stream_zero_rate_behaves_like_new() {
        let (mut a, mut b, stats) = StreamPair::lossy(9, 0.0);
        a.write_all(b"clean").unwrap();
        let mut buf = [0u8; 5];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"clean");
        assert_eq!(stats.snapshot().bytes, 5);
    }

    #[test]
    fn loss_stats_count_attempts_tears_and_resets() {
        // Clean pair: attempts counted, no tears.
        let (mut a, mut b, stats) = StreamPair::new();
        a.write_all(b"x").unwrap();
        b.write_all(b"y").unwrap();
        let loss = stats.loss();
        assert_eq!(loss.write_attempts, 2);
        assert_eq!(loss.torn_writes, 0);
        assert_eq!(loss.loss_permille(), 0);

        // Lossy pair: drive writes until the seeded tear, then read to
        // the reset. The torn write is still an attempt.
        let (mut a, mut b, stats) = StreamPair::lossy(42, 0.2);
        let mut wrote = 0u64;
        loop {
            wrote += 1;
            if a.write_all(b"chunk").is_err() {
                break;
            }
        }
        let mut buf = [0u8; 5];
        while b.read_exact(&mut buf).is_ok() {}
        let loss = stats.loss();
        assert_eq!(loss.write_attempts, wrote);
        assert_eq!(loss.torn_writes, 1);
        assert_eq!(loss.resets_seen, 1);
        assert_eq!(loss.loss_permille(), 1000 / wrote);
    }
}
