//! In-memory network simulation: one transport.
//!
//! [`Network`] / [`Endpoint`] pass datagram-style messages between
//! named endpoints, with global byte/message accounting. GT3's
//! SOAP-based exchanges run over it directly; GT2's TLS channel runs
//! over a [`SimStream`] — a byte-stream connection whose every write is
//! one message segment on the same network (`Endpoint::connect`).
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
//! never across a call into task code; mailboxes are plain queues
//! shared by the slot that fills them and the handle that drains them
//! (DESIGN.md §12.5).

use crate::buckets::TimeBuckets;
use crate::clock::SimClock;
use crate::names::{NameId, NameTable};
use crate::sched;
use crate::TestbedError;
use gridsec_util::rng::{DetRng, RngCore};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::fmt::Write as _;
use std::io::{self, Read, Write};
use std::ops::ControlFlow;
use std::rc::{Rc, Weak};

/// A network-wide traffic accounting snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct TrafficStats {
    /// Total messages delivered.
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

/// A delivered message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Message {
    /// Sending endpoint name.
    pub from: String,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

/// Fault knobs, one set for every link. The [`Default`] profile injects
/// nothing, so an armed fault layer with default profile behaves like a
/// perfect network that merely goes through the pending queue.
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

    /// `true` iff an active partition separates the hosts of `a` and
    /// `b` ([`host`]). Costs nothing while no partition is active.
    fn severs(&self, names: &NameTable, a: &str, b: &str) -> bool {
        if self.partitions.is_empty() {
            return false;
        }
        match (names.get(host(a)), names.get(host(b))) {
            (Some(a), Some(b)) => self.partitions.contains(&normalize_pair(a, b)),
            _ => false,
        }
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

    /// Decide the fate of one sent message (`blocked` if a partition
    /// severs it) and queue its copies. The caller supplies the endpoint
    /// names alongside their ids so transcript lines (when recording is
    /// on) need no table lookup.
    ///
    /// Every transcript hangs off the order of draws here — latency,
    /// reorder unit, jitter if reordered, duplicate unit, extra count if
    /// duplicated, then each extra copy's arrival — and off copies
    /// entering the queue in the order their arrivals were drawn.
    fn inject(
        &mut self,
        from: NameId,
        to: NameId,
        names: (&str, &str),
        payload: Vec<u8>,
        blocked: bool,
    ) {
        self.stats.sent += 1;
        let now = self.clock.now();
        let id = self.stats.sent;
        let len = payload.len();
        let (from_name, to_name) = names;
        let prof = self.profile;

        if blocked {
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

/// The host a name lives on: the part before its first `:`, or the
/// whole name. Connection endpoints are named `host:rest`, so one
/// partition between two hosts severs every connection between them.
fn host(name: &str) -> &str {
    name.split_once(':').map_or(name, |(host, _)| host)
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
    /// A name whose handle was dropped without `Network::unregister`
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

    /// The clock the fault layer schedules on, if armed.
    pub fn fault_clock(&self) -> Option<SimClock> {
        self.with_faults(|fs| fs.clock.clone())
    }

    /// Sever hosts `a` and `b` in both directions: every endpoint named
    /// `a` or `a:…` from every endpoint named `b` or `b:…`. Messages
    /// sent across an active partition are blocked (counted in
    /// [`FaultStats::blocked`]); copies already in flight still arrive.
    pub fn partition(&self, a: &str, b: &str) {
        let key = normalize_pair(self.intern(host(a)), self.intern(host(b)));
        self.with_faults(|fs| fs.partitions.insert(key));
    }

    /// Heal the partition between hosts `a` and `b`, if any.
    pub fn heal(&self, a: &str, b: &str) {
        let key = normalize_pair(self.intern(host(a)), self.intern(host(b)));
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
        let st = &mut *st;
        if let Some(fs) = st.faults.as_mut() {
            let blocked = fs.severs(&st.names, from_name, to);
            fs.inject(from, to_id, (from_name, to), payload, blocked);
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
    /// world. Not `Network::unregister`: a send to a finished
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

/// Kind byte of a stream segment carrying bytes.
const DATA: u8 = 0;
/// Kind byte of a half's hang-up.
const FIN: u8 = 1;
/// Kind byte of a hang-up by a half that saw its connection tear.
const RST: u8 = 2;
/// Stream segment header: the kind byte, then a `u32` big-endian count —
/// a data segment's sequence number, or for a FIN/RST the number of
/// data segments its half sent.
const SEGMENT_HEADER: usize = 5;

fn segment(kind: u8, seq: u32, bytes: &[u8]) -> Vec<u8> {
    let mut seg = Vec::with_capacity(SEGMENT_HEADER + bytes.len());
    seg.push(kind);
    seg.extend_from_slice(&seq.to_be_bytes());
    seg.extend_from_slice(bytes);
    seg
}

/// What a reader finds next in sequence.
enum Head {
    Data(Vec<u8>),
    Eof,
    Reset,
}

fn reset_err(why: &str) -> io::Error {
    io::Error::new(io::ErrorKind::ConnectionReset, why)
}

impl Endpoint {
    /// Make this endpoint one half of a byte-stream connection to the
    /// endpoint named `peer`, which opens the other half the same way
    /// ([`Network::connect`] does both).
    pub(crate) fn connect(self, peer: &str) -> SimStream {
        SimStream {
            ep: self,
            peer: peer.to_string(),
            sent: 0,
            next: 0,
            early: BTreeMap::new(),
            close: None,
            read_buf: Vec::new(),
            read_pos: 0,
            torn: false,
        }
    }
}

impl Network {
    /// Register `a` and `b` and connect them: the two halves of one
    /// byte stream. A name `host:rest` lives on `host`, so
    /// [`Network::partition`] of the two hosts severs the connection.
    pub fn connect(&self, a: &str, b: &str) -> (SimStream, SimStream) {
        let (ea, eb) = (self.register(a), self.register(b));
        (ea.connect(b), eb.connect(a))
    }
}

/// One half of a byte-stream connection over the [`Network`].
///
/// Every write is one [`Message`] to the peer's endpoint: a five-byte
/// header (a kind byte, then a `u32` sequence number) and the bytes. A segment therefore draws its fate
/// from the world's one [`FaultProfile`], appears in
/// [`Network::transcript`] and [`Network::stats`], is blocked by
/// [`Network::partition`], and its delivery wakes the task spawned under
/// the receiving half's name like any other mail. The reader reassembles
/// segments by sequence number, so duplicates and reordering are
/// absorbed; there is no retransmission, so a segment that never
/// arrives tears the connection.
///
/// Both read forms hand out each byte once and in order, and differ
/// only in what "nothing yet" means:
///
/// * [`SimStream::try_read`] — for scheduler tasks, which must never
///   wait inside a step: it reports `Ok(None)` and the task parks in
///   [`Step::WaitMail`](crate::sched::Step::WaitMail) under this half's
///   endpoint name. A hang-up from the peer that shows a gap in the
///   sequence is the tear.
/// * [`Read::read`] — for call-shaped code: it parks in [`sched::wait`]
///   on this network, so scheduled peers run inside the read. A world
///   that goes quiescent before the next segment arrives fails the read
///   with `ConnectionReset` ("stream stalled") instead of hanging.
///
/// Dropping a half hangs up: a FIN, or an RST once the half has seen a
/// tear. The peer reads EOF after draining a FIN (`ConnectionReset`
/// after an RST), and its writes fail with `BrokenPipe`
/// (`ConnectionReset`).
pub struct SimStream {
    ep: Endpoint,
    peer: String,
    /// Data segments written: the next one's sequence number.
    sent: u32,
    /// Sequence number of the next data segment to read.
    next: u32,
    /// Data segments that arrived ahead of `next`.
    early: BTreeMap<u32, Vec<u8>>,
    /// The peer's FIN or RST and its count of data segments sent.
    close: Option<(u8, u32)>,
    read_buf: Vec<u8>,
    read_pos: usize,
    /// This half saw the connection tear; every later call fails.
    torn: bool,
}

impl SimStream {
    /// The endpoint this half receives on: spawn the task that serves
    /// it under this endpoint's id.
    pub fn endpoint(&self) -> &Endpoint {
        &self.ep
    }

    /// Move every segment the peer has delivered out of the mailbox.
    /// Anything not from the peer, malformed, or already read is
    /// ignored; the first hang-up wins.
    fn absorb(&mut self) {
        while let Some(Message { from, mut payload }) = self.ep.try_recv() {
            if from != self.peer || payload.len() < SEGMENT_HEADER {
                continue;
            }
            let kind = payload[0];
            let seq = u32::from_be_bytes([payload[1], payload[2], payload[3], payload[4]]);
            match kind {
                DATA if seq >= self.next => {
                    payload.drain(..SEGMENT_HEADER);
                    self.early.entry(seq).or_insert(payload);
                }
                FIN | RST if self.close.is_none() => self.close = Some((kind, seq)),
                _ => {}
            }
        }
    }

    /// The next thing in sequence, if it has arrived. `None` with a
    /// hang-up on record means the hang-up showed a gap.
    fn head(&mut self) -> Option<Head> {
        self.absorb();
        if let Some(data) = self.early.remove(&self.next) {
            self.next += 1;
            return Some(Head::Data(data));
        }
        match self.close {
            Some((FIN, sent)) if sent == self.next => Some(Head::Eof),
            Some((_, sent)) if sent <= self.next => Some(Head::Reset),
            _ => None,
        }
    }

    /// Record a tear; every later read and write fails with it.
    fn tear(&mut self, why: &str) -> io::Error {
        self.torn = true;
        reset_err(why)
    }

    /// Make the read buffer non-empty from `head`. `Ok(true)` means
    /// bytes are now available; `Ok(false)` means EOF.
    fn accept(&mut self, head: Head) -> io::Result<bool> {
        match head {
            Head::Data(data) => {
                self.read_buf = data;
                self.read_pos = 0;
                Ok(true)
            }
            Head::Reset => Err(self.tear("connection reset by peer")),
            Head::Eof => Ok(false),
        }
    }

    fn copy_out(&mut self, buf: &mut [u8]) -> usize {
        let available = &self.read_buf[self.read_pos..];
        let n = available.len().min(buf.len());
        buf[..n].copy_from_slice(&available[..n]);
        self.read_pos += n;
        n
    }

    /// Park in the scheduler bound to this network until the next
    /// segment in sequence (or the peer's hang-up) arrives.
    fn await_head(&mut self) -> io::Result<Head> {
        let net = self.ep.network().clone();
        match sched::wait(&net, |_| match self.head() {
            Some(head) => ControlFlow::Break(head),
            None => ControlFlow::Continue(None),
        }) {
            Ok(head) => Ok(head),
            Err(_) => Err(self.tear("stream stalled: scheduler quiescent with no data")),
        }
    }

    /// Non-blocking read for scheduler tasks. Returns:
    ///
    /// * `Ok(Some(n))` with `n > 0` — bytes copied out.
    /// * `Ok(Some(0))` — EOF: the peer hung up after everything it wrote
    ///   was read.
    /// * `Ok(None)` — no data *yet*; park in `WaitMail` under this
    ///   half's endpoint name and try again.
    /// * `Err` — the connection tore: a segment was lost, or the peer
    ///   reset it.
    pub fn try_read(&mut self, buf: &mut [u8]) -> io::Result<Option<usize>> {
        if self.torn {
            return Err(reset_err("connection torn"));
        }
        if self.read_pos == self.read_buf.len() {
            match self.head() {
                Some(head) => {
                    if !self.accept(head)? {
                        return Ok(Some(0));
                    }
                }
                None if self.close.is_some() => {
                    return Err(self.tear("peer hung up past a lost segment"));
                }
                None => return Ok(None),
            }
        }
        Ok(Some(self.copy_out(buf)))
    }
}

impl Drop for SimStream {
    /// Hang up, unless the peer already has: its endpoint is gone.
    fn drop(&mut self) {
        self.absorb();
        if self.close.is_none() {
            let kind = if self.torn { RST } else { FIN };
            let _ = self.ep.send(&self.peer, segment(kind, self.sent, &[]));
        }
    }
}

impl Read for SimStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.torn {
            return Err(reset_err("connection torn"));
        }
        if self.read_pos == self.read_buf.len() {
            let head = match self.head() {
                Some(head) => head,
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
        if self.torn {
            return Err(reset_err("connection torn"));
        }
        if buf.is_empty() {
            return Ok(0);
        }
        self.absorb();
        match self.close {
            Some((FIN, _)) => {
                return Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "peer disconnected",
                ))
            }
            Some(_) => return Err(self.tear("connection reset by peer")),
            None => {}
        }
        let seg = segment(DATA, self.sent, buf);
        self.sent += 1;
        self.ep
            .send(&self.peer, seg)
            .map_err(|e| io::Error::new(io::ErrorKind::BrokenPipe, e))?;
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

    impl Network {
        /// Remove an endpoint: sends to the name fail until it is registered
        /// again, and its handle receives nothing further.
        pub(crate) fn unregister(&self, name: &str) {
            let mut st = self.inner.borrow_mut();
            if let Some(id) = st.names.get(name) {
                st.boxes.set(id, Slot::Vacant);
            }
        }
    }

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
        let net = Network::new();
        let (mut a, mut b) = net.connect("alice:1", "bob:1");
        a.write_all(b"hello stream").unwrap();
        let mut buf = [0u8; 12];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello stream");
        assert_eq!(
            net.stats(),
            TrafficStats {
                messages: 1,
                bytes: (SEGMENT_HEADER + 12) as u64
            }
        );
    }

    #[test]
    fn stream_bidirectional() {
        let net = Network::new();
        let (mut a, mut b) = net.connect("alice:1", "bob:1");
        a.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        b.read_exact(&mut buf).unwrap();
        b.write_all(b"pong").unwrap();
        a.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"pong");
    }

    #[test]
    fn stream_partial_reads() {
        let net = Network::new();
        let (mut a, mut b) = net.connect("alice:1", "bob:1");
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
        let net = Network::new();
        let (mut a, mut b) = net.connect("alice:1", "bob:1");
        a.write_all(b"last").unwrap();
        drop(a);
        let mut buf = [0u8; 8];
        assert_eq!(b.read(&mut buf).unwrap(), 4, "drained before EOF");
        assert_eq!(b.read(&mut buf).unwrap(), 0);
        let err = b.write_all(b"anyone?").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn read_on_a_silent_peer_stalls_instead_of_parking() {
        // No scheduler at all: nothing could ever write.
        let net = Network::new();
        let (mut a, _b) = net.connect("alice:1", "bob:1");
        let mut buf = [0u8; 1];
        let err = a.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        assert!(err.to_string().contains("stream stalled"), "{err}");

        // A scheduled peer that wakes, reads, and never answers: the
        // read drives it to quiescence, then fails.
        let net = Network::new();
        let mut sched = Scheduler::new(&net);
        let (mut a, mut b) = net.connect("alice:1", "mute:1");
        sched.spawn_mailbox_id(b.endpoint().id(), move |_cx: &TaskCx| {
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

    /// A world whose only fault is `drop`, scheduled, with one
    /// connection `alice:1`/`bob:1`.
    fn lossy_connection(seed: u64, drop: f64) -> (Network, Scheduler, SimStream, SimStream) {
        let net = Network::new();
        let profile = FaultProfile {
            drop,
            ..FaultProfile::default()
        };
        net.enable_faults(SimClock::new(), seed, profile);
        let sched = Scheduler::new(&net);
        let (a, b) = net.connect("alice:1", "bob:1");
        (net, sched, a, b)
    }

    #[test]
    fn lossy_stream_eventually_tears_and_is_deterministic() {
        let run = |seed: u64| {
            let (net, _sched, mut a, mut b) = lossy_connection(seed, 0.2);
            for _ in 0..100 {
                a.write_all(b"chunk").unwrap();
            }
            // The reader drains the in-order prefix, then the gap at
            // the first lost segment is a reset.
            let mut drained = 0u32;
            let mut buf = [0u8; 5];
            let err = loop {
                match b.read_exact(&mut buf) {
                    Ok(()) => drained += 1,
                    Err(e) => break e,
                }
            };
            assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
            // The reader's hang-up is an RST: the writer sees the tear.
            drop(b);
            let err = a.write_all(b"more").unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
            (drained, net.transcript())
        };
        let (s1, t1) = run(42);
        let (s2, t2) = run(42);
        assert_eq!((s1, &t1), (s2, &t2), "same seed, same tear point");
        assert!(s1 < 100, "p=0.2 over 100 writes tears the stream");
        assert!(t1[s1 as usize].ends_with("drop"), "{}", t1[s1 as usize]);
    }

    #[test]
    fn lossy_stream_zero_rate_behaves_like_new() {
        let (net, _sched, mut a, mut b) = lossy_connection(9, 0.0);
        a.write_all(b"clean").unwrap();
        let mut buf = [0u8; 5];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"clean");
        assert_eq!(net.stats().bytes, (SEGMENT_HEADER + 5) as u64);
        let faults = net.fault_stats().unwrap();
        assert_eq!((faults.sent, faults.delivered), (1, 1));
    }

    #[test]
    fn partition_between_hosts_blocks_every_connection_between_them() {
        let (net, _sched, mut a, mut b) = lossy_connection(1, 0.0);
        let (mut c, mut d) = net.connect("alice:2", "bob:2");
        let bystander = net.register("carol");
        net.partition("alice", "bob");
        a.write_all(b"x").unwrap();
        c.write_all(b"y").unwrap();
        bystander.send("bob:1", b"to bob".to_vec()).unwrap();
        let mut buf = [0u8; 1];
        for half in [&mut b, &mut d] {
            let err = half.read(&mut buf).unwrap_err();
            assert!(err.to_string().contains("stream stalled"), "{err}");
        }
        let faults = net.fault_stats().unwrap();
        assert_eq!((faults.blocked, faults.delivered), (2, 1));
    }
}
