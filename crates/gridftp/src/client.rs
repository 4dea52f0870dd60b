//! The GridFTP client: one engine for the resumable (`GETR`/`PUTR`) and
//! striped (`SIZE`/`GETS`/`PULL`, `PUTS`/`SEND`/`ACK`, `FINS`) dialects.
//!
//! A transfer runs as stripes, the resumable dialect as one stripe whose
//! range is the whole file. Each connection of a stripe is a [`Scheduler`]
//! task under its stream's endpoint: it drives a sans-io `ClientSession`,
//! the client half of [`ServerSession`](crate::poll::ServerSession), over
//! [`SimStream::try_read`] and parks in [`Step::WaitMail`]. The caller
//! dials, parked in [`sched::wait`] in between.
//!
//! **One clock.** Segments take the latency the world's fault profile
//! draws, so stripes overlap their round trips, and durations, goodput,
//! the AIMD decision stamps and the token bucket all read the sim clock.
//! Silence past the [`RetryPolicy`]'s timeout is a stall; a stall, EOF or
//! a reset tears the connection, and the stripe redials after that
//! timeout and resumes from its restart marker (the bytes it holds for a
//! GET, the server's durable `OFFSET` for a PUT). A refusal (security,
//! protocol, file) ends the transfer at once.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::ops::ControlFlow;
use std::rc::Rc;

use gridsec_bignum::prime::EntropySource;
use gridsec_crypto::sha256::sha256;
use gridsec_testbed::net::{Network, SimStream};
use gridsec_testbed::sched::{self, Scheduler, Step, Task, TaskCx};
use gridsec_tls::handshake::TlsConfig;
use gridsec_tls::records::{ClientConnector, RecordSession};
use gridsec_tls::stream::write_frame;
use gridsec_util::retry::RetryPolicy;
use gridsec_util::throttle::TokenBucket;
use gridsec_util::trace;

use crate::congestion::AimdController;
use crate::poll::Dialect;
use crate::resume::{hex, CHUNK};
use crate::stripe::{merge_ranges, ranges, StripeOpts};
use crate::FtpError;

/// Outcome of a completed transfer, timed on the world's sim clock.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct XferOutcome {
    /// Fetched bytes (GET); empty for PUT.
    pub bytes: Vec<u8>,
    /// Hex SHA-256 of the file, verified end to end.
    pub sha256: String,
    /// Secure sessions established across all stripes (≥ 1).
    pub sessions: u32,
    /// Torn connections survived, each resumed on a fresh dial.
    pub tears: u32,
    /// Sim seconds from the first dial to the last byte.
    pub secs: u64,
    /// File bytes per sim second (a transfer inside one second counts one).
    pub goodput: u64,
    /// High-water mark of concurrently running stripes.
    pub peak_stripes: u32,
    /// The congestion controller's decision log, stamped in sim seconds.
    pub decisions: Vec<String>,
    /// Chunk grants the shared token bucket delayed.
    pub throttle_waits: u64,
    /// Sim seconds of bucket-imposed waiting.
    pub throttle_waited_secs: u64,
}

/// What a transfer moves: `path` in `dialect`, storing `upload` or,
/// with `None`, fetching the file.
pub(crate) struct Job<'a> {
    pub(crate) dialect: Dialect,
    pub(crate) path: &'a str,
    pub(crate) upload: Option<&'a [u8]>,
}

fn protocol(what: &str) -> FtpError {
    FtpError::Protocol(what.to_string())
}

fn field<T: std::str::FromStr>(f: Option<&str>) -> Result<T, FtpError> {
    f.and_then(|s| s.parse().ok())
        .ok_or_else(|| protocol("bad reply field"))
}

/// A stripe lost the range it was moving: an engine invariant broke.
const LOST: FtpError = FtpError::Xfer("stripe range lost mid-transfer");

/// A stripe's claim on the file: bytes `[start, end)`, `got` of them
/// moved, which a GET keeps in `buf`.
#[derive(Default)]
struct Range {
    start: usize,
    end: usize,
    got: usize,
    buf: Vec<u8>,
}

impl Range {
    fn left(&self) -> usize {
        self.end - self.start - self.got
    }
}

/// Where a stripe is between connections.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
enum Slot {
    /// Not running.
    #[default]
    Parked,
    /// To be dialed at this sim time.
    Dial(u64),
    /// A connection's task is running it.
    Live,
}

#[derive(Default)]
struct Stripe {
    slot: Slot,
    range: Option<Range>,
    /// Frames this stripe has moved, handshake frames included.
    frames: u64,
    /// This stripe's connections that tore.
    torn: u64,
    /// Tears since the stripe's last greeting: picks the policy timeout.
    attempt: u32,
}

/// What the stripe tasks of one transfer share with each other and with
/// the caller that dials for them.
struct Xfer {
    dialect: Dialect,
    path: String,
    upload: Option<Vec<u8>>,
    /// Length and hex digest: a PUT knows them, a GET learns them.
    file: Option<(usize, String)>,
    queue: VecDeque<(usize, usize)>,
    /// Completed GET ranges.
    parts: Vec<(usize, Vec<u8>)>,
    stripes: Vec<Stripe>,
    /// The stripe that sends the striped PUT's `FINS`.
    fins_by: Option<usize>,
    ctl: AimdController,
    bucket: Option<TokenBucket>,
    policy: RetryPolicy,
    budget: u32,
    /// Tears charged to the budget.
    spent: u32,
    sessions: u32,
    tears: u32,
    peak: u32,
    /// The sim time the transfer finished, or why it failed.
    end: Option<Result<u64, FtpError>>,
}

impl Xfer {
    fn active(&self) -> usize {
        self.stripes
            .iter()
            .filter(|s| s.slot != Slot::Parked)
            .count()
    }

    /// Wake parked stripes at `now` while the controller wants more and
    /// ranges are left to hand them.
    fn grow(&mut self, now: u64) {
        let target = self.ctl.target_stripes() as usize;
        let mut active = self.active();
        if self.file.is_some() && !self.queue.is_empty() {
            for s in self.stripes.iter_mut().filter(|s| s.slot == Slot::Parked) {
                if active >= target {
                    break;
                }
                s.slot = Slot::Dial(now);
                active += 1;
            }
        }
    }

    /// Learn the file's length and digest, or check that it has not
    /// changed since another session learned them.
    fn know(&mut self, total: usize, sha: Option<&str>, now: u64) -> Result<(), FtpError> {
        let sha = sha.ok_or_else(|| protocol("reply carries no digest"))?;
        match &self.file {
            Some((t, s)) if (*t, s.as_str()) != (total, sha) => {
                Err(protocol("file changed between sessions"))
            }
            Some(_) => Ok(()),
            None => {
                self.file = Some((total, sha.to_string()));
                self.queue = ranges(self.dialect, total);
                self.grow(now);
                Ok(())
            }
        }
    }

    /// The range stripe `i` moves next: the one a tear interrupted, else
    /// the next queued one, unless the controller wants fewer stripes.
    fn claim(&mut self, i: usize) -> Option<&mut Range> {
        if self.stripes[i].range.is_none() && self.active() <= self.ctl.target_stripes() as usize {
            if let Some((start, end)) = self.queue.pop_front() {
                let range = Range {
                    start,
                    end,
                    ..Range::default()
                };
                self.stripes[i].range = Some(range);
            }
        }
        self.stripes[i].range.as_mut()
    }

    /// Stripe `i` moved the last byte of its range.
    fn complete(&mut self, i: usize) {
        if let Some(r) = self.stripes[i].range.take() {
            if self.upload.is_none() {
                self.parts.push((r.start, r.buf));
            }
        }
    }

    fn finish(&mut self, now: u64) {
        self.end.get_or_insert(Ok(now));
    }

    fn fail(&mut self, e: FtpError) {
        self.end.get_or_insert(Err(e));
    }

    /// Stripe `i`'s connection tore at `now`, after its greeting or
    /// still in its handshake: tell the controller and redial after the
    /// policy's timeout for the attempt. A torn session spends budget,
    /// and so does every `max_attempts`-th handshake in a row that tore,
    /// as the policy bounds the redials of one dial.
    fn tear(&mut self, i: usize, now: u64, greeted: bool) {
        if self.end.is_some() {
            return;
        }
        self.tears += 1;
        let s = &mut self.stripes[i];
        s.torn += 1;
        let wait = self.policy.timeout_for(s.attempt);
        s.attempt += 1;
        if greeted || s.attempt.is_multiple_of(self.policy.max_attempts.max(1)) {
            self.spent += 1;
        }
        s.slot = Slot::Dial(now.saturating_add(wait));
        let moved = s.range.as_ref().map_or(0, |r| r.got);
        // The stripe's observed loss: torn connections per frame moved.
        let loss = s.torn * 1000 / s.frames.max(1);
        self.ctl.on_tear(i, loss, now);
        let detail = format!("stripe={i} moved={moved} redial+{wait}s");
        trace::event("xfer.resume", &detail);
        trace::add("xfer.resumes", 1);
        if self.spent >= self.budget {
            trace::flight_dump("xfer resume budget exhausted");
            self.fail(FtpError::Channel("resume budget exhausted".to_string()));
        }
    }

    /// The stripes due for a dial at `now`.
    fn due(&self, now: u64) -> Vec<usize> {
        (0..self.stripes.len())
            .filter(|&i| matches!(self.stripes[i].slot, Slot::Dial(at) if at <= now))
            .collect()
    }

    /// For the dialing caller: stop waiting when the transfer has ended
    /// or a stripe is due, else wait until the next redial is.
    fn wake(&self, now: u64) -> ControlFlow<(), Option<u64>> {
        let next = (self.stripes.iter())
            .filter_map(|s| match s.slot {
                Slot::Dial(at) => Some(at),
                _ => None,
            })
            .min();
        match next {
            Some(at) if at <= now => ControlFlow::Break(()),
            _ if self.end.is_some() => ControlFlow::Break(()),
            next => ControlFlow::Continue(next),
        }
    }
}

/// Where a [`ClientSession`] is in its dialect, between messages.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Awaiting the `OK` greeting; the handshake runs before it.
    Greeting,
    /// `SIZE` sent.
    Size,
    /// `GETR` sent: awaiting `DATA`.
    Data,
    /// Receiving a `GETR` stream.
    Stream,
    /// `PUTR`/`PUTS` sent: awaiting `OFFSET`.
    Offset,
    /// `GETS` sent: awaiting `RANGE`.
    Range,
    /// `PULL` sent: this many chunks owed.
    Pull(usize),
    /// A `SEND` window sent: awaiting `ACK`.
    Ack,
    /// The `PUTR` data or `FINS` sent: awaiting `STORED`.
    Stored,
    /// `QUIT` sent: the stripe is done.
    Quit,
}

enum Tls {
    Connecting(ClientConnector),
    Open(RecordSession),
}

/// A sans-io GridFTP client connection, the client half of
/// [`ServerSession`](crate::poll::ServerSession): the handshake as a
/// [`ClientConnector`], the greeting, then one stripe's commands and data
/// as sealed records. Feed transport bytes in, [`drive`](Self::drive) it
/// against the transfer, and write every frame from
/// [`take_output`](Self::take_output) once the sim clock reaches
/// `release`.
struct ClientSession {
    tls: Tls,
    phase: Phase,
    out: Vec<Vec<u8>>,
    /// When the queued frames may go: the token bucket's grant.
    release: u64,
}

impl ClientSession {
    /// Start a connection: the client hello is the first frame out.
    fn new<E: EntropySource>(config: TlsConfig, rng: &mut E) -> Self {
        let (connector, hello) = ClientConnector::new(config, rng);
        ClientSession {
            tls: Tls::Connecting(connector),
            phase: Phase::Greeting,
            out: vec![hello],
            release: 0,
        }
    }

    fn feed(&mut self, bytes: &[u8]) {
        match &mut self.tls {
            Tls::Connecting(c) => c.feed(bytes),
            Tls::Open(s) => s.feed(bytes),
        }
    }

    fn take_output(&mut self) -> Vec<Vec<u8>> {
        std::mem::take(&mut self.out)
    }

    fn send(&mut self, msg: &[u8]) {
        if let Tls::Open(s) = &mut self.tls {
            self.out.push(s.send(msg));
        }
    }

    fn say(&mut self, text: String, next: Phase) {
        self.send(text.as_bytes());
        self.phase = next;
    }

    /// Handle every buffered message of stripe `i` at `now`; the server
    /// hello completes the handshake on the way. `Ok(true)` when a frame
    /// arrived.
    fn drive(&mut self, x: &mut Xfer, i: usize, now: u64) -> Result<bool, FtpError> {
        let mut progress = false;
        loop {
            let session = match &mut self.tls {
                Tls::Open(session) => session,
                Tls::Connecting(c) => {
                    let Some((finished, session)) = c.advance().map_err(FtpError::channel)? else {
                        return Ok(false);
                    };
                    self.out.push(finished);
                    self.tls = Tls::Open(session);
                    x.stripes[i].frames += 1;
                    progress = true;
                    continue;
                }
            };
            let Some(msg) = session.next_message().map_err(FtpError::channel)? else {
                return Ok(progress);
            };
            progress = true;
            x.stripes[i].frames += 1;
            self.on_message(x, i, msg, now)?;
        }
    }

    /// Handle one message of stripe `i`: a data chunk, or the reply the
    /// phase awaits (anything else is the server's refusal).
    fn on_message(
        &mut self,
        x: &mut Xfer,
        i: usize,
        msg: Vec<u8>,
        now: u64,
    ) -> Result<(), FtpError> {
        let verb = match self.phase {
            Phase::Stream => return self.received(x, i, now, Some(msg)),
            Phase::Pull(owed) => {
                self.phase = Phase::Pull(owed - 1);
                return self.received(x, i, now, Some(msg));
            }
            Phase::Quit => return Ok(()),
            Phase::Greeting => "OK",
            Phase::Size => "SIZE",
            Phase::Data => "DATA",
            Phase::Range => "RANGE",
            Phase::Offset => "OFFSET",
            Phase::Ack => "ACK",
            Phase::Stored => "STORED",
        };
        let reply = String::from_utf8_lossy(&msg).into_owned();
        let mut it = reply.split_whitespace();
        if it.next() != Some(verb) {
            return Err(match self.phase {
                Phase::Greeting => FtpError::Protocol(reply),
                _ => FtpError::File(reply),
            });
        }
        match self.phase {
            Phase::Greeting => {
                x.sessions += 1;
                x.stripes[i].attempt = 0;
                self.next(x, i, now)
            }
            Phase::Size => {
                x.know(field(it.next())?, it.next(), now)?;
                self.next(x, i, now)
            }
            Phase::Data => {
                let (total, offset): (usize, usize) = (field(it.next())?, field(it.next())?);
                x.know(total, it.next(), now)?;
                if x.claim(i).map_or(0, |r| r.got) != offset {
                    return Err(protocol("server ignored restart marker"));
                }
                self.phase = Phase::Stream;
                self.received(x, i, now, None)
            }
            Phase::Range => {
                x.know(field(it.next())?, it.next(), now)?;
                self.window(x, i, now)
            }
            Phase::Ack => {
                x.ctl.on_clean_round(i, now);
                x.grow(now);
                self.moved(x, i, now, field(it.next())?)
            }
            Phase::Offset => self.moved(x, i, now, field(it.next())?),
            _ => {
                if x.file.as_ref().map(|(_, sha)| sha.as_str()) != it.next() {
                    return Err(protocol("server stored different bytes than sent"));
                }
                x.stripes[i].range = None;
                x.finish(now);
                self.say("QUIT".into(), Phase::Quit);
                Ok(())
            }
        }
    }

    /// A GET chunk `chunk` arrived (or, with `None`, the `DATA` header
    /// opened the stream); move on when the range or the window is in.
    fn received(
        &mut self,
        x: &mut Xfer,
        i: usize,
        now: u64,
        chunk: Option<Vec<u8>>,
    ) -> Result<(), FtpError> {
        let r = x.stripes[i].range.as_mut().ok_or(LOST)?;
        if let Some(chunk) = chunk {
            if chunk.len() > r.left() {
                return Err(protocol("download overruns its range"));
            }
            r.got += chunk.len();
            r.buf.extend_from_slice(&chunk);
        }
        let done = r.left() == 0;
        match self.phase {
            Phase::Pull(0) => {
                x.ctl.on_clean_round(i, now);
                x.grow(now);
            }
            Phase::Pull(_) | Phase::Stream if !done => return Ok(()),
            _ => {}
        }
        if done {
            x.complete(i);
            return self.next(x, i, now);
        }
        self.window(x, i, now)
    }

    /// The server holds a PUT range up to `abs`: send the rest.
    fn moved(&mut self, x: &mut Xfer, i: usize, now: u64, abs: usize) -> Result<(), FtpError> {
        let r = x.stripes[i].range.as_mut().ok_or(LOST)?;
        if abs < r.start || abs > r.end {
            return Err(protocol("server offset out of range"));
        }
        r.got = abs - r.start;
        if x.dialect == Dialect::Resumable {
            let (from, end) = (abs, r.end);
            let data = x.upload.as_deref().unwrap_or_default();
            for at in (from..end).step_by(CHUNK) {
                self.send(&data[at..end.min(at + CHUNK)]);
            }
            self.phase = Phase::Stored;
            return Ok(());
        }
        if r.left() == 0 {
            x.complete(i);
            return self.next(x, i, now);
        }
        self.window(x, i, now)
    }

    /// Move the next window of a striped range — `PULL n`, or `SEND n`
    /// and the chunks — released when the bucket grants its bytes.
    fn window(&mut self, x: &mut Xfer, i: usize, now: u64) -> Result<(), FtpError> {
        let r = x.stripes[i].range.as_ref().ok_or(LOST)?;
        let (from, end) = (r.start + r.got, r.end);
        let chunks: Vec<(usize, usize)> = (from..end)
            .step_by(CHUNK)
            .take(x.ctl.window() as usize)
            .map(|at| (at, end.min(at + CHUNK)))
            .collect();
        self.release = match x.bucket.as_mut() {
            None => now,
            Some(b) => (chunks.iter()).fold(now, |at, (s, e)| b.take_at(at, (e - s) as u64)),
        };
        let n = chunks.len();
        match x.upload.as_deref() {
            None => self.say(format!("PULL {n}"), Phase::Pull(n)),
            Some(data) => {
                self.say(format!("SEND {n}"), Phase::Ack);
                for (s, e) in chunks {
                    self.send(&data[s..e]);
                }
            }
        }
        Ok(())
    }

    /// The next command of stripe `i`: learn the file, open a range,
    /// finish a striped PUT, or quit.
    fn next(&mut self, x: &mut Xfer, i: usize, now: u64) -> Result<(), FtpError> {
        let path = x.path.clone();
        let put = x.upload.is_some();
        let dialect = x.dialect;
        let Some((total, sha)) = x.file.clone() else {
            match dialect {
                Dialect::Resumable => self.say(format!("GETR {path} 0"), Phase::Data),
                _ => self.say(format!("SIZE {path}"), Phase::Size),
            }
            return Ok(());
        };
        if let Some(r) = x.claim(i) {
            let (start, end, got) = (r.start, r.end, r.got);
            match (dialect, put) {
                (Dialect::Resumable, false) => self.say(format!("GETR {path} {got}"), Phase::Data),
                (Dialect::Resumable, true) => {
                    self.say(format!("PUTR {path} {total}"), Phase::Offset)
                }
                (_, false) => self.say(format!("GETS {path} {} {end}", start + got), Phase::Range),
                (_, true) => self.say(format!("PUTS {path} {start} {end} {total}"), Phase::Offset),
            }
            return Ok(());
        }
        // Every range has moved.
        if x.queue.is_empty() && x.stripes.iter().all(|s| s.range.is_none()) {
            if !put {
                x.finish(now);
            } else if *x.fins_by.get_or_insert(i) == i {
                let ranges: Vec<String> = ranges(dialect, total)
                    .iter()
                    .map(|(s, e)| format!("{s}-{e}"))
                    .collect();
                let ranges = if ranges.is_empty() {
                    "-".to_string()
                } else {
                    ranges.join(",")
                };
                self.say(format!("FINS {path} {total} {sha} {ranges}"), Phase::Stored);
                return Ok(());
            }
        }
        x.stripes[i].slot = Slot::Parked;
        self.say("QUIT".into(), Phase::Quit);
        Ok(())
    }
}

/// One connection of one stripe, as a scheduler task.
struct StripeTask {
    xfer: Rc<RefCell<Xfer>>,
    stripe: usize,
    stream: SimStream,
    session: ClientSession,
    /// Silence until this sim time is a stall.
    deadline: u64,
}

impl Task for StripeTask {
    fn step(&mut self, cx: &TaskCx) -> Step {
        let now = cx.now();
        let xfer = Rc::clone(&self.xfer);
        let x = &mut *xfer.borrow_mut();
        let i = self.stripe;
        if x.end.is_some() && self.session.phase != Phase::Quit {
            x.stripes[i].slot = Slot::Parked;
            return Step::Done;
        }
        if now < self.session.release {
            return Step::Sleep(self.session.release);
        }
        let mut closed = false;
        let mut tmp = [0u8; 4096];
        loop {
            match self.stream.try_read(&mut tmp) {
                Ok(Some(0)) | Err(_) => {
                    closed = true;
                    break;
                }
                Ok(Some(n)) => self.session.feed(&tmp[..n]),
                Ok(None) => break,
            }
        }
        match self.session.drive(x, i, now) {
            Err(e) => {
                x.fail(e);
                return Step::Done;
            }
            Ok(true) => {
                let timeout = x.policy.timeout_for(x.stripes[i].attempt);
                self.deadline = now.max(self.session.release).saturating_add(timeout);
            }
            Ok(false) => {}
        }
        if self.session.phase != Phase::Quit && (closed || now >= self.deadline) {
            x.tear(i, now, self.session.phase != Phase::Greeting);
            return Step::Done;
        }
        if now < self.session.release {
            return Step::Sleep(self.session.release);
        }
        for f in self.session.take_output() {
            x.stripes[i].frames += 1;
            if write_frame(&mut self.stream, &f).is_err() && self.session.phase != Phase::Quit {
                x.tear(i, now, self.session.phase != Phase::Greeting);
                return Step::Done;
            }
        }
        if self.session.phase == Phase::Quit {
            return Step::Done;
        }
        Step::WaitMail {
            deadline: Some(self.deadline),
        }
    }
}

/// Run `job` over stripes of connections from `dial` (given the stripe
/// index), each a task on the scheduler bound to the connections'
/// network, until it completes, a refusal ends it, or it has torn
/// `opts.max_sessions` times.
pub(crate) fn run<E: EntropySource>(
    config: &TlsConfig,
    rng: &mut E,
    policy: RetryPolicy,
    mut dial: impl FnMut(usize) -> SimStream,
    job: Job<'_>,
    opts: StripeOpts,
) -> Result<XferOutcome, FtpError> {
    let tag = match job.dialect {
        Dialect::Resumable => "xfer",
        _ => "xfer.striped",
    };
    let (dir, moved) = match job.upload {
        None => ("get", "bytes_got"),
        Some(_) => ("put", "bytes_put"),
    };
    let mut sp = trace::span_with(&format!("{tag}.{dir}"), job.path);
    let (_, max_stripes, _) = opts.aimd.stripes();
    let mut xfer = Xfer {
        dialect: job.dialect,
        path: job.path.to_string(),
        upload: job.upload.map(<[u8]>::to_vec),
        file: job.upload.map(|data| (data.len(), hex(&sha256(data)))),
        queue: VecDeque::new(),
        parts: Vec::new(),
        stripes: (0..max_stripes).map(|_| Stripe::default()).collect(),
        fins_by: None,
        ctl: AimdController::new(opts.aimd, opts.seed),
        bucket: opts.bucket,
        policy,
        budget: opts.max_sessions,
        spent: 0,
        sessions: 0,
        tears: 0,
        peak: 0,
        end: None,
    };
    // A PUT opens its target stripe count at once; a GET learns the
    // file on stripe 0 alone.
    xfer.queue = xfer
        .file
        .as_ref()
        .map_or_else(VecDeque::new, |(t, _)| ranges(job.dialect, *t));
    xfer.stripes[0].slot = Slot::Dial(0);
    xfer.grow(0);
    let xfer = Rc::new(RefCell::new(xfer));
    // The connections' network and its scheduler, from the first dial on.
    let mut world: Option<(Network, Scheduler)> = None;
    let mut start = 0;
    while xfer.borrow().end.is_none() {
        let now = world.as_ref().map_or(0, |(_, sched)| sched.now());
        let due = xfer.borrow().due(now);
        for i in due {
            let stream = dial(i);
            if world.is_none() {
                let net = stream.endpoint().network().clone();
                let sched = Scheduler::bound_to(&net)
                    .ok_or(FtpError::Xfer("no scheduler is bound to the network"))?;
                start = sched.now();
                world = Some((net, sched));
            }
            let (_, sched) = world.as_mut().expect("bound above");
            let mut x = xfer.borrow_mut();
            x.stripes[i].slot = Slot::Live;
            x.peak = x.peak.max(x.active() as u32);
            let task = StripeTask {
                xfer: Rc::clone(&xfer),
                stripe: i,
                session: ClientSession::new(config.clone(), rng),
                deadline: sched
                    .now()
                    .saturating_add(x.policy.timeout_for(x.stripes[i].attempt)),
                stream,
            };
            sched.spawn_mailbox_id(task.stream.endpoint().id(), task);
        }
        let (net, _) = world.as_ref().expect("stripe 0 is dialed first");
        if sched::wait(net, |now| xfer.borrow().wake(now)).is_err() {
            xfer.borrow_mut()
                .fail(FtpError::Xfer("stripe engine stalled"));
        }
    }
    let mut x = xfer.borrow_mut();
    let finished = match x.end.take() {
        Some(Ok(at)) => at,
        Some(Err(e)) => {
            sp.fail(&e.to_string());
            return Err(e);
        }
        None => return Err(FtpError::Xfer("transfer ended without an outcome")),
    };
    let Some((total, sha)) = x.file.take() else {
        return Err(FtpError::Xfer("transfer ended before the file was known"));
    };
    let bytes = if job.upload.is_none() {
        let bytes = merge_ranges(total, &x.parts)?;
        if hex(&sha256(&bytes)) != sha {
            sp.fail("digest mismatch");
            return Err(FtpError::Protocol(
                "transferred data does not match server digest".to_string(),
            ));
        }
        bytes
    } else {
        Vec::new()
    };
    let secs = finished - start;
    trace::add(&format!("{tag}.{moved}"), total as u64);
    let (waits, waited) = x
        .bucket
        .as_ref()
        .map_or((0, 0), |b| (b.waits(), b.waited_secs()));
    if x.bucket.is_some() {
        trace::add("xfer.throttle.waits", waits);
        trace::add("xfer.throttle.waited_secs", waited);
    }
    Ok(XferOutcome {
        bytes,
        sha256: sha,
        sessions: x.sessions,
        tears: x.tears,
        secs,
        goodput: total as u64 / secs.max(1),
        peak_stripes: x.peak.max(1),
        decisions: x.ctl.decisions().to_vec(),
        throttle_waits: waits,
        throttle_waited_secs: waited,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poll::SessionTask;
    use crate::resume::resumable_get;
    use crate::GridFtpServer;
    use gridsec_authz::gridmap::GridMapFile;
    use gridsec_crypto::rng::ChaChaRng;
    use gridsec_pki::ca::CertificateAuthority;
    use gridsec_pki::credential::Credential;
    use gridsec_pki::name::DistinguishedName;
    use gridsec_pki::store::TrustStore;
    use gridsec_testbed::clock::SimClock;
    use gridsec_testbed::faults::CrashPlan;
    use gridsec_testbed::net::{FaultProfile, Network};
    use gridsec_testbed::os::{FileMode, SimOs};
    use gridsec_util::trace::{install, Tracer};

    fn dn(s: &str) -> DistinguishedName {
        DistinguishedName::parse(s).unwrap()
    }

    const PATH: &str = "/home/jdoe/f.dat";

    /// Jane's client config and a server on `data1` holding 1 KiB at
    /// [`PATH`]; with `rogue`, the server's credential chains to a CA
    /// Jane does not trust (the server trusts both).
    fn world(rogue: bool) -> (TlsConfig, Rc<RefCell<GridFtpServer>>, Vec<u8>) {
        let mut rng = ChaChaRng::from_seed_bytes(b"gridftp client tests");
        let ca = CertificateAuthority::create_root(&mut rng, dn("/O=G/CN=CA"), 512, 0, 1_000_000);
        let jane = ca.issue_identity(&mut rng, dn("/O=G/CN=Jane"), 512, 0, 500_000);
        let mut trust = TrustStore::new();
        trust.add_root(ca.certificate().clone());
        let mut server_trust = trust.clone();
        let issuer = if rogue {
            let rogue =
                CertificateAuthority::create_root(&mut rng, dn("/O=R/CN=CA"), 512, 0, 1_000_000);
            server_trust.add_root(rogue.certificate().clone());
            rogue
        } else {
            ca
        };
        let host: Credential = issuer.issue_host_identity(
            &mut rng,
            dn("/O=G/CN=host data1"),
            vec!["data1".into()],
            512,
            0,
            500_000,
        );
        let gridmap = GridMapFile::parse("\"/O=G/CN=Jane\" jdoe\n").unwrap();
        let server =
            GridFtpServer::new(SimOs::new(), "data1", host, server_trust, gridmap).unwrap();
        let data: Vec<u8> = (0..1024).map(|i| (i * 31 % 251) as u8).collect();
        let uid = server.os().uid_of("data1", "jdoe").unwrap();
        server
            .os()
            .write_file("data1", PATH, uid, FileMode::private(), data.clone())
            .unwrap();
        (
            TlsConfig::new(jane, trust, 100),
            Rc::new(RefCell::new(server)),
            data,
        )
    }

    /// Fetch [`PATH`] on a loss-free link that is cut from the first dial
    /// until dial `heal_at` (never, with `None`), counting the dials.
    fn fetch(
        rogue: bool,
        heal_at: Option<u64>,
        policy: RetryPolicy,
        max_sessions: u32,
    ) -> (Result<XferOutcome, FtpError>, u64, Vec<u8>) {
        let (config, server, data) = world(rogue);
        let task = SessionTask {
            server,
            dialect: Dialect::Resumable,
            now: 100,
            plan: CrashPlan::disabled(),
        };
        let net = Network::new();
        net.enable_faults(SimClock::new(), 7, FaultProfile::default());
        let mut sched = Scheduler::new(&net);
        net.partition("jane", "data1");
        let mut dials = 0u64;
        let dial = |_| {
            dials += 1;
            if heal_at == Some(dials) {
                net.heal("jane", "data1");
            }
            let (client, server) = net.connect(&format!("jane:{dials}"), &format!("data1:{dials}"));
            task.spawn(&mut sched, server, &dials.to_be_bytes());
            client
        };
        let mut rng = ChaChaRng::from_seed_bytes(b"client tests rng");
        let got = resumable_get(&config, &mut rng, policy, dial, PATH, max_sessions);
        (got, dials, data)
    }

    #[test]
    fn a_clean_link_needs_one_session() {
        let (got, dials, data) = fetch(false, Some(1), RetryPolicy::default(), 4);
        let out = got.unwrap();
        assert_eq!(out.bytes, data);
        assert_eq!((dials, out.sessions, out.tears, out.secs), (1, 1, 0, 0));
    }

    #[test]
    fn torn_handshakes_redial_after_the_policy_timeout() {
        let run = || {
            let tracer = Tracer::new();
            let _g = install(&tracer);
            let (got, dials, data) = fetch(false, Some(3), RetryPolicy::default(), 4);
            let out = got.unwrap();
            assert_eq!(out.bytes, data);
            let redials: Vec<String> = tracer
                .dump()
                .lines()
                .filter(|l| l.contains("xfer.resume"))
                .map(|l| l.rsplit(' ').next().unwrap().to_string())
                .collect();
            (out, dials, redials)
        };
        let (out, dials, redials) = run();
        // Two hellos vanish into the cut: each stalls for the policy's
        // timeout (2 s, then 4 s) and redials after as long again.
        assert_eq!((dials, out.sessions, out.tears), (3, 1, 2));
        assert_eq!(redials, ["redial+2s", "redial+4s"]);
        assert_eq!(out.secs, 2 + 2 + 4 + 4, "stalls and waits are sim time");
        assert_eq!(run(), (out, dials, redials), "same seeds, same redials");
    }

    #[test]
    fn a_dead_link_exhausts_the_budget_and_dumps_the_flight_recorder() {
        let dir = std::env::temp_dir().join(format!("gridsec-xfer-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("flight").to_string_lossy().into_owned();
        let tracer = Tracer::new();
        tracer.set_flight_path(path.clone());
        let _g = install(&tracer);
        let policy = RetryPolicy {
            max_attempts: 2,
            ..RetryPolicy::default()
        };
        // Every second torn handshake in a row spends one of 3 units.
        let (got, dials, _) = fetch(false, None, policy, 3);
        assert_eq!(
            got,
            Err(FtpError::Channel("resume budget exhausted".to_string()))
        );
        assert_eq!(dials, 6);
        let dump = std::fs::read_to_string(&path).unwrap();
        assert!(
            dump.contains("flight recorder dump: xfer resume budget exhausted"),
            "{dump}"
        );
        assert!(dump.contains("xfer.resume"), "{dump}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_security_refusal_never_redials() {
        let (got, dials, _) = fetch(true, Some(1), RetryPolicy::default(), 4);
        assert!(matches!(got, Err(FtpError::Channel(_))), "{got:?}");
        assert_eq!(dials, 1, "a refused peer is not dialed again");
    }
}
