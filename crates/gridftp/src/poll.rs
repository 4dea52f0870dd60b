//! Sans-io GridFTP server sessions: one frame-driven state machine per
//! connection, runnable as a discrete-event scheduler task.
//!
//! Every server session — classic, resumable, striped — is a
//! [`ServerSession`]: the protocol logic — handshake, grid-map
//! mapping, per-command authorization, command dispatch, restart
//! markers, stripe credit windows, kill points — lives here as a pure
//! feed-bytes-in/frames-out machine with no blocking reads. That is
//! what retired the GT2 threading exception (DESIGN.md §16): a
//! GridFTP stripe is a [`Scheduler`] task woken by the delivery of a
//! stream segment, not a spawned server thread.
//!
//! Wire parity with the threaded implementation is structural: the
//! machine emits *unframed* sealed records and the transport writes
//! each through [`write_frame`] (one length write + one payload write),
//! so every frame crosses the world's
//! [`Network`](gridsec_testbed::net::Network) as the same two
//! [`SimStream`] segments, each drawing its fate from the world's fault
//! profile.
//!
//! Failure semantics mirror process death: when the machine resolves —
//! `QUIT`, peer close, a torn write, or a fired
//! [`CrashPlan`](gridsec_testbed::faults::CrashPlan) kill point — the
//! task drops its stream, and the peer observes EOF or a reset exactly
//! as it observed a dying server thread.

use std::cell::RefCell;
use std::rc::Rc;

use gridsec_bignum::prime::EntropySource;
use gridsec_crypto::rng::ChaChaRng;
use gridsec_pki::validate::ValidatedIdentity;
use gridsec_testbed::faults::CrashPlan;
use gridsec_testbed::net::SimStream;
use gridsec_testbed::os::{FileMode, SimOs, Uid};
use gridsec_testbed::sched::{Scheduler, Step, TaskCx};
use gridsec_testbed::TestbedError;
use gridsec_tls::handshake::TlsConfig;
use gridsec_tls::records::{Accepted, RecordSession, ServerAcceptor};
use gridsec_tls::stream::write_frame;
use gridsec_tls::TlsError;

use gridsec_authz::cas::ResourceGate;
use gridsec_authz::gridmap::GridMapFile;

use crate::resume::{hex, parse_two, CHUNK};
use crate::stripe::{merge_ranges, parse_ranges, part_path};
use crate::{FtpError, GridFtpServer};

/// Which command set a [`ServerSession`] speaks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dialect {
    /// `GET`/`PUT`/`QUIT` — the classic session loop.
    Classic,
    /// `GETR`/`PUTR`/`QUIT` — restart-marker resumable transfers.
    Resumable,
    /// `SIZE`/`GETS`/`PUTS`/`FINS`/`QUIT` — striped data channels.
    Striped,
}

/// Where the session is in its protocol, between input frames.
enum Phase {
    /// TLS handshake in progress (acceptor holds the state).
    Handshake,
    /// Established and mapped; awaiting the next command frame.
    Command,
    /// Classic `PUT`: awaiting the single data frame.
    ClassicPut { path: String },
    /// Resumable `PUTR`: appending chunks to the durable staging file.
    PutrRecv {
        path: String,
        part: String,
        total: usize,
        pos: usize,
    },
    /// Striped `GETS`: serving `PULL` credit requests from `data`.
    GetsServe {
        data: Vec<u8>,
        pos: usize,
        end: usize,
    },
    /// Striped `PUTS`: inside the `SEND`-window credit loop. `window`
    /// is the chunks still owed for the current grant (0 = awaiting
    /// the next `SEND`).
    PutsRecv {
        part: String,
        start: usize,
        span: usize,
        pos: usize,
        window: usize,
    },
}

/// A sans-io GridFTP server session: feed raw transport bytes in with
/// [`feed`](ServerSession::feed), turn the crank with
/// [`drive`](ServerSession::drive), write out every frame from
/// [`take_output`](ServerSession::take_output), and stop when
/// `outcome` resolves.
pub struct ServerSession {
    dialect: Dialect,
    now: u64,
    plan: CrashPlan,
    os: SimOs,
    host: String,
    gridmap: GridMapFile,
    gate: ResourceGate,
    transfers_at_start: u64,
    acceptor: Option<ServerAcceptor>,
    session: Option<RecordSession>,
    uid: Option<Uid>,
    phase: Phase,
    out: Vec<Vec<u8>>,
    done: Option<Result<u64, FtpError>>,
    completed: u64,
}

impl ServerSession {
    /// Snapshot a server's identity, trust, grid-map, and OS handle
    /// into a fresh session machine. `plan` is consulted at the
    /// dialect's `xfer.*` kill points; pass [`CrashPlan::disabled`] for
    /// the classic dialect.
    pub fn new(server: &GridFtpServer, dialect: Dialect, now: u64, plan: CrashPlan) -> Self {
        let config = TlsConfig::new(server.credential.clone(), server.trust.clone(), now);
        ServerSession {
            dialect,
            now,
            plan,
            os: server.os.clone(),
            host: server.host.clone(),
            gridmap: server.gridmap.clone(),
            gate: server.gate.clone(),
            transfers_at_start: server.transfers,
            acceptor: Some(ServerAcceptor::new(config)),
            session: None,
            uid: None,
            phase: Phase::Handshake,
            out: Vec::new(),
            done: None,
            completed: 0,
        }
    }

    /// Buffer raw transport bytes (length-framed records, any split).
    pub fn feed(&mut self, bytes: &[u8]) {
        match (&mut self.session, &mut self.acceptor) {
            (Some(s), _) => s.feed(bytes),
            (None, Some(a)) => a.feed(bytes),
            (None, None) => {}
        }
    }

    /// Process everything buffered: run the handshake, dispatch
    /// complete commands, and queue replies. Returns when more input
    /// is needed or the session has resolved.
    pub fn drive<E: EntropySource>(&mut self, rng: &mut E) {
        loop {
            if self.done.is_some() {
                return;
            }
            if let Some(acceptor) = self.acceptor.as_mut() {
                match acceptor.advance(rng) {
                    Ok(Accepted::Pending) => return,
                    Ok(Accepted::Respond(token)) => self.out.push(token),
                    Ok(Accepted::Established(session)) => {
                        self.acceptor = None;
                        self.session = Some(*session);
                        self.prologue();
                    }
                    Err(e) => return self.fail(FtpError::channel(e)),
                }
                continue;
            }
            let msg = match self
                .session
                .as_mut()
                .expect("session exists once the acceptor is gone")
                .next_message()
            {
                Ok(Some(m)) => m,
                Ok(None) => return,
                Err(e) => {
                    self.on_record_error(e);
                    return;
                }
            };
            self.on_message(msg);
        }
    }

    /// Sealed reply frames queued since the last call. The transport
    /// must write each through [`write_frame`] — one frame per record
    /// keeps the loss layer's per-write draw schedule intact.
    pub fn take_output(&mut self) -> Vec<Vec<u8>> {
        std::mem::take(&mut self.out)
    }

    /// The session's result, once resolved: transfers served on a
    /// clean close, or the refusal/tear/kill error.
    pub(crate) fn outcome(&self) -> Option<&Result<u64, FtpError>> {
        self.done.as_ref()
    }

    /// Consume the resolved outcome.
    pub(crate) fn take_outcome(&mut self) -> Option<Result<u64, FtpError>> {
        self.done.take()
    }

    /// Transfers completed so far this session (monotonic; callers
    /// sync deltas into [`GridFtpServer::transfers`]).
    pub(crate) fn completed(&self) -> u64 {
        self.completed
    }

    /// The transport closed (EOF or reset). At a command boundary
    /// that is a normal end of session; mid-transfer it is a tear.
    pub(crate) fn on_transport_close(&mut self) {
        if self.done.is_some() {
            return;
        }
        self.done = Some(match self.phase {
            Phase::Command => Ok(self.completed),
            Phase::Handshake => Err(FtpError::Channel(
                "connection lost during handshake".to_string(),
            )),
            _ => Err(FtpError::Channel(
                "connection torn mid-transfer".to_string(),
            )),
        });
    }

    fn on_record_error(&mut self, e: TlsError) {
        self.done = Some(match self.phase {
            Phase::Command => Ok(self.completed),
            _ => Err(FtpError::channel(e)),
        });
    }

    /// The authenticated peer, once the handshake has established it.
    fn peer(&self) -> &ValidatedIdentity {
        self.session
            .as_ref()
            .expect("an established session")
            .peer()
    }

    fn uid(&self) -> Uid {
        self.uid.expect("uid is set before any command runs")
    }

    fn say(&mut self, text: &str) {
        self.say_bytes(text.as_bytes());
    }

    fn say_bytes(&mut self, payload: &[u8]) {
        let sealed = self.established().send(payload);
        self.out.push(sealed);
    }

    /// [`say_bytes`](Self::say_bytes) a payload the session owns: it is
    /// sealed in its own buffer, not copied.
    fn say_owned(&mut self, payload: Vec<u8>) {
        let sealed = self.established().send_owned(payload);
        self.out.push(sealed);
    }

    fn established(&mut self) -> &mut RecordSession {
        self.session
            .as_mut()
            .expect("replies only flow on an established session")
    }

    fn fail(&mut self, e: FtpError) {
        self.done = Some(Err(e));
    }

    fn complete_one(&mut self) {
        self.completed += 1;
    }

    fn kill(&mut self, point: &'static str) {
        self.plan.confirm_kill("gridftp", self.now);
        self.done = Some(Err(FtpError::Channel(format!("killed at {point}"))));
    }

    /// Grid-map authorization + greeting, exactly as the blocking
    /// `accept_and_map` prologue. What the peer's chain may do is the
    /// gate's to decide, per command.
    fn prologue(&mut self) {
        let base = &self.peer().base_identity;
        let Some(account) = self.gridmap.lookup(base).map(str::to_string) else {
            let refused = FtpError::NoMapping(base.to_string());
            self.say("ERR no mapping");
            return self.fail(refused);
        };
        let uid = match self.os.uid_of(&self.host, &account) {
            Ok(u) => u,
            Err(e) => return self.fail(FtpError::File(e.to_string())),
        };
        self.uid = Some(uid);
        self.say(&format!("OK mapped to {account}"));
        match self.dialect {
            Dialect::Classic => {}
            Dialect::Resumable => {
                self.plan
                    .confirm_restart("gridftp", self.now, self.transfers_at_start as usize);
            }
            Dialect::Striped => {
                self.plan.confirm_restart("gridftp", self.now, 0);
            }
        }
        self.phase = Phase::Command;
    }

    fn stat(&self, p: &str) -> Option<usize> {
        self.os.file_len(&self.host, p).ok().flatten()
    }

    /// Hex SHA-256 of `p` as the mapped user: the digest the OS keeps
    /// beside the file, so each version of a file is hashed once however
    /// often it is served.
    fn digest(&self, p: &str) -> Result<String, TestbedError> {
        self.os
            .file_digest(&self.host, p, self.uid())
            .map(|d| hex(&d))
    }

    /// Dispatch one decrypted message according to the current phase.
    fn on_message(&mut self, msg: Vec<u8>) {
        match std::mem::replace(&mut self.phase, Phase::Command) {
            Phase::Handshake => unreachable!("messages only decrypt after establishment"),
            Phase::Command => self.on_command(&msg),
            Phase::ClassicPut { path } => self.classic_put_data(&path, msg),
            Phase::PutrRecv {
                path,
                part,
                total,
                pos,
            } => self.putr_chunk(path, part, total, pos, msg),
            Phase::GetsServe { data, pos, end } => self.gets_pull(data, pos, end, &msg),
            Phase::PutsRecv {
                part,
                start,
                span,
                pos,
                window,
            } => self.puts_window(part, start, span, pos, window, msg),
        }
    }

    /// Dispatch one command frame. The gate decides every command once,
    /// on the path it names and whether it reads or writes, before any
    /// file is touched; the data records of a transfer are not asked
    /// about again. A refusal ends the session.
    fn on_command(&mut self, msg: &[u8]) {
        let text = String::from_utf8_lossy(msg).into_owned();
        if text == "QUIT" {
            self.say("BYE");
            self.done = Some(Ok(self.completed));
            return;
        }
        let Some((verb, rest)) = text.split_once(' ') else {
            return self.say("ERR unknown command");
        };
        let first = rest.split_whitespace().next().unwrap_or("");
        let (path, action) = match (self.dialect, verb) {
            (Dialect::Classic, "GET") => (rest, "read"),
            (Dialect::Classic, "PUT") => (rest, "write"),
            (Dialect::Striped, "SIZE") => (rest.trim(), "read"),
            (Dialect::Resumable, "GETR") | (Dialect::Striped, "GETS") => (first, "read"),
            (Dialect::Resumable, "PUTR") | (Dialect::Striped, "PUTS" | "FINS") => (first, "write"),
            _ => return self.say("ERR unknown command"),
        };
        if let Err(e) = self.gate.permits(self.peer(), path, action, self.now) {
            self.say(&format!("ERR {e}"));
            return self.fail(FtpError::RightsRefused(e));
        }
        match verb {
            "GET" => self.classic_get(rest),
            "PUT" => {
                self.phase = Phase::ClassicPut {
                    path: rest.to_string(),
                }
            }
            "GETR" => self.getr(rest),
            "PUTR" => self.putr(rest),
            "SIZE" => self.size(rest),
            "GETS" => self.gets(rest),
            "PUTS" => self.puts(rest),
            _ => self.fins(rest),
        }
    }

    // ---- classic -------------------------------------------------

    fn classic_get(&mut self, path: &str) {
        match self.os.read_file(&self.host, path, self.uid()) {
            Ok(data) => {
                self.say(&format!("DATA {}", data.len()));
                self.say_owned(data);
                self.complete_one();
            }
            Err(e) => self.say(&format!("ERR {e}")),
        }
    }

    fn classic_put_data(&mut self, path: &str, mut data: Vec<u8>) {
        // The record was opened in the buffer it arrived in, which grew
        // by doubling if it came in pieces: the file keeps only its bytes.
        data.shrink_to_fit();
        match self
            .os
            .write_file(&self.host, path, self.uid(), FileMode::private(), data)
        {
            Ok(()) => {
                self.say("STORED");
                self.complete_one();
            }
            Err(e) => self.say(&format!("ERR {e}")),
        }
    }

    // ---- resumable -----------------------------------------------

    fn getr(&mut self, rest: &str) {
        let (path, offset) = match parse_two(rest) {
            Some(v) => v,
            None => return self.say("ERR bad GETR arguments"),
        };
        let data = match self.os.read_file(&self.host, &path, self.uid()) {
            Ok(d) => d,
            Err(e) => return self.say(&format!("ERR {e}")),
        };
        if offset > data.len() {
            return self.say("ERR offset beyond end of file");
        }
        let digest = match self.digest(&path) {
            Ok(d) => d,
            Err(e) => return self.say(&format!("ERR {e}")),
        };
        self.say(&format!("DATA {} {offset} {digest}", data.len()));
        let mut pos = offset;
        while pos < data.len() {
            if self.plan.fires("xfer.get.chunk") {
                return self.kill("xfer.get.chunk");
            }
            let end = (pos + CHUNK).min(data.len());
            self.say_bytes(&data[pos..end]);
            pos = end;
        }
        self.complete_one();
    }

    fn putr(&mut self, rest: &str) {
        let (path, total) = match parse_two(rest) {
            Some(v) => v,
            None => return self.say("ERR bad PUTR arguments"),
        };
        let part = format!("{path}.part");
        // Resume offset from durable state: the staging file if one
        // exists, else "complete" if a previous session already
        // promoted the final file to full length.
        let staged = match (self.stat(&part), self.stat(&path)) {
            (Some(n), _) => n,
            (None, Some(n)) if n == total => total,
            _ => 0,
        };
        if staged > total {
            return self.say("ERR staged data exceeds total");
        }
        self.say(&format!("OFFSET {staged}"));
        if staged < total {
            self.phase = Phase::PutrRecv {
                path,
                part,
                total,
                pos: staged,
            };
        } else {
            self.putr_finish(&path, &part, total);
        }
    }

    fn putr_chunk(&mut self, path: String, part: String, total: usize, pos: usize, chunk: Vec<u8>) {
        if self.plan.fires("xfer.put.chunk") {
            // Received but never made durable: the dead process drops
            // it, and the client re-sends from the OFFSET the
            // restarted server reads back from the staging file.
            return self.kill("xfer.put.chunk");
        }
        if pos + chunk.len() > total {
            return self.fail(FtpError::Protocol(
                "upload overruns declared total".to_string(),
            ));
        }
        if let Err(e) =
            self.os
                .append_file(&self.host, &part, self.uid(), FileMode::private(), &chunk)
        {
            return self.fail(FtpError::File(e.to_string()));
        }
        let pos = pos + chunk.len();
        if pos < total {
            self.phase = Phase::PutrRecv {
                path,
                part,
                total,
                pos,
            };
        } else {
            self.putr_finish(&path, &part, total);
        }
    }

    /// Promote the complete staging file by renaming it over `path`
    /// (idempotent: a repeat PUTR of a finished transfer skips straight
    /// here with no staging file left), then reply with the stored
    /// digest.
    fn putr_finish(&mut self, path: &str, part: &str, total: usize) {
        if self.stat(part) == Some(total) {
            if let Err(e) = self.os.rename_file(&self.host, part, path, self.uid()) {
                return self.fail(FtpError::File(e.to_string()));
            }
        }
        match self.digest(path) {
            Ok(digest) => {
                self.say(&format!("STORED {digest}"));
                self.complete_one();
            }
            Err(e) => self.fail(FtpError::File(e.to_string())),
        }
    }

    // ---- striped -------------------------------------------------

    fn size(&mut self, rest: &str) {
        let path = rest.trim();
        match self.digest(path) {
            Ok(digest) => {
                let len = self.stat(path).expect("a file just hashed exists");
                self.say(&format!("SIZE {len} {digest}"));
            }
            Err(e) => self.say(&format!("ERR {e}")),
        }
    }

    fn gets(&mut self, rest: &str) {
        let mut it = rest.split_whitespace();
        let (path, from, end) = match (
            it.next(),
            it.next().and_then(|v| v.parse::<usize>().ok()),
            it.next().and_then(|v| v.parse::<usize>().ok()),
            it.next(),
        ) {
            (Some(p), Some(f), Some(e), None) => (p.to_string(), f, e),
            _ => return self.say("ERR bad GETS arguments"),
        };
        let data = match self.os.read_file(&self.host, &path, self.uid()) {
            Ok(d) => d,
            Err(e) => return self.say(&format!("ERR {e}")),
        };
        if from > end || end > data.len() {
            return self.say("ERR bad stripe range");
        }
        let digest = match self.digest(&path) {
            Ok(d) => d,
            Err(e) => return self.say(&format!("ERR {e}")),
        };
        self.say(&format!("RANGE {} {digest}", data.len()));
        if from < end {
            self.phase = Phase::GetsServe {
                data,
                pos: from,
                end,
            };
        } else {
            self.complete_one();
        }
    }

    fn gets_pull(&mut self, data: Vec<u8>, pos: usize, end: usize, msg: &[u8]) {
        let text = String::from_utf8_lossy(msg).into_owned();
        let n = match text
            .strip_prefix("PULL ")
            .and_then(|v| v.parse::<usize>().ok())
        {
            Some(n) if n > 0 => n,
            // Transfer abandoned: back to the command loop, uncounted.
            _ => return self.say("ERR expected PULL"),
        };
        let mut pos = pos;
        for _ in 0..n {
            if pos >= end {
                break;
            }
            if self.plan.fires("xfer.stripe.get.chunk") {
                return self.kill("xfer.stripe.get.chunk");
            }
            let to = (pos + CHUNK).min(end);
            self.say_bytes(&data[pos..to]);
            pos = to;
        }
        if pos >= end {
            self.complete_one();
        } else {
            self.phase = Phase::GetsServe { data, pos, end };
        }
    }

    fn puts(&mut self, rest: &str) {
        let mut it = rest.split_whitespace();
        let parsed = (
            it.next(),
            it.next().and_then(|v| v.parse::<usize>().ok()),
            it.next().and_then(|v| v.parse::<usize>().ok()),
            it.next().and_then(|v| v.parse::<usize>().ok()),
            it.next(),
        );
        let (path, start, end, total) = match parsed {
            (Some(p), Some(s), Some(e), Some(t), None) if s <= e && e <= t => {
                (p.to_string(), s, e, t)
            }
            _ => return self.say("ERR bad PUTS arguments"),
        };
        let part = part_path(&path, start, end);
        let span = end - start;
        // Resume offset from durable state: this range's staging
        // file, or "complete" if the whole file was already promoted
        // by an earlier FINS.
        let staged = match (self.stat(&part), self.stat(&path)) {
            (Some(n), _) => n.min(span),
            (None, Some(n)) if n == total => span,
            _ => 0,
        };
        self.say(&format!("OFFSET {}", start + staged));
        if staged < span {
            self.phase = Phase::PutsRecv {
                part,
                start,
                span,
                pos: staged,
                window: 0,
            };
        } else {
            self.complete_one();
        }
    }

    fn puts_window(
        &mut self,
        part: String,
        start: usize,
        span: usize,
        pos: usize,
        window: usize,
        msg: Vec<u8>,
    ) {
        if window == 0 {
            let text = String::from_utf8_lossy(&msg).into_owned();
            let n = match text
                .strip_prefix("SEND ")
                .and_then(|v| v.parse::<usize>().ok())
            {
                Some(n) if n > 0 => n,
                // Transfer abandoned: back to the command loop.
                _ => return self.say("ERR expected SEND"),
            };
            self.phase = Phase::PutsRecv {
                part,
                start,
                span,
                pos,
                window: n,
            };
            return;
        }
        if self.plan.fires("xfer.stripe.put.chunk") {
            // Received but never made durable: the client re-sends
            // from the OFFSET the restarted server reads back from
            // this range's staging file.
            return self.kill("xfer.stripe.put.chunk");
        }
        if pos + msg.len() > span {
            return self.fail(FtpError::Protocol(
                "stripe upload overruns its range".to_string(),
            ));
        }
        if let Err(e) =
            self.os
                .append_file(&self.host, &part, self.uid(), FileMode::private(), &msg)
        {
            return self.fail(FtpError::File(e.to_string()));
        }
        let pos = pos + msg.len();
        let window = window - 1;
        if window == 0 || pos >= span {
            self.say(&format!("ACK {}", start + pos));
            if pos >= span {
                self.complete_one();
            } else {
                self.phase = Phase::PutsRecv {
                    part,
                    start,
                    span,
                    pos,
                    window: 0,
                };
            }
        } else {
            self.phase = Phase::PutsRecv {
                part,
                start,
                span,
                pos,
                window,
            };
        }
    }

    fn fins(&mut self, rest: &str) {
        let mut it = rest.split_whitespace();
        let parsed = (
            it.next(),
            it.next().and_then(|v| v.parse::<usize>().ok()),
            it.next(),
            it.next(),
            it.next(),
        );
        let (path, total, sha, ranges_field) = match parsed {
            (Some(p), Some(t), Some(s), Some(r), None) => {
                (p.to_string(), t, s.to_string(), r.to_string())
            }
            _ => return self.say("ERR bad FINS arguments"),
        };
        let ranges = match parse_ranges(&ranges_field) {
            Some(r) => r,
            None => return self.say("ERR bad FINS ranges"),
        };
        // Idempotent short-circuit: a merge that crashed after the
        // promote (or a lost STORED reply) retries into this arm.
        if self.stat(&path) == Some(total) {
            let digest = match self.digest(&path) {
                Ok(d) => d,
                Err(e) => return self.fail(FtpError::File(e.to_string())),
            };
            if digest == sha {
                for (s, e) in &ranges {
                    let _ = self
                        .os
                        .remove_file(&self.host, &part_path(&path, *s, *e), self.uid());
                }
                self.say(&format!("STORED {sha}"));
                self.complete_one();
                return;
            }
        }
        let mut parts: Vec<(usize, Vec<u8>)> = Vec::new();
        let mut bad: Option<String> = None;
        for (s, e) in &ranges {
            match self
                .os
                .read_file(&self.host, &part_path(&path, *s, *e), self.uid())
            {
                Ok(d) if d.len() == e - s => parts.push((*s, d)),
                Ok(d) => {
                    bad = Some(format!(
                        "stripe part {s}-{e} has {} of {} bytes",
                        d.len(),
                        e - s
                    ));
                    break;
                }
                Err(err) => {
                    bad = Some(format!("stripe part {s}-{e}: {err}"));
                    break;
                }
            }
        }
        if let Some(msg) = bad {
            return self.say(&format!("ERR {msg}"));
        }
        let merged = match merge_ranges(total, &parts) {
            Ok(m) => m,
            Err(e) => return self.say(&format!("ERR {e}")),
        };
        // Assemble beside the target, check the client's digest there,
        // and promote by rename: a file that does not match never
        // replaces what `path` holds. A staging file left by a killed
        // merge is the user's to replace; anyone else's is refused.
        let staged = format!("{path}.merge");
        match self.os.remove_file(&self.host, &staged, self.uid()) {
            Ok(()) | Err(TestbedError::NoSuchFile(_)) => {}
            Err(e) => return self.fail(FtpError::File(e.to_string())),
        }
        if let Err(e) =
            self.os
                .write_file(&self.host, &staged, self.uid(), FileMode::private(), merged)
        {
            return self.fail(FtpError::File(e.to_string()));
        }
        // Every way out short of the rename takes the staging file with
        // it, except the kill: a crash leaves it for the retry.
        let unstage = |s: &Self| {
            let _ = s.os.remove_file(&s.host, &staged, s.uid());
        };
        match self.digest(&staged) {
            Ok(digest) if digest == sha => {}
            Ok(_) => {
                unstage(self);
                return self.say("ERR assembled file does not match client digest");
            }
            Err(e) => {
                unstage(self);
                return self.fail(FtpError::File(e.to_string()));
            }
        }
        if self.plan.fires("xfer.stripe.merge") {
            // Parts and the staged file are still durable; the retried
            // FINS merges again.
            return self.kill("xfer.stripe.merge");
        }
        if let Err(e) = self.os.rename_file(&self.host, &staged, &path, self.uid()) {
            unstage(self);
            return self.fail(FtpError::File(e.to_string()));
        }
        for (s, e) in &ranges {
            let _ = self
                .os
                .remove_file(&self.host, &part_path(&path, *s, *e), self.uid());
        }
        self.say(&format!("STORED {sha}"));
        self.complete_one();
    }
}

/// Spawns [`ServerSession`]s as scheduler tasks, one per dialed
/// connection.
pub struct SessionTask {
    /// The server every spawned session serves, shared with the scenario
    /// that built it. Each session adds its completed transfers to the
    /// server's [`transfers`](GridFtpServer::transfers) counter, which the
    /// scenario reads after the run.
    pub server: Rc<RefCell<GridFtpServer>>,
    /// Command set for spawned sessions.
    pub dialect: Dialect,
    /// Validation time handed to each session's `TlsConfig`.
    pub now: u64,
    /// Kill-point plan shared by every spawned session.
    pub plan: CrashPlan,
}

impl SessionTask {
    /// Spawn one server session over `stream` as a task on `sched` (the
    /// scheduler bound to the stream's network), under the stream's
    /// endpoint, so every segment delivered to it wakes the session.
    /// Returns a cell that receives the session outcome when it
    /// resolves (the value `serve_*` would have returned from a thread).
    pub fn spawn(
        &self,
        sched: &mut Scheduler,
        stream: SimStream,
        rng_seed: &[u8],
    ) -> Rc<RefCell<Option<Result<u64, FtpError>>>> {
        let outcome = Rc::new(RefCell::new(None));
        let sink = Rc::clone(&outcome);
        let mut machine = ServerSession::new(
            &self.server.borrow(),
            self.dialect,
            self.now,
            self.plan.clone(),
        );
        let mut rng = ChaChaRng::from_seed_bytes(rng_seed);
        let server = Rc::clone(&self.server);
        let mut synced = 0u64;
        let mailbox = stream.endpoint().id();
        let mut stream = Some(stream);
        sched.spawn_mailbox_id(mailbox, move |_cx: &TaskCx| {
            let s = match stream.as_mut() {
                Some(s) => s,
                None => return Step::Done,
            };
            let mut closed = false;
            let mut tmp = [0u8; 4096];
            loop {
                match s.try_read(&mut tmp) {
                    Ok(Some(0)) | Err(_) => {
                        closed = true;
                        break;
                    }
                    Ok(Some(n)) => machine.feed(&tmp[..n]),
                    Ok(None) => break,
                }
            }
            machine.drive(&mut rng);
            if closed {
                machine.on_transport_close();
            }
            let mut write_failed = false;
            for f in machine.take_output() {
                if write_frame(s, &f).is_err() {
                    write_failed = true;
                    break;
                }
            }
            let completed = machine.completed();
            if completed > synced {
                server.borrow_mut().transfers += completed - synced;
                synced = completed;
            }
            if machine.outcome().is_some() || write_failed {
                let out = machine
                    .take_outcome()
                    .unwrap_or_else(|| Err(FtpError::Channel("connection torn".to_string())));
                *sink.borrow_mut() = Some(out);
                // Dropping the stream is the task's process death:
                // the peer sees EOF exactly as it saw a dead thread.
                stream = None;
                return Step::Done;
            }
            Step::WaitMail { deadline: None }
        });
        outcome
    }
}
