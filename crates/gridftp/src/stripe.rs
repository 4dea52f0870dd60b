//! Striped, congestion-controlled transfers (`GETS`/`PUTS`/`FINS`).
//!
//! Real GridFTP recovers goodput on lossy WAN links by striping one
//! file across several parallel TCP streams and adapting window size
//! and parallelism to observed loss. This module reproduces that on
//! the simulated testbed: a transfer is split into fixed-span tasks,
//! each task moves over one of N data channels — connections over the
//! world's network, whose fault profile tears them — and an
//! `AimdController` adapts the pull window and the target stripe
//! count from each stripe's observed loss, counted by the engine itself:
//! its torn connections over the frames it has moved.
//!
//! Protocol (per data channel, after the usual secure prologue):
//!
//! * `SIZE <path>` → `SIZE <total> <sha256>` — learn length + digest.
//! * `GETS <path> <from> <end>` → `RANGE <total> <sha256>`, then a
//!   credit loop: `PULL <n>` → up to `n` ≤[`CHUNK`]-byte records.
//!   Every delivered chunk is a per-stripe restart marker.
//! * `PUTS <path> <start> <end> <total>` → `OFFSET <abs>` read back
//!   from the durable `<path>.part.<start>-<end>` staging file, then a
//!   credit loop: `SEND <n>` + `n` chunks → `ACK <abs>`. Chunks are
//!   appended durably before they are acknowledged.
//! * `FINS <path> <total> <sha256> <ranges>` → `STORED <sha256>` —
//!   merge the completed range parts ([`merge_ranges`]), verify the
//!   digest, promote to the final path, and drop the staging files.
//!   Idempotent: repeating `FINS` after a merge-time crash succeeds
//!   from either the surviving parts or the already-promoted file.
//!
//! Kill points `xfer.stripe.get.chunk`, `xfer.stripe.put.chunk` and
//! `xfer.stripe.merge` let a [`CrashPlan`] kill the serving process
//! mid-stripe; recovery always restarts from durable state, so the
//! transferred bytes are SHA-256-equal across any crash window.
//!
//! **Time is simulated ticks, not wall clock.** Both directions run
//! through one client engine: a single-threaded event loop over
//! per-stripe timelines, charging fixed tick costs (1 per chunk, 2 per
//! round trip, 8 per handshake attempt), with an optional shared
//! [`TokenBucket`] capping aggregate bytes per tick. Because only one
//! stripe exchange is in flight at a time, every `CrashPlan` draw and
//! every fault-layer draw on a segment is causally ordered by the
//! client loop — goodput, tears, and the controller's decision log are
//! pure functions of the seeds, which is what lets CI byte-compare two
//! runs of the striped chaos scenario.
//!
//! [`CrashPlan`]: gridsec_testbed::faults::CrashPlan

use std::collections::VecDeque;
use std::io::{Read, Write};

use gridsec_bignum::prime::EntropySource;
use gridsec_crypto::sha256::sha256;
use gridsec_tls::handshake::TlsConfig;
use gridsec_tls::retry::connect_with_retry;
use gridsec_tls::stream::SecureStream;
use gridsec_tls::TlsError;
use gridsec_util::retry::RetryPolicy;
use gridsec_util::throttle::TokenBucket;
use gridsec_util::trace::{self, SpanGuard};

use crate::congestion::{AimdConfig, AimdController};
use crate::resume::{greet, hex, parse_field, recv_text, tls_err, SessionErr, CHUNK};
use crate::FtpError;

/// Ticks to move one ≤[`CHUNK`]-byte record over one stripe link.
const CHUNK_TICKS: u64 = 1;
/// Ticks for one control round trip (header, credit, ack).
const RTT_TICKS: u64 = 2;
/// Ticks per secure-handshake attempt when (re)dialing a stripe.
const HANDSHAKE_TICKS: u64 = 8;
/// Bytes per work-queue task.
const TASK_SPAN: usize = 4 * CHUNK;
/// Frames a dial moves before the engine's first: ClientHello,
/// ServerHello, Finished and the greeting.
const DIAL_FRAMES: u64 = 4;

/// Knobs for a striped transfer.
#[derive(Clone, Debug)]
pub struct StripeOpts {
    /// Fatal-error budget: total tears (redials) the transfer may survive.
    pub max_sessions: u32,
    /// Stripe count: adaptive (the default) or pinned.
    pub aimd: AimdConfig,
    /// Optional shared bandwidth cap (bytes per tick) across all stripes.
    pub bucket: Option<TokenBucket>,
    /// Replay seed for the controller's probabilistic moves.
    pub seed: u64,
}

impl Default for StripeOpts {
    fn default() -> Self {
        StripeOpts {
            max_sessions: 64,
            aimd: AimdConfig::default(),
            bucket: None,
            seed: 0,
        }
    }
}

/// Outcome of a completed striped transfer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StripedOutcome {
    /// Fetched bytes (GET) — empty for PUT.
    pub bytes: Vec<u8>,
    /// Hex SHA-256 of the transferred file, verified end to end.
    pub sha256: String,
    /// Secure sessions established across all stripes (≥ 1).
    pub sessions: u32,
    /// Torn connections survived (each cost a redial).
    pub tears: u32,
    /// Simulated ticks from start to last byte (and final ack).
    pub ticks: u64,
    /// Goodput in bytes per 1000 ticks.
    pub goodput_bpkt: u64,
    /// High-water mark of concurrently active stripes.
    pub peak_stripes: u32,
    /// The congestion controller's decision log (seed-deterministic).
    pub decisions: Vec<String>,
    /// Chunk grants the shared token bucket delayed.
    pub throttle_waits: u64,
    /// Total ticks of bucket-imposed waiting.
    pub throttle_waited_ticks: u64,
}

/// Durable staging path for one stripe range of `path`.
pub fn part_path(path: &str, start: usize, end: usize) -> String {
    format!("{path}.part.{start}-{end}")
}

/// Reassemble a file of `total` bytes from completed `(start, bytes)`
/// stripe ranges. Pure: any permutation of an exact tiling of
/// `[0, total)` yields byte-identical output; gaps and overlaps are
/// errors.
pub fn merge_ranges(total: usize, parts: &[(usize, Vec<u8>)]) -> Result<Vec<u8>, FtpError> {
    let mut order: Vec<usize> = (0..parts.len()).collect();
    order.sort_by_key(|&i| parts[i].0);
    let mut out: Vec<u8> = Vec::with_capacity(total);
    for i in order {
        let (start, data) = &parts[i];
        if *start != out.len() {
            return Err(FtpError::Protocol(format!(
                "stripe ranges do not tile: expected offset {}, got {start}",
                out.len()
            )));
        }
        out.extend_from_slice(data);
    }
    if out.len() != total {
        return Err(FtpError::Protocol(format!(
            "stripe ranges cover {} of {total} bytes",
            out.len()
        )));
    }
    Ok(out)
}

/// `"0-1024,1024-2048"` → pairs; `"-"` → no ranges (empty file).
pub(crate) fn parse_ranges(field: &str) -> Option<Vec<(usize, usize)>> {
    if field == "-" {
        return Some(Vec::new());
    }
    let mut out = Vec::new();
    for piece in field.split(',') {
        let (s, e) = piece.split_once('-')?;
        let s: usize = s.parse().ok()?;
        let e: usize = e.parse().ok()?;
        if s > e {
            return None;
        }
        out.push((s, e));
    }
    Some(out)
}

/// The work queue for a file of `total` bytes: consecutive
/// [`TASK_SPAN`]-byte ranges.
fn tasks(total: usize) -> VecDeque<(usize, usize)> {
    (0..total)
        .step_by(TASK_SPAN)
        .map(|start| (start, (start + TASK_SPAN).min(total)))
        .collect()
}

/// One stripe's slot in the client engine.
struct Slot<S: Read + Write> {
    stream: Option<SecureStream<S>>,
    /// Frames this stripe has moved: [`DIAL_FRAMES`] per established
    /// dial, then every frame written or read.
    frames: u64,
    /// This stripe's established connections that tore.
    torn: u64,
    task: Option<Task>,
    header_done: bool,
    ready_at: u64,
    active: bool,
}

struct Task {
    start: usize,
    end: usize,
    got: usize,
    buf: Vec<u8>,
}

impl<S: Read + Write> Slot<S> {
    fn new() -> Self {
        Slot {
            stream: None,
            frames: 0,
            torn: 0,
            task: None,
            header_done: false,
            ready_at: 0,
            active: false,
        }
    }

    /// The stripe's observed loss in permille: torn connections per
    /// frame moved, over the whole transfer so far.
    fn loss_permille(&self) -> u64 {
        self.torn * 1000 / self.frames.max(1)
    }
}

/// The active slot whose timeline is furthest behind (ties broken by
/// index) — the engine always advances that one next, which is what
/// makes the interleaving deterministic.
fn pick_slot<S: Read + Write>(slots: &[Slot<S>]) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (i, s) in slots.iter().enumerate() {
        if !s.active {
            continue;
        }
        match best {
            Some(b) if (slots[b].ready_at, b) <= (s.ready_at, i) => {}
            _ => best = Some(i),
        }
    }
    best
}

fn active_count<S: Read + Write>(slots: &[Slot<S>]) -> usize {
    slots.iter().filter(|s| s.active).count()
}

/// Activate parked slots until `target` stripes run (only while tasks
/// remain to hand them).
fn grow_slots<S: Read + Write>(slots: &mut [Slot<S>], target: u32, pending: usize, t: u64) {
    if pending == 0 {
        return;
    }
    let mut active = active_count(slots);
    for s in slots.iter_mut() {
        if active >= target as usize {
            break;
        }
        if !s.active {
            s.active = true;
            s.ready_at = t;
            active += 1;
        }
    }
}

/// Tear bookkeeping: report to the controller with the stripe's
/// observed loss rate, reset the slot for a redial one RTT later.
fn note_tear<S: Read + Write>(
    slot: &mut Slot<S>,
    si: usize,
    ctl: &mut AimdController,
    tears: &mut u32,
    t: u64,
) {
    *tears += 1;
    slot.torn += 1;
    ctl.on_tear(si, slot.loss_permille(), t);
    slot.stream = None;
    slot.header_done = false;
    slot.ready_at = t + RTT_TICKS;
}

/// Close a stripe's channel (best-effort `QUIT`) and park the slot.
fn retire_slot<S: Read + Write>(slot: &mut Slot<S>, t: u64) {
    if let Some(mut s) = slot.stream.take() {
        let _ = s.send(b"QUIT");
        let _ = s.recv();
    }
    slot.header_done = false;
    slot.active = false;
    slot.ready_at = t;
}

/// `t` after one chunk of `len` bytes: any wait the shared bucket
/// imposes, then the chunk's own ticks.
fn after_chunk(bucket: &mut Option<TokenBucket>, t: u64, len: usize) -> u64 {
    bucket.as_mut().map_or(t, |b| b.take_at(t, len as u64)) + CHUNK_TICKS
}

/// Fail the transfer once it has survived `max_sessions` tears.
fn check_budget(sp: &mut SpanGuard, tears: u32, max_sessions: u32) -> Result<(), FtpError> {
    if tears < max_sessions {
        return Ok(());
    }
    sp.fail("striped resume budget exhausted");
    Err(FtpError::Channel(
        "striped resume budget exhausted".to_string(),
    ))
}

/// Mark the transfer's span failed with `e`, and hand `e` back.
fn failed(sp: &mut SpanGuard, e: FtpError) -> FtpError {
    sp.fail(&e.to_string());
    e
}

/// Dial + handshake + greeting for one stripe. Returns the secured
/// stream and the handshake attempts made.
fn dial_slot<S, E, D>(
    config: &TlsConfig,
    rng: &mut E,
    policy: RetryPolicy,
    dial: &mut D,
    slot: usize,
) -> Result<(SecureStream<S>, u32), SessionErr>
where
    S: Read + Write,
    E: EntropySource,
    D: FnMut(usize, u32) -> Result<S, TlsError>,
{
    match connect_with_retry(config, rng, policy, |attempt| dial(slot, attempt)) {
        Ok((mut stream, cstats)) => {
            greet(&mut stream)?;
            Ok((stream, cstats.attempts))
        }
        Err(e) => Err(tls_err(e)),
    }
}

fn fetch_size<S: Read + Write>(
    stream: &mut SecureStream<S>,
    path: &str,
) -> Result<(usize, String), SessionErr> {
    stream
        .send(format!("SIZE {path}").as_bytes())
        .map_err(tls_err)?;
    let reply = recv_text(stream)?;
    let rest = match reply.strip_prefix("SIZE ") {
        Some(r) => r.to_string(),
        None => return Err(SessionErr::Fatal(FtpError::File(reply))),
    };
    let mut it = rest.split_whitespace();
    let len: usize = parse_field(it.next())?;
    let sha = it
        .next()
        .ok_or_else(|| SessionErr::Fatal(FtpError::Protocol("bad SIZE reply".to_string())))?
        .to_string();
    Ok((len, sha))
}

fn gets_header<S: Read + Write>(
    stream: &mut SecureStream<S>,
    path: &str,
    from: usize,
    end: usize,
    total: usize,
    sha: &str,
) -> Result<(), SessionErr> {
    stream
        .send(format!("GETS {path} {from} {end}").as_bytes())
        .map_err(tls_err)?;
    let reply = recv_text(stream)?;
    let rest = match reply.strip_prefix("RANGE ") {
        Some(r) => r.to_string(),
        None => return Err(SessionErr::Fatal(FtpError::File(reply))),
    };
    let mut it = rest.split_whitespace();
    let len: usize = parse_field(it.next())?;
    let got_sha = it
        .next()
        .ok_or_else(|| SessionErr::Fatal(FtpError::Protocol("bad RANGE reply".to_string())))?;
    if len != total || got_sha != sha {
        return Err(SessionErr::Fatal(FtpError::Protocol(
            "file changed between stripe sessions".to_string(),
        )));
    }
    Ok(())
}

fn puts_header<S: Read + Write>(
    stream: &mut SecureStream<S>,
    path: &str,
    start: usize,
    end: usize,
    total: usize,
) -> Result<usize, SessionErr> {
    stream
        .send(format!("PUTS {path} {start} {end} {total}").as_bytes())
        .map_err(tls_err)?;
    let reply = recv_text(stream)?;
    let abs: usize = match reply.strip_prefix("OFFSET ") {
        Some(n) => parse_field(Some(n))?,
        None => return Err(SessionErr::Fatal(FtpError::File(reply))),
    };
    if abs < start || abs > end {
        return Err(SessionErr::Fatal(FtpError::Protocol(
            "server stripe offset out of range".to_string(),
        )));
    }
    Ok(abs)
}

fn fins_once<S: Read + Write>(
    stream: &mut SecureStream<S>,
    path: &str,
    total: usize,
    sha: &str,
    ranges: &str,
) -> Result<String, SessionErr> {
    stream
        .send(format!("FINS {path} {total} {sha} {ranges}").as_bytes())
        .map_err(tls_err)?;
    let reply = recv_text(stream)?;
    match reply.strip_prefix("STORED ") {
        Some(s) => Ok(s.to_string()),
        None => Err(SessionErr::Fatal(FtpError::File(reply))),
    }
}

/// Fetch `path` over adaptively many striped channels. `dial` produces
/// a fresh raw stream for `(slot, attempt)`.
pub fn striped_get<S, E, D>(
    config: &TlsConfig,
    rng: &mut E,
    policy: RetryPolicy,
    dial: D,
    path: &str,
    opts: StripeOpts,
) -> Result<StripedOutcome, FtpError>
where
    S: Read + Write,
    E: EntropySource,
    D: FnMut(usize, u32) -> Result<S, TlsError>,
{
    run_stripes(config, rng, policy, dial, path, None, opts)
}

/// Store `data` at `path` over adaptively many striped channels. Each
/// stripe range stages into its own durable part file; a final `FINS`
/// merges, verifies, and promotes (surviving any merge-time crash).
pub fn striped_put<S, E, D>(
    config: &TlsConfig,
    rng: &mut E,
    policy: RetryPolicy,
    dial: D,
    path: &str,
    data: &[u8],
    opts: StripeOpts,
) -> Result<StripedOutcome, FtpError>
where
    S: Read + Write,
    E: EntropySource,
    D: FnMut(usize, u32) -> Result<S, TlsError>,
{
    run_stripes(config, rng, policy, dial, path, Some(data), opts)
}

/// The stripe engine both directions run through; `upload` is the file
/// a PUT stores, `None` fetches `path`. Each turn advances the stripe
/// furthest behind by one exchange: claim a task, (re)dial, open the
/// range, or move one window. Only those exchanges differ by direction —
/// a GET first learns the size and digest on slot 0, opens ranges with
/// `GETS` and pulls windows; a PUT opens them with `PUTS` (a range
/// already durable needs no window) and sends windows against `ACK`s.
/// At the end a GET merges and checks the digest, a PUT asks the
/// server to do both with `FINS`.
fn run_stripes<S, E, D>(
    config: &TlsConfig,
    rng: &mut E,
    policy: RetryPolicy,
    mut dial: D,
    path: &str,
    upload: Option<&[u8]>,
    opts: StripeOpts,
) -> Result<StripedOutcome, FtpError>
where
    S: Read + Write,
    E: EntropySource,
    D: FnMut(usize, u32) -> Result<S, TlsError>,
{
    let (span, bytes_counter) = match upload {
        None => ("xfer.striped.get", "xfer.striped.bytes_got"),
        Some(_) => ("xfer.striped.put", "xfer.striped.bytes_put"),
    };
    let mut sp = trace::span_with(span, path);
    let mut ctl = AimdController::new(opts.aimd, opts.seed);
    let mut bucket = opts.bucket;
    let (_, max_stripes, _) = opts.aimd.stripes();
    let mut slots: Vec<Slot<S>> = (0..max_stripes).map(|_| Slot::new()).collect();
    // The file's length and digest: a PUT knows both and opens its
    // target stripe count at once; a GET learns them on slot 0 alone.
    let mut file = upload.map(|data| (data.len(), hex(&sha256(data))));
    let mut queue = tasks(upload.map_or(0, |data| data.len()));
    slots[0].active = file.is_none();
    grow_slots(&mut slots, ctl.target_stripes(), queue.len(), 0);
    let mut peak = active_count(&slots) as u32;
    let mut parts: Vec<(usize, Vec<u8>)> = Vec::new();
    let mut sessions = 0u32;
    let mut tears = 0u32;

    while let Some(si) = pick_slot(&slots) {
        let mut t = slots[si].ready_at;
        check_budget(&mut sp, tears, opts.max_sessions)?;
        // Task management needs no connection; do it before dialing so
        // a shed or drained stripe never wastes a handshake.
        if file.is_some() && slots[si].task.is_none() {
            let shed = active_count(&slots) > ctl.target_stripes() as usize;
            let next = if shed { None } else { queue.pop_front() };
            let Some((start, end)) = next else {
                retire_slot(&mut slots[si], t + RTT_TICKS);
                continue;
            };
            slots[si].task = Some(Task {
                start,
                end,
                got: 0,
                buf: Vec::new(),
            });
            slots[si].header_done = false;
        }
        let slot = &mut slots[si];
        let Some(stream) = slot.stream.as_mut() else {
            match dial_slot(config, rng, policy, &mut dial, si) {
                Ok((stream, attempts)) => {
                    t += u64::from(attempts) * HANDSHAKE_TICKS + RTT_TICKS;
                    sessions += 1;
                    slot.stream = Some(stream);
                    slot.frames += DIAL_FRAMES;
                }
                Err(SessionErr::Torn) => {
                    t += HANDSHAKE_TICKS + RTT_TICKS;
                    tears += 1;
                }
                Err(SessionErr::Fatal(e)) => return Err(failed(&mut sp, e)),
            }
            slot.ready_at = t;
            continue;
        };
        // With the range open, this exchange moves one window.
        let window = file.is_some() && slot.header_done;
        let step = if let Some((total, sha)) = &file {
            let Some(task) = slot.task.as_mut() else {
                sp.fail("stripe task lost mid-claim");
                return Err(FtpError::Xfer("stripe task lost mid-claim"));
            };
            if !window {
                slot.frames += 1;
                let opened = match upload {
                    None => gets_header(stream, path, task.start + task.got, task.end, *total, sha),
                    Some(_) => puts_header(stream, path, task.start, task.end, *total)
                        .map(|abs| task.got = abs - task.start),
                };
                if opened.is_ok() {
                    t += RTT_TICKS;
                    slot.frames += 1;
                    slot.header_done = true;
                }
                opened
            } else {
                let remaining = (task.end - task.start) - task.got;
                let n = remaining.div_ceil(CHUNK).min(ctl.window() as usize).max(1);
                match upload {
                    // Pull one window: the credit costs a round trip,
                    // then each chunk its own ticks.
                    None => 'pull: {
                        slot.frames += 1;
                        if stream.send(format!("PULL {n}").as_bytes()).is_err() {
                            break 'pull Err(SessionErr::Torn);
                        }
                        t += RTT_TICKS;
                        for _ in 0..n {
                            let Ok(chunk) = stream.recv() else {
                                break 'pull Err(SessionErr::Torn);
                            };
                            if task.got + chunk.len() > task.end - task.start {
                                sp.fail("stripe overrun");
                                return Err(FtpError::Protocol(
                                    "stripe download overruns its range".to_string(),
                                ));
                            }
                            task.buf.extend_from_slice(&chunk);
                            task.got += chunk.len();
                            slot.frames += 1;
                            t = after_chunk(&mut bucket, t, chunk.len());
                        }
                        Ok(())
                    }
                    // Send one window, then the ack's round trip.
                    Some(data) => 'send: {
                        slot.frames += 1;
                        if stream.send(format!("SEND {n}").as_bytes()).is_err() {
                            break 'send Err(SessionErr::Torn);
                        }
                        for _ in 0..n {
                            let from = task.start + task.got;
                            let to = (from + CHUNK).min(task.end);
                            t = after_chunk(&mut bucket, t, to - from);
                            slot.frames += 1;
                            if stream.send(&data[from..to]).is_err() {
                                break 'send Err(SessionErr::Torn);
                            }
                            task.got = to - task.start;
                        }
                        let Ok(msg) = stream.recv() else {
                            break 'send Err(SessionErr::Torn);
                        };
                        let text = String::from_utf8_lossy(&msg).into_owned();
                        match text
                            .strip_prefix("ACK ")
                            .and_then(|v| v.parse::<usize>().ok())
                        {
                            Some(abs) if abs >= task.start && abs <= task.end => {
                                t += RTT_TICKS;
                                slot.frames += 1;
                                task.got = abs - task.start;
                                Ok(())
                            }
                            _ => Err(SessionErr::Fatal(FtpError::File(text))),
                        }
                    }
                }
            }
        } else {
            slot.frames += 1;
            fetch_size(stream, path).map(|(len, sha)| {
                t += RTT_TICKS;
                slot.frames += 1;
                queue = tasks(len);
                file = Some((len, sha));
            })
        };
        match step {
            Ok(()) => {}
            Err(SessionErr::Torn) => {
                note_tear(slot, si, &mut ctl, &mut tears, t);
                continue;
            }
            Err(SessionErr::Fatal(e)) => return Err(failed(&mut sp, e)),
        }
        if window {
            ctl.on_clean_round(si, t);
        }
        // A finished range leaves its slot free for the next claim (a
        // PUT range the server already holds finishes at its header).
        if let Some(task) = slot.task.take_if(|task| task.got == task.end - task.start) {
            if upload.is_none() {
                parts.push((task.start, task.buf));
            }
        }
        slot.ready_at = t;
        grow_slots(&mut slots, ctl.target_stripes(), queue.len(), t);
        peak = peak.max(active_count(&slots) as u32);
    }

    let Some((total, sha)) = file else {
        sp.fail("size never learned");
        return Err(FtpError::Channel(
            "striped transfer ended before size was learned".to_string(),
        ));
    };
    let mut t = slots.iter().map(|s| s.ready_at).max().unwrap_or(0);
    let bytes = match upload {
        None => {
            let bytes = merge_ranges(total, &parts)?;
            if hex(&sha256(&bytes)) != sha {
                sp.fail("digest mismatch");
                return Err(FtpError::Protocol(
                    "transferred data does not match server digest".to_string(),
                ));
            }
            bytes
        }
        // Every range is durable server-side; merge + promote via FINS
        // on a fresh control channel, retrying across tears and merge
        // kills.
        Some(_) => {
            let ranges: Vec<String> = tasks(total)
                .iter()
                .map(|(s, e)| format!("{s}-{e}"))
                .collect();
            let ranges = if ranges.is_empty() {
                "-".to_string()
            } else {
                ranges.join(",")
            };
            loop {
                check_budget(&mut sp, tears, opts.max_sessions)?;
                // Slot 0: the dialers seed each stream by its slot.
                let mut stream = match dial_slot(config, rng, policy, &mut dial, 0) {
                    Ok((stream, attempts)) => {
                        t += u64::from(attempts) * HANDSHAKE_TICKS + RTT_TICKS;
                        sessions += 1;
                        stream
                    }
                    Err(SessionErr::Torn) => {
                        tears += 1;
                        t += HANDSHAKE_TICKS + RTT_TICKS;
                        continue;
                    }
                    Err(SessionErr::Fatal(e)) => return Err(failed(&mut sp, e)),
                };
                match fins_once(&mut stream, path, total, &sha, &ranges) {
                    Ok(stored) => {
                        t += RTT_TICKS;
                        if stored != sha {
                            sp.fail("digest mismatch");
                            return Err(FtpError::Protocol(
                                "server stored different bytes than sent".to_string(),
                            ));
                        }
                        let _ = stream.send(b"QUIT");
                        let _ = stream.recv();
                        t += RTT_TICKS;
                        break;
                    }
                    Err(SessionErr::Torn) => {
                        tears += 1;
                        t += RTT_TICKS;
                    }
                    Err(SessionErr::Fatal(e)) => return Err(failed(&mut sp, e)),
                }
            }
            Vec::new()
        }
    };
    let ticks = t.max(1);
    let (waits, waited) = bucket
        .as_ref()
        .map(|b| (b.waits(), b.waited_ticks()))
        .unwrap_or((0, 0));
    trace::add(bytes_counter, total as u64);
    trace::add("xfer.striped.sessions", u64::from(sessions));
    trace::add("xfer.striped.tears", u64::from(tears));
    trace::add("xfer.throttle.waits", waits);
    trace::add("xfer.throttle.waited_ticks", waited);
    Ok(StripedOutcome {
        bytes,
        sha256: sha,
        sessions,
        tears,
        ticks,
        goodput_bpkt: (total as u64) * 1000 / ticks,
        peak_stripes: peak.max(1),
        decisions: ctl.decisions().to_vec(),
        throttle_waits: waits,
        throttle_waited_ticks: waited,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poll::{Dialect, SessionTask};
    use crate::GridFtpServer;
    use gridsec_authz::gridmap::GridMapFile;
    use gridsec_crypto::rng::ChaChaRng;
    use gridsec_pki::ca::CertificateAuthority;
    use gridsec_pki::credential::Credential;
    use gridsec_pki::name::DistinguishedName;
    use gridsec_pki::store::TrustStore;
    use gridsec_testbed::clock::SimClock;
    use gridsec_testbed::faults::CrashPlan;
    use gridsec_testbed::net::{FaultProfile, FaultStats, Network, SimStream};
    use gridsec_testbed::os::{FileMode, SimOs};
    use gridsec_testbed::sched::Scheduler;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn dn(s: &str) -> DistinguishedName {
        DistinguishedName::parse(s).unwrap()
    }

    struct World {
        trust: TrustStore,
        jane: Credential,
        server: Rc<RefCell<GridFtpServer>>,
    }

    fn world() -> World {
        let mut rng = ChaChaRng::from_seed_bytes(b"gridftp stripe tests");
        let ca = CertificateAuthority::create_root(&mut rng, dn("/O=G/CN=CA"), 512, 0, 1_000_000);
        let jane = ca.issue_identity(&mut rng, dn("/O=G/CN=Jane"), 512, 0, 500_000);
        let host = ca.issue_host_identity(
            &mut rng,
            dn("/O=G/CN=host data1"),
            vec!["data1".into()],
            512,
            0,
            500_000,
        );
        let mut trust = TrustStore::new();
        trust.add_root(ca.certificate().clone());
        let gridmap = GridMapFile::parse("\"/O=G/CN=Jane\" jdoe\n").unwrap();
        let server =
            GridFtpServer::new(SimOs::new(), "data1", host, trust.clone(), gridmap).unwrap();
        World {
            trust,
            jane,
            server: Rc::new(RefCell::new(server)),
        }
    }

    fn payload(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 % 251) as u8).collect()
    }

    /// One sans-io striped server task per dial, each over a fresh
    /// connection in one world whose only fault is `drop` (seeded by
    /// `base_seed`); the client's reads run the tasks.
    fn dialer(
        w: &World,
        plan: CrashPlan,
        base_seed: u64,
        drop: f64,
    ) -> impl FnMut(usize, u32) -> Result<SimStream, TlsError> {
        let task = SessionTask {
            server: Rc::clone(&w.server),
            dialect: Dialect::Striped,
            now: 100,
            plan,
        };
        let net = Network::new();
        let profile = FaultProfile {
            drop,
            ..FaultProfile::default()
        };
        net.enable_faults(SimClock::new(), base_seed, profile);
        let mut sched = Scheduler::new(&net);
        let mut n = 0u64;
        move |slot, _attempt| {
            n += 1;
            let conn = format!("{slot}-{n}");
            let (client, server) = net.connect(&format!("jane:{conn}"), &format!("data1:{conn}"));
            task.spawn(
                &mut sched,
                server,
                &(n + ((slot as u64) << 32)).to_be_bytes(),
            );
            Ok(client)
        }
    }

    fn seed_file(w: &World, path: &str, data: &[u8]) {
        let s = w.server.borrow();
        let uid = s.os().uid_of("data1", "jdoe").unwrap();
        s.os()
            .write_file("data1", path, uid, FileMode::private(), data.to_vec())
            .unwrap();
    }

    fn run_get(
        w: &World,
        plan: CrashPlan,
        seed: u64,
        drop: f64,
        path: &str,
        opts: StripeOpts,
    ) -> StripedOutcome {
        let mut rng = ChaChaRng::from_seed_bytes(b"stripe client");
        let config = TlsConfig::new(w.jane.clone(), w.trust.clone(), 100);
        let dial = dialer(w, plan, seed, drop);
        striped_get(&config, &mut rng, RetryPolicy::default(), dial, path, opts).unwrap()
    }

    fn run_put(
        w: &World,
        plan: CrashPlan,
        seed: u64,
        drop: f64,
        path: &str,
        data: &[u8],
        opts: StripeOpts,
    ) -> StripedOutcome {
        let mut rng = ChaChaRng::from_seed_bytes(b"stripe client");
        let config = TlsConfig::new(w.jane.clone(), w.trust.clone(), 100);
        let dial = dialer(w, plan, seed, drop);
        let policy = RetryPolicy::default();
        striped_put(&config, &mut rng, policy, dial, path, data, opts).unwrap()
    }

    #[test]
    fn merge_ranges_reassembles_any_exact_tiling() {
        let data = payload(1000);
        let parts = vec![
            (600, data[600..1000].to_vec()),
            (0, data[0..256].to_vec()),
            (256, data[256..600].to_vec()),
        ];
        assert_eq!(merge_ranges(1000, &parts).unwrap(), data);
        // Gap.
        let gap = vec![(0, data[0..256].to_vec()), (600, data[600..1000].to_vec())];
        assert!(merge_ranges(1000, &gap).is_err());
        // Overlap.
        let overlap = vec![(0, data[0..600].to_vec()), (256, data[256..1000].to_vec())];
        assert!(merge_ranges(1000, &overlap).is_err());
        // Short of total.
        assert!(merge_ranges(1001, &parts).is_err());
        // Empty file.
        assert_eq!(merge_ranges(0, &[]).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn get_hash_equal_under_10pct_drop() {
        let w = world();
        let data = payload(8192);
        seed_file(&w, "/home/jdoe/big.dat", &data);
        let opts = StripeOpts {
            seed: 1,
            ..StripeOpts::default()
        };
        let out = run_get(
            &w,
            CrashPlan::disabled(),
            0x57_01,
            0.10,
            "/home/jdoe/big.dat",
            opts,
        );
        assert_eq!(out.bytes, data);
        assert_eq!(out.sha256, hex(&sha256(&data)));
        assert!(out.tears >= 1, "expected tears, got {}", out.tears);
        assert!(out.peak_stripes >= 2, "striping never engaged");
        assert!(out.ticks > 0 && out.goodput_bpkt > 0);
    }

    #[test]
    fn get_is_deterministic_for_a_seed() {
        let run = || {
            let w = world();
            let data = payload(8192);
            seed_file(&w, "/home/jdoe/big.dat", &data);
            let opts = StripeOpts {
                seed: 1,
                ..StripeOpts::default()
            };
            run_get(
                &w,
                CrashPlan::disabled(),
                0x57_01,
                0.10,
                "/home/jdoe/big.dat",
                opts,
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seeds must replay byte-identically");
        assert!(!a.decisions.is_empty(), "loss must drive controller moves");
    }

    #[test]
    fn put_round_trips_and_cleans_parts() {
        let w = world();
        let data = payload(8192);
        let opts = StripeOpts {
            seed: 2,
            ..StripeOpts::default()
        };
        let out = run_put(
            &w,
            CrashPlan::disabled(),
            0x57_02,
            0.10,
            "/home/jdoe/up.dat",
            &data,
            opts,
        );
        assert_eq!(out.sha256, hex(&sha256(&data)));
        assert!(out.tears >= 1, "expected tears, got {}", out.tears);
        let s = w.server.borrow();
        let uid = s.os().uid_of("data1", "jdoe").unwrap();
        let stored = s.os().read_file("data1", "/home/jdoe/up.dat", uid).unwrap();
        assert_eq!(stored, data, "no lost or duplicated bytes");
        // Every per-range staging file was merged and removed.
        let span = 4 * CHUNK;
        let mut pos = 0;
        while pos < data.len() {
            let end = (pos + span).min(data.len());
            let part = part_path("/home/jdoe/up.dat", pos, end);
            assert_eq!(s.os().file_len("data1", &part).unwrap(), None, "{part}");
            pos = end;
        }
    }

    #[test]
    fn repeat_put_of_completed_file_is_idempotent() {
        let w = world();
        let data = payload(8192);
        let path = "/home/jdoe/twice.dat";
        let first = run_put(
            &w,
            CrashPlan::disabled(),
            0x57_0a,
            0.0,
            path,
            &data,
            StripeOpts::default(),
        );
        // A chunk reaching the server, or a merge, would fire these.
        let plan = CrashPlan::manual(0);
        plan.arm("xfer.stripe.put.chunk", 1);
        plan.arm("xfer.stripe.merge", 1);
        let again = run_put(
            &w,
            plan.clone(),
            0x57_0b,
            0.0,
            path,
            &data,
            StripeOpts::default(),
        );
        assert_eq!(plan.crashes(), 0, "every range answered OFFSET = end");
        assert!(!first.decisions.is_empty(), "the first PUT sent windows");
        assert!(again.decisions.is_empty(), "no SEND window completed");
        assert_eq!(again.tears, 0);
        assert_eq!(
            again.sessions,
            again.peak_stripes + 1,
            "one session per stripe, then exactly one FINS"
        );
        assert_eq!(again.sha256, first.sha256);
        let s = w.server.borrow();
        let uid = s.os().uid_of("data1", "jdoe").unwrap();
        assert_eq!(s.os().read_file("data1", path, uid).unwrap(), data);
        for (start, end) in tasks(data.len()) {
            let part = part_path(path, start, end);
            assert_eq!(s.os().file_len("data1", &part).unwrap(), None, "{part}");
        }
    }

    #[test]
    fn get_fails_closed_when_the_file_changes_between_dials() {
        let w = world();
        let path = "/home/jdoe/moving.dat";
        let data = payload(8192);
        seed_file(&w, path, &data);
        let rewritten: Vec<u8> = data.iter().rev().copied().collect();
        let mut inner = dialer(&w, CrashPlan::disabled(), 0x57_09, 0.0);
        let mut dials = 0;
        // The second dial opens the second stripe, after slot 0 learned
        // the size and digest of the original.
        let dial = |slot, attempt| {
            dials += 1;
            if dials == 2 {
                seed_file(&w, path, &rewritten);
            }
            inner(slot, attempt)
        };
        let mut rng = ChaChaRng::from_seed_bytes(b"stripe client");
        let config = TlsConfig::new(w.jane.clone(), w.trust.clone(), 100);
        let policy = RetryPolicy::default();
        let got = striped_get(&config, &mut rng, policy, dial, path, StripeOpts::default());
        assert_eq!(
            got,
            Err(FtpError::Protocol(
                "file changed between stripe sessions".to_string()
            ))
        );
    }

    #[test]
    fn get_survives_armed_mid_stripe_kill() {
        let w = world();
        let data = payload(4096);
        seed_file(&w, "/home/jdoe/k.dat", &data);
        let plan = CrashPlan::manual(0);
        plan.arm("xfer.stripe.get.chunk", 3);
        let out = run_get(
            &w,
            plan.clone(),
            0x57_03,
            0.0,
            "/home/jdoe/k.dat",
            StripeOpts::default(),
        );
        assert_eq!(out.bytes, data);
        assert_eq!(plan.crashes(), 1);
        assert!(out.tears >= 1);
        assert!(plan
            .transcript()
            .iter()
            .any(|l| l.contains("point=xfer.stripe.get.chunk")));
    }

    #[test]
    fn a_tear_reports_the_stripes_own_frame_count_as_its_loss() {
        // One pinned stripe on a loss-free link; the server dies sending
        // the third chunk. The stripe moved the dial's four frames, then
        // SIZE and its reply, GETS and its reply, one PULL and two
        // chunks: one tear in eleven frames is 90‰.
        let w = world();
        let data = payload(4096);
        seed_file(&w, "/home/jdoe/loss.dat", &data);
        let plan = CrashPlan::manual(0);
        plan.arm("xfer.stripe.get.chunk", 3);
        let opts = StripeOpts {
            aimd: AimdConfig::pinned_stripes(1),
            ..StripeOpts::default()
        };
        let out = run_get(&w, plan, 0x57_0c, 0.0, "/home/jdoe/loss.dat", opts);
        assert_eq!(out.bytes, data);
        assert_eq!(out.tears, 1);
        let tears: Vec<&String> = out
            .decisions
            .iter()
            .filter(|d| d.contains("tear"))
            .collect();
        assert_eq!(tears.len(), 1, "{:?}", out.decisions);
        assert!(
            tears[0].contains("stripe=0 tear loss=90\u{2030}"),
            "{}",
            tears[0]
        );
    }

    /// An 8 KiB striped GET over a world losing 5% of segments, in which
    /// the data host is partitioned from the client at a seeded dial
    /// and, if `heal_after`, healed that many dials later. The outcome
    /// and the fault counters.
    fn partitioned_get(
        seed: u64,
        heal_after: Option<u64>,
    ) -> (Result<StripedOutcome, FtpError>, FaultStats) {
        let w = world();
        let data = payload(8192);
        seed_file(&w, "/home/jdoe/cut.dat", &data);
        let task = SessionTask {
            server: Rc::clone(&w.server),
            dialect: Dialect::Striped,
            now: 100,
            plan: CrashPlan::disabled(),
        };
        let net = Network::new();
        let profile = FaultProfile {
            drop: 0.05,
            ..FaultProfile::default()
        };
        net.enable_faults(SimClock::new(), seed, profile);
        let mut sched = Scheduler::new(&net);
        let cut_at = 2 + seed % 3;
        let mut n = 0u64;
        let dial = |slot: usize, _attempt| {
            n += 1;
            if n == cut_at {
                net.partition("jane", "data1");
            }
            if heal_after.is_some_and(|h| n == cut_at + h) {
                net.heal("jane", "data1");
            }
            let conn = format!("{slot}-{n}");
            let (client, server) = net.connect(&format!("jane:{conn}"), &format!("data1:{conn}"));
            task.spawn(&mut sched, server, &n.to_be_bytes());
            Ok(client)
        };
        let mut rng = ChaChaRng::from_seed_bytes(b"stripe client");
        let config = TlsConfig::new(w.jane.clone(), w.trust.clone(), 100);
        let policy = RetryPolicy {
            max_attempts: 2,
            ..RetryPolicy::default()
        };
        let opts = StripeOpts {
            max_sessions: 32,
            ..StripeOpts::default()
        };
        let got = striped_get(&config, &mut rng, policy, dial, "/home/jdoe/cut.dat", opts);
        if let Ok(out) = &got {
            assert_eq!(out.bytes, data);
            assert_eq!(out.sha256, hex(&sha256(&data)));
        }
        (got, net.fault_stats().expect("faults are armed"))
    }

    #[test]
    fn a_partition_healed_mid_transfer_costs_redials_not_bytes() {
        for seed in 0..3 {
            let (got, faults) = partitioned_get(seed, Some(4));
            let out = got.unwrap_or_else(|e| panic!("seed {seed}: {e:?}"));
            assert!(faults.blocked > 0, "seed {seed}: nothing was blocked");
            assert!(out.tears >= 2, "seed {seed}: the cut tore no dials");

            let (unhealed, faults) = partitioned_get(seed, None);
            assert_eq!(
                unhealed,
                Err(FtpError::Channel(
                    "striped resume budget exhausted".to_string()
                )),
                "seed {seed}"
            );
            assert!(faults.blocked > 0);
        }
    }

    #[test]
    fn put_survives_armed_kills_at_chunk_and_merge() {
        let w = world();
        let data = payload(4096);
        let plan = CrashPlan::manual(0);
        plan.arm("xfer.stripe.put.chunk", 3);
        plan.arm("xfer.stripe.merge", 1);
        let out = run_put(
            &w,
            plan.clone(),
            0x57_04,
            0.0,
            "/home/jdoe/km.dat",
            &data,
            StripeOpts::default(),
        );
        assert_eq!(out.sha256, hex(&sha256(&data)));
        assert_eq!(plan.crashes(), 2, "both armed kills fired");
        let s = w.server.borrow();
        let uid = s.os().uid_of("data1", "jdoe").unwrap();
        let stored = s.os().read_file("data1", "/home/jdoe/km.dat", uid).unwrap();
        assert_eq!(stored, data, "kills must not lose or duplicate bytes");
    }

    #[test]
    fn throttle_slows_the_transfer_and_counts_waits() {
        let run = |bucket: Option<TokenBucket>| {
            let w = world();
            let data = payload(8192);
            seed_file(&w, "/home/jdoe/thr.dat", &data);
            let opts = StripeOpts {
                seed: 3,
                bucket,
                ..StripeOpts::default()
            };
            run_get(
                &w,
                CrashPlan::disabled(),
                0x57_05,
                0.0,
                "/home/jdoe/thr.dat",
                opts,
            )
        };
        let free = run(None);
        let capped = run(Some(TokenBucket::new(16, 256)));
        assert!(capped.ticks > free.ticks, "cap must cost simulated time");
        assert!(capped.throttle_waits > 0);
        assert!(capped.throttle_waited_ticks > 0);
        assert_eq!(free.throttle_waits, 0);
    }

    #[test]
    fn four_stripes_beat_one_at_5pct_loss() {
        let run = |stripes: u32| {
            let w = world();
            let data = payload(8192);
            seed_file(&w, "/home/jdoe/race.dat", &data);
            let opts = StripeOpts {
                seed: 4,
                aimd: AimdConfig::pinned_stripes(stripes),
                ..StripeOpts::default()
            };
            run_get(
                &w,
                CrashPlan::disabled(),
                0x57_06,
                0.05,
                "/home/jdoe/race.dat",
                opts,
            )
        };
        let one = run(1);
        let four = run(4);
        assert_eq!(one.sha256, four.sha256);
        assert!(
            four.ticks < one.ticks,
            "4 stripes ({} ticks) should beat 1 ({} ticks)",
            four.ticks,
            one.ticks
        );
        assert!(four.goodput_bpkt > one.goodput_bpkt);
    }

    #[test]
    fn empty_file_round_trips() {
        let w = world();
        seed_file(&w, "/home/jdoe/empty.dat", b"");
        let got = run_get(
            &w,
            CrashPlan::disabled(),
            0x57_07,
            0.0,
            "/home/jdoe/empty.dat",
            StripeOpts::default(),
        );
        assert!(got.bytes.is_empty());
        let put = run_put(
            &w,
            CrashPlan::disabled(),
            0x57_08,
            0.0,
            "/home/jdoe/empty2.dat",
            b"",
            StripeOpts::default(),
        );
        assert_eq!(put.sha256, hex(&sha256(b"")));
        let s = w.server.borrow();
        let uid = s.os().uid_of("data1", "jdoe").unwrap();
        assert_eq!(
            s.os()
                .read_file("data1", "/home/jdoe/empty2.dat", uid)
                .unwrap(),
            Vec::<u8>::new()
        );
    }
}
