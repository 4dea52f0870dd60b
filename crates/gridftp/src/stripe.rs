//! Striped, congestion-controlled transfers (`GETS`/`PUTS`/`FINS`).
//!
//! Real GridFTP recovers goodput on lossy WAN links by striping one
//! file across several parallel TCP streams and adapting window size
//! and parallelism to observed loss. This module reproduces that on
//! the simulated testbed: a transfer is split into fixed-span tasks,
//! each task moves over one of N `StreamPair::lossy` data channels,
//! and an [`AimdController`] adapts the pull window and the target
//! stripe count from the fault layer's per-stripe loss stats.
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
//! **Time is simulated ticks, not wall clock.** The client engine is a
//! single-threaded event loop over per-stripe timelines ([`TickModel`]:
//! ticks per chunk, per round trip, per handshake attempt), with an
//! optional shared [`TokenBucket`] capping aggregate bytes per tick.
//! Because only one stripe exchange is in flight at a time, every
//! `CrashPlan` draw and every loss-layer draw is causally ordered by
//! the client loop — goodput, tears, and the controller's decision log
//! are pure functions of the seeds, which is what lets CI byte-compare
//! two runs of the striped chaos scenario.

use std::collections::VecDeque;
use std::io::{Read, Write};

use gridsec_bignum::prime::EntropySource;
use gridsec_crypto::sha256::sha256;
use gridsec_testbed::net::StreamStats;
use gridsec_tls::handshake::TlsConfig;
use gridsec_tls::retry::connect_with_retry;
use gridsec_tls::stream::SecureStream;
use gridsec_tls::TlsError;
use gridsec_util::retry::RetryPolicy;
use gridsec_util::throttle::TokenBucket;
use gridsec_util::trace;

use crate::congestion::{AimdConfig, AimdController};
use crate::resume::{greet, hex, parse_field, recv_text, tls_err, SessionErr, CHUNK};
use crate::FtpError;

/// Simulated-tick costs of the transfer primitives. Goodput is measured
/// against this model, so it is a pure function of the seeds rather
/// than of host scheduling.
#[derive(Clone, Copy, Debug)]
pub struct TickModel {
    /// Ticks to move one ≤[`CHUNK`]-byte record over one stripe link.
    pub chunk_ticks: u64,
    /// Ticks for one control round trip (header, credit, ack).
    pub rtt_ticks: u64,
    /// Ticks per secure-handshake attempt when (re)dialing a stripe.
    pub handshake_ticks: u64,
}

impl Default for TickModel {
    fn default() -> Self {
        TickModel {
            chunk_ticks: 1,
            rtt_ticks: 2,
            handshake_ticks: 8,
        }
    }
}

/// Knobs for a striped transfer.
#[derive(Clone, Debug)]
pub struct StripeOpts {
    /// Bytes per work-queue task (rounded up to a [`CHUNK`] multiple).
    pub task_span: usize,
    /// Fatal-error budget: total tears (redials) the transfer may survive.
    pub max_sessions: u32,
    /// Congestion-controller bounds and seeds live here.
    pub aimd: AimdConfig,
    /// Tick costs for the goodput model.
    pub ticks: TickModel,
    /// Optional shared bandwidth cap (bytes per tick) across all stripes.
    pub bucket: Option<TokenBucket>,
    /// Replay seed for the controller's probabilistic moves.
    pub seed: u64,
}

impl Default for StripeOpts {
    fn default() -> Self {
        StripeOpts {
            task_span: 4 * CHUNK,
            max_sessions: 64,
            aimd: AimdConfig::default(),
            ticks: TickModel::default(),
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

/// Unwrap an engine-invariant `Option` on a fault-reachable path. These
/// invariants are maintained by the transfer loop itself, but the loop
/// runs under injected tears and crashes — a violated invariant must
/// surface as a typed [`FtpError::Xfer`] the caller can handle, not a
/// panic that takes the client down mid-chaos-run.
macro_rules! xfer_invariant {
    ($sp:expr, $opt:expr, $msg:literal) => {
        match $opt {
            Some(v) => v,
            None => {
                $sp.fail($msg);
                return Err(FtpError::Xfer($msg));
            }
        }
    };
}

/// One stripe's slot in the client engine.
struct Slot<S: Read + Write> {
    stream: Option<SecureStream<S>>,
    stats: Option<StreamStats>,
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
            stats: None,
            task: None,
            header_done: false,
            ready_at: 0,
            active: false,
        }
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
    rtt: u64,
) {
    let lp = slot
        .stats
        .as_ref()
        .map(|s| s.loss().loss_permille())
        .unwrap_or(0);
    *tears += 1;
    ctl.on_tear(si, lp, t);
    slot.stream = None;
    slot.stats = None;
    slot.header_done = false;
    slot.ready_at = t + rtt;
}

/// Close a stripe's channel (best-effort `QUIT`) and park the slot.
fn retire_slot<S: Read + Write>(slot: &mut Slot<S>, t: u64) {
    if let Some(mut s) = slot.stream.take() {
        let _ = s.send(b"QUIT");
        let _ = s.recv();
    }
    slot.stats = None;
    slot.header_done = false;
    slot.active = false;
    slot.ready_at = t;
}

/// Dial + handshake + greeting for one stripe. Returns the secured
/// stream, the pair's loss-stats handle, and handshake attempts made.
fn dial_slot<S, E, D>(
    config: &TlsConfig,
    rng: &mut E,
    policy: RetryPolicy,
    dial: &mut D,
    slot: usize,
) -> Result<(SecureStream<S>, StreamStats, u32), SessionErr>
where
    S: Read + Write,
    E: EntropySource,
    D: FnMut(usize, u32) -> Result<(S, StreamStats), TlsError>,
{
    let mut pair_stats: Option<StreamStats> = None;
    let result = connect_with_retry(config, rng, policy, |attempt| {
        let (s, st) = dial(slot, attempt)?;
        pair_stats = Some(st);
        Ok(s)
    });
    match result {
        Ok((mut stream, cstats)) => {
            greet(&mut stream)?;
            let stats = pair_stats.ok_or(SessionErr::Fatal(FtpError::Xfer(
                "dial succeeded without recording pair stats",
            )))?;
            Ok((stream, stats, cstats.attempts))
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
/// a fresh raw stream plus its loss-stats handle for `(slot, attempt)`.
pub fn striped_get<S, E, D>(
    config: &TlsConfig,
    rng: &mut E,
    policy: RetryPolicy,
    mut dial: D,
    path: &str,
    opts: StripeOpts,
) -> Result<StripedOutcome, FtpError>
where
    S: Read + Write,
    E: EntropySource,
    D: FnMut(usize, u32) -> Result<(S, StreamStats), TlsError>,
{
    let mut sp = trace::span_with("xfer.striped.get", path);
    let tm = opts.ticks;
    let span = opts.task_span.max(CHUNK).div_ceil(CHUNK) * CHUNK;
    let mut ctl = AimdController::new(opts.aimd, opts.seed);
    let mut bucket = opts.bucket.clone();
    let max_slots = opts.aimd.max_stripes.max(opts.aimd.min_stripes).max(1) as usize;
    let mut slots: Vec<Slot<S>> = (0..max_slots).map(|_| Slot::new()).collect();
    slots[0].active = true; // size discovery runs on one stripe
    let mut sessions = 0u32;
    let mut tears = 0u32;
    let mut peak = 1u32;
    let mut total: Option<usize> = None;
    let mut file_sha: Option<String> = None;
    let mut queue: VecDeque<(usize, usize)> = VecDeque::new();
    let mut parts: Vec<(usize, Vec<u8>)> = Vec::new();

    while let Some(si) = pick_slot(&slots) {
        let mut t = slots[si].ready_at;
        let budget_blown = tears >= opts.max_sessions;
        if budget_blown {
            sp.fail("striped resume budget exhausted");
            return Err(FtpError::Channel(
                "striped resume budget exhausted".to_string(),
            ));
        }
        // Task management needs no connection; do it before dialing so
        // a shed or drained stripe never wastes a handshake.
        if total.is_some() && slots[si].task.is_none() {
            if queue.is_empty() || active_count(&slots) > ctl.target_stripes() as usize {
                retire_slot(&mut slots[si], t + tm.rtt_ticks);
                continue;
            }
            let (s0, e0) = xfer_invariant!(sp, queue.pop_front(), "task queue drained mid-claim");
            slots[si].task = Some(Task {
                start: s0,
                end: e0,
                got: 0,
                buf: Vec::with_capacity(e0 - s0),
            });
            slots[si].header_done = false;
        }
        if slots[si].stream.is_none() {
            match dial_slot(config, rng, policy, &mut dial, si) {
                Ok((stream, stats, attempts)) => {
                    t += u64::from(attempts) * tm.handshake_ticks + tm.rtt_ticks;
                    sessions += 1;
                    slots[si].stream = Some(stream);
                    slots[si].stats = Some(stats);
                    slots[si].header_done = false;
                    slots[si].ready_at = t;
                }
                Err(SessionErr::Torn) => {
                    t += tm.handshake_ticks + tm.rtt_ticks;
                    tears += 1;
                    slots[si].ready_at = t;
                }
                Err(SessionErr::Fatal(e)) => {
                    sp.fail(&e.to_string());
                    return Err(e);
                }
            }
            continue;
        }
        if total.is_none() {
            let stream = xfer_invariant!(
                sp,
                slots[si].stream.as_mut(),
                "stripe stream lost after dial"
            );
            match fetch_size(stream, path) {
                Ok((len, sha)) => {
                    t += tm.rtt_ticks;
                    total = Some(len);
                    file_sha = Some(sha);
                    let mut pos = 0;
                    while pos < len {
                        let end = (pos + span).min(len);
                        queue.push_back((pos, end));
                        pos = end;
                    }
                    slots[si].ready_at = t;
                    grow_slots(&mut slots, ctl.target_stripes(), queue.len(), t);
                    peak = peak.max(active_count(&slots) as u32);
                }
                Err(SessionErr::Torn) => {
                    note_tear(&mut slots[si], si, &mut ctl, &mut tears, t, tm.rtt_ticks);
                }
                Err(SessionErr::Fatal(e)) => {
                    sp.fail(&e.to_string());
                    return Err(e);
                }
            }
            continue;
        }
        let (start, end, got) = {
            let task = xfer_invariant!(sp, slots[si].task.as_ref(), "stripe task lost mid-claim");
            (task.start, task.end, task.got)
        };
        if !slots[si].header_done {
            let range_total = xfer_invariant!(sp, total, "range header sent before size");
            let stream = xfer_invariant!(
                sp,
                slots[si].stream.as_mut(),
                "stripe stream lost after dial"
            );
            let sha = xfer_invariant!(sp, file_sha.as_deref(), "file digest lost after size");
            match gets_header(stream, path, start + got, end, range_total, sha) {
                Ok(()) => {
                    t += tm.rtt_ticks;
                    slots[si].header_done = true;
                    slots[si].ready_at = t;
                }
                Err(SessionErr::Torn) => {
                    note_tear(&mut slots[si], si, &mut ctl, &mut tears, t, tm.rtt_ticks);
                }
                Err(SessionErr::Fatal(e)) => {
                    sp.fail(&e.to_string());
                    return Err(e);
                }
            }
            continue;
        }
        // Pull one window of chunks on this stripe.
        let remaining = (end - start) - got;
        let n = remaining.div_ceil(CHUNK).min(ctl.window() as usize).max(1);
        let mut torn = false;
        let mut complete = false;
        {
            let slot = &mut slots[si];
            let stream = xfer_invariant!(sp, slot.stream.as_mut(), "stripe stream lost after dial");
            let task = xfer_invariant!(sp, slot.task.as_mut(), "stripe task lost mid-claim");
            if stream.send(format!("PULL {n}").as_bytes()).is_err() {
                torn = true;
            } else {
                t += tm.rtt_ticks;
                for _ in 0..n {
                    match stream.recv() {
                        Ok(chunk) => {
                            if task.got + chunk.len() > task.end - task.start {
                                sp.fail("stripe overrun");
                                return Err(FtpError::Protocol(
                                    "stripe download overruns its range".to_string(),
                                ));
                            }
                            task.buf.extend_from_slice(&chunk);
                            task.got += chunk.len();
                            let at = match bucket.as_mut() {
                                Some(b) => b.take_at(t, chunk.len() as u64),
                                None => t,
                            };
                            t = at + tm.chunk_ticks;
                        }
                        Err(_) => {
                            torn = true;
                            break;
                        }
                    }
                }
                if !torn && task.got == task.end - task.start {
                    complete = true;
                }
            }
        }
        if torn {
            note_tear(&mut slots[si], si, &mut ctl, &mut tears, t, tm.rtt_ticks);
            continue;
        }
        ctl.on_clean_round(si, t);
        if complete {
            let task = xfer_invariant!(sp, slots[si].task.take(), "completed task vanished");
            parts.push((task.start, task.buf));
        }
        slots[si].ready_at = t;
        grow_slots(&mut slots, ctl.target_stripes(), queue.len(), t);
        peak = peak.max(active_count(&slots) as u32);
    }

    let total = match total {
        Some(n) => n,
        None => {
            sp.fail("size never learned");
            return Err(FtpError::Channel(
                "striped transfer ended before size was learned".to_string(),
            ));
        }
    };
    let bytes = merge_ranges(total, &parts)?;
    let digest = hex(&sha256(&bytes));
    if file_sha.as_deref() != Some(digest.as_str()) {
        sp.fail("digest mismatch");
        return Err(FtpError::Protocol(
            "transferred data does not match server digest".to_string(),
        ));
    }
    let ticks = slots.iter().map(|s| s.ready_at).max().unwrap_or(1).max(1);
    let (waits, waited) = bucket
        .as_ref()
        .map(|b| (b.waits(), b.waited_ticks()))
        .unwrap_or((0, 0));
    trace::add("xfer.striped.bytes_got", total as u64);
    trace::add("xfer.striped.sessions", u64::from(sessions));
    trace::add("xfer.striped.tears", u64::from(tears));
    trace::add("xfer.throttle.waits", waits);
    trace::add("xfer.throttle.waited_ticks", waited);
    Ok(StripedOutcome {
        bytes,
        sha256: digest,
        sessions,
        tears,
        ticks,
        goodput_bpkt: (total as u64) * 1000 / ticks,
        peak_stripes: peak,
        decisions: ctl.decisions().to_vec(),
        throttle_waits: waits,
        throttle_waited_ticks: waited,
    })
}

/// Store `data` at `path` over adaptively many striped channels. Each
/// stripe range stages into its own durable part file; a final `FINS`
/// merges, verifies, and promotes (surviving any merge-time crash).
pub fn striped_put<S, E, D>(
    config: &TlsConfig,
    rng: &mut E,
    policy: RetryPolicy,
    mut dial: D,
    path: &str,
    data: &[u8],
    opts: StripeOpts,
) -> Result<StripedOutcome, FtpError>
where
    S: Read + Write,
    E: EntropySource,
    D: FnMut(usize, u32) -> Result<(S, StreamStats), TlsError>,
{
    let mut sp = trace::span_with("xfer.striped.put", path);
    let tm = opts.ticks;
    let span = opts.task_span.max(CHUNK).div_ceil(CHUNK) * CHUNK;
    let total = data.len();
    let local_sha = hex(&sha256(data));
    let mut ctl = AimdController::new(opts.aimd, opts.seed);
    let mut bucket = opts.bucket.clone();
    let max_slots = opts.aimd.max_stripes.max(opts.aimd.min_stripes).max(1) as usize;
    let mut slots: Vec<Slot<S>> = (0..max_slots).map(|_| Slot::new()).collect();
    let mut ranges: Vec<(usize, usize)> = Vec::new();
    let mut queue: VecDeque<(usize, usize)> = VecDeque::new();
    let mut pos = 0;
    while pos < total {
        let end = (pos + span).min(total);
        ranges.push((pos, end));
        queue.push_back((pos, end));
        pos = end;
    }
    let mut sessions = 0u32;
    let mut tears = 0u32;
    grow_slots(&mut slots, ctl.target_stripes(), queue.len(), 0);
    let mut peak = active_count(&slots) as u32;

    while let Some(si) = pick_slot(&slots) {
        let mut t = slots[si].ready_at;
        if tears >= opts.max_sessions {
            sp.fail("striped resume budget exhausted");
            return Err(FtpError::Channel(
                "striped resume budget exhausted".to_string(),
            ));
        }
        if slots[si].task.is_none() {
            if queue.is_empty() || active_count(&slots) > ctl.target_stripes() as usize {
                retire_slot(&mut slots[si], t + tm.rtt_ticks);
                continue;
            }
            let (s0, e0) = xfer_invariant!(sp, queue.pop_front(), "task queue drained mid-claim");
            slots[si].task = Some(Task {
                start: s0,
                end: e0,
                got: 0,
                buf: Vec::new(),
            });
            slots[si].header_done = false;
        }
        if slots[si].stream.is_none() {
            match dial_slot(config, rng, policy, &mut dial, si) {
                Ok((stream, stats, attempts)) => {
                    t += u64::from(attempts) * tm.handshake_ticks + tm.rtt_ticks;
                    sessions += 1;
                    slots[si].stream = Some(stream);
                    slots[si].stats = Some(stats);
                    slots[si].header_done = false;
                    slots[si].ready_at = t;
                }
                Err(SessionErr::Torn) => {
                    t += tm.handshake_ticks + tm.rtt_ticks;
                    tears += 1;
                    slots[si].ready_at = t;
                }
                Err(SessionErr::Fatal(e)) => {
                    sp.fail(&e.to_string());
                    return Err(e);
                }
            }
            continue;
        }
        if !slots[si].header_done {
            let mut torn = false;
            let mut fatal: Option<FtpError> = None;
            {
                let slot = &mut slots[si];
                let (start, end) = {
                    let task =
                        xfer_invariant!(sp, slot.task.as_ref(), "stripe task lost mid-claim");
                    (task.start, task.end)
                };
                let stream =
                    xfer_invariant!(sp, slot.stream.as_mut(), "stripe stream lost after dial");
                match puts_header(stream, path, start, end, total) {
                    Ok(abs) => {
                        t += tm.rtt_ticks;
                        slot.header_done = true;
                        slot.ready_at = t;
                        if abs == end {
                            // Range already fully durable server-side
                            // (idempotent re-put after a lost reply).
                            slot.task = None;
                        } else if let Some(task) = slot.task.as_mut() {
                            task.got = abs - start;
                        }
                    }
                    Err(SessionErr::Torn) => torn = true,
                    Err(SessionErr::Fatal(e)) => fatal = Some(e),
                }
            }
            if let Some(e) = fatal {
                sp.fail(&e.to_string());
                return Err(e);
            }
            if torn {
                note_tear(&mut slots[si], si, &mut ctl, &mut tears, t, tm.rtt_ticks);
            }
            continue;
        }
        // Send one window of chunks on this stripe, then await the ack.
        let mut torn = false;
        let mut fatal: Option<FtpError> = None;
        let mut complete = false;
        {
            let slot = &mut slots[si];
            let stream = xfer_invariant!(sp, slot.stream.as_mut(), "stripe stream lost after dial");
            let task = xfer_invariant!(sp, slot.task.as_mut(), "stripe task lost mid-claim");
            let remaining = (task.end - task.start) - task.got;
            let n = remaining.div_ceil(CHUNK).min(ctl.window() as usize).max(1);
            if stream.send(format!("SEND {n}").as_bytes()).is_err() {
                torn = true;
            } else {
                for _ in 0..n {
                    let from = task.start + task.got;
                    let to = (from + CHUNK).min(task.end);
                    let at = match bucket.as_mut() {
                        Some(b) => b.take_at(t, (to - from) as u64),
                        None => t,
                    };
                    t = at + tm.chunk_ticks;
                    if stream.send(&data[from..to]).is_err() {
                        torn = true;
                        break;
                    }
                    task.got = to - task.start;
                }
                if !torn {
                    match stream.recv() {
                        Ok(msg) => {
                            let text = String::from_utf8_lossy(&msg).into_owned();
                            match text
                                .strip_prefix("ACK ")
                                .and_then(|v| v.parse::<usize>().ok())
                            {
                                Some(abs) if abs >= task.start && abs <= task.end => {
                                    t += tm.rtt_ticks;
                                    task.got = abs - task.start;
                                    complete = task.got == task.end - task.start;
                                }
                                _ => fatal = Some(FtpError::File(text)),
                            }
                        }
                        Err(_) => torn = true,
                    }
                }
            }
        }
        if let Some(e) = fatal {
            sp.fail(&e.to_string());
            return Err(e);
        }
        if torn {
            note_tear(&mut slots[si], si, &mut ctl, &mut tears, t, tm.rtt_ticks);
            continue;
        }
        ctl.on_clean_round(si, t);
        if complete {
            slots[si].task = None;
        }
        slots[si].ready_at = t;
        grow_slots(&mut slots, ctl.target_stripes(), queue.len(), t);
        peak = peak.max(active_count(&slots) as u32);
    }

    // Every range is durable server-side; merge + promote via FINS on
    // a fresh control channel, retrying across tears and merge kills.
    let ranges_str = if ranges.is_empty() {
        "-".to_string()
    } else {
        ranges
            .iter()
            .map(|(s, e)| format!("{s}-{e}"))
            .collect::<Vec<_>>()
            .join(",")
    };
    let mut t = slots.iter().map(|s| s.ready_at).max().unwrap_or(0);
    loop {
        if tears >= opts.max_sessions {
            sp.fail("striped resume budget exhausted");
            return Err(FtpError::Channel(
                "striped resume budget exhausted".to_string(),
            ));
        }
        match dial_slot(config, rng, policy, &mut dial, 0) {
            Ok((mut stream, _stats, attempts)) => {
                t += u64::from(attempts) * tm.handshake_ticks + tm.rtt_ticks;
                sessions += 1;
                match fins_once(&mut stream, path, total, &local_sha, &ranges_str) {
                    Ok(server_sha) => {
                        t += tm.rtt_ticks;
                        if server_sha != local_sha {
                            sp.fail("digest mismatch");
                            return Err(FtpError::Protocol(
                                "server stored different bytes than sent".to_string(),
                            ));
                        }
                        let _ = stream.send(b"QUIT");
                        let _ = stream.recv();
                        t += tm.rtt_ticks;
                        break;
                    }
                    Err(SessionErr::Torn) => {
                        tears += 1;
                        t += tm.rtt_ticks;
                    }
                    Err(SessionErr::Fatal(e)) => {
                        sp.fail(&e.to_string());
                        return Err(e);
                    }
                }
            }
            Err(SessionErr::Torn) => {
                tears += 1;
                t += tm.handshake_ticks + tm.rtt_ticks;
            }
            Err(SessionErr::Fatal(e)) => {
                sp.fail(&e.to_string());
                return Err(e);
            }
        }
    }
    let ticks = t.max(1);
    let (waits, waited) = bucket
        .as_ref()
        .map(|b| (b.waits(), b.waited_ticks()))
        .unwrap_or((0, 0));
    trace::add("xfer.striped.bytes_put", total as u64);
    trace::add("xfer.striped.sessions", u64::from(sessions));
    trace::add("xfer.striped.tears", u64::from(tears));
    trace::add("xfer.throttle.waits", waits);
    trace::add("xfer.throttle.waited_ticks", waited);
    Ok(StripedOutcome {
        bytes: Vec::new(),
        sha256: local_sha,
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
    use gridsec_testbed::faults::CrashPlan;
    use gridsec_testbed::net::{Network, SimStream, StreamPair};
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

    /// One sans-io striped server task per dial (on a scheduler the
    /// dialer owns; the client's reads find it through the pair), over a
    /// seeded lossy pair whose stats handle goes back to the client
    /// engine.
    fn dialer(
        w: &World,
        plan: CrashPlan,
        base_seed: u64,
        drop: f64,
    ) -> impl FnMut(usize, u32) -> Result<(SimStream, StreamStats), TlsError> {
        let task = SessionTask {
            server: Rc::clone(&w.server),
            dialect: Dialect::Striped,
            now: 100,
            plan,
        };
        let net = Network::new();
        let mut sched = Scheduler::new(&net);
        let mut n = 0u64;
        move |slot, _attempt| {
            n += 1;
            let seed = base_seed.wrapping_add(n).wrapping_add((slot as u64) << 32);
            let (a, b, stats) = StreamPair::lossy(seed, drop);
            let mailbox = format!("stripe-{base_seed:x}-{slot}-{n}");
            task.spawn(&mut sched, &net, &mailbox, b, &seed.to_be_bytes());
            Ok((a, stats))
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
