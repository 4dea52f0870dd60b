//! How a run is measured.
//!
//! Work is fixed by count: every slice of a workload performs the same
//! number of ops, derived from `(seed, slice index)`. A run is
//! [`SETUPS`] segments, each of
//!
//! 1. a set-up from the seed: the previous world is dropped, a new one
//!    built and slice 0 run on it (so lazy first-use work counts as
//!    set-up, and a discarded warm-up is nowhere to hide work); every
//!    set-up must reproduce the first one's slice-0 digest;
//! 2. slices 1, 2, … — the same ones in every segment, each timed on its
//!    own — until the segment's share of `--seconds` has passed (at
//!    least [`MIN_SLICES`]). A slice must reproduce the digest it had in
//!    the first segment.
//!
//! So every slice, and the set-up (`setup_s` is its fastest reading),
//! is read [`SETUPS`] times, seconds apart, doing the same work each time. On the shared two-core box
//! this was written on, other tenants slow the program by 1.3–1.8× in
//! bursts that last from milliseconds to half a minute, and only ever
//! add time: the fastest reading of a slice is its quiet one. A timing
//! metric is taken over the slices' quiet readings at the [`QUIET`]
//! quantile — not their median, because a slice whose readings were all
//! disturbed reads slow, never fast. What no reading escapes is a
//! neighbour that stays for minutes: for that, each segment's times are
//! first divided by its *machine factor*, read off a kernel that never
//! changes (see [`crate::reference`]). Between identical 20-second runs
//! the median of 0.4-second slices swung 8–23 %; see README, "Noise
//! floor", for what this scheme leaves. A change to the program moves
//! every reading, the quiet ones included. The exact-per-seed metrics
//! and the run digest come from slices 1..=[`MIN_SLICES`], so they do
//! not depend on how many slices fitted in the time.

use std::fmt::Write as _;
use std::time::Instant;

use gridsec_crypto::sha256::Sha256;

use crate::reference;

/// Set-ups, and so segments, per run.
pub const SETUPS: usize = 5;
/// Measured slices every run performs whatever `--seconds` says; the
/// exact-per-seed metrics and the digest are taken over exactly these.
pub const MIN_SLICES: usize = 32;

/// Deliberate driver faults, for proving the output checks fire
/// (`--sabotage`, used by `tests/checks.rs` only).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sabotage {
    /// `establish_storm`: a gateway answers one garbage hello as if it
    /// had been accepted.
    AcceptGarbageHello,
    /// `bulk_xfer`: one byte of a received file is flipped before the
    /// comparison.
    FlipTransferByte,
    /// `ogsa_request`: the unauthorised caller's request is sent with
    /// the authorised caller's session, so it is served.
    AcceptUnauthorised,
    /// `vo_flows`: no retransmission, so lost legs fail their flows.
    FailValidOp,
    /// Any workload: set-up instance *j* runs slice *j* instead of
    /// slice 0, so instances built from one seed disagree.
    Nondeterministic,
}

impl Sabotage {
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "accept-garbage-hello" => Sabotage::AcceptGarbageHello,
            "flip-transfer-byte" => Sabotage::FlipTransferByte,
            "accept-unauthorised" => Sabotage::AcceptUnauthorised,
            "fail-valid-op" => Sabotage::FailValidOp,
            "nondeterministic" => Sabotage::Nondeterministic,
            _ => return None,
        })
    }
}

/// What a workload is built from.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    pub seed: u64,
    pub sabotage: Option<Sabotage>,
}

impl Config {
    pub fn new(seed: u64) -> Self {
        Config {
            seed,
            sabotage: None,
        }
    }
}

/// The seed slice `index` derives its inputs from. Slice 0 uses the run
/// seed itself, which is what lets the parity tests compare slice 0
/// with the recorded storms at the same seed.
pub fn slice_seed(seed: u64, index: u64) -> u64 {
    seed.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// What one slice did and observed.
#[derive(Clone, Debug, Default)]
pub struct SliceOutcome {
    /// Ops attempted: valid ops plus scripted refusals.
    pub attempted: u64,
    /// Valid ops that completed with a checked result.
    pub ok: u64,
    /// Valid ops that failed plus scripted refusals that were served.
    pub failed: u64,
    /// Application payload bytes moved by the `ok` ops.
    pub payload_bytes: u64,
    /// Bytes put on the (simulated) wire.
    pub wire_bytes: u64,
    /// Messages / tokens / records sent, retransmissions included.
    pub msgs: u64,
    /// Fold of every observable result of the slice.
    pub digest: [u8; 32],
    /// Wall time of each op, closed-loop workloads only.
    pub op_ns: Vec<u64>,
    /// Closed-loop workloads: time spent inside ops, which is what the
    /// slice's rate is taken over — the one client's think time
    /// (building inputs, checking outputs) is the benchmark's, not the
    /// program's. Batch workloads leave 0 and the whole slice counts.
    pub busy_ns: u64,
    /// Counts taken at layer boundaries (scheduler steps, waves, cache
    /// hits…), for the ledger. A name may repeat: the ledger sums the
    /// entries or takes their median, as the metric says.
    pub counts: Vec<(&'static str, u64)>,
}

/// One of the five workloads.
pub trait Workload: Sized {
    const NAME: &'static str;
    /// Closed loop (one client, next op after the previous completes)
    /// or batch (one cohort run to quiescence).
    const CLOSED_LOOP: bool;
    /// Build the world from the seed.
    fn build(cfg: &Config) -> Self;
    /// Run slice `index`; slices may be run in any order and repeated.
    fn slice(&mut self, index: u64) -> SliceOutcome;
}

/// Incremental SHA-256 fold used for slice and run digests.
pub struct Digest(Sha256);

impl Digest {
    pub fn new(label: &str) -> Self {
        let mut d = Digest(Sha256::new());
        d.bytes(label.as_bytes());
        d
    }
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.0.update(&v.to_be_bytes());
        self
    }
    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        self.0.update(&(b.len() as u64).to_be_bytes());
        self.0.update(b);
        self
    }
    pub fn finish(self) -> [u8; 32] {
        self.0.finalize()
    }
}

/// The tally of one closed-loop slice: every op is timed on its own,
/// checked, and folded into the slice digest.
pub struct ClosedLoop {
    pub out: SliceOutcome,
    pub digest: Digest,
    /// Ops issued so far; also the op id of the next span.
    pub n: u64,
}

impl ClosedLoop {
    pub fn new(label: &str) -> Self {
        ClosedLoop {
            out: SliceOutcome::default(),
            digest: Digest::new(label),
            n: 0,
        }
    }

    /// Run one op inside a span named `name`. `check` turns the result
    /// into the payload bytes it moved, or `None` when it is wrong.
    pub fn op<R>(
        &mut self,
        name: &'static str,
        f: impl FnOnce() -> R,
        check: impl FnOnce(&R, &mut Digest) -> Option<u64>,
    ) -> R {
        let t = Instant::now();
        let r = crate::span::span(name, self.n, f);
        let ns = t.elapsed().as_nanos() as u64;
        self.out.busy_ns += ns;
        self.out.attempted += 1;
        self.n += 1;
        match check(&r, &mut self.digest) {
            Some(bytes) => {
                self.out.ok += 1;
                self.out.payload_bytes += bytes;
                self.out.op_ns.push(ns);
            }
            None => self.out.failed += 1,
        }
        r
    }

    /// Run work the client waits for but that is not an op (sign-on,
    /// connect): spanned and counted as busy time, not as an op.
    pub fn aside<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = crate::span::span(name, self.n, f);
        self.out.busy_ns += t.elapsed().as_nanos() as u64;
        r
    }

    /// Close the slice with what crossed the wire.
    pub fn finish(mut self, wire_bytes: u64, msgs: u64) -> SliceOutcome {
        self.out.wire_bytes = wire_bytes;
        self.out.msgs = msgs;
        self.digest
            .u64(self.out.ok)
            .u64(self.out.failed)
            .u64(wire_bytes)
            .u64(msgs);
        self.out.digest = self.digest.finish();
        self.out
    }
}

pub fn hex(bytes: &[u8]) -> String {
    bytes.iter().fold(String::new(), |mut s, b| {
        let _ = write!(s, "{b:02x}");
        s
    })
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile (0..=1) by linear interpolation between order
/// statistics; 0 for no values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let Some(last) = v.len().checked_sub(1) else {
        return 0.0;
    };
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let below = pos.floor() as usize;
    let above = (below + 1).min(last);
    v[below] + (pos - below as f64) * (v[above] - v[below])
}

/// The quantile of the slices' quiet readings a timing metric is taken
/// at: this share of the slices read faster (for a rate: 1 − this share
/// read slower). Slices differ in their work — `gram_submit`'s by ±8 %,
/// an RSA key search taking a random number of candidates — so the
/// fastest slice would be the luckiest one; and a slice disturbed in
/// every segment reads slow, so the median would lean on the noise. A
/// quarter keeps clear of both.
pub const QUIET: f64 = 0.25;

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (exclusive method), so the spreads printed here are the
/// ones the acceptance rule computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    (at(1), at(3))
}

/// `p` in 0..=100 over integer samples (nearest rank).
pub fn percentile_ns(samples: &mut [u64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1] as f64
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// One named metric value.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Every end-to-end metric, in the order it is printed, with its unit.
/// `tests/contract.rs` holds this equal to `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("goodput_mib_s", "MiB/s"),
    ("wire_bytes_per_op", "B"),
    ("msgs_per_op", "count"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// The end-to-end result of one untraced run of one workload.
#[derive(Clone, Debug)]
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Distinct slices every segment reached, and readings taken in all.
    pub slices: usize,
    pub readings: usize,
    /// Ops per slice behind each slice's median op latency (closed
    /// loop); 0 for batch workloads, whose slices give one time per op.
    pub p50_n: usize,
    pub ops_per_s_q: (f64, f64),
    /// Seconds each reading's rate was taken over, in the order run:
    /// segment by segment, slice 1 first in each.
    pub slice_s: Vec<f64>,
    /// Slices each segment ran.
    pub segment_slices: Vec<usize>,
    /// The reference kernel's reading before each slice, in that order.
    pub reference_s: Vec<f64>,
    /// Each segment's machine reading over [`reference::NOMINAL_S`]: the
    /// factor its times were divided by.
    pub machine_factors: Vec<f64>,
    /// `ops_per_s` as it would read without the machine factors.
    pub ops_per_s_as_clocked: f64,
    pub digest: String,
    pub metrics: Vec<Metric>,
    /// Why `correct` is false, one line each.
    pub problems: Vec<String>,
}

/// How long to measure.
#[derive(Clone, Copy, Debug)]
pub enum Length {
    Seconds(f64),
    Slices(usize),
}

/// The set-ups of one run: builds each world, runs slice 0 on it, times
/// both, and holds every instance to the first one's slice-0 digest.
struct SetUps {
    times: Vec<f64>,
    first_digest: Option<[u8; 32]>,
}

impl SetUps {
    /// Replace `world` with a freshly set-up one.
    fn next<W: Workload>(
        &mut self,
        cfg: &Config,
        world: &mut Option<W>,
        problems: &mut Vec<String>,
    ) {
        // One instance at a time: a world's `CryptoPool`s register
        // thread-local precomputation and unregister it when dropped,
        // so an older instance dropped after a newer one was built
        // would strip the newer one's tables.
        drop(world.take());
        let j = self.times.len();
        let t = Instant::now();
        let mut w = W::build(cfg);
        let index = match cfg.sabotage {
            Some(Sabotage::Nondeterministic) => j as u64,
            _ => 0,
        };
        let out = w.slice(index);
        self.times.push(t.elapsed().as_secs_f64());
        if out.failed > 0 {
            problems.push(format!("set-up {j}: {} op(s) failed", out.failed));
        }
        match self.first_digest {
            None => self.first_digest = Some(out.digest),
            Some(first) if first != out.digest => problems.push(format!(
                "set-ups 0 and {j}, built from one seed, disagree: {} vs {}",
                hex(&first[..8]),
                hex(&out.digest[..8])
            )),
            Some(_) => {}
        }
        *world = Some(w);
    }
}

/// Run one slice and return it with the seconds its rate is taken over.
pub fn timed_slice<W: Workload>(world: &mut W, index: u64) -> (SliceOutcome, f64) {
    let t = Instant::now();
    let out = world.slice(index);
    let wall = match out.busy_ns {
        0 => t.elapsed().as_secs_f64(),
        busy => busy as f64 / 1e9,
    };
    (out, wall)
}

/// The readings of one slice: the same work, once per segment.
struct Readings {
    first: SliceOutcome,
    walls: Vec<f64>,
    /// Per reading: the median op when ops are timed one by one (closed
    /// loop), else the slice's time per op; microseconds.
    p50s_us: Vec<f64>,
}

/// The quiet reading of one slice: the fastest of its readings, each
/// first divided by its segment's machine factor.
fn fastest(readings: &[f64], factors: &[f64]) -> f64 {
    readings
        .iter()
        .zip(factors)
        .map(|(r, f)| r / f)
        .fold(f64::INFINITY, f64::min)
}

/// The quantile of a segment's reference readings that is its machine
/// reading: low, because bursts shorter than a slice hit single
/// readings and the slices' own fastest-of-five already sheds those.
const REFERENCE_QUIET: f64 = 0.1;

/// One full untraced run.
pub fn run<W: Workload>(cfg: &Config, length: Length) -> RunResult {
    let mut problems = Vec::new();
    let mut set_ups = SetUps {
        times: Vec::with_capacity(SETUPS),
        first_digest: None,
    };
    let mut world: Option<W> = None;
    // `slices[i]` holds the readings of slice i + 1.
    let mut slices: Vec<Readings> = Vec::new();
    let mut slice_s: Vec<f64> = Vec::new();
    let mut segment_slices: Vec<usize> = Vec::with_capacity(SETUPS);
    // Per segment: the machine's speed against the quiet box's, from the
    // reference kernel read before each slice.
    let mut machine_factors: Vec<f64> = Vec::with_capacity(SETUPS);
    let mut reference_s: Vec<f64> = Vec::new();
    let (mut attempted, mut failed, mut disagreed) = (0u64, 0u64, 0u64);
    for _segment in 0..SETUPS {
        set_ups.next(cfg, &mut world, &mut problems);
        let world = world.as_mut().expect("just set up");
        let started = Instant::now();
        let first_reference = reference_s.len();
        for i in 0.. {
            let more = match length {
                Length::Slices(n) => i < n.max(1),
                Length::Seconds(s) => {
                    i < MIN_SLICES || started.elapsed().as_secs_f64() < s / SETUPS as f64
                }
            };
            if !more {
                segment_slices.push(i);
                break;
            }
            reference_s.push(reference::read());
            let (out, wall) = timed_slice(world, i as u64 + 1);
            attempted += out.attempted;
            failed += out.failed;
            slice_s.push(wall);
            let p50_us = if W::CLOSED_LOOP {
                percentile_ns(&mut out.op_ns.clone(), 50.0) / 1e3
            } else {
                wall * 1e6 / out.ok.max(1) as f64
            };
            match slices.get_mut(i) {
                None => slices.push(Readings {
                    first: out,
                    walls: vec![wall],
                    p50s_us: vec![p50_us],
                }),
                Some(r) => {
                    disagreed += u64::from(r.first.digest != out.digest);
                    r.walls.push(wall);
                    r.p50s_us.push(p50_us);
                }
            }
        }
        machine_factors.push(
            quantile(&reference_s[first_reference..], REFERENCE_QUIET) / reference::NOMINAL_S,
        );
    }
    let readings = slice_s.len();
    if failed > 0 {
        problems.push(format!("{failed} of {attempted} ops failed their check"));
    }
    if disagreed > 0 {
        problems.push(format!(
            "{disagreed} slice readings differ from the first reading of the same (seed, index)"
        ));
    }
    // A slice counts when every segment reached it: `SETUPS` readings
    // of the same work, of which the fastest is the quiet one.
    slices.retain(|r| r.walls.len() == SETUPS);

    let factors = &machine_factors[..];
    let rates: Vec<f64> = slices
        .iter()
        .map(|r| r.first.ok as f64 / fastest(&r.walls, factors))
        .collect();
    let goodputs: Vec<f64> = slices
        .iter()
        .map(|r| r.first.payload_bytes as f64 / (1024.0 * 1024.0) / fastest(&r.walls, factors))
        .collect();
    let p50s_us: Vec<f64> = slices
        .iter()
        .map(|r| fastest(&r.p50s_us, factors))
        .collect();
    // What `ops_per_s` would read without the machine factors, for the
    // record: the same statistic on the times as the clock gave them.
    let as_clocked: Vec<f64> = slices
        .iter()
        .map(|r| r.first.ok as f64 / fastest(&r.walls, &[1.0; SETUPS]))
        .collect();
    let ops_per_s_as_clocked = quantile(&as_clocked, 1.0 - QUIET);
    let p50_n = match slices.first() {
        Some(r) if W::CLOSED_LOOP => r.first.op_ns.len(),
        _ => 0,
    };

    // Exact-per-seed figures: a fixed prefix of slices.
    let fixed = &slices[..slices.len().min(MIN_SLICES)];
    let fixed_ok: u64 = fixed.iter().map(|r| r.first.ok).sum::<u64>().max(1);
    let wire: u64 = fixed.iter().map(|r| r.first.wire_bytes).sum();
    let msgs: u64 = fixed.iter().map(|r| r.first.msgs).sum();
    let mut run_digest = Digest::new(W::NAME);
    for r in fixed {
        run_digest.bytes(&r.first.digest);
    }
    // The set-up is read five times like any slice: same rule.
    let setup_s = fastest(&set_ups.times, factors);

    let values = [
        quantile(&rates, 1.0 - QUIET),
        quantile(&p50s_us, QUIET),
        quantile(&goodputs, 1.0 - QUIET),
        wire as f64 / fixed_ok as f64,
        msgs as f64 / fixed_ok as f64,
        peak_rss_mib(),
        setup_s,
    ];
    let metrics: Vec<Metric> = END_TO_END
        .iter()
        .zip(values)
        .map(|((name, unit), value)| metric(name, unit, value))
        .collect();
    for m in &metrics {
        if !(m.value.is_finite() && m.value > 0.0) {
            problems.push(format!("metric {} is not a positive number", m.name));
        }
    }

    RunResult {
        workload: W::NAME,
        seed: cfg.seed,
        correct: problems.is_empty(),
        attempted,
        failed,
        slices: slices.len(),
        readings,
        p50_n,
        ops_per_s_q: quartiles(&rates),
        slice_s,
        segment_slices,
        reference_s,
        machine_factors,
        ops_per_s_as_clocked,
        digest: hex(&run_digest.finish()),
        metrics,
        problems,
    }
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // A metric that could not be taken already made the run
            // incorrect; keep the line valid JSON all the same.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn contract_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        json_metrics(metrics)
    )
}

impl RunResult {
    /// The richer record `--json-out` writes (what `check_repeat.sh`
    /// compares): the contract fields plus digest, slice count and the
    /// quartiles of the headline rate.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"correct\": {}, \"attempted\": {}, \
             \"failed\": {}, \"slices\": {}, \"readings\": {}, \"op_p50_n\": {}, \"ops_per_s_q1\": {}, \
             \"ops_per_s_q3\": {}, \"digest\": \"{}\", \"machine_factors\": {:?}, \"ops_per_s_as_clocked\": {}, \
             \"segment_slices\": {:?}, \"slice_s\": {:?}, \"reference_s\": {:?}, \"metrics\": {}}}",
            self.workload,
            self.seed,
            self.correct,
            self.attempted,
            self.failed,
            self.slices,
            self.readings,
            self.p50_n,
            self.ops_per_s_q.0,
            self.ops_per_s_q.1,
            self.digest,
            self.machine_factors,
            self.ops_per_s_as_clocked,
            self.segment_slices,
            self.slice_s,
            self.reference_s,
            json_metrics(&self.metrics)
        )
    }

    /// Human-readable block.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {} seed={} slices={} readings={} attempted={} failed={} fail_share={} digest={}",
            self.workload,
            self.seed,
            self.slices,
            self.readings,
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64,
            &self.digest[..16]
        );
        let factors: Vec<String> = self
            .machine_factors
            .iter()
            .map(|f| format!("{f:.3}"))
            .collect();
        let _ = writeln!(
            out,
            "  machine factor per segment (reference kernel / nominal): {}",
            factors.join(" ")
        );
        for m in &self.metrics {
            let note = match m.name {
                "ops_per_s" => format!(
                    "  (quiet quartile of {} slices, quartiles {:.1} .. {:.1}; as clocked {:.1})",
                    self.slices, self.ops_per_s_q.0, self.ops_per_s_q.1, self.ops_per_s_as_clocked
                ),
                "op_p50_us" if self.p50_n > 0 => {
                    format!(
                        "  (quiet quartile of per-slice medians, n={} ops each)",
                        self.p50_n
                    )
                }
                "op_p50_us" => "  (quiet quartile of per-slice time per op)".to_string(),
                _ => String::new(),
            };
            let _ = writeln!(out, "  {:<20} {:>14.4} {}{}", m.name, m.value, m.unit, note);
        }
        for p in &self.problems {
            let _ = writeln!(out, "  INCORRECT: {p}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert_eq!(median(&v), 5.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
        assert!((quantile(&v, 0.9) - 9.1).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), 0.0);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_ns(&mut v, 50.0), 50.0);
        assert_eq!(percentile_ns(&mut v, 99.0), 99.0);
        assert_eq!(percentile_ns(&mut [], 50.0), 0.0);
    }

    #[test]
    fn slice_zero_uses_the_run_seed() {
        assert_eq!(slice_seed(0xC57, 0), 0xC57);
        assert_ne!(slice_seed(0xC57, 1), slice_seed(0xC57, 2));
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let line = contract_line(true, 10, 0, &[metric("setup_s", "s", 0.5)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
