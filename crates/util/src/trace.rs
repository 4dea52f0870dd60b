//! Deterministic structured tracing, metrics, and flight recording.
//!
//! The observability backbone of the workspace (the paper's §4.1 "audit
//! and logging as first-class security services", made operational):
//! every security flow — GSS establishment, TLS redial, OGSA envelopes,
//! CAS fetches, the Figure-4 GRAM chain, RPC retransmission — opens
//! nested [`SpanGuard`]s and emits typed events through one [`Tracer`].
//!
//! Three properties distinguish this from a logging macro:
//!
//! * **Determinism.** Timestamps come from an injected clock closure
//!   (the testbed wires its `SimClock` in), span ids are sequential,
//!   and counters/histograms iterate in `BTreeMap` order — so a trace
//!   dump is a pure function of the scenario seed and replays
//!   byte-identically, exactly like the network fault transcripts.
//! * **Flight recorder.** Entries land in a bounded ring
//!   (capacity-evicted, eviction counted), and
//!   [`Tracer::flight_dump`] renders the ring on demand. The retry
//!   layers call [`flight_dump`] automatically when a retry budget is
//!   exhausted, and [`dump_on_panic`] arms a drop guard that dumps
//!   when a chaos assertion fails — so the last N events before any
//!   failure are always available.
//! * **Metrics.** Counters and exponential-bucket latency histograms
//!   accumulate per tracer; [`Tracer::metrics`] snapshots them and
//!   [`MetricsSnapshot::write_bench_json`] emits the `BENCH_*.json`
//!   shape the experiment pipeline (`regen_experiments`) consumes.
//!
//! Flows reach the tracer through a thread-local *current tracer*
//! ([`install`]), so protocol code calls free functions ([`span`],
//! [`event`], [`add`], [`record`]) without threading a handle through
//! every signature; with no tracer installed they are no-ops. Span
//! *events* (not opens/closes) can additionally be mirrored into an
//! external sink ([`Tracer::set_sink`]) — `gridsec-services` plugs its
//! hash-chained audit log in there.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt::Write as _;
use std::rc::Rc;

/// Default flight-recorder capacity (entries kept).
pub(crate) const DEFAULT_RING_CAPACITY: usize = 1024;

/// A monotonically-assigned span identifier (sequential per tracer, so
/// ids are deterministic under a deterministic execution order).
pub(crate) type SpanId = u64;

/// One record in the trace ring.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum TraceEntry {
    /// A span opened.
    Open {
        /// Clock time at open.
        t: u64,
        /// The span's id.
        id: SpanId,
        /// Parent span id (0 = root).
        parent: SpanId,
        /// Span name (dotted taxonomy, e.g. `gss.establish`).
        name: String,
        /// Free-form detail (peer name, op, …).
        detail: String,
    },
    /// A typed event inside the current span.
    Event {
        /// Clock time.
        t: u64,
        /// Enclosing span id (0 = no open span).
        span: SpanId,
        /// Event name.
        name: String,
        /// Free-form detail.
        detail: String,
    },
    /// A span closed.
    Close {
        /// Clock time at close.
        t: u64,
        /// The span's id.
        id: SpanId,
        /// Span name (repeated so a ring that evicted the open line is
        /// still readable).
        name: String,
        /// Duration in clock units.
        dur: u64,
        /// `ok`, or the failure detail set via [`SpanGuard::fail`].
        outcome: String,
    },
}

impl TraceEntry {
    /// Render one line of the canonical dump format.
    pub(crate) fn render(&self) -> String {
        match self {
            TraceEntry::Open {
                t,
                id,
                parent,
                name,
                detail,
            } => {
                if detail.is_empty() {
                    format!("[t={t}] open #{id} parent=#{parent} {name}")
                } else {
                    format!("[t={t}] open #{id} parent=#{parent} {name} {detail}")
                }
            }
            TraceEntry::Event {
                t,
                span,
                name,
                detail,
            } => {
                if detail.is_empty() {
                    format!("[t={t}] event #{span} {name}")
                } else {
                    format!("[t={t}] event #{span} {name} {detail}")
                }
            }
            TraceEntry::Close {
                t,
                id,
                name,
                dur,
                outcome,
            } => format!("[t={t}] close #{id} {name} dur={dur} {outcome}"),
        }
    }
}

/// An event record handed to the external sink (audit mirroring).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SinkRecord {
    /// Clock time of the event.
    pub t: u64,
    /// Name of the enclosing span (empty if none).
    pub span: String,
    /// Event name.
    pub name: String,
    /// Event detail.
    pub detail: String,
}

/// The sink callback type: receives every span event as it is recorded.
/// It runs while the tracer holds its sink, so it must not emit events
/// into the tracer that feeds it (a nested event panics with
/// `BorrowMutError`).
pub type TraceSink = Box<dyn FnMut(SinkRecord)>;

/// Exponential-bucket histogram over `u64` values.
///
/// Bucket 0 holds the value 0; bucket `i ≥ 1` holds values in
/// `[2^(i-1), 2^i - 1]` (so bucket index = 64 − leading zeros).
/// Quantiles are estimated as the upper bound of the bucket containing
/// the requested rank, clamped to the exact observed min/max.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

/// Bucket index for a value: 0 for 0, else `64 - leading_zeros`.
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive upper bound of a bucket (the quantile estimate it yields).
pub fn bucket_upper(index: usize) -> u64 {
    match index {
        0 => 0,
        64 => u64::MAX,
        i => (1u64 << i) - 1,
    }
}

impl Histogram {
    /// Record one value.
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Quantile estimate for `q` in `[0, 1]`: upper bound of the bucket
    /// holding the `ceil(q * count)`-th smallest value, clamped to the
    /// observed `[min, max]`. Returns 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Summary statistics.
    pub fn summary(&self) -> HistSummary {
        HistSummary {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0 } else { self.min },
            max: self.max,
            median: self.quantile(0.5),
            p95: self.quantile(0.95),
        }
    }
}

/// Point-in-time summary of one histogram.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistSummary {
    /// Recorded values.
    pub count: u64,
    /// Sum of values (saturating).
    pub sum: u64,
    /// Exact minimum (0 if empty).
    pub min: u64,
    /// Exact maximum.
    pub max: u64,
    /// Estimated median (bucket upper bound, clamped to min/max).
    pub median: u64,
    /// Estimated 95th percentile.
    pub p95: u64,
}

/// A deterministic snapshot of a tracer's counters and histograms.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram summaries by name.
    pub hists: BTreeMap<String, HistSummary>,
}

impl MetricsSnapshot {
    /// The same snapshot with every metric name prefixed `"{prefix}."`.
    pub fn prefixed(&self, prefix: &str) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, v)| (format!("{prefix}.{k}"), *v))
                .collect(),
            hists: self
                .hists
                .iter()
                .map(|(k, v)| (format!("{prefix}.{k}"), *v))
                .collect(),
        }
    }

    /// Merge `other` into `self` (counters add; histogram summaries on
    /// colliding names are replaced — merge prefixed snapshots to keep
    /// names disjoint).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.hists {
            self.hists.insert(k.clone(), *v);
        }
    }

    /// Render the metrics block of a dump: one line per metric, sorted.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "counter {name} = {v}");
        }
        for (name, h) in &self.hists {
            let _ = writeln!(
                out,
                "hist {name} count={} sum={} min={} median={} p95={} max={}",
                h.count, h.sum, h.min, h.median, h.p95, h.max
            );
        }
        out
    }

    /// Write this snapshot as `BENCH_<group>.json` into `dir` in the
    /// metrics-report shape `regen_experiments` consumes (one line per
    /// metric, names sorted — byte-identical for identical snapshots).
    /// Returns the path written.
    pub fn write_bench_json(&self, group: &str, dir: &str) -> std::io::Result<String> {
        std::fs::create_dir_all(dir)?;
        let path = format!("{dir}/BENCH_{group}.json");
        let mut rows: Vec<String> = Vec::new();
        for (name, v) in &self.counters {
            rows.push(format!(
                "    {{\"name\": \"{name}\", \"kind\": \"counter\", \"value\": {v}}}"
            ));
        }
        for (name, h) in &self.hists {
            rows.push(format!(
                "    {{\"name\": \"{name}\", \"kind\": \"hist\", \"count\": {}, \
                 \"sum\": {}, \"min\": {}, \"median\": {}, \"p95\": {}, \"max\": {}}}",
                h.count, h.sum, h.min, h.median, h.p95, h.max
            ));
        }
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"group\": \"{group}\",");
        out.push_str("  \"metrics\": [\n");
        out.push_str(&rows.join(",\n"));
        out.push_str("\n  ]\n}\n");
        std::fs::write(&path, out)?;
        Ok(path)
    }
}

struct OpenSpan {
    name: String,
    start: u64,
    outcome: Option<String>,
}

struct TraceState {
    next_id: SpanId,
    stack: Vec<SpanId>,
    open: HashMap<SpanId, OpenSpan>,
    ring: VecDeque<TraceEntry>,
    ring_capacity: usize,
    evicted: u64,
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, Histogram>,
}

impl Default for TraceState {
    fn default() -> Self {
        TraceState {
            next_id: 0,
            stack: Vec::new(),
            open: HashMap::new(),
            ring: VecDeque::new(),
            ring_capacity: DEFAULT_RING_CAPACITY,
            evicted: 0,
            counters: BTreeMap::new(),
            hists: BTreeMap::new(),
        }
    }
}

impl TraceState {
    fn push(&mut self, entry: TraceEntry) {
        if self.ring.len() == self.ring_capacity {
            self.ring.pop_front();
            self.evicted += 1;
        }
        self.ring.push_back(entry);
    }
}

type ClockFn = Rc<dyn Fn() -> u64>;

#[derive(Default)]
struct TracerInner {
    state: RefCell<TraceState>,
    clock: RefCell<Option<ClockFn>>,
    sink: RefCell<Option<TraceSink>>,
    flight_path: RefCell<Option<String>>,
}

/// A cloneable handle to one trace context (shared ring + metrics).
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Rc<TracerInner>,
}

impl Tracer {
    /// A tracer with the default ring capacity and a constant-zero
    /// clock (inject a real one with [`Tracer::set_clock`]).
    pub fn new() -> Self {
        Tracer::default()
    }

    /// A tracer whose flight ring keeps at most `capacity` entries.
    pub fn with_capacity(capacity: usize) -> Self {
        let t = Tracer::new();
        t.inner.state.borrow_mut().ring_capacity = capacity.max(1);
        t
    }

    /// Install the time source (the testbed passes a `SimClock` here:
    /// `tracer.set_clock(move || clock.now())`). Timestamps and span
    /// durations are read from it, so a simulated clock yields fully
    /// deterministic traces.
    pub fn set_clock(&self, clock: impl Fn() -> u64 + 'static) {
        *self.inner.clock.borrow_mut() = Some(Rc::new(clock));
    }

    /// Install the event sink: every span *event* (not open/close) is
    /// mirrored out as a [`SinkRecord`]. `gridsec-services` uses this
    /// to feed its hash-chained audit log.
    pub fn set_sink(&self, sink: TraceSink) {
        *self.inner.sink.borrow_mut() = Some(sink);
    }

    /// Write automatic flight dumps ([`Tracer::flight_dump`]) to this
    /// path as well as stderr.
    pub fn set_flight_path(&self, path: impl Into<String>) {
        *self.inner.flight_path.borrow_mut() = Some(path.into());
    }

    fn now(&self) -> u64 {
        let clock = self.inner.clock.borrow().clone();
        clock.map(|c| c()).unwrap_or(0)
    }

    /// Open a span; the returned guard closes it on drop. Spans nest:
    /// the parent is the innermost span still open on this tracer.
    pub(crate) fn span(&self, name: &str) -> SpanGuard {
        self.span_with(name, "")
    }

    /// Open a span carrying a detail string (peer name, op, …).
    pub(crate) fn span_with(&self, name: &str, detail: &str) -> SpanGuard {
        let t = self.now();
        let mut st = self.inner.state.borrow_mut();
        st.next_id += 1;
        let id = st.next_id;
        let parent = st.stack.last().copied().unwrap_or(0);
        st.stack.push(id);
        st.open.insert(
            id,
            OpenSpan {
                name: name.to_string(),
                start: t,
                outcome: None,
            },
        );
        st.push(TraceEntry::Open {
            t,
            id,
            parent,
            name: name.to_string(),
            detail: detail.to_string(),
        });
        SpanGuard {
            tracer: Some(self.clone()),
            id,
        }
    }

    fn close_span(&self, id: SpanId) {
        let t = self.now();
        let mut st = self.inner.state.borrow_mut();
        let Some(span) = st.open.remove(&id) else {
            return;
        };
        if let Some(pos) = st.stack.iter().rposition(|&s| s == id) {
            st.stack.remove(pos);
        }
        let dur = t.saturating_sub(span.start);
        let outcome = span.outcome.unwrap_or_else(|| "ok".to_string());
        st.push(TraceEntry::Close {
            t,
            id,
            name: span.name.clone(),
            dur,
            outcome,
        });
        st.hists
            .entry(format!("span.{}.secs", span.name))
            .or_default()
            .record(dur);
    }

    /// Record a typed event in the innermost open span (span id 0 if
    /// none), and mirror it to the sink if one is installed.
    pub fn event(&self, name: &str, detail: &str) {
        let t = self.now();
        let span_name = {
            let mut st = self.inner.state.borrow_mut();
            let span_id = st.stack.last().copied().unwrap_or(0);
            let span_name = st
                .open
                .get(&span_id)
                .map(|s| s.name.clone())
                .unwrap_or_default();
            st.push(TraceEntry::Event {
                t,
                span: span_id,
                name: name.to_string(),
                detail: detail.to_string(),
            });
            span_name
        };
        let mut sink = self.inner.sink.borrow_mut();
        if let Some(sink) = sink.as_mut() {
            sink(SinkRecord {
                t,
                span: span_name,
                name: name.to_string(),
                detail: detail.to_string(),
            });
        }
    }

    /// Add `delta` to the named counter.
    pub fn add(&self, counter: &str, delta: u64) {
        *self
            .inner
            .state
            .borrow_mut()
            .counters
            .entry(counter.to_string())
            .or_insert(0) += delta;
    }

    /// Record `value` into the named histogram.
    pub fn record(&self, hist: &str, value: u64) {
        self.inner
            .state
            .borrow_mut()
            .hists
            .entry(hist.to_string())
            .or_default()
            .record(value);
    }

    /// Snapshot counters and histograms.
    pub fn metrics(&self) -> MetricsSnapshot {
        let st = self.inner.state.borrow();
        MetricsSnapshot {
            counters: st.counters.clone(),
            hists: st
                .hists
                .iter()
                .map(|(k, v)| (k.clone(), v.summary()))
                .collect(),
        }
    }

    /// The ring contents as canonical dump lines (oldest first). The
    /// first line reports how many earlier entries were evicted.
    pub fn dump(&self) -> String {
        let st = self.inner.state.borrow();
        let mut out = format!("trace entries={} evicted={}\n", st.ring.len(), st.evicted);
        for e in &st.ring {
            out.push_str(&e.render());
            out.push('\n');
        }
        out
    }

    /// Render the flight-recorder dump (ring + metrics) under a reason
    /// header, write it to stderr and to the configured flight path (if
    /// any), and return it.
    pub fn flight_dump(&self, reason: &str) -> String {
        let mut out = format!("=== flight recorder dump: {reason} ===\n");
        out.push_str(&self.dump());
        out.push_str(&self.metrics().render());
        out.push_str("=== end flight recorder dump ===\n");
        eprintln!("{out}");
        let path = self.inner.flight_path.borrow().clone();
        if let Some(path) = path {
            if let Err(e) = std::fs::write(&path, &out) {
                eprintln!("trace: could not write flight dump to {path}: {e}");
            }
        }
        out
    }
}

/// RAII guard for one open span; closes it (recording duration and
/// outcome) on drop.
pub struct SpanGuard {
    tracer: Option<Tracer>,
    id: SpanId,
}

impl SpanGuard {
    /// A guard that does nothing (no tracer installed).
    pub(crate) fn noop() -> Self {
        SpanGuard {
            tracer: None,
            id: 0,
        }
    }

    /// This span's id (0 for a no-op guard).
    pub fn id(&self) -> SpanId {
        self.id
    }

    /// Mark the span failed: the close entry carries `err:{detail}`
    /// instead of `ok`.
    pub fn fail(&mut self, detail: &str) {
        if let Some(t) = &self.tracer {
            if let Some(span) = t.inner.state.borrow_mut().open.get_mut(&self.id) {
                span.outcome = Some(format!("err:{detail}"));
            }
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(t) = self.tracer.take() {
            t.close_span(self.id);
        }
    }
}

thread_local! {
    static CURRENT: RefCell<Vec<Tracer>> = const { RefCell::new(Vec::new()) };
}

/// Install `tracer` as this thread's current tracer until the returned
/// guard drops (installs nest; the previous tracer is restored).
#[must_use = "the tracer is uninstalled when the guard drops"]
pub fn install(tracer: &Tracer) -> InstallGuard {
    CURRENT.with(|c| c.borrow_mut().push(tracer.clone()));
    InstallGuard { _private: () }
}

/// Uninstalls the tracer installed by [`install`] on drop.
pub struct InstallGuard {
    _private: (),
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

/// The thread's current tracer, if one is installed.
pub fn current() -> Option<Tracer> {
    CURRENT.with(|c| c.borrow().last().cloned())
}

/// Open a span on the current tracer (no-op guard if none installed).
pub fn span(name: &str) -> SpanGuard {
    match current() {
        Some(t) => t.span(name),
        None => SpanGuard::noop(),
    }
}

/// Open a span with a detail string on the current tracer.
pub fn span_with(name: &str, detail: &str) -> SpanGuard {
    match current() {
        Some(t) => t.span_with(name, detail),
        None => SpanGuard::noop(),
    }
}

/// Record an event on the current tracer.
pub fn event(name: &str, detail: &str) {
    if let Some(t) = current() {
        t.event(name, detail);
    }
}

/// Add to a counter on the current tracer.
pub fn add(counter: &str, delta: u64) {
    if let Some(t) = current() {
        t.add(counter, delta);
    }
}

/// Record a histogram value on the current tracer.
pub fn record(hist: &str, value: u64) {
    if let Some(t) = current() {
        t.record(hist, value);
    }
}

/// Dump the current tracer's flight recorder (no-op if none installed).
/// The retry layers call this when a retry budget is exhausted.
pub fn flight_dump(reason: &str) {
    if let Some(t) = current() {
        t.flight_dump(reason);
    }
}

/// Arm a guard that dumps `tracer`'s flight recorder if the thread is
/// panicking when the guard drops — place one at the top of a chaos
/// scenario so a failed assertion ships the last N trace entries.
#[must_use = "the dump fires when the guard drops during a panic"]
pub fn dump_on_panic(tracer: &Tracer, context: &str) -> PanicDumpGuard {
    PanicDumpGuard {
        tracer: tracer.clone(),
        context: context.to_string(),
    }
}

/// Guard returned by [`dump_on_panic`].
pub struct PanicDumpGuard {
    tracer: Tracer,
    context: String,
}

impl Drop for PanicDumpGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.tracer
                .flight_dump(&format!("panic in {}", self.context));
        }
    }
}

/// Run `f` inside a span, marking the span failed (with the error's
/// `Display` rendering) if `f` returns `Err`.
pub fn spanned<T, E: std::fmt::Display>(
    name: &str,
    f: impl FnOnce() -> Result<T, E>,
) -> Result<T, E> {
    let mut sp = span(name);
    let result = f();
    if let Err(e) = &result {
        sp.fail(&e.to_string());
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_without_install() {
        // No tracer installed: all free functions are inert.
        let g = span("orphan");
        assert_eq!(g.id(), 0);
        event("nothing", "");
        add("c", 1);
        record("h", 1);
        assert!(current().is_none());
    }

    #[test]
    fn spans_nest_and_close_in_order() {
        let tr = Tracer::new();
        let _g = install(&tr);
        {
            let _a = span("outer");
            {
                let _b = span("inner");
            }
        }
        let dump = tr.dump();
        assert!(dump.contains("open #1 parent=#0 outer"), "{dump}");
        assert!(dump.contains("open #2 parent=#1 inner"), "{dump}");
        assert!(dump.contains("close #2 inner"), "{dump}");
        assert!(dump.contains("close #1 outer"), "{dump}");
    }

    #[test]
    fn ring_evicts_oldest() {
        let tr = Tracer::with_capacity(3);
        let _g = install(&tr);
        for i in 0..5 {
            event(&format!("e{i}"), "");
        }
        let dump = tr.dump();
        assert!(dump.starts_with("trace entries=3 evicted=2\n"), "{dump}");
        assert!(!dump.contains("e0"), "{dump}");
        assert!(dump.contains("e4"), "{dump}");
    }

    #[test]
    fn clock_drives_timestamps_and_durations() {
        let tr = Tracer::new();
        let t = Rc::new(std::cell::Cell::new(10));
        let tt = t.clone();
        tr.set_clock(move || tt.get());
        {
            let _s = tr.span("timed");
            t.set(17);
        }
        let dump = tr.dump();
        assert!(dump.contains("[t=10] open #1"), "{dump}");
        assert!(dump.contains("[t=17] close #1 timed dur=7 ok"), "{dump}");
        let m = tr.metrics();
        assert_eq!(m.hists["span.timed.secs"].max, 7);
    }

    #[test]
    fn sink_mirrors_events() {
        let tr = Tracer::new();
        let seen = Rc::new(RefCell::new(Vec::new()));
        let seen2 = seen.clone();
        tr.set_sink(Box::new(move |r| seen2.borrow_mut().push(r)));
        let _g = install(&tr);
        let _s = span("flow");
        event("decision", "permit");
        let records = seen.borrow().clone();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].span, "flow");
        assert_eq!(records[0].name, "decision");
        assert_eq!(records[0].detail, "permit");
    }
}
