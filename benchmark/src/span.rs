//! The benchmark's own span recorder.
//!
//! Spans are taken *from outside*: the drivers wrap each call into a
//! crate's public function in [`span`], so nothing inside the measured
//! program knows it is being traced and `gridsec_util::trace` stays
//! uninstalled. A span carries its name, start, end, the span that was
//! open when it began (its parent) and an op id; counts taken at the
//! same boundaries travel in `SliceOutcome::counts`, traced or not.
//! Everything lives in memory until [`finish`]. With the recorder off
//! (every untraced run) a span costs one thread-local flag read.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span; times are nanoseconds since [`start`].
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op: u64,
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    /// The innermost open span, [`NO_PARENT`] outside any.
    current: u32,
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Everything one traced interval recorded.
#[derive(Default)]
pub struct Recording {
    pub spans: Vec<Span>,
}

/// Begin recording on this thread.
pub fn start() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            current: NO_PARENT,
        })
    });
    ENABLED.with(|e| e.set(true));
}

/// Stop recording and hand back what was recorded.
pub fn finish() -> Recording {
    ENABLED.with(|e| e.set(false));
    RECORDER
        .with(|r| r.borrow_mut().take())
        .map(|r| Recording { spans: r.spans })
        .unwrap_or_default()
}

/// Run `f` inside a span named `name` for op `op`.
#[inline]
pub fn span<R>(name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
    if !ENABLED.with(Cell::get) {
        return f();
    }
    let idx = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let r = r.as_mut().expect("enabled implies a recorder");
        let idx = r.spans.len() as u32;
        let parent = std::mem::replace(&mut r.current, idx);
        let start_ns = r.epoch.elapsed().as_nanos() as u64;
        r.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        idx
    });
    let out = f();
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let r = r.as_mut().expect("enabled implies a recorder");
        let span = &mut r.spans[idx as usize];
        span.end_ns = r.epoch.elapsed().as_nanos() as u64;
        r.current = span.parent;
    });
    out
}

/// Per-name totals over a set of spans.
#[derive(Clone, Debug, Default)]
pub struct NameStats {
    pub count: u64,
    /// Σ (end − start).
    pub total_ns: u64,
    /// Σ (duration − time covered by direct children).
    pub self_ns: u64,
    /// Every duration, for percentiles — kept for whole-op spans only
    /// (names with `.op.`); a storm slice has too many of the others.
    pub durations_ns: Vec<u64>,
}

/// Aggregated view of one or more recordings.
#[derive(Default)]
pub struct Summary {
    pub by_name: BTreeMap<&'static str, NameStats>,
}

impl Summary {
    /// Fold one recording in.
    pub fn absorb(&mut self, rec: &Recording) {
        let mut child_ns = vec![0u64; rec.spans.len()];
        for s in &rec.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        for (s, children) in rec.spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = self.by_name.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(*children);
            if s.name.contains(".op.") {
                e.durations_ns.push(dur);
            }
        }
    }

    /// Fold another summary in.
    pub fn merge(&mut self, other: Summary) {
        for (name, s) in other.by_name {
            let e = self.by_name.entry(name).or_default();
            e.count += s.count;
            e.total_ns += s.total_ns;
            e.self_ns += s.self_ns;
            e.durations_ns.extend(s.durations_ns);
        }
    }

    pub fn stats(&self, name: &str) -> NameStats {
        self.by_name.get(name).cloned().unwrap_or_default()
    }

    /// Mean duration in nanoseconds (0 when the span never ran).
    pub fn mean_ns(&self, name: &str) -> f64 {
        let s = self.stats(name);
        if s.count == 0 {
            0.0
        } else {
            s.total_ns as f64 / s.count as f64
        }
    }
}

/// Most spans written per trace file; a storm slice records several
/// hundred thousand and the file is for reading one op's tree, not for
/// the totals (those come from [`Summary`]).
pub const DUMP_CAP: usize = 200_000;

/// Render a recording as JSON lines, one span per line.
pub fn to_jsonl(rec: &Recording) -> String {
    let mut out = String::new();
    for (i, s) in rec.spans.iter().take(DUMP_CAP).enumerate() {
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
            s.name, s.start_ns, s.end_ns, s.op
        );
    }
    if rec.spans.len() > DUMP_CAP {
        let _ = writeln!(out, "{{\"truncated\":{}}}", rec.spans.len() - DUMP_CAP);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        start();
        span("outer", 7, || {
            span("inner", 7, || std::hint::black_box(3 + 4));
            span("inner", 7, || std::hint::black_box(5 + 6));
        });
        let rec = finish();
        assert_eq!(rec.spans.len(), 3);
        assert_eq!(rec.spans[0].parent, NO_PARENT);
        assert_eq!(rec.spans[1].parent, 0);
        assert_eq!(rec.spans[2].op, 7);
        let mut sum = Summary::default();
        sum.absorb(&rec);
        let outer = sum.stats("outer");
        let inner = sum.stats("inner");
        assert_eq!(inner.count, 2);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        // Off again: nothing is recorded.
        span("late", 0, || ());
        assert!(finish().spans.is_empty());
        assert_eq!(to_jsonl(&rec).lines().count(), 3);
    }
}
