//! Tests for the deterministic trace subsystem: span nesting and
//! parent-id invariants, histogram bucket math, ring bounding, metric
//! snapshots, and byte-identical dumps under a manual clock.

use gridsec_util::trace::{self, bucket_index, bucket_upper, Histogram, MetricsSnapshot, Tracer};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

fn manual_clock(tracer: &Tracer) -> Rc<Cell<u64>> {
    let t = Rc::new(Cell::new(0));
    let tt = t.clone();
    tracer.set_clock(move || tt.get());
    t
}

#[test]
fn span_ids_are_sequential_and_parents_nest() {
    let tr = Tracer::new();
    let _g = trace::install(&tr);
    let a = trace::span("a");
    assert_eq!(a.id(), 1);
    let b = trace::span("b");
    assert_eq!(b.id(), 2);
    drop(b);
    let c = trace::span("c");
    assert_eq!(c.id(), 3);
    drop(c);
    drop(a);
    let d = trace::span("d");
    assert_eq!(d.id(), 4);
    drop(d);

    let dump = tr.dump();
    // b and c are children of a; d is a root again after a closed.
    assert!(dump.contains("open #1 parent=#0 a"), "{dump}");
    assert!(dump.contains("open #2 parent=#1 b"), "{dump}");
    assert!(dump.contains("open #3 parent=#1 c"), "{dump}");
    assert!(dump.contains("open #4 parent=#0 d"), "{dump}");
}

#[test]
fn every_open_has_matching_close_and_events_carry_enclosing_span() {
    let tr = Tracer::new();
    let _g = trace::install(&tr);
    {
        let _a = trace::span("outer");
        trace::event("step1", "");
        {
            let _b = trace::span_with("inner", "peer=cas");
            trace::event("step2", "detail");
        }
        trace::event("step3", "");
    }
    let dump = tr.dump();
    let opens = dump.matches(" open #").count();
    let closes = dump.matches(" close #").count();
    assert_eq!(opens, 2, "{dump}");
    assert_eq!(closes, 2, "{dump}");
    assert!(dump.contains("event #1 step1"), "{dump}");
    assert!(dump.contains("event #2 step2 detail"), "{dump}");
    assert!(dump.contains("event #1 step3"), "{dump}");
    assert!(dump.contains("open #2 parent=#1 inner peer=cas"), "{dump}");
    // Close lines appear innermost-first.
    let inner_close = dump.find("close #2 inner").unwrap();
    let outer_close = dump.find("close #1 outer").unwrap();
    assert!(inner_close < outer_close);
}

#[test]
fn failed_spans_record_error_outcome() {
    let tr = Tracer::new();
    let _g = trace::install(&tr);
    let err: Result<(), String> = trace::spanned("doomed", || Err("boom".to_string()));
    assert!(err.is_err());
    let dump = tr.dump();
    assert!(dump.contains("close #1 doomed dur=0 err:boom"), "{dump}");
}

#[test]
fn histogram_bucket_math() {
    // Bucket 0 holds only zero; bucket i >= 1 holds [2^(i-1), 2^i - 1].
    assert_eq!(bucket_index(0), 0);
    assert_eq!(bucket_index(1), 1);
    assert_eq!(bucket_index(2), 2);
    assert_eq!(bucket_index(3), 2);
    assert_eq!(bucket_index(4), 3);
    assert_eq!(bucket_index(7), 3);
    assert_eq!(bucket_index(8), 4);
    assert_eq!(bucket_index(u64::MAX), 64);
    for i in 1..64usize {
        // Boundaries: 2^(i-1) and 2^i - 1 land in bucket i.
        assert_eq!(bucket_index(1u64 << (i - 1)), i);
        assert_eq!(bucket_index((1u64 << i) - 1), i);
    }
    assert_eq!(bucket_upper(0), 0);
    assert_eq!(bucket_upper(1), 1);
    assert_eq!(bucket_upper(3), 7);
    assert_eq!(bucket_upper(64), u64::MAX);
}

#[test]
fn histogram_summary_and_quantiles() {
    let mut h = Histogram::default();
    for v in [0u64, 1, 2, 3, 4, 100] {
        h.record(v);
    }
    let s = h.summary();
    assert_eq!(s.count, 6);
    assert_eq!(s.sum, 110);
    assert_eq!(s.min, 0);
    assert_eq!(s.max, 100);
    // Median rank 3 -> value 2, bucket [2,3] -> upper bound 3.
    assert_eq!(s.median, 3);
    // p95 rank 6 -> value 100, bucket [64,127] -> upper 127 clamped to max.
    assert_eq!(s.p95, 100);
    // Empty histogram is all-zero.
    assert_eq!(Histogram::default().summary(), Default::default());
    // Single value: every quantile is that value (clamped both ways).
    let mut one = Histogram::default();
    one.record(5);
    assert_eq!(one.quantile(0.0), 5);
    assert_eq!(one.quantile(0.5), 5);
    assert_eq!(one.quantile(1.0), 5);
}

#[test]
fn flight_ring_is_bounded_and_counts_evictions() {
    let tr = Tracer::with_capacity(4);
    let _g = trace::install(&tr);
    for i in 0..10 {
        trace::event(&format!("e{i}"), "");
    }
    let dump = tr.dump();
    assert!(dump.starts_with("trace entries=4 evicted=6\n"), "{dump}");
    assert!(dump.contains("e9"), "{dump}");
    assert!(!dump.contains("e5 "), "{dump}");
}

#[test]
fn counters_and_histograms_snapshot_deterministically() {
    let tr = Tracer::new();
    let _g = trace::install(&tr);
    trace::add("rpc.retransmits", 2);
    trace::add("rpc.retransmits", 3);
    trace::add("bytes.sent", 512);
    trace::record("latency.secs", 7);
    trace::record("latency.secs", 9);
    let m = tr.metrics();
    assert_eq!(m.counters["rpc.retransmits"], 5);
    assert_eq!(m.counters["bytes.sent"], 512);
    assert_eq!(m.hists["latency.secs"].count, 2);
    assert_eq!(m.hists["latency.secs"].sum, 16);
    // BTreeMap ordering makes the render stable: bytes before rpc.
    let rendered = m.render();
    let bytes_at = rendered.find("counter bytes.sent").unwrap();
    let rpc_at = rendered.find("counter rpc.retransmits").unwrap();
    assert!(bytes_at < rpc_at, "{rendered}");
}

#[test]
fn snapshot_prefix_and_merge() {
    let tr = Tracer::new();
    tr.add("calls", 1);
    tr.record("lat", 4);
    let a = tr.metrics().prefixed("fig1");
    assert!(a.counters.contains_key("fig1.calls"));
    assert!(a.hists.contains_key("fig1.lat"));
    let mut merged = MetricsSnapshot::default();
    merged.merge(&a);
    merged.merge(&tr.metrics().prefixed("fig2"));
    assert_eq!(merged.counters.len(), 2);
    assert_eq!(merged.hists.len(), 2);
    // Counter collision adds.
    merged.merge(&a);
    assert_eq!(merged.counters["fig1.calls"], 2);
}

#[test]
fn identical_runs_produce_byte_identical_dumps() {
    let run = || {
        let tr = Tracer::new();
        let clock = manual_clock(&tr);
        let _g = trace::install(&tr);
        {
            let mut s = trace::span_with("handshake", "peer=svc");
            clock.set(3);
            trace::event("token", "len=42");
            trace::add("bytes", 42);
            clock.set(5);
            s.fail("timeout");
        }
        clock.set(8);
        {
            let _s = trace::span("retry");
            trace::record("backoff.secs", 16);
        }
        format!("{}{}", tr.dump(), tr.metrics().render())
    };
    let first = run();
    let second = run();
    assert_eq!(first, second);
    assert!(first.contains("[t=5] close #1 handshake dur=5 err:timeout"));
}

#[test]
fn install_guard_restores_previous_tracer() {
    let outer = Tracer::new();
    let inner = Tracer::new();
    let _g1 = trace::install(&outer);
    {
        let _g2 = trace::install(&inner);
        trace::event("inner-only", "");
    }
    trace::event("outer-only", "");
    assert!(inner.dump().contains("inner-only"));
    assert!(!inner.dump().contains("outer-only"));
    assert!(outer.dump().contains("outer-only"));
    assert!(!outer.dump().contains("inner-only"));
}

#[test]
fn flight_dump_writes_configured_path() {
    let dir = std::env::temp_dir().join("gridsec-trace-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("flight-{}.txt", std::process::id()));
    let tr = Tracer::new();
    tr.set_flight_path(path.to_string_lossy().to_string());
    tr.event("last-words", "budget exhausted");
    tr.add("attempts", 8);
    let dumped = tr.flight_dump("retry budget exhausted");
    let on_disk = std::fs::read_to_string(&path).unwrap();
    assert_eq!(dumped, on_disk);
    assert!(on_disk.contains("flight recorder dump: retry budget exhausted"));
    assert!(on_disk.contains("last-words"));
    assert!(on_disk.contains("counter attempts = 8"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn panic_guard_dumps_ring_on_unwind() {
    let tr = Tracer::new();
    let dir = std::env::temp_dir().join("gridsec-trace-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("panic-{}.txt", std::process::id()));
    tr.set_flight_path(path.to_string_lossy().to_string());
    let tr2 = tr.clone();
    // A `RefCell` is not `RefUnwindSafe`; the tracer is only read after the unwind.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        let _dump = trace::dump_on_panic(&tr2, "chaos scenario");
        tr2.event("about-to-fail", "");
        panic!("assertion failed");
    }));
    assert!(result.is_err());
    let on_disk = std::fs::read_to_string(&path).unwrap();
    assert!(on_disk.contains("panic in chaos scenario"), "{on_disk}");
    assert!(on_disk.contains("about-to-fail"), "{on_disk}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn write_bench_json_emits_metrics_rows() {
    let dir = std::env::temp_dir().join(format!("gridsec-trace-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let tr = Tracer::new();
    tr.add("fig1.retransmits", 3);
    tr.record("fig1.handshake.secs", 12);
    let path = tr
        .metrics()
        .write_bench_json("trace_smoke", &dir.to_string_lossy())
        .unwrap();
    let body = std::fs::read_to_string(&path).unwrap();
    assert!(body.contains("\"group\": \"trace_smoke\""), "{body}");
    assert!(
        body.contains("{\"name\": \"fig1.retransmits\", \"kind\": \"counter\", \"value\": 3}"),
        "{body}"
    );
    assert!(
        body.contains("\"name\": \"fig1.handshake.secs\", \"kind\": \"hist\""),
        "{body}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sink_sees_events_with_span_names() {
    let tr = Tracer::new();
    let clock = manual_clock(&tr);
    let seen = Rc::new(RefCell::new(Vec::new()));
    let seen2 = seen.clone();
    tr.set_sink(Box::new(move |r| {
        seen2.borrow_mut().push((r.t, r.span, r.name, r.detail));
    }));
    let _g = trace::install(&tr);
    {
        let _s = trace::span("cas.fetch");
        clock.set(4);
        trace::event("assertion.issued", "user=alice");
    }
    let records = seen.borrow().clone();
    assert_eq!(
        records,
        vec![(
            4,
            "cas.fetch".to_string(),
            "assertion.issued".to_string(),
            "user=alice".to_string()
        )]
    );
}
