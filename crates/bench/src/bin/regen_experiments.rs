//! Rewrite the autogenerated results section of `EXPERIMENTS.md` from
//! the `BENCH_*.json` reports the in-tree bench runner emits.
//!
//! Usage (normally via `scripts/regen_experiments.sh`):
//!
//! ```text
//! regen_experiments --bench-dir target/bench-json --experiments EXPERIMENTS.md
//! ```
//!
//! The JSON is the fixed single-line-per-result format written by
//! `gridsec_util::bench` — parsed by hand here, keeping the workspace
//! free of serde. Only the blocks between the BEGIN/END markers are
//! touched; the curated prose above them stays under human control.
//!
//! Two kinds of report are recognized:
//!
//! * timing reports (a `"results"` array from `gridsec_util::bench`) —
//!   rendered into the BENCH RESULTS block;
//! * flow-metrics reports (a `"metrics"` array from
//!   `gridsec_util::trace::MetricsSnapshot::write_bench_json`, emitted
//!   by the `flow_metrics` bin) — rendered into the FLOW METRICS
//!   block. These are deterministic per chaos seed, so CI can diff the
//!   regenerated file against the committed one to catch drift. The
//!   `striped_xfer` metrics group is special-cased into the STRIPED
//!   GOODPUT block as a loss × parallelism goodput table, and the
//!   `vo_storm` / `crypto_storm` groups into the STORM THROUGHPUT
//!   block as a population / residency / throughput table (those
//!   reports come from the recorded full-scale artifacts under
//!   `bench-results/after/`, copied in by the shell wrapper, so the
//!   wall-clock figures are the pinned run, not a re-measurement).
//!
//! A block whose kind has no reports present is left untouched, so the
//! fast CI smoke (flow metrics only) never clobbers the timing tables.

use std::fmt::Write as _;
use std::path::Path;

const BEGIN: &str = "<!-- BEGIN AUTOGENERATED BENCH RESULTS -->";
const END: &str = "<!-- END AUTOGENERATED BENCH RESULTS -->";
const FLOW_BEGIN: &str = "<!-- BEGIN AUTOGENERATED FLOW METRICS -->";
const FLOW_END: &str = "<!-- END AUTOGENERATED FLOW METRICS -->";
const STRIPED_BEGIN: &str = "<!-- BEGIN AUTOGENERATED STRIPED GOODPUT -->";
const STRIPED_END: &str = "<!-- END AUTOGENERATED STRIPED GOODPUT -->";
const STORM_BEGIN: &str = "<!-- BEGIN AUTOGENERATED STORM THROUGHPUT -->";
const STORM_END: &str = "<!-- END AUTOGENERATED STORM THROUGHPUT -->";

#[derive(Debug, PartialEq)]
struct Row {
    name: String,
    median_ns: f64,
    p95_ns: f64,
    throughput_bytes: Option<u64>,
}

#[derive(Debug)]
struct Group {
    name: String,
    rows: Vec<Row>,
}

/// Pull the string value of `"key": "..."` out of a JSON line.
fn json_str(line: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\": \"");
    let start = line.find(&tag)? + tag.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

/// Pull the numeric (or `null`) value of `"key": ...` out of a JSON line.
fn json_num(line: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\": ");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    let token = rest[..end].trim();
    if token == "null" {
        return None;
    }
    token.parse().ok()
}

/// One row of a flow-metrics report: a counter or a histogram summary.
#[derive(Debug, PartialEq)]
enum Metric {
    Counter {
        name: String,
        value: u64,
    },
    Hist {
        name: String,
        count: u64,
        min: u64,
        median: u64,
        p95: u64,
        max: u64,
    },
}

#[derive(Debug)]
struct MetricsGroup {
    name: String,
    metrics: Vec<Metric>,
}

/// `true` if the report text is a flow-metrics report (has a
/// `"metrics"` array) rather than a timing report (`"results"`).
fn is_metrics_report(text: &str) -> bool {
    text.contains("\"metrics\":")
}

fn parse_metrics_report(text: &str) -> Option<MetricsGroup> {
    let mut name = None;
    let mut metrics = Vec::new();
    for line in text.lines() {
        if name.is_none() {
            name = json_str(line, "group");
        }
        let Some(metric_name) = json_str(line, "name") else {
            continue;
        };
        match json_str(line, "kind")?.as_str() {
            "counter" => metrics.push(Metric::Counter {
                name: metric_name,
                value: json_num(line, "value")? as u64,
            }),
            "hist" => metrics.push(Metric::Hist {
                name: metric_name,
                count: json_num(line, "count")? as u64,
                min: json_num(line, "min")? as u64,
                median: json_num(line, "median")? as u64,
                p95: json_num(line, "p95")? as u64,
                max: json_num(line, "max")? as u64,
            }),
            _ => return None,
        }
    }
    Some(MetricsGroup {
        name: name?,
        metrics,
    })
}

fn parse_report(text: &str) -> Option<Group> {
    let mut name = None;
    let mut rows = Vec::new();
    for line in text.lines() {
        if name.is_none() {
            name = json_str(line, "group");
        }
        if let Some(result_name) = json_str(line, "name") {
            rows.push(Row {
                name: result_name,
                median_ns: json_num(line, "median_ns")?,
                p95_ns: json_num(line, "p95_ns")?,
                throughput_bytes: json_num(line, "throughput_bytes").map(|b| b as u64),
            });
        }
    }
    Some(Group { name: name?, rows })
}

/// Human-scale a nanosecond figure the way the prose does (µs / ms / s).
fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        let v = format!("{:.3}", ns / 1_000.0);
        format!("{} µs", v.trim_end_matches('0').trim_end_matches('.'))
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

fn render(groups: &[Group]) -> String {
    let mut out = String::new();
    out.push_str(BEGIN);
    out.push_str("\n\n");
    out.push_str(
        "*Regenerated by `scripts/regen_experiments.sh` from the \
         `BENCH_*.json` reports; do not edit by hand.*\n",
    );
    for g in groups {
        let _ = write!(out, "\n### `{}`\n\n", g.name);
        out.push_str("| benchmark | median | p95 | throughput |\n");
        out.push_str("|---|---|---|---|\n");
        for r in &g.rows {
            let tp = match r.throughput_bytes {
                Some(b) if r.median_ns > 0.0 => {
                    let mib_s = b as f64 / (r.median_ns / 1e9) / (1024.0 * 1024.0);
                    format!("{mib_s:.1} MiB/s")
                }
                _ => "—".to_string(),
            };
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} |",
                r.name,
                fmt_ns(r.median_ns),
                fmt_ns(r.p95_ns),
                tp
            );
        }
    }
    out.push('\n');
    out.push_str(END);
    out
}

/// Render the FLOW METRICS block: counters and histogram summaries,
/// already name-sorted by the emitter, one table per group.
fn render_metrics(groups: &[MetricsGroup]) -> String {
    let mut out = String::new();
    out.push_str(FLOW_BEGIN);
    out.push_str("\n\n");
    out.push_str(
        "*Regenerated by the `flow_metrics` bin from the chaos scenarios \
         (seed `0xC4A05EED`); deterministic per seed — CI diffs this \
         section against the committed file. Latency units are simulated \
         `SimClock` seconds. Do not edit by hand.*\n",
    );
    for g in groups {
        let _ = write!(out, "\n### `{}` counters\n\n", g.name);
        out.push_str("| counter | value |\n|---|---|\n");
        for m in &g.metrics {
            if let Metric::Counter { name, value } = m {
                let _ = writeln!(out, "| {name} | {value} |");
            }
        }
        let _ = write!(out, "\n### `{}` latency histograms\n\n", g.name);
        out.push_str(
            "| histogram | count | min | median | p95 | max |\n|---|---|---|---|---|---|\n",
        );
        for m in &g.metrics {
            if let Metric::Hist {
                name,
                count,
                min,
                median,
                p95,
                max,
            } = m
            {
                let _ = writeln!(
                    out,
                    "| {name} | {count} | {min} | {median} | {p95} | {max} |"
                );
            }
        }
    }
    out.push('\n');
    out.push_str(FLOW_END);
    out
}

/// Render the STRIPED GOODPUT block: one row per `striped_xfer` grid
/// cell (`striped.l<permille>.<s<N>|adaptive>.*` counters), loss ×
/// parallelism, goodput in bytes per sim second.
fn render_striped(groups: &[MetricsGroup]) -> String {
    let mut out = String::new();
    out.push_str(STRIPED_BEGIN);
    out.push_str("\n\n");
    out.push_str(
        "*Regenerated by the `striped_xfer` bin; time is the world's sim \
         clock over a WAN with 1–4 s latency (DESIGN.md §14), so every \
         figure is a pure function of the seed — CI diffs this section \
         against the committed file. Do not edit by hand.*\n",
    );
    for g in groups {
        let mut bytes = 0u64;
        let mut cells: std::collections::BTreeMap<String, std::collections::BTreeMap<String, u64>> =
            std::collections::BTreeMap::new();
        for m in &g.metrics {
            let Metric::Counter { name, value } = m else {
                continue;
            };
            let Some(rest) = name.strip_prefix("striped.") else {
                continue;
            };
            if rest == "bytes" {
                bytes = *value;
                continue;
            }
            if let Some((cell, field)) = rest.rsplit_once('.') {
                cells
                    .entry(cell.to_string())
                    .or_default()
                    .insert(field.to_string(), *value);
            }
        }
        let _ = write!(
            out,
            "\n### `{}` goodput grid ({} bytes per cell)\n\n",
            g.name, bytes
        );
        out.push_str("| cell | loss | stripes | sim s | goodput (B/s) | tears | sessions |\n");
        out.push_str("|---|---|---|---|---|---|---|\n");
        for (cell, fields) in &cells {
            let (loss, stripes) = cell.split_once('.').unwrap_or(("?", "?"));
            let loss = loss
                .strip_prefix('l')
                .and_then(|p| p.parse::<u64>().ok())
                .map(|p| {
                    if p % 10 == 0 {
                        format!("{}%", p / 10)
                    } else {
                        format!("{}.{}%", p / 10, p % 10)
                    }
                })
                .unwrap_or_else(|| loss.to_string());
            let stripes = stripes.strip_prefix('s').unwrap_or(stripes);
            let f = |k: &str| {
                fields
                    .get(k)
                    .map(|v| v.to_string())
                    .unwrap_or_else(|| "—".to_string())
            };
            let _ = writeln!(
                out,
                "| {cell} | {loss} | {stripes} | {} | {} | {} | {} |",
                f("secs"),
                f("goodput_bps"),
                f("tears"),
                f("sessions"),
            );
        }
    }
    out.push('\n');
    out.push_str(STRIPED_END);
    out
}

/// Render the STORM THROUGHPUT block: one row per storm scenario
/// (`vo_storm`, `crypto_storm`), summarizing the recorded full-scale
/// artifact — population, finished/rejected flows, peak scheduler
/// residency, and the wall-clock throughput figures the storm bins
/// stamp into their BENCH json (`*_per_sec`, `*.wall_ms`).
fn render_storm(groups: &[MetricsGroup]) -> String {
    let mut out = String::new();
    out.push_str(STORM_BEGIN);
    out.push_str("\n\n");
    out.push_str(
        "*Regenerated from the recorded full-scale storm artifacts in \
         `bench-results/after/` (`BENCH_vo_storm.json`, \
         `BENCH_crypto_storm.json`); wall-clock figures are the pinned \
         run on the recording machine, every other column is a pure \
         function of the seed. Do not edit by hand.*\n",
    );
    out.push_str("\n| storm | principals | flows done | rejected | live high-water | wall | flows/s | msgs/s |\n");
    out.push_str("|---|---|---|---|---|---|---|---|\n");
    for g in groups {
        let mut counters: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
        for m in &g.metrics {
            if let Metric::Counter { name, value } = m {
                counters.insert(name.as_str(), *value);
            }
        }
        // The two storms use different metric prefixes and flow verbs
        // (`storm.flows.completed` vs `cstorm.flows.established`), so
        // select by suffix rather than hard-coding either prefix.
        let by_suffix = |suffix: &str| {
            counters
                .iter()
                .find(|(k, _)| k.ends_with(suffix))
                .map(|(_, v)| *v)
        };
        let num = |v: Option<u64>| v.map(|v| v.to_string()).unwrap_or_else(|| "—".to_string());
        let flows_done = by_suffix(".flows.completed").or_else(|| by_suffix(".flows.established"));
        let flow_rate = counters
            .iter()
            .find(|(k, _)| k.ends_with("_per_sec") && !k.ends_with("messages_per_sec"))
            .map(|(_, v)| *v);
        let wall = by_suffix(".wall_ms")
            .map(|ms| fmt_ns(ms as f64 * 1e6))
            .unwrap_or_else(|| "—".to_string());
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} | {} | {} |",
            g.name,
            num(by_suffix(".principals")),
            num(flows_done),
            num(by_suffix(".flows.rejected")),
            num(by_suffix(".live_high_water")),
            wall,
            num(flow_rate),
            num(by_suffix(".messages_per_sec")),
        );
    }
    out.push('\n');
    out.push_str(STORM_END);
    out
}

/// Replace the block delimited by `begin`/`end` in `doc` with `section`.
fn splice_between(doc: &str, begin: &str, end: &str, section: &str) -> Result<String, String> {
    let begin_at = doc
        .find(begin)
        .ok_or_else(|| format!("missing marker {begin:?} in EXPERIMENTS.md"))?;
    let end_at = doc
        .find(end)
        .ok_or_else(|| format!("missing marker {end:?} in EXPERIMENTS.md"))?;
    if end_at < begin_at {
        return Err("END marker precedes BEGIN marker".to_string());
    }
    let after = end_at + end.len();
    Ok(format!("{}{}{}", &doc[..begin_at], section, &doc[after..]))
}

/// Replace the timing-results block in `doc` with `section`.
fn splice(doc: &str, section: &str) -> Result<String, String> {
    splice_between(doc, BEGIN, END, section)
}

fn run(bench_dir: &Path, experiments: &Path) -> Result<usize, String> {
    let mut reports: Vec<(String, String)> = Vec::new();
    let entries =
        std::fs::read_dir(bench_dir).map_err(|e| format!("read {}: {e}", bench_dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let file = entry.file_name().to_string_lossy().into_owned();
        if file.starts_with("BENCH_") && file.ends_with(".json") {
            let text = std::fs::read_to_string(entry.path()).map_err(|e| e.to_string())?;
            reports.push((file, text));
        }
    }
    if reports.is_empty() {
        return Err(format!(
            "no BENCH_*.json in {} — run `cargo bench` first (or set GRIDSEC_BENCH_DIR)",
            bench_dir.display()
        ));
    }
    reports.sort_by(|a, b| a.0.cmp(&b.0));
    let mut groups = Vec::new();
    let mut metric_groups = Vec::new();
    let mut striped_groups = Vec::new();
    let mut storm_groups = Vec::new();
    for (file, text) in &reports {
        if is_metrics_report(text) {
            let g = parse_metrics_report(text)
                .ok_or_else(|| format!("unparseable metrics report {file}"))?;
            if g.name == "striped_xfer" {
                striped_groups.push(g);
            } else if g.name == "vo_storm" || g.name == "crypto_storm" {
                storm_groups.push(g);
            } else {
                metric_groups.push(g);
            }
        } else {
            groups.push(parse_report(text).ok_or_else(|| format!("unparseable report {file}"))?);
        }
    }
    let doc = std::fs::read_to_string(experiments)
        .map_err(|e| format!("read {}: {e}", experiments.display()))?;
    let mut updated = doc.clone();
    if !groups.is_empty() {
        updated = splice(&updated, &render(&groups))?;
    }
    if !metric_groups.is_empty() {
        updated = splice_between(
            &updated,
            FLOW_BEGIN,
            FLOW_END,
            &render_metrics(&metric_groups),
        )?;
    }
    if !striped_groups.is_empty() {
        updated = splice_between(
            &updated,
            STRIPED_BEGIN,
            STRIPED_END,
            &render_striped(&striped_groups),
        )?;
    }
    if !storm_groups.is_empty() {
        // Stable row order regardless of artifact file names.
        storm_groups.sort_by(|a, b| a.name.cmp(&b.name));
        updated = splice_between(
            &updated,
            STORM_BEGIN,
            STORM_END,
            &render_storm(&storm_groups),
        )?;
    }
    if updated != doc {
        std::fs::write(experiments, updated).map_err(|e| e.to_string())?;
    }
    Ok(groups.len() + metric_groups.len() + striped_groups.len() + storm_groups.len())
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut bench_dir = ".".to_string();
    let mut experiments = "EXPERIMENTS.md".to_string();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--bench-dir" => bench_dir = args.next().expect("--bench-dir needs a value"),
            "--experiments" => experiments = args.next().expect("--experiments needs a value"),
            other => {
                eprintln!("unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    match run(Path::new(&bench_dir), Path::new(&experiments)) {
        Ok(n) => println!("regenerated {experiments} from {n} bench report(s)"),
        Err(e) => {
            eprintln!("regen_experiments: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "group": "f2_cas",
  "results": [
    {"name": "issue/10", "samples": 10, "iters_per_sample": 8, "min_ns": 100.0, "mean_ns": 150.5, "median_ns": 150000.0, "p95_ns": 180000.0, "max_ns": 200.0, "throughput_bytes": null},
    {"name": "wrap/1024", "samples": 10, "iters_per_sample": 8, "min_ns": 1.0, "mean_ns": 2.0, "median_ns": 6600.0, "p95_ns": 7100.0, "max_ns": 9.0, "throughput_bytes": 1024}
  ]
}
"#;

    #[test]
    fn parses_the_runner_format() {
        let g = parse_report(SAMPLE).unwrap();
        assert_eq!(g.name, "f2_cas");
        assert_eq!(g.rows.len(), 2);
        assert_eq!(g.rows[0].name, "issue/10");
        assert_eq!(g.rows[0].median_ns, 150000.0);
        assert_eq!(g.rows[0].throughput_bytes, None);
        assert_eq!(g.rows[1].throughput_bytes, Some(1024));
    }

    #[test]
    fn renders_units_like_the_prose() {
        assert_eq!(fmt_ns(640.0), "640 ns");
        assert_eq!(fmt_ns(150_000.0), "150 µs");
        assert_eq!(fmt_ns(19_700_000.0), "19.70 ms");
    }

    #[test]
    fn splice_replaces_only_the_marked_block() {
        let doc = format!("prose before\n\n{BEGIN}\nold table\n{END}\n\nprose after\n");
        let g = parse_report(SAMPLE).unwrap();
        let updated = splice(&doc, &render(&[g])).unwrap();
        assert!(updated.starts_with("prose before"));
        assert!(updated.ends_with("prose after\n"));
        assert!(!updated.contains("old table"));
        assert!(updated.contains("### `f2_cas`"));
        assert!(updated.contains("| issue/10 | 150 µs | 180 µs | — |"));
        // Splicing twice with the same data is idempotent.
        let g2 = parse_report(SAMPLE).unwrap();
        assert_eq!(splice(&updated, &render(&[g2])).unwrap(), updated);
    }

    #[test]
    fn splice_without_markers_is_an_error() {
        assert!(splice("no markers here", "x").is_err());
    }

    const METRICS_SAMPLE: &str = r#"{
  "group": "flows",
  "metrics": [
    {"name": "fig1.gss.contexts_established", "kind": "counter", "value": 1},
    {"name": "fig1.rpc.retransmissions", "kind": "counter", "value": 3},
    {"name": "fig1.span.gss.establish.secs", "kind": "hist", "count": 1, "sum": 52, "min": 52, "median": 52, "p95": 52, "max": 52}
  ]
}
"#;

    #[test]
    fn distinguishes_metrics_reports_from_timing_reports() {
        assert!(is_metrics_report(METRICS_SAMPLE));
        assert!(!is_metrics_report(SAMPLE));
    }

    #[test]
    fn parses_and_renders_flow_metrics() {
        let g = parse_metrics_report(METRICS_SAMPLE).unwrap();
        assert_eq!(g.name, "flows");
        assert_eq!(g.metrics.len(), 3);
        assert_eq!(
            g.metrics[0],
            Metric::Counter {
                name: "fig1.gss.contexts_established".into(),
                value: 1
            }
        );
        let rendered = render_metrics(&[g]);
        assert!(
            rendered.contains("| fig1.rpc.retransmissions | 3 |"),
            "{rendered}"
        );
        assert!(
            rendered.contains("| fig1.span.gss.establish.secs | 1 | 52 | 52 | 52 | 52 |"),
            "{rendered}"
        );
    }

    const STRIPED_SAMPLE: &str = r#"{
  "group": "striped_xfer",
  "metrics": [
    {"name": "striped.bytes", "kind": "counter", "value": 32768},
    {"name": "striped.l050.s1.secs", "kind": "counter", "value": 728},
    {"name": "striped.l050.s1.goodput_bps", "kind": "counter", "value": 45},
    {"name": "striped.l050.s1.tears", "kind": "counter", "value": 25},
    {"name": "striped.l050.s1.sessions", "kind": "counter", "value": 26},
    {"name": "striped.l050.adaptive.secs", "kind": "counter", "value": 288},
    {"name": "striped.l050.adaptive.goodput_bps", "kind": "counter", "value": 113},
    {"name": "striped.l050.adaptive.tears", "kind": "counter", "value": 36},
    {"name": "striped.l050.adaptive.sessions", "kind": "counter", "value": 37}
  ]
}
"#;

    #[test]
    fn renders_striped_cells_as_a_goodput_table() {
        let g = parse_metrics_report(STRIPED_SAMPLE).unwrap();
        assert_eq!(g.name, "striped_xfer");
        let rendered = render_striped(&[g]);
        assert!(rendered.contains("32768 bytes per cell"), "{rendered}");
        assert!(
            rendered.contains("| l050.s1 | 5% | 1 | 728 | 45 | 25 | 26 |"),
            "{rendered}"
        );
        assert!(
            rendered.contains("| l050.adaptive | 5% | adaptive | 288 | 113 | 36 | 37 |"),
            "{rendered}"
        );
        // Splices into its own block without touching the others.
        let doc = format!("x\n{STRIPED_BEGIN}\nold\n{STRIPED_END}\ny\n");
        let updated = splice_between(&doc, STRIPED_BEGIN, STRIPED_END, &rendered).unwrap();
        assert!(!updated.contains("old"), "{updated}");
    }

    const STORM_SAMPLE: &str = r#"{
  "group": "crypto_storm",
  "metrics": [
    {"name": "cstorm.established_per_sec", "kind": "counter", "value": 4383},
    {"name": "cstorm.flows.established", "kind": "counter", "value": 494846},
    {"name": "cstorm.flows.rejected", "kind": "counter", "value": 5154},
    {"name": "cstorm.live_high_water", "kind": "counter", "value": 4100},
    {"name": "cstorm.messages_per_sec", "kind": "counter", "value": 17626},
    {"name": "cstorm.principals", "kind": "counter", "value": 500000},
    {"name": "cstorm.wall_ms", "kind": "counter", "value": 112880},
    {"name": "cstorm.wave_size", "kind": "hist", "count": 29941, "sum": 500000, "min": 1, "median": 31, "p95": 31, "max": 37}
  ]
}
"#;

    const VO_STORM_SAMPLE: &str = r#"{
  "group": "vo_storm",
  "metrics": [
    {"name": "storm.flows.completed", "kind": "counter", "value": 100000},
    {"name": "storm.flows_per_sec", "kind": "counter", "value": 40567},
    {"name": "storm.live_high_water", "kind": "counter", "value": 100024},
    {"name": "storm.messages_per_sec", "kind": "counter", "value": 348770},
    {"name": "storm.principals", "kind": "counter", "value": 100000},
    {"name": "storm.wall_ms", "kind": "counter", "value": 2465}
  ]
}
"#;

    #[test]
    fn renders_storm_throughput_rows() {
        let c = parse_metrics_report(STORM_SAMPLE).unwrap();
        let v = parse_metrics_report(VO_STORM_SAMPLE).unwrap();
        let rendered = render_storm(&[c, v]);
        // crypto_storm: established flows + rejected, wall scaled to s.
        assert!(
            rendered.contains(
                "| crypto_storm | 500000 | 494846 | 5154 | 4100 | 112.88 s | 4383 | 17626 |"
            ),
            "{rendered}"
        );
        // vo_storm has no reject path: the rejected column renders `—`.
        assert!(
            rendered
                .contains("| vo_storm | 100000 | 100000 | — | 100024 | 2.46 s | 40567 | 348770 |"),
            "{rendered}"
        );
        // Splices into its own block without touching the others.
        let doc = format!("x\n{STORM_BEGIN}\nold rows\n{STORM_END}\ny\n");
        let updated = splice_between(&doc, STORM_BEGIN, STORM_END, &rendered).unwrap();
        assert!(!updated.contains("old rows"), "{updated}");
        assert!(updated.contains("112.88 s"), "{updated}");
    }

    #[test]
    fn flow_splice_leaves_timing_block_alone() {
        let doc = format!(
            "prose\n\n{BEGIN}\ntiming table\n{END}\n\nmore\n\n{FLOW_BEGIN}\nold metrics\n{FLOW_END}\n"
        );
        let g = parse_metrics_report(METRICS_SAMPLE).unwrap();
        let updated = splice_between(&doc, FLOW_BEGIN, FLOW_END, &render_metrics(&[g])).unwrap();
        assert!(updated.contains("timing table"), "{updated}");
        assert!(!updated.contains("old metrics"), "{updated}");
        assert!(updated.contains("### `flows` counters"), "{updated}");
    }
}
