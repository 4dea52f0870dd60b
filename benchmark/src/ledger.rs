//! The per-layer ledger (`--trace 1`).
//!
//! A traced run records spans around the drivers' calls into each
//! crate's public functions (see [`crate::span`]), adds the direct
//! unit-cost probes ([`crate::probes`]), and reports every per-layer
//! metric of `BENCHMARK.json` by name. The metrics taken from spans
//! belong to particular workloads, and a run reports all of them, so a
//! traced run passes over every workload: the one named by `--workload`
//! gets [`SELECTED_SHARE`] of `--seconds`, alternating untraced and
//! traced slices so that `util.trace_overhead_ratio` compares like with
//! like, and each of the other four gets [`OTHER_SHARE`], traced
//! throughout; the rest is about what three rounds of probes and the
//! world constructions take, so a traced run lasts about as long as an
//! untraced one. Only one world is alive at a time: a world's
//! `CryptoPool`s unregister their thread-local precomputation when
//! dropped, which would strip a younger world's tables.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::harness::{self, median, metric, timed_slice, Config, Metric, SliceOutcome, Workload};
use crate::probes;
use crate::span::{self, Summary};
use crate::workloads::bulk_xfer::{BulkXfer, BIG, SMALL};
use crate::workloads::establish_storm::EstablishStorm;
use crate::workloads::gram_submit::GramSubmit;
use crate::workloads::ogsa_request::OgsaRequest;
use crate::workloads::vo_flows::VoFlows;
use crate::workloads::NAMES;

/// Every per-layer metric, in the order it is printed, with its unit.
/// `tests/contract.rs` holds this equal to `BENCHMARK.json`.
pub const METRICS: [(&str, &str); 101] = [
    ("bignum.modexp_rsa512_crt_us", "us"),
    ("bignum.modexp_rsa512_e65537_us", "us"),
    ("bignum.modexp_dh256_fixed_base_us", "us"),
    ("bignum.modexp_dh256_var_base_us", "us"),
    ("bignum.prime256_search_ms", "ms"),
    ("bignum.mont_ctx_build_us", "us"),
    ("crypto.rsa_sign_us", "us"),
    ("crypto.rsa_verify_us", "us"),
    ("crypto.rsa_verify_batch_us_per_sig", "us"),
    ("crypto.dh_generate_us", "us"),
    ("crypto.dh_agree_us", "us"),
    ("crypto.hmac_primed_ns", "ns"),
    ("crypto.rsa_keygen512_ms", "ms"),
    ("crypto.aead_seal_64k_mib_s", "MiB/s"),
    ("crypto.aead_open_64k_mib_s", "MiB/s"),
    ("crypto.aead_seal_256b_ns", "ns"),
    ("crypto.sha256_mib_s", "MiB/s"),
    ("pki.validate_chain_d1_us", "us"),
    ("pki.validate_chain_d3_us", "us"),
    ("pki.validate_cached_ns", "ns"),
    ("pki.validate_batch_us_per_chain", "us"),
    ("pki.cert_decode_us", "us"),
    ("pki.proxy_issue_ms", "ms"),
    ("pki.chain_bytes", "B"),
    ("tls.client_hello_us", "us"),
    ("tls.client_finish_us", "us"),
    ("tls.server_hello_us", "us"),
    ("tls.server_finish_us", "us"),
    ("tls.accept_batch_us_per_hello", "us"),
    ("tls.handshake_wire_bytes", "B"),
    ("tls.resume_us", "us"),
    ("tls.record_roundtrip_64k_mib_s", "MiB/s"),
    ("tls.record_roundtrip_256b_ns", "ns"),
    ("tls.framebuf_feed_mib_s", "MiB/s"),
    ("gssapi.initiator_new_us", "us"),
    ("gssapi.initiator_feed_us", "us"),
    ("gssapi.wave_flush_us_per_hello", "us"),
    ("gssapi.submit_finished_us", "us"),
    ("gssapi.waves", "count"),
    ("gssapi.wave_size_p50", "count"),
    ("gssapi.validator_hit_ratio", "ratio"),
    ("gssapi.binding_hit_ratio", "ratio"),
    ("gssapi.rejected_share", "ratio"),
    ("gssapi.delegation_ms", "ms"),
    ("testbed.sched_self_ns_per_step", "ns"),
    ("testbed.sched_steps_per_op", "count"),
    ("testbed.net_send_ns", "ns"),
    ("testbed.net_pump_ns_per_msg", "ns"),
    ("testbed.rpc_poll_ns", "ns"),
    ("testbed.names_intern_ns", "ns"),
    ("testbed.rpc_retransmit_ratio", "ratio"),
    ("testbed.net_drop_ratio", "ratio"),
    ("testbed.sched_live_high_water", "count"),
    ("testbed.os_read_mib_s", "MiB/s"),
    ("testbed.os_write_mib_s", "MiB/s"),
    ("xml.parse_1k_us", "us"),
    ("xml.parse_mib_s", "MiB/s"),
    ("xml.to_xml_mib_s", "MiB/s"),
    ("xml.c14n_1k_us", "us"),
    ("xml.c14n_mib_s", "MiB/s"),
    ("wsse.wssc_establish_us", "us"),
    ("wsse.wssc_resume_us", "us"),
    ("wsse.protect_64b_us", "us"),
    ("wsse.protect_16k_us", "us"),
    ("wsse.unprotect_64b_us", "us"),
    ("wsse.unprotect_16k_us", "us"),
    ("wsse.xmlsig_sign_us", "us"),
    ("wsse.xmlsig_verify_us", "us"),
    ("wsse.envelope_parse_us", "us"),
    ("wsse.policy_intersect_us", "us"),
    ("wsse.b64_mib_s", "MiB/s"),
    ("wsse.envelope_overhead_ratio", "ratio"),
    ("authz.policy_decide_ns", "ns"),
    ("authz.gridmap_lookup_ns", "ns"),
    ("ogsa.client_self_us", "us"),
    ("ogsa.hosting_handle_us", "us"),
    ("ogsa.policy_fetch_us", "us"),
    ("ogsa.cold_session_us", "us"),
    ("ogsa.resumed_session_us", "us"),
    ("ogsa.invoke_64b_us", "us"),
    ("ogsa.invoke_1k_us", "us"),
    ("ogsa.invoke_16k_us", "us"),
    ("ogsa.invoke_p99_us", "us"),
    ("gram.signed_request_us", "us"),
    ("gram.resource_submit_warm_us", "us"),
    ("gram.resource_submit_cold_ms", "ms"),
    ("gram.connect_and_start_ms", "ms"),
    ("gram.warm_submit_ms", "ms"),
    ("gram.cold_submit_ms", "ms"),
    ("gram.submit_p99_ms", "ms"),
    ("gram.cold_share", "ratio"),
    ("gram.install_ms", "ms"),
    ("gsi.proxy_init_ms", "ms"),
    ("gridftp.connect_us", "us"),
    ("gridftp.get_1m_mib_s", "MiB/s"),
    ("gridftp.put_1m_mib_s", "MiB/s"),
    ("gridftp.getr_256k_mib_s", "MiB/s"),
    ("gridftp.putr_256k_mib_s", "MiB/s"),
    ("gridftp.server_drive_share", "ratio"),
    ("gridftp.records_per_mib", "count"),
    ("util.trace_overhead_ratio", "ratio"),
];

/// Which end-to-end numbers a change to one layer should move, printed
/// beside the ledger so a reader checks the prediction, not the author.
pub const PREDICTIONS: &str = "\
cross-workload predictions
  bignum / crypto asymmetric  moves establish_storm and gram_submit; vo_flows and bulk_xfer stay inside their bounds
  tls::records / AEAD         moves bulk_xfer (and the 16 KiB class of ogsa_request) only
  testbed                     moves vo_flows most; establish_storm by its sched share
  xml / wsse                  moves ogsa_request only
";

/// Traced slices every pass takes whatever its time budget.
const MIN_TRACED: usize = 2;
/// Share of `--seconds` spent on the workload the run was asked for.
const SELECTED_SHARE: f64 = 0.4;
/// Share of `--seconds` spent on each of the other four workloads.
const OTHER_SHARE: f64 = 0.075;
/// Share of a pass's traced slices, fastest first, whose spans and
/// counts make the metrics: a burst from a neighbour slows whole slices,
/// and the end-to-end numbers these explain are taken at the quiet
/// point too.
const QUIET_SHARE: f64 = 0.25;

/// What one pass over one workload recorded.
pub struct Pass {
    pub workload: &'static str,
    /// Spans of the quiet traced slices.
    pub summary: Summary,
    /// `SliceOutcome::counts` of the quiet traced slices, by name.
    counts: BTreeMap<&'static str, Vec<u64>>,
    /// Over the quiet traced slices.
    ok: u64,
    traced_attempted: u64,
    payload_bytes: u64,
    traced_s: f64,
    quiet_slices: usize,
    /// Of every traced and every untraced slice.
    traced_rates: Vec<f64>,
    untraced_rates: Vec<f64>,
    /// Over every slice the pass ran, warm-up included.
    attempted: u64,
    failed: u64,
    /// The first traced slice, as JSON lines.
    trace: String,
}

impl Pass {
    fn absorb(&mut self, out: &SliceOutcome) {
        self.attempted += out.attempted;
        self.failed += out.failed;
    }

    fn count_sum(&self, name: &str) -> f64 {
        self.counts.get(name).map_or(0, |v| v.iter().sum::<u64>()) as f64
    }

    fn count_entries(&self, name: &str) -> Vec<f64> {
        self.counts
            .get(name)
            .map(|v| v.iter().map(|n| *n as f64).collect())
            .unwrap_or_default()
    }

    fn mean_us(&self, span: &str) -> f64 {
        self.summary.mean_ns(span) / 1e3
    }

    fn mean_ms(&self, span: &str) -> f64 {
        self.summary.mean_ns(span) / 1e6
    }

    /// `p`-th percentile of the durations of every span in `names`, ns.
    fn percentile_ns(&self, names: &[&str], p: f64) -> f64 {
        let mut all: Vec<u64> = names
            .iter()
            .flat_map(|n| self.summary.stats(n).durations_ns)
            .collect();
        harness::percentile_ns(&mut all, p)
    }

    /// Payload MiB per second of one transfer class.
    fn transfer_mib_s(&self, span: &str, bytes: usize) -> f64 {
        bytes as f64 / (1024.0 * 1024.0) / (self.summary.mean_ns(span) / 1e9)
    }

    /// The budget table: Σ self time per op by span name, against the
    /// measured op time of the same slices.
    pub fn budget(&self) -> String {
        let ops = self.ok.max(1) as f64;
        let measured_us = self.traced_s * 1e6 / ops;
        let mut rows: Vec<(&str, f64, f64)> = self
            .summary
            .by_name
            .iter()
            .map(|(name, s)| (*name, s.count as f64 / ops, s.self_ns as f64 / 1e3 / ops))
            .collect();
        rows.sort_by(|a, b| b.2.total_cmp(&a.2));
        let spanned: f64 = rows.iter().map(|r| r.2).sum();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "budget {}: measured {:.2} us/op over {} ops (the fastest {} of {} traced slices)",
            self.workload,
            measured_us,
            self.ok,
            self.quiet_slices,
            self.traced_rates.len()
        );
        let _ = writeln!(
            out,
            "  {:<28} {:>9} {:>12} {:>7}",
            "span (self time)", "per op", "us/op", "share"
        );
        for (name, per_op, us) in &rows {
            let _ = writeln!(
                out,
                "  {:<28} {:>9.3} {:>12.3} {:>6.1}%",
                name,
                per_op,
                us,
                us * 100.0 / measured_us
            );
        }
        let mut layers: BTreeMap<&str, f64> = BTreeMap::new();
        for (name, _, us) in &rows {
            *layers
                .entry(name.split('.').next().unwrap_or(name))
                .or_default() += us;
        }
        let by_layer: Vec<String> = layers
            .iter()
            .map(|(layer, us)| format!("{layer} {us:.2}"))
            .collect();
        let _ = writeln!(out, "  by layer (us/op): {}", by_layer.join(", "));
        let _ = writeln!(
            out,
            "  sum of self times {:.2} us/op + residual {:.2} us/op ({:.1}%) = measured",
            spanned,
            measured_us - spanned,
            (measured_us - spanned) * 100.0 / measured_us
        );
        out
    }
}

/// One traced slice, kept until the pass knows which were quiet.
struct Traced {
    rate: f64,
    wall: f64,
    out: SliceOutcome,
    summary: Summary,
}

/// One pass: build the world, warm it up on slice 0, then trace slices
/// for `budget_s` seconds (at least [`MIN_TRACED`]); with `compare`,
/// every traced slice is preceded by an untraced one. The spans and
/// counts of the fastest [`QUIET_SHARE`] of the traced slices are kept.
fn pass<W: Workload>(cfg: &Config, budget_s: f64, compare: bool) -> Pass {
    let mut world = W::build(cfg);
    let mut p = Pass {
        workload: W::NAME,
        summary: Summary::default(),
        counts: BTreeMap::new(),
        ok: 0,
        traced_attempted: 0,
        payload_bytes: 0,
        traced_s: 0.0,
        quiet_slices: 0,
        traced_rates: Vec::new(),
        untraced_rates: Vec::new(),
        attempted: 0,
        failed: 0,
        trace: String::new(),
    };
    let warm_up = world.slice(0);
    p.absorb(&warm_up);

    let started = Instant::now();
    let mut index = 1;
    let mut traced: Vec<Traced> = Vec::new();
    while traced.len() < MIN_TRACED || started.elapsed().as_secs_f64() < budget_s {
        if compare {
            let (out, wall) = timed_slice(&mut world, index);
            index += 1;
            p.absorb(&out);
            p.untraced_rates.push(out.ok as f64 / wall);
        }
        span::start();
        let (out, wall) = timed_slice(&mut world, index);
        let recording = span::finish();
        index += 1;
        p.absorb(&out);
        if p.trace.is_empty() {
            p.trace = span::to_jsonl(&recording);
        }
        let mut summary = Summary::default();
        summary.absorb(&recording);
        let rate = out.ok as f64 / wall;
        p.traced_rates.push(rate);
        traced.push(Traced {
            rate,
            wall,
            out,
            summary,
        });
    }

    traced.sort_by(|a, b| b.rate.total_cmp(&a.rate));
    p.quiet_slices = ((traced.len() as f64 * QUIET_SHARE) as usize).max(MIN_TRACED);
    for t in traced.into_iter().take(p.quiet_slices) {
        p.summary.merge(t.summary);
        p.ok += t.out.ok;
        p.traced_attempted += t.out.attempted;
        p.payload_bytes += t.out.payload_bytes;
        p.traced_s += t.wall;
        for (name, n) in t.out.counts {
            p.counts.entry(name).or_default().push(n);
        }
    }
    p
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The span- and count-derived metrics of one pass.
fn derived(p: &Pass) -> Vec<(&'static str, f64)> {
    let s = &p.summary;
    match p.workload {
        EstablishStorm::NAME => {
            let hits = |kind: &str| {
                let (h, m) = (
                    p.count_sum(&format!("gssapi.{kind}_hits")),
                    p.count_sum(&format!("gssapi.{kind}_misses")),
                );
                ratio(h, h + m)
            };
            vec![
                ("gssapi.initiator_new_us", p.mean_us("gssapi.initiator_new")),
                (
                    "gssapi.initiator_feed_us",
                    p.mean_us("gssapi.initiator_feed"),
                ),
                (
                    "gssapi.wave_flush_us_per_hello",
                    ratio(
                        s.stats("gssapi.wave_flush").total_ns as f64 / 1e3,
                        p.count_sum("gssapi.wave_size"),
                    ),
                ),
                (
                    "gssapi.submit_finished_us",
                    p.mean_us("gssapi.submit_finished"),
                ),
                (
                    "gssapi.waves",
                    ratio(p.count_sum("gssapi.waves"), p.quiet_slices as f64),
                ),
                (
                    "gssapi.wave_size_p50",
                    median(&p.count_entries("gssapi.wave_size")),
                ),
                ("gssapi.validator_hit_ratio", hits("validator")),
                ("gssapi.binding_hit_ratio", hits("binding")),
                (
                    "gssapi.rejected_share",
                    ratio(p.count_sum("gssapi.rejected"), p.traced_attempted as f64),
                ),
            ]
        }
        VoFlows::NAME => {
            let steps = p.count_sum("testbed.sched_steps");
            vec![
                (
                    "testbed.sched_self_ns_per_step",
                    ratio(s.stats("testbed.sched_run").self_ns as f64, steps),
                ),
                ("testbed.sched_steps_per_op", ratio(steps, p.ok as f64)),
                (
                    "testbed.rpc_retransmit_ratio",
                    ratio(
                        p.count_sum("testbed.rpc_retransmissions"),
                        p.count_sum("testbed.rpc_calls"),
                    ),
                ),
                (
                    "testbed.net_drop_ratio",
                    ratio(
                        p.count_sum("testbed.net_dropped"),
                        p.count_sum("testbed.net_sent"),
                    ),
                ),
                (
                    "testbed.sched_live_high_water",
                    p.count_entries("testbed.sched_live_high_water")
                        .into_iter()
                        .fold(0.0, f64::max),
                ),
            ]
        }
        OgsaRequest::NAME => {
            let (mut self_ns, mut ops) = (0u64, 0u64);
            for (name, st) in &s.by_name {
                if name.starts_with("ogsa.op.") {
                    self_ns += st.self_ns;
                    ops += st.count;
                }
            }
            const INVOKES: [&str; 3] = [
                "ogsa.op.invoke_64b",
                "ogsa.op.invoke_1k",
                "ogsa.op.invoke_16k",
            ];
            vec![
                (
                    "ogsa.client_self_us",
                    ratio(self_ns as f64 / 1e3, ops as f64),
                ),
                ("ogsa.hosting_handle_us", p.mean_us("ogsa.hosting_handle")),
                ("ogsa.policy_fetch_us", p.mean_us("ogsa.op.policy_fetch")),
                ("ogsa.cold_session_us", p.mean_us("ogsa.op.cold_session")),
                (
                    "ogsa.resumed_session_us",
                    p.mean_us("ogsa.op.resumed_session"),
                ),
                ("ogsa.invoke_64b_us", p.mean_us(INVOKES[0])),
                ("ogsa.invoke_1k_us", p.mean_us(INVOKES[1])),
                ("ogsa.invoke_16k_us", p.mean_us(INVOKES[2])),
                ("ogsa.invoke_p99_us", p.percentile_ns(&INVOKES, 99.0) / 1e3),
            ]
        }
        GramSubmit::NAME => {
            const SUBMITS: [&str; 2] = ["gram.op.cold_submit", "gram.op.warm_submit"];
            vec![
                ("gram.signed_request_us", p.mean_us("gram.signed_request")),
                (
                    "gram.resource_submit_warm_us",
                    p.mean_us("gram.resource_submit_warm"),
                ),
                (
                    "gram.resource_submit_cold_ms",
                    p.mean_ms("gram.resource_submit_cold"),
                ),
                (
                    "gram.connect_and_start_ms",
                    p.mean_ms("gram.connect_and_start"),
                ),
                ("gram.warm_submit_ms", p.mean_ms(SUBMITS[1])),
                ("gram.cold_submit_ms", p.mean_ms(SUBMITS[0])),
                ("gram.submit_p99_ms", p.percentile_ns(&SUBMITS, 99.0) / 1e6),
                (
                    "gram.cold_share",
                    ratio(p.count_sum("gram.cold_starts"), p.count_sum("gram.submits")),
                ),
                ("gram.install_ms", p.mean_ms("gram.install")),
                ("gsi.proxy_init_ms", p.mean_ms("gsi.proxy_init")),
            ]
        }
        BulkXfer::NAME => {
            let roots: u64 = s
                .by_name
                .iter()
                .filter(|(n, _)| n.starts_with("gridftp.") && **n != "gridftp.server")
                .map(|(_, st)| st.total_ns)
                .sum();
            vec![
                ("gridftp.connect_us", p.mean_us("gridftp.connect")),
                (
                    "gridftp.get_1m_mib_s",
                    p.transfer_mib_s("gridftp.op.get_1m", BIG),
                ),
                (
                    "gridftp.put_1m_mib_s",
                    p.transfer_mib_s("gridftp.op.put_1m", BIG),
                ),
                (
                    "gridftp.getr_256k_mib_s",
                    p.transfer_mib_s("gridftp.op.getr_256k", SMALL),
                ),
                (
                    "gridftp.putr_256k_mib_s",
                    p.transfer_mib_s("gridftp.op.putr_256k", SMALL),
                ),
                (
                    "gridftp.server_drive_share",
                    ratio(s.stats("gridftp.server").total_ns as f64, roots as f64),
                ),
                (
                    "gridftp.records_per_mib",
                    ratio(
                        p.count_sum("gridftp.records"),
                        p.payload_bytes as f64 / (1024.0 * 1024.0),
                    ),
                ),
            ]
        }
        other => unreachable!("workload {other} was validated"),
    }
}

/// The result of one traced run.
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// All of [`METRICS`], in order.
    pub metrics: Vec<Metric>,
    pub passes: Vec<Pass>,
    pub problems: Vec<String>,
}

/// One traced run for `--workload name`.
pub fn run(cfg: &Config, name: &str, seconds: f64) -> Report {
    let mut order: Vec<&str> = vec![name];
    order.extend(NAMES.iter().filter(|n| **n != name));
    // The probes run before, between and after the passes, and each
    // keeps its best reading: a neighbour's burst outlasts a probe, and
    // seldom all three rounds of it.
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let probe_round = |values: &mut BTreeMap<&'static str, f64>| {
        for m in probes::run_all(cfg) {
            let best = values.entry(m.name).or_insert(m.value);
            *best = if m.unit == "MiB/s" {
                best.max(m.value)
            } else {
                best.min(m.value)
            };
        }
    };
    let mut passes: Vec<Pass> = Vec::new();
    for (i, w) in order.iter().enumerate() {
        if i == 0 || i == 1 {
            probe_round(&mut values);
        }
        let selected = i == 0;
        let share = if selected {
            SELECTED_SHARE
        } else {
            OTHER_SHARE
        };
        passes.push(crate::with_workload!(*w, W => pass::<W>(cfg, seconds * share, selected)));
    }
    probe_round(&mut values);

    for p in &passes {
        values.extend(derived(p));
    }
    // Each traced slice against the untraced one run just before it.
    let selected = &passes[0];
    let pairwise: Vec<f64> = selected
        .traced_rates
        .iter()
        .zip(&selected.untraced_rates)
        .map(|(traced, untraced)| ratio(*traced, *untraced))
        .collect();
    values.insert("util.trace_overhead_ratio", median(&pairwise));

    let mut problems = Vec::new();
    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    if failed > 0 {
        problems.push(format!("{failed} of {attempted} ops failed their check"));
    }
    let metrics: Vec<Metric> = METRICS
        .iter()
        .map(|(name, unit)| {
            let value = values.remove(name).unwrap_or(f64::NAN);
            if !(value.is_finite() && value > 0.0) {
                problems.push(format!("metric {name} is not a positive number"));
            }
            metric(name, unit, value)
        })
        .collect();
    for stray in values.keys() {
        problems.push(format!("metric {stray} is not in the ledger's list"));
    }

    Report {
        workload: name.to_string(),
        seed: cfg.seed,
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
        passes,
        problems,
    }
}

impl Report {
    /// Each pass's first traced slice: `(workload, JSON lines)`.
    pub fn traces(&self) -> impl Iterator<Item = (&'static str, &str)> {
        self.passes.iter().map(|p| (p.workload, p.trace.as_str()))
    }

    pub fn contract_line(&self) -> String {
        harness::contract_line(self.correct, self.attempted, self.failed, &self.metrics)
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": true, \"result\": {}}}",
            self.workload,
            self.seed,
            self.contract_line()
        )
    }

    /// Human-readable ledger: the metrics by layer, then one budget
    /// table per workload, then the predictions.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== ledger, selected workload {} seed={} attempted={} failed={}",
            self.workload, self.seed, self.attempted, self.failed
        );
        let mut layer = "";
        for m in &self.metrics {
            let this = m.name.split('.').next().unwrap_or(m.name);
            if this != layer {
                layer = this;
                let _ = writeln!(out, "  [{layer}]");
            }
            let _ = writeln!(out, "    {:<36} {:>14.4} {}", m.name, m.value, m.unit);
        }
        for p in &self.passes {
            out.push_str(&p.budget());
        }
        out.push_str(&self.handshake_model());
        out.push_str(PREDICTIONS);
        for problem in &self.problems {
            let _ = writeln!(out, "  INCORRECT: {problem}");
        }
        out
    }

    fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    }

    /// The handshake op-count model, read from `tls::handshake`: each
    /// side of a full establishment makes one DH share, one agreement,
    /// one binding signature, one binding verification and one — here
    /// cached — chain validation. Priced with the probes' unit costs and
    /// set beside the `tls` step probes and what the `gssapi` spans
    /// measured; a stale model shows as a growing gap.
    fn handshake_model(&self) -> String {
        let sum = |names: &[&str]| names.iter().map(|n| self.value(n)).sum::<f64>();
        let crypto = 2.0
            * (sum(&[
                "crypto.rsa_sign_us",
                "crypto.rsa_verify_us",
                "crypto.dh_generate_us",
                "crypto.dh_agree_us",
            ]) + self.value("pki.validate_cached_ns") / 1e3);
        let steps = sum(&[
            "tls.client_hello_us",
            "tls.client_finish_us",
            "tls.accept_batch_us_per_hello",
            "tls.server_finish_us",
        ]);
        let spans = sum(&[
            "gssapi.initiator_new_us",
            "gssapi.initiator_feed_us",
            "gssapi.wave_flush_us_per_hello",
            "gssapi.submit_finished_us",
        ]);
        format!(
            "handshake model (per establishment)\n  \
             2 x (rsa_sign + rsa_verify + dh_generate + dh_agree + validate_cached)  {crypto:>8.1} us\n  \
             tls steps: client_hello + client_finish + accept_batch/hello + server_finish  {steps:>8.1} us  \
             (+{:.1} us over the op model: codecs, key schedule, tickets)\n  \
             gssapi spans: new + feed + wave_flush/hello + submit_finished  {spans:>8.1} us  \
             (+{:.1} us over the tls steps: smaller waves, colder caches, context wrap)\n",
            steps - crypto,
            spans - steps,
        )
    }
}
