//! Striped, congestion-controlled transfers (`GETS`/`PUTS`/`FINS`).
//!
//! Real GridFTP recovers goodput on lossy WAN links by striping one
//! file across several parallel TCP streams and adapting window size
//! and parallelism to observed loss. This module reproduces that on
//! the simulated testbed: a transfer is split into fixed-span ranges,
//! each range moves over one of N data channels — connections over the
//! world's network, whose fault profile delays and tears them — and an
//! `AimdController` adapts the pull window and the target stripe count
//! from each stripe's observed loss: its torn connections over the
//! frames it has moved.
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
//! The client is [`crate::client`]'s engine; an optional shared
//! [`TokenBucket`] caps aggregate bytes per sim second.
//!
//! [`CrashPlan`]: gridsec_testbed::faults::CrashPlan

use std::collections::VecDeque;

use gridsec_bignum::prime::EntropySource;
use gridsec_testbed::net::SimStream;
use gridsec_tls::handshake::TlsConfig;
use gridsec_util::retry::RetryPolicy;
use gridsec_util::throttle::TokenBucket;

use crate::client::{run, Job, XferOutcome};
use crate::congestion::AimdConfig;
use crate::poll::Dialect;
use crate::resume::CHUNK;
use crate::FtpError;

/// Bytes per striped range.
const TASK_SPAN: usize = 4 * CHUNK;

/// Knobs for a striped transfer.
#[derive(Clone, Debug)]
pub struct StripeOpts {
    /// Tear budget: the transfer fails once this many are spent — one
    /// per torn session, one per policy's worth of torn handshakes.
    pub max_sessions: u32,
    /// Stripe count: adaptive (the default) or pinned.
    pub aimd: AimdConfig,
    /// Optional shared bandwidth cap (bytes per sim second) across all stripes.
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

/// The ranges a transfer of `total` bytes moves: the whole file in the
/// resumable dialect, consecutive [`TASK_SPAN`]-byte ranges striped.
pub(crate) fn ranges(dialect: Dialect, total: usize) -> VecDeque<(usize, usize)> {
    if dialect == Dialect::Resumable {
        return VecDeque::from([(0, total)]);
    }
    (0..total)
        .step_by(TASK_SPAN)
        .map(|start| (start, (start + TASK_SPAN).min(total)))
        .collect()
}

/// Fetch `path` over adaptively many striped channels. `dial` opens a
/// fresh connection for the stripe it is given.
pub fn striped_get<E: EntropySource>(
    config: &TlsConfig,
    rng: &mut E,
    policy: RetryPolicy,
    dial: impl FnMut(usize) -> SimStream,
    path: &str,
    opts: StripeOpts,
) -> Result<XferOutcome, FtpError> {
    let job = Job {
        dialect: Dialect::Striped,
        path,
        upload: None,
    };
    run(config, rng, policy, dial, job, opts)
}

/// Store `data` at `path` over adaptively many striped channels. Each
/// stripe range stages into its own durable part file; a final `FINS`
/// merges, verifies, and promotes (surviving any merge-time crash).
pub fn striped_put<E: EntropySource>(
    config: &TlsConfig,
    rng: &mut E,
    policy: RetryPolicy,
    dial: impl FnMut(usize) -> SimStream,
    path: &str,
    data: &[u8],
    opts: StripeOpts,
) -> Result<XferOutcome, FtpError> {
    let job = Job {
        dialect: Dialect::Striped,
        path,
        upload: Some(data),
    };
    run(config, rng, policy, dial, job, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poll::SessionTask;
    use crate::resume::hex;
    use crate::GridFtpServer;
    use gridsec_authz::gridmap::GridMapFile;
    use gridsec_crypto::rng::ChaChaRng;
    use gridsec_crypto::sha256::sha256;
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

    /// A world that loses a fraction `drop` of segments and delays none.
    fn loss(drop: f64) -> FaultProfile {
        FaultProfile {
            drop,
            ..FaultProfile::default()
        }
    }

    /// A WAN: 1–4 s latency with reorder jitter, and `drop` loss.
    fn wan(drop: f64) -> FaultProfile {
        FaultProfile {
            drop,
            duplicate: 0.0,
            ..FaultProfile::lossy_wan()
        }
    }

    /// Reply timeouts above the WAN's worst round trip (2 × 7 s).
    fn policy() -> RetryPolicy {
        RetryPolicy {
            base_timeout: 16,
            max_timeout: 64,
            ..RetryPolicy::default()
        }
    }

    /// One sans-io striped server task per dial, each over a fresh
    /// connection in one world under `profile` (seeded by `base_seed`).
    fn dialer(
        w: &World,
        plan: CrashPlan,
        base_seed: u64,
        profile: FaultProfile,
    ) -> impl FnMut(usize) -> SimStream {
        let task = SessionTask {
            server: Rc::clone(&w.server),
            dialect: Dialect::Striped,
            now: 100,
            plan,
        };
        let net = Network::new();
        net.enable_faults(SimClock::new(), base_seed, profile);
        let mut sched = Scheduler::new(&net);
        let mut n = 0u64;
        move |slot| {
            n += 1;
            let conn = format!("{slot}-{n}");
            let (client, server) = net.connect(&format!("jane:{conn}"), &format!("data1:{conn}"));
            task.spawn(
                &mut sched,
                server,
                &(n + ((slot as u64) << 32)).to_be_bytes(),
            );
            client
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
        profile: FaultProfile,
        path: &str,
        opts: StripeOpts,
    ) -> XferOutcome {
        let mut rng = ChaChaRng::from_seed_bytes(b"stripe client");
        let config = TlsConfig::new(w.jane.clone(), w.trust.clone(), 100);
        let dial = dialer(w, plan, seed, profile);
        striped_get(&config, &mut rng, policy(), dial, path, opts).unwrap()
    }

    fn run_put(
        w: &World,
        plan: CrashPlan,
        seed: u64,
        profile: FaultProfile,
        path: &str,
        data: &[u8],
        opts: StripeOpts,
    ) -> XferOutcome {
        let mut rng = ChaChaRng::from_seed_bytes(b"stripe client");
        let config = TlsConfig::new(w.jane.clone(), w.trust.clone(), 100);
        let dial = dialer(w, plan, seed, profile);
        striped_put(&config, &mut rng, policy(), dial, path, data, opts).unwrap()
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
            loss(0.10),
            "/home/jdoe/big.dat",
            opts,
        );
        assert_eq!(out.bytes, data);
        assert_eq!(out.sha256, hex(&sha256(&data)));
        assert!(out.tears >= 1, "expected tears, got {}", out.tears);
        assert!(out.peak_stripes >= 2, "striping never engaged");
        assert!(out.secs > 0, "a stall costs sim time");
        assert!(out.goodput > 0);
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
                loss(0.10),
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
            loss(0.10),
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
            loss(0.0),
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
            loss(0.0),
            path,
            &data,
            StripeOpts::default(),
        );
        assert_eq!(plan.crashes(), 0, "every range answered OFFSET = end");
        assert!(!first.decisions.is_empty(), "the first PUT sent windows");
        assert!(again.decisions.is_empty(), "no SEND window completed");
        assert_eq!(again.tears, 0);
        assert_eq!(
            again.sessions, again.peak_stripes,
            "one session per stripe; the last range's stripe sends FINS"
        );
        assert_eq!(again.sha256, first.sha256);
        let s = w.server.borrow();
        let uid = s.os().uid_of("data1", "jdoe").unwrap();
        assert_eq!(s.os().read_file("data1", path, uid).unwrap(), data);
        for (start, end) in ranges(Dialect::Striped, data.len()) {
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
        // A WAN with latency: the second stripe is dialed while the
        // first is still waiting for its range, after slot 0 learned the
        // size and digest of the original.
        let task = SessionTask {
            server: Rc::clone(&w.server),
            dialect: Dialect::Striped,
            now: 100,
            plan: CrashPlan::disabled(),
        };
        let net = Network::new();
        net.enable_faults(SimClock::new(), 0x57_09, wan(0.0));
        let mut sched = Scheduler::new(&net);
        let mut dials = 0u64;
        let dial = |slot: usize| {
            dials += 1;
            if dials == 2 {
                seed_file(&w, path, &rewritten);
            }
            let conn = format!("{slot}-{dials}");
            let (client, server) = net.connect(&format!("jane:{conn}"), &format!("data1:{conn}"));
            task.spawn(&mut sched, server, &dials.to_be_bytes());
            client
        };
        let mut rng = ChaChaRng::from_seed_bytes(b"stripe client");
        let config = TlsConfig::new(w.jane.clone(), w.trust.clone(), 100);
        let got = striped_get(
            &config,
            &mut rng,
            policy(),
            dial,
            path,
            StripeOpts::default(),
        );
        assert_eq!(
            got,
            Err(FtpError::Protocol(
                "file changed between sessions".to_string()
            ))
        );
        assert_eq!(
            dials, 2,
            "the change was caught on the second stripe's range"
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
            loss(0.0),
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
        let out = run_get(&w, plan, 0x57_0c, loss(0.0), "/home/jdoe/loss.dat", opts);
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
    ) -> (Result<XferOutcome, FtpError>, FaultStats) {
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
        net.enable_faults(SimClock::new(), seed, loss(0.05));
        let mut sched = Scheduler::new(&net);
        let cut_at = 2 + seed % 3;
        let mut n = 0u64;
        let dial = |slot: usize| {
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
            client
        };
        let mut rng = ChaChaRng::from_seed_bytes(b"stripe client");
        let config = TlsConfig::new(w.jane.clone(), w.trust.clone(), 100);
        let policy = policy();
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
                Err(FtpError::Channel("resume budget exhausted".to_string())),
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
            loss(0.0),
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
                loss(0.0),
                "/home/jdoe/thr.dat",
                opts,
            )
        };
        let free = run(None);
        let capped = run(Some(TokenBucket::new(16, 256)));
        assert!(capped.secs > free.secs, "cap must cost sim time");
        assert!(capped.throttle_waits > 0);
        assert!(capped.throttle_waited_secs > 0);
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
                wan(0.05),
                "/home/jdoe/race.dat",
                opts,
            )
        };
        let one = run(1);
        let four = run(4);
        assert_eq!(one.sha256, four.sha256);
        assert!(
            four.secs < one.secs,
            "4 stripes ({} s) should beat 1 ({} s)",
            four.secs,
            one.secs
        );
        assert!(four.goodput > one.goodput);
    }

    #[test]
    fn empty_file_round_trips() {
        let w = world();
        seed_file(&w, "/home/jdoe/empty.dat", b"");
        let got = run_get(
            &w,
            CrashPlan::disabled(),
            0x57_07,
            loss(0.0),
            "/home/jdoe/empty.dat",
            StripeOpts::default(),
        );
        assert!(got.bytes.is_empty());
        let put = run_put(
            &w,
            CrashPlan::disabled(),
            0x57_08,
            loss(0.0),
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
