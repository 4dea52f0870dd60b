//! Process fault injection: compromise analysis and crash/restart.
//!
//! Two fault families live here:
//!
//! * **Compromise** — the paper argues (§5.2) that GT3 improves security
//!   because network services hold no privilege: "GT3 removes all
//!   privileges from these services, significantly reducing the impact
//!   of compromises". [`compromise`] makes that claim measurable by
//!   marking a process attacker-controlled and computing everything the
//!   attacker now reaches under the simulated OS's access rules.
//!
//! * **Crash/restart** — the GT3 decomposition argument cuts the other
//!   way too: because security state is either *stateless* (signed
//!   messages, re-establishable GSS contexts) or *durable* (policy
//!   databases, job tables), any individual service process can die
//!   mid-request and come back without taking down the trust fabric.
//!   [`CrashPlan`] is a seeded schedule of kill points; [`Journal`] is a
//!   write-ahead log persisted in [`SimOs`]; [`CrashableServer`] hosts
//!   an RPC service that can be killed at any [`CrashPlan::fires`]
//!   point and restarted, rebuilding its at-most-once reply cache from
//!   the journal so retransmitted requests stay idempotent across the
//!   restart.
//!
//! The crash contract, in one paragraph: a service calls
//! `plan.fires("point")` at each injection point and **returns
//! immediately** (any reply value) when it fires — code after a fired
//! point models instructions the dead process never executed. The
//! supervisor ([`CrashableServer`]) then discards the reply, drops the
//! in-memory state via [`CrashRecover::crash`], and marks the process
//! down until `restart_delay` sim-seconds pass, when its
//! [`ServerTask`](crate::rpc::ServerTask) wakes and restarts it.
//! Durable effects a handler wants to survive must be appended to the
//! journal *before* the next crash point (write-ahead); on restart,
//! [`CrashRecover::recover`] folds the journal back into fresh state.
//! The window where an application record is durable but the reply
//! record is not is closed by application-level dedup: re-execution
//! finds its own `(caller, call-id)` record and returns the journaled
//! outcome instead of re-applying the side effect.

use crate::net::Endpoint;
use crate::os::{FileMode, Pid, SimOs, Uid, ROOT_UID};
use crate::rpc::{decode_request, encode_reply, ServerTask};
use crate::sched::{Step, Task, TaskCx};
use crate::TestbedError;
use gridsec_util::rng::{DetRng, RngCore};
use gridsec_util::sync::Mutex;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

/// What an attacker controls after compromising one process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompromiseReport {
    /// Host of the compromised process.
    pub host: String,
    /// Compromised process id.
    pub pid: Pid,
    /// Component name (e.g. `"gatekeeper"`, `"MMJFS"`).
    pub process_name: String,
    /// Effective uid at compromise time.
    pub euid: u32,
    /// `true` iff the attacker gains root (full host compromise).
    pub full_host_compromise: bool,
    /// Account names whose resources the attacker can act as.
    pub accounts_reachable: Vec<String>,
    /// File paths the attacker can read.
    pub files_readable: Vec<String>,
    /// File paths the attacker can write.
    pub files_writable: Vec<String>,
    /// Credential labels now exposed (from every reachable process).
    pub credentials_exposed: Vec<String>,
}

impl CompromiseReport {
    /// A scalar "blast radius" for easy comparison across architectures:
    /// reachable accounts + exposed credentials + writable files.
    pub fn blast_radius(&self) -> usize {
        self.accounts_reachable.len() + self.credentials_exposed.len() + self.files_writable.len()
    }
}

/// Compromise `pid` on `host` and compute the blast radius.
///
/// Rules of the model:
/// * euid 0 → attacker owns the host: every account, file, and in-memory
///   credential of every process.
/// * otherwise → the attacker acts as that euid: files readable/writable
///   under the permission bits, credentials held by processes of the same
///   euid, and the single account that euid maps to.
pub fn compromise(os: &SimOs, host: &str, pid: Pid) -> Result<CompromiseReport, TestbedError> {
    let proc = os.process(host, pid)?;
    let euid = proc.euid;
    let all_files = os.files(host)?;
    let all_procs = os.processes(host)?;

    if euid == ROOT_UID {
        let accounts = os.accounts(host)?;
        let files: Vec<String> = all_files.iter().map(|(p, _)| p.clone()).collect();
        let mut creds: Vec<String> = all_procs
            .iter()
            .flat_map(|p| p.credentials.iter().cloned())
            .collect();
        creds.sort();
        return Ok(CompromiseReport {
            host: host.to_string(),
            pid,
            process_name: proc.name,
            euid,
            full_host_compromise: true,
            accounts_reachable: accounts,
            files_readable: files.clone(),
            files_writable: files,
            credentials_exposed: creds,
        });
    }

    let mut files_readable = Vec::new();
    let mut files_writable = Vec::new();
    for (path, f) in &all_files {
        // Re-check via the OS so the permission logic lives in one place.
        if os.read_file(host, path, euid).is_ok() {
            files_readable.push(path.clone());
        }
        if f.mode.writable_by(euid, f.owner) {
            files_writable.push(path.clone());
        }
    }

    let mut creds: Vec<String> = all_procs
        .iter()
        .filter(|p| p.euid == euid)
        .flat_map(|p| p.credentials.iter().cloned())
        .collect();
    creds.sort();

    let accounts_reachable = os
        .account_of_uid(host, euid)?
        .into_iter()
        .collect::<Vec<_>>();

    Ok(CompromiseReport {
        host: host.to_string(),
        pid,
        process_name: proc.name,
        euid,
        full_host_compromise: false,
        accounts_reachable,
        files_readable,
        files_writable,
        credentials_exposed: creds,
    })
}

// ---------------------------------------------------------------------------
// Crash/restart fault layer
// ---------------------------------------------------------------------------

#[derive(Default)]
struct PlanState {
    rng: Option<DetRng>,
    probability: f64,
    /// Explicitly armed kills: point → 1-based hit counts that fire.
    armed: HashMap<String, Vec<u64>>,
    /// Times each point has been reached.
    hits: HashMap<String, u64>,
    /// Latched by `fires`; consumed by the supervisor.
    pending: Option<String>,
    /// Crashes still allowed (budget).
    remaining: u64,
    restart_delay: u64,
    crashes: u64,
    restarts: u64,
    transcript: Vec<String>,
}

/// A seeded, deterministic schedule of process kills.
///
/// Services consult the plan at named injection points; the plan decides
/// — from explicit arming or a seeded probability draw — whether the
/// process dies *at that instruction*. The decision sequence is a pure
/// function of the seed and the (deterministic) order of `fires` calls,
/// so combined network + crash chaos replays byte-identically.
///
/// Cloning shares the schedule (it is one process's fate, possibly
/// consulted from several code paths).
#[derive(Clone)]
pub struct CrashPlan {
    state: Arc<Mutex<PlanState>>,
}

impl CrashPlan {
    /// A plan that never fires (the no-chaos configuration).
    pub fn disabled() -> Self {
        CrashPlan {
            state: Arc::new(Mutex::new(PlanState::default())),
        }
    }

    /// A seeded plan: every unarmed hit of any point draws from the
    /// seeded RNG and fires with `probability`, up to `max_crashes`
    /// total kills. `restart_delay` is how long (sim-seconds) the
    /// process stays down after each kill.
    pub fn seeded(seed: u64, probability: f64, max_crashes: u64, restart_delay: u64) -> Self {
        CrashPlan {
            state: Arc::new(Mutex::new(PlanState {
                rng: Some(DetRng::seed_from_u64(seed)),
                probability,
                remaining: max_crashes,
                restart_delay,
                ..PlanState::default()
            })),
        }
    }

    /// A plan that fires only at explicitly [`arm`](Self::arm)ed points.
    pub fn manual(restart_delay: u64) -> Self {
        CrashPlan {
            state: Arc::new(Mutex::new(PlanState {
                remaining: u64::MAX,
                restart_delay,
                ..PlanState::default()
            })),
        }
    }

    /// Arm a kill at the `nth` (1-based) hit of `point`.
    pub fn arm(&self, point: &str, nth: u64) {
        self.state
            .lock()
            .armed
            .entry(point.to_string())
            .or_default()
            .push(nth);
    }

    /// Consult the plan at an injection point. Returns `true` if the
    /// process dies here — the caller must return immediately (with any
    /// dummy reply); everything after a fired point is code the dead
    /// process never ran. Once latched, every further point in the same
    /// request also reports `true`.
    pub fn fires(&self, point: &str) -> bool {
        let mut s = self.state.lock();
        if s.pending.is_some() {
            return true;
        }
        let hit = {
            let h = s.hits.entry(point.to_string()).or_insert(0);
            *h += 1;
            *h
        };
        if s.remaining == 0 {
            return false;
        }
        let armed = s.armed.get(point).is_some_and(|v| v.contains(&hit));
        let p = s.probability;
        let random = !armed
            && p > 0.0
            && s.rng.as_mut().is_some_and(|rng| {
                let draw = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                draw < p
            });
        if armed || random {
            s.remaining -= 1;
            s.pending = Some(point.to_string());
            true
        } else {
            false
        }
    }

    /// Consume the latched kill, if any: returns the point that fired.
    /// Called by the supervisor after the handler returns.
    pub fn take_pending(&self) -> Option<String> {
        self.state.lock().pending.take()
    }

    /// Downtime after each kill, in sim-seconds.
    pub fn restart_delay(&self) -> u64 {
        self.state.lock().restart_delay
    }

    /// Total kills delivered so far.
    pub fn crashes(&self) -> u64 {
        self.state.lock().crashes
    }

    /// Total restarts completed so far.
    pub fn restarts(&self) -> u64 {
        self.state.lock().restarts
    }

    /// Deterministic event log (`crash …` / `restart …` lines).
    pub fn transcript(&self) -> Vec<String> {
        self.state.lock().transcript.clone()
    }

    fn note_crash(&self, service: &str, point: &str, t: u64) {
        let mut s = self.state.lock();
        s.crashes += 1;
        s.transcript
            .push(format!("[t={t}] crash svc={service} point={point}"));
    }

    /// Record a kill taken *inline* by a service with no
    /// [`CrashableServer`] supervisor (a streaming GridFTP session dies
    /// with its connection rather than with a mailbox process):
    /// consumes the latched point, appends the transcript line, and
    /// returns the point that fired. `None` if nothing was latched.
    pub fn confirm_kill(&self, service: &str, t: u64) -> Option<String> {
        let point = self.take_pending()?;
        self.note_crash(service, &point, t);
        Some(point)
    }

    /// Record the restart that follows an inline kill: for a service
    /// with no [`CrashableServer`] supervisor, the next session that
    /// serves from durable state *is* the restarted process. No-op
    /// (returns `false`) unless a kill is still unacknowledged, so
    /// callers can invoke it unconditionally at session start.
    pub fn confirm_restart(&self, service: &str, t: u64, replayed: usize) -> bool {
        {
            let s = self.state.lock();
            if s.restarts >= s.crashes {
                return false;
            }
        }
        self.note_restart(service, t, replayed);
        true
    }

    fn note_restart(&self, service: &str, t: u64, replayed: usize) {
        let mut s = self.state.lock();
        s.restarts += 1;
        s.transcript
            .push(format!("[t={t}] restart svc={service} replayed={replayed}"));
    }
}

/// A write-ahead journal persisted as a [`SimOs`] file.
///
/// The handle is cheap to clone and represents the *file*, not any
/// process: it survives crashes, and a fresh handle opened on the same
/// path sees the same records. Record framing is
/// `[u8 tag-len][tag][u32 body-len BE][body]`, repeated; a torn tail
/// (crash mid-append, not possible in this simulation but defended
/// against anyway) is ignored by the parser.
#[derive(Clone)]
pub struct Journal {
    os: SimOs,
    host: String,
    path: String,
    euid: Uid,
}

impl Journal {
    /// Open (or lazily create) the journal at `path` on `host`, owned
    /// by `euid`. The file is private to that uid.
    pub fn open(os: SimOs, host: &str, path: &str, euid: Uid) -> Self {
        Journal {
            os,
            host: host.to_string(),
            path: path.to_string(),
            euid,
        }
    }

    /// Append one record durably. Must be called *before* the side
    /// effect's reply leaves the process (write-ahead discipline).
    pub fn append(&self, tag: &str, body: &[u8]) -> Result<(), TestbedError> {
        assert!(tag.len() <= u8::MAX as usize, "journal tag too long");
        let mut rec = Vec::with_capacity(5 + tag.len() + body.len());
        rec.push(tag.len() as u8);
        rec.extend_from_slice(tag.as_bytes());
        rec.extend_from_slice(&(body.len() as u32).to_be_bytes());
        rec.extend_from_slice(body);
        self.os
            .append_file(&self.host, &self.path, self.euid, FileMode::private(), &rec)
    }

    /// All records, in append order. A missing file is an empty journal.
    pub fn records(&self) -> Vec<(String, Vec<u8>)> {
        let bytes = match self.os.read_file(&self.host, &self.path, self.euid) {
            Ok(b) => b,
            Err(_) => return Vec::new(),
        };
        let mut out = Vec::new();
        let mut i = 0usize;
        while i < bytes.len() {
            let Some(&tag_len) = bytes.get(i) else { break };
            let tag_end = i + 1 + tag_len as usize;
            if bytes.len() < tag_end + 4 {
                break;
            }
            let tag = String::from_utf8_lossy(&bytes[i + 1..tag_end]).into_owned();
            let body_len =
                u32::from_be_bytes(bytes[tag_end..tag_end + 4].try_into().unwrap()) as usize;
            let body_end = tag_end + 4 + body_len;
            if bytes.len() < body_end {
                break;
            }
            out.push((tag, bytes[tag_end + 4..body_end].to_vec()));
            i = body_end;
        }
        out
    }

    /// Number of complete records.
    pub fn len(&self) -> usize {
        self.records().len()
    }

    /// `true` if no record has ever been appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// What a crash-hostable application must provide: request handling
/// plus the two lifecycle edges of a process death.
pub trait CrashRecover {
    /// Handle one *fresh* request (retransmissions of already-answered
    /// requests never reach this). `id` is the RPC call id — combined
    /// with `from` it keys application-level dedup records.
    fn handle(&mut self, from: &str, id: u64, body: &[u8]) -> Vec<u8>;
    /// The process died: drop all volatile (in-memory) state.
    fn crash(&mut self) {}
    /// The process restarted: rebuild state from the journal.
    fn recover(&mut self) {}
}

const RPC_REPLY_TAG: &str = "rpc";

fn encode_rpc_record(from: &str, id: u64, reply: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + from.len() + reply.len());
    out.extend_from_slice(&(from.len() as u32).to_be_bytes());
    out.extend_from_slice(from.as_bytes());
    out.extend_from_slice(&id.to_be_bytes());
    out.extend_from_slice(reply);
    out
}

fn decode_rpc_record(body: &[u8]) -> Option<(String, u64, Vec<u8>)> {
    if body.len() < 4 {
        return None;
    }
    let from_len = u32::from_be_bytes(body[..4].try_into().unwrap()) as usize;
    if body.len() < 4 + from_len + 8 {
        return None;
    }
    let from = String::from_utf8_lossy(&body[4..4 + from_len]).into_owned();
    let id = u64::from_be_bytes(body[4 + from_len..4 + from_len + 8].try_into().unwrap());
    Some((from, id, body[4 + from_len + 8..].to_vec()))
}

/// An at-most-once RPC server that can be killed and restarted.
///
/// Like [`crate::rpc::RpcServer`], but the process behind it is mortal:
/// when the application latches a [`CrashPlan`] kill mid-request, the
/// supervisor discards the in-flight reply, drops volatile state
/// ([`CrashRecover::crash`]), and marks the process down for
/// `restart_delay` sim-seconds. While down, the endpoint stays
/// registered (the host is up; the port is just dead) and arriving mail
/// evaporates — clients see silence and retransmit. On restart the
/// reply cache is rebuilt from the journal's `rpc` records (when
/// `persist_replies` is on) and [`CrashRecover::recover`] rebuilds the
/// application state, so a retransmission of an already-executed
/// request is answered from the journal, never re-executed.
pub struct CrashableServer {
    name: String,
    endpoint: Endpoint,
    plan: CrashPlan,
    journal: Journal,
    persist_replies: bool,
    seen: HashMap<(String, u64), Vec<u8>>,
    down_until: Option<u64>,
}

impl CrashableServer {
    /// Host a service on `endpoint` under `plan`, journaling into
    /// `journal`. `persist_replies: false` skips reply journaling for
    /// services whose replies are worthless after a restart (e.g. GSS
    /// handshake tokens — the context they belong to died with the
    /// process; re-execution of a fresh token 1 is the *better*
    /// recovery).
    pub fn new(
        endpoint: Endpoint,
        name: &str,
        plan: CrashPlan,
        journal: Journal,
        persist_replies: bool,
    ) -> Self {
        CrashableServer {
            name: name.to_string(),
            endpoint,
            plan,
            journal,
            persist_replies,
            seen: HashMap::new(),
            down_until: None,
        }
    }

    /// Drain the mailbox once at sim time `now`, driving `app`. While
    /// down, arriving mail is discarded; once `now` reaches the restart
    /// deadline, the process comes back up first.
    fn poll(&mut self, app: &mut dyn CrashRecover, now: u64) {
        if let Some(until) = self.down_until {
            if now < until {
                while self.endpoint.try_recv().is_some() {}
                return;
            }
            // Restart: reply cache from the journal, app state via the
            // application's own replay.
            self.seen.clear();
            if self.persist_replies {
                for (tag, body) in self.journal.records() {
                    if tag == RPC_REPLY_TAG {
                        if let Some((from, id, reply)) = decode_rpc_record(&body) {
                            self.seen.insert((from, id), reply);
                        }
                    }
                }
            }
            app.recover();
            self.plan.note_restart(&self.name, now, self.seen.len());
            self.down_until = None;
        }
        while let Some(m) = self.endpoint.try_recv() {
            let Some((id, body)) = decode_request(&m.payload) else {
                continue;
            };
            let key = (m.from.clone(), id);
            if let Some(cached) = self.seen.get(&key) {
                let _ = self.endpoint.send(&m.from, encode_reply(id, cached));
                continue;
            }
            let reply = app.handle(&m.from, id, body);
            if let Some(point) = self.plan.take_pending() {
                // The process died mid-request: no reply, nothing
                // cached; volatile state is gone and unread mail
                // evaporates with the mailbox.
                self.plan.note_crash(&self.name, &point, now);
                app.crash();
                self.down_until = Some(now + self.plan.restart_delay());
                while self.endpoint.try_recv().is_some() {}
                return;
            }
            if self.persist_replies {
                // Write-ahead: the reply is durable before it is sent.
                let _ = self
                    .journal
                    .append(RPC_REPLY_TAG, &encode_rpc_record(&m.from, id, &reply));
            }
            self.seen.insert(key, reply.clone());
            let _ = self.endpoint.send(&m.from, encode_reply(id, &reply));
        }
    }
}

/// The application stays shared with the scenario (which inspects it
/// between calls), and a dead process wakes itself: it comes back at
/// `down_until` whether or not a retransmission is there to nudge it.
impl<A: CrashRecover> Task for ServerTask<CrashableServer, Rc<RefCell<A>>> {
    fn step(&mut self, cx: &TaskCx) -> Step {
        self.server.poll(&mut *self.app.borrow_mut(), cx.now());
        Step::WaitMail {
            deadline: self.server.down_until,
        }
    }
}

// ---------------------------------------------------------------------------
// Credential-lifetime fault layer
// ---------------------------------------------------------------------------

/// A seeded source of credential-lifetime faults: clock-skewed issuers,
/// near-zero proxy lifetimes, and staggered renewal-storm scheduling —
/// all drawn from one [`DetRng`] so a scenario's entire lifetime-fault
/// surface replays byte-identically per seed.
///
/// The knobs model the three ways real grids corrupt credential
/// lifetime: an issuer whose wall clock is wrong (proxies born in the
/// future or already stale), an operator or tool that requests an
/// absurdly short lifetime, and a portal population whose sign-on
/// times (and therefore renewal deadlines) pile up into waves.
pub struct LifetimeFaults {
    rng: DetRng,
    /// Maximum issuer clock skew in either direction, sim-seconds.
    skew_max: u64,
    /// Per-mille of draws that yield a near-zero lifetime.
    short_permille: u64,
    /// The "near-zero" lifetime range upper bound, sim-seconds.
    short_max: u64,
    skewed: u64,
    shortened: u64,
}

impl LifetimeFaults {
    /// A seeded injector with the default fault mix: issuer skew up to
    /// ±`skew_max`, and `short_permille`‰ of lifetimes collapsed into
    /// `1..=short_max` sim-seconds.
    pub fn seeded(seed: u64, skew_max: u64, short_permille: u64, short_max: u64) -> Self {
        LifetimeFaults {
            rng: DetRng::seed_from_u64(seed ^ 0x4C49_4645_5449_4D45), // "LIFETIME"
            skew_max,
            short_permille,
            short_max: short_max.max(1),
            skewed: 0,
            shortened: 0,
        }
    }

    /// An injector that never perturbs anything (still burns rng draws
    /// identically, so a scenario can flip faults on without shifting
    /// every later draw).
    pub fn disabled(seed: u64) -> Self {
        Self::seeded(seed, 0, 0, 1)
    }

    /// An issuer's view of `now`: true time plus a seeded skew in
    /// `[-skew_max, +skew_max]`. Zero-skew configs return `now`.
    pub fn issuer_now(&mut self, now: u64) -> u64 {
        let draw = self.rng.next_u64();
        if self.skew_max == 0 {
            return now;
        }
        let magnitude = draw % (self.skew_max + 1);
        let backwards = draw & (1 << 63) != 0;
        if magnitude > 0 {
            self.skewed += 1;
        }
        if backwards {
            now.saturating_sub(magnitude)
        } else {
            now.saturating_add(magnitude)
        }
    }

    /// A possibly-faulted lifetime: usually `nominal`, but
    /// `short_permille`‰ of draws collapse to `1..=short_max` — the
    /// near-zero lifetimes that force immediate renewal churn.
    pub fn lifetime(&mut self, nominal: u64) -> u64 {
        let draw = self.rng.next_u64();
        if self.short_permille > 0 && draw % 1000 < self.short_permille {
            self.shortened += 1;
            1 + (draw >> 10) % self.short_max
        } else {
            nominal
        }
    }

    /// A renewal-storm offset in `[0, spread)`: where in the storm
    /// window this principal signs on (and therefore when its renewals
    /// come due). `spread == 0` returns 0.
    pub fn storm_offset(&mut self, spread: u64) -> u64 {
        let draw = self.rng.next_u64();
        if spread == 0 {
            0
        } else {
            draw % spread
        }
    }

    /// Draws that actually applied issuer skew.
    pub fn skewed(&self) -> u64 {
        self.skewed
    }

    /// Draws that collapsed a lifetime to near-zero.
    pub fn shortened(&self) -> u64 {
        self.shortened
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::os::FileMode;

    /// Build a host with the GT2 shape: a privileged, network-facing
    /// gatekeeper; and user processes with credentials.
    fn gt2_host() -> (SimOs, Pid, Pid) {
        let os = SimOs::new();
        os.add_host("h");
        let alice = os.add_account("h", "alice").unwrap();
        let bob = os.add_account("h", "bob").unwrap();
        os.write_file(
            "h",
            "/home/alice/proxy",
            alice,
            FileMode::private(),
            vec![1],
        )
        .unwrap();
        os.write_file("h", "/home/bob/proxy", bob, FileMode::private(), vec![2])
            .unwrap();
        os.write_file(
            "h",
            "/etc/hostkey",
            crate::os::ROOT_UID,
            FileMode::private(),
            vec![3],
        )
        .unwrap();
        let gk = os.spawn_privileged("h", "gatekeeper").unwrap();
        os.mark_network_facing("h", gk).unwrap();
        os.grant_credential("h", gk, "host credential").unwrap();
        let ajob = os.spawn("h", "jobmanager-alice", "alice").unwrap();
        os.grant_credential("h", ajob, "alice delegated proxy")
            .unwrap();
        (os, gk, ajob)
    }

    #[test]
    fn root_compromise_owns_everything() {
        let (os, gk, _) = gt2_host();
        let report = compromise(&os, "h", gk).unwrap();
        assert!(report.full_host_compromise);
        assert_eq!(report.accounts_reachable.len(), 3); // root, alice, bob
        assert_eq!(report.files_readable.len(), 3);
        assert!(report
            .credentials_exposed
            .contains(&"alice delegated proxy".to_string()));
        assert!(report
            .credentials_exposed
            .contains(&"host credential".to_string()));
    }

    #[test]
    fn unprivileged_compromise_is_contained() {
        let (os, _, ajob) = gt2_host();
        let report = compromise(&os, "h", ajob).unwrap();
        assert!(!report.full_host_compromise);
        assert_eq!(report.accounts_reachable, vec!["alice".to_string()]);
        // Can read own proxy, not bob's, not the host key.
        assert!(report
            .files_readable
            .contains(&"/home/alice/proxy".to_string()));
        assert!(!report
            .files_readable
            .contains(&"/home/bob/proxy".to_string()));
        assert!(!report.files_readable.contains(&"/etc/hostkey".to_string()));
        assert_eq!(
            report.credentials_exposed,
            vec!["alice delegated proxy".to_string()]
        );
    }

    #[test]
    fn blast_radius_orders_architectures() {
        let (os, gk, ajob) = gt2_host();
        let privileged = compromise(&os, "h", gk).unwrap();
        let contained = compromise(&os, "h", ajob).unwrap();
        assert!(privileged.blast_radius() > contained.blast_radius());
    }

    #[test]
    fn world_writable_files_count_for_everyone() {
        let (os, _, ajob) = gt2_host();
        os.write_file(
            "h",
            "/tmp/scratch",
            crate::os::ROOT_UID,
            FileMode(
                FileMode::WORLD_READ
                    | FileMode::WORLD_WRITE
                    | FileMode::OWNER_READ
                    | FileMode::OWNER_WRITE,
            ),
            vec![],
        )
        .unwrap();
        let report = compromise(&os, "h", ajob).unwrap();
        assert!(report.files_writable.contains(&"/tmp/scratch".to_string()));
    }

    #[test]
    fn unknown_pid_errors() {
        let (os, _, _) = gt2_host();
        assert!(compromise(&os, "h", 999_999).is_err());
    }

    // -- crash/restart layer ------------------------------------------------

    use crate::clock::SimClock;
    use crate::net::{FaultProfile, Network};
    use crate::rpc::RpcClient;
    use crate::sched::Scheduler;
    use gridsec_util::retry::RetryPolicy;

    fn journal_on(os: &SimOs) -> Journal {
        os.add_host("jh");
        Journal::open(os.clone(), "jh", "/var/journal/test.wal", ROOT_UID)
    }

    #[test]
    fn journal_survives_handle_loss_and_ignores_torn_tail() {
        let os = SimOs::new();
        let j = journal_on(&os);
        j.append("a", b"one").unwrap();
        j.append("bb", b"two").unwrap();
        drop(j);
        // A fresh handle on the same path sees the same records: the
        // journal is the file, not the process.
        let j2 = Journal::open(os.clone(), "jh", "/var/journal/test.wal", ROOT_UID);
        assert_eq!(
            j2.records(),
            vec![
                ("a".to_string(), b"one".to_vec()),
                ("bb".to_string(), b"two".to_vec())
            ]
        );
        // A torn tail (half an append) parses as if absent.
        os.append_file(
            "jh",
            "/var/journal/test.wal",
            ROOT_UID,
            FileMode::private(),
            &[3, b'c'],
        )
        .unwrap();
        assert_eq!(j2.len(), 2);
    }

    #[test]
    fn crash_plan_is_deterministic_per_seed() {
        let decisions = |seed: u64| -> Vec<bool> {
            let plan = CrashPlan::seeded(seed, 0.3, 1_000, 2);
            (0..64)
                .map(|_| {
                    let fired = plan.fires("p");
                    plan.take_pending();
                    fired
                })
                .collect()
        };
        assert_eq!(decisions(7), decisions(7));
        assert_ne!(decisions(7), decisions(8));
        assert!(decisions(7).iter().any(|&b| b), "0.3 over 64 draws fires");
    }

    #[test]
    fn crash_plan_latches_until_taken_and_respects_budget() {
        let plan = CrashPlan::manual(2);
        plan.arm("a", 2);
        assert!(!plan.fires("a"), "first hit not armed");
        assert!(plan.fires("a"), "second hit armed");
        // Latched: every further point reports the process dying.
        assert!(plan.fires("b"));
        assert_eq!(plan.take_pending().as_deref(), Some("a"));
        assert!(!plan.fires("a"), "hit 3 not armed");

        let capped = CrashPlan::seeded(1, 1.0, 1, 2);
        assert!(capped.fires("x"));
        capped.take_pending();
        assert!(!capped.fires("x"), "budget of one crash is spent");
    }

    /// A durable counter service: `incr` is the side effect; the journal
    /// carries a dedup record per (caller, id) written *before* the
    /// reply, so a crash in any window leaves at most one increment.
    struct CountingApp {
        plan: CrashPlan,
        journal: Journal,
        count: u64,
    }

    impl CrashRecover for CountingApp {
        fn handle(&mut self, from: &str, id: u64, _body: &[u8]) -> Vec<u8> {
            if self.plan.fires("app.exec") {
                return Vec::new();
            }
            let key = format!("{from}:{id}");
            if self
                .journal
                .records()
                .iter()
                .any(|(t, b)| t == "incr" && b == key.as_bytes())
            {
                // Re-execution after a crash that lost the reply record:
                // the side effect already happened.
                return b"ok".to_vec();
            }
            self.count += 1;
            self.journal.append("incr", key.as_bytes()).unwrap();
            if self.plan.fires("app.journaled") {
                return Vec::new();
            }
            b"ok".to_vec()
        }
        fn crash(&mut self) {
            self.count = 0;
        }
        fn recover(&mut self) {
            self.count = self
                .journal
                .records()
                .iter()
                .filter(|(t, _)| t == "incr")
                .count() as u64;
        }
    }

    /// The counting service as a task on the returned scheduler, and a
    /// client of it, over a fault-armed (but fault-free) network.
    fn crash_rig(plan: CrashPlan) -> (RpcClient, Rc<RefCell<CountingApp>>, Scheduler, SimClock) {
        let os = SimOs::new();
        os.add_host("svc-host");
        let journal = Journal::open(os, "svc-host", "/var/journal/count.wal", ROOT_UID);
        let net = Network::new();
        let clock = SimClock::new();
        net.enable_faults(clock.clone(), 0xC0DE, FaultProfile::default());
        let server = CrashableServer::new(
            net.register("svc"),
            "svc",
            plan.clone(),
            journal.clone(),
            true,
        );
        let app = Rc::new(RefCell::new(CountingApp {
            plan,
            journal,
            count: 0,
        }));
        let mut sched = Scheduler::new(&net);
        sched.spawn_mailbox("svc", ServerTask::new(server, app.clone()));
        let client = RpcClient::new(
            net.register("client"),
            "svc",
            RetryPolicy {
                max_attempts: 8,
                base_timeout: 16,
                multiplier: 2,
                max_timeout: 64,
            },
        );
        (client, app, sched, clock)
    }

    #[test]
    fn crash_before_side_effect_retries_to_exactly_one() {
        let plan = CrashPlan::manual(2);
        plan.arm("app.exec", 1);
        let (mut client, app, _sched, _clock) = crash_rig(plan.clone());
        assert_eq!(client.call(b"incr").unwrap(), b"ok");
        assert_eq!(app.borrow().count, 1, "one increment despite the kill");
        assert_eq!(plan.restarts(), 1);
        assert_eq!(plan.crashes(), 1);
        assert!(plan.transcript()[0].contains("crash svc=svc point=app.exec"));
    }

    #[test]
    fn crash_after_journal_before_reply_does_not_duplicate() {
        let plan = CrashPlan::manual(2);
        plan.arm("app.journaled", 1);
        let (mut client, app, _sched, _clock) = crash_rig(plan);
        assert_eq!(client.call(b"incr").unwrap(), b"ok");
        // The side effect was journaled, the reply was lost; the
        // retransmission re-executed the handler, which found its own
        // dedup record. Exactly one increment.
        assert_eq!(app.borrow().count, 1);
        assert_eq!(
            app.borrow()
                .journal
                .records()
                .iter()
                .filter(|(t, _)| t == "incr")
                .count(),
            1
        );
    }

    #[test]
    fn reply_cache_rebuilds_from_journal_across_restart() {
        let plan = CrashPlan::manual(2);
        let (mut client, app, _sched, _clock) = crash_rig(plan.clone());
        assert_eq!(client.call(b"incr").unwrap(), b"ok");
        assert_eq!(client.call(b"incr").unwrap(), b"ok");
        assert_eq!(app.borrow().count, 2);
        // Kill on the *third* call, then observe the restart rebuilt
        // the two completed replies from the journal.
        plan.arm("app.exec", 3);
        assert_eq!(client.call(b"incr").unwrap(), b"ok");
        assert_eq!(app.borrow().count, 3);
        assert_eq!(
            plan.transcript()[1],
            "[t=2] restart svc=svc replayed=2",
            "the two completed replies came back from the journal"
        );
    }

    #[test]
    fn mail_evaporates_while_down_and_client_survives() {
        let plan = CrashPlan::manual(40);
        plan.arm("app.exec", 1);
        let (mut client, app, _sched, _clock) = crash_rig(plan.clone());
        // Long downtime: several retransmissions evaporate before the
        // restart, then the call still completes within the budget.
        assert_eq!(client.call(b"incr").unwrap(), b"ok");
        assert_eq!(app.borrow().count, 1);
        assert_eq!(plan.restarts(), 1);
        assert!(client.stats().retransmissions >= 1);
    }

    #[test]
    fn crashed_server_restarts_at_down_until_without_mail() {
        let plan = CrashPlan::manual(5);
        plan.arm("app.journaled", 1);
        let (mut client, app, mut sched, clock) = crash_rig(plan.clone());
        // The kill lands after the increment is journaled, at t=0; the
        // client's first retransmission is not due until t=16. Nothing
        // else is in flight, so only the server's own wake can bring it
        // back at t=5 — and the retransmission it then answers must not
        // count a second time.
        assert_eq!(client.call(b"incr").unwrap(), b"ok");
        assert_eq!(
            plan.transcript(),
            vec![
                "[t=0] crash svc=svc point=app.journaled",
                "[t=5] restart svc=svc replayed=0",
            ]
        );
        assert_eq!(clock.now(), 16, "answered on the first retransmission");
        assert_eq!(client.stats().retransmissions, 1);
        assert_eq!(app.borrow().count, 1, "exactly once across the restart");
        // The reply made it into the journal this time: a late duplicate
        // of the same frame is answered from it without re-executing.
        let ep = client.endpoint();
        ep.send("svc", crate::rpc::encode_request(1, b"incr"))
            .unwrap();
        sched.run();
        let reply = ep.try_recv().expect("duplicate answered");
        assert_eq!(
            crate::rpc::decode_reply(&reply.payload),
            Some((1, &b"ok"[..]))
        );
        assert_eq!(app.borrow().count, 1);
    }

    #[test]
    fn lifetime_faults_replay_per_seed() {
        let run = |seed: u64| {
            let mut lf = LifetimeFaults::seeded(seed, 600, 300, 50);
            let draws: Vec<(u64, u64, u64)> = (0..64)
                .map(|_| {
                    (
                        lf.issuer_now(10_000),
                        lf.lifetime(3_600),
                        lf.storm_offset(900),
                    )
                })
                .collect();
            (draws, lf.skewed(), lf.shortened())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).0, run(8).0, "different seeds diverge");
        let (draws, skewed, shortened) = run(7);
        assert!(skewed > 0, "skew mix actually bit");
        assert!(shortened > 0, "short-lifetime mix actually bit");
        assert!(draws.iter().all(|&(_, l, o)| l >= 1 && o < 900));
        assert!(
            draws.iter().any(|&(n, _, _)| n != 10_000),
            "some issuer clock was skewed"
        );
        assert!(
            draws.iter().any(|&(_, l, _)| l <= 50),
            "some lifetime collapsed to near-zero"
        );
    }

    #[test]
    fn disabled_lifetime_faults_perturb_nothing_but_burn_draws() {
        let mut lf = LifetimeFaults::disabled(7);
        for _ in 0..32 {
            assert_eq!(lf.issuer_now(5_000), 5_000);
            assert_eq!(lf.lifetime(1_234), 1_234);
        }
        assert_eq!(lf.skewed(), 0);
        assert_eq!(lf.shortened(), 0);
    }
}
