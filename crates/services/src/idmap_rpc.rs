//! Crash-durable identity mapping over the at-most-once RPC layer.
//!
//! The paper's §4.1 identity mapping service is the simplest of the
//! "security services" to make restartable: its only state is the
//! mapping table, which here is a write-ahead [`Journal`] — every
//! `add` is appended *before* it takes effect, a crash discards the
//! in-memory [`IdentityMap`], and recovery replays the journal.
//! [`DurableIdentityMap`] plugs into a
//! [`CrashableServer`][gridsec_testbed::faults::CrashableServer], so
//! retransmitted lookups are answered from the rebuilt reply cache and
//! mutations stay idempotent across any crash schedule.
//!
//! Kill points (see `testbed::faults`):
//!
//! * `idmap.add.exec` — before the mapping record is journaled (the
//!   retransmit re-runs the add from scratch).
//! * `idmap.add.journaled` — after the record is durable but before the
//!   reply leaves (recovery replays the mapping; the retransmit sees a
//!   table that already contains it).

use crate::identity_map::IdentityMap;
use gridsec_pki::encoding::{Decoder, Encoder};
use gridsec_pki::name::DistinguishedName;
use gridsec_testbed::faults::{CrashPlan, CrashRecover, Journal};
use gridsec_testbed::rpc::RpcClient;
use gridsec_util::trace;

/// Op: register a DN ↔ principal mapping.
pub const OP_ADD: &str = "idmap-add";
/// Op: X.509 DN → Kerberos principal.
pub const OP_TO_PRINCIPAL: &str = "idmap-to-principal";
/// Op: Kerberos principal → X.509 DN.
pub const OP_TO_DN: &str = "idmap-to-dn";

/// Journal tag for one mapping record.
pub const TAG_MAP: &str = "idmap-map";

/// Errors from remote identity-map calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IdMapError {
    /// RPC transport failure (retries exhausted).
    Transport(String),
    /// Malformed reply.
    Decode(&'static str),
    /// The service refused the request.
    Refused(String),
}

impl core::fmt::Display for IdMapError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            IdMapError::Transport(m) => write!(f, "transport error: {m}"),
            IdMapError::Decode(m) => write!(f, "decode error: {m}"),
            IdMapError::Refused(m) => write!(f, "refused: {m}"),
        }
    }
}

impl std::error::Error for IdMapError {}

/// An [`IdentityMap`] wrapped in write-ahead journaling and crash
/// recovery, servable through a `CrashableServer`.
pub struct DurableIdentityMap {
    map: IdentityMap,
    plan: CrashPlan,
    /// The write-ahead journal (shared with the supervisor).
    pub journal: Journal,
}

impl DurableIdentityMap {
    /// Open over `journal`, replaying any existing records.
    pub fn new(plan: CrashPlan, journal: Journal) -> Self {
        let mut s = DurableIdentityMap {
            map: IdentityMap::new(),
            plan,
            journal,
        };
        s.replay();
        s
    }

    /// The recovered in-memory table.
    pub fn map(&self) -> &IdentityMap {
        &self.map
    }

    fn replay(&mut self) {
        for (tag, body) in self.journal.records() {
            if tag == TAG_MAP {
                Self::apply_record(&mut self.map, &body);
            }
        }
    }

    fn apply_record(map: &mut IdentityMap, body: &[u8]) {
        let mut d = Decoder::new(body);
        let (Ok(dn), Ok(principal), Ok(realm)) = (d.get_str(), d.get_str(), d.get_str()) else {
            return;
        };
        if let Ok(dn) = DistinguishedName::parse(&dn) {
            map.add(&dn, &principal, &realm);
        }
    }

    fn reply_ok(body: &str) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_str("ok").put_str(body);
        e.finish()
    }

    fn reply_none() -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_str("none").put_str("");
        e.finish()
    }

    fn reply_err(msg: &str) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_str("err").put_str(msg);
        e.finish()
    }
}

impl CrashRecover for DurableIdentityMap {
    fn handle(&mut self, _from: &str, _id: u64, body: &[u8]) -> Vec<u8> {
        let mut d = Decoder::new(body);
        let Ok(op) = d.get_str() else {
            return Self::reply_err("malformed request");
        };
        match op.as_str() {
            OP_ADD => {
                let (Ok(dn_s), Ok(principal), Ok(realm)) = (d.get_str(), d.get_str(), d.get_str())
                else {
                    return Self::reply_err("malformed add");
                };
                let Ok(dn) = DistinguishedName::parse(&dn_s) else {
                    return Self::reply_err("bad DN");
                };
                if self.plan.fires("idmap.add.exec") {
                    return Vec::new();
                }
                // Write-ahead: the mapping is durable before it is
                // visible, so a crash at any later point recovers it.
                let mut e = Encoder::new();
                e.put_str(&dn_s).put_str(&principal).put_str(&realm);
                if self.journal.append(TAG_MAP, &e.finish()).is_err() {
                    return Self::reply_err("journal unavailable");
                }
                if self.plan.fires("idmap.add.journaled") {
                    return Vec::new();
                }
                self.map.add(&dn, &principal, &realm);
                trace::add("idmap.adds", 1);
                Self::reply_ok(&format!("{principal}@{realm}"))
            }
            OP_TO_PRINCIPAL => {
                let Ok(dn_s) = d.get_str() else {
                    return Self::reply_err("malformed lookup");
                };
                match DistinguishedName::parse(&dn_s)
                    .ok()
                    .and_then(|dn| self.map.to_principal(&dn).map(str::to_string))
                {
                    Some(p) => Self::reply_ok(&p),
                    None => Self::reply_none(),
                }
            }
            OP_TO_DN => {
                let (Ok(principal), Ok(realm)) = (d.get_str(), d.get_str()) else {
                    return Self::reply_err("malformed lookup");
                };
                match self.map.to_dn(&principal, &realm) {
                    Some(dn) => Self::reply_ok(&dn.to_string()),
                    None => Self::reply_none(),
                }
            }
            _ => Self::reply_err("unknown op"),
        }
    }

    fn crash(&mut self) {
        self.map = IdentityMap::new();
    }

    fn recover(&mut self) {
        self.crash();
        self.replay();
    }
}

fn round(rpc: &mut RpcClient, request: Vec<u8>) -> Result<(String, String), IdMapError> {
    let raw = rpc
        .call(&request)
        .map_err(|e| IdMapError::Transport(e.to_string()))?;
    let mut d = Decoder::new(&raw);
    let (Ok(status), Ok(body)) = (d.get_str(), d.get_str()) else {
        return Err(IdMapError::Decode("malformed idmap reply"));
    };
    Ok((status, body))
}

/// Register a mapping on a remote durable identity map.
pub fn remote_add(
    rpc: &mut RpcClient,
    dn: &DistinguishedName,
    principal: &str,
    realm: &str,
) -> Result<(), IdMapError> {
    let mut e = Encoder::new();
    e.put_str(OP_ADD)
        .put_str(&dn.to_string())
        .put_str(principal)
        .put_str(realm);
    match round(rpc, e.finish())? {
        (s, _) if s == "ok" => Ok(()),
        (_, msg) => Err(IdMapError::Refused(msg)),
    }
}

/// Resolve a DN to `user@REALM` on a remote durable identity map.
pub fn remote_to_principal(
    rpc: &mut RpcClient,
    dn: &DistinguishedName,
) -> Result<Option<String>, IdMapError> {
    let mut e = Encoder::new();
    e.put_str(OP_TO_PRINCIPAL).put_str(&dn.to_string());
    match round(rpc, e.finish())? {
        (s, p) if s == "ok" => Ok(Some(p)),
        (s, _) if s == "none" => Ok(None),
        (_, msg) => Err(IdMapError::Refused(msg)),
    }
}

/// Resolve `user@REALM` to a DN on a remote durable identity map.
pub fn remote_to_dn(
    rpc: &mut RpcClient,
    principal: &str,
    realm: &str,
) -> Result<Option<DistinguishedName>, IdMapError> {
    let mut e = Encoder::new();
    e.put_str(OP_TO_DN).put_str(principal).put_str(realm);
    match round(rpc, e.finish())? {
        (s, d) if s == "ok" => Ok(DistinguishedName::parse(&d).ok()),
        (s, _) if s == "none" => Ok(None),
        (_, msg) => Err(IdMapError::Refused(msg)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsec_testbed::clock::SimClock;
    use gridsec_testbed::faults::CrashableServer;
    use gridsec_testbed::net::{FaultProfile, Network};
    use gridsec_testbed::os::{SimOs, ROOT_UID};
    use gridsec_testbed::rpc::ServerTask;
    use gridsec_testbed::sched::Scheduler;
    use gridsec_util::retry::RetryPolicy;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn dn(s: &str) -> DistinguishedName {
        DistinguishedName::parse(s).unwrap()
    }

    fn journal() -> (SimOs, Journal) {
        let os = SimOs::new();
        os.add_host("idmap-host");
        let j = Journal::open(os.clone(), "idmap-host", "/var/idmap/journal.wal", ROOT_UID);
        (os, j)
    }

    #[test]
    fn mappings_survive_crash_and_recover() {
        let (_os, j) = journal();
        let mut m = DurableIdentityMap::new(CrashPlan::disabled(), j);
        let _ = m.handle("admin", 1, &{
            let mut e = Encoder::new();
            e.put_str(OP_ADD)
                .put_str("/O=G/CN=Jane")
                .put_str("jdoe")
                .put_str("SITE.A");
            e.finish()
        });
        assert_eq!(m.map().len(), 1);
        m.crash();
        assert!(m.map().is_empty(), "crash wipes memory");
        m.recover();
        assert_eq!(
            m.map().to_principal(&dn("/O=G/CN=Jane")),
            Some("jdoe@SITE.A"),
            "journal replay restores the table"
        );
    }

    #[test]
    fn crash_between_journal_and_reply_keeps_add_idempotent() {
        let plan = CrashPlan::manual(2);
        plan.arm("idmap.add.journaled", 1);
        let (_os, j) = journal();
        let mut m = DurableIdentityMap::new(plan.clone(), j);
        let req = {
            let mut e = Encoder::new();
            e.put_str(OP_ADD)
                .put_str("/O=G/CN=Jane")
                .put_str("jdoe")
                .put_str("SITE.A");
            e.finish()
        };
        let _ = m.handle("admin", 5, &req);
        assert!(plan.take_pending().is_some(), "kill point fired");
        m.crash();
        m.recover();
        // The record was durable, so recovery already applied it; the
        // retransmit just re-reports success.
        assert_eq!(m.map().len(), 1);
        let reply = m.handle("admin", 5, &req);
        assert_eq!(Decoder::new(&reply).get_str().unwrap(), "ok");
        assert_eq!(m.map().len(), 1, "no duplicate mapping");
    }

    #[test]
    fn full_rpc_chain_with_crash_and_restart() {
        let plan = CrashPlan::manual(3);
        plan.arm("idmap.add.journaled", 1);
        let (_os, j) = journal();
        let durable = Rc::new(RefCell::new(DurableIdentityMap::new(
            plan.clone(),
            j.clone(),
        )));
        let clock = SimClock::new();
        let net = Network::new();
        net.enable_faults(clock, 0x1D3A, FaultProfile::default());
        let mut sched = Scheduler::new(&net);
        sched.spawn_mailbox(
            "idmap-host",
            ServerTask::new(
                CrashableServer::new(net.register("idmap-host"), "idmap", plan.clone(), j, true),
                durable.clone(),
            ),
        );
        let mut rpc = RpcClient::new(
            net.register("admin"),
            "idmap-host",
            RetryPolicy {
                max_attempts: 8,
                base_timeout: 16,
                multiplier: 2,
                max_timeout: 64,
            },
        );

        // The armed kill fires after the journal append: the client's
        // retransmit rides through the restart and still gets "ok".
        remote_add(&mut rpc, &dn("/O=G/CN=Jane"), "jdoe", "SITE.A").unwrap();
        assert_eq!(plan.crashes(), 1);
        assert_eq!(plan.restarts(), 1);
        assert_eq!(
            remote_to_principal(&mut rpc, &dn("/O=G/CN=Jane")).unwrap(),
            Some("jdoe@SITE.A".to_string())
        );
        assert_eq!(
            remote_to_dn(&mut rpc, "jdoe", "SITE.A").unwrap(),
            Some(dn("/O=G/CN=Jane"))
        );
        assert_eq!(
            remote_to_principal(&mut rpc, &dn("/O=G/CN=Ghost")).unwrap(),
            None
        );
        assert_eq!(durable.borrow().map().len(), 1, "exactly one mapping");
    }
}
