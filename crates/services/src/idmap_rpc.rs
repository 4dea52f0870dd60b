//! The identity mapping service (paper §4.1): it "takes a user's
//! identity in one domain and returns the identity in another (e.g.,
//! given the user's X.509 identity, it could return the Kerberos
//! principal name)", served crash-durably over the at-most-once RPC
//! layer.
//!
//! Its only state is the DN ↔ `user@REALM` table, kept behind a
//! write-ahead [`Journal`] — every `add` is one [`Journal::commit`]
//! record, holding the mapping and the exact reply, written *before* it
//! takes effect; a crash discards the in-memory table, and recovery
//! replays the journal.
//! [`DurableIdentityMap`] plugs into a
//! [`CrashableServer`][gridsec_testbed::faults::CrashableServer], so a
//! retransmitted add is answered from its commit record across any
//! crash schedule. Lookups commit nothing: after a restart a
//! retransmitted lookup is simply re-executed against the rebuilt
//! table.
//!
//! Replies are [`Reply`] envelopes: `Ok(text)` (`user@REALM`, a DN),
//! `Absent` for "no mapping", `Refused(reason)`.
//!
//! Kill points (see `testbed::faults`):
//!
//! * `idmap.add.exec` — before the mapping record is journaled (the
//!   retransmit re-runs the add from scratch).
//! * `idmap.add.journaled` — after the record is durable but before the
//!   reply leaves (recovery replays the mapping; the retransmit is
//!   answered from the commit record).

use gridsec_pki::encoding::{Decoder, Encoder};
use gridsec_pki::name::DistinguishedName;
use gridsec_testbed::faults::{CrashPlan, CrashRecover, Journal};
use gridsec_testbed::rpc::{Reply, RpcClient};
use gridsec_util::trace;
use std::collections::HashMap;

/// Op: register a DN ↔ principal mapping.
pub(crate) const OP_ADD: &str = "idmap-add";
/// Op: X.509 DN → Kerberos principal.
pub(crate) const OP_TO_PRINCIPAL: &str = "idmap-to-principal";
/// Op: Kerberos principal → X.509 DN.
pub(crate) const OP_TO_DN: &str = "idmap-to-dn";

/// Journal tag for one mapping record.
pub(crate) const TAG_MAP: &str = "idmap-map";

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

/// Bidirectional DN ↔ Kerberos-principal table.
#[derive(Default)]
struct IdentityMap {
    dn_to_principal: HashMap<String, String>,
    principal_to_dn: HashMap<String, String>,
}

impl IdentityMap {
    /// Register a bidirectional mapping.
    fn add(&mut self, dn: &DistinguishedName, principal: &str, realm: &str) {
        let qualified = format!("{principal}@{realm}");
        self.dn_to_principal
            .insert(dn.to_string(), qualified.clone());
        self.principal_to_dn.insert(qualified, dn.to_string());
    }

    /// X.509 → Kerberos (`user@REALM`).
    fn to_principal(&self, dn: &DistinguishedName) -> Option<&str> {
        self.dn_to_principal
            .get(&dn.to_string())
            .map(|s| s.as_str())
    }

    /// Kerberos → X.509.
    fn to_dn(&self, principal: &str, realm: &str) -> Option<DistinguishedName> {
        self.principal_to_dn
            .get(&format!("{principal}@{realm}"))
            .and_then(|s| DistinguishedName::parse(s).ok())
    }
}

/// The identity map with write-ahead journaling and crash recovery,
/// servable through a `CrashableServer`.
pub struct DurableIdentityMap {
    map: IdentityMap,
    plan: CrashPlan,
    /// The write-ahead journal; its commit records answer retransmits
    /// after a restart.
    journal: Journal,
}

impl DurableIdentityMap {
    /// Open over `journal`; any existing records are replayed when it
    /// is spawned.
    pub fn new(plan: CrashPlan, journal: Journal) -> Self {
        DurableIdentityMap {
            map: IdentityMap::default(),
            plan,
            journal,
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

    /// `idmap-add`; `None` when the process died at a kill point.
    fn add(&mut self, from: &str, id: u64, d: &mut Decoder<'_>) -> Option<Reply> {
        let refused = |reason: &str| Some(Reply::Refused(reason.into()));
        let (Ok(dn_s), Ok(principal), Ok(realm)) = (d.get_str(), d.get_str(), d.get_str()) else {
            return refused("malformed add");
        };
        let Ok(dn) = DistinguishedName::parse(&dn_s) else {
            return refused("bad DN");
        };
        if self.plan.fires("idmap.add.exec") {
            return None;
        }
        // Write-ahead: the mapping and its reply are durable before the
        // mapping is visible, so a crash at any later point recovers it.
        let ok = Reply::Ok(format!("{principal}@{realm}").into_bytes());
        let mut e = Encoder::new();
        e.put_str(&dn_s).put_str(&principal).put_str(&realm);
        if self
            .journal
            .commit(TAG_MAP, from, id, &ok.encode(), &e.finish())
            .is_err()
        {
            return refused("journal unavailable");
        }
        if self.plan.fires("idmap.add.journaled") {
            return None;
        }
        self.map.add(&dn, &principal, &realm);
        trace::add("idmap.adds", 1);
        Some(ok)
    }

    /// A lookup's answer: the mapped name, or `Absent`.
    fn found(name: Option<String>) -> Reply {
        name.map_or(Reply::Absent(Vec::new()), |name| {
            Reply::Ok(name.into_bytes())
        })
    }
}

impl CrashRecover for DurableIdentityMap {
    fn handle(&mut self, from: &str, id: u64, body: &[u8]) -> Vec<u8> {
        let refused = |reason: &str| Reply::Refused(reason.into());
        let mut d = Decoder::new(body);
        let reply = match d.get_str().as_deref() {
            Ok(OP_ADD) => match self.add(from, id, &mut d) {
                Some(reply) => reply,
                None => return Vec::new(),
            },
            Ok(OP_TO_PRINCIPAL) => match d.get_str() {
                Ok(dn) => Self::found(
                    DistinguishedName::parse(&dn)
                        .ok()
                        .and_then(|dn| self.map.to_principal(&dn).map(str::to_string)),
                ),
                Err(_) => refused("malformed lookup"),
            },
            Ok(OP_TO_DN) => match (d.get_str(), d.get_str()) {
                (Ok(principal), Ok(realm)) => {
                    Self::found(self.map.to_dn(&principal, &realm).map(|dn| dn.to_string()))
                }
                _ => refused("malformed lookup"),
            },
            Ok(_) => refused("unknown op"),
            Err(_) => refused("malformed request"),
        };
        reply.encode()
    }

    fn crash(&mut self) {
        self.map = IdentityMap::default();
    }

    fn recover(&mut self) -> Vec<((String, u64), Vec<u8>)> {
        self.crash();
        self.journal.replay(|tag, body| {
            if tag == TAG_MAP {
                Self::apply_record(&mut self.map, body);
            }
        })
    }
}

/// One call: the `Ok` body as text, `None` for `Absent`, or the typed
/// failure.
fn round(rpc: &mut RpcClient, request: Vec<u8>) -> Result<Option<String>, IdMapError> {
    let raw = rpc
        .call(&request)
        .map_err(|e| IdMapError::Transport(e.to_string()))?;
    match Reply::decode(&raw) {
        Some(Reply::Ok(body)) => String::from_utf8(body)
            .map(Some)
            .map_err(|_| IdMapError::Decode("malformed idmap reply")),
        Some(Reply::Absent(_)) => Ok(None),
        Some(Reply::Refused(reason)) => Err(IdMapError::Refused(reason)),
        None => Err(IdMapError::Decode("malformed idmap reply")),
    }
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
        Some(_) => Ok(()),
        None => Err(IdMapError::Decode("absent reply to an add")),
    }
}

/// Resolve a DN to `user@REALM` on a remote durable identity map.
pub fn remote_to_principal(
    rpc: &mut RpcClient,
    dn: &DistinguishedName,
) -> Result<Option<String>, IdMapError> {
    let mut e = Encoder::new();
    e.put_str(OP_TO_PRINCIPAL).put_str(&dn.to_string());
    round(rpc, e.finish())
}

/// Resolve `user@REALM` to a DN on a remote durable identity map.
pub fn remote_to_dn(
    rpc: &mut RpcClient,
    principal: &str,
    realm: &str,
) -> Result<Option<DistinguishedName>, IdMapError> {
    let mut e = Encoder::new();
    e.put_str(OP_TO_DN).put_str(principal).put_str(realm);
    round(rpc, e.finish())?
        .map(|dn| DistinguishedName::parse(&dn).map_err(|_| IdMapError::Decode("bad DN in reply")))
        .transpose()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsec_testbed::clock::SimClock;
    use gridsec_testbed::faults::CrashableServer;
    use gridsec_testbed::net::{FaultProfile, Network};
    use gridsec_testbed::os::{SimOs, ROOT_UID};
    use gridsec_testbed::sched::Scheduler;
    use gridsec_util::retry::RetryPolicy;
    use std::cell::RefCell;
    use std::rc::Rc;

    impl IdentityMap {
        /// Number of mappings.
        fn len(&self) -> usize {
            self.dn_to_principal.len()
        }
    }

    fn dn(s: &str) -> DistinguishedName {
        DistinguishedName::parse(s).unwrap()
    }

    #[test]
    fn bidirectional_mapping() {
        let mut map = IdentityMap::default();
        map.add(&dn("/O=G/CN=Jane"), "jdoe", "SITE.A");
        map.add(&dn("/O=G/CN=Carl"), "carl", "SITE.A");
        assert_eq!(map.to_principal(&dn("/O=G/CN=Jane")), Some("jdoe@SITE.A"));
        assert_eq!(map.to_dn("jdoe", "SITE.A"), Some(dn("/O=G/CN=Jane")));
        assert_eq!(map.to_principal(&dn("/O=G/CN=Nobody")), None);
        assert_eq!(map.to_dn("ghost", "SITE.A"), None);
        assert_eq!(map.len(), 2);
    }

    #[test]
    fn realm_disambiguates() {
        let mut map = IdentityMap::default();
        map.add(&dn("/O=A/CN=J"), "j", "SITE.A");
        map.add(&dn("/O=B/CN=J"), "j", "SITE.B");
        assert_eq!(map.to_dn("j", "SITE.A"), Some(dn("/O=A/CN=J")));
        assert_eq!(map.to_dn("j", "SITE.B"), Some(dn("/O=B/CN=J")));
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
        assert_eq!(m.map.len(), 1);
        m.crash();
        assert_eq!(m.map.len(), 0, "crash wipes memory");
        m.recover();
        assert_eq!(
            m.map.to_principal(&dn("/O=G/CN=Jane")),
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
        let replies = m.recover();
        // The record was durable, so recovery already applied it, and it
        // carries the reply a restarted supervisor answers the
        // retransmit with: the add never runs twice.
        assert_eq!(m.map.len(), 1, "no duplicate mapping");
        assert_eq!(
            replies,
            [(
                ("admin".to_string(), 5),
                Reply::Ok(b"jdoe@SITE.A".to_vec()).encode()
            )]
        );
    }

    #[test]
    fn a_reply_that_is_not_a_dn_is_a_decode_error_not_no_mapping() {
        let net = Network::new();
        let mut sched = Scheduler::new(&net);
        struct NotADn;
        impl CrashRecover for NotADn {
            fn handle(&mut self, _from: &str, _id: u64, _body: &[u8]) -> Vec<u8> {
                Reply::Ok(b"not a dn".to_vec()).encode()
            }
        }
        CrashableServer::spawn(
            &mut sched,
            net.register("idmap-host"),
            "idmap",
            &CrashPlan::disabled(),
            &Rc::new(RefCell::new(NotADn)),
        );
        let mut rpc = RpcClient::new(net.register("admin"), "idmap-host", RetryPolicy::default());
        assert_eq!(
            remote_to_dn(&mut rpc, "jdoe", "SITE.A"),
            Err(IdMapError::Decode("bad DN in reply"))
        );
    }

    /// Each identity-map kill point armed once, on its own: the map's
    /// rows of DESIGN.md §10's kill-point sweep, since no chaos scenario
    /// hosts the map.
    #[test]
    fn full_rpc_chain_with_crash_and_restart() {
        for point in ["idmap.add.exec", "idmap.add.journaled"] {
            let plan = CrashPlan::manual(3);
            plan.arm(point, 1);
            let (_os, j) = journal();
            let durable = Rc::new(RefCell::new(DurableIdentityMap::new(
                plan.clone(),
                j.clone(),
            )));
            let clock = SimClock::new();
            let net = Network::new();
            net.enable_faults(clock, 0x1D3A, FaultProfile::default());
            let mut sched = Scheduler::new(&net);
            CrashableServer::spawn(
                &mut sched,
                net.register("idmap-host"),
                "idmap",
                &plan,
                &durable,
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

            // The armed kill fires before or after the journal append:
            // the client's retransmit rides through the restart and
            // still gets "ok".
            remote_add(&mut rpc, &dn("/O=G/CN=Jane"), "jdoe", "SITE.A").unwrap();
            assert_eq!(plan.crashes(), 1, "{point}");
            assert_eq!(plan.restarts(), 1, "{point}");
            assert!(
                plan.transcript()[0].ends_with(&format!("point={point}")),
                "{point}: the transcript names the point"
            );
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
            assert_eq!(
                durable.borrow().map.len(),
                1,
                "{point}: exactly one mapping"
            );
            // One commit record for the add, nothing for the three lookups.
            let mut tags = Vec::new();
            j.replay(|tag, _| tags.push(tag.to_string()));
            assert_eq!(tags, [TAG_MAP], "{point}");
        }
    }
}
