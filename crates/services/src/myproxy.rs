//! MyProxy-style online credential repository (GridCertLib's portal SSO
//! flow; Novotny/Tuecke/Welch's MyProxy, referenced from the paper's
//! single-sign-on story).
//!
//! A portal user *stores* a delegated credential at the repository once
//! (the repository generates the key pair locally — the user's private
//! key never crosses the wire, exactly the GSI delegation shape), then
//! any later incarnation of the portal — including one reborn after a
//! crash — presents the owner name and passphrase to *re-acquire* a
//! short-lived proxy, or to *renew* the proxy of a long-running job.
//!
//! The repository is durable: stored credentials (chain + locally
//! generated private key) and every visible proxy issuance are
//! journaled write-ahead into a [`Journal`], and the service is meant
//! to be hosted in a [`CrashableServer`] with `persist_replies: true`.
//! Issuance is exactly-once across any kill window: the issue record —
//! including the exact reply bytes — is durable before the reply can
//! leave the process, so a retransmission after the worst-window crash
//! is answered with the *same* proxy certificate instead of minting a
//! second one.
//!
//! Kill points (see `testbed::faults`):
//!
//! * `myproxy.store.exec` — before a store commit executes.
//! * `myproxy.store.journaled` — credential durable, reply lost.
//! * `myproxy.issue.exec` — before a get/renew issuance executes.
//! * `myproxy.issue.journaled` — issuance durable, reply lost (the
//!   worst window: recovery must serve the journaled proxy, not mint a
//!   fresh one).

use std::collections::HashMap;

use gridsec_crypto::rng::ChaChaRng;
use gridsec_crypto::rsa::{RsaKeyPair, RsaPublicKey};
use gridsec_crypto::sha256::sha256;
use gridsec_pki::cert::{decode_public_key, encode_public_key, Certificate};
use gridsec_pki::credential::Credential;
use gridsec_pki::encoding::{Codec, Decoder, Encoder};
use gridsec_pki::proxy::{issue_delegated_proxy, ProxyType};
use gridsec_testbed::clock::SimClock;
use gridsec_testbed::faults::{CrashPlan, CrashRecover, Journal};
use gridsec_testbed::rpc::RpcClient;
use gridsec_util::trace;

/// Op: begin a store — the repository generates and returns a key.
pub const OP_STORE_BEGIN: &str = "mp-store-begin";
/// Op: commit a store — deliver the proxy certificate over that key.
pub const OP_STORE_COMMIT: &str = "mp-store-commit";
/// Op: issue a fresh short-lived proxy for a portal re-acquisition.
pub const OP_GET: &str = "mp-get";
/// Op: issue a fresh short-lived proxy renewing a running job's.
pub const OP_RENEW: &str = "mp-renew";
/// Op: remove a stored credential.
pub const OP_DESTROY: &str = "mp-destroy";

/// Journal tag: a committed store (owner, passphrase hash, key, chain).
pub const TAG_STORE: &str = "mp-store";
/// Journal tag: a visible issuance (caller, call id, exact reply).
pub const TAG_ISSUE: &str = "mp-issue";
/// Journal tag: a destroy.
pub const TAG_DESTROY: &str = "mp-destroy";

/// Errors from remote credential-repository calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MyProxyError {
    /// RPC transport failure (retries exhausted).
    Transport(String),
    /// Malformed reply.
    Decode(&'static str),
    /// The repository refused the request (bad passphrase, no such
    /// credential, expired stored credential, ...).
    Refused(String),
}

impl core::fmt::Display for MyProxyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MyProxyError::Transport(m) => write!(f, "transport error: {m}"),
            MyProxyError::Decode(m) => write!(f, "decode error: {m}"),
            MyProxyError::Refused(m) => write!(f, "refused: {m}"),
        }
    }
}

impl std::error::Error for MyProxyError {}

fn pass_hash(passphrase: &str) -> [u8; 32] {
    sha256(passphrase.as_bytes())
}

/// One stored credential: the delegated chain plus the repository-held
/// private key, gated by a passphrase hash.
struct Stored {
    pass_hash: [u8; 32],
    credential: Credential,
}

fn encode_keypair(e: &mut Encoder, key: &RsaKeyPair) {
    let (p, q) = key.primes();
    e.put_biguint(p)
        .put_biguint(q)
        .put_biguint(key.public().exponent());
}

fn decode_keypair(d: &mut Decoder<'_>) -> Option<RsaKeyPair> {
    let p = d.get_biguint().ok()?;
    let q = d.get_biguint().ok()?;
    let e = d.get_biguint().ok()?;
    RsaKeyPair::from_components(p, q, e).ok()
}

/// The durable MyProxy repository; plug into a
/// [`CrashableServer`][gridsec_testbed::faults::CrashableServer] (with
/// `persist_replies: true`) as its [`CrashRecover`] application.
pub struct MyProxyServer {
    clock: SimClock,
    seed: Vec<u8>,
    generation: u64,
    rng: ChaChaRng,
    plan: CrashPlan,
    /// The write-ahead journal (shared with the supervisor).
    pub journal: Journal,
    /// Issuance lifetime cap, sim-seconds: requests asking for more are
    /// clamped (MyProxy's `max_proxy_lifetime`).
    max_lifetime: u64,
    /// owner → stored credential. Rebuilt from the journal on recovery.
    stored: HashMap<String, Stored>,
    /// (caller, call-id) → exact issue reply already journaled.
    issued: HashMap<(String, u64), Vec<u8>>,
    /// (caller, owner) → key pair awaiting its store commit. Volatile:
    /// a crash aborts the half-open store and the client begins again.
    pending_store: HashMap<(String, String), RsaKeyPair>,
    /// Serials of every proxy that became visible (journaled).
    serials: Vec<u64>,
}

impl MyProxyServer {
    /// Open the repository over `journal`, replaying any existing
    /// records. `max_lifetime` caps issued proxy lifetimes.
    pub fn new(
        clock: SimClock,
        seed: &[u8],
        plan: CrashPlan,
        journal: Journal,
        max_lifetime: u64,
    ) -> Self {
        let mut s = MyProxyServer {
            clock,
            seed: seed.to_vec(),
            generation: 0,
            rng: ChaChaRng::from_seed_bytes(seed),
            plan,
            journal,
            max_lifetime,
            stored: HashMap::new(),
            issued: HashMap::new(),
            pending_store: HashMap::new(),
            serials: Vec::new(),
        };
        s.recover();
        s
    }

    /// Owners with a stored credential.
    pub fn stored_count(&self) -> usize {
        self.stored.len()
    }

    /// Distinct proxy issuances that became visible (journaled) —
    /// retransmissions and crash-replays do not inflate this.
    pub fn issued_count(&self) -> usize {
        self.issued.len()
    }

    /// Serials of every visible issued proxy, in journal order.
    pub fn issued_serials(&self) -> &[u64] {
        &self.serials
    }

    fn reply_ok(body: &[u8]) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_str("ok").put_bytes(body);
        e.finish()
    }

    fn reply_err(msg: &str) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_str("err").put_bytes(msg.as_bytes());
        e.finish()
    }

    fn authorized(&self, owner: &str, passphrase: &str) -> Result<&Stored, &'static str> {
        let stored = self.stored.get(owner).ok_or("no such credential")?;
        if stored.pass_hash != pass_hash(passphrase) {
            return Err("bad passphrase");
        }
        Ok(stored)
    }

    fn handle_store_begin(&mut self, from: &str, d: &mut Decoder<'_>) -> Vec<u8> {
        let (Ok(owner), Ok(_passphrase)) = (d.get_str(), d.get_str()) else {
            return Self::reply_err("malformed store-begin");
        };
        // A fresh begin always restarts the pending store: the previous
        // half-open attempt (client died mid-flow) is abandoned.
        let key = RsaKeyPair::generate(&mut self.rng, 512);
        let mut e = Encoder::new();
        encode_public_key(&mut e, key.public());
        self.pending_store.insert((from.to_string(), owner), key);
        Self::reply_ok(&e.finish())
    }

    fn handle_store_commit(&mut self, from: &str, d: &mut Decoder<'_>) -> Vec<u8> {
        let parsed = (|| {
            let owner = d.get_str().ok()?;
            let passphrase = d.get_str().ok()?;
            let proxy_cert = Certificate::decode(d).ok()?;
            let chain = d.get_seq(Certificate::decode).ok()?;
            Some((owner, passphrase, proxy_cert, chain))
        })();
        let Some((owner, passphrase, proxy_cert, issuer_chain)) = parsed else {
            return Self::reply_err("malformed store-commit");
        };
        let Some(key) = self
            .pending_store
            .remove(&(from.to_string(), owner.clone()))
        else {
            return Self::reply_err("no store in progress");
        };
        if proxy_cert.public_key() != key.public() {
            return Self::reply_err("certificate is not over our key");
        }
        if self.plan.fires("myproxy.store.exec") {
            return Vec::new();
        }
        let hash = pass_hash(&passphrase);
        let mut e = Encoder::new();
        e.put_str(&owner).put_bytes(&hash);
        encode_keypair(&mut e, &key);
        proxy_cert.encode(&mut e);
        e.put_seq(&issuer_chain, |enc, c| c.encode(enc));
        if self.journal.append(TAG_STORE, &e.finish()).is_err() {
            return Self::reply_err("journal unavailable");
        }
        if self.plan.fires("myproxy.store.journaled") {
            return Vec::new();
        }
        let mut chain = vec![proxy_cert];
        chain.extend(issuer_chain);
        trace::add("myproxy.stores", 1);
        self.stored.insert(
            owner,
            Stored {
                pass_hash: hash,
                credential: Credential::new(chain, key),
            },
        );
        Self::reply_ok(&[])
    }

    fn handle_issue(&mut self, from: &str, id: u64, op: &str, d: &mut Decoder<'_>) -> Vec<u8> {
        let key = (from.to_string(), id);
        if let Some(reply) = self.issued.get(&key) {
            trace::event("myproxy.issue.replayed", &format!("from={from} id={id}"));
            return reply.clone();
        }
        let parsed = (|| {
            let owner = d.get_str().ok()?;
            let passphrase = d.get_str().ok()?;
            let public_key = decode_public_key(d).ok()?;
            let lifetime = d.get_u64().ok()?;
            Some((owner, passphrase, public_key, lifetime))
        })();
        let Some((owner, passphrase, public_key, lifetime)) = parsed else {
            return Self::reply_err(&format!("malformed {op}"));
        };
        if self.plan.fires("myproxy.issue.exec") {
            return Vec::new();
        }
        let now = self.clock.now();
        let reply = match self.issue(&owner, &passphrase, &public_key, lifetime, now) {
            Ok((reply, serial)) => {
                // Write-ahead: the exact reply is durable before it can
                // leave, so the worst-window crash replays it instead
                // of minting a second proxy.
                let mut e = Encoder::new();
                e.put_str(from)
                    .put_u64(id)
                    .put_str(&owner)
                    .put_u64(serial)
                    .put_bytes(&reply);
                if self.journal.append(TAG_ISSUE, &e.finish()).is_err() {
                    return Self::reply_err("journal unavailable");
                }
                if self.plan.fires("myproxy.issue.journaled") {
                    return Vec::new();
                }
                self.issued.insert(key, reply.clone());
                self.serials.push(serial);
                trace::add(
                    if op == OP_RENEW {
                        "myproxy.renewals"
                    } else {
                        "myproxy.issues"
                    },
                    1,
                );
                reply
            }
            Err(msg) => Self::reply_err(msg),
        };
        reply
    }

    fn issue(
        &mut self,
        owner: &str,
        passphrase: &str,
        public_key: &RsaPublicKey,
        lifetime: u64,
        now: u64,
    ) -> Result<(Vec<u8>, u64), &'static str> {
        let lifetime = lifetime.min(self.max_lifetime);
        let stored = self.authorized(owner, passphrase)?;
        let parent = stored.credential.clone();
        let cert = issue_delegated_proxy(
            &mut self.rng,
            &parent,
            public_key,
            ProxyType::Impersonation,
            now,
            lifetime,
        )
        .map_err(|_| "stored credential cannot issue (expired?)")?;
        let serial = cert.tbs.serial;
        let mut e = Encoder::new();
        cert.encode(&mut e);
        e.put_seq(parent.chain(), |enc, c| c.encode(enc));
        Ok((Self::reply_ok(&e.finish()), serial))
    }

    fn handle_destroy(&mut self, d: &mut Decoder<'_>) -> Vec<u8> {
        let (Ok(owner), Ok(passphrase)) = (d.get_str(), d.get_str()) else {
            return Self::reply_err("malformed destroy");
        };
        if let Err(msg) = self.authorized(&owner, &passphrase) {
            return Self::reply_err(msg);
        }
        let mut e = Encoder::new();
        e.put_str(&owner);
        if self.journal.append(TAG_DESTROY, &e.finish()).is_err() {
            return Self::reply_err("journal unavailable");
        }
        self.stored.remove(&owner);
        trace::add("myproxy.destroys", 1);
        Self::reply_ok(&[])
    }
}

impl CrashRecover for MyProxyServer {
    fn handle(&mut self, from: &str, id: u64, body: &[u8]) -> Vec<u8> {
        let mut d = Decoder::new(body);
        let Ok(op) = d.get_str() else {
            return Self::reply_err("malformed request");
        };
        match op.as_str() {
            OP_STORE_BEGIN => self.handle_store_begin(from, &mut d),
            OP_STORE_COMMIT => self.handle_store_commit(from, &mut d),
            OP_GET | OP_RENEW => self.handle_issue(from, id, &op, &mut d),
            OP_DESTROY => self.handle_destroy(&mut d),
            _ => Self::reply_err("unknown myproxy op"),
        }
    }

    fn crash(&mut self) {
        self.generation += 1;
        let mut seed = self.seed.clone();
        seed.extend_from_slice(&self.generation.to_be_bytes());
        self.rng = ChaChaRng::from_seed_bytes(&seed);
        self.stored.clear();
        self.issued.clear();
        self.pending_store.clear();
        self.serials.clear();
    }

    fn recover(&mut self) {
        self.crash();
        for (tag, body) in self.journal.records() {
            let mut d = Decoder::new(&body);
            match tag.as_str() {
                TAG_STORE => {
                    let parsed = (|| {
                        let owner = d.get_str().ok()?;
                        let hash: [u8; 32] = d.get_bytes().ok()?.try_into().ok()?;
                        let key = decode_keypair(&mut d)?;
                        let proxy_cert = Certificate::decode(&mut d).ok()?;
                        let issuer_chain = d.get_seq(Certificate::decode).ok()?;
                        Some((owner, hash, key, proxy_cert, issuer_chain))
                    })();
                    if let Some((owner, pass_hash, key, proxy_cert, issuer_chain)) = parsed {
                        let mut chain = vec![proxy_cert];
                        chain.extend(issuer_chain);
                        self.stored.insert(
                            owner,
                            Stored {
                                pass_hash,
                                credential: Credential::new(chain, key),
                            },
                        );
                    }
                }
                TAG_ISSUE => {
                    let parsed = (|| {
                        let from = d.get_str().ok()?;
                        let id = d.get_u64().ok()?;
                        let _owner = d.get_str().ok()?;
                        let serial = d.get_u64().ok()?;
                        let reply = d.get_bytes().ok()?;
                        Some((from, id, serial, reply))
                    })();
                    if let Some((from, id, serial, reply)) = parsed {
                        self.issued.insert((from, id), reply);
                        self.serials.push(serial);
                    }
                }
                TAG_DESTROY => {
                    if let Ok(owner) = d.get_str() {
                        self.stored.remove(&owner);
                    }
                }
                _ => {}
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------------

fn round(rpc: &mut RpcClient, request: Vec<u8>) -> Result<Vec<u8>, MyProxyError> {
    let raw = rpc
        .call(&request)
        .map_err(|e| MyProxyError::Transport(e.to_string()))?;
    decode_verdict(&raw)
}

/// Split a repository reply into its `ok` body, or the typed refusal.
pub fn decode_verdict(raw: &[u8]) -> Result<Vec<u8>, MyProxyError> {
    let mut d = Decoder::new(raw);
    let (Ok(status), Ok(body)) = (d.get_str(), d.get_bytes()) else {
        return Err(MyProxyError::Decode("malformed myproxy reply"));
    };
    match status.as_str() {
        "ok" => Ok(body),
        _ => Err(MyProxyError::Refused(
            String::from_utf8_lossy(&body).into_owned(),
        )),
    }
}

/// Encode an `mp-get` / `mp-renew` request body.
pub fn encode_issue_request(
    op: &str,
    owner: &str,
    passphrase: &str,
    public_key: &RsaPublicKey,
    lifetime: u64,
) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_str(op).put_str(owner).put_str(passphrase);
    encode_public_key(&mut e, public_key);
    e.put_u64(lifetime);
    e.finish()
}

/// Decode an issue reply body (proxy certificate + issuer chain) and
/// assemble the credential around the locally held key.
pub fn assemble_issued(body: &[u8], key: RsaKeyPair) -> Result<Credential, MyProxyError> {
    let mut d = Decoder::new(body);
    let parsed = (|| {
        let cert = Certificate::decode(&mut d).ok()?;
        let chain = d.get_seq(Certificate::decode).ok()?;
        Some((cert, chain))
    })();
    let Some((cert, issuer_chain)) = parsed else {
        return Err(MyProxyError::Decode("malformed issue reply"));
    };
    if cert.public_key() != key.public() {
        return Err(MyProxyError::Decode("certificate is not over our key"));
    }
    let mut chain = vec![cert];
    chain.extend(issuer_chain);
    Ok(Credential::new(chain, key))
}

/// Store `delegator`'s credential at the repository: the repository
/// generates the key pair, we sign a delegated proxy over it. The
/// delegated proxy's lifetime is clamped by `delegator`'s own window.
pub fn store_credential<E: gridsec_bignum::prime::EntropySource>(
    rpc: &mut RpcClient,
    rng: &mut E,
    owner: &str,
    passphrase: &str,
    delegator: &Credential,
    now: u64,
    lifetime: u64,
) -> Result<(), MyProxyError> {
    let mut e = Encoder::new();
    e.put_str(OP_STORE_BEGIN).put_str(owner).put_str(passphrase);
    let body = round(rpc, e.finish())?;
    let mut d = Decoder::new(&body);
    let repo_key =
        decode_public_key(&mut d).map_err(|_| MyProxyError::Decode("malformed repo key"))?;
    let cert = issue_delegated_proxy(
        rng,
        delegator,
        &repo_key,
        ProxyType::Impersonation,
        now,
        lifetime,
    )
    .map_err(|e| MyProxyError::Refused(format!("cannot delegate to repository: {e:?}")))?;
    let mut e = Encoder::new();
    e.put_str(OP_STORE_COMMIT)
        .put_str(owner)
        .put_str(passphrase);
    cert.encode(&mut e);
    e.put_seq(delegator.chain(), |enc, c| c.encode(enc));
    round(rpc, e.finish())?;
    Ok(())
}

fn issue_round<E: gridsec_bignum::prime::EntropySource>(
    rpc: &mut RpcClient,
    rng: &mut E,
    op: &str,
    owner: &str,
    passphrase: &str,
    key_bits: usize,
    lifetime: u64,
) -> Result<Credential, MyProxyError> {
    let key = RsaKeyPair::generate(rng, key_bits);
    let body = round(
        rpc,
        encode_issue_request(op, owner, passphrase, key.public(), lifetime),
    )?;
    assemble_issued(&body, key)
}

/// Re-acquire a short-lived proxy from the repository (portal login or
/// post-crash recovery): generate a key pair locally, the repository
/// signs a proxy over it from the stored credential.
pub fn acquire<E: gridsec_bignum::prime::EntropySource>(
    rpc: &mut RpcClient,
    rng: &mut E,
    owner: &str,
    passphrase: &str,
    key_bits: usize,
    lifetime: u64,
) -> Result<Credential, MyProxyError> {
    issue_round(rpc, rng, OP_GET, owner, passphrase, key_bits, lifetime)
}

/// Renew a long-running job's proxy: same issuance as [`acquire`], but
/// counted (and traced) as a renewal.
pub fn renew<E: gridsec_bignum::prime::EntropySource>(
    rpc: &mut RpcClient,
    rng: &mut E,
    owner: &str,
    passphrase: &str,
    key_bits: usize,
    lifetime: u64,
) -> Result<Credential, MyProxyError> {
    issue_round(rpc, rng, OP_RENEW, owner, passphrase, key_bits, lifetime)
}

/// Remove the stored credential.
pub fn destroy(rpc: &mut RpcClient, owner: &str, passphrase: &str) -> Result<(), MyProxyError> {
    let mut e = Encoder::new();
    e.put_str(OP_DESTROY).put_str(owner).put_str(passphrase);
    round(rpc, e.finish())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsec_pki::ca::CertificateAuthority;
    use gridsec_pki::name::DistinguishedName;
    use gridsec_pki::store::TrustStore;
    use gridsec_pki::validate::validate_chain;
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

    struct World {
        rng: ChaChaRng,
        trust: TrustStore,
        jane: Credential,
        clock: SimClock,
    }

    fn world() -> World {
        let mut rng = ChaChaRng::from_seed_bytes(b"myproxy tests");
        let ca = CertificateAuthority::create_root(&mut rng, dn("/O=G/CN=CA"), 512, 0, 1_000_000);
        let jane = ca.issue_identity(&mut rng, dn("/O=G/CN=Jane"), 512, 0, 500_000);
        let mut trust = TrustStore::new();
        trust.add_root(ca.certificate().clone());
        World {
            rng,
            trust,
            jane,
            clock: SimClock::starting_at(100),
        }
    }

    struct Rig {
        app: Rc<RefCell<MyProxyServer>>,
        rpc: RpcClient,
        plan: CrashPlan,
        /// Hosts the repository task the client's calls drive.
        _sched: Scheduler,
    }

    fn rig(w: &World, plan: CrashPlan) -> Rig {
        let os = SimOs::new();
        os.add_host("repo");
        let journal = Journal::open(os, "repo", "/var/myproxy/journal.wal", ROOT_UID);
        let app = Rc::new(RefCell::new(MyProxyServer::new(
            w.clock.clone(),
            b"myproxy rig",
            plan.clone(),
            journal.clone(),
            50_000,
        )));
        let net = Network::new();
        net.enable_faults(w.clock.clone(), 0x3A9D, FaultProfile::default());
        let mut sched = Scheduler::new(&net);
        sched.spawn_mailbox(
            "repo",
            ServerTask::new(
                CrashableServer::new(net.register("repo"), "myproxy", plan.clone(), journal, true),
                app.clone(),
            ),
        );
        let rpc = RpcClient::new(
            net.register("portal"),
            "repo",
            RetryPolicy {
                max_attempts: 8,
                base_timeout: 16,
                multiplier: 2,
                max_timeout: 64,
            },
        );
        Rig {
            app,
            rpc,
            plan,
            _sched: sched,
        }
    }

    #[test]
    fn store_acquire_renew_destroy_roundtrip() {
        let mut w = world();
        let mut r = rig(&w, CrashPlan::disabled());
        store_credential(
            &mut r.rpc, &mut w.rng, "jane", "s3cret", &w.jane, 100, 100_000,
        )
        .unwrap();
        assert_eq!(r.app.borrow().stored_count(), 1);

        let proxy = acquire(&mut r.rpc, &mut w.rng, "jane", "s3cret", 512, 3_600).unwrap();
        assert_eq!(proxy.base_identity(), &dn("/O=G/CN=Jane"));
        assert_eq!(proxy.proxy_depth(), 2, "user → repo proxy → short proxy");
        let id = validate_chain(proxy.chain(), &w.trust, w.clock.now()).unwrap();
        assert_eq!(id.base_identity, dn("/O=G/CN=Jane"));

        let renewed = renew(&mut r.rpc, &mut w.rng, "jane", "s3cret", 512, 3_600).unwrap();
        assert_ne!(
            renewed.certificate().subject(),
            proxy.certificate().subject()
        );
        assert_eq!(r.app.borrow().issued_count(), 2);

        destroy(&mut r.rpc, "jane", "s3cret").unwrap();
        let err = acquire(&mut r.rpc, &mut w.rng, "jane", "s3cret", 512, 3_600).unwrap_err();
        assert!(matches!(err, MyProxyError::Refused(m) if m.contains("no such credential")));
    }

    #[test]
    fn passphrase_gates_every_verb() {
        let mut w = world();
        let mut r = rig(&w, CrashPlan::disabled());
        store_credential(
            &mut r.rpc, &mut w.rng, "jane", "s3cret", &w.jane, 100, 100_000,
        )
        .unwrap();
        let err = acquire(&mut r.rpc, &mut w.rng, "jane", "wrong", 512, 3_600).unwrap_err();
        assert!(matches!(err, MyProxyError::Refused(m) if m.contains("bad passphrase")));
        let err = destroy(&mut r.rpc, "jane", "wrong").unwrap_err();
        assert!(matches!(err, MyProxyError::Refused(m) if m.contains("bad passphrase")));
        assert_eq!(r.app.borrow().stored_count(), 1, "nothing destroyed");
    }

    #[test]
    fn issuance_lifetime_is_capped() {
        let mut w = world();
        let mut r = rig(&w, CrashPlan::disabled());
        store_credential(
            &mut r.rpc, &mut w.rng, "jane", "s3cret", &w.jane, 100, 100_000,
        )
        .unwrap();
        let proxy = acquire(&mut r.rpc, &mut w.rng, "jane", "s3cret", 512, u64::MAX).unwrap();
        let not_after = proxy.certificate().tbs.validity.not_after;
        assert!(
            not_after <= w.clock.now() + 50_000,
            "cap applied: {not_after}"
        );
    }

    #[test]
    fn stored_credentials_survive_crash_and_recovery() {
        let mut w = world();
        let mut r = rig(&w, CrashPlan::disabled());
        store_credential(
            &mut r.rpc, &mut w.rng, "jane", "s3cret", &w.jane, 100, 100_000,
        )
        .unwrap();
        r.app.borrow_mut().crash();
        assert_eq!(r.app.borrow().stored_count(), 0, "crash wipes memory");
        r.app.borrow_mut().recover();
        assert_eq!(r.app.borrow().stored_count(), 1, "journal replay restores");
        let proxy = acquire(&mut r.rpc, &mut w.rng, "jane", "s3cret", 512, 3_600).unwrap();
        assert!(validate_chain(proxy.chain(), &w.trust, w.clock.now()).is_ok());
    }

    #[test]
    fn worst_window_crash_issues_exactly_once() {
        let mut w = world();
        let plan = CrashPlan::manual(3);
        let mut r = rig(&w, plan);
        store_credential(
            &mut r.rpc, &mut w.rng, "jane", "s3cret", &w.jane, 100, 100_000,
        )
        .unwrap();
        // Kill after the issue record is durable but before the reply
        // leaves: the retransmission must be served the SAME proxy.
        r.plan.arm("myproxy.issue.journaled", 1);
        let proxy = acquire(&mut r.rpc, &mut w.rng, "jane", "s3cret", 512, 3_600).unwrap();
        assert_eq!(r.plan.crashes(), 1, "the kill fired");
        assert_eq!(r.plan.restarts(), 1);
        assert_eq!(r.app.borrow().issued_count(), 1, "exactly one issuance");
        assert_eq!(
            r.app.borrow().issued_serials(),
            &[proxy.certificate().tbs.serial],
            "the visible proxy is the journaled one"
        );
    }

    #[test]
    fn crash_before_issue_executes_yields_one_visible_proxy() {
        let mut w = world();
        let plan = CrashPlan::manual(3);
        let mut r = rig(&w, plan);
        store_credential(
            &mut r.rpc, &mut w.rng, "jane", "s3cret", &w.jane, 100, 100_000,
        )
        .unwrap();
        r.plan.arm("myproxy.issue.exec", 1);
        let proxy = acquire(&mut r.rpc, &mut w.rng, "jane", "s3cret", 512, 3_600).unwrap();
        assert_eq!(r.plan.crashes(), 1);
        assert_eq!(r.app.borrow().issued_count(), 1);
        assert!(validate_chain(proxy.chain(), &w.trust, w.clock.now()).is_ok());
    }

    #[test]
    fn crash_mid_store_aborts_cleanly_and_store_retries() {
        let mut w = world();
        let plan = CrashPlan::manual(3);
        let mut r = rig(&w, plan);
        // Kill during the commit execution: pending key is volatile, so
        // the first flow dies; a fresh store flow succeeds.
        r.plan.arm("myproxy.store.exec", 1);
        let err = store_credential(
            &mut r.rpc, &mut w.rng, "jane", "s3cret", &w.jane, 100, 100_000,
        )
        .unwrap_err();
        assert!(matches!(err, MyProxyError::Refused(_)), "{err:?}");
        assert_eq!(r.app.borrow().stored_count(), 0, "no half-stored state");
        store_credential(
            &mut r.rpc, &mut w.rng, "jane", "s3cret", &w.jane, 100, 100_000,
        )
        .unwrap();
        assert_eq!(r.app.borrow().stored_count(), 1);
    }

    #[test]
    fn expired_stored_credential_refuses_issuance() {
        let mut w = world();
        let mut r = rig(&w, CrashPlan::disabled());
        // Store with a short delegated lifetime, then age past it.
        store_credential(&mut r.rpc, &mut w.rng, "jane", "s3cret", &w.jane, 100, 500).unwrap();
        w.clock.set(10_000);
        let err = acquire(&mut r.rpc, &mut w.rng, "jane", "s3cret", 512, 3_600).unwrap_err();
        assert!(
            matches!(err, MyProxyError::Refused(m) if m.contains("expired")),
            "typed refusal, not a panic"
        );
    }
}
