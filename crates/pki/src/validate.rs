//! Certificate chain validation with RFC 3820 proxy rules.
//!
//! Given a chain (leaf first) and a [`TrustStore`], [`validate_chain`]
//! walks from the trust anchor down to the leaf enforcing:
//!
//! * signature chaining, validity windows, and revocation;
//! * CA structure: `BasicConstraints.is_ca`, `certSign` usage, and CA
//!   path-length budgets;
//! * the proxy profile: proxies are issued only by end entities or other
//!   proxies, the subject extends the issuer by exactly one `CN`
//!   component, issuers need `digitalSignature` usage, and proxy
//!   path-length budgets are enforced;
//! * effective rights: `Limited` anywhere in the chain makes the whole
//!   chain limited; `Independent` severs inheritance; `Restricted`
//!   policies accumulate so authorization layers can intersect them.
//!
//! The output [`ValidatedIdentity`] carries the *base identity* (the
//! end-entity subject), which is what grid-mapfiles, CAS policies, and
//! the "same user's proxies trust each other" rule key on.
//!
//! [`CachedValidator`] memoizes successful walks under the trust/CRL
//! [`Epoch`], so services that see the same chain repeatedly
//! (per-message XML signatures, repeated context establishment) pay the
//! RSA verification cost once per chain rather than once per use. A
//! chain is keyed on its exact encoding: the binary span a hello carried
//! it in ([`CachedValidator::validate_wire`]; [`CachedValidator::validate`]
//! encodes a decoded chain to the same key), or the text a signed
//! envelope carried it in, decoded only on a miss
//! ([`CachedValidator::validate_encoded`]). Negative results are never
//! cached. There is one walk and one memoized form of
//! it; [`CachedValidator::validate_batch`] returns, in order, each what
//! the single form returns.

use std::borrow::Cow;
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasher, Hash};

use crate::cert::{encode_chain, key_usage, Certificate, ProxyPolicy, WireChain};
use crate::name::DistinguishedName;
use crate::store::{CrlStore, Epoch, TrustStore};
use crate::PkiError;
use gridsec_crypto::rsa::RsaPublicKey;

/// The rights the validated chain conveys relative to its base identity.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EffectiveRights {
    /// Full impersonation of the base identity.
    Full,
    /// Site-defined reduced rights (limited proxy somewhere in the chain).
    Limited,
    /// No inherited rights: the leaf is an independent identity.
    Independent,
}

/// The result of a successful chain validation.
#[derive(Clone, Debug)]
pub struct ValidatedIdentity {
    /// Leaf subject name.
    pub subject: DistinguishedName,
    /// End-entity subject (the "grid identity" of the user or host).
    pub base_identity: DistinguishedName,
    /// Leaf public key (the key to authenticate the peer against).
    pub public_key: RsaPublicKey,
    /// Number of proxy certificates in the chain.
    pub proxy_depth: usize,
    /// Effective rights after combining proxy policies.
    pub rights: EffectiveRights,
    /// Restricted-proxy policies in chain order (language, policy bytes).
    pub restrictions: Vec<(String, Vec<u8>)>,
}

impl ValidatedIdentity {
    /// The policy language of each restriction, in chain order.
    pub fn restriction_languages(&self) -> impl Iterator<Item = &str> {
        self.restrictions.iter().map(|(l, _)| l.as_str())
    }
}

/// Validate `chain` (leaf first) against `trust` at time `now`, without
/// revocation checking.
pub fn validate_chain(
    chain: &[Certificate],
    trust: &TrustStore,
    now: u64,
) -> Result<ValidatedIdentity, PkiError> {
    validate_chain_with_crls(chain, trust, &CrlStore::new(), now)
}

#[derive(PartialEq, Clone, Copy)]
enum Phase {
    Ca,
    EndEntity,
}

/// Validate `chain` (leaf first) against `trust` and `crls` at time `now`.
pub fn validate_chain_with_crls(
    chain: &[Certificate],
    trust: &TrustStore,
    crls: &CrlStore,
    now: u64,
) -> Result<ValidatedIdentity, PkiError> {
    if chain.is_empty() {
        return Err(PkiError::InvalidChain("empty chain"));
    }

    // ------------------------------------------------------------------
    // Locate the trust anchor for the topmost certificate.
    // ------------------------------------------------------------------
    let top = chain.last().unwrap();
    let anchor_key: RsaPublicKey = if trust.contains(top) {
        // The chain includes the trusted root itself; its own key signs it.
        top.public_key().clone()
    } else {
        let root = trust
            .find_by_subject(top.issuer())
            .ok_or(PkiError::UntrustedRoot)?;
        if !root.tbs.validity.contains(now) {
            return Err(PkiError::Expired {
                now,
                not_before: root.tbs.validity.not_before,
                not_after: root.tbs.validity.not_after,
            });
        }
        root.public_key().clone()
    };

    // ------------------------------------------------------------------
    // Walk from the anchor side down to the leaf.
    // ------------------------------------------------------------------
    let mut phase = Phase::Ca;
    let mut parent_key = anchor_key;
    let mut parent_cert: Option<&Certificate> = None;
    let mut base_identity: Option<DistinguishedName> = None;
    let mut proxy_depth = 0usize;
    let mut rights = EffectiveRights::Full;
    let mut restrictions: Vec<(String, Vec<u8>)> = Vec::new();
    let mut ca_budget: Option<u32> = None;
    let mut proxy_budget: Option<u32> = None;

    for cert in chain.iter().rev() {
        // Universal checks: window, signature, revocation.
        if !cert.tbs.validity.contains(now) {
            return Err(PkiError::Expired {
                now,
                not_before: cert.tbs.validity.not_before,
                not_after: cert.tbs.validity.not_after,
            });
        }
        if !cert.verify_signature(&parent_key) {
            return Err(PkiError::BadSignature);
        }
        if crls.is_revoked(cert.issuer(), cert.tbs.serial, now) {
            return Err(PkiError::Revoked {
                serial: cert.tbs.serial,
            });
        }

        if cert.is_proxy() {
            // Proxy structural rules.
            if cert.is_ca() {
                return Err(PkiError::InvalidProxy("proxy certificate marked as CA"));
            }
            let parent = match (phase, parent_cert) {
                (Phase::EndEntity, Some(p)) => p,
                _ => return Err(PkiError::InvalidProxy("proxy not issued by an end entity")),
            };
            if parent.key_usage() & key_usage::DIGITAL_SIGNATURE == 0 {
                return Err(PkiError::InvalidProxy(
                    "proxy issuer lacks digitalSignature usage",
                ));
            }
            if cert.issuer() != parent.subject() {
                return Err(PkiError::InvalidProxy("proxy issuer/subject mismatch"));
            }
            if !cert.subject().is_proxy_extension_of(parent.subject()) {
                return Err(PkiError::InvalidProxy(
                    "proxy subject must extend issuer by one CN",
                ));
            }
            // Path-length budget for proxies.
            if proxy_budget == Some(0) {
                return Err(PkiError::InvalidProxy("proxy path length exceeded"));
            }
            proxy_budget = proxy_budget.map(|b| b - 1);
            let info = cert.tbs.extensions.proxy_cert_info.as_ref().unwrap();
            if let Some(own) = info.path_len_constraint {
                proxy_budget = Some(proxy_budget.map_or(own, |b| b.min(own)));
            }
            // Rights combination.
            match &info.policy {
                ProxyPolicy::Impersonation => {}
                ProxyPolicy::Limited => {
                    if rights == EffectiveRights::Full {
                        rights = EffectiveRights::Limited;
                    }
                }
                ProxyPolicy::Independent => {
                    rights = EffectiveRights::Independent;
                }
                ProxyPolicy::Restricted { language, policy } => {
                    restrictions.push((language.clone(), policy.clone()));
                }
            }
            proxy_depth += 1;
        } else if cert.is_ca() {
            if phase != Phase::Ca {
                return Err(PkiError::InvalidChain("CA certificate below end entity"));
            }
            if cert.key_usage() & key_usage::CERT_SIGN == 0 {
                return Err(PkiError::InvalidChain("CA lacks certSign usage"));
            }
            // CA path-length accounting: self-issued roots do not consume
            // budget; intermediates do.
            if !cert.is_self_issued() {
                if ca_budget == Some(0) {
                    return Err(PkiError::InvalidChain("CA path length exceeded"));
                }
                ca_budget = ca_budget.map(|b| b - 1);
            }
            if let Some(own) = cert
                .tbs
                .extensions
                .basic_constraints
                .and_then(|b| b.path_len)
            {
                ca_budget = Some(ca_budget.map_or(own, |b| b.min(own)));
            }
        } else {
            // End-entity certificate.
            if phase != Phase::Ca {
                return Err(PkiError::InvalidChain("multiple end entities in chain"));
            }
            phase = Phase::EndEntity;
            base_identity = Some(cert.subject().clone());
        }

        parent_key = cert.public_key().clone();
        parent_cert = Some(cert);
    }

    let leaf = &chain[0];
    Ok(ValidatedIdentity {
        subject: leaf.subject().clone(),
        base_identity: base_identity.unwrap_or_else(|| leaf.subject().clone()),
        public_key: leaf.public_key().clone(),
        proxy_depth,
        rights,
        restrictions,
    })
}

// ----------------------------------------------------------------------
// Memoized validation
// ----------------------------------------------------------------------

/// Which encoding of a chain a memo key is. The two kinds never meet: a
/// binary and a text encoding that happened to share bytes still name
/// different entries.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum KeyKind {
    /// The binary wire encoding: `put_seq` of the certificates.
    Wire,
    /// A text encoding exactly as received.
    Text,
}

/// What a memoized verdict is filed under: a chain's encoding, borrowed
/// for a probe.
#[derive(Clone, Copy, Hash)]
struct MemoKey<'k> {
    kind: KeyKind,
    bytes: &'k [u8],
}

struct CachedEntry {
    kind: KeyKind,
    /// The key's bytes, held once, here: the FIFO order holds the slot.
    bytes: Box<[u8]>,
    identity: ValidatedIdentity,
    /// Intersection of the validity windows of every certificate the
    /// walk touched (chain plus external anchor). Outside it, the
    /// cached result may no longer hold, so the walk is redone.
    not_before: u64,
    not_after: u64,
}

/// Memoized chain validation.
///
/// Entries are keyed on the chain's exact encoding — binary, as a
/// handshake or delegation carries it, or text, as a signed envelope
/// carries it — and are only valid for the trust [`Epoch`] (the
/// trust-store and CRL-store generations) they were computed under: a
/// call under another epoch than the last call's — a store mutated, or
/// another store passed in — clears the cache. A hit requires the
/// probe's bytes to equal the entry's, so a chain that differs from a
/// memoized one in any byte is walked on its own. Hits are additionally
/// gated on the intersected validity window of the chain, so expiry is
/// honoured without a revalidation walk. Only *successful* validations
/// are cached — a rejected chain is re-examined every time, so an
/// attacker cannot pin a negative (or have a transient failure outlive
/// its cause).
///
/// Eviction is FIFO over a bounded capacity, so cache behaviour is a
/// pure function of the call sequence — two identical runs hit, miss,
/// and evict identically (the determinism contract of the simulation
/// harness).
pub struct CachedValidator {
    capacity: usize,
    /// The epoch every entry was filled under; `None` before the first call.
    epoch: Option<Epoch>,
    /// Keys a [`MemoKey`] to its slot: a 64-bit hash of its kind and
    /// bytes under this validator's random key, so a peer cannot craft
    /// two chains that share one. Two keys share a slot with probability
    /// 2⁻⁶⁴ and then only displace each other: a hit also requires byte
    /// equality with the key its entry holds. Short of such a pair,
    /// which entries exist and in what order they go never depends on
    /// the slot values.
    slots: RandomState,
    /// Entries by slot; each holds its key's bytes.
    entries: HashMap<u64, CachedEntry>,
    /// Slots in insertion order, for FIFO eviction.
    order: VecDeque<u64>,
    hits: u64,
    misses: u64,
}

impl CachedValidator {
    /// Validator memoizing at most `capacity` chains (`capacity > 0`).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "validator cache capacity must be positive");
        CachedValidator {
            capacity,
            epoch: None,
            slots: RandomState::new(),
            entries: HashMap::new(),
            order: VecDeque::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Drop every memoized result if the stores' [`Epoch`] moved since
    /// the last call: every entry shares one epoch, so a lookup under
    /// another is a miss for all of them.
    fn refresh_epoch(&mut self, trust: &TrustStore, crls: &CrlStore) {
        let epoch = Epoch::of(trust, crls);
        if self.epoch != Some(epoch) {
            // A new CRL may revoke, a removed anchor may untrust.
            self.clear();
            self.epoch = Some(epoch);
        }
    }

    /// Forget the entry in `slot`, if any.
    fn evict(&mut self, slot: u64) {
        if self.entries.remove(&slot).is_some() {
            self.order.retain(|s| *s != slot);
        }
    }

    /// Window-gated cache probe; removes a stale entry on the way out.
    fn cache_lookup(&mut self, key: MemoKey<'_>, slot: u64, now: u64) -> Option<ValidatedIdentity> {
        let entry = self.entries.get(&slot)?;
        if entry.kind != key.kind || *entry.bytes != *key.bytes {
            // Another chain whose key shares the slot: a miss.
            return None;
        }
        if entry.not_before <= now && now <= entry.not_after {
            self.hits += 1;
            return Some(entry.identity.clone());
        }
        // Outside the cached window: the stale entry is dropped and the
        // real walk reports the precise error (or caches a fresh window).
        self.evict(slot);
        None
    }

    /// Memoize a successful walk under `key`, intersecting validity
    /// windows over everything the walk checked (chain plus external
    /// anchor), with FIFO eviction at capacity.
    fn cache_insert(
        &mut self,
        key: MemoKey<'_>,
        slot: u64,
        chain: &[Certificate],
        trust: &TrustStore,
        identity: &ValidatedIdentity,
    ) {
        let mut not_before = 0u64;
        let mut not_after = u64::MAX;
        for cert in chain {
            not_before = not_before.max(cert.tbs.validity.not_before);
            not_after = not_after.min(cert.tbs.validity.not_after);
        }
        // The external anchor the walk checked, if any. When the chain
        // carries its own root this finds that root again (a trusted
        // root is self-issued), which narrows nothing; no fingerprint
        // is needed to tell the two cases apart.
        let top = chain.last().expect("validated chain is non-empty");
        if let Some(root) = trust.find_by_subject(top.issuer()) {
            not_before = not_before.max(root.tbs.validity.not_before);
            not_after = not_after.min(root.tbs.validity.not_after);
        }

        // Only reached after a miss: the slot is empty or holds another
        // key, which gives way. `entries` and `order` stay one-to-one,
        // so the bound holds.
        self.evict(slot);
        if self.entries.len() == self.capacity {
            if let Some(oldest) = self.order.pop_front() {
                self.entries.remove(&oldest);
            }
        }
        self.order.push_back(slot);
        self.entries.insert(
            slot,
            CachedEntry {
                kind: key.kind,
                bytes: key.bytes.into(),
                identity: identity.clone(),
                not_before,
                not_after,
            },
        );
    }

    /// Validate `chain` against `trust` and `crls` at `now`, reusing a
    /// memoized result when one is applicable. Semantically identical
    /// to [`validate_chain_with_crls`]. Keyed on the chain's wire
    /// encoding, so it shares entries with [`Self::validate_wire`].
    pub fn validate(
        &mut self,
        chain: &[Certificate],
        trust: &TrustStore,
        crls: &CrlStore,
        now: u64,
    ) -> Result<ValidatedIdentity, PkiError> {
        let wire = encode_chain(chain);
        let key = MemoKey {
            kind: KeyKind::Wire,
            bytes: &wire,
        };
        self.memoized(key, || Ok(Cow::Borrowed(chain)), trust, crls, now)
    }

    /// Validate `chain`, keyed on the bytes it was decoded from: a hit
    /// costs a hash and a compare of them, no encode and no walk.
    /// Semantically identical to [`validate_chain_with_crls`] over
    /// `chain.certs()`.
    pub fn validate_wire(
        &mut self,
        chain: &WireChain<'_>,
        trust: &TrustStore,
        crls: &CrlStore,
        now: u64,
    ) -> Result<ValidatedIdentity, PkiError> {
        let key = MemoKey {
            kind: KeyKind::Wire,
            bytes: chain.wire(),
        };
        self.memoized(key, || Ok(Cow::Borrowed(chain.certs())), trust, crls, now)
    }

    /// Validate the chain whose text encoding is `encoded`, keyed on that
    /// exact text: a hit costs no decode and no walk, and `decode` runs
    /// only on a miss. Semantically identical to
    /// [`validate_chain_with_crls`] over `decode(encoded)`, `decode`'s
    /// error included, provided `decode` is a pure function of its input.
    pub fn validate_encoded<E: From<PkiError>>(
        &mut self,
        encoded: &str,
        decode: impl FnOnce(&str) -> Result<Vec<Certificate>, E>,
        trust: &TrustStore,
        crls: &CrlStore,
        now: u64,
    ) -> Result<ValidatedIdentity, E> {
        let key = MemoKey {
            kind: KeyKind::Text,
            bytes: encoded.as_bytes(),
        };
        let chain = || decode(encoded).map(Cow::Owned);
        self.memoized(key, chain, trust, crls, now)
    }

    /// The one memoized walk: a window-gated hit under the current store
    /// epoch, or `chain()` walked and, on success, filed under `key`.
    fn memoized<'c, E: From<PkiError>>(
        &mut self,
        key: MemoKey<'_>,
        chain: impl FnOnce() -> Result<Cow<'c, [Certificate]>, E>,
        trust: &TrustStore,
        crls: &CrlStore,
        now: u64,
    ) -> Result<ValidatedIdentity, E> {
        self.refresh_epoch(trust, crls);
        let slot = self.slots.hash_one(key);
        if let Some(identity) = self.cache_lookup(key, slot, now) {
            return Ok(identity);
        }
        self.misses += 1;

        let chain = chain()?;
        let identity = validate_chain_with_crls(&chain, trust, crls, now)?;
        self.cache_insert(key, slot, &chain, trust, &identity);
        Ok(identity)
    }

    /// Validate `chains` in order, each exactly what [`Self::validate`]
    /// returns for it at that point — so a chain that occurs twice in
    /// one call is walked once and hit thereafter. A loop, kept only
    /// because the frozen `benchmark/` crate calls it.
    pub fn validate_batch(
        &mut self,
        chains: &[&[Certificate]],
        trust: &TrustStore,
        crls: &CrlStore,
        now: u64,
    ) -> Vec<Result<ValidatedIdentity, PkiError>> {
        chains
            .iter()
            .map(|chain| self.validate(chain, trust, crls, now))
            .collect()
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses (full walks) so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Forget every memoized verdict; the hit/miss counters stay.
    fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
    }

    /// Number of memoized chains.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ca::CertificateAuthority;
    use crate::cert::Validity;
    use crate::credential::Credential;
    use crate::proxy::{issue_proxy, issue_proxy_with_path_len, ProxyType};
    use gridsec_crypto::rng::ChaChaRng;

    fn dn(s: &str) -> DistinguishedName {
        DistinguishedName::parse(s).unwrap()
    }

    struct World {
        rng: ChaChaRng,
        ca: CertificateAuthority,
        trust: TrustStore,
        user: Credential,
    }

    fn world() -> World {
        let mut rng = ChaChaRng::from_seed_bytes(b"validate tests");
        let ca = CertificateAuthority::create_root(&mut rng, dn("/O=G/CN=CA"), 512, 0, 1_000_000);
        let user = ca.issue_identity(&mut rng, dn("/O=G/CN=Jane"), 512, 0, 100_000);
        let mut trust = TrustStore::new();
        trust.add_root(ca.certificate().clone());
        World {
            rng,
            ca,
            trust,
            user,
        }
    }

    #[test]
    fn plain_identity_validates() {
        let w = world();
        let id = validate_chain(w.user.chain(), &w.trust, 500).unwrap();
        assert_eq!(id.subject, dn("/O=G/CN=Jane"));
        assert_eq!(id.base_identity, dn("/O=G/CN=Jane"));
        assert_eq!(id.proxy_depth, 0);
        assert_eq!(id.rights, EffectiveRights::Full);
        assert!(id.restrictions.is_empty());
    }

    #[test]
    fn chain_without_root_cert_validates() {
        let w = world();
        // Only the leaf: the root is found in the trust store by name.
        let chain = vec![w.user.certificate().clone()];
        let id = validate_chain(&chain, &w.trust, 500).unwrap();
        assert_eq!(id.base_identity, dn("/O=G/CN=Jane"));
    }

    #[test]
    fn proxy_chain_validates() {
        let mut w = world();
        let p1 = issue_proxy(&mut w.rng, &w.user, ProxyType::Impersonation, 512, 10, 1000).unwrap();
        let p2 = issue_proxy(&mut w.rng, &p1, ProxyType::Impersonation, 512, 20, 500).unwrap();
        let id = validate_chain(p2.chain(), &w.trust, 100).unwrap();
        assert_eq!(id.base_identity, dn("/O=G/CN=Jane"));
        assert_eq!(id.proxy_depth, 2);
        assert_eq!(id.rights, EffectiveRights::Full);
        assert_eq!(&id.public_key, p2.certificate().public_key());
    }

    #[test]
    fn untrusted_root_rejected() {
        let w = world();
        let empty = TrustStore::new();
        assert_eq!(
            validate_chain(w.user.chain(), &empty, 500).unwrap_err(),
            PkiError::UntrustedRoot
        );
    }

    #[test]
    fn expired_leaf_rejected() {
        let w = world();
        let err = validate_chain(w.user.chain(), &w.trust, 200_000).unwrap_err();
        assert!(matches!(err, PkiError::Expired { .. }));
    }

    #[test]
    fn expired_proxy_rejected_while_eec_ok() {
        let mut w = world();
        let p = issue_proxy(&mut w.rng, &w.user, ProxyType::Impersonation, 512, 10, 50).unwrap();
        assert!(validate_chain(p.chain(), &w.trust, 40).is_ok());
        let err = validate_chain(p.chain(), &w.trust, 100).unwrap_err();
        assert!(matches!(err, PkiError::Expired { .. }));
        // EEC itself is still fine.
        assert!(validate_chain(w.user.chain(), &w.trust, 100).is_ok());
    }

    #[test]
    fn revoked_eec_rejected() {
        let w = world();
        let serial = w.user.certificate().tbs.serial;
        let crl = w.ca.issue_crl(vec![serial], 100, 10_000);
        let mut crls = CrlStore::new();
        assert!(crls.add(crl, w.ca.certificate()));
        let err = validate_chain_with_crls(w.user.chain(), &w.trust, &crls, 500).unwrap_err();
        assert_eq!(err, PkiError::Revoked { serial });
    }

    #[test]
    fn revocation_cuts_off_proxies_too() {
        let mut w = world();
        let p = issue_proxy(&mut w.rng, &w.user, ProxyType::Impersonation, 512, 10, 1000).unwrap();
        let serial = w.user.certificate().tbs.serial;
        let crl = w.ca.issue_crl(vec![serial], 100, 10_000);
        let mut crls = CrlStore::new();
        assert!(crls.add(crl, w.ca.certificate()));
        assert!(validate_chain_with_crls(p.chain(), &w.trust, &crls, 500).is_err());
    }

    #[test]
    fn limited_proxy_is_sticky() {
        let mut w = world();
        let lim = issue_proxy(&mut w.rng, &w.user, ProxyType::Limited, 512, 10, 1000).unwrap();
        let full_on_top =
            issue_proxy(&mut w.rng, &lim, ProxyType::Impersonation, 512, 20, 500).unwrap();
        let id = validate_chain(full_on_top.chain(), &w.trust, 100).unwrap();
        assert_eq!(id.rights, EffectiveRights::Limited);
    }

    #[test]
    fn independent_proxy_dominates() {
        let mut w = world();
        let ind = issue_proxy(&mut w.rng, &w.user, ProxyType::Independent, 512, 10, 1000).unwrap();
        let id = validate_chain(ind.chain(), &w.trust, 100).unwrap();
        assert_eq!(id.rights, EffectiveRights::Independent);
    }

    #[test]
    fn restricted_policies_accumulate() {
        let mut w = world();
        let r1 = issue_proxy(
            &mut w.rng,
            &w.user,
            ProxyType::Restricted {
                language: "cas-rights-v1".into(),
                policy: b"p1".to_vec(),
            },
            512,
            10,
            1000,
        )
        .unwrap();
        let r2 = issue_proxy(
            &mut w.rng,
            &r1,
            ProxyType::Restricted {
                language: "cas-rights-v1".into(),
                policy: b"p2".to_vec(),
            },
            512,
            20,
            500,
        )
        .unwrap();
        let id = validate_chain(r2.chain(), &w.trust, 100).unwrap();
        assert_eq!(
            id.restrictions,
            vec![
                ("cas-rights-v1".to_string(), b"p1".to_vec()),
                ("cas-rights-v1".to_string(), b"p2".to_vec())
            ]
        );
    }

    #[test]
    fn proxy_path_len_enforced_at_validation() {
        let mut w = world();
        // Allow 1 proxy below; then manually chain two more by bypassing
        // issuance checks (attacker-style), and ensure validation catches it.
        let p1 = issue_proxy_with_path_len(
            &mut w.rng,
            &w.user,
            ProxyType::Impersonation,
            Some(1),
            512,
            10,
            1000,
        )
        .unwrap();
        let p2 = issue_proxy(&mut w.rng, &p1, ProxyType::Impersonation, 512, 20, 500).unwrap();
        assert!(validate_chain(p2.chain(), &w.trust, 100).is_ok());
        let p3 = issue_proxy(&mut w.rng, &p2, ProxyType::Impersonation, 512, 30, 200).unwrap();
        let err = validate_chain(p3.chain(), &w.trust, 100).unwrap_err();
        assert!(matches!(
            err,
            PkiError::InvalidProxy("proxy path length exceeded")
        ));
    }

    #[test]
    fn forged_proxy_signature_rejected() {
        let mut w = world();
        let p = issue_proxy(&mut w.rng, &w.user, ProxyType::Impersonation, 512, 10, 1000).unwrap();
        let mut chain = p.chain().to_vec();
        // Tamper with the proxy subject (e.g. to claim another identity).
        chain[0].tbs.subject = dn("/O=G/CN=Eve/CN=1");
        assert_eq!(
            validate_chain(&chain, &w.trust, 100).unwrap_err(),
            PkiError::BadSignature
        );
    }

    #[test]
    fn proxy_forged_by_other_user_rejected() {
        let mut w = world();
        // Eve issues a "proxy" whose subject claims to extend Jane's name.
        let eve =
            w.ca.issue_identity(&mut w.rng, dn("/O=G/CN=Eve"), 512, 0, 100_000);
        let fake = issue_proxy(&mut w.rng, &eve, ProxyType::Impersonation, 512, 10, 100).unwrap();
        let mut chain = fake.chain().to_vec();
        // Graft Eve's proxy onto Jane's chain.
        chain[1] = w.user.certificate().clone();
        chain[2] = w.ca.certificate().clone();
        let err = validate_chain(&chain, &w.trust, 100).unwrap_err();
        // Fails either signature or name chaining depending on grafting.
        assert!(matches!(
            err,
            PkiError::BadSignature | PkiError::InvalidProxy(_)
        ));
    }

    #[test]
    fn intermediate_ca_path_len_enforced() {
        let mut rng = ChaChaRng::from_seed_bytes(b"ca pathlen");
        let root =
            CertificateAuthority::create_root(&mut rng, dn("/O=G/CN=Root"), 512, 0, 1_000_000);
        // Root allows path_len 0 below it via an intermediate with own 0.
        let inter1 = CertificateAuthority::create_intermediate(
            &mut rng,
            &root,
            dn("/O=G/CN=Inter1"),
            512,
            Some(0),
            Validity {
                not_before: 0,
                not_after: 1_000_000,
            },
        );
        let inter2 = CertificateAuthority::create_intermediate(
            &mut rng,
            &inter1,
            dn("/O=G/CN=Inter2"),
            512,
            None,
            Validity {
                not_before: 0,
                not_after: 1_000_000,
            },
        );
        let user = inter2.issue_identity(&mut rng, dn("/O=G/CN=U"), 512, 0, 100_000);
        let mut trust = TrustStore::new();
        trust.add_root(root.certificate().clone());

        // Chain: [user, inter2, inter1, root] — inter2 exceeds inter1's 0.
        let chain = vec![
            user.certificate().clone(),
            inter2.certificate().clone(),
            inter1.certificate().clone(),
            root.certificate().clone(),
        ];
        let err = validate_chain(&chain, &trust, 100).unwrap_err();
        assert!(matches!(
            err,
            PkiError::InvalidChain("CA path length exceeded")
        ));

        // One level is fine.
        let user1 = inter1.issue_identity(&mut rng, dn("/O=G/CN=V"), 512, 0, 100_000);
        let chain = vec![
            user1.certificate().clone(),
            inter1.certificate().clone(),
            root.certificate().clone(),
        ];
        assert!(validate_chain(&chain, &trust, 100).is_ok());
    }

    #[test]
    fn ca_below_end_entity_rejected() {
        let w = world();
        // Malformed order: [CA, user] (CA as leaf below user).
        let chain = vec![
            w.ca.certificate().clone(),
            w.user.certificate().clone(),
            w.ca.certificate().clone(),
        ];
        let err = validate_chain(&chain, &w.trust, 100).unwrap_err();
        assert!(matches!(
            err,
            PkiError::InvalidChain(_) | PkiError::BadSignature
        ));
    }

    #[test]
    fn validating_ca_certificate_itself() {
        let w = world();
        let chain = vec![w.ca.certificate().clone()];
        let id = validate_chain(&chain, &w.trust, 100).unwrap();
        assert_eq!(id.base_identity, dn("/O=G/CN=CA"));
        assert_eq!(id.proxy_depth, 0);
    }

    #[test]
    fn empty_chain_rejected() {
        let w = world();
        assert!(matches!(
            validate_chain(&[], &w.trust, 100).unwrap_err(),
            PkiError::InvalidChain(_)
        ));
    }

    #[test]
    fn cached_validator_hits_after_first_walk() {
        let w = world();
        let mut v = CachedValidator::new(8);
        let crls = CrlStore::new();
        let id1 = v.validate(w.user.chain(), &w.trust, &crls, 500).unwrap();
        let id2 = v.validate(w.user.chain(), &w.trust, &crls, 600).unwrap();
        assert_eq!(id1.base_identity, id2.base_identity);
        assert_eq!((v.hits(), v.misses()), (1, 1));
    }

    #[test]
    fn cached_validator_sees_new_revocation() {
        let w = world();
        let mut v = CachedValidator::new(8);
        let mut crls = CrlStore::new();
        assert!(v.validate(w.user.chain(), &w.trust, &crls, 500).is_ok());
        // Revoke the user: the CRL-store generation bump must invalidate
        // the cached positive result.
        let serial = w.user.certificate().tbs.serial;
        assert!(crls.add(
            w.ca.issue_crl(vec![serial], 100, 10_000),
            w.ca.certificate()
        ));
        assert_eq!(
            v.validate(w.user.chain(), &w.trust, &crls, 500)
                .unwrap_err(),
            PkiError::Revoked { serial }
        );
        assert!(v.is_empty());
    }

    #[test]
    fn cached_validator_tells_swapped_crl_stores_apart() {
        // Two stores holding one CRL each: the first revokes someone
        // else, the second the user. Edit counts would read 1 for both,
        // and the verdict cached under the first would be served under
        // the second.
        let mut w = world();
        let other =
            w.ca.issue_identity(&mut w.rng, dn("/O=G/CN=Other"), 512, 0, 100_000);
        let mut v = CachedValidator::new(8);
        let mut first = CrlStore::new();
        assert!(first.add(
            w.ca.issue_crl(vec![other.certificate().tbs.serial], 100, 10_000),
            w.ca.certificate()
        ));
        assert!(v.validate(w.user.chain(), &w.trust, &first, 500).is_ok());
        let serial = w.user.certificate().tbs.serial;
        let mut second = CrlStore::new();
        assert!(second.add(
            w.ca.issue_crl(vec![serial], 100, 10_000),
            w.ca.certificate()
        ));
        assert_eq!(first.len(), second.len());
        assert_eq!(
            v.validate(w.user.chain(), &w.trust, &second, 500)
                .unwrap_err(),
            PkiError::Revoked { serial }
        );
        // A clone of the store the verdict was cached under keeps it.
        let mut v = CachedValidator::new(8);
        assert!(v.validate(w.user.chain(), &w.trust, &first, 500).is_ok());
        assert!(v
            .validate(w.user.chain(), &w.trust.clone(), &first.clone(), 500)
            .is_ok());
        assert_eq!((v.hits(), v.misses()), (1, 1));
    }

    #[test]
    fn decoded_and_received_chains_share_one_entry() {
        use crate::encoding::Decoder;
        let w = world();
        let crls = CrlStore::new();
        let mut v = CachedValidator::new(8);
        v.validate(w.user.chain(), &w.trust, &crls, 500).unwrap();
        let wire = w.user.encoded_chain();
        let received = WireChain::decode(&mut Decoder::new(wire)).unwrap();
        assert_eq!(received.wire(), wire);
        let id = v.validate_wire(&received, &w.trust, &crls, 500).unwrap();
        assert_eq!(id.base_identity, dn("/O=G/CN=Jane"));
        assert_eq!((v.hits(), v.misses(), v.len()), (1, 1, 1));
    }

    #[test]
    fn encoded_chains_decode_only_on_a_miss() {
        use crate::encoding::{Codec, Decoder, Encoder};
        let w = world();
        let mut enc = Encoder::new();
        enc.put_seq(w.user.chain(), |e, c| c.encode(e));
        let encoded: String = enc.finish().iter().map(|b| format!("{b:02x}")).collect();
        let decodes = std::cell::Cell::new(0);
        let decode = |text: &str| {
            decodes.set(decodes.get() + 1);
            let bytes = (0..text.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(text.get(i..i + 2)?, 16).ok())
                .collect::<Option<Vec<u8>>>()
                .ok_or(PkiError::InvalidChain("not hex"))?;
            Decoder::new(&bytes).get_seq(Certificate::decode)
        };
        let mut v = CachedValidator::new(8);
        let crls = CrlStore::new();
        for now in [500, 600, 700] {
            let id = v
                .validate_encoded(&encoded, decode, &w.trust, &crls, now)
                .unwrap();
            assert_eq!(id.base_identity, dn("/O=G/CN=Jane"));
        }
        assert_eq!(decodes.get(), 1);
        assert_eq!((v.hits(), v.misses()), (2, 1));
        // Past the chain's window the hit is refused and the walk reports
        // the precise error; a decode failure is the decoder's own error.
        let err = v
            .validate_encoded(&encoded, decode, &w.trust, &crls, 200_000)
            .unwrap_err();
        assert!(matches!(err, PkiError::Expired { .. }));
        assert_eq!(
            v.validate_encoded("zz", decode, &w.trust, &crls, 500)
                .unwrap_err(),
            PkiError::InvalidChain("not hex")
        );
        assert_eq!(decodes.get(), 3);
        // A chain's binary and text encodings never share an entry.
        v.validate(w.user.chain(), &w.trust, &crls, 500).unwrap();
        assert_eq!(v.len(), 1);
        assert_eq!(v.misses(), 4);
        v.clear();
        assert!(v.is_empty());
    }

    #[test]
    fn cached_validator_never_caches_negatives() {
        let w = world();
        let mut v = CachedValidator::new(8);
        let empty = TrustStore::new();
        let crls = CrlStore::new();
        for _ in 0..3 {
            assert_eq!(
                v.validate(w.user.chain(), &empty, &crls, 500).unwrap_err(),
                PkiError::UntrustedRoot
            );
        }
        assert!(v.is_empty());
        assert_eq!((v.hits(), v.misses()), (0, 3));
    }

    #[test]
    fn cached_validator_honours_expiry() {
        let w = world();
        let mut v = CachedValidator::new(8);
        let crls = CrlStore::new();
        assert!(v.validate(w.user.chain(), &w.trust, &crls, 500).is_ok());
        // User cert expires at 100_000; a hit must not outlive it.
        let err = v
            .validate(w.user.chain(), &w.trust, &crls, 200_000)
            .unwrap_err();
        assert!(matches!(err, PkiError::Expired { .. }));
        assert_eq!(v.hits(), 0);
    }

    #[test]
    fn cached_validator_evicts_fifo() {
        let mut w = world();
        let mut v = CachedValidator::new(2);
        let crls = CrlStore::new();
        let users: Vec<_> = (0..3)
            .map(|i| {
                w.ca.issue_identity(&mut w.rng, dn(&format!("/O=G/CN=U{i}")), 512, 0, 100_000)
            })
            .collect();
        for u in &users {
            v.validate(u.chain(), &w.trust, &crls, 500).unwrap();
        }
        assert_eq!(v.len(), 2);
        // Oldest (U0) was evicted: validating it again is a miss.
        let misses = v.misses();
        v.validate(users[0].chain(), &w.trust, &crls, 500).unwrap();
        assert_eq!(v.misses(), misses + 1);
    }

    #[test]
    fn self_signed_non_root_rejected() {
        let mut w = world();
        // An attacker self-signs a "CA" not present in the store.
        let rogue =
            CertificateAuthority::create_root(&mut w.rng, dn("/O=Evil/CN=CA"), 512, 0, 1000);
        let victim = rogue.issue_identity(&mut w.rng, dn("/O=G/CN=Jane"), 512, 0, 1000);
        assert_eq!(
            validate_chain(victim.chain(), &w.trust, 100).unwrap_err(),
            PkiError::UntrustedRoot
        );
    }
}
