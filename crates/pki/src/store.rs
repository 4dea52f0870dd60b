//! Trust anchors and revocation state.
//!
//! A [`TrustStore`] is per-entity: adding a CA is the *unilateral* trust
//! decision the paper highlights as the reason GSI chose PKI over
//! Kerberos-style bilateral realm agreements.

use crate::ca::Crl;
use crate::cert::Certificate;
use crate::encoding::Codec;
use crate::name::DistinguishedName;
use gridsec_crypto::sha256::sha256;
use std::collections::HashMap;
use std::sync::Arc;

/// Fold one edit into a store generation: the first eight bytes of
/// SHA-256 over the previous generation and the edit's bytes. An empty
/// store reads 0 and a clone reads what its original reads, while two
/// stores with different edit histories read different generations (up
/// to a 2⁻⁶⁴ collision) — even two separate stores each holding one
/// different CRL, which a per-store edit *count* could not tell apart.
fn next_generation(previous: u64, edit: &[u8]) -> u64 {
    let mut data = Vec::with_capacity(8 + edit.len());
    data.extend_from_slice(&previous.to_be_bytes());
    data.extend_from_slice(edit);
    let digest = sha256(&data);
    u64::from_be_bytes(digest[..8].try_into().expect("eight bytes"))
}

/// A set of trusted root CA certificates.
///
/// Every mutation moves a generation so validation caches keyed on it
/// ([`crate::validate::CachedValidator`]) invalidate when the anchor set
/// changes, or when a store with another history is swapped in.
///
/// Clones share the roots until one of them adds another, so the store
/// every principal's config carries is a reference-count bump. `Arc`,
/// not `Rc`: trust fixtures live in `static OnceLock`s that cargo's
/// test threads share, so a store is `Sync`.
#[derive(Clone, Default, Debug)]
pub struct TrustStore {
    roots: Arc<Vec<Certificate>>,
    generation: u64,
}

impl TrustStore {
    /// Empty store (trusts nothing).
    pub fn new() -> Self {
        TrustStore::default()
    }

    /// Add a root CA certificate. Self-signed CA shape is required.
    pub fn add_root(&mut self, cert: Certificate) {
        assert!(cert.is_ca(), "trust anchors must be CA certificates");
        assert!(
            cert.is_self_issued(),
            "trust anchors must be self-issued roots"
        );
        if !self.contains(&cert) {
            self.generation = next_generation(self.generation, &cert.fingerprint());
            Arc::make_mut(&mut self.roots).push(cert);
        }
    }

    /// Digest of the edit history: 0 when empty, the same for clones,
    /// different for stores whose anchors were added differently.
    fn generation(&self) -> u64 {
        self.generation
    }

    /// All trusted roots.
    pub fn roots(&self) -> &[Certificate] {
        &self.roots
    }

    /// Find a trusted root by subject name.
    pub(crate) fn find_by_subject(&self, name: &DistinguishedName) -> Option<&Certificate> {
        self.roots.iter().find(|c| c.subject() == name)
    }

    /// `true` iff this exact certificate (by fingerprint) is a trusted root.
    pub(crate) fn contains(&self, cert: &Certificate) -> bool {
        let fp = cert.fingerprint();
        self.roots.iter().any(|c| c.fingerprint() == fp)
    }
}

/// A store of current CRLs keyed by issuer name.
///
/// CRLs are only accepted if their signature verifies against the issuer
/// certificate supplied at insertion time.
#[derive(Clone, Default, Debug)]
pub struct CrlStore {
    crls: HashMap<String, Crl>,
    generation: u64,
}

impl CrlStore {
    /// Empty store.
    pub fn new() -> Self {
        CrlStore::default()
    }

    /// Insert a CRL after verifying its signature against `issuer`.
    /// Returns `false` (and does not insert) if verification fails or the
    /// issuer name does not match.
    pub fn add(&mut self, crl: Crl, issuer: &Certificate) -> bool {
        if crl.tbs.issuer != *issuer.subject() || !crl.verify(issuer.public_key()) {
            return false;
        }
        self.generation = next_generation(self.generation, &crl.to_bytes());
        self.crls.insert(crl.tbs.issuer.to_string(), crl);
        true
    }

    /// Digest of the edit history: 0 when empty, the same for clones,
    /// different for stores whose CRLs were added differently.
    fn generation(&self) -> u64 {
        self.generation
    }

    /// Check revocation: `true` iff a current CRL from `issuer` lists
    /// `serial`. Missing or stale CRLs are treated as "not revoked" —
    /// matching GT2's default soft-fail behaviour.
    pub(crate) fn is_revoked(&self, issuer: &DistinguishedName, serial: u64, now: u64) -> bool {
        match self.crls.get(&issuer.to_string()) {
            Some(crl) if !crl.is_stale(now) => crl.is_revoked(serial),
            _ => false,
        }
    }

    /// Number of stored CRLs.
    pub fn len(&self) -> usize {
        self.crls.len()
    }

    /// `true` if empty.
    pub fn is_empty(&self) -> bool {
        self.crls.is_empty()
    }
}

/// The trust state a cached verdict was derived under: both stores'
/// generations. A trust-derived cache files each entry under the epoch it
/// was filled in and misses on a lookup under any other, so installing
/// new stores needs no invalidation step. Never on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Epoch(u64, u64);

impl Epoch {
    /// The epoch of `trust` and `crls` as they stand.
    pub fn of(trust: &TrustStore, crls: &CrlStore) -> Epoch {
        Epoch(trust.generation(), crls.generation())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ca::CertificateAuthority;
    use crate::name::DistinguishedName;
    use gridsec_crypto::rng::ChaChaRng;

    fn dn(s: &str) -> DistinguishedName {
        DistinguishedName::parse(s).unwrap()
    }

    fn ca(seed: &[u8], name: &str) -> CertificateAuthority {
        let mut rng = ChaChaRng::from_seed_bytes(seed);
        CertificateAuthority::create_root(&mut rng, dn(name), 512, 0, 1_000_000)
    }

    #[test]
    fn add_and_find_roots() {
        let ca1 = ca(b"s1", "/O=A/CN=CA1");
        let ca2 = ca(b"s2", "/O=B/CN=CA2");
        let mut store = TrustStore::new();
        assert!(store.roots.is_empty());
        store.add_root(ca1.certificate().clone());
        store.add_root(ca2.certificate().clone());
        assert_eq!(store.roots.len(), 2);
        assert!(store.find_by_subject(&dn("/O=A/CN=CA1")).is_some());
        assert!(store.find_by_subject(&dn("/O=C/CN=CA3")).is_none());
        assert!(store.contains(ca1.certificate()));
    }

    #[test]
    fn duplicate_roots_deduplicated() {
        let ca1 = ca(b"s1", "/O=A/CN=CA1");
        let mut store = TrustStore::new();
        store.add_root(ca1.certificate().clone());
        store.add_root(ca1.certificate().clone());
        assert_eq!(store.roots.len(), 1);
    }

    #[test]
    #[should_panic(expected = "must be CA")]
    fn non_ca_anchor_rejected() {
        let ca1 = ca(b"s1", "/O=A/CN=CA1");
        let mut rng = ChaChaRng::from_seed_bytes(b"user");
        let user = ca1.issue_identity(&mut rng, dn("/O=A/CN=U"), 512, 0, 100);
        let mut store = TrustStore::new();
        store.add_root(user.certificate().clone());
    }

    #[test]
    fn crl_store_checks_signature() {
        let ca1 = ca(b"s1", "/O=A/CN=CA1");
        let ca2 = ca(b"s2", "/O=B/CN=CA2");
        let crl = ca1.issue_crl(vec![7], 100, 500);
        let mut store = CrlStore::new();
        // Wrong issuer cert → rejected.
        assert!(!store.add(crl.clone(), ca2.certificate()));
        assert!(store.is_empty());
        // Right issuer → accepted.
        assert!(store.add(crl, ca1.certificate()));
        assert!(store.is_revoked(&dn("/O=A/CN=CA1"), 7, 200));
        assert!(!store.is_revoked(&dn("/O=A/CN=CA1"), 8, 200));
    }

    #[test]
    fn stale_crl_soft_fails() {
        let ca1 = ca(b"s1", "/O=A/CN=CA1");
        let crl = ca1.issue_crl(vec![7], 100, 150);
        let mut store = CrlStore::new();
        assert!(store.add(crl, ca1.certificate()));
        assert!(store.is_revoked(&dn("/O=A/CN=CA1"), 7, 120));
        // Past next_update: treated as unknown → not revoked.
        assert!(!store.is_revoked(&dn("/O=A/CN=CA1"), 7, 151));
    }

    #[test]
    fn generations_tell_histories_apart_and_clones_together() {
        let ca1 = ca(b"s1", "/O=A/CN=CA1");
        let ca2 = ca(b"s2", "/O=B/CN=CA2");
        let (mut a, mut b) = (CrlStore::new(), CrlStore::new());
        assert_eq!(a.generation(), b.generation(), "empty stores agree");
        assert!(a.add(ca1.issue_crl(vec![7], 100, 500), ca1.certificate()));
        assert!(b.add(ca1.issue_crl(vec![8], 100, 500), ca1.certificate()));
        assert_ne!(a.generation(), b.generation(), "one different CRL each");
        assert_eq!(a.clone().generation(), a.generation());

        let (mut t1, mut t2) = (TrustStore::new(), TrustStore::new());
        t1.add_root(ca1.certificate().clone());
        t2.add_root(ca2.certificate().clone());
        assert_ne!(t1.generation(), t2.generation(), "one different root each");
        let mut t3 = TrustStore::new();
        t3.add_root(ca1.certificate().clone());
        assert_eq!(t1.generation(), t3.generation(), "the same history agrees");
        t3.add_root(ca1.certificate().clone());
        assert_eq!(t1.generation(), t3.generation(), "a duplicate is no edit");
        let shared = t1.clone();
        assert!(
            std::ptr::eq(shared.roots(), t1.roots()),
            "a clone shares the roots"
        );
        let mut grown = t1.clone();
        grown.add_root(ca2.certificate().clone());
        assert_eq!(
            (t1.roots().len(), grown.roots().len()),
            (1, 2),
            "an edit copies first"
        );

        assert_eq!(Epoch::of(&t1, &a), Epoch::of(&t3, &a.clone()));
        assert_ne!(Epoch::of(&t1, &a), Epoch::of(&t1, &b), "the CRL half");
        assert_ne!(Epoch::of(&t1, &a), Epoch::of(&t2, &a), "the trust half");
    }

    #[test]
    fn missing_crl_means_not_revoked() {
        let store = CrlStore::new();
        assert!(!store.is_revoked(&dn("/O=A/CN=CA1"), 1, 100));
    }
}
