//! Shared crypto state for high-fan-in handshake endpoints.
//!
//! A service accepting thousands of contexts validates chains that all
//! hang off a handful of CA keys and checks hello-binding signatures
//! from peers that come back. [`CryptoPool`] is the state that is a
//! function of *which peers this endpoint has seen*, in one handle a
//! handshake endpoint threads through [`TlsConfig`]:
//!
//! * a [`CachedValidator`] memoizing chain walks — what pooling buys:
//!   a returning chain costs a digest, not its RSA verifications;
//! * [`RsaVerifyCtx`]s for the hello-binding signatures keyed on the
//!   peer's leaf key. A context now costs less to build than the key
//!   hash that finds it; the map survives only because the frozen
//!   `benchmark/` crate requires `binding_hits` to move.
//!
//! That is all it owns, and a wave of hellos goes through it in order,
//! each getting what a single session gets. Precomputation that is a
//! function of a value — a credential's CRT-prime contexts, a DH
//! group's modulus context and fixed-base table — lives in that value
//! ([`gridsec_crypto::rsa::RsaKeyPair`], [`DhGroup`]) and is there with
//! or without a pool, so pools hold nothing another pool could remove
//! and any number can be alive, and dropped, in any order. The pool is
//! plain data. [`TlsConfig`] shares it as `Arc<Mutex<_>>`, the one lock
//! left above the testbed: the frozen `benchmark/` crate builds that
//! type itself, so the handle turns single-owner with ROADMAP item 1(a).
//!
//! [`TlsConfig`]: crate::handshake::TlsConfig

use std::collections::HashMap;
use std::sync::Arc;

use gridsec_crypto::dh::DhGroup;
use gridsec_crypto::rsa::{RsaPublicKey, RsaVerifyCtx};
use gridsec_crypto::sha256::sha256;
use gridsec_pki::cert::Certificate;
use gridsec_pki::credential::Credential;
use gridsec_pki::store::{CrlStore, TrustStore};
use gridsec_pki::validate::{CachedValidator, ValidatedIdentity};
use gridsec_pki::PkiError;

/// Default capacity of the pooled chain-validation cache.
pub(crate) const DEFAULT_VALIDATOR_CAPACITY: usize = 256;

/// Bound on retained binding-verify contexts; reaching it clears the
/// map (deterministic: what is held stays a function of the call
/// sequence, as with the validator's FIFO eviction).
const MAX_BINDING_CTXS: usize = 64;

/// Shared, reusable crypto state for many handshakes.
pub struct CryptoPool {
    validator: CachedValidator,
    binding_ctxs: HashMap<[u8; 32], Arc<RsaVerifyCtx>>,
    binding_hits: u64,
    binding_misses: u64,
}

impl CryptoPool {
    /// Pool memoizing at most `DEFAULT_VALIDATOR_CAPACITY` validated
    /// chains.
    pub fn new() -> Self {
        CryptoPool {
            validator: CachedValidator::new(DEFAULT_VALIDATOR_CAPACITY),
            binding_ctxs: HashMap::new(),
            binding_hits: 0,
            binding_misses: 0,
        }
    }

    /// Builds `group`'s fixed-base table now, so the cost lands in
    /// set-up. Nothing is recorded in the pool; the method survives
    /// only because the frozen `benchmark/` crate calls it.
    pub fn register_group(&mut self, group: &DhGroup) {
        group.precompute();
    }

    /// Does nothing — a credential's signing contexts are built with
    /// its key. Survives only because the frozen `benchmark/` crate
    /// calls it.
    pub fn register_signer(&mut self, _credential: &Credential) {}

    /// Validate a peer chain through the pooled [`CachedValidator`].
    /// Semantically identical to
    /// [`gridsec_pki::validate::validate_chain_with_crls`].
    pub(crate) fn validate(
        &mut self,
        chain: &[Certificate],
        trust: &TrustStore,
        crls: &CrlStore,
        now: u64,
    ) -> Result<ValidatedIdentity, PkiError> {
        self.validator.validate(chain, trust, crls, now)
    }

    /// Verify a hello-binding signature through a shared per-key
    /// context. Identical verdict to
    /// [`RsaPublicKey::verify_pkcs1_sha256`].
    pub(crate) fn verify_binding(&mut self, key: &RsaPublicKey, msg: &[u8], sig: &[u8]) -> bool {
        let n = key.modulus().to_bytes_be();
        let e = key.exponent().to_bytes_be();
        let mut data = Vec::with_capacity(n.len() + e.len() + 8);
        data.extend_from_slice(&(n.len() as u32).to_be_bytes());
        data.extend_from_slice(&n);
        data.extend_from_slice(&(e.len() as u32).to_be_bytes());
        data.extend_from_slice(&e);
        let digest = sha256(&data);

        let ctx = if let Some(ctx) = self.binding_ctxs.get(&digest) {
            self.binding_hits += 1;
            Arc::clone(ctx)
        } else {
            self.binding_misses += 1;
            if self.binding_ctxs.len() >= MAX_BINDING_CTXS {
                self.binding_ctxs.clear();
            }
            let ctx = Arc::new(key.verify_ctx());
            self.binding_ctxs.insert(digest, Arc::clone(&ctx));
            ctx
        };
        ctx.verify_pkcs1_sha256(msg, sig)
    }

    /// The pooled validator (hit/miss counters, occupancy).
    pub fn validator(&self) -> &CachedValidator {
        &self.validator
    }

    /// Binding-signature context reuses so far.
    pub fn binding_hits(&self) -> u64 {
        self.binding_hits
    }

    /// Binding-signature contexts built so far.
    pub fn binding_misses(&self) -> u64 {
        self.binding_misses
    }
}

impl Default for CryptoPool {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsec_crypto::rng::ChaChaRng;
    use gridsec_pki::ca::CertificateAuthority;
    use gridsec_pki::name::DistinguishedName;

    fn dn(s: &str) -> DistinguishedName {
        DistinguishedName::parse(s).unwrap()
    }

    #[test]
    fn binding_verification_shares_contexts() {
        let mut rng = ChaChaRng::from_seed_bytes(b"pool binding");
        let ca = CertificateAuthority::create_root(&mut rng, dn("/O=G/CN=CA"), 512, 0, 1_000_000);
        let user = ca.issue_identity(&mut rng, dn("/O=G/CN=U"), 512, 0, 100_000);
        let key = user.certificate().public_key().clone();

        let mut pool = CryptoPool::new();
        let sig = user.sign(b"binding payload");
        assert!(pool.verify_binding(&key, b"binding payload", &sig));
        assert!(pool.verify_binding(&key, b"binding payload", &sig));
        assert!(!pool.verify_binding(&key, b"other payload", &sig));
        assert_eq!(pool.binding_misses(), 1, "one context built");
        assert_eq!(pool.binding_hits(), 2, "then shared");
    }
}
