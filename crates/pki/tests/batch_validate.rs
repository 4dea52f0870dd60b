//! Interaction tests for `CachedValidator::validate_batch`: the batch
//! form must agree chain-for-chain with the individual form (it is a
//! loop over it), attribute failures to the right positions, honour a
//! trust/CRL generation bump between batches, and keep the cache's
//! counters and bound when a chain occurs more than once.

use gridsec_crypto::rng::ChaChaRng;
use gridsec_pki::ca::CertificateAuthority;
use gridsec_pki::cert::Certificate;
use gridsec_pki::credential::Credential;
use gridsec_pki::name::DistinguishedName;
use gridsec_pki::proxy::{issue_proxy, ProxyType};
use gridsec_pki::store::{CrlStore, TrustStore};
use gridsec_pki::validate::CachedValidator;
use gridsec_pki::PkiError;

fn dn(s: &str) -> DistinguishedName {
    DistinguishedName::parse(s).unwrap()
}

struct World {
    rng: ChaChaRng,
    ca: CertificateAuthority,
    trust: TrustStore,
    users: Vec<Credential>,
}

fn world(n_users: usize) -> World {
    let mut rng = ChaChaRng::from_seed_bytes(b"batch validate tests");
    let ca = CertificateAuthority::create_root(&mut rng, dn("/O=G/CN=CA"), 512, 0, 1_000_000);
    let users = (0..n_users)
        .map(|i| ca.issue_identity(&mut rng, dn(&format!("/O=G/CN=U{i}")), 512, 0, 100_000))
        .collect();
    let mut trust = TrustStore::new();
    trust.add_root(ca.certificate().clone());
    World {
        rng,
        ca,
        trust,
        users,
    }
}

#[test]
fn batch_matches_individual_on_mixed_chains() {
    let mut w = world(6);
    let crls = CrlStore::new();

    // Chain shapes: plain identities, a proxy chain, a tampered chain
    // (bad signature), and an expired chain.
    let proxy = issue_proxy(
        &mut w.rng,
        &w.users[1],
        ProxyType::Impersonation,
        512,
        10,
        1000,
    )
    .unwrap();
    let mut forged = w.users[2].chain().to_vec();
    forged[0].tbs.subject = dn("/O=G/CN=Mallory");
    let short_lived =
        w.ca.issue_identity(&mut w.rng, dn("/O=G/CN=Ephemeral"), 512, 0, 400);

    let chains: Vec<Vec<Certificate>> = vec![
        w.users[0].chain().to_vec(),
        proxy.chain().to_vec(),
        forged,
        short_lived.chain().to_vec(),
        w.users[3].chain().to_vec(),
    ];
    let refs: Vec<&[Certificate]> = chains.iter().map(|c| c.as_slice()).collect();

    let mut batch_v = CachedValidator::new(16);
    let batch = batch_v.validate_batch(&refs, &w.trust, &crls, 500);

    let mut indiv_v = CachedValidator::new(16);
    for (i, chain) in refs.iter().enumerate() {
        let individual = indiv_v.validate(chain, &w.trust, &crls, 500);
        match (&batch[i], &individual) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.subject, b.subject, "chain {i}");
                assert_eq!(a.base_identity, b.base_identity, "chain {i}");
                assert_eq!(a.proxy_depth, b.proxy_depth, "chain {i}");
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "chain {i}"),
            _ => panic!("chain {i}: batch/individual verdict diverged"),
        }
    }
    assert!(batch[0].is_ok());
    assert!(batch[1].is_ok());
    assert_eq!(batch[2].as_ref().unwrap_err(), &PkiError::BadSignature);
    assert!(matches!(batch[3], Err(PkiError::Expired { .. })));
    assert!(batch[4].is_ok());

    // Successful chains were cached by the batch: re-validating them
    // individually through the same validator is all hits.
    let misses = batch_v.misses();
    for &i in &[0usize, 1, 4] {
        assert!(batch_v.validate(refs[i], &w.trust, &crls, 600).is_ok());
    }
    assert_eq!(batch_v.misses(), misses);
}

#[test]
fn generation_bump_between_batches_revokes_and_empties_cache() {
    let mut w = world(4);
    let mut crls = CrlStore::new();
    let mut v = CachedValidator::new(16);

    let chains: Vec<Vec<Certificate>> = w.users.iter().map(|u| u.chain().to_vec()).collect();
    let refs: Vec<&[Certificate]> = chains.iter().map(|c| c.as_slice()).collect();

    let first = v.validate_batch(&refs, &w.trust, &crls, 500);
    assert!(first.iter().all(|r| r.is_ok()));
    assert_eq!(v.len(), 4);

    // Revoke one user between batches: the CRL generation bump must
    // clear the result cache before the next batch touches it.
    let serial = w.users[2].certificate().tbs.serial;
    assert!(crls.add(
        w.ca.issue_crl(vec![serial], 100, 10_000),
        w.ca.certificate()
    ));

    let second = v.validate_batch(&refs, &w.trust, &crls, 500);
    assert!(second[0].is_ok());
    assert!(second[1].is_ok());
    assert_eq!(
        second[2].as_ref().unwrap_err(),
        &PkiError::Revoked { serial }
    );
    assert!(second[3].is_ok());
    assert_eq!(v.len(), 3, "revoked chain is not cached");

    // Direct observation of the drop: bump the trust generation, and a
    // one-chain batch leaves exactly that chain memoized.
    w.trust.add_root(
        CertificateAuthority::create_root(&mut w.rng, dn("/O=Other/CN=CA2"), 512, 0, 1_000_000)
            .certificate()
            .clone(),
    );
    let third = v.validate_batch(&refs[..1], &w.trust, &crls, 500);
    assert!(third[0].is_ok());
    assert_eq!(v.len(), 1, "trust bump emptied the verdict cache");
}

#[test]
fn revocation_respected_within_first_batch() {
    let w = world(3);
    let mut crls = CrlStore::new();
    let serial = w.users[1].certificate().tbs.serial;
    assert!(crls.add(
        w.ca.issue_crl(vec![serial], 100, 10_000),
        w.ca.certificate()
    ));

    let chains: Vec<Vec<Certificate>> = w.users.iter().map(|u| u.chain().to_vec()).collect();
    let refs: Vec<&[Certificate]> = chains.iter().map(|c| c.as_slice()).collect();

    let mut v = CachedValidator::new(16);
    let out = v.validate_batch(&refs, &w.trust, &crls, 500);
    assert!(out[0].is_ok());
    assert_eq!(out[1].as_ref().unwrap_err(), &PkiError::Revoked { serial });
    assert!(out[2].is_ok());
    // Negative results are never cached, batch or not.
    assert_eq!(v.len(), 2);
}

#[test]
fn empty_and_duplicate_batches() {
    let w = world(1);
    let crls = CrlStore::new();
    let mut v = CachedValidator::new(16);
    assert!(v.validate_batch(&[], &w.trust, &crls, 500).is_empty());

    // The same chain three times: first walk validates, the rest of the
    // behaviour (cache state, counters, verdicts) matches three
    // individual calls — one walk, then two hits.
    let chain = w.users[0].chain();
    let out = v.validate_batch(&[chain, chain, chain], &w.trust, &crls, 500);
    assert!(out.iter().all(|r| r.is_ok()));
    assert_eq!(v.len(), 1);
    assert_eq!((v.misses(), v.hits()), (1, 2));
    let hits = v.hits();
    assert!(v.validate(chain, &w.trust, &crls, 500).is_ok());
    assert_eq!(v.hits(), hits + 1);
}

#[test]
fn duplicates_in_a_batch_do_not_break_the_capacity_bound() {
    // A repeat must not queue its key for eviction a second time: a
    // later eviction would pop the stale key, remove nothing, and the
    // cache would outgrow its capacity for good.
    let w = world(4);
    let crls = CrlStore::new();
    let mut v = CachedValidator::new(2);
    let chain = w.users[0].chain();
    let _ = v.validate_batch(&[chain, chain, chain], &w.trust, &crls, 500);
    for user in &w.users[1..] {
        assert!(v.validate(user.chain(), &w.trust, &crls, 500).is_ok());
        assert!(v.len() <= 2, "validator holds {} of 2", v.len());
    }
}
