//! Property-based tests for PKI invariants.

use gridsec_crypto::rng::ChaChaRng;
use gridsec_pki::ca::CertificateAuthority;
use gridsec_pki::cert::Certificate;
use gridsec_pki::encoding::Codec;
use gridsec_pki::name::DistinguishedName;
use gridsec_pki::proxy::{issue_proxy, ProxyType};
use gridsec_pki::store::TrustStore;
use gridsec_pki::validate::{validate_chain, EffectiveRights};
use gridsec_util::check::{check, Gen};
use std::sync::OnceLock;

const CASES: u64 = 64;

struct Fixture {
    ca: CertificateAuthority,
    trust: TrustStore,
    user: gridsec_pki::credential::Credential,
}

fn fixture() -> &'static Fixture {
    static F: OnceLock<Fixture> = OnceLock::new();
    F.get_or_init(|| {
        let mut rng = ChaChaRng::from_seed_bytes(b"pki proptest fixture");
        let ca = CertificateAuthority::create_root(
            &mut rng,
            DistinguishedName::parse("/O=G/CN=CA").unwrap(),
            512,
            0,
            1_000_000,
        );
        let user = ca.issue_identity(
            &mut rng,
            DistinguishedName::parse("/O=G/CN=User").unwrap(),
            512,
            0,
            1_000_000,
        );
        let mut trust = TrustStore::new();
        trust.add_root(ca.certificate().clone());
        Fixture { ca, trust, user }
    })
}

const DN_VALUE: &str = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789 .-";

/// DN generator: 1–5 components, attribute from a small alphabet, value
/// without '/' or '='.
fn dn(g: &mut Gen) -> DistinguishedName {
    let parts = g.vec(1..6, |g| {
        let attr = *g.choice(&["C", "O", "OU", "CN", "L", "DC"]);
        let value = g.string(DN_VALUE, 1..13);
        (attr, value)
    });
    let s: String = parts.iter().map(|(a, v)| format!("/{a}={v}")).collect();
    DistinguishedName::parse(&s).unwrap()
}

#[test]
fn dn_display_parse_roundtrip() {
    check("dn_display_parse_roundtrip", CASES, |g| {
        let dn = dn(g);
        assert_eq!(DistinguishedName::parse(&dn.to_string()).unwrap(), dn);
    });
}

#[test]
fn dn_codec_roundtrip() {
    check("dn_codec_roundtrip", CASES, |g| {
        let dn = dn(g);
        assert_eq!(DistinguishedName::from_bytes(&dn.to_bytes()).unwrap(), dn);
    });
}

#[test]
fn proxy_extension_always_validates_name_rule() {
    check("proxy_extension_always_validates_name_rule", CASES, |g| {
        let dn = dn(g);
        let cn = g.string("0123456789", 1..11);
        let ext = dn.with_extra_cn(&cn);
        assert!(ext.is_proxy_extension_of(&dn));
    });
}

#[test]
fn certificate_decode_never_panics_on_garbage() {
    check("certificate_decode_never_panics_on_garbage", CASES, |g| {
        let data = g.bytes(0..256);
        // Must return Err or Ok, never panic.
        let _ = Certificate::from_bytes(&data);
    });
}

#[test]
fn validation_time_respects_window() {
    check("validation_time_respects_window", CASES, |g| {
        let now = g.u64_in(0..2_000_000);
        let f = fixture();
        let result = validate_chain(f.user.chain(), &f.trust, now);
        assert_eq!(result.is_ok(), now <= 1_000_000);
    });
}

#[test]
fn proxy_chain_depth_matches() {
    check("proxy_chain_depth_matches", CASES, |g| {
        let depth = g.usize_in(1..5);
        let seed = g.u64();
        let f = fixture();
        let mut rng = ChaChaRng::from_seed_bytes(&seed.to_le_bytes());
        let mut cred = f.user.clone();
        for _ in 0..depth {
            cred =
                issue_proxy(&mut rng, &cred, ProxyType::Impersonation, 512, 10, 500_000).unwrap();
        }
        let id = validate_chain(cred.chain(), &f.trust, 100).unwrap();
        assert_eq!(id.proxy_depth, depth);
        assert_eq!(id.base_identity.to_string(), "/O=G/CN=User");
        assert_eq!(id.rights, EffectiveRights::Full);
    });
}

#[test]
fn any_limited_proxy_limits_chain() {
    check("any_limited_proxy_limits_chain", CASES, |g| {
        let depth = g.usize_in(2..5);
        let limited_at = g.usize_in(0..5) % depth;
        let seed = g.u64();
        let f = fixture();
        let mut rng = ChaChaRng::from_seed_bytes(&seed.to_le_bytes());
        let mut cred = f.user.clone();
        for i in 0..depth {
            let ty = if i == limited_at {
                ProxyType::Limited
            } else {
                ProxyType::Impersonation
            };
            cred = issue_proxy(&mut rng, &cred, ty, 512, 10, 500_000).unwrap();
        }
        let id = validate_chain(cred.chain(), &f.trust, 100).unwrap();
        assert_eq!(id.rights, EffectiveRights::Limited);
    });
}

#[test]
fn crl_roundtrip_and_revocation() {
    check("crl_roundtrip_and_revocation", CASES, |g| {
        let serials = g.vec(0..20, |g| g.u64());
        let f = fixture();
        let crl = f.ca.issue_crl(serials.clone(), 10, 100);
        let decoded = gridsec_pki::ca::Crl::from_bytes(&crl.to_bytes()).unwrap();
        assert!(decoded.verify(f.ca.certificate().public_key()));
        for s in &serials {
            assert!(decoded.is_revoked(*s));
        }
    });
}

#[test]
fn cached_validator_agrees_with_direct_walk() {
    use gridsec_pki::store::CrlStore;
    use gridsec_pki::validate::{validate_chain_with_crls, CachedValidator};
    check("cached_validator_agrees_with_direct_walk", CASES, |g| {
        let f = fixture();
        let seed = g.u64();
        let depth = g.usize_in(0..3);
        let mut rng = ChaChaRng::from_seed_bytes(&seed.to_le_bytes());
        let mut cred = f.user.clone();
        for _ in 0..depth {
            cred =
                issue_proxy(&mut rng, &cred, ProxyType::Impersonation, 512, 10, 500_000).unwrap();
        }
        let mut v = CachedValidator::new(4);
        let crls = CrlStore::new();
        let now = g.u64_in(0..1_200_000);
        // Three queries at the same instant: the first misses and walks,
        // the rest hit — every answer must agree with the direct walk.
        for _ in 0..3 {
            let direct = validate_chain_with_crls(cred.chain(), &f.trust, &crls, now);
            let cached = v.validate(cred.chain(), &f.trust, &crls, now);
            match (direct, cached) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.base_identity, b.base_identity);
                    assert_eq!(a.proxy_depth, b.proxy_depth);
                    assert_eq!(a.rights, b.rights);
                }
                (Err(a), Err(b)) => assert_eq!(a, b),
                (a, b) => panic!("cache diverged: direct={a:?} cached={b:?}"),
            }
        }
    });
}

/// A proxy chain whose leaf window `[nb, na]` is strictly inside every
/// issuer window, so the leaf alone decides the chain's validity edge.
fn edged_proxy(g: &mut Gen) -> (gridsec_pki::credential::Credential, u64, u64) {
    let f = fixture();
    let seed = g.u64();
    let nb = g.u64_in(1..500_000);
    let na = nb + g.u64_in(1..400_000);
    let mut rng = ChaChaRng::from_seed_bytes(&seed.to_le_bytes());
    let cred = issue_proxy(
        &mut rng,
        &f.user,
        ProxyType::Impersonation,
        512,
        nb,
        na - nb,
    )
    .unwrap();
    assert_eq!(cred.certificate().body().validity.not_before, nb);
    assert_eq!(cred.certificate().body().validity.not_after, na);
    (cred, nb, na)
}

#[test]
fn validation_window_edges_are_inclusive() {
    check("validation_window_edges_are_inclusive", CASES, |g| {
        let f = fixture();
        let (cred, nb, na) = edged_proxy(g);
        // Validity is inclusive at both instants — the credential works
        // at exactly `not_before` and exactly `not_after` ...
        assert!(validate_chain(cred.chain(), &f.trust, nb).is_ok());
        assert!(validate_chain(cred.chain(), &f.trust, na).is_ok());
        // ... and fails one tick outside either edge.
        assert!(validate_chain(cred.chain(), &f.trust, nb - 1).is_err());
        assert!(validate_chain(cred.chain(), &f.trust, na + 1).is_err());
    });
}

#[test]
fn cached_validator_hits_pin_window_edges() {
    use gridsec_pki::store::CrlStore;
    use gridsec_pki::validate::{validate_chain_with_crls, CachedValidator};
    check("cached_validator_hits_pin_window_edges", CASES, |g| {
        let f = fixture();
        let (cred, nb, na) = edged_proxy(g);
        let crls = CrlStore::new();
        let mut v = CachedValidator::new(4);

        // Warm the cache mid-window, then probe exactly at each edge:
        // the warm entry must still HIT (no re-walk) and agree with the
        // direct walk, because both windows are inclusive.
        let mid = nb + (na - nb) / 2;
        assert!(v.validate(cred.chain(), &f.trust, &crls, mid).is_ok());
        assert_eq!((v.hits(), v.misses()), (0, 1));
        for edge in [nb, na] {
            let direct = validate_chain_with_crls(cred.chain(), &f.trust, &crls, edge).unwrap();
            let cached = v.validate(cred.chain(), &f.trust, &crls, edge).unwrap();
            assert_eq!(direct.base_identity, cached.base_identity);
            assert_eq!(direct.proxy_depth, cached.proxy_depth);
        }
        assert_eq!((v.hits(), v.misses()), (2, 1));

        // One tick past `not_after` the entry is stale: the probe is a
        // MISS, the stale entry is dropped, and the re-walk reports the
        // same expiry error the direct walk does.
        let direct = validate_chain_with_crls(cred.chain(), &f.trust, &crls, na + 1);
        let cached = v.validate(cred.chain(), &f.trust, &crls, na + 1);
        assert_eq!(direct.unwrap_err(), cached.unwrap_err());
        assert_eq!((v.hits(), v.misses()), (2, 2));

        // Same one tick before `not_before` (re-warm first: the stale
        // drop above emptied the cache).
        assert!(v.validate(cred.chain(), &f.trust, &crls, mid).is_ok());
        let direct = validate_chain_with_crls(cred.chain(), &f.trust, &crls, nb - 1);
        let cached = v.validate(cred.chain(), &f.trust, &crls, nb - 1);
        assert_eq!(direct.unwrap_err(), cached.unwrap_err());
    });
}

#[test]
fn batch_validation_agrees_at_window_edges() {
    use gridsec_pki::store::CrlStore;
    use gridsec_pki::validate::{validate_chain_with_crls, CachedValidator};
    check("batch_validation_agrees_at_window_edges", CASES, |g| {
        let f = fixture();
        let crls = CrlStore::new();
        // A handful of chains with independent windows; `now` lands
        // exactly on one chain's edge, so the batch must return Ok for
        // that chain (inclusive) while attributing expiry/not-yet-valid
        // errors to the right positions among the others.
        let creds: Vec<_> = (0..4).map(|_| edged_proxy(g)).collect();
        let pick = g.usize_in(0..4);
        let now = if g.bool() {
            creds[pick].2
        } else {
            creds[pick].1
        };

        let chains: Vec<&[Certificate]> = creds.iter().map(|(c, _, _)| c.chain()).collect();
        let mut v = CachedValidator::new(8);
        let batch = v.validate_batch(&chains, &f.trust, &crls, now);
        assert_eq!(batch.len(), chains.len());
        for (i, got) in batch.iter().enumerate() {
            let direct = validate_chain_with_crls(chains[i], &f.trust, &crls, now);
            match (direct, got) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.base_identity, b.base_identity);
                    assert_eq!(a.proxy_depth, b.proxy_depth);
                }
                (Err(a), Err(b)) => assert_eq!(&a, b),
                (a, b) => panic!("batch diverged at {i}: direct={a:?} batch={b:?}"),
            }
        }
        // The picked chain sat exactly on its own edge — inclusive.
        assert!(batch[pick].is_ok());

        // A second batch at the same instant is pure cache hits for the
        // chains that validated, and still position-for-position equal.
        let ok_count = batch.iter().filter(|r| r.is_ok()).count() as u64;
        let hits_before = v.hits();
        let again = v.validate_batch(&chains, &f.trust, &crls, now);
        assert_eq!(v.hits(), hits_before + ok_count);
        for (a, b) in batch.iter().zip(again.iter()) {
            assert_eq!(a.is_ok(), b.is_ok());
        }
    });
}

#[test]
fn cached_validator_agrees_after_revocation() {
    use gridsec_pki::store::CrlStore;
    use gridsec_pki::validate::{validate_chain_with_crls, CachedValidator};
    check("cached_validator_agrees_after_revocation", CASES, |g| {
        let f = fixture();
        let seed = g.u64();
        let mut rng = ChaChaRng::from_seed_bytes(&seed.to_le_bytes());
        let depth = g.usize_in(0..3);
        let mut cred = f.user.clone();
        for _ in 0..depth {
            cred =
                issue_proxy(&mut rng, &cred, ProxyType::Impersonation, 512, 10, 500_000).unwrap();
        }
        let mut v = CachedValidator::new(4);
        let mut crls = CrlStore::new();
        let now = g.u64_in(10..400_000);
        // Warm the cache with a positive result...
        assert!(v.validate(cred.chain(), &f.trust, &crls, now).is_ok());
        // ...then revoke either the user's certificate or some unrelated
        // serial. The store mutation bumps the CRL generation, so the
        // cached entry must not mask the new revocation state.
        let serial = if g.bool() {
            f.user.certificate().body().serial
        } else {
            g.u64() | (1 << 63)
        };
        assert!(crls.add(
            f.ca.issue_crl(vec![serial], now, 1_000_000),
            f.ca.certificate()
        ));
        let direct = validate_chain_with_crls(cred.chain(), &f.trust, &crls, now);
        let cached = v.validate(cred.chain(), &f.trust, &crls, now);
        match (direct, cached) {
            (Ok(a), Ok(b)) => assert_eq!(a.base_identity, b.base_identity),
            (Err(a), Err(b)) => assert_eq!(a, b),
            (a, b) => panic!("cache diverged after revocation: direct={a:?} cached={b:?}"),
        }
    });
}

/// Every field of two verdicts, errors included.
fn same_verdict(
    a: &Result<gridsec_pki::validate::ValidatedIdentity, gridsec_pki::PkiError>,
    b: &Result<gridsec_pki::validate::ValidatedIdentity, gridsec_pki::PkiError>,
) -> bool {
    match (a, b) {
        (Ok(a), Ok(b)) => {
            a.subject == b.subject
                && a.base_identity == b.base_identity
                && a.public_key == b.public_key
                && a.proxy_depth == b.proxy_depth
                && a.rights == b.rights
                && a.restrictions == b.restrictions
        }
        (Err(a), Err(b)) => a == b,
        _ => false,
    }
}

#[test]
fn wire_keyed_memo_agrees_across_epochs_edges_and_flipped_bytes() {
    use gridsec_pki::cert::WireChain;
    use gridsec_pki::encoding::Decoder;
    use gridsec_pki::store::CrlStore;
    use gridsec_pki::validate::{validate_chain_with_crls, CachedValidator};
    check(
        "wire_keyed_memo_agrees_across_epochs_edges_and_flipped_bytes",
        CASES,
        |g| {
            let f = fixture();
            // Chains with their own window edges, a restricted proxy among
            // them, plus the bare user chain.
            let mut creds: Vec<(gridsec_pki::credential::Credential, u64, u64)> =
                (0..2).map(|_| edged_proxy(g)).collect();
            let mut rng = ChaChaRng::from_seed_bytes(&g.u64().to_le_bytes());
            let restricted = ProxyType::Restricted {
                language: "cas-rights-v1".into(),
                policy: g.bytes(0..16),
            };
            let (nb, na) = (creds[0].1, creds[0].2);
            let r = issue_proxy(&mut rng, &creds[0].0, restricted, 512, nb, (na - nb) / 2).unwrap();
            let w = r.certificate().body().validity;
            creds.push((r, w.not_before, w.not_after));
            creds.push((f.user.clone(), 0, 1_000_000));

            // The stores a server may swap in: each pair is an epoch.
            let other_serial = g.u64() | (1 << 63);
            let mut revoke_user = CrlStore::new();
            assert!(revoke_user.add(
                f.ca.issue_crl(vec![f.user.certificate().body().serial], 0, 2_000_000),
                f.ca.certificate()
            ));
            let mut revoke_other = CrlStore::new();
            assert!(revoke_other.add(
                f.ca.issue_crl(vec![other_serial], 0, 2_000_000),
                f.ca.certificate()
            ));
            let epochs = [
                (f.trust.clone(), CrlStore::new()),
                (f.trust.clone(), revoke_other),
                (f.trust.clone(), revoke_user),
                (TrustStore::new(), CrlStore::new()),
            ];

            let mut v = CachedValidator::new(g.usize_in(1..4));
            for _ in 0..12 {
                let (cred, nb, na) = g.choice(&creds);
                let now = match g.usize_in(0..6) {
                    0 => nb.saturating_sub(1),
                    1 => *nb,
                    2 => *na,
                    3 => na + 1,
                    _ => g.u64_in(0..1_200_000),
                };
                let (trust, crls) = g.choice(&epochs);
                let direct = validate_chain_with_crls(cred.chain(), trust, crls, now);
                let wire = cred.encoded_chain();
                let memo = if g.bool() {
                    let chain = WireChain::decode(&mut Decoder::new(wire)).unwrap();
                    v.validate_wire(&chain, trust, crls, now)
                } else {
                    v.validate(cred.chain(), trust, crls, now)
                };
                assert!(
                    same_verdict(&direct, &memo),
                    "direct={direct:?} memo={memo:?}"
                );

                // The same chain with one byte changed, wherever it still
                // decodes, is its own key: never another chain's verdict.
                let mut flipped = wire.to_vec();
                let at = g.usize_in(0..flipped.len());
                flipped[at] ^= 1 << g.usize_in(0..8);
                let mut dec = Decoder::new(&flipped);
                let decoded = WireChain::decode(&mut dec);
                if let (Ok(chain), Ok(())) = (decoded, dec.expect_exhausted()) {
                    assert_eq!(chain.wire(), flipped);
                    let direct = validate_chain_with_crls(chain.certs(), trust, crls, now);
                    let memo = v.validate_wire(&chain, trust, crls, now);
                    assert!(
                        same_verdict(&direct, &memo),
                        "byte {at}: direct={direct:?} memo={memo:?}"
                    );
                }
            }
        },
    );
}
