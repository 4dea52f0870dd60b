//! Cross-mechanism integration: Kerberos sites and PKI sites
//! interoperating through the paper's §3 gateways, end to end.

use std::rc::Rc;

use gridsec_authz::gridmap::GridMapFile;
use gridsec_gram::resource::{GramConfig, GramResource};
use gridsec_gram::{JobDescription, JobState, Requestor};
use gridsec_integration::dn;
use gridsec_kerberos::Kdc;
use gridsec_ogsa::client::CredentialSource;
use gridsec_pki::ca::CertificateAuthority;
use gridsec_pki::store::TrustStore;
use gridsec_services::kca::{KcaCredentialSource, KerberosCa};
use gridsec_services::sslk5::sslk5_login;
use gridsec_testbed::clock::SimClock;
use gridsec_testbed::os::SimOs;

/// A Kerberos-site user runs a GRAM job on a PKI grid resource: KDC →
/// KCA → GSI credential → signed job request → Figure 4.
#[test]
fn kerberos_user_runs_grid_job_via_kca() {
    let mut rng = gridsec_crypto::rng::ChaChaRng::from_seed_bytes(b"xmech kca gram");
    let clock = SimClock::starting_at(1_000);

    // Kerberos site with a KCA.
    let kdc = Kdc::new(&mut rng, "HEP.SITE", 36_000);
    kdc.add_principal("alice", "pw");
    let kca = Rc::new(KerberosCa::new(&mut rng, &kdc, 512, 10_000_000, 43_200));
    let kdc = Rc::new(kdc);

    // PKI grid site whose GRAM resource unilaterally trusts the KCA.
    let grid_ca =
        CertificateAuthority::create_root(&mut rng, dn("/O=Grid/CN=CA"), 512, 0, 10_000_000);
    let host_cred = grid_ca.issue_host_identity(
        &mut rng,
        dn("/O=Grid/CN=host hpc1"),
        vec!["hpc1".to_string()],
        512,
        0,
        10_000_000,
    );
    let mut trust = TrustStore::new();
    trust.add_root(grid_ca.certificate().clone());
    trust.add_root(kca.certificate().clone()); // the unilateral bridge

    let gridmap = GridMapFile::parse("\"/O=KCA HEP.SITE/CN=alice\" alice_grid\n").unwrap();
    let mut resource = GramResource::install(
        SimOs::new(),
        clock.clone(),
        "hpc1",
        trust.clone(),
        host_cred,
        &gridmap,
        GramConfig::default(),
    )
    .unwrap();

    // Kerberos login → KCA conversion → GSI credential.
    let mut source =
        KcaCredentialSource::new(kdc.clone(), kca.clone(), "alice", "pw", 512, b"alice");
    let gsi_cred = source.obtain(clock.now()).unwrap();
    assert_eq!(gsi_cred.base_identity(), &dn("/O=KCA HEP.SITE/CN=alice"));

    // Submit a job with the converted credential.
    let mut requestor = Requestor::new(gsi_cred, trust, b"alice requestor");
    let job = requestor
        .submit_job(
            &mut resource,
            &JobDescription::new("/bin/reco"),
            clock.now(),
        )
        .expect("kerberos-rooted job submission");
    assert_eq!(job.account, "alice_grid");
    assert_eq!(resource.job_state(&job.handle).unwrap(), JobState::Active);
}

/// Round trip: PKI → Kerberos → PKI. A grid user PKINITs into a Kerberos
/// realm, and a Kerberos user of that realm KCAs back out to the grid —
/// each mechanism remains authoritative for its own site.
#[test]
fn bidirectional_bridge_round_trip() {
    let mut rng = gridsec_crypto::rng::ChaChaRng::from_seed_bytes(b"xmech roundtrip");

    let kdc = Kdc::new(&mut rng, "SITE.K", 36_000);
    kdc.add_principal("kuser", "kpw");
    kdc.add_principal("gbob", "unused");
    let kca = Rc::new(KerberosCa::new(&mut rng, &kdc, 512, 10_000_000, 43_200));
    let kdc = Rc::new(kdc);

    let grid_ca =
        CertificateAuthority::create_root(&mut rng, dn("/O=Grid/CN=CA"), 512, 0, 10_000_000);
    let bob = grid_ca.issue_identity(&mut rng, dn("/O=Grid/CN=Bob"), 512, 0, 10_000_000);
    let mut kdc_trust = TrustStore::new();
    kdc_trust.add_root(grid_ca.certificate().clone());

    // PKI → Kerberos.
    let login = sslk5_login(
        &mut rng,
        &kdc,
        &bob,
        &kdc_trust,
        |d| (d == &dn("/O=Grid/CN=Bob")).then(|| "gbob".to_string()),
        100,
        10_000,
    )
    .unwrap();
    assert_eq!(login.principal, "gbob");

    // Kerberos → PKI.
    let mut source =
        KcaCredentialSource::new(kdc.clone(), kca.clone(), "kuser", "kpw", 512, b"kuser");
    let cred = source.obtain(100).unwrap();
    let mut grid_trust = TrustStore::new();
    grid_trust.add_root(kca.certificate().clone());
    let id = gridsec_pki::validate::validate_chain(cred.chain(), &grid_trust, 200).unwrap();
    assert_eq!(id.base_identity, dn("/O=KCA SITE.K/CN=kuser"));
}

/// The KCA conversion respects Kerberos-side failures at every stage.
#[test]
fn kca_conversion_failure_modes() {
    let mut rng = gridsec_crypto::rng::ChaChaRng::from_seed_bytes(b"xmech failures");
    let kdc = Kdc::new(&mut rng, "SITE.K", 36_000);
    kdc.add_principal("alice", "pw");
    let kca = Rc::new(KerberosCa::new(&mut rng, &kdc, 512, 10_000_000, 43_200));
    let kdc = Rc::new(kdc);

    // Wrong password.
    let mut bad_pw = KcaCredentialSource::new(kdc.clone(), kca.clone(), "alice", "nope", 512, b"x");
    assert!(bad_pw.obtain(100).is_err());

    // Unknown principal.
    let mut unknown =
        KcaCredentialSource::new(kdc.clone(), kca.clone(), "mallory", "pw", 512, b"y");
    assert!(unknown.obtain(100).is_err());

    // Success case still works after failures.
    let mut good = KcaCredentialSource::new(kdc, kca, "alice", "pw", 512, b"z");
    assert!(good.obtain(100).is_ok());
}

/// KCA-issued credentials expire on the KCA's short schedule; the grid
/// site rejects them after expiry with no Kerberos interaction.
#[test]
fn kca_credentials_are_short_lived_grid_side() {
    let mut rng = gridsec_crypto::rng::ChaChaRng::from_seed_bytes(b"xmech expiry");
    let kdc = Kdc::new(&mut rng, "SITE.K", 360_000);
    kdc.add_principal("alice", "pw");
    let kca = Rc::new(KerberosCa::new(&mut rng, &kdc, 512, 10_000_000, 1_000));
    let kdc = Rc::new(kdc);
    let mut source = KcaCredentialSource::new(kdc, kca.clone(), "alice", "pw", 512, b"s");
    let cred = source.obtain(100).unwrap();

    let mut trust = TrustStore::new();
    trust.add_root(kca.certificate().clone());
    assert!(gridsec_pki::validate::validate_chain(cred.chain(), &trust, 500).is_ok());
    assert!(gridsec_pki::validate::validate_chain(cred.chain(), &trust, 2_000).is_err());
}
