//! Credential bridging across mechanism domains — the paper's §3
//! gateways and Figure 3 step 2.
//!
//! A user at a Kerberos-only site (no personal X.509 certificate) uses
//! the KCA to obtain a GSI credential and then invokes a PKI-side Grid
//! service; a PKI user uses SSLK5/PKINIT to obtain a Kerberos TGT and
//! consume a Kerberized file service. Neither site changed its existing
//! infrastructure.
//!
//! Run with: `cargo run --example credential_bridging`

use std::cell::RefCell;
use std::rc::Rc;

use gridsec_gsi::prelude::*;
use gridsec_kerberos::client::{KrbClient, ServiceVerifier};
use gridsec_kerberos::Kdc;
use gridsec_ogsa::client::CredentialSource;
use gridsec_ogsa::transport::InProcessTransport;
use gridsec_ogsa::OgsaError;
use gridsec_services::kca::{KcaCredentialSource, KerberosCa};
use gridsec_services::sslk5::sslk5_login;

struct DataService;

impl GridService for DataService {
    fn service_type(&self) -> &str {
        "data"
    }
    fn invoke(
        &mut self,
        ctx: &RequestContext,
        operation: &str,
        _payload: &Element,
    ) -> Result<Element, OgsaError> {
        match operation {
            "whoami" => {
                Ok(Element::new("data:Identity").with_text(ctx.caller.base_identity.to_string()))
            }
            other => Err(OgsaError::Application(format!("unknown op {other}"))),
        }
    }
}

fn main() {
    let mut rng = ChaChaRng::from_seed_bytes(b"bridging example");
    let clock = SimClock::starting_at(1_000);

    // ------------------------------------------------------------------
    // Site A: Kerberos-only. Site B: PKI grid site.
    // ------------------------------------------------------------------
    let kdc = Kdc::new(&mut rng, "SITE.A", 36_000);
    kdc.add_principal("alice", "alice-password");
    let kca = KerberosCa::new(&mut rng, &kdc, 512, 100_000_000, 43_200);
    let kdc = Rc::new(kdc);
    let kca = Rc::new(kca);

    let grid_ca = CertificateAuthority::create_root(
        &mut rng,
        DistinguishedName::parse("/O=GridSiteB/CN=CA").unwrap(),
        512,
        0,
        100_000_000,
    );
    let service_cred = grid_ca.issue_identity(
        &mut rng,
        DistinguishedName::parse("/O=GridSiteB/CN=data service").unwrap(),
        512,
        0,
        10_000_000,
    );

    // Site B's service trusts its own CA *and*, unilaterally, site A's
    // KCA — that single act bridges the two mechanism domains.
    let mut trust = TrustStore::new();
    trust.add_root(grid_ca.certificate().clone());
    trust.add_root(kca.certificate().clone());

    // ------------------------------------------------------------------
    // Direction 1 (KCA): Kerberos user -> GSI credential -> Grid service.
    // ------------------------------------------------------------------
    let mut alice_source = KcaCredentialSource::new(
        kdc.clone(),
        kca.clone(),
        "alice",
        "alice-password",
        512,
        b"alice rng",
    );
    let gsi_cred = alice_source.obtain(clock.now()).expect("KCA conversion");
    println!(
        "KCA: kerberos principal alice@SITE.A -> grid identity {}",
        gsi_cred.subject()
    );

    let published = SecurityPolicy {
        service: "data".to_string(),
        alternatives: vec![PolicyAlternative {
            mechanism: "gsi-secure-conversation".to_string(),
            // The service's policy says: Kerberos-site users welcome.
            token_types: vec!["x509-chain".to_string(), "kerberos-ticket".to_string()],
            trust_roots: vec![],
            protection: Protection::SignAndEncrypt,
        }],
    };
    let mut authz = PolicySet::new(CombiningAlg::DenyOverrides);
    authz.add(Rule::new(
        SubjectMatch::Exact("/O=KCA SITE.A/CN=alice".to_string()),
        "factory:data",
        "create",
        Effect::Permit,
    ));
    authz.add(Rule::new(
        SubjectMatch::Exact("/O=KCA SITE.A/CN=alice".to_string()),
        "service:data",
        "*",
        Effect::Permit,
    ));
    let mut env = HostingEnvironment::new(
        "data-host",
        service_cred,
        trust.clone(),
        clock.clone(),
        published,
        authz,
    );
    env.registry
        .register_factory("data", Box::new(|_ctx, _args| Ok(Box::new(DataService))));
    let env = Rc::new(RefCell::new(env));

    let mut client = OgsaClient::new(
        InProcessTransport::new(env),
        trust.clone(),
        clock.clone(),
        b"alice ogsa client",
    );
    // The client's hosting environment owns the conversion (Fig 3 step 2):
    // it holds a Kerberos-backed credential source and uses it on demand.
    client.add_source(Box::new(KcaCredentialSource::new(
        kdc.clone(),
        kca.clone(),
        "alice",
        "alice-password",
        512,
        b"alice pipeline rng",
    )));
    let handle = client
        .create_service("data", Element::new("args"))
        .expect("createService via converted credential");
    let who = client
        .invoke(&handle, "whoami", Element::new("q"))
        .expect("invoke");
    println!(
        "Grid service authenticated the caller as: {}",
        who.text_content()
    );

    // ------------------------------------------------------------------
    // Direction 2 (SSLK5/PKINIT): PKI user -> Kerberos TGT -> service.
    // ------------------------------------------------------------------
    let bob = grid_ca.issue_identity(
        &mut rng,
        DistinguishedName::parse("/O=GridSiteB/CN=Bob").unwrap(),
        512,
        0,
        10_000_000,
    );
    kdc.add_principal("bob", "unused-password"); // account pre-exists at site A
    let mut kdc_trust = TrustStore::new();
    kdc_trust.add_root(grid_ca.certificate().clone()); // KDC's unilateral act

    let login = sslk5_login(
        &mut rng,
        &kdc,
        &bob,
        &kdc_trust,
        |dn| (dn.to_string() == "/O=GridSiteB/CN=Bob").then(|| "bob".to_string()),
        clock.now(),
        10_000,
    )
    .expect("PKINIT login");
    println!(
        "\nSSLK5: grid identity {} -> kerberos TGT for {} (expires t={})",
        bob.subject(),
        login.principal,
        login.end_time
    );

    // Bob uses the TGT against a Kerberized file service.
    let fs_key = kdc.add_service(&mut rng, "host/fileserver");
    let verifier = ServiceVerifier::new("host/fileserver", fs_key);
    let krb_client = KrbClient::from_password("bob", "SITE.A", "unused-password");
    let auth = krb_client.make_authenticator(&mut rng, &login.session_key, clock.now());
    let st = kdc
        .tgs_exchange(
            &mut rng,
            &login.tgt,
            &auth,
            "host/fileserver",
            clock.now(),
            1000,
        )
        .expect("TGS");
    let st_part = krb_client
        .open_service_reply(&login.session_key, &st)
        .expect("open TGS reply");
    let ap_auth = krb_client.make_authenticator(&mut rng, &st_part.session_key, clock.now());
    let accepted = verifier
        .accept(&st.ticket, &ap_auth, clock.now())
        .expect("AP exchange");
    println!(
        "Kerberized file service authenticated: {}@{}",
        accepted.client, accepted.client_realm
    );
    println!("\nBoth directions bridged without either site replacing its security.");
}
