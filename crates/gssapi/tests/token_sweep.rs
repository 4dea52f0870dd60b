//! Exhaustive sweep of the six establishment tokens.
//!
//! A full and a resumed exchange each run three tokens: hello, answer,
//! finished. For every one of the six, every truncation to a shorter
//! length and one bit flip per byte position (bit = position mod 8) is
//! fed in place of the real token, everything else replayed from the
//! same seed. Each mutant must be refused by some step with a context
//! error: never a panic, never a state error, never two established
//! contexts.

use gridsec_crypto::rng::ChaChaRng;
use gridsec_gssapi::context::{establish_in_memory, AcceptorContext, InitiatorContext};
use gridsec_gssapi::GssError;
use gridsec_pki::ca::CertificateAuthority;
use gridsec_pki::credential::Credential;
use gridsec_pki::name::DistinguishedName;
use gridsec_pki::store::TrustStore;
use gridsec_tls::handshake::TlsConfig;
use gridsec_tls::session::{ClientSession, ServerSessionCache, DEFAULT_SESSION_LIFETIME};

const NOW: u64 = 100;

struct World {
    trust: TrustStore,
    alice: Credential,
    service: Credential,
}

impl World {
    fn new() -> Self {
        let dn = |s| DistinguishedName::parse(s).unwrap();
        let mut rng = ChaChaRng::from_seed_bytes(b"gss token sweep");
        let ca = CertificateAuthority::create_root(&mut rng, dn("/O=G/CN=CA"), 512, 0, 1_000_000);
        let alice = ca.issue_identity(&mut rng, dn("/O=G/CN=Alice"), 512, 0, 100_000);
        let service = ca.issue_identity(&mut rng, dn("/O=G/CN=MJS"), 512, 0, 100_000);
        let mut trust = TrustStore::new();
        trust.add_root(ca.certificate().clone());
        World {
            trust,
            alice,
            service,
        }
    }

    fn cfg(&self, cred: &Credential) -> TlsConfig {
        TlsConfig::new(cred.clone(), self.trust.clone(), NOW)
    }
}

/// What is fed in place of a real token.
#[derive(Clone, Copy, Debug)]
enum Mutation {
    /// The first `n` bytes.
    Truncate(usize),
    /// Bit `i mod 8` of byte `i` flipped.
    Flip(usize),
}

impl Mutation {
    /// Every truncation and flip of a token of `len` bytes.
    fn all(len: usize) -> impl Iterator<Item = Mutation> {
        (0..len)
            .map(Mutation::Truncate)
            .chain((0..len).map(Mutation::Flip))
    }

    fn apply(self, mut token: Vec<u8>) -> Vec<u8> {
        match self {
            Mutation::Truncate(n) => token.truncate(n),
            Mutation::Flip(i) => token[i] ^= 1 << (i % 8),
        }
        token
    }
}

/// The tokens of one exchange as fed, token `at` replaced by its
/// mutant.
struct Feed {
    mutation: Option<(usize, Mutation)>,
    tokens: Vec<Vec<u8>>,
}

impl Feed {
    fn pass(&mut self, real: Vec<u8>) -> Vec<u8> {
        let token = match self.mutation {
            Some((at, m)) if at == self.tokens.len() => m.apply(real),
            _ => real,
        };
        self.tokens.push(token.clone());
        token
    }
}

/// The tokens an exchange fed, and `Ok` if both sides established a
/// context.
type Run = (Vec<Vec<u8>>, Result<(), GssError>);

/// A full exchange from a fixed seed.
fn full(w: &World, mutation: Option<(usize, Mutation)>) -> Run {
    let mut rng = ChaChaRng::from_seed_bytes(b"sweep: full");
    let mut feed = Feed {
        mutation,
        tokens: Vec::new(),
    };
    let outcome = (|| {
        let (init, t1) = InitiatorContext::new(w.cfg(&w.alice), &mut rng);
        let t1 = feed.pass(t1);
        let (acceptor, t2) = AcceptorContext::answer_hello(&t1, w.cfg(&w.service), &mut rng)?;
        let t2 = feed.pass(t2);
        let (t3, _) = init.step(&t2)?;
        let t3 = feed.pass(t3);
        acceptor.step(&t3).map(drop)
    })();
    (feed.tokens, outcome)
}

/// A resumed exchange of a session banked by a full one, both from a
/// fixed seed.
fn resumed(w: &World, mutation: Option<(usize, Mutation)>) -> Run {
    let mut rng = ChaChaRng::from_seed_bytes(b"sweep: resumed");
    let (mine, theirs) = establish_in_memory(w.cfg(&w.alice), w.cfg(&w.service), &mut rng).unwrap();
    let session = ClientSession::from_channel(mine.channel()).unwrap();
    let mut sessions = ServerSessionCache::new(4, DEFAULT_SESSION_LIFETIME);
    sessions.store(theirs.channel());
    let epoch = w.cfg(&w.service).epoch();
    let mut feed = Feed {
        mutation,
        tokens: Vec::new(),
    };
    let outcome = (|| {
        let (init, t1) = InitiatorContext::resume(session, NOW, DEFAULT_SESSION_LIFETIME, &mut rng);
        let t1 = feed.pass(t1);
        let service = || w.cfg(&w.service);
        let (acceptor, t2) =
            AcceptorContext::accept(&t1, &mut sessions, NOW, epoch, service, &mut rng)?;
        let t2 = feed.pass(t2);
        let (t3, _) = init.step(&t2)?;
        let t3 = feed.pass(t3);
        acceptor.step(&t3).map(drop)
    })();
    (feed.tokens, outcome)
}

/// Runs every mutant of every token of `exchange`; returns how many.
fn sweep(w: &World, exchange: fn(&World, Option<(usize, Mutation)>) -> Run) -> usize {
    let (clean, outcome) = exchange(w, None);
    assert!(outcome.is_ok(), "{:?}", outcome.err());
    assert_eq!(clean.len(), 3);
    let mut cases = 0;
    for (at, real) in clean.iter().enumerate() {
        for m in Mutation::all(real.len()) {
            let (fed, outcome) = exchange(w, Some((at, m)));
            assert_eq!(fed[..at], clean[..at], "replay drifted");
            assert!(
                matches!(outcome, Err(GssError::Tls(_))),
                "token {at} {m:?}: {:?}",
                outcome.map(|()| "both sides established")
            );
            cases += 1;
        }
    }
    cases
}

#[test]
fn every_mutant_of_a_full_exchange_is_refused() {
    let cases = sweep(&World::new(), full);
    // Some 600 + 640 + 37 token bytes, two mutants each.
    assert!(cases > 2_500, "{cases}");
}

#[test]
fn every_mutant_of_a_resumed_exchange_is_refused() {
    let cases = sweep(&World::new(), resumed);
    // Some 73 + 73 + 37 token bytes, two mutants each.
    assert!(cases > 350, "{cases}");
}
