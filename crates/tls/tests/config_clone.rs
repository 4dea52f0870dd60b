//! A `TlsConfig` clone — one per hello a handshake mill answers — shares
//! everything it holds and allocates nothing: the credential, the trust
//! and revocation stores and the Diffie–Hellman group with its `p`, `g`
//! and precomputation. Counted by a global allocator that tallies the
//! allocations of the calling thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gridsec_crypto::dh::DhGroup;
use gridsec_crypto::rng::ChaChaRng;
use gridsec_pki::ca::CertificateAuthority;
use gridsec_pki::name::DistinguishedName;
use gridsec_pki::store::TrustStore;
use gridsec_tls::handshake::TlsConfig;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// the tally is a const-initialised thread-local `Cell`, which neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

fn config() -> TlsConfig {
    let mut rng = ChaChaRng::from_seed_bytes(b"config clone");
    let dn = |s: &str| DistinguishedName::parse(s).unwrap();
    let ca = CertificateAuthority::create_root(&mut rng, dn("/O=T/CN=CA"), 512, 0, 1_000);
    let cred = ca.issue_identity(&mut rng, dn("/O=T/CN=A"), 512, 0, 1_000);
    let mut trust = TrustStore::new();
    trust.add_root(ca.certificate().clone());
    TlsConfig::new(cred, trust, 10)
}

#[test]
fn a_config_clone_allocates_nothing() {
    let config = config();
    // The group's fixed-base table, as a mill's pool builds it up front.
    config.group.precompute();
    for _ in 0..4 {
        let (n, clone) = allocations(|| config.clone());
        assert_eq!(n, 0, "allocations per TlsConfig clone");
        assert_eq!(clone.group.p, config.group.p);
        let (n, _) = allocations(|| config.group.clone());
        assert_eq!(n, 0, "allocations per DhGroup clone");
    }
    // The process-wide constant is handed out the same way.
    let (n, group) = allocations(DhGroup::test_group_256);
    assert_eq!(n, 0, "allocations per DhGroup::test_group_256");
    assert_eq!(group.g, config.group.g);
}
