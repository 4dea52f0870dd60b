//! A minimal property-based testing harness.
//!
//! Replaces the workspace's former `proptest` dependency with the three
//! features its tests actually used:
//!
//! * **Seeded case generation** — every case derives deterministically
//!   from the property name and the case index, so runs are reproducible
//!   across machines and `cargo test` invocations.
//! * **Failing-seed reporting** — a failure prints the exact case seed
//!   and a one-line environment recipe to replay just that case.
//! * **Shrinking by iteration replay** — the failing case seed is
//!   replayed under progressively smaller *size caps* (which clamp every
//!   ranged draw toward its minimum), and the smallest still-failing cap
//!   is reported alongside the original failure.
//!
//! Usage:
//!
//! ```
//! use gridsec_util::check::check;
//! check("addition_commutes", 256, |g| {
//!     let (a, b) = (g.u64() >> 1, g.u64() >> 1);
//!     assert_eq!(a + b, b + a);
//! });
//! ```
//!
//! Environment knobs: `GRIDSEC_PT_CASES` overrides the case count for all
//! properties; `GRIDSEC_PT_SEED` (with optional `GRIDSEC_PT_CAP`) replays
//! one exact case.

use crate::rng::{DetRng, RngCore};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Per-case random value generator handed to property closures.
pub struct Gen {
    rng: DetRng,
    /// When set (during shrink replays), every ranged draw is clamped to
    /// at most `min + cap`, pulling collection lengths and magnitudes
    /// toward their minimum.
    cap: Option<usize>,
}

impl Gen {
    fn new(seed: u64, cap: Option<usize>) -> Self {
        Gen {
            rng: DetRng::seed_from_u64(seed),
            cap,
        }
    }

    /// Uniform random `u8` (full width; not affected by the shrink cap).
    pub fn u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.rng.fill_bytes(&mut b);
        b[0]
    }

    /// Uniform random `u16`.
    pub fn u16(&mut self) -> u16 {
        self.rng.next_u32() as u16
    }

    /// Uniform random `u64`.
    pub fn u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// Uniform random `bool`.
    pub fn bool(&mut self) -> bool {
        self.rng.next_u32() & 1 == 1
    }

    /// Uniform random `f64` in `[0, 1)`.
    pub fn f64_unit(&mut self) -> f64 {
        (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn ranged(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range in generator: {lo}..{hi}");
        let mut span = hi - lo;
        if let Some(cap) = self.cap {
            span = span.min(cap as u64 + 1);
        }
        lo + self.rng.next_u64() % span
    }

    /// Uniform `usize` in `range` (shrink cap clamps toward the minimum).
    pub fn usize_in(&mut self, range: Range<usize>) -> usize {
        self.ranged(range.start as u64, range.end as u64) as usize
    }

    /// Uniform `u64` in `range`.
    pub fn u64_in(&mut self, range: Range<u64>) -> u64 {
        self.ranged(range.start, range.end)
    }

    /// Uniform `u32` in `range`.
    pub fn u32_in(&mut self, range: Range<u32>) -> u32 {
        self.ranged(range.start as u64, range.end as u64) as u32
    }

    /// Uniform `u8` in `range`.
    pub fn u8_in(&mut self, range: Range<u8>) -> u8 {
        self.ranged(range.start as u64, range.end as u64) as u8
    }

    /// Uniform branch index in `0..n` (for one-of choices; uncapped so a
    /// shrink replay can still reach every branch).
    pub fn pick(&mut self, n: usize) -> usize {
        assert!(n > 0, "pick from empty branch set");
        (self.rng.next_u64() % n as u64) as usize
    }

    /// Pick one element of a non-empty slice.
    pub fn choice<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.pick(items.len())]
    }

    /// Random byte vector with length drawn from `len`.
    pub fn bytes(&mut self, len: Range<usize>) -> Vec<u8> {
        let n = self.usize_in(len);
        let mut out = vec![0u8; n];
        self.rng.fill_bytes(&mut out);
        out
    }

    /// Fixed-size random byte array.
    pub fn byte_array<const N: usize>(&mut self) -> [u8; N] {
        let mut out = [0u8; N];
        self.rng.fill_bytes(&mut out);
        out
    }

    /// Vector with length drawn from `len`, elements from `f`.
    pub fn vec<T>(&mut self, len: Range<usize>, mut f: impl FnMut(&mut Self) -> T) -> Vec<T> {
        let n = self.usize_in(len);
        (0..n).map(|_| f(self)).collect()
    }

    /// One char drawn uniformly from `charset`.
    pub fn char_from(&mut self, charset: &str) -> char {
        let chars: Vec<char> = charset.chars().collect();
        *self.choice(&chars)
    }

    /// String of chars from `charset`, length drawn from `len`.
    pub fn string(&mut self, charset: &str, len: Range<usize>) -> String {
        let chars: Vec<char> = charset.chars().collect();
        let n = self.usize_in(len);
        (0..n).map(|_| *self.choice(&chars)).collect()
    }

    /// Printable-ASCII string (the `[ -~]` class), length drawn from `len`.
    pub fn printable_string(&mut self, len: Range<usize>) -> String {
        let n = self.usize_in(len);
        (0..n).map(|_| self.u8_in(0x20..0x7f) as char).collect()
    }
}

fn fnv64(data: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in data.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn mix(base: u64, i: u64) -> u64 {
    let mut z = base ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

fn run_case(f: &impl Fn(&mut Gen), seed: u64, cap: Option<usize>) -> Result<(), String> {
    let mut g = Gen::new(seed, cap);
    catch_unwind(AssertUnwindSafe(|| f(&mut g))).map_err(panic_message)
}

/// Shrink by iteration replay: rerun the failing seed under ascending
/// size caps; return the smallest cap that still fails (with its
/// message), if any cap below "unbounded" reproduces the failure.
fn shrink(f: &impl Fn(&mut Gen), seed: u64) -> Option<(usize, String)> {
    const CAPS: [usize; 12] = [0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64];
    for cap in CAPS {
        if let Err(msg) = run_case(f, seed, Some(cap)) {
            return Some((cap, msg));
        }
    }
    None
}

/// Run `property` for `cases` seeded cases; panic with a replayable
/// report on the first failure.
pub fn check(name: &str, cases: u64, property: impl Fn(&mut Gen)) {
    let cases = std::env::var("GRIDSEC_PT_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(cases);
    let cap_override = std::env::var("GRIDSEC_PT_CAP")
        .ok()
        .and_then(|v| v.parse().ok());

    // Exact-case replay mode.
    if let Ok(seed_var) = std::env::var("GRIDSEC_PT_SEED") {
        let seed = seed_var
            .strip_prefix("0x")
            .map(|h| u64::from_str_radix(h, 16).expect("bad hex GRIDSEC_PT_SEED"))
            .unwrap_or_else(|| seed_var.parse().expect("bad GRIDSEC_PT_SEED"));
        if let Err(msg) = run_case(&property, seed, cap_override) {
            panic!("property '{name}' failed on replayed seed {seed:#x}: {msg}");
        }
        return;
    }

    let base = fnv64(name);
    for i in 0..cases {
        let seed = mix(base, i);
        if let Err(msg) = run_case(&property, seed, cap_override) {
            let shrunk = shrink(&property, seed);
            let (cap_note, final_msg) = match shrunk {
                Some((cap, small_msg)) => (
                    format!(" Shrunk: still fails with size cap {cap} (GRIDSEC_PT_CAP={cap})."),
                    small_msg,
                ),
                None => (String::new(), msg),
            };
            panic!(
                "property '{name}' failed at case {i}/{cases} (seed {seed:#x}).{cap_note} \
                 Replay with: GRIDSEC_PT_SEED={seed:#x} cargo test ... \
                 Failure: {final_msg}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let mut n = 0u64;
        check("count_cases", 50, |_g| {});
        // The closure above can't count (Fn, not FnMut); count via a cell.
        let counter = std::cell::Cell::new(0u64);
        check("count_cases_cell", 50, |_g| counter.set(counter.get() + 1));
        n += counter.get();
        assert_eq!(n, 50);
    }

    #[test]
    fn cases_are_deterministic_per_name() {
        let a = std::cell::RefCell::new(Vec::new());
        check("det", 10, |g| a.borrow_mut().push(g.u64()));
        let b = std::cell::RefCell::new(Vec::new());
        check("det", 10, |g| b.borrow_mut().push(g.u64()));
        assert_eq!(*a.borrow(), *b.borrow());
        let c = std::cell::RefCell::new(Vec::new());
        check("det2", 10, |g| c.borrow_mut().push(g.u64()));
        assert_ne!(*a.borrow(), *c.borrow());
    }

    #[test]
    fn failing_property_reports_seed_and_shrinks() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            check("always_fails", 10, |g| {
                let v = g.bytes(0..64);
                assert!(v.len() > 1000, "boom");
            })
        }));
        let msg = panic_message(result.unwrap_err());
        assert!(msg.contains("always_fails"), "{msg}");
        assert!(msg.contains("GRIDSEC_PT_SEED="), "{msg}");
        // The failure reproduces at the minimum size, so the shrinker
        // must report cap 0.
        assert!(msg.contains("GRIDSEC_PT_CAP=0"), "{msg}");
    }

    #[test]
    fn ranged_draws_respect_bounds() {
        check("ranged_bounds", 200, |g| {
            let v = g.usize_in(3..17);
            assert!((3..17).contains(&v));
            let b = g.u8_in(1..5);
            assert!((1..5).contains(&b));
            let f = g.f64_unit();
            assert!((0.0..1.0).contains(&f));
            let s = g.string("abc", 2..5);
            assert!(s.len() >= 2 && s.len() < 5);
            assert!(s.chars().all(|c| "abc".contains(c)));
        });
    }

    #[test]
    fn cap_clamps_ranged_draws_to_minimum() {
        let mut g = Gen::new(1234, Some(0));
        for _ in 0..50 {
            assert_eq!(g.usize_in(5..100), 5);
            assert!(g.bytes(0..64).is_empty());
        }
        let mut g = Gen::new(1234, Some(2));
        for _ in 0..50 {
            assert!(g.usize_in(5..100) <= 7);
        }
    }
}
