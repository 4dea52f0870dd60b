//! Golden pins: the digests the cross-commit golden tests hold an
//! artefact to, kept in one checked-in file instead of the test sources.
//!
//! `tests/golden.pins` has one pin per line — name, SHA-256 of the
//! artefact, artefact length in bytes, one space between — and `#`
//! comments. A golden test hashes what it built and calls [`check`];
//! the file is rewritten only by `scripts/repin.sh`, which runs the
//! same tests with `GRIDSEC_REPIN_OUT` set so that [`check`] records
//! instead of asserting, and prints the old → new table a reviewer
//! reads (DESIGN.md §11.6). The digest comes from the caller because
//! SHA-256 lives above this crate.

use std::io::Write as _;

/// The pins file, found from this crate's manifest at compile time.
const PINS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden.pins");

/// Set by `scripts/repin.sh` alone: the file [`check`] appends to.
const REPIN_OUT: &str = "GRIDSEC_REPIN_OUT";

/// Hold the artefact named `name` — `len` bytes hashing to `sha256` —
/// to its line in `tests/golden.pins`.
pub fn check(name: &str, sha256: [u8; 32], len: usize) {
    let hex: String = sha256.iter().map(|b| format!("{b:02x}")).collect();
    let got = format!("{name} {hex} {len}");
    if let Some(out) = std::env::var_os(REPIN_OUT) {
        // One `write` of one short line to an append-mode file: tests
        // running side by side cannot interleave.
        let mut out = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out)
            .expect("re-pin output opens");
        out.write_all(format!("{got}\n").as_bytes())
            .expect("re-pin output takes a line");
        return;
    }
    let pins = std::fs::read_to_string(PINS).unwrap_or_else(|e| panic!("{PINS}: {e}"));
    let want = pins
        .lines()
        .find(|line| line.split(' ').next() == Some(name))
        .unwrap_or_else(|| panic!("no pin named {name} in {PINS}; scripts/repin.sh adds it"));
    assert_eq!(
        got, want,
        "pin {name} moved (name, SHA-256, bytes). If the change is meant to move it, \
         scripts/repin.sh re-records every pin and prints the table to review"
    );
}
