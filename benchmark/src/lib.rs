//! `gridbench`: the fixed-work benchmark of the gridsec stack — five
//! workloads, one end-to-end result each, and a per-layer ledger taken
//! from outside the measured program. See `README.md`.

pub mod harness;
pub mod ledger;
pub mod probes;
pub mod reference;
pub mod span;
pub mod workloads;
