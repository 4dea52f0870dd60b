//! The machine-speed reference: a fixed piece of the benchmark's own
//! work, read before every slice.
//!
//! The box this benchmark runs on is shared, and for minutes at a time
//! other tenants take a third of its instruction throughput away
//! (README, "Noise floor"): every workload then reads 1.3–1.5× slower
//! from the first slice of a run to the last, and nothing inside the
//! run can tell that state from a slower program. This kernel can: it
//! never changes — it calls nothing of the measured program, and later
//! changes may not edit the benchmark — so what it reads is the
//! machine. A run divides each segment's times by that segment's
//! reading relative to [`NOMINAL_S`], the reading of the quiet box.
//!
//! The kernel is throughput-bound on purpose. A latency-bound loop (one
//! dependent multiply chain) keeps its speed within 1 % through those
//! states and tracks nothing; loops with instruction-level parallelism
//! lose 1.3× (eight independent multiply chains) to 1.55× (hash-like
//! add-rotate-xor rounds), which brackets the workloads' 1.4–1.5×. It
//! runs one of each.

use std::hint::black_box;
use std::time::Instant;

/// What [`read`] returns on the quiet box the benchmark was written on;
/// on another machine the factor is another constant, which leaves
/// every comparison between two versions of the program as it was.
pub const NOMINAL_S: f64 = 0.000_56;

const MUL_STEPS: u64 = 60_000;
const ARX_ROUNDS: u32 = 24_000;

/// Run the kernel once; seconds it took.
pub fn read() -> f64 {
    let t = Instant::now();

    // Eight independent multiply–xorshift chains.
    let mut lanes = [1u64, 2, 3, 4, 5, 6, 7, 8];
    for i in 0..MUL_STEPS {
        for (k, v) in lanes.iter_mut().enumerate() {
            *v = v
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(i ^ k as u64);
            *v ^= *v >> 29;
        }
    }

    // Add-rotate-xor quarter rounds over a 16-word state, columns then
    // diagonals: four independent quarter rounds at a time, each a chain.
    let mut s: [u32; 16] = core::array::from_fn(|i| 0x9E37_79B9u32.wrapping_mul(i as u32 + 1));
    let mut quarter = |a: usize, b: usize, c: usize, d: usize| {
        s[a] = s[a].wrapping_add(s[b]);
        s[d] = (s[d] ^ s[a]).rotate_left(16);
        s[c] = s[c].wrapping_add(s[d]);
        s[b] = (s[b] ^ s[c]).rotate_left(12);
        s[a] = s[a].wrapping_add(s[b]);
        s[d] = (s[d] ^ s[a]).rotate_left(8);
        s[c] = s[c].wrapping_add(s[d]);
        s[b] = (s[b] ^ s[c]).rotate_left(7);
    };
    for _ in 0..ARX_ROUNDS {
        quarter(0, 4, 8, 12);
        quarter(1, 5, 9, 13);
        quarter(2, 6, 10, 14);
        quarter(3, 7, 11, 15);
        quarter(0, 5, 10, 15);
        quarter(1, 6, 11, 12);
        quarter(2, 7, 8, 13);
        quarter(3, 4, 9, 14);
    }

    black_box((lanes, s));
    t.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_reading_is_about_half_a_millisecond_of_work() {
        let fastest = (0..20).map(|_| read()).fold(f64::INFINITY, f64::min);
        // Debug builds and other machines differ by a constant; this
        // only guards against the kernel being optimised away.
        assert!(fastest > NOMINAL_S / 50.0, "{fastest}");
    }
}
