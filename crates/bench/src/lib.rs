//! Shared helpers for the reproduction harness (`he-bench`).
//!
//! `src/bin/repro_all.rs` regenerates the paper's tables and figures (the
//! "Paper crosswalk" table in `ARCHITECTURE.md` is the index); the software
//! product path is measured by `benchmark/`, not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use he_bigint::UBig;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Deterministic RNG used by the whole harness, so printed numbers are
/// reproducible run to run.
pub fn harness_rng() -> StdRng {
    StdRng::seed_from_u64(0xDA7E_2016)
}

/// A deterministic random operand of exactly `bits` bits.
pub fn operand(bits: usize, salt: u64) -> UBig {
    let mut rng = StdRng::seed_from_u64(0xDA7E_2016 ^ salt);
    UBig::random_bits(&mut rng, bits)
}

/// Prints a section header for harness output.
pub fn section(title: &str) {
    println!(
        "\n=== {title} {}",
        "=".repeat(68usize.saturating_sub(title.len()))
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operands_are_deterministic() {
        assert_eq!(operand(1000, 1), operand(1000, 1));
        assert_ne!(operand(1000, 1), operand(1000, 2));
        assert_eq!(operand(12_345, 3).bit_len(), 12_345);
    }
}
