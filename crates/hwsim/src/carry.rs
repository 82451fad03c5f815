//! The carry-recovery unit — Section V's "ad-hoc adder structure, not
//! described here due to the lack of space. Its maximum delay is
//! approximately 20 µs."
//!
//! After the inverse NTT, the 64K convolution coefficients (each up to
//! 64 bits wide) must be summed with 24-bit offsets:
//! `c = Σ_i c'_i · 2^{24·i}`. Each 64-bit output word overlaps with about
//! three coefficients, so the structure modeled here is:
//!
//! * **accumulation**: coefficients stream out of the PE buffers at
//!   [`CARRY_LANES`] words per cycle (both ports of the double buffer);
//!   each is added into a carry-save accumulation array at its bit offset;
//! * **resolution**: a final carry-propagate pass over the accumulation
//!   array, overlapped with the tail of the accumulation (carry-select
//!   blocks), adding a pipeline-drain term.
//!
//! At 16 lanes the unit takes `65536/16 = 4096` cycles ≈ 20.5 µs at
//! 200 MHz — the paper's ≈ 20 µs budget, now derived from structure rather
//! than asserted. The functional path is exercised against
//! [`he_ssa::recompose`].

use he_bigint::UBig;
use he_field::Fp;

/// Coefficient words consumed per cycle (two 8-word buffer ports).
pub const CARRY_LANES: usize = 16;

/// Pipeline-drain cycles of the final carry-propagate pass.
pub const RESOLVE_DRAIN_CYCLES: u64 = 64;

/// The carry-recovery adder model.
///
/// ```
/// use he_hwsim::carry::CarryRecoveryUnit;
///
/// let unit = CarryRecoveryUnit::paper();
/// // 65536 coefficients at 16 lanes/cycle + resolution drain.
/// assert_eq!(unit.cycles(65_536), 4096 + 64);
/// // ≈ 20.8 µs at 200 MHz — the paper's "approximately 20 µs".
/// assert!((unit.time_us(65_536, 5.0) - 20.8).abs() < 0.01);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct CarryRecoveryUnit {
    lanes: usize,
    coeff_bits: u32,
}

impl CarryRecoveryUnit {
    /// The paper's configuration: 16 lanes, 24-bit coefficient offsets.
    pub fn paper() -> CarryRecoveryUnit {
        CarryRecoveryUnit {
            lanes: CARRY_LANES,
            coeff_bits: 24,
        }
    }

    /// A unit with a custom lane count.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn with_lanes(lanes: usize, coeff_bits: u32) -> CarryRecoveryUnit {
        assert!(lanes > 0, "the unit needs at least one lane");
        CarryRecoveryUnit { lanes, coeff_bits }
    }

    /// Words consumed per cycle.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Cycles to recover the carries of `n_coefficients` coefficients.
    pub fn cycles(&self, n_coefficients: usize) -> u64 {
        (n_coefficients as u64).div_ceil(self.lanes as u64) + RESOLVE_DRAIN_CYCLES
    }

    /// Time in microseconds at the given clock period.
    pub fn time_us(&self, n_coefficients: usize, clock_period_ns: f64) -> f64 {
        self.cycles(n_coefficients) as f64 * clock_period_ns / 1000.0
    }

    /// Functional model: streams the coefficients through the modeled
    /// accumulate-then-resolve structure and returns the recovered integer.
    ///
    /// Matches [`he_ssa::recompose`] bit for bit (asserted in tests); the
    /// implementation mirrors the hardware: per-cycle groups of
    /// [`CarryRecoveryUnit::lanes`] coefficients are folded into a
    /// carry-save word array, then one propagate pass resolves it.
    pub fn recover(&self, coefficients: &[Fp]) -> UBig {
        let m = self.coeff_bits as usize;
        let total_bits = coefficients.len() * m + 128;
        let words = total_bits.div_ceil(64) + 1;
        // Carry-save accumulation array: per word, the 64-bit partial sum
        // and the deferred carries into the next word.
        let mut sum = vec![0u64; words];
        let mut pending = vec![0u128; words]; // carries into word w+1

        for (group_idx, cycle_group) in coefficients.chunks(self.lanes).enumerate() {
            for (lane, &c) in cycle_group.iter().enumerate() {
                let v = c.as_u64();
                if v == 0 {
                    continue;
                }
                let bit_pos = (group_idx * self.lanes + lane) * m;
                let word = bit_pos / 64;
                let off = (bit_pos % 64) as u32;
                let wide = (v as u128) << off;
                let (s0, carry0) = sum[word].overflowing_add(wide as u64);
                sum[word] = s0;
                pending[word] += (wide >> 64) + carry0 as u128;
            }
        }

        // Resolution pass: propagate the pending carries once; any ripple
        // beyond a word is folded immediately (carry-select behaviour).
        let mut carry = 0u128;
        for w in 0..words {
            let t = sum[w] as u128 + carry;
            sum[w] = t as u64;
            carry = (t >> 64) + pending[w];
        }
        debug_assert_eq!(carry, 0, "accumulator sized to absorb all carries");
        UBig::from_limbs(sum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use he_ssa::recompose;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn paper_timing_is_about_20_us() {
        let unit = CarryRecoveryUnit::paper();
        let us = unit.time_us(65_536, 5.0);
        assert!((19.0..=21.0).contains(&us), "got {us}");
    }

    #[test]
    fn functional_matches_recompose_random() {
        let mut rng = StdRng::seed_from_u64(31);
        let unit = CarryRecoveryUnit::paper();
        for len in [1usize, 16, 17, 100, 4096] {
            let coeffs: Vec<Fp> = (0..len).map(|_| Fp::new(rng.gen())).collect();
            assert_eq!(unit.recover(&coeffs), recompose(&coeffs, 24), "len = {len}");
        }
    }

    #[test]
    fn functional_matches_recompose_adversarial() {
        // All-max coefficients force maximal carry ripple.
        let unit = CarryRecoveryUnit::paper();
        let coeffs = vec![Fp::new(u64::MAX >> 1); 300];
        assert_eq!(unit.recover(&coeffs), recompose(&coeffs, 24));
        // All zeros.
        let zeros = vec![Fp::ZERO; 64];
        assert!(unit.recover(&zeros).is_zero());
    }

    #[test]
    fn lane_scaling() {
        let fast = CarryRecoveryUnit::with_lanes(32, 24);
        let slow = CarryRecoveryUnit::with_lanes(8, 24);
        assert!(fast.cycles(65_536) < CarryRecoveryUnit::paper().cycles(65_536));
        assert!(slow.cycles(65_536) > CarryRecoveryUnit::paper().cycles(65_536));
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lanes_rejected() {
        let _ = CarryRecoveryUnit::with_lanes(0, 24);
    }
}
