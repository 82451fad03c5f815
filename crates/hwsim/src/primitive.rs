//! Cost model for complete DGHV encryption-scheme primitives running on
//! the accelerator.
//!
//! The paper accelerates "the most time consuming operation used by the
//! encryption primitive"; the related work it builds its comparison on
//! (\[32\], Cao et al.) pairs the FFT multiplier with a Barrett reduction
//! module to run the full Coron et al. encryption primitive. This module
//! prices the scheme-level operations in accelerator cycles:
//!
//! * **encrypt** — the subset sum `m + 2r + 2·Σ_{i∈S} x_i (mod x_0)` is
//!   additions only: each γ-bit addition streams through the PE adders at
//!   the memory bandwidth, with an incremental conditional subtraction of
//!   `x_0` keeping the accumulator bounded (no multiplication at all);
//! * **homomorphic XOR** — one γ-bit addition + conditional subtraction;
//! * **homomorphic AND** — one full 786,432-bit accelerator multiplication
//!   plus a Barrett reduction, itself two more near-γ-bit products (the
//!   `q_1·µ` and `q_3·x_0` steps) that reuse the same multiplier, plus
//!   adder passes for the final corrections.
//!
//! Functional correctness of the same operations is covered end-to-end by
//! `he-dghv` with the accelerator as multiplication backend
//! (`tests/accelerator_vs_software.rs`); this model adds the cycle
//! accounting.
//!
//! Serves ROADMAP item 3: AND = product + two Barrett products is the
//! model-side prediction for the share of a homomorphic multiply spent
//! reducing (`dghv.reduce_share`) once the reduction runs on the card.

use crate::config::AcceleratorConfig;
use crate::perf::PerfModel;

/// Bits the PE array can add per cycle (8 words × 64 bit per PE).
fn adder_bits_per_cycle(config: &AcceleratorConfig) -> u64 {
    (config.num_pes() * config.link_words_per_cycle() * 64) as u64
}

/// Cycle costs of DGHV primitives on the accelerator.
///
/// ```
/// use he_hwsim::{primitive::PrimitiveCosts, AcceleratorConfig};
///
/// let costs = PrimitiveCosts::new(AcceleratorConfig::paper(), 786_432, 572);
/// // One homomorphic AND = three accelerator multiplications.
/// assert!(costs.and_us() > 3.0 * 122.0);
/// // Encryption is multiplication-free, but its ~287 subset-sum additions
/// // still dominate a single AND at τ = 572.
/// assert!(costs.encrypt_us() < 4.0 * costs.and_us());
/// ```
#[derive(Debug, Clone)]
pub struct PrimitiveCosts {
    config: AcceleratorConfig,
    gamma_bits: u64,
    tau: u64,
}

impl PrimitiveCosts {
    /// Builds the model for ciphertexts of `gamma_bits` and `tau`
    /// public-key elements.
    pub fn new(config: AcceleratorConfig, gamma_bits: u64, tau: u64) -> PrimitiveCosts {
        PrimitiveCosts {
            config,
            gamma_bits,
            tau,
        }
    }

    /// The paper's workload: γ = 786,432, τ = 572 (the DGHV "small"
    /// setting).
    pub fn paper() -> PrimitiveCosts {
        PrimitiveCosts::new(AcceleratorConfig::paper(), 786_432, 572)
    }

    /// Cycles for one γ-bit addition (plus its conditional subtraction of
    /// `x_0`, which doubles the adder traffic).
    pub fn addition_cycles(&self) -> u64 {
        2 * self.gamma_bits.div_ceil(adder_bits_per_cycle(&self.config))
    }

    /// Cycles for one public-key encryption: on average `τ/2` subset
    /// additions, plus the noise/message add.
    pub fn encrypt_cycles(&self) -> u64 {
        (self.tau / 2 + 1) * self.addition_cycles()
    }

    /// Encryption time in microseconds.
    pub fn encrypt_us(&self) -> f64 {
        self.to_us(self.encrypt_cycles())
    }

    /// Cycles for a homomorphic XOR.
    pub fn xor_cycles(&self) -> u64 {
        self.addition_cycles()
    }

    /// Homomorphic XOR time in microseconds.
    pub fn xor_us(&self) -> f64 {
        self.to_us(self.xor_cycles())
    }

    /// Cycles for a homomorphic AND: the ciphertext product plus the
    /// Barrett reduction's two further products and its correction adds.
    pub fn and_cycles(&self) -> u64 {
        let model = PerfModel::new(self.config.clone());
        3 * model.multiplication_cycles() + 2 * self.addition_cycles()
    }

    /// Homomorphic AND time in microseconds.
    pub fn and_us(&self) -> f64 {
        self.to_us(self.and_cycles())
    }

    /// Renders the primitive-cost table.
    pub fn render(&self) -> String {
        format!(
            "DGHV PRIMITIVES ON THE ACCELERATOR (gamma = {} bits, tau = {})\n\
             {:<22} {:>10} cycles {:>10.1} us\n\
             {:<22} {:>10} cycles {:>10.1} us\n\
             {:<22} {:>10} cycles {:>10.1} us\n\
             (AND = ciphertext product + Barrett reduction = 3 accelerator\n\
              multiplications; encryption is multiplication-free)\n",
            self.gamma_bits,
            self.tau,
            "encrypt",
            self.encrypt_cycles(),
            self.encrypt_us(),
            "homomorphic XOR",
            self.xor_cycles(),
            self.xor_us(),
            "homomorphic AND",
            self.and_cycles(),
            self.and_us(),
        )
    }

    fn to_us(&self, cycles: u64) -> f64 {
        cycles as f64 * self.config.clock_period_ns() / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addition_streams_at_memory_bandwidth() {
        let costs = PrimitiveCosts::paper();
        // 786,432 bits at 2048 bits/cycle = 384 cycles, ×2 for the
        // conditional subtraction.
        assert_eq!(costs.addition_cycles(), 768);
    }

    #[test]
    fn encrypt_is_sub_millisecond() {
        let costs = PrimitiveCosts::paper();
        // 287 additions × 768 cycles ≈ 220K cycles ≈ 1.1 ms at 200 MHz.
        let us = costs.encrypt_us();
        assert!((500.0..2000.0).contains(&us), "encrypt {us} us");
        // Context: Gentry–Halevi encryption "takes more than one second
        // for encrypting a single bit on an Intel Xeon server" (Section
        // II) — the accelerated primitive is three orders faster.
        assert!(us < 1_000_000.0 / 500.0);
    }

    #[test]
    fn and_is_three_multiplications_plus_adds() {
        let costs = PrimitiveCosts::paper();
        let model = PerfModel::new(AcceleratorConfig::paper());
        assert_eq!(
            costs.and_cycles(),
            3 * model.multiplication_cycles() + 2 * 768
        );
        assert!((costs.and_us() - 374.88).abs() < 1.0);
    }

    #[test]
    fn xor_is_cheapest() {
        let costs = PrimitiveCosts::paper();
        assert!(costs.xor_cycles() < costs.encrypt_cycles());
        assert!(costs.encrypt_cycles() < costs.and_cycles() * 10);
    }

    #[test]
    fn render_has_all_rows() {
        let s = PrimitiveCosts::paper().render();
        for needle in ["encrypt", "homomorphic XOR", "homomorphic AND"] {
            assert!(s.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn scales_with_tau() {
        let small = PrimitiveCosts::new(AcceleratorConfig::paper(), 786_432, 100);
        let large = PrimitiveCosts::new(AcceleratorConfig::paper(), 786_432, 1000);
        assert!(small.encrypt_cycles() < large.encrypt_cycles());
        assert_eq!(small.and_cycles(), large.and_cycles());
    }
}
