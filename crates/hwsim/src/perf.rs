//! The analytic performance model of Section V.
//!
//! The paper derives, for `T_C = 5 ns` and `P = 4` processing elements:
//!
//! ```text
//! T_FFT     = 2·(T_C·8·1024)/P + (T_C·2)·4096/P = 20480 ns + 10240 ns ≈ 30.7 µs
//! T_DOTPROD = T_C·65536/32                      ≈ 10.2 µs
//! T_CARRY   ≈ 20 µs
//! T_MULT    = 3·T_FFT + T_DOTPROD + T_CARRY     ≈ 122 µs
//! ```
//!
//! [`PerfModel`] evaluates these formulas for any configuration; the cycle
//! simulation in [`crate::distributed`] must agree with it, and
//! `tests/paper_numbers.rs` asserts both against the paper's numbers.

use he_ntt::N64K;

use crate::config::AcceleratorConfig;

/// Cycles one FFT-64 needs on the unit (one transform every 8 cycles).
pub const FFT64_CYCLES: u64 = 8;

/// Cycles one FFT-16 needs on the unit (16 points at 8 words/cycle).
pub const FFT16_CYCLES: u64 = 2;

/// 64-point sub-transforms per radix-64 stage of the 64K plan.
pub const FFT64_PER_STAGE: u64 = 1024;

/// 16-point sub-transforms in the radix-16 stage of the 64K plan.
pub const FFT16_PER_STAGE: u64 = 4096;

/// Pipeline fill/drain overhead per computation stage, in cycles, when
/// [`AcceleratorConfig::include_pipeline_overheads`] is enabled
/// (shift + adder tree + merge + accumulate-readout + reductor stages).
pub const STAGE_PIPELINE_OVERHEAD: u64 = 24;

/// The analytic timing model.
///
/// ```
/// use he_hwsim::{perf::PerfModel, AcceleratorConfig};
///
/// let model = PerfModel::new(AcceleratorConfig::paper());
/// assert_eq!(model.fft_cycles(), 6144);
/// assert!((model.fft_us() - 30.72).abs() < 1e-9);
/// assert!((model.multiplication_us() - 122.4).abs() < 0.05);
/// ```
#[derive(Debug, Clone)]
pub struct PerfModel {
    config: AcceleratorConfig,
}

impl PerfModel {
    /// Builds the model for a configuration.
    pub fn new(config: AcceleratorConfig) -> PerfModel {
        PerfModel { config }
    }

    /// The configuration being modeled.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// Cycles for one computation stage of 1024 FFT-64s split across `P`
    /// PEs.
    pub fn stage64_cycles(&self) -> u64 {
        let base = FFT64_CYCLES * FFT64_PER_STAGE / self.config.num_pes() as u64;
        base + self.overhead()
    }

    /// Cycles for the radix-16 stage (4096 FFT-16s split across `P` PEs).
    pub fn stage16_cycles(&self) -> u64 {
        let base = FFT16_CYCLES * FFT16_PER_STAGE / self.config.num_pes() as u64;
        base + self.overhead()
    }

    /// Cycles a hypercube exchange takes: each PE sends half its local
    /// points to one neighbor.
    pub fn exchange_cycles(&self) -> u64 {
        let local_points = (N64K / self.config.num_pes()) as u64;
        (local_points / 2).div_ceil(self.config.link_words_per_cycle() as u64)
    }

    /// Whether communication is fully hidden behind computation
    /// (the double-buffering overlap of Section IV requires
    /// `exchange ≤ stage` cycles).
    pub fn communication_overlapped(&self) -> bool {
        self.exchange_cycles() <= self.stage64_cycles()
    }

    /// Total cycles for one 64K-point transform
    /// (`2 × stage64 + stage16`, with communication overlapped; any excess
    /// communication time is exposed).
    pub fn fft_cycles(&self) -> u64 {
        let exposed = self.exchange_cycles().saturating_sub(self.stage64_cycles());
        2 * self.stage64_cycles() + self.stage16_cycles() + 2 * exposed
    }

    /// `T_FFT` in microseconds.
    pub fn fft_us(&self) -> f64 {
        self.cycles_to_us(self.fft_cycles())
    }

    /// Cycles for the component-wise product of two 64K-point spectra.
    pub fn dot_product_cycles(&self) -> u64 {
        (N64K as u64).div_ceil(self.config.dot_product_multipliers() as u64)
    }

    /// `T_DOTPROD` in microseconds.
    pub fn dot_product_us(&self) -> f64 {
        self.cycles_to_us(self.dot_product_cycles())
    }

    /// Carry-recovery cycles (the paper budgets ≈ 20 µs for its ad-hoc
    /// adder structure).
    pub fn carry_recovery_cycles(&self) -> u64 {
        (self.config.carry_recovery_us() * 1000.0 / self.config.clock_period_ns()).round() as u64
    }

    /// Total cycles for one complete SSA multiplication
    /// (three transforms + dot product + carry recovery).
    pub fn multiplication_cycles(&self) -> u64 {
        3 * self.fft_cycles() + self.dot_product_cycles() + self.carry_recovery_cycles()
    }

    /// `T_MULT` in microseconds.
    pub fn multiplication_us(&self) -> f64 {
        self.cycles_to_us(self.multiplication_cycles())
    }

    /// Steady-state initiation interval for back-to-back multiplications,
    /// in cycles.
    ///
    /// The dot-product multipliers and the carry-recovery adder are
    /// separate resources from the FFT units, so under double buffering a
    /// stream of products is limited by the three transforms alone. The
    /// paper notes the headroom ("the unused resources might be used to
    /// achieve further performance improvements, although this was not
    /// exploited in this comparison"); this model quantifies it.
    pub fn pipelined_multiplication_cycles(&self) -> u64 {
        (3 * self.fft_cycles()).max(self.dot_product_cycles() + self.carry_recovery_cycles())
    }

    /// Steady-state multiplication throughput interval in microseconds.
    pub fn pipelined_multiplication_us(&self) -> f64 {
        self.cycles_to_us(self.pipelined_multiplication_cycles())
    }

    /// Cycles for a multiplication whose operands are partially held in the
    /// transform domain (`he_ssa`'s transform-caching API, after the
    /// paper's reference \[25\]): `fresh` forward transforms
    /// (2 = none cached, 1 = one spectrum cached, 0 = both cached) plus the
    /// inverse transform, dot product, and carry recovery.
    ///
    /// # Panics
    ///
    /// Panics if `fresh > 2`.
    pub fn cached_multiplication_cycles(&self, fresh: u64) -> u64 {
        assert!(fresh <= 2, "a product has at most two forward transforms");
        (fresh + 1) * self.fft_cycles() + self.dot_product_cycles() + self.carry_recovery_cycles()
    }

    /// [`PerfModel::cached_multiplication_cycles`] in microseconds.
    pub fn cached_multiplication_us(&self, fresh: u64) -> f64 {
        self.cycles_to_us(self.cached_multiplication_cycles(fresh))
    }

    /// Steady-state initiation interval for back-to-back multiplications
    /// whose operands are partially cached: `fresh + 1` transforms keep
    /// the FFT units busy per product (see
    /// [`PerfModel::cached_multiplication_cycles`]), while the dot
    /// product and carry recovery run on their own resources under
    /// double buffering — whichever is longer bounds the stream. With
    /// `fresh = 2` this is exactly
    /// [`PerfModel::pipelined_multiplication_cycles`]; the both-cached
    /// rung (`fresh = 0`) is the first point where the dot/carry
    /// resources, not the FFT units, can become the bottleneck.
    ///
    /// # Panics
    ///
    /// Panics if `fresh > 2`.
    pub fn pipelined_cached_multiplication_cycles(&self, fresh: u64) -> u64 {
        assert!(fresh <= 2, "a product has at most two forward transforms");
        ((fresh + 1) * self.fft_cycles())
            .max(self.dot_product_cycles() + self.carry_recovery_cycles())
    }

    /// [`PerfModel::pipelined_cached_multiplication_cycles`] in
    /// microseconds.
    pub fn pipelined_cached_multiplication_us(&self, fresh: u64) -> f64 {
        self.cycles_to_us(self.pipelined_cached_multiplication_cycles(fresh))
    }

    /// Cycles for a squaring: one forward transform (shared by both
    /// operands), pointwise squaring, inverse transform, carry recovery.
    pub fn squaring_cycles(&self) -> u64 {
        2 * self.fft_cycles() + self.dot_product_cycles() + self.carry_recovery_cycles()
    }

    /// `T_SQUARE` in microseconds.
    pub fn squaring_us(&self) -> f64 {
        self.cycles_to_us(self.squaring_cycles())
    }

    /// Converts cycles to microseconds at the configured clock.
    pub fn cycles_to_us(&self, cycles: u64) -> f64 {
        cycles as f64 * self.config.clock_period_ns() / 1000.0
    }

    fn overhead(&self) -> u64 {
        if self.config.include_pipeline_overheads() {
            STAGE_PIPELINE_OVERHEAD
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_operation_census() {
        // Eq. 2's hardware plan: two stages of 1024 FFT-64s and one of 4096
        // FFT-16s, each stage covering all 64K points once. (The third
        // figure of the census, 2·64K inter-stage twiddle multiplies, is
        // counted on a simulated run by `distributed::tests::twiddle_mul_census`.)
        assert_eq!(2 * FFT64_PER_STAGE, 2048);
        assert_eq!(FFT16_PER_STAGE, 4096);
        assert_eq!(FFT64_PER_STAGE * 64, N64K as u64);
        assert_eq!(FFT16_PER_STAGE * 16, N64K as u64);
    }

    #[test]
    fn paper_fft_time() {
        let m = PerfModel::new(AcceleratorConfig::paper());
        // 2·(8·1024)/4 = 4096 cycles = 20480 ns; (2·4096)/4 = 2048 = 10240 ns.
        assert_eq!(m.stage64_cycles(), 2048);
        assert_eq!(m.stage16_cycles(), 2048);
        assert_eq!(m.fft_cycles(), 6144);
        assert!((m.fft_us() - 30.72).abs() < 1e-9);
    }

    #[test]
    fn paper_dot_product_time() {
        let m = PerfModel::new(AcceleratorConfig::paper());
        assert_eq!(m.dot_product_cycles(), 2048);
        assert!((m.dot_product_us() - 10.24).abs() < 1e-9);
    }

    #[test]
    fn paper_total_multiplication_time() {
        let m = PerfModel::new(AcceleratorConfig::paper());
        // 3·30.72 + 10.24 + 20 = 122.4 µs — the paper reports ≈ 122 µs.
        assert!((m.multiplication_us() - 122.4).abs() < 1e-9);
    }

    #[test]
    fn communication_is_overlapped_at_paper_design_point() {
        let m = PerfModel::new(AcceleratorConfig::paper());
        // 8192 words at 8 words/cycle = 1024 cycles < 2048 compute cycles.
        assert_eq!(m.exchange_cycles(), 1024);
        assert!(m.communication_overlapped());
    }

    #[test]
    fn narrow_links_expose_communication() {
        let cfg = AcceleratorConfig::paper()
            .with_link_words_per_cycle(1)
            .unwrap();
        let m = PerfModel::new(cfg);
        // 8192 cycles of exchange vs 2048 of compute: 6144 exposed per
        // exchange, two exchanges.
        assert!(!m.communication_overlapped());
        assert_eq!(m.fft_cycles(), 6144 + 2 * (8192 - 2048));
    }

    #[test]
    fn scaling_with_pes() {
        for p in [1usize, 2, 4, 8, 16] {
            let cfg = AcceleratorConfig::paper().with_num_pes(p).unwrap();
            let m = PerfModel::new(cfg);
            assert_eq!(m.stage64_cycles(), 8 * 1024 / p as u64, "P = {p}");
        }
        // More PEs with the paper's link width: at P=16, compute shrinks to
        // 512 cycles but each PE still moves 2048 words = 256 cycles —
        // still overlapped.
        let m = PerfModel::new(AcceleratorConfig::paper().with_num_pes(16).unwrap());
        assert!(m.communication_overlapped());
    }

    #[test]
    fn pipeline_overheads_add_small_constant() {
        let base = PerfModel::new(AcceleratorConfig::paper());
        let with = PerfModel::new(AcceleratorConfig::paper().with_pipeline_overheads(true));
        assert_eq!(
            with.fft_cycles(),
            base.fft_cycles() + 3 * STAGE_PIPELINE_OVERHEAD
        );
        // The overhead changes the estimate by well under 2%.
        assert!((with.fft_us() - base.fft_us()) / base.fft_us() < 0.02);
    }

    #[test]
    fn carry_cycles_match_budget() {
        let m = PerfModel::new(AcceleratorConfig::paper());
        assert_eq!(m.carry_recovery_cycles(), 4000); // 20 µs at 5 ns
    }

    #[test]
    fn pipelined_throughput_hides_dot_and_carry() {
        let m = PerfModel::new(AcceleratorConfig::paper());
        // 3 × 6144 = 18432 cycles = 92.16 µs: the FFT units dominate.
        assert_eq!(m.pipelined_multiplication_cycles(), 18_432);
        assert!(m.pipelined_multiplication_us() < m.multiplication_us());
        assert!((m.pipelined_multiplication_us() - 92.16).abs() < 1e-9);
    }

    #[test]
    fn cached_transforms_ladder() {
        let m = PerfModel::new(AcceleratorConfig::paper());
        // fresh = 2 is exactly the plain multiplication.
        assert_eq!(m.cached_multiplication_cycles(2), m.multiplication_cycles());
        // fresh = 1 is exactly the squaring dataflow's transform count.
        assert_eq!(m.cached_multiplication_cycles(1), m.squaring_cycles());
        // Each cached spectrum saves one full T_FFT; both cached ≈ 61 µs.
        assert_eq!(
            m.cached_multiplication_cycles(2) - m.cached_multiplication_cycles(0),
            2 * m.fft_cycles()
        );
        assert!((m.cached_multiplication_us(0) - 60.96).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at most two forward transforms")]
    fn cached_transform_count_validated() {
        PerfModel::new(AcceleratorConfig::paper()).cached_multiplication_cycles(3);
    }

    #[test]
    fn pipelined_cached_ladder() {
        let m = PerfModel::new(AcceleratorConfig::paper());
        // fresh = 2 reduces to the plain pipelined interval.
        assert_eq!(
            m.pipelined_cached_multiplication_cycles(2),
            m.pipelined_multiplication_cycles()
        );
        // One-cached: 2 × 6144 = 12288 FFT cycles still beat
        // 2048 + 4000 = 6048 dot/carry cycles.
        assert_eq!(m.pipelined_cached_multiplication_cycles(1), 12_288);
        // Both-cached: one inverse transform (6144) still bounds the
        // paper design point, barely — the dot/carry chain is 6048.
        assert_eq!(m.pipelined_cached_multiplication_cycles(0), 6_144);
        assert!(m.pipelined_cached_multiplication_us(0) < m.pipelined_cached_multiplication_us(1));
    }

    #[test]
    fn squaring_saves_one_transform() {
        let m = PerfModel::new(AcceleratorConfig::paper());
        assert_eq!(
            m.multiplication_cycles() - m.squaring_cycles(),
            m.fft_cycles()
        );
        assert!((m.squaring_us() - 91.68).abs() < 1e-9);
    }
}
