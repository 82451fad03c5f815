//! Accelerator configuration (the paper's Section IV/V design point plus
//! the knobs its formulas parameterize over).
//!
//! Every model in this crate is built from an [`AcceleratorConfig`];
//! [`AcceleratorConfig::paper`] is the design point Tables I–II report.

use crate::error::HwSimError;

/// Configuration of the simulated accelerator.
///
/// The default is the paper's design point: 4 processing elements at
/// 200 MHz, 8-word memory/link parallelism, 32 modular multipliers for the
/// component-wise product, and a carry-recovery adder budgeted at 20 µs.
///
/// ```
/// use he_hwsim::AcceleratorConfig;
///
/// let cfg = AcceleratorConfig::paper();
/// assert_eq!(cfg.num_pes(), 4);
/// assert_eq!(cfg.clock_mhz(), 200.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AcceleratorConfig {
    num_pes: usize,
    clock_mhz: f64,
    link_words_per_cycle: usize,
    dot_product_multipliers: usize,
    carry_recovery_us: f64,
    include_pipeline_overheads: bool,
}

impl AcceleratorConfig {
    /// The paper's configuration (Section V).
    pub fn paper() -> AcceleratorConfig {
        AcceleratorConfig {
            num_pes: 4,
            clock_mhz: 200.0,
            link_words_per_cycle: 8,
            dot_product_multipliers: 32,
            carry_recovery_us: 20.0,
            include_pipeline_overheads: false,
        }
    }

    /// The first multi-board prototype (Section IV: "initially prototyped
    /// on a multi-board platform based on low-end devices (Altera
    /// Cyclone V)"): one PE per board, a slower fabric clock, and narrow
    /// off-chip links that can no longer hide communication behind
    /// computation.
    pub fn cyclone_prototype() -> AcceleratorConfig {
        AcceleratorConfig {
            num_pes: 4,
            clock_mhz: 100.0,
            link_words_per_cycle: 1, // serial off-chip transceivers
            dot_product_multipliers: 16,
            carry_recovery_us: 40.0,
            include_pipeline_overheads: false,
        }
    }

    /// Builder: sets the number of processing elements.
    ///
    /// # Errors
    ///
    /// Returns [`HwSimError::InvalidConfig`] unless `n` is a power of two in
    /// `[1, 64]` (the hypercube needs a power of two; the FFT decomposition
    /// gives at most 64-way stage parallelism).
    pub fn with_num_pes(mut self, n: usize) -> Result<AcceleratorConfig, HwSimError> {
        if !n.is_power_of_two() || n > 64 {
            return Err(HwSimError::InvalidConfig {
                reason: format!("num_pes must be a power of two in [1, 64], got {n}"),
            });
        }
        self.num_pes = n;
        Ok(self)
    }

    /// Builder: sets the clock frequency in MHz.
    ///
    /// # Errors
    ///
    /// Returns [`HwSimError::InvalidConfig`] for non-positive frequencies.
    pub fn with_clock_mhz(mut self, mhz: f64) -> Result<AcceleratorConfig, HwSimError> {
        #[allow(clippy::neg_cmp_op_on_partial_ord)] // rejects NaN too
        if !(mhz > 0.0) {
            return Err(HwSimError::InvalidConfig {
                reason: format!("clock must be positive, got {mhz}"),
            });
        }
        self.clock_mhz = mhz;
        Ok(self)
    }

    /// Builder: sets the hypercube link width in 64-bit words per cycle.
    ///
    /// # Errors
    ///
    /// Returns [`HwSimError::InvalidConfig`] if zero.
    pub fn with_link_words_per_cycle(mut self, w: usize) -> Result<AcceleratorConfig, HwSimError> {
        if w == 0 {
            return Err(HwSimError::InvalidConfig {
                reason: "link width must be at least one word per cycle".into(),
            });
        }
        self.link_words_per_cycle = w;
        Ok(self)
    }

    /// Builder: sets the number of modular multipliers available for the
    /// component-wise (dot-product) phase.
    ///
    /// # Errors
    ///
    /// Returns [`HwSimError::InvalidConfig`] if zero.
    pub fn with_dot_product_multipliers(
        mut self,
        n: usize,
    ) -> Result<AcceleratorConfig, HwSimError> {
        if n == 0 {
            return Err(HwSimError::InvalidConfig {
                reason: "at least one dot-product multiplier is required".into(),
            });
        }
        self.dot_product_multipliers = n;
        Ok(self)
    }

    /// Builder: enables modeling of pipeline fill/drain overheads (the
    /// paper's formulas ignore them; enabling this adds them to cycle
    /// counts).
    pub fn with_pipeline_overheads(mut self, enabled: bool) -> AcceleratorConfig {
        self.include_pipeline_overheads = enabled;
        self
    }

    /// Number of processing elements `P`.
    pub fn num_pes(&self) -> usize {
        self.num_pes
    }

    /// Clock frequency in MHz (200 in the paper).
    pub fn clock_mhz(&self) -> f64 {
        self.clock_mhz
    }

    /// Clock period in nanoseconds (`T_C = 5 ns` in the paper).
    pub fn clock_period_ns(&self) -> f64 {
        1_000.0 / self.clock_mhz
    }

    /// Hypercube link width in words per cycle.
    pub fn link_words_per_cycle(&self) -> usize {
        self.link_words_per_cycle
    }

    /// Modular multipliers available for the component-wise product.
    pub fn dot_product_multipliers(&self) -> usize {
        self.dot_product_multipliers
    }

    /// Budgeted carry-recovery time in microseconds (≈ 20 µs in the paper).
    pub fn carry_recovery_us(&self) -> f64 {
        self.carry_recovery_us
    }

    /// Whether pipeline fill/drain overheads are added to cycle counts.
    pub fn include_pipeline_overheads(&self) -> bool {
        self.include_pipeline_overheads
    }

    /// The hypercube dimension `d = log2(P)`.
    pub fn hypercube_dim(&self) -> u32 {
        self.num_pes.trailing_zeros()
    }
}

impl Default for AcceleratorConfig {
    fn default() -> AcceleratorConfig {
        AcceleratorConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let cfg = AcceleratorConfig::paper();
        assert_eq!(cfg.num_pes(), 4);
        assert_eq!(cfg.hypercube_dim(), 2);
        assert!((cfg.clock_period_ns() - 5.0).abs() < 1e-12);
        assert_eq!(cfg.link_words_per_cycle(), 8);
        assert_eq!(cfg.dot_product_multipliers(), 32);
        assert_eq!(cfg, AcceleratorConfig::default());
    }

    #[test]
    fn cyclone_prototype_is_slower_in_every_dimension() {
        let paper = AcceleratorConfig::paper();
        let proto = AcceleratorConfig::cyclone_prototype();
        assert!(proto.clock_mhz() < paper.clock_mhz());
        assert!(proto.link_words_per_cycle() < paper.link_words_per_cycle());
        assert!(proto.dot_product_multipliers() < paper.dot_product_multipliers());
    }

    #[test]
    fn builder_validation() {
        assert!(AcceleratorConfig::paper().with_num_pes(3).is_err());
        assert!(AcceleratorConfig::paper().with_num_pes(128).is_err());
        assert!(AcceleratorConfig::paper().with_num_pes(8).is_ok());
        assert!(AcceleratorConfig::paper().with_clock_mhz(0.0).is_err());
        assert!(AcceleratorConfig::paper().with_clock_mhz(-5.0).is_err());
        assert!(AcceleratorConfig::paper()
            .with_link_words_per_cycle(0)
            .is_err());
        assert!(AcceleratorConfig::paper()
            .with_dot_product_multipliers(0)
            .is_err());
    }

    #[test]
    fn builder_chains() {
        let cfg = AcceleratorConfig::paper()
            .with_num_pes(8)
            .unwrap()
            .with_clock_mhz(250.0)
            .unwrap()
            .with_pipeline_overheads(true);
        assert_eq!(cfg.num_pes(), 8);
        assert_eq!(cfg.hypercube_dim(), 3);
        assert!(cfg.include_pipeline_overheads());
        assert!((cfg.clock_period_ns() - 4.0).abs() < 1e-12);
    }
}
