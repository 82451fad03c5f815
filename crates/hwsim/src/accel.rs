//! Whole-accelerator simulation: a complete 786,432-bit multiplication on
//! the modeled hardware.
//!
//! The dataflow is the paper's Section V accounting: two forward 64K
//! transforms (one per operand), a component-wise product on the modular
//! multipliers, one inverse transform, and the final carry-recovery
//! addition. Every transform runs on the distributed PE-array model
//! ([`crate::distributed`]), so the product is computed bit-exactly by the
//! simulated datapath while cycles are accounted per the architecture.
//!
//! Reproduces the "proposed" column of Table II (cross-checked against
//! [`crate::perf`] in `tests/paper_numbers.rs`); called by
//! `he_accel::HardwareSim`, the accelerator behind the `Multiplier` trait.

use he_bigint::UBig;
use he_field::Fp;
use he_ntt::N64K;
use he_ssa::{decompose, SsaParams};

use crate::batch::{schedule_batch, BatchReport, HwJob, PreparedOperand};
use crate::carry::CarryRecoveryUnit;
use crate::config::AcceleratorConfig;
use crate::distributed::{DistributedNtt, NttRunReport};
use crate::error::HwSimError;
use crate::modmul::DspModMul;
use crate::perf::PerfModel;

/// Timing breakdown of one simulated multiplication.
#[derive(Debug, Clone)]
pub struct MultiplyReport {
    /// Reports of the three 64K transforms (forward a, forward b, inverse).
    pub fft_reports: [NttRunReport; 3],
    /// Cycles of the component-wise product phase.
    pub dot_product_cycles: u64,
    /// Cycles of the carry-recovery phase.
    pub carry_recovery_cycles: u64,
    /// Clock period used for time conversion (ns).
    pub clock_period_ns: f64,
}

impl MultiplyReport {
    /// Total cycles of the multiplication.
    pub fn total_cycles(&self) -> u64 {
        self.fft_reports
            .iter()
            .map(NttRunReport::total_cycles)
            .sum::<u64>()
            + self.dot_product_cycles
            + self.carry_recovery_cycles
    }

    /// Total time in microseconds.
    pub fn total_us(&self) -> f64 {
        self.total_cycles() as f64 * self.clock_period_ns / 1000.0
    }

    /// Time of one 64K transform in microseconds.
    pub fn fft_us(&self) -> f64 {
        self.fft_reports[0].total_cycles() as f64 * self.clock_period_ns / 1000.0
    }

    /// Renders a breakdown table.
    pub fn render(&self) -> String {
        let us = |c: u64| c as f64 * self.clock_period_ns / 1000.0;
        let fft: u64 = self
            .fft_reports
            .iter()
            .map(NttRunReport::total_cycles)
            .sum();
        format!(
            "multiplication breakdown @ {:.0} MHz\n  3 x 64K NTT     {:>8} cycles  {:>8.2} us\n  dot product     {:>8} cycles  {:>8.2} us\n  carry recovery  {:>8} cycles  {:>8.2} us\n  total           {:>8} cycles  {:>8.2} us\n",
            1000.0 / self.clock_period_ns,
            fft,
            us(fft),
            self.dot_product_cycles,
            us(self.dot_product_cycles),
            self.carry_recovery_cycles,
            us(self.carry_recovery_cycles),
            self.total_cycles(),
            self.total_us(),
        )
    }
}

/// The simulated accelerator.
///
/// ```
/// use he_bigint::UBig;
/// use he_hwsim::accel::AcceleratorSim;
///
/// let sim = AcceleratorSim::paper();
/// let (product, report) = sim.multiply(&UBig::from(6u64), &UBig::from(7u64))?;
/// assert_eq!(product, UBig::from(42u64));
/// assert_eq!(report.total_cycles(), 24_480); // 122.4 µs at 200 MHz
/// # Ok::<(), he_hwsim::HwSimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AcceleratorSim {
    config: AcceleratorConfig,
    dist: DistributedNtt,
    params: SsaParams,
    modmul: DspModMul,
    carry_unit: CarryRecoveryUnit,
}

impl AcceleratorSim {
    /// The paper's accelerator: 4 PEs, 200 MHz, 24-bit coefficients,
    /// 64K-point transforms.
    pub fn paper() -> AcceleratorSim {
        AcceleratorSim::new(AcceleratorConfig::paper()).expect("paper config is valid")
    }

    /// An accelerator with a custom configuration.
    ///
    /// # Errors
    ///
    /// Returns [`HwSimError::InvalidConfig`] for unsupported PE counts.
    pub fn new(config: AcceleratorConfig) -> Result<AcceleratorSim, HwSimError> {
        let dist = DistributedNtt::new(config.clone())?;
        Ok(AcceleratorSim {
            config,
            dist,
            params: SsaParams::paper(),
            modmul: DspModMul::new(),
            carry_unit: CarryRecoveryUnit::paper(),
        })
    }

    /// The carry-recovery unit model.
    pub fn carry_unit(&self) -> &CarryRecoveryUnit {
        &self.carry_unit
    }

    /// The configuration in use.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// The SSA parameters (the paper's `m = 24`, `N = 64K`).
    pub fn params(&self) -> SsaParams {
        self.params
    }

    /// Multiplies two integers on the simulated hardware.
    ///
    /// # Errors
    ///
    /// Returns [`HwSimError::Ssa`] if the operands exceed the 786,432-bit
    /// capacity.
    pub fn multiply(&self, a: &UBig, b: &UBig) -> Result<(UBig, MultiplyReport), HwSimError> {
        let n = self.params.n_points();
        let ca = self.params.coeff_count(a.bit_len());
        let cb = self.params.coeff_count(b.bit_len());
        if ca + cb.max(1) - 1 > n || ca.max(cb) > n {
            return Err(HwSimError::Ssa(he_ssa::SsaError::OperandTooLarge {
                bits: a.bit_len() + b.bit_len(),
                max_bits: 2 * self.params.max_operand_bits(),
            }));
        }
        let m = self.params.coeff_bits();

        // Host side: operand decomposition (the accelerator receives
        // coefficient vectors).
        let av = decompose(a, m, n);
        let bv = decompose(b, m, n);

        // Two forward transforms on the PE array.
        let (fa, r1) = self.dist.forward(&av);
        let (fb, r2) = self.dist.forward(&bv);

        // Component-wise product on the modular multipliers ("the remaining
        // resources can accommodate at least 32 additional modular
        // multipliers for component-wise multiplication").
        let fc: Vec<_> = fa
            .iter()
            .zip(&fb)
            .map(|(&x, &y)| self.modmul.multiply(x, y))
            .collect();
        let dot_cycles = (N64K as u64).div_ceil(self.config.dot_product_multipliers() as u64);

        // Inverse transform.
        let (cv, r3) = self.dist.inverse(&fc);

        // Carry recovery on the modeled adder structure.
        let product = self.carry_unit.recover(&cv);
        let model = PerfModel::new(self.config.clone());
        let report = MultiplyReport {
            fft_reports: [r1, r2, r3],
            dot_product_cycles: dot_cycles,
            carry_recovery_cycles: model.carry_recovery_cycles(),
            clock_period_ns: self.config.clock_period_ns(),
        };
        Ok((product, report))
    }

    /// Pushes an operand through a forward 64K transform on the PE array
    /// and returns the resident spectrum, ready for reuse across many
    /// products (the cached-transform optimization the paper's
    /// related-work section adopts from its reference \[25\]).
    ///
    /// # Errors
    ///
    /// Returns [`HwSimError::Ssa`] if the operand alone exceeds the
    /// transform length; products additionally enforce the wrap-around
    /// bound at multiplication time.
    pub fn prepare(&self, a: &UBig) -> Result<(PreparedOperand, NttRunReport), HwSimError> {
        let n = self.params.n_points();
        // bit_len() is 0 for the zero operand, so coeff_count covers it.
        let ca = self.params.coeff_count(a.bit_len());
        if ca > n {
            return Err(HwSimError::Ssa(he_ssa::SsaError::OperandTooLarge {
                bits: a.bit_len(),
                // A lone operand may fill all N coefficients (twice the
                // per-operand product bound); report the limit actually
                // enforced here.
                max_bits: n * self.params.coeff_bits() as usize,
            }));
        }
        let av = decompose(a, self.params.coeff_bits(), n);
        let (spectrum, report) = self.dist.forward(&av);
        Ok((
            PreparedOperand {
                spectrum,
                coeff_count: ca,
            },
            report,
        ))
    }

    /// Multiplies two resident spectra: dot product + one inverse
    /// transform — zero fresh forward transforms. Returns the product and
    /// the modeled cycles ([`PerfModel::cached_multiplication_cycles`]
    /// with `fresh = 0`, ≈ 61 µs at the paper's design point).
    ///
    /// # Errors
    ///
    /// Returns [`HwSimError::Ssa`] if the acyclic product would wrap the
    /// cyclic transform.
    pub fn multiply_prepared(
        &self,
        a: &PreparedOperand,
        b: &PreparedOperand,
    ) -> Result<(UBig, u64), HwSimError> {
        self.check_prepared_capacity(a.coeff_count, b.coeff_count)?;
        let product = self.dot_inverse_recover(&a.spectrum, &b.spectrum);
        let cycles = PerfModel::new(self.config.clone()).cached_multiplication_cycles(0);
        Ok((product, cycles))
    }

    /// Multiplies a resident spectrum by a fresh integer: one forward
    /// transform, dot product, inverse transform. Returns the product and
    /// the modeled cycles (`fresh = 1` — the squaring dataflow's count).
    ///
    /// # Errors
    ///
    /// Returns [`HwSimError::Ssa`] if the acyclic product would wrap the
    /// cyclic transform.
    pub fn multiply_one_prepared(
        &self,
        a: &PreparedOperand,
        b: &UBig,
    ) -> Result<(UBig, u64), HwSimError> {
        let cb = self.params.coeff_count(b.bit_len());
        self.check_prepared_capacity(a.coeff_count, cb)?;
        let bv = decompose(b, self.params.coeff_bits(), self.params.n_points());
        let (fb, _) = self.dist.forward(&bv);
        let product = self.dot_inverse_recover(&a.spectrum, &fb);
        let cycles = PerfModel::new(self.config.clone()).cached_multiplication_cycles(1);
        Ok((product, cycles))
    }

    /// Runs a batch of multiplications as a pipelined instruction stream.
    ///
    /// Products are computed bit-exactly on the simulated datapath and
    /// returned in job order; the [`BatchReport`] schedules the jobs over
    /// the FFT array, dot-product multipliers and carry-recovery adder
    /// with per-job transform counts from the cached-multiplication
    /// accounting, so recurring operands shorten both the makespan and
    /// the per-product cost.
    ///
    /// # Errors
    ///
    /// Returns [`HwSimError::Ssa`] from the first failing job (capacity
    /// violations).
    pub fn multiply_batch(
        &self,
        jobs: &[HwJob<'_>],
    ) -> Result<(Vec<UBig>, BatchReport), HwSimError> {
        let mut products = Vec::with_capacity(jobs.len());
        let mut fresh = Vec::with_capacity(jobs.len());
        for job in jobs {
            let product = match job {
                HwJob::BothPrepared(a, b) => self.multiply_prepared(a, b)?.0,
                HwJob::OnePrepared(a, b) => self.multiply_one_prepared(a, b)?.0,
                HwJob::Raw(a, b) => self.multiply(a, b)?.0,
            };
            products.push(product);
            fresh.push(job.fresh_transforms());
        }
        Ok((products, schedule_batch(&self.config, &fresh)))
    }

    /// The shared tail of every product: component-wise multiplication on
    /// the DSP modular multipliers, the inverse transform on the PE array,
    /// and carry recovery on the modeled adder.
    fn dot_inverse_recover(&self, fa: &[Fp], fb: &[Fp]) -> UBig {
        let fc: Vec<_> = fa
            .iter()
            .zip(fb)
            .map(|(&x, &y)| self.modmul.multiply(x, y))
            .collect();
        let (cv, _) = self.dist.inverse(&fc);
        self.carry_unit.recover(&cv)
    }

    fn check_prepared_capacity(&self, ca: usize, cb: usize) -> Result<(), HwSimError> {
        let n = self.params.n_points();
        if ca + cb.max(1) - 1 > n || ca.max(cb) > n {
            return Err(HwSimError::Ssa(he_ssa::SsaError::OperandTooLarge {
                bits: (ca + cb) * self.params.coeff_bits() as usize,
                max_bits: 2 * self.params.max_operand_bits(),
            }));
        }
        Ok(())
    }

    /// Squares an integer on the simulated hardware with only two
    /// transforms: the forward spectrum is reused for both operands
    /// (see [`PerfModel::squaring_cycles`]).
    ///
    /// # Errors
    ///
    /// Returns [`HwSimError::Ssa`] if the square would exceed the
    /// transform capacity.
    pub fn square(&self, a: &UBig) -> Result<(UBig, u64), HwSimError> {
        let n = self.params.n_points();
        let ca = self.params.coeff_count(a.bit_len());
        if a.is_zero() {
            return Ok((UBig::zero(), 0));
        }
        if 2 * ca - 1 > n {
            return Err(HwSimError::Ssa(he_ssa::SsaError::OperandTooLarge {
                bits: 2 * a.bit_len(),
                max_bits: 2 * self.params.max_operand_bits(),
            }));
        }
        let m = self.params.coeff_bits();
        let av = decompose(a, m, n);
        let (fa, _) = self.dist.forward(&av);
        let squared: Vec<_> = fa.iter().map(|&x| self.modmul.multiply(x, x)).collect();
        let (cv, _) = self.dist.inverse(&squared);
        let product = self.carry_unit.recover(&cv);
        let cycles = PerfModel::new(self.config.clone()).squaring_cycles();
        Ok((product, cycles))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn small_products_are_exact() {
        let sim = AcceleratorSim::paper();
        let (p, _) = sim
            .multiply(&UBig::from(12345u64), &UBig::from(67890u64))
            .unwrap();
        assert_eq!(p, UBig::from(12345u64 as u128 * 67890u64 as u128));
    }

    #[test]
    fn zero_operands() {
        let sim = AcceleratorSim::paper();
        let (p, _) = sim.multiply(&UBig::zero(), &UBig::from(5u64)).unwrap();
        assert!(p.is_zero());
    }

    #[test]
    fn paper_scale_product_matches_software() {
        let mut rng = StdRng::seed_from_u64(2016);
        let sim = AcceleratorSim::paper();
        let a = UBig::random_bits(&mut rng, he_ssa::PAPER_OPERAND_BITS);
        let b = UBig::random_bits(&mut rng, he_ssa::PAPER_OPERAND_BITS);
        let (p, report) = sim.multiply(&a, &b).unwrap();
        assert_eq!(p, a.mul_karatsuba(&b));
        // And the timing reproduces the paper's ≈122 µs.
        assert!(
            (report.total_us() - 122.4).abs() < 1e-9,
            "got {}",
            report.total_us()
        );
    }

    #[test]
    fn report_matches_analytic_model() {
        let sim = AcceleratorSim::paper();
        let (_, report) = sim.multiply(&UBig::from(3u64), &UBig::from(4u64)).unwrap();
        let model = PerfModel::new(AcceleratorConfig::paper());
        assert_eq!(report.total_cycles(), model.multiplication_cycles());
        assert_eq!(report.fft_reports[0].total_cycles(), model.fft_cycles());
        assert_eq!(report.dot_product_cycles, model.dot_product_cycles());
        assert!((report.fft_us() - 30.72).abs() < 1e-9);
    }

    #[test]
    fn oversized_operands_rejected() {
        let sim = AcceleratorSim::paper();
        let too_big = UBig::pow2(800_000);
        assert!(matches!(
            sim.multiply(&too_big, &too_big),
            Err(HwSimError::Ssa(_))
        ));
    }

    #[test]
    fn squaring_matches_multiplication_with_fewer_cycles() {
        let mut rng = StdRng::seed_from_u64(41);
        let sim = AcceleratorSim::paper();
        let a = UBig::random_bits(&mut rng, 100_000);
        let (square, cycles) = sim.square(&a).unwrap();
        let (product, report) = sim.multiply(&a, &a).unwrap();
        assert_eq!(square, product);
        assert!(cycles < report.total_cycles());
        // 2·6144 + 2048 + 4000 = 18336 cycles = 91.68 µs.
        assert_eq!(cycles, 18_336);
    }

    #[test]
    fn structural_carry_model_consistent_with_budget() {
        // The Section V budget (≈20 µs) and the structural unit model must
        // agree to within 5%.
        let sim = AcceleratorSim::paper();
        let structural_us = sim
            .carry_unit()
            .time_us(65_536, sim.config().clock_period_ns());
        let budget_us = sim.config().carry_recovery_us();
        assert!(
            (structural_us - budget_us).abs() / budget_us < 0.05,
            "structural {structural_us} vs budget {budget_us}"
        );
    }

    #[test]
    fn prepared_products_are_bit_exact_and_cheaper() {
        let mut rng = StdRng::seed_from_u64(77);
        let sim = AcceleratorSim::paper();
        let a = UBig::random_bits(&mut rng, 120_000);
        let b = UBig::random_bits(&mut rng, 90_000);
        let expected = a.mul_karatsuba(&b);
        let (pa, fwd_report) = sim.prepare(&a).unwrap();
        let (pb, _) = sim.prepare(&b).unwrap();
        assert!(fwd_report.total_cycles() > 0);
        let (both, both_cycles) = sim.multiply_prepared(&pa, &pb).unwrap();
        let (one, one_cycles) = sim.multiply_one_prepared(&pa, &b).unwrap();
        assert_eq!(both, expected);
        assert_eq!(one, expected);
        let model = PerfModel::new(AcceleratorConfig::paper());
        assert_eq!(both_cycles, model.cached_multiplication_cycles(0));
        assert_eq!(one_cycles, model.cached_multiplication_cycles(1));
        assert!(both_cycles < one_cycles);
        assert!(one_cycles < model.multiplication_cycles());
    }

    #[test]
    fn batch_matches_sequential_and_pipelines() {
        let mut rng = StdRng::seed_from_u64(78);
        let sim = AcceleratorSim::paper();
        let fixed = UBig::random_bits(&mut rng, 50_000);
        let (pf, _) = sim.prepare(&fixed).unwrap();
        let xs: Vec<UBig> = (0..3)
            .map(|_| UBig::random_bits(&mut rng, 40_000))
            .collect();
        let (px, _) = sim.prepare(&xs[0]).unwrap();
        let jobs = [
            crate::batch::HwJob::BothPrepared(&pf, &px),
            crate::batch::HwJob::OnePrepared(&pf, &xs[1]),
            crate::batch::HwJob::Raw(&fixed, &xs[2]),
        ];
        let (products, report) = sim.multiply_batch(&jobs).unwrap();
        for (product, x) in products.iter().zip(&xs) {
            assert_eq!(*product, fixed.mul_karatsuba(x));
        }
        assert_eq!(report.entries.len(), 3);
        assert!(report.makespan_cycles() < report.serial_cycles);
        assert!(report.speedup_vs_serial() > 1.0);
    }

    #[test]
    fn prepared_zero_operand() {
        let sim = AcceleratorSim::paper();
        let (pz, _) = sim.prepare(&UBig::zero()).unwrap();
        assert!(pz.is_zero());
        let (px, _) = sim.prepare(&UBig::from(9u64)).unwrap();
        let (product, _) = sim.multiply_prepared(&pz, &px).unwrap();
        assert!(product.is_zero());
        let (product, _) = sim.multiply_one_prepared(&px, &UBig::zero()).unwrap();
        assert!(product.is_zero());
    }

    #[test]
    fn prepare_rejects_oversized_operands() {
        let sim = AcceleratorSim::paper();
        // A single operand may occupy up to N coefficients (1,572,864
        // bits); beyond that even preparation fails.
        let too_big = UBig::pow2(1_600_000);
        assert!(matches!(sim.prepare(&too_big), Err(HwSimError::Ssa(_))));
        // An operand past the 786,432-bit product capacity still prepares,
        // but squaring it would wrap the cyclic transform.
        let a = UBig::pow2(800_000);
        let (pa, _) = sim.prepare(&a).unwrap();
        assert!(matches!(
            sim.multiply_prepared(&pa, &pa),
            Err(HwSimError::Ssa(_))
        ));
    }

    #[test]
    fn report_renders() {
        let sim = AcceleratorSim::paper();
        let (_, report) = sim.multiply(&UBig::from(3u64), &UBig::from(4u64)).unwrap();
        let text = report.render();
        for needle in ["NTT", "dot product", "carry recovery", "total"] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }
}
