//! Transform caching: reuse an operand's forward NTT across products.
//!
//! The paper's related-work section singles out this optimization — the
//! design of \[31\] "includes optimizations previously introduced in \[25\]
//! to reduce the number of FFT computations". The idea (Wang et al., also
//! used by Gentry–Halevi) is that SSA's three transforms per product drop
//! to two, one, or even zero forward transforms when operands recur:
//!
//! * a plain product is `NTT(a)`, `NTT(b)`, pointwise, `NTT⁻¹` — 3 transforms;
//! * if `a` is reused across many products (a fixed key element, a running
//!   accumulator), `NTT(a)` is paid once and each product costs 2 transforms;
//! * if **both** spectra are cached, a product is pointwise + `NTT⁻¹` — 1.
//!
//! On the accelerator every avoided transform saves a full `T_FFT`
//! (30.7 µs of the 122 µs product, Section V), so a both-cached product
//! runs in ≈ 61 µs — the model side of this accounting lives in
//! `he_hwsim::perf::PerfModel::cached_multiplication_cycles`.
//!
//! The entry points here only say which sides of the product are already
//! spectra; the dataflow itself is the one kernel described in
//! [`crate::multiplier`].
//!
//! # Example
//!
//! ```
//! use he_bigint::UBig;
//! use he_ssa::{SsaMultiplier, SsaParams};
//!
//! let ssa = SsaMultiplier::with_params(SsaParams::new(8, 64)?)?;
//! let a = UBig::from(0xdead_beefu64);
//! let b = UBig::from(0x1234_5678u64);
//! let ta = ssa.transform(&a)?; // forward NTT paid once
//! let tb = ssa.transform(&b)?;
//! assert_eq!(ssa.multiply_transformed(&ta, &tb)?, &a * &b);
//! assert_eq!(ssa.multiply_one_cached(&ta, &b)?, &a * &b);
//! # Ok::<(), he_ssa::SsaError>(())
//! ```

use he_bigint::UBig;
use he_field::Fp;

use crate::error::SsaError;
use crate::multiplier::{Side, SsaMultiplier};
use crate::params::SsaParams;

/// A big integer held in the transform (spectral) domain of a specific
/// [`SsaMultiplier`] plan.
///
/// Produced by [`SsaMultiplier::transform`]; consumed by
/// [`SsaMultiplier::multiply_transformed`] and
/// [`SsaMultiplier::multiply_one_cached`]. The operand's coefficient count
/// is retained so capacity (wrap-around) checks still work without the
/// original integer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransformedOperand {
    spectrum: Vec<Fp>,
    coeff_count: usize,
    params: SsaParams,
}

impl TransformedOperand {
    /// The `N`-point forward spectrum.
    pub fn spectrum(&self) -> &[Fp] {
        &self.spectrum
    }

    /// How many `m`-bit coefficients the original operand occupied
    /// (0 for the zero operand).
    pub fn coeff_count(&self) -> usize {
        self.coeff_count
    }

    /// The parameters of the plan that produced this spectrum.
    pub fn params(&self) -> SsaParams {
        self.params
    }

    /// Whether the original operand was zero.
    pub fn is_zero(&self) -> bool {
        self.coeff_count == 0
    }
}

impl SsaMultiplier {
    /// Computes and caches the forward NTT of `a`.
    ///
    /// # Errors
    ///
    /// Returns [`SsaError::OperandTooLarge`] if `a` alone does not fit the
    /// transform length (more than `N` coefficients); products additionally
    /// enforce the wrap-around bound at multiplication time.
    pub fn transform(&self, a: &UBig) -> Result<TransformedOperand, SsaError> {
        let params = self.params();
        let n = params.n_points();
        let ca = if a.is_zero() {
            0
        } else {
            params.coeff_count(a.bit_len())
        };
        if ca > n {
            return Err(SsaError::OperandTooLarge {
                bits: a.bit_len(),
                max_bits: params.max_operand_bits(),
            });
        }
        // The spectrum is owned by the returned operand (one unavoidable
        // allocation); the transform runs in place on it.
        let mut spectrum = vec![Fp::ZERO; n];
        self.transform_into(a, &mut spectrum);
        Ok(TransformedOperand {
            spectrum,
            coeff_count: ca,
            params,
        })
    }

    /// Multiplies two cached spectra: pointwise product + one inverse
    /// transform — **one** transform instead of three.
    ///
    /// # Errors
    ///
    /// Returns [`SsaError::InvalidParams`] if either spectrum was produced
    /// under different parameters, and [`SsaError::OperandTooLarge`] if the
    /// acyclic product would wrap the cyclic transform
    /// (`coeffs(a) + coeffs(b) − 1 > N`).
    pub fn multiply_transformed(
        &self,
        a: &TransformedOperand,
        b: &TransformedOperand,
    ) -> Result<UBig, SsaError> {
        let mut out = UBig::zero();
        self.multiply_transformed_into(a, b, &mut out)?;
        Ok(out)
    }

    /// [`SsaMultiplier::multiply_transformed`] into a caller-owned result:
    /// the kernel with both sides already spectra.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SsaMultiplier::multiply_transformed`]; on error
    /// `out` is left unchanged.
    pub fn multiply_transformed_into(
        &self,
        a: &TransformedOperand,
        b: &TransformedOperand,
        out: &mut UBig,
    ) -> Result<(), SsaError> {
        self.product_into(Side::Spectrum(a), Side::Spectrum(b), out)
    }

    /// Multiplies a cached spectrum by a fresh integer: one forward + one
    /// inverse transform — **two** transforms instead of three.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SsaMultiplier::multiply_transformed`].
    pub fn multiply_one_cached(&self, a: &TransformedOperand, b: &UBig) -> Result<UBig, SsaError> {
        let mut out = UBig::zero();
        self.multiply_one_cached_into(a, b, &mut out)?;
        Ok(out)
    }

    /// [`SsaMultiplier::multiply_one_cached`] into a caller-owned result:
    /// the kernel with one side already a spectrum.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SsaMultiplier::multiply_one_cached`]; on error
    /// `out` is left unchanged.
    pub fn multiply_one_cached_into(
        &self,
        a: &TransformedOperand,
        b: &UBig,
        out: &mut UBig,
    ) -> Result<(), SsaError> {
        self.product_into(Side::Spectrum(a), Side::Raw(b), out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small() -> SsaMultiplier {
        SsaMultiplier::with_params(SsaParams::new(8, 64).unwrap()).unwrap()
    }

    #[test]
    fn cached_matches_plain_multiply() {
        let mut rng = StdRng::seed_from_u64(41);
        let ssa = small();
        for _ in 0..25 {
            let a = UBig::random_bits(&mut rng, 120);
            let b = UBig::random_bits(&mut rng, 130);
            let ta = ssa.transform(&a).unwrap();
            let tb = ssa.transform(&b).unwrap();
            let expected = ssa.multiply(&a, &b).unwrap();
            assert_eq!(ssa.multiply_transformed(&ta, &tb).unwrap(), expected);
            assert_eq!(ssa.multiply_one_cached(&ta, &b).unwrap(), expected);
        }
    }

    #[test]
    fn zero_operands() {
        let ssa = small();
        let tz = ssa.transform(&UBig::zero()).unwrap();
        assert!(tz.is_zero());
        assert_eq!(tz.coeff_count(), 0);
        let x = UBig::from(77u64);
        let tx = ssa.transform(&x).unwrap();
        assert_eq!(ssa.multiply_transformed(&tz, &tx).unwrap(), UBig::zero());
        assert_eq!(ssa.multiply_one_cached(&tz, &x).unwrap(), UBig::zero());
        assert_eq!(
            ssa.multiply_one_cached(&tx, &UBig::zero()).unwrap(),
            UBig::zero()
        );
    }

    #[test]
    fn one_is_the_multiplicative_identity_in_the_spectrum() {
        let ssa = small();
        let t1 = ssa.transform(&UBig::one()).unwrap();
        // NTT of the delta impulse is the all-ones spectrum.
        assert!(t1.spectrum().iter().all(|&x| x == he_field::Fp::ONE));
        let x = UBig::from(0x1234_5678_9abcu64);
        let tx = ssa.transform(&x).unwrap();
        assert_eq!(ssa.multiply_transformed(&t1, &tx).unwrap(), x);
    }

    #[test]
    fn capacity_enforced_without_original_integer() {
        let ssa = small();
        // 33 + 32 − 1 = 64 fits; 33 + 33 − 1 = 65 does not.
        let a = UBig::pow2(256); // 33 coefficients of 8 bits
        let b_fit = &UBig::pow2(255) - &UBig::one(); // 32 coefficients
        let ta = ssa.transform(&a).unwrap();
        let tb = ssa.transform(&b_fit).unwrap();
        assert_eq!(
            ssa.multiply_transformed(&ta, &tb).unwrap(),
            a.mul_schoolbook(&b_fit)
        );
        let tc = ssa.transform(&a).unwrap();
        assert!(matches!(
            ssa.multiply_transformed(&ta, &tc),
            Err(SsaError::OperandTooLarge { .. })
        ));
    }

    #[test]
    fn transform_rejects_oversized_operand() {
        let ssa = small();
        let huge = UBig::pow2(8 * 64); // 65 coefficients > N = 64
        assert!(matches!(
            ssa.transform(&huge),
            Err(SsaError::OperandTooLarge { .. })
        ));
    }

    #[test]
    fn mismatched_plans_rejected() {
        let ssa_a = small();
        let ssa_b = SsaMultiplier::with_params(SsaParams::new(8, 128).unwrap()).unwrap();
        let t = ssa_b.transform(&UBig::from(5u64)).unwrap();
        let u = ssa_a.transform(&UBig::from(7u64)).unwrap();
        assert!(matches!(
            ssa_a.multiply_transformed(&t, &u),
            Err(SsaError::InvalidParams { .. })
        ));
        assert!(matches!(
            ssa_a.multiply_one_cached(&t, &UBig::from(7u64)),
            Err(SsaError::InvalidParams { .. })
        ));
    }

    #[test]
    fn repeated_products_reuse_one_spectrum() {
        // The motivating access pattern: one fixed operand times a stream.
        let mut rng = StdRng::seed_from_u64(44);
        let ssa = small();
        let fixed = UBig::random_bits(&mut rng, 200);
        let tf = ssa.transform(&fixed).unwrap();
        for _ in 0..10 {
            let b = UBig::random_bits(&mut rng, 56);
            assert_eq!(
                ssa.multiply_one_cached(&tf, &b).unwrap(),
                fixed.mul_schoolbook(&b)
            );
        }
    }

    #[test]
    fn paper_engine_cached_roundtrip() {
        let mut rng = StdRng::seed_from_u64(45);
        let ssa = SsaMultiplier::paper();
        let a = UBig::random_bits(&mut rng, 60_000);
        let b = UBig::random_bits(&mut rng, 60_000);
        let ta = ssa.transform(&a).unwrap();
        let tb = ssa.transform(&b).unwrap();
        assert_eq!(
            ssa.multiply_transformed(&ta, &tb).unwrap(),
            a.mul_karatsuba(&b)
        );
    }
}
