//! The Schönhage–Strassen multiplier and its one product kernel,
//! `SsaMultiplier::product_into` (the crate docs walk through its steps).
//! The public entry points here, in [`crate::cached`] and in
//! [`crate::batch`] only name which [`Side`]s of a product are still raw.

use he_bigint::UBig;
use he_field::Fp;
use he_ntt::{convolution, Radix2kPlan};

use crate::cached::TransformedOperand;
use crate::error::SsaError;
use crate::params::SsaParams;
use crate::pool::{ScratchGuard, ScratchPool};
use crate::recompose::{decompose_into, recompose_into};

/// A planned Schönhage–Strassen multiplier.
///
/// Construction precomputes the transform plan (twiddle tables) — one
/// [`Radix2kPlan`] on the canonical root of the transform length, which at
/// the paper's 64K points is the aligned root of `he_ntt::Ntt64k`; each
/// [`SsaMultiplier::multiply`] then performs two forward NTTs, a pointwise
/// product, an inverse NTT, and carry recovery — exactly the dataflow of the
/// paper's accelerator (three transforms + dot product + carry recovery,
/// Section V).
///
/// The multiplier owns a pool of scratch units (mirroring the
/// accelerator's fixed on-chip memories), so repeated products on one
/// instance reuse the same storage: after a warm-up call,
/// [`SsaMultiplier::multiply_into`] performs **zero heap allocations** per
/// product, and [`SsaMultiplier::multiply`] allocates only the returned
/// integer. The pool is a checkout stack, so a shared `&SsaMultiplier`
/// stays usable from several threads: each in-flight product owns a whole
/// scratch unit and the lock is held only for the checkout/return, never
/// across a transform (see [`SsaMultiplier::multiply_batch`] for the
/// sharded batch entry point built on this).
///
/// ```
/// use he_bigint::UBig;
/// use he_ssa::SsaMultiplier;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let ssa = SsaMultiplier::paper();
/// let a = UBig::random_bits(&mut rng, 10_000);
/// let b = UBig::random_bits(&mut rng, 10_000);
/// assert_eq!(ssa.multiply(&a, &b)?, a.mul_karatsuba(&b));
///
/// // The allocation-free form writes into a caller-owned integer.
/// let mut out = UBig::zero();
/// ssa.multiply_into(&a, &b, &mut out)?;
/// assert_eq!(out, a.mul_karatsuba(&b));
/// # Ok::<(), he_ssa::SsaError>(())
/// ```
#[derive(Debug)]
pub struct SsaMultiplier {
    params: SsaParams,
    engine: Radix2kPlan,
    pool: ScratchPool,
}

impl Clone for SsaMultiplier {
    fn clone(&self) -> SsaMultiplier {
        // The plan is shared state worth cloning; the scratch pool is
        // per-instance working memory and starts empty (the idle-cap
        // setting carries over).
        SsaMultiplier {
            params: self.params,
            engine: self.engine.clone(),
            pool: ScratchPool::with_cap(self.pool.cap_setting()),
        }
    }
}

/// One side of a product: a raw integer, still to be decomposed and
/// transformed, or a spectrum already in the transform domain.
#[derive(Clone, Copy)]
pub(crate) enum Side<'a> {
    Raw(&'a UBig),
    Spectrum(&'a TransformedOperand),
}

impl SsaMultiplier {
    /// A multiplier with the paper's parameters (`m = 24`, `N = 64K`,
    /// operands up to 786,432 bits).
    pub fn paper() -> SsaMultiplier {
        SsaMultiplier::with_params(SsaParams::paper()).expect("the paper's parameters plan")
    }

    /// A multiplier with explicit parameters.
    ///
    /// # Errors
    ///
    /// Propagates [`SsaError`] from parameter validation or plan
    /// construction.
    pub fn with_params(params: SsaParams) -> Result<SsaMultiplier, SsaError> {
        Ok(SsaMultiplier {
            params,
            engine: Radix2kPlan::new(params.n_points())?,
            pool: ScratchPool::new(),
        })
    }

    /// A multiplier sized automatically for operands of `bits` bits.
    ///
    /// # Errors
    ///
    /// Returns [`SsaError::InvalidParams`] if no parameter set fits.
    pub fn for_operand_bits(bits: usize) -> Result<SsaMultiplier, SsaError> {
        SsaMultiplier::with_params(SsaParams::for_operand_bits(bits)?)
    }

    /// The configured parameters.
    pub fn params(&self) -> SsaParams {
        self.params
    }

    /// Multiplies two integers.
    ///
    /// Thin wrapper over [`SsaMultiplier::multiply_into`]; the only heap
    /// allocation (after pool warm-up) is the returned integer.
    ///
    /// # Errors
    ///
    /// Returns [`SsaError::OperandTooLarge`] if the acyclic product would
    /// wrap around the cyclic transform, i.e. if
    /// `coeffs(a) + coeffs(b) − 1 > N`.
    pub fn multiply(&self, a: &UBig, b: &UBig) -> Result<UBig, SsaError> {
        let mut out = UBig::zero();
        self.multiply_into(a, b, &mut out)?;
        Ok(out)
    }

    /// Multiplies two integers into a caller-owned result: the kernel with
    /// both sides raw (three transforms).
    ///
    /// # Errors
    ///
    /// Same conditions as [`SsaMultiplier::multiply`]; on error `out` is
    /// left unchanged.
    pub fn multiply_into(&self, a: &UBig, b: &UBig, out: &mut UBig) -> Result<(), SsaError> {
        self.product_into(Side::Raw(a), Side::Raw(b), out)
    }

    // lint: no-alloc
    /// The product kernel (see the crate docs): every entry point that
    /// multiplies two integers lands here.
    pub(crate) fn product_into(
        &self,
        a: Side<'_>,
        b: Side<'_>,
        out: &mut UBig,
    ) -> Result<(), SsaError> {
        let (ca, bits_a) = self.measure(a)?;
        let (cb, bits_b) = self.measure(b)?;
        if ca == 0 || cb == 0 {
            out.assign_from_limbs(&[]);
            return Ok(());
        }
        let n = self.params.n_points();
        if ca + cb - 1 > n {
            return Err(SsaError::OperandTooLarge {
                bits: bits_a + bits_b,
                max_bits: 2 * self.params.max_operand_bits(),
            });
        }
        // A lone raw side is transformed in the accumulator itself, so
        // only a raw × raw product borrows a second buffer.
        let (first, second) = match (a, b) {
            (Side::Spectrum(_), Side::Raw(_)) => (b, a),
            _ => (a, b),
        };
        let pool = &mut *self.pool();
        let mut acc = pool.ntt.take_any(n);
        match first {
            Side::Raw(x) => self.transform_into(x, &mut acc),
            Side::Spectrum(t) => acc.copy_from_slice(t.spectrum()),
        }
        match second {
            Side::Raw(x) => {
                let mut other = pool.ntt.take_any(n);
                self.transform_into(x, &mut other);
                convolution::pointwise_assign(&mut acc, &other);
                pool.ntt.put(other);
            }
            Side::Spectrum(t) => convolution::pointwise_assign(&mut acc, t.spectrum()),
        }
        self.engine
            .inverse_in_place(&mut acc)
            .expect("buffer sized to the plan");
        recompose_into(&acc, self.params.coeff_bits(), out);
        pool.ntt.put(acc);
        Ok(())
    }

    /// Decomposes `x` into `points` and forward-transforms it in place.
    pub(crate) fn transform_into(&self, x: &UBig, points: &mut [Fp]) {
        decompose_into(x, self.params.coeff_bits(), points);
        self.engine
            .forward_in_place(points)
            .expect("buffer sized to the plan");
    }
    // lint: end no-alloc

    /// A side's coefficient count (0 for the zero operand) and bit length
    /// (to coefficient granularity for a spectrum), after checking that a
    /// spectrum was produced under this multiplier's parameters.
    fn measure(&self, side: Side<'_>) -> Result<(usize, usize), SsaError> {
        match side {
            Side::Raw(x) => Ok((self.params.coeff_count(x.bit_len()), x.bit_len())),
            Side::Spectrum(t) if t.params() == self.params => Ok((
                t.coeff_count(),
                t.coeff_count() * self.params.coeff_bits() as usize,
            )),
            Side::Spectrum(t) => Err(SsaError::InvalidParams {
                reason: format!(
                    "spectrum was transformed with (m={}, N={}) but this multiplier uses (m={}, N={})",
                    t.params().coeff_bits(),
                    t.params().n_points(),
                    self.params.coeff_bits(),
                    self.params.n_points()
                ),
            }),
        }
    }

    /// Checks out a scratch unit from the multiplier's pool.
    pub(crate) fn pool(&self) -> ScratchGuard<'_> {
        self.pool.checkout()
    }

    /// Announces the batch scheduler's worker count to the pool, so auto
    /// mode keeps one idle unit per worker between batches.
    pub(crate) fn note_scratch_concurrency(&self, workers: usize) {
        self.pool.note_concurrency(workers);
    }

    /// Caps how many idle scratch units the pool retains (`0` restores the
    /// default: the machine's available parallelism).
    ///
    /// Each unit holds the working buffers of one in-flight product —
    /// multiple megabytes at the paper's 64K-point plan — so a resident
    /// process that saw a one-off concurrency burst would otherwise pin
    /// the burst's worth of scratch forever. Units returning to a full
    /// idle stack are freed instead of retained; already-idle excess is
    /// freed by [`SsaMultiplier::trim_scratch`].
    pub fn set_scratch_cap(&self, cap: usize) {
        self.pool.set_cap(cap);
    }

    /// Frees every idle scratch unit (checked-out units are unaffected).
    ///
    /// The next product re-grows one unit on demand; call this when a
    /// long-lived process goes idle. The warm path's zero-allocation
    /// guarantee applies *between* trims, not across them.
    pub fn trim_scratch(&self) {
        self.pool.trim();
    }

    /// Number of idle scratch units currently retained (diagnostic).
    pub fn idle_scratch_units(&self) -> usize {
        self.pool.idle_units()
    }

    /// Cyclic convolution of two coefficient vectors on the multiplier's
    /// plan — the three NTTs + pointwise product of a raw × raw product
    /// without the integer ends, exposed for the hardware simulator to
    /// cross-check stage by stage.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ from the plan length.
    pub fn convolve(&self, a: &[Fp], b: &[Fp]) -> Vec<Fp> {
        let mut out = self.engine.forward(a);
        convolution::pointwise_assign(&mut out, &self.engine.forward(b));
        self.engine
            .inverse_in_place(&mut out)
            .expect("forward checked the length");
        out
    }
}

impl Default for SsaMultiplier {
    fn default() -> SsaMultiplier {
        SsaMultiplier::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PAPER_OPERAND_BITS;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zero_and_one() {
        let ssa = SsaMultiplier::with_params(SsaParams::new(8, 64).unwrap()).unwrap();
        let x = UBig::from(12345u64);
        assert_eq!(ssa.multiply(&UBig::zero(), &x).unwrap(), UBig::zero());
        assert_eq!(ssa.multiply(&x, &UBig::zero()).unwrap(), UBig::zero());
        assert_eq!(ssa.multiply(&UBig::one(), &x).unwrap(), x);
    }

    #[test]
    fn small_plan_matches_schoolbook() {
        let mut rng = StdRng::seed_from_u64(21);
        let ssa = SsaMultiplier::with_params(SsaParams::new(8, 64).unwrap()).unwrap();
        for _ in 0..20 {
            let a = UBig::random_bits(&mut rng, 200);
            let b = UBig::random_bits(&mut rng, 56);
            assert_eq!(ssa.multiply(&a, &b).unwrap(), a.mul_schoolbook(&b));
        }
    }

    #[test]
    fn capacity_boundary() {
        let params = SsaParams::new(8, 64).unwrap();
        let ssa = SsaMultiplier::with_params(params).unwrap();
        // 32 coefficients each: 33 + 32 − 1 = 64 ≤ 64 — apparently at the
        // limit with max_operand_bits = 256.
        let a = &UBig::pow2(256) - &UBig::one(); // exactly 32 coefficients
        let b = a.clone();
        assert_eq!(ssa.multiply(&a, &b).unwrap(), a.mul_schoolbook(&b));
        // One extra coefficient overflows the cyclic length.
        let too_big = UBig::pow2(256); // 33 coefficients
        let err = ssa.multiply(&too_big, &too_big).unwrap_err();
        assert!(matches!(err, SsaError::OperandTooLarge { .. }));
    }

    #[test]
    fn asymmetric_operands_use_slack() {
        // A tiny b leaves room for a beyond max_operand_bits: a may use
        // nearly all N points when b has a single coefficient.
        let params = SsaParams::new(8, 64).unwrap();
        let ssa = SsaMultiplier::with_params(params).unwrap();
        let a = &UBig::pow2(8 * 63) - &UBig::one(); // 63 coefficients
        let b = UBig::from(200u64); // 1 coefficient
        assert_eq!(ssa.multiply(&a, &b).unwrap(), a.mul_schoolbook(&b));
    }

    #[test]
    fn paper_scale_multiply_matches_karatsuba() {
        let mut rng = StdRng::seed_from_u64(2016);
        let ssa = SsaMultiplier::paper();
        let a = UBig::random_bits(&mut rng, PAPER_OPERAND_BITS);
        let b = UBig::random_bits(&mut rng, PAPER_OPERAND_BITS);
        assert_eq!(ssa.multiply(&a, &b).unwrap(), a.mul_karatsuba(&b));
    }

    #[test]
    fn auto_sized_multiplier() {
        let mut rng = StdRng::seed_from_u64(22);
        for bits in [100usize, 5_000, 120_000] {
            let ssa = SsaMultiplier::for_operand_bits(bits).unwrap();
            let a = UBig::random_bits(&mut rng, bits);
            let b = UBig::random_bits(&mut rng, bits);
            assert_eq!(
                ssa.multiply(&a, &b).unwrap(),
                a.mul_karatsuba(&b),
                "bits = {bits}"
            );
        }
    }

    #[test]
    fn transform_lengths_agree() {
        // Same operands and coefficient width through the paper's 64K
        // points and through half as many.
        let mut rng = StdRng::seed_from_u64(23);
        let a = UBig::random_bits(&mut rng, 50_000);
        let b = UBig::random_bits(&mut rng, 50_000);
        let paper = SsaMultiplier::paper();
        let half = SsaMultiplier::with_params(SsaParams::new(24, 1 << 15).unwrap()).unwrap();
        assert_eq!(
            paper.multiply(&a, &b).unwrap(),
            half.multiply(&a, &b).unwrap()
        );
    }
}
