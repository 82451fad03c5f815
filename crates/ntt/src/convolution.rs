//! The pointwise phase of a cyclic convolution via the convolution theorem
//! — the core of Schönhage–Strassen multiplication ("compute `C = A·B`
//! component-wise, which can be easily parallelized", paper Section III).
//! The transforms on either side of it are [`crate::Radix2kPlan`]'s; the
//! full product dataflow is `he-ssa`'s kernel.

use he_field::Fp;

/// Pointwise product of two equal-length spectra (the accelerator's
/// dot-product phase, `T_DOTPROD` in Section V).
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn pointwise(a: &[Fp], b: &[Fp]) -> Vec<Fp> {
    assert_eq!(a.len(), b.len(), "pointwise product requires equal lengths");
    a.iter().zip(b).map(|(&x, &y)| x * y).collect()
}

/// Pointwise product accumulated into the left operand: `a[i] *= b[i]` —
/// the allocation-free dot-product phase.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn pointwise_assign(a: &mut [Fp], b: &[Fp]) {
    assert_eq!(a.len(), b.len(), "pointwise product requires equal lengths");
    for (x, &y) in a.iter_mut().zip(b) {
        *x *= y;
    }
}
