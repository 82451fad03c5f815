//! Differential tests on adversarial operand structures: values that
//! stress carry recovery, coefficient boundaries and spectral edge cases.
//!
//! Every product is driven through **every job shape** the one product
//! kernel serves — raw × raw, spectrum × raw with either operand cached,
//! spectrum × spectrum — and each result is compared bit-exact against
//! `he-bigint`.

use he_bigint::UBig;
use he_ssa::{SsaError, SsaJob, SsaMultiplier, SsaParams};

const N: usize = 4096;

fn ssa() -> SsaMultiplier {
    SsaMultiplier::with_params(SsaParams::new(24, N).unwrap()).unwrap()
}

/// Runs `a·b` as each of the four job shapes, each into a stale result.
fn every_shape(m: &SsaMultiplier, a: &UBig, b: &UBig) -> [Result<UBig, SsaError>; 4] {
    let ta = m.transform(a).unwrap();
    let tb = m.transform(b).unwrap();
    // A stale non-zero value: success must overwrite it, failure must not.
    let stale = UBig::from(0xdead_beefu64);
    [
        SsaJob::Uncached(a, b),
        SsaJob::OneCached(&ta, b),
        SsaJob::OneCached(&tb, a),
        SsaJob::BothCached(&ta, &tb),
    ]
    .map(|job| {
        let mut out = stale.clone();
        let result = m.multiply_job_into(job, &mut out);
        if result.is_err() {
            assert_eq!(out, stale, "a failed job must leave `out` unchanged");
        }
        result.map(|()| out)
    })
}

/// Every shape must produce exactly `expected`.
fn assert_product(m: &SsaMultiplier, a: &UBig, b: &UBig, expected: &UBig, context: &str) {
    for (shape, product) in every_shape(m, a, b).into_iter().enumerate() {
        assert_eq!(product.as_ref(), Ok(expected), "{context}, shape {shape}");
    }
}

/// All-ones operands maximize every convolution coefficient and force the
/// longest carry ripple in recomposition.
#[test]
fn all_ones_operands() {
    let m = ssa();
    for bits in [24usize, 25, 1000, 10_000, 24 * 2048] {
        let a = &UBig::pow2(bits) - &UBig::one();
        assert_product(&m, &a, &a, &a.mul_schoolbook(&a), &format!("bits = {bits}"));
    }
}

/// Powers of two hit single-coefficient spectra.
#[test]
fn powers_of_two() {
    let m = ssa();
    for sa in [0usize, 1, 23, 24, 25, 47, 48, 1000] {
        for sb in [0usize, 24, 100, 999] {
            let a = UBig::pow2(sa);
            let b = UBig::pow2(sb);
            assert_product(&m, &a, &b, &UBig::pow2(sa + sb), &format!("{sa}+{sb}"));
        }
    }
}

/// `2^k ± 1` yields two-coefficient operands with extreme values.
#[test]
fn power_of_two_neighbors() {
    let m = ssa();
    for k in [24usize, 48, 96, 960] {
        let plus = &UBig::pow2(k) + &UBig::one();
        let minus = &UBig::pow2(k) - &UBig::one();
        let context = format!("k = {k}");
        let difference_of_squares = &UBig::pow2(2 * k) - &UBig::one();
        assert_product(&m, &plus, &minus, &difference_of_squares, &context);
        assert_product(&m, &plus, &plus, &plus.mul_schoolbook(&plus), &context);
    }
}

/// Sparse bit patterns: isolated bits at coefficient boundaries.
#[test]
fn sparse_boundary_bits() {
    let m = ssa();
    let mut a = UBig::zero();
    for i in 0..40 {
        a.set_bit(i * 24, true); // one bit at the bottom of each coefficient
        a.set_bit(i * 24 + 23, true); // and one at the top
    }
    let mut b = UBig::zero();
    for i in 0..40 {
        b.set_bit(i * 23, true); // misaligned with the coefficient grid
    }
    assert_product(&m, &a, &b, &a.mul_schoolbook(&b), "sparse");
}

/// Repeating byte patterns (compressible structure that has historically
/// caught FFT-multiplier bugs).
#[test]
fn repeating_patterns() {
    let m = ssa();
    for byte in [0x01u8, 0x55, 0xAA, 0xFF] {
        let a = UBig::from_le_bytes(&vec![byte; 1000]);
        let b = UBig::from_le_bytes(&vec![byte ^ 0xFF; 997]);
        assert_product(
            &m,
            &a,
            &b,
            &a.mul_schoolbook(&b),
            &format!("byte = {byte:#x}"),
        );
    }
}

/// A single 64-bit limb against a full-width all-ones operand: the
/// shortest and the longest spectra the plan holds, and a carry chain that
/// runs the whole length of the result.
#[test]
fn single_limb_times_full_width() {
    let m = ssa();
    let wide = &UBig::pow2(24 * (N - 3)) - &UBig::one(); // N−3 coefficients
    let limb = UBig::from(u64::MAX); // 3 coefficients: N−3 + 3 − 1 < N
    assert_product(&m, &wide, &limb, &wide.mul_karatsuba(&limb), "wide × limb");
    assert_product(&m, &limb, &wide, &wide.mul_karatsuba(&limb), "limb × wide");
}

/// Zero on either side short-circuits to zero in every shape (and still
/// overwrites a stale result).
#[test]
fn zero_on_either_side() {
    let m = ssa();
    let x = &UBig::pow2(5000) - &UBig::one();
    assert_product(&m, &UBig::zero(), &x, &UBig::zero(), "0 × x");
    assert_product(&m, &x, &UBig::zero(), &UBig::zero(), "x × 0");
    assert_product(&m, &UBig::zero(), &UBig::zero(), &UBig::zero(), "0 × 0");
}

/// The capacity edge, in every shape: `ca + cb − 1 == N` fits exactly —
/// symmetric and maximally asymmetric — and one coefficient past it is
/// rejected, leaving the result untouched.
#[test]
fn capacity_edge_in_every_shape() {
    let m = ssa();
    let ones = |coeffs: usize| &UBig::pow2(24 * coeffs) - &UBig::one();
    for (ca, cb) in [(N / 2, N / 2 + 1), (N, 1), (N - 1, 2), (1, N)] {
        let (a, b) = (ones(ca), ones(cb));
        assert_product(&m, &a, &b, &a.mul_karatsuba(&b), &format!("{ca} + {cb}"));
    }
    for (ca, cb) in [(N / 2 + 1, N / 2 + 1), (N, 2), (2, N)] {
        for (shape, result) in every_shape(&m, &ones(ca), &ones(cb))
            .into_iter()
            .enumerate()
        {
            assert!(
                matches!(result, Err(SsaError::OperandTooLarge { .. })),
                "{ca} + {cb}, shape {shape}: {result:?}"
            );
        }
    }
}

/// A cached handle means exactly what the 64K plan says: the paper
/// multiplier's spectrum is bit-identical to `Ntt64k`'s transform of the
/// decomposed operand (so handles are interchangeable with any held from
/// a multiplier built on `Ntt64k` itself).
#[test]
fn paper_spectrum_is_the_64k_plan_transform() {
    use he_ntt::{Ntt64k, N64K};
    let x = &UBig::pow2(he_ssa::PAPER_OPERAND_BITS) - &UBig::from(0x1234_5678_9abcu64);
    let handle = SsaMultiplier::paper().transform(&x).unwrap();
    assert_eq!(
        handle.spectrum(),
        Ntt64k::new().forward(&he_ssa::decompose(&x, 24, N64K))
    );
}
