//! Coefficient decomposition and carry recovery.
//!
//! Decomposition splits an integer into `m`-bit digits ("decompose operands
//! `a` and `b` into groups of `m` bits and consider such groups as
//! polynomial coefficients"); recomposition evaluates the digit polynomial
//! at `2^m` with full carry propagation — the paper's final "shifted sum of
//! the components of `c'`", performed in hardware by a dedicated carry
//! recovery adder (`≈ 20 µs` in Section V).

use he_bigint::UBig;
use he_field::Fp;

/// Splits `x` into `m`-bit coefficients, zero-padded to `n_points`.
///
/// # Panics
///
/// Panics if `x` needs more than `n_points` coefficients or if
/// `m` is outside `1..=63`.
pub fn decompose(x: &UBig, coeff_bits: u32, n_points: usize) -> Vec<Fp> {
    let mut out = vec![Fp::ZERO; n_points];
    decompose_into(x, coeff_bits, &mut out);
    out
}

/// [`decompose`] into a caller-provided buffer of `n_points` elements
/// (allocation-free; the buffer is fully overwritten).
///
/// # Panics
///
/// Panics under the same conditions as [`decompose`], with `out.len()`
/// playing the role of `n_points`.
pub fn decompose_into(x: &UBig, coeff_bits: u32, out: &mut [Fp]) {
    assert!((1..=63).contains(&coeff_bits));
    let m = coeff_bits as usize;
    let count = x.bit_len().div_ceil(m);
    assert!(
        count <= out.len(),
        "operand needs {count} coefficients but the transform has {} points",
        out.len()
    );
    for (i, slot) in out.iter_mut().enumerate() {
        *slot = if i < count {
            Fp::new(x.bits_at(i * m, coeff_bits))
        } else {
            Fp::ZERO
        };
    }
}

/// Carry recovery: computes `Σ_i coeffs[i] · 2^{m·i}` over the integers.
///
/// Each coefficient is a full field element (after the inverse NTT the
/// convolution values can be up to 63 bits wide), so neighbouring terms
/// overlap and carries ripple — this is why the hardware needs a dedicated
/// adder structure rather than simple concatenation.
pub fn recompose(coeffs: &[Fp], coeff_bits: u32) -> UBig {
    let mut out = UBig::zero();
    recompose_into(coeffs, coeff_bits, &mut out);
    out
}

/// [`recompose`] into a caller-provided result, whose own limb vector is
/// the carry accumulator — allocation-free once it has grown to the
/// working size.
// lint: no-alloc
pub fn recompose_into(coeffs: &[Fp], coeff_bits: u32, out: &mut UBig) {
    assert!((1..=63).contains(&coeff_bits));
    let m = coeff_bits as usize;
    let total_bits = coeffs.len() * m + 128;
    out.assign_with(|acc| {
        acc.clear();
        acc.resize(total_bits.div_ceil(64) + 1, 0);
        for (i, &c) in coeffs.iter().enumerate() {
            let v = c.as_u64();
            if v != 0 {
                add_shifted(acc, v, i * m);
            }
        }
    });
}

/// Adds `value << bit_pos` into the little-endian accumulator with carry
/// propagation.
fn add_shifted(acc: &mut [u64], value: u64, bit_pos: usize) {
    let limb = bit_pos / 64;
    let off = (bit_pos % 64) as u32;
    let wide = (value as u128) << off; // ≤ 2^127
    let lo = wide as u64;
    let hi = (wide >> 64) as u64;
    let mut carry;
    let (s, c) = acc[limb].overflowing_add(lo);
    acc[limb] = s;
    carry = c as u64;
    let (s, c) = acc[limb + 1].overflowing_add(hi);
    let (s, c2) = s.overflowing_add(carry);
    acc[limb + 1] = s;
    carry = c as u64 + c2 as u64;
    let mut k = limb + 2;
    while carry != 0 {
        let (s, c) = acc[k].overflowing_add(carry);
        acc[k] = s;
        carry = c as u64;
        k += 1;
    }
}
// lint: end no-alloc

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn decompose_roundtrips_via_recompose() {
        let mut rng = StdRng::seed_from_u64(11);
        for (bits, m, n) in [
            (100usize, 24u32, 8usize),
            (1000, 24, 64),
            (786_432, 24, 65_536),
        ] {
            let x = UBig::random_bits(&mut rng, bits);
            let coeffs = decompose(&x, m, n);
            assert_eq!(recompose(&coeffs, m), x, "bits={bits} m={m} n={n}");
        }
    }

    #[test]
    fn decompose_zero() {
        let coeffs = decompose(&UBig::zero(), 24, 16);
        assert!(coeffs.iter().all(|c| c.is_zero()));
        assert_eq!(recompose(&coeffs, 24), UBig::zero());
    }

    #[test]
    fn decompose_exact_digit_values() {
        // 0xABCDEF = digits (EF, CD, AB) base 2^8.
        let x = UBig::from(0xABCDEFu64);
        let coeffs = decompose(&x, 8, 4);
        assert_eq!(coeffs[0], Fp::new(0xEF));
        assert_eq!(coeffs[1], Fp::new(0xCD));
        assert_eq!(coeffs[2], Fp::new(0xAB));
        assert_eq!(coeffs[3], Fp::ZERO);
    }

    #[test]
    #[should_panic(expected = "coefficients")]
    fn decompose_rejects_oversized_operand() {
        let x = UBig::pow2(100);
        let _ = decompose(&x, 8, 8); // needs 13 coefficients, only 8 points
    }

    #[test]
    fn recompose_with_overlapping_carries() {
        // Two full-width coefficients at m = 8: massive overlap, long ripple.
        let coeffs = vec![Fp::new(u64::MAX / 3), Fp::new(u64::MAX / 5), Fp::new(7)];
        let expected = &UBig::from(u64::MAX / 3)
            + &(&UBig::from(u64::MAX / 5) << 8)
            + (&UBig::from(7u64) << 16);
        assert_eq!(recompose(&coeffs, 8), expected);
    }

    #[test]
    fn recompose_carry_ripples_across_many_limbs() {
        // 0xFF...F + 1 at overlapping positions forces a long carry chain.
        let mut coeffs = vec![Fp::ZERO; 40];
        for c in coeffs.iter_mut() {
            *c = Fp::new(u64::MAX >> 1);
        }
        let got = recompose(&coeffs, 1);
        let mut expected = UBig::zero();
        for i in 0..40 {
            expected += &(&UBig::from(u64::MAX >> 1) << i);
        }
        assert_eq!(got, expected);
    }
}
