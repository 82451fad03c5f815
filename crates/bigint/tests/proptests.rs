//! Property-based tests for the big-integer substrate: ring axioms,
//! division reconstruction, algorithm agreement, string round-trips.

use he_bigint::{BarrettReducer, IBig, UBig};
use proptest::prelude::*;

fn arb_ubig(max_limbs: usize) -> impl Strategy<Value = UBig> {
    proptest::collection::vec(any::<u64>(), 0..=max_limbs).prop_map(UBig::from_limbs)
}

fn arb_ibig() -> impl Strategy<Value = IBig> {
    (any::<bool>(), arb_ubig(6)).prop_map(|(neg, mag)| IBig::from_sign_magnitude(neg, mag))
}

proptest! {
    #[test]
    fn add_commutative(a in arb_ubig(8), b in arb_ubig(8)) {
        prop_assert_eq!(&a + &b, &b + &a);
    }

    #[test]
    fn add_associative(a in arb_ubig(8), b in arb_ubig(8), c in arb_ubig(8)) {
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
    }

    #[test]
    fn add_then_sub_roundtrips(a in arb_ubig(8), b in arb_ubig(8)) {
        prop_assert_eq!(&(&a + &b) - &b, a);
    }

    #[test]
    fn mul_commutative(a in arb_ubig(6), b in arb_ubig(6)) {
        prop_assert_eq!(&a * &b, &b * &a);
    }

    #[test]
    fn mul_distributes(a in arb_ubig(5), b in arb_ubig(5), c in arb_ubig(5)) {
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
    }

    #[test]
    fn karatsuba_matches_schoolbook(a in arb_ubig(40), b in arb_ubig(40)) {
        prop_assert_eq!(a.mul_karatsuba(&b), a.mul_schoolbook(&b));
    }

    #[test]
    fn u128_agreement(a in any::<u64>(), b in any::<u64>()) {
        let product = UBig::from(a) * UBig::from(b);
        prop_assert_eq!(product, UBig::from(a as u128 * b as u128));
    }

    #[test]
    fn shift_is_pow2_mul(a in arb_ubig(6), s in 0usize..300) {
        prop_assert_eq!(&a << s, &a * &UBig::pow2(s));
    }

    #[test]
    fn shr_then_shl_clears_low_bits(a in arb_ubig(6), s in 0usize..200) {
        let masked = &(&a >> s) << s;
        prop_assert!(masked <= a);
        let diff = &a - &masked;
        prop_assert!(diff < UBig::pow2(s.max(1)));
    }

    #[test]
    fn div_rem_reconstructs(a in arb_ubig(12), b in arb_ubig(6)) {
        prop_assume!(!b.is_zero());
        let (q, r) = a.div_rem(&b);
        prop_assert!(r < b);
        prop_assert_eq!(&(&q * &b) + &r, a);
    }

    #[test]
    fn barrett_matches_rem(a in arb_ubig(12), b in arb_ubig(6)) {
        prop_assume!(!b.is_zero());
        let reducer = BarrettReducer::new(b.clone()).unwrap();
        prop_assert_eq!(reducer.reduce(&a), a.rem_euclid(&b));
    }

    #[test]
    fn gcd_divides_both(a in arb_ubig(4), b in arb_ubig(4)) {
        prop_assume!(!a.is_zero() && !b.is_zero());
        let g = a.gcd(&b);
        prop_assert!(a.rem_euclid(&g).is_zero());
        prop_assert!(b.rem_euclid(&g).is_zero());
    }

    #[test]
    fn hex_roundtrip(a in arb_ubig(8)) {
        prop_assert_eq!(UBig::from_hex(&format!("{a:x}")).unwrap(), a);
    }

    #[test]
    fn decimal_roundtrip(a in arb_ubig(4)) {
        prop_assert_eq!(a.to_string().parse::<UBig>().unwrap(), a);
    }

    #[test]
    fn le_bytes_roundtrip(a in arb_ubig(8)) {
        prop_assert_eq!(UBig::from_le_bytes(&a.to_le_bytes()), a);
    }

    #[test]
    fn bits_at_reassembles(a in arb_ubig(6), m in 1u32..=32) {
        // Decompose into m-bit digits and reassemble: the SSA front-end
        // round-trip at the bigint level.
        let bits = a.bit_len();
        let digits = bits.div_ceil(m as usize).max(1);
        let mut acc = UBig::zero();
        for i in (0..digits).rev() {
            acc = (&acc << (m as usize)) + &UBig::from(a.bits_at(i * m as usize, m));
        }
        prop_assert_eq!(acc, a);
    }

    #[test]
    fn ibig_ring_ops(a in arb_ibig(), b in arb_ibig(), c in arb_ibig()) {
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
        prop_assert_eq!(&a + &b, &b + &a);
        prop_assert_eq!(&(&a - &b) + &b, a.clone());
        prop_assert_eq!(&a * &b, &b * &a);
    }

    #[test]
    fn ibig_sign_of_product(a in arb_ibig(), b in arb_ibig()) {
        let p = &a * &b;
        if a.is_zero() || b.is_zero() {
            prop_assert!(p.is_zero());
        } else {
            prop_assert_eq!(p.is_negative(), a.is_negative() != b.is_negative());
        }
    }

    #[test]
    fn cmp_consistent_with_sub(a in arb_ubig(6), b in arb_ubig(6)) {
        match a.cmp(&b) {
            std::cmp::Ordering::Less => prop_assert!(b.checked_sub(&a).is_ok() && a.checked_sub(&b).is_err()),
            _ => prop_assert!(a.checked_sub(&b).is_ok()),
        }
    }
}

#[test]
fn toom3_matches_schoolbook_large() {
    // One deterministic large case above the Toom-3 threshold (proptest
    // cases stay smaller for speed).
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(77);
    let a = UBig::random_bits(&mut rng, 64 * 300);
    let b = UBig::random_bits(&mut rng, 64 * 280);
    assert_eq!(a.mul_toom3(&b), a.mul_schoolbook(&b));
}

/// `len` limbs whose top limb is nonzero, filled by `pattern`: random,
/// runs of zero limbs between random ones, all ones, or a mix of zero,
/// all-ones and random limbs.
fn patterned_limbs(len: usize, pattern: u8, seed: u64) -> UBig {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut limbs: Vec<u64> = (0..len)
        .map(|i| match pattern {
            0 => rng.gen(),
            1 if (i / 7) % 2 == 0 => 0,
            1 => rng.gen(),
            2 => u64::MAX,
            _ => match rng.gen_range(0..3u32) {
                0 => 0,
                1 => u64::MAX,
                _ => rng.gen(),
            },
        })
        .collect();
    if let Some(top) = limbs.last_mut() {
        *top |= 1 << 63;
    }
    UBig::from_limbs(limbs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// `*` picks its algorithm by the shorter operand and multiplies a
    /// long one in short-sized blocks: every short side around both
    /// thresholds, against long sides up to keygen's 12,264 × 25 shape.
    #[test]
    fn unbalanced_dispatch_matches_schoolbook(
        short_index in 0usize..8,
        long_len in 1usize..=12_300,
        patterns in (0u8..4, 0u8..4),
        seed in any::<u64>(),
    ) {
        let short_len = [1, 2, 31, 32, 33, 191, 192, 193][short_index];
        let short = patterned_limbs(short_len, patterns.0, seed);
        let long = patterned_limbs(long_len, patterns.1, seed ^ 0x5eed);
        let expected = long.mul_schoolbook(&short);
        prop_assert_eq!(&long * &short, expected.clone());
        prop_assert_eq!(&short * &long, expected);
    }
}
