//! Property-based cross-checks between the transform implementations.

use he_field::{roots, Fp};
use he_ntt::kernels::{self, Direction};
use he_ntt::radix2k::{bit_reverse_permute, radix_stage};
use he_ntt::{naive, MixedRadixPlan, Radix2Plan, Radix2kPlan};
use proptest::prelude::*;

fn arb_vec(n: usize) -> impl Strategy<Value = Vec<Fp>> {
    proptest::collection::vec(any::<u64>().prop_map(Fp::new), n..=n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn radix2_matches_naive(v in arb_vec(32)) {
        let plan = Radix2Plan::new(32).unwrap();
        prop_assert_eq!(plan.forward(&v), naive::dft(&v, plan.omega()));
    }

    #[test]
    fn radix2_roundtrip(v in arb_vec(128)) {
        let plan = Radix2Plan::new(128).unwrap();
        prop_assert_eq!(plan.inverse(&plan.forward(&v)), v);
    }

    #[test]
    fn kernels_match_naive_64(v in arb_vec(64)) {
        prop_assert_eq!(
            kernels::ntt_small(&v, Direction::Forward).unwrap(),
            naive::dft(&v, roots::OMEGA_64)
        );
    }

    #[test]
    fn kernels_match_naive_16(v in arb_vec(16)) {
        prop_assert_eq!(
            kernels::ntt_small(&v, Direction::Forward).unwrap(),
            naive::dft(&v, roots::OMEGA_16)
        );
    }

    #[test]
    fn mixed_radix_matches_radix2(v in arb_vec(512)) {
        // 512 = 8·64, executed as the Eq. 1 recursion over exactly that
        // radix list; radix-2 and mixed-radix share the canonical root chain.
        let mixed = MixedRadixPlan::new(&[8, 64]).unwrap();
        let radix2 = Radix2Plan::new(512).unwrap();
        prop_assert_eq!(mixed.omega(), radix2.omega());
        prop_assert_eq!(mixed.forward(&v), radix2.forward(&v));
    }

    #[test]
    fn mixed_radix_roundtrip_1024(v in arb_vec(1024)) {
        let plan = MixedRadixPlan::new(&[64, 16]).unwrap();
        prop_assert_eq!(plan.inverse(&plan.forward(&v)), v);
    }

    #[test]
    fn convolution_theorem_pow2(
        a in arb_vec(64),
        b in arb_vec(64)
    ) {
        // The product dataflow on the production engine: two forward
        // transforms, the pointwise phase, one inverse.
        let plan = Radix2kPlan::new(64).unwrap();
        let mut c = plan.forward(&a);
        he_ntt::convolution::pointwise_assign(&mut c, &plan.forward(&b));
        plan.inverse_in_place(&mut c).unwrap();
        prop_assert_eq!(c, naive::cyclic_convolve(&a, &b));
    }

    #[test]
    fn parseval_like_dc_term(v in arb_vec(64)) {
        // F[0] is the plain sum of the inputs for any correct DFT.
        let f = kernels::ntt_small(&v, Direction::Forward).unwrap();
        let sum: Fp = v.iter().copied().sum();
        prop_assert_eq!(f[0], sum);
    }

    #[test]
    fn radix2k_matches_radix2_every_size(log_n in 1u32..=11, v in arb_vec(2048)) {
        // Sweeps every schedule shape up to 2048, including the
        // non-power-of-4 sizes that need mixed deg schedules
        // (128 → [4, 3], 2048 → [6, 5]); outputs must be bit-identical
        // to the radix-2 baseline in both directions.
        let n = 1usize << log_n;
        let v = &v[..n];
        let compiled = Radix2kPlan::new(n).unwrap();
        let baseline = Radix2Plan::new(n).unwrap();
        prop_assert_eq!(compiled.forward(v), baseline.forward(v));
        prop_assert_eq!(compiled.inverse(v), baseline.inverse(v));
    }

    #[test]
    fn radix2k_roundtrip(log_n in 1u32..=12, v in arb_vec(4096)) {
        let n = 1usize << log_n;
        let v = v[..n].to_vec();
        let plan = Radix2kPlan::new(n).unwrap();
        prop_assert_eq!(plan.inverse(&plan.forward(&v)), v);
    }

    #[test]
    fn bit_reversal_is_an_involution(log_n in 8u32..=13, v in arb_vec(8192)) {
        // Both sides of the 2^10 boundary between the swap loop and the
        // tiled kernel; element 1 must land on n/2 either way.
        let n = 1usize << log_n;
        let v = v[..n].to_vec();
        let mut x = v.clone();
        bit_reverse_permute(&mut x);
        prop_assert_eq!(x[n / 2], v[1]);
        bit_reverse_permute(&mut x);
        prop_assert_eq!(x, v);
    }

    #[test]
    fn radix_stage_chain_matches_radix2(v in arb_vec(256)) {
        // The public kernel entry point, chained with a deliberately
        // uneven deg split (2 + 3 + 3 layers), reproduces the radix-2
        // transform bit for bit.
        let omega = roots::root_of_unity(256).unwrap();
        let mut x = v.clone();
        bit_reverse_permute(&mut x);
        for (log_m, deg) in [(0, 2), (2, 3), (5, 3)] {
            radix_stage(&mut x, omega, log_m, deg).unwrap();
        }
        prop_assert_eq!(x, Radix2Plan::new(256).unwrap().forward(&v));
    }

    #[test]
    fn transform_is_linear(a in arb_vec(64), b in arb_vec(64), c in any::<u64>().prop_map(Fp::new)) {
        let fa = kernels::ntt_small(&a, Direction::Forward).unwrap();
        let fb = kernels::ntt_small(&b, Direction::Forward).unwrap();
        let combo: Vec<Fp> = a.iter().zip(&b).map(|(&x, &y)| x * c + y).collect();
        let fcombo = kernels::ntt_small(&combo, Direction::Forward).unwrap();
        for k in 0..64 {
            prop_assert_eq!(fcombo[k], fa[k] * c + fb[k]);
        }
    }
}
