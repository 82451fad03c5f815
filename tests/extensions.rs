//! Integration tests for the extension features: transform caching
//! (ref [25]), alternative transform orders (Section IV-b's radix-8/16/32
//! claim, as executed by the software recursion), and compressed public
//! keys (ref [34]) — each cross-checked against the core stack.

use he_accel::hwsim::perf::PerfModel;
use he_accel::prelude::*;
use he_dghv::{CompressedKeyPair, DghvParams, KeyPair, ModulusLadder};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn cached_products_are_bit_exact_at_paper_scale() {
    let mut rng = StdRng::seed_from_u64(0xCAC4E);
    let ssa = SsaMultiplier::paper();
    let a = UBig::random_bits(&mut rng, he_accel::ssa::PAPER_OPERAND_BITS);
    let b = UBig::random_bits(&mut rng, he_accel::ssa::PAPER_OPERAND_BITS);

    let expected = a.mul_karatsuba(&b);
    let ta = ssa.transform(&a).expect("paper-scale operand fits");
    let tb = ssa.transform(&b).expect("paper-scale operand fits");
    assert_eq!(ssa.multiply_transformed(&ta, &tb).unwrap(), expected);
    assert_eq!(ssa.multiply_one_cached(&ta, &b).unwrap(), expected);
}

#[test]
fn cached_product_stream_reuses_one_spectrum() {
    let mut rng = StdRng::seed_from_u64(0x5EC7);
    let ssa = SsaMultiplier::paper();
    let fixed = UBig::random_bits(&mut rng, 300_000);
    let spectrum = ssa.transform(&fixed).unwrap();
    for _ in 0..3 {
        let b = UBig::random_bits(&mut rng, 300_000);
        assert_eq!(
            ssa.multiply_one_cached(&spectrum, &b).unwrap(),
            fixed.mul_karatsuba(&b)
        );
    }
}

#[test]
fn caching_model_matches_software_transform_counts() {
    // fresh = 2 is the plain product; each cached spectrum removes exactly
    // one T_FFT from the model — mirroring the software API, which removes
    // exactly one forward transform.
    let model = PerfModel::new(AcceleratorConfig::paper());
    assert_eq!(
        model.cached_multiplication_cycles(2),
        model.multiplication_cycles()
    );
    for fresh in [0u64, 1] {
        assert_eq!(
            model.multiplication_cycles() - model.cached_multiplication_cycles(fresh),
            (2 - fresh) * model.fft_cycles()
        );
    }
}

#[test]
fn flexible_orders_compute_correct_transforms() {
    // Each alternative order is a valid mixed-radix factorization that the
    // software NTT executes, and the result must match the reference
    // radix-2 transform.
    use he_accel::field::Fp;
    use he_accel::ntt::{MixedRadixPlan, Radix2Plan};

    for stages in [vec![64usize, 16, 8], vec![32, 32, 8], vec![16, 16, 16]] {
        let n: usize = stages.iter().product();
        let mixed = MixedRadixPlan::new(&stages).expect("valid radices");
        let radix2 = Radix2Plan::new(n).unwrap();
        let input: Vec<Fp> = (0..n as u64)
            .map(|i| Fp::new(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
            .collect();
        assert_eq!(
            mixed.forward(&input),
            radix2.forward(&input),
            "order {stages:?} disagrees with radix-2"
        );
    }
}

#[test]
fn compressed_keys_run_the_full_pipeline_on_the_ssa_backend() {
    // Compressed keygen → expansion → encryption → homomorphic AND on the
    // Schönhage–Strassen backend — the complete paper pipeline with the
    // [34] extension in front.
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    let keys = CompressedKeyPair::generate(DghvParams::tiny(), 42, &mut rng).unwrap();
    let public = keys.compressed().expand();
    let backend = SsaSoftware::for_operand_bits(keys.secret().params().gamma as usize).unwrap();
    for a in [false, true] {
        for b in [false, true] {
            let ca = public.encrypt(a, &mut rng);
            let cb = public.encrypt(b, &mut rng);
            let and = public.mul(&backend, &ca, &cb).unwrap();
            assert_eq!(keys.secret().decrypt(&and), a & b, "{a} AND {b}");
        }
    }
    assert!(keys.compressed().compression_ratio() > 1.5);
}

#[test]
fn compressed_and_plain_keys_have_identical_ciphertext_shape() {
    let mut rng = StdRng::seed_from_u64(0xD00D);
    let params = DghvParams::tiny();
    let compressed = CompressedKeyPair::generate(params, 7, &mut rng).unwrap();
    let plain = KeyPair::generate(params, &mut rng).unwrap();
    let ct_c = compressed.compressed().expand().encrypt(true, &mut rng);
    let ct_p = plain.public().encrypt(true, &mut rng);
    assert!(ct_c.bit_len() <= params.gamma as usize + 1);
    assert!(ct_p.bit_len() <= params.gamma as usize + 1);
    assert_eq!(ct_c.noise_bits(), ct_p.noise_bits());
}

#[test]
fn ladder_compresses_results_from_a_compressed_key() {
    // Both [34] techniques composed: compressed keygen, expansion,
    // evaluation, then ciphertext laddering of the result.
    let mut rng = StdRng::seed_from_u64(0x1ADD);
    let keys = CompressedKeyPair::generate(DghvParams::tiny(), 99, &mut rng).unwrap();
    let ladder = ModulusLadder::generate(keys.secret(), &mut rng);
    let public = keys.compressed().expand();
    let backend = SsaSoftware::for_operand_bits(keys.secret().params().gamma as usize).unwrap();
    let ca = public.encrypt(true, &mut rng);
    let cb = public.encrypt(true, &mut rng);
    let and = public.mul(&backend, &ca, &cb).unwrap();
    let small = ladder.compress_fully(&and).unwrap();
    assert!(small.bit_len() < and.bit_len() / 2);
    assert!(keys.secret().decrypt(&small));
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Cached products agree with plain products for arbitrary operand
        /// sizes, including extreme asymmetry.
        #[test]
        fn cached_equals_plain(bits_a in 1usize..4000, bits_b in 1usize..4000, seed: u64) {
            let mut rng = StdRng::seed_from_u64(seed);
            let ssa = SsaMultiplier::for_operand_bits(4000).unwrap();
            let a = UBig::random_bits(&mut rng, bits_a);
            let b = UBig::random_bits(&mut rng, bits_b);
            let ta = ssa.transform(&a).unwrap();
            let tb = ssa.transform(&b).unwrap();
            let expected = ssa.multiply(&a, &b).unwrap();
            prop_assert_eq!(ssa.multiply_one_cached(&ta, &b).unwrap(), expected.clone());
            prop_assert_eq!(ssa.multiply_transformed(&ta, &tb).unwrap(), expected);
        }

        /// The modulus ladder never disturbs the plaintext, at any level.
        #[test]
        fn ladder_preserves_plaintext(seed: u64, m: bool) {
            let mut rng = StdRng::seed_from_u64(seed);
            let keys = KeyPair::generate(DghvParams::tiny(), &mut rng).unwrap();
            let ladder = ModulusLadder::generate(keys.secret(), &mut rng);
            let ct = keys.public().encrypt(m, &mut rng);
            for level in 0..ladder.num_rungs() {
                prop_assert_eq!(keys.secret().decrypt(&ladder.compress(&ct, level)), m);
            }
        }

        /// Seed-compressed keys expand to working keys for any seed.
        #[test]
        fn compressed_keys_roundtrip(seed: u64, pk_seed: u64) {
            let mut rng = StdRng::seed_from_u64(seed);
            let keys =
                CompressedKeyPair::generate(DghvParams::tiny(), pk_seed, &mut rng).unwrap();
            let public = keys.compressed().expand();
            for m in [false, true] {
                let ct = public.encrypt(m, &mut rng);
                prop_assert_eq!(keys.secret().decrypt(&ct), m);
            }
        }
    }
}
