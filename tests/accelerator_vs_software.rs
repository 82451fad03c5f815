//! The simulated accelerator is bit-exact against the software stack, from
//! single transforms up to full paper-scale multiplications, including the
//! threaded PE execution.

use he_accel::field::Fp;
use he_accel::hwsim::distributed::DistributedNtt;
use he_accel::ntt::{Ntt64k, N64K};
use he_accel::prelude::*;
use he_accel::Karatsuba;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_points(seed: u64) -> Vec<Fp> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..N64K).map(|_| Fp::new(rng.gen())).collect()
}

#[test]
fn distributed_transform_matches_reference_on_dense_input() {
    let dist = DistributedNtt::new(AcceleratorConfig::paper()).unwrap();
    let reference = Ntt64k::new();
    let input = random_points(1);
    let (out, _) = dist.forward(&input);
    assert_eq!(out, reference.forward(&input));
    let (back, _) = dist.inverse(&out);
    assert_eq!(back, input);
}

#[test]
fn threaded_pes_match_reference_on_dense_input() {
    let dist = DistributedNtt::new(AcceleratorConfig::paper()).unwrap();
    let reference = Ntt64k::new();
    let input = random_points(2);
    assert_eq!(dist.forward_parallel(&input), reference.forward(&input));
}

#[test]
fn accelerator_multiplication_is_bit_exact_at_paper_scale() {
    let mut rng = StdRng::seed_from_u64(3);
    let bits = he_accel::ssa::PAPER_OPERAND_BITS;
    let a = UBig::random_bits(&mut rng, bits);
    let b = UBig::random_bits(&mut rng, bits);
    let hw = HardwareSim::paper();
    let (product, report) = hw.multiply_with_report(&a, &b).unwrap();
    assert_eq!(product, Karatsuba.multiply(&a, &b).unwrap());
    assert_eq!(report.total_cycles(), 24_480);
}

#[test]
fn accelerator_agrees_with_ssa_software_across_sizes() {
    let mut rng = StdRng::seed_from_u64(4);
    let hw = HardwareSim::paper();
    let sw = SsaSoftware::paper();
    for bits in [1usize, 64, 1000, 24_000, 300_000] {
        let a = UBig::random_bits(&mut rng, bits);
        let b = UBig::random_bits(&mut rng, bits);
        assert_eq!(
            hw.multiply(&a, &b).unwrap(),
            sw.multiply(&a, &b).unwrap(),
            "bits = {bits}"
        );
    }
}

#[test]
fn dghv_homomorphic_and_on_the_accelerator() {
    // The paper's actual use case: a DGHV ciphertext multiplication
    // executed by the simulated hardware.
    use he_dghv::{DghvParams, KeyPair};

    let mut rng = StdRng::seed_from_u64(5);
    let keys = KeyPair::generate(DghvParams::tiny(), &mut rng).unwrap();
    let backend = HardwareSim::paper();
    for a in [false, true] {
        for b in [false, true] {
            let ca = keys.public().encrypt(a, &mut rng);
            let cb = keys.public().encrypt(b, &mut rng);
            let product = keys.public().mul(&backend, &ca, &cb).unwrap();
            assert_eq!(keys.secret().decrypt(&product), a & b, "{a} AND {b}");
        }
    }
}
