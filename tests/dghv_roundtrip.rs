//! DGHV end-to-end: key generation, encryption, homomorphic evaluation and
//! decryption, up to the paper's 786,432-bit ciphertext scale.

use he_accel::{Karatsuba, SsaSoftware};
use he_dghv::{DghvParams, KeyPair};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn tiny_params_full_workflow() {
    let mut rng = StdRng::seed_from_u64(100);
    let keys = KeyPair::generate(DghvParams::tiny(), &mut rng).unwrap();
    // Roundtrip.
    for m in [false, true] {
        let ct = keys.public().encrypt(m, &mut rng);
        assert_eq!(keys.secret().decrypt(&ct), m);
    }
    // A small circuit: (a AND b) XOR c.
    let backend = Karatsuba;
    for a in [false, true] {
        for b in [false, true] {
            for c in [false, true] {
                let ca = keys.public().encrypt(a, &mut rng);
                let cb = keys.public().encrypt(b, &mut rng);
                let cc = keys.public().encrypt(c, &mut rng);
                let ab = keys.public().mul(&backend, &ca, &cb).unwrap();
                let out = keys.public().add(&ab, &cc);
                assert_eq!(keys.secret().decrypt(&out), (a & b) ^ c);
            }
        }
    }
}

#[test]
fn toy_params_with_ssa_backend() {
    let mut rng = StdRng::seed_from_u64(101);
    let params = DghvParams::toy();
    let keys = KeyPair::generate(params, &mut rng).unwrap();
    let backend = SsaSoftware::for_operand_bits(params.gamma as usize).unwrap();
    let ca = keys.public().encrypt(true, &mut rng);
    let cb = keys.public().encrypt(true, &mut rng);
    assert!(ca.bit_len() <= params.gamma as usize);
    let product = keys.public().mul(&backend, &ca, &cb).unwrap();
    assert!(keys.secret().decrypt(&product));
    let (_, actual_noise) = keys.secret().decrypt_with_noise(&product);
    assert!(actual_noise <= product.noise_bits());
}

#[test]
fn paper_scale_symmetric_ciphertexts() {
    // γ = 786,432: the exact operand size the accelerator was built for.
    let mut rng = StdRng::seed_from_u64(102);
    let params = DghvParams::small_paper();
    let keys = KeyPair::generate(params, &mut rng).unwrap();
    let sk = keys.secret();
    for m in [false, true] {
        let ct = sk.encrypt_symmetric(m, &mut rng);
        assert_eq!(ct.bit_len(), params.gamma as usize);
        assert_eq!(sk.decrypt(&ct), m);
    }
    // One homomorphic multiplication at full scale via SSA (the 786,432-bit
    // product of the paper's Table II).
    let backend = SsaSoftware::paper();
    let ca = sk.encrypt_symmetric(true, &mut rng);
    let cb = sk.encrypt_symmetric(true, &mut rng);
    let product = keys.public().mul(&backend, &ca, &cb).unwrap();
    assert!(sk.decrypt(&product));
}

#[test]
fn noise_estimates_remain_sound_through_a_deep_circuit() {
    let mut rng = StdRng::seed_from_u64(103);
    let keys = KeyPair::generate(DghvParams::toy(), &mut rng).unwrap();
    let backend = Karatsuba;
    let mut acc = keys.public().encrypt(true, &mut rng);
    let mut plain = true;
    for round in 0..keys.public().params().multiplicative_depth() {
        let fresh = keys.public().encrypt(true, &mut rng);
        acc = keys
            .public()
            .mul(&backend, &acc, &fresh)
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
        plain &= true;
        let (decrypted, actual) = keys.secret().decrypt_with_noise(&acc);
        assert_eq!(decrypted, plain, "round {round}");
        assert!(
            actual <= acc.noise_bits(),
            "round {round}: estimate unsound"
        );
    }
}

#[test]
fn keys_have_documented_shapes() {
    let mut rng = StdRng::seed_from_u64(104);
    let params = DghvParams::tiny();
    let keys = KeyPair::generate(params, &mut rng).unwrap();
    assert_eq!(keys.public().elements().len(), params.tau as usize);
    assert!(keys.public().modulus().bit_len() >= params.gamma as usize - 2);
    for x in keys.public().elements() {
        assert!(x < keys.public().modulus(), "x_i must stay below x_0");
    }
}
