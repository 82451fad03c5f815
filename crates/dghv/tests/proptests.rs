//! Property-based tests: homomorphic identities of the DGHV scheme under
//! random messages and randomness seeds.

use he_accel::Karatsuba;
use he_dghv::{DghvParams, KeyPair};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn roundtrip_any_seed(seed in any::<u64>(), m in any::<bool>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let keys = KeyPair::generate(DghvParams::tiny(), &mut rng).unwrap();
        let ct = keys.public().encrypt(m, &mut rng);
        prop_assert_eq!(keys.secret().decrypt(&ct), m);
    }

    #[test]
    fn xor_homomorphism(seed in any::<u64>(), bits in proptest::collection::vec(any::<bool>(), 1..12)) {
        let mut rng = StdRng::seed_from_u64(seed);
        let keys = KeyPair::generate(DghvParams::tiny(), &mut rng).unwrap();
        let mut acc = keys.public().encrypt(bits[0], &mut rng);
        let mut expected = bits[0];
        for &b in &bits[1..] {
            let ct = keys.public().encrypt(b, &mut rng);
            acc = keys.public().add(&acc, &ct);
            expected ^= b;
        }
        prop_assert_eq!(keys.secret().decrypt(&acc), expected);
    }

    #[test]
    fn and_homomorphism(seed in any::<u64>(), a in any::<bool>(), b in any::<bool>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let keys = KeyPair::generate(DghvParams::tiny(), &mut rng).unwrap();
        let ca = keys.public().encrypt(a, &mut rng);
        let cb = keys.public().encrypt(b, &mut rng);
        let product = keys.public().mul(&Karatsuba, &ca, &cb).unwrap();
        prop_assert_eq!(keys.secret().decrypt(&product), a & b);
    }

    #[test]
    fn majority_of_three(seed in any::<u64>(), a in any::<bool>(), b in any::<bool>(), c in any::<bool>()) {
        // maj(a,b,c) = ab XOR ac XOR bc: depth-1 circuit, the classic DGHV demo.
        let mut rng = StdRng::seed_from_u64(seed);
        let keys = KeyPair::generate(DghvParams::tiny(), &mut rng).unwrap();
        let (ca, cb, cc) = (
            keys.public().encrypt(a, &mut rng),
            keys.public().encrypt(b, &mut rng),
            keys.public().encrypt(c, &mut rng),
        );
        let backend = Karatsuba;
        let ab = keys.public().mul(&backend, &ca, &cb).unwrap();
        let ac = keys.public().mul(&backend, &ca, &cc).unwrap();
        let bc = keys.public().mul(&backend, &cb, &cc).unwrap();
        let result = keys.public().add(&keys.public().add(&ab, &ac), &bc);
        let expected = (a & b) ^ (a & c) ^ (b & c);
        prop_assert_eq!(keys.secret().decrypt(&result), expected);
    }
}
