//! Batched DGHV: many plaintext bits per ciphertext via the CRT.
//!
//! The paper's related work cites Coron, Lepoint and Tibouchi's *"Batch
//! fully homomorphic encryption over the integers"* (\[22\]): instead of a
//! single secret `p`, use `k` coprime secrets `p_0 … p_{k−1}`; a ciphertext
//! encrypts the bit vector `(m_0 … m_{k−1})` as a number congruent to
//! `m_j + 2·r_j (mod p_j)` for every slot `j` simultaneously. Homomorphic
//! addition/multiplication then act **slot-wise** — SIMD over encrypted
//! bits — while the ciphertext arithmetic is still the big-integer
//! multiplication the accelerator provides.
//!
//! Construction (symmetric variant): with `π = Π p_j` and
//! `q` random, a fresh ciphertext is
//! `c = CRT(m_0 + 2r_0, …, m_{k−1} + 2r_{k−1}) + π·q`, where `CRT`
//! lifts the per-slot residues to `[0, π)`.

use he_accel::{Multiplier, ProductJob};
use he_bigint::UBig;
use rand::Rng;

use crate::error::DghvError;
use crate::keys::products_against;
use crate::params::DghvParams;

/// Parameters of the batched scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BatchParams {
    /// Per-slot scheme parameters (ρ, η, γ apply to each slot's secret).
    pub base: DghvParams,
    /// Number of plaintext slots `k`.
    pub slots: u32,
}

impl BatchParams {
    /// A fast, insecure test configuration with 4 slots.
    pub fn tiny() -> BatchParams {
        BatchParams {
            base: DghvParams::tiny(),
            slots: 4,
        }
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`DghvError::InvalidParams`] if the base parameters are
    /// inconsistent, there are no slots, or the secrets cannot fit the
    /// ciphertext size (`k·η` must stay well below `γ`).
    pub fn validate(&self) -> Result<(), DghvError> {
        self.base.validate()?;
        if self.slots == 0 {
            return Err(DghvError::InvalidParams {
                reason: "at least one slot is required".into(),
            });
        }
        if self.slots * self.base.eta * 2 > self.base.gamma {
            return Err(DghvError::InvalidParams {
                reason: format!(
                    "{} slots of {}-bit secrets cannot fit {}-bit ciphertexts",
                    self.slots, self.base.eta, self.base.gamma
                ),
            });
        }
        Ok(())
    }
}

/// The batched secret key: `k` coprime odd secrets and the precomputed CRT
/// basis.
#[derive(Debug, Clone)]
pub struct BatchSecretKey {
    params: BatchParams,
    secrets: Vec<UBig>,
    /// `π = Π p_j`.
    product: UBig,
    /// CRT basis: `b_j ≡ 1 (mod p_j)`, `b_j ≡ 0 (mod p_i), i ≠ j`.
    basis: Vec<UBig>,
}

/// A batched ciphertext with slot-wise noise tracking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchCiphertext {
    value: UBig,
    noise_bits: u32,
}

impl BatchCiphertext {
    /// The ciphertext integer.
    pub fn value(&self) -> &UBig {
        &self.value
    }

    /// Conservative per-slot noise estimate in bits.
    pub fn noise_bits(&self) -> u32 {
        self.noise_bits
    }
}

impl BatchSecretKey {
    /// Generates `k` pairwise coprime secrets.
    ///
    /// # Errors
    ///
    /// Returns [`DghvError::InvalidParams`] from parameter validation.
    pub fn generate<R: Rng + ?Sized>(
        params: BatchParams,
        rng: &mut R,
    ) -> Result<BatchSecretKey, DghvError> {
        params.validate()?;
        let mut secrets: Vec<UBig> = Vec::with_capacity(params.slots as usize);
        while secrets.len() < params.slots as usize {
            let mut p = UBig::random_bits(rng, params.base.eta as usize);
            p.set_bit(0, true);
            // Keep the set pairwise coprime (overwhelmingly true already
            // for random odd numbers; enforced for correctness).
            if secrets.iter().all(|q| p.gcd(q).is_one()) {
                secrets.push(p);
            }
        }
        let product = secrets.iter().fold(UBig::one(), |acc, p| &acc * p);
        let basis = secrets
            .iter()
            .map(|p| {
                let others = &product / p;
                let inv = others
                    .mod_inverse(p)
                    .expect("pairwise coprime by construction");
                &others * &inv
            })
            .collect();
        Ok(BatchSecretKey {
            params,
            secrets,
            product,
            basis,
        })
    }

    /// The parameters.
    pub fn params(&self) -> BatchParams {
        self.params
    }

    /// The number of plaintext slots.
    pub fn slots(&self) -> usize {
        self.params.slots as usize
    }

    /// Encrypts a bit vector (one bit per slot).
    ///
    /// # Panics
    ///
    /// Panics if `bits.len()` differs from the slot count.
    pub fn encrypt<R: Rng + ?Sized>(&self, bits: &[bool], rng: &mut R) -> BatchCiphertext {
        assert_eq!(bits.len(), self.slots(), "one bit per slot");
        // CRT-combine the per-slot payloads m_j + 2 r_j.
        let mut acc = UBig::zero();
        for (j, &m) in bits.iter().enumerate() {
            let r = UBig::random_bits(rng, self.params.base.rho as usize);
            let payload = &(&r << 1) + &UBig::from(m as u64);
            acc += &(&self.basis[j] * &payload);
        }
        let acc = acc.rem_euclid(&self.product);
        // Blind with a multiple of π up to γ bits.
        let q_bits = self.params.base.gamma as usize - self.product.bit_len();
        let q = UBig::random_bits(rng, q_bits);
        BatchCiphertext {
            value: &acc + &(&self.product * &q),
            noise_bits: self.params.base.rho + 2,
        }
    }

    /// Decrypts all slots.
    pub fn decrypt(&self, ct: &BatchCiphertext) -> Vec<bool> {
        self.secrets
            .iter()
            .map(|p| {
                let r = ct.value().rem_euclid(p);
                let twice = &r << 1;
                if twice > *p {
                    !(p - &r).is_even()
                } else {
                    !r.is_even()
                }
            })
            .collect()
    }

    /// Slot-wise XOR: plain ciphertext addition.
    pub fn add(&self, a: &BatchCiphertext, b: &BatchCiphertext) -> BatchCiphertext {
        BatchCiphertext {
            value: a.value() + b.value(),
            noise_bits: a.noise_bits.max(b.noise_bits) + 1,
        }
    }

    /// Slot-wise AND: ciphertext multiplication through the chosen backend
    /// (for paper-scale parameters, the accelerator's 786,432-bit product).
    ///
    /// # Errors
    ///
    /// Returns [`DghvError::NoiseBudgetExhausted`] if a slot's noise would
    /// reach its ceiling, and [`DghvError::Multiply`] if the backend fails
    /// the product.
    pub fn mul<M: Multiplier + ?Sized>(
        &self,
        backend: &M,
        a: &BatchCiphertext,
        b: &BatchCiphertext,
    ) -> Result<BatchCiphertext, DghvError> {
        let would_be = a.noise_bits + b.noise_bits + 1;
        if would_be >= self.params.base.noise_ceiling_bits() {
            return Err(DghvError::NoiseBudgetExhausted {
                would_be_bits: would_be,
                ceiling_bits: self.params.base.noise_ceiling_bits(),
            });
        }
        // The `_into` form lets pooled backends (SSA) keep the 786,432-bit
        // product pipeline allocation-free.
        let mut value = UBig::zero();
        backend.multiply_job_into(&ProductJob::Raw(a.value(), b.value()), &mut value)?;
        Ok(BatchCiphertext {
            value,
            noise_bits: would_be,
        })
    }

    /// Slot-wise AND of one SIMD ciphertext against a whole batch — the
    /// server shape the accelerator targets: `slots × others.len()`
    /// plaintext ANDs ride on `others.len()` big-integer products, and the
    /// recurring operand's forward transform is paid **once** for the
    /// batch ([`Multiplier::prepare`]).
    ///
    /// # Errors
    ///
    /// Returns [`DghvError::NoiseBudgetExhausted`] if any pairing would
    /// reach a slot's noise ceiling; checked for the whole batch before
    /// any product runs. Returns [`DghvError::Multiply`] if the backend
    /// fails the preparation or any product.
    pub fn mul_many<M: Multiplier + ?Sized>(
        &self,
        backend: &M,
        a: &BatchCiphertext,
        others: &[BatchCiphertext],
    ) -> Result<Vec<BatchCiphertext>, DghvError> {
        if others.is_empty() {
            // Don't pay the preparation transform for zero products.
            return Ok(Vec::new());
        }
        for b in others {
            let would_be = a.noise_bits + b.noise_bits + 1;
            if would_be >= self.params.base.noise_ceiling_bits() {
                return Err(DghvError::NoiseBudgetExhausted {
                    would_be_bits: would_be,
                    ceiling_bits: self.params.base.noise_ceiling_bits(),
                });
            }
        }
        let values: Vec<&UBig> = others.iter().map(BatchCiphertext::value).collect();
        let products = products_against(backend, a.value(), &values)?;
        Ok(others
            .iter()
            .zip(products)
            .map(|(b, value)| BatchCiphertext {
                value,
                noise_bits: a.noise_bits + b.noise_bits + 1,
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use he_accel::{Karatsuba, SsaSoftware};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(seed: u64) -> (BatchSecretKey, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let key = BatchSecretKey::generate(BatchParams::tiny(), &mut rng).unwrap();
        (key, rng)
    }

    #[test]
    fn params_validation() {
        BatchParams::tiny().validate().unwrap();
        let mut p = BatchParams::tiny();
        p.slots = 0;
        assert!(p.validate().is_err());
        let mut p = BatchParams::tiny();
        p.slots = 100; // 100 × 96 × 2 > 800
        assert!(p.validate().is_err());
    }

    #[test]
    fn roundtrip_all_slot_patterns() {
        let (key, mut rng) = setup(1);
        for pattern in 0u32..16 {
            let bits: Vec<bool> = (0..4).map(|i| pattern >> i & 1 == 1).collect();
            let ct = key.encrypt(&bits, &mut rng);
            assert_eq!(key.decrypt(&ct), bits, "pattern {pattern:04b}");
        }
    }

    #[test]
    fn slotwise_xor() {
        let (key, mut rng) = setup(2);
        let a = [true, false, true, false];
        let b = [true, true, false, false];
        let ca = key.encrypt(&a, &mut rng);
        let cb = key.encrypt(&b, &mut rng);
        let sum = key.add(&ca, &cb);
        let expected: Vec<bool> = a.iter().zip(&b).map(|(x, y)| x ^ y).collect();
        assert_eq!(key.decrypt(&sum), expected);
    }

    #[test]
    fn slotwise_and() {
        let (key, mut rng) = setup(3);
        let a = [true, false, true, true];
        let b = [true, true, false, true];
        let ca = key.encrypt(&a, &mut rng);
        let cb = key.encrypt(&b, &mut rng);
        let product = key.mul(&Karatsuba, &ca, &cb).unwrap();
        let expected: Vec<bool> = a.iter().zip(&b).map(|(x, y)| x & y).collect();
        assert_eq!(key.decrypt(&product), expected);
    }

    #[test]
    fn simd_depth_two_circuit() {
        // (a AND b) XOR c, all four slots in parallel.
        let (key, mut rng) = setup(4);
        let a = [true, true, false, false];
        let b = [true, false, true, false];
        let c = [false, true, true, false];
        let ca = key.encrypt(&a, &mut rng);
        let cb = key.encrypt(&b, &mut rng);
        let cc = key.encrypt(&c, &mut rng);
        let ab = key.mul(&Karatsuba, &ca, &cb).unwrap();
        let out = key.add(&ab, &cc);
        let expected: Vec<bool> = (0..4).map(|i| (a[i] & b[i]) ^ c[i]).collect();
        assert_eq!(key.decrypt(&out), expected);
    }

    #[test]
    fn mul_many_matches_individual_products() {
        let (key, mut rng) = setup(7);
        let mask = [true, false, true, true];
        let cmask = key.encrypt(&mask, &mut rng);
        let inputs: Vec<[bool; 4]> = vec![
            [true, true, false, false],
            [false, true, true, true],
            [true, false, false, true],
        ];
        let cts: Vec<BatchCiphertext> = inputs.iter().map(|v| key.encrypt(v, &mut rng)).collect();
        let batch = key.mul_many(&Karatsuba, &cmask, &cts).unwrap();
        assert_eq!(batch.len(), cts.len());
        for ((product, ct), bits) in batch.iter().zip(&cts).zip(&inputs) {
            let single = key.mul(&Karatsuba, &cmask, ct).unwrap();
            assert_eq!(product.value(), single.value());
            assert_eq!(product.noise_bits(), single.noise_bits());
            let expected: Vec<bool> = mask.iter().zip(bits).map(|(m, b)| m & b).collect();
            assert_eq!(key.decrypt(product), expected);
        }
    }

    #[test]
    fn mul_many_uses_the_cached_spectrum_on_ssa() {
        let (key, mut rng) = setup(8);
        let gamma = key.params().base.gamma;
        let backend = SsaSoftware::for_operand_bits(gamma as usize).unwrap();
        let a = key.encrypt(&[true, true, false, true], &mut rng);
        let bs: Vec<BatchCiphertext> = (0..3).map(|_| key.encrypt(&[true; 4], &mut rng)).collect();
        let cached = key.mul_many(&backend, &a, &bs).unwrap();
        let plain = key.mul_many(&Karatsuba, &a, &bs).unwrap();
        assert_eq!(cached, plain, "cached batch must be bit-exact");
    }

    #[test]
    fn mul_many_rejects_doomed_batches_up_front() {
        let (key, mut rng) = setup(9);
        let mut noisy = key.encrypt(&[true; 4], &mut rng);
        let fresh = key.encrypt(&[true; 4], &mut rng);
        while let Ok(next) = key.mul(&Karatsuba, &noisy, &fresh) {
            noisy = next;
        }
        let err = key
            .mul_many(&Karatsuba, &noisy, std::slice::from_ref(&fresh))
            .unwrap_err();
        assert!(matches!(err, DghvError::NoiseBudgetExhausted { .. }));
        // An empty batch is trivially fine.
        assert!(key.mul_many(&Karatsuba, &fresh, &[]).unwrap().is_empty());
    }

    #[test]
    fn ciphertext_sized_to_gamma() {
        let (key, mut rng) = setup(5);
        let ct = key.encrypt(&[true; 4], &mut rng);
        let gamma = key.params().base.gamma as usize;
        assert!(ct.value().bit_len() <= gamma);
        assert!(ct.value().bit_len() >= gamma - 64);
    }

    #[test]
    fn noise_budget_enforced() {
        let (key, mut rng) = setup(6);
        let mut acc = key.encrypt(&[true; 4], &mut rng);
        let other = key.encrypt(&[true; 4], &mut rng);
        for _ in 0..20 {
            match key.mul(&Karatsuba, &acc, &other) {
                Ok(next) => {
                    assert_eq!(key.decrypt(&next), vec![true; 4]);
                    acc = next;
                }
                Err(DghvError::NoiseBudgetExhausted { .. }) => return,
                Err(e) => panic!("unexpected: {e}"),
            }
        }
        panic!("budget never exhausted");
    }
}
