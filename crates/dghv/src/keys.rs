//! Key generation, encryption, decryption, and homomorphic evaluation.

use he_accel::{Multiplier, MultiplyError, ProductJob};
use he_bigint::{BarrettReducer, UBig};
use rand::Rng;

use crate::ciphertext::Ciphertext;
use crate::error::DghvError;
use crate::params::DghvParams;

/// `a · b` for every `b`, with `a` prepared **once** (on a caching
/// backend its forward transform is paid a single time) and the whole
/// sweep run as one batch.
pub(crate) fn products_against<M: Multiplier + ?Sized>(
    backend: &M,
    a: &UBig,
    bs: &[&UBig],
) -> Result<Vec<UBig>, MultiplyError> {
    let prepared = backend.prepare(a)?;
    let jobs: Vec<ProductJob<'_>> = bs
        .iter()
        .map(|&b| ProductJob::OnePrepared(&prepared, b))
        .collect();
    let mut products = vec![UBig::zero(); jobs.len()];
    backend.multiply_batch_into(&jobs, &mut products)?;
    Ok(products)
}

/// The secret key: an odd η-bit integer `p`.
#[derive(Debug, Clone)]
pub struct SecretKey {
    p: UBig,
    params: DghvParams,
}

/// The public key: the exact multiple `x_0 = q_0·p` (public modulus) and τ
/// noisy multiples `x_i = q_i·p + 2·r_i`.
#[derive(Debug, Clone)]
pub struct PublicKey {
    params: DghvParams,
    x0: UBig,
    elements: Vec<UBig>,
    reducer: BarrettReducer,
}

/// A generated key pair.
#[derive(Debug, Clone)]
pub struct KeyPair {
    secret: SecretKey,
    public: PublicKey,
}

impl KeyPair {
    /// Generates keys for the given parameters.
    ///
    /// # Errors
    ///
    /// Returns [`DghvError::InvalidParams`] if the parameters are
    /// inconsistent.
    pub fn generate<R: Rng + ?Sized>(
        params: DghvParams,
        rng: &mut R,
    ) -> Result<KeyPair, DghvError> {
        params.validate()?;

        // Secret p: odd, exactly η bits.
        let mut p = UBig::random_bits(rng, params.eta as usize);
        p.set_bit(0, true);

        // Public modulus x_0 = q_0 · p with γ-bit magnitude.
        let q0 = UBig::random_bits(rng, (params.gamma - params.eta) as usize);
        let x0 = &q0 * &p;

        // Noisy public elements x_i = q_i·p + 2·r_i < x_0.
        let mut elements = Vec::with_capacity(params.tau as usize);
        for _ in 0..params.tau {
            let qi = UBig::random_below(rng, &q0);
            let ri = UBig::random_bits(rng, params.rho as usize);
            elements.push(&(&qi * &p) + &(&ri << 1));
        }

        let reducer = BarrettReducer::new(x0.clone()).expect("x0 is nonzero");
        Ok(KeyPair {
            secret: SecretKey { p, params },
            public: PublicKey {
                params,
                x0,
                elements,
                reducer,
            },
        })
    }

    /// The secret key.
    pub fn secret(&self) -> &SecretKey {
        &self.secret
    }

    /// The public key.
    pub fn public(&self) -> &PublicKey {
        &self.public
    }

    /// Splits the pair into its parts.
    pub fn into_parts(self) -> (SecretKey, PublicKey) {
        (self.secret, self.public)
    }
}

impl SecretKey {
    /// Crate-internal constructor (used by the compressed-key generation in
    /// [`crate::compress`]).
    pub(crate) fn from_parts(p: UBig, params: DghvParams) -> SecretKey {
        SecretKey { p, params }
    }

    /// Crate-internal access to the secret integer `p` (used by the
    /// modulus-ladder generation in [`crate::ladder`] and by tests that
    /// verify the `x_i ≡ 2r_i (mod p)` invariant).
    pub(crate) fn raw_p(&self) -> &UBig {
        &self.p
    }

    /// The parameters the key was generated for.
    pub fn params(&self) -> DghvParams {
        self.params
    }

    /// Decrypts a ciphertext: `(c mods p) mod 2`.
    pub fn decrypt(&self, ct: &Ciphertext) -> bool {
        self.decrypt_with_noise(ct).0
    }

    /// Decrypts and also reports the *actual* noise magnitude in bits
    /// (`log2 |c mods p|`), useful for validating the public noise
    /// estimate.
    pub fn decrypt_with_noise(&self, ct: &Ciphertext) -> (bool, u32) {
        let r = ct.value().rem_euclid(&self.p);
        // Centered remainder: r − p if r > p/2.
        let twice = &r << 1;
        if twice > self.p {
            let magnitude = &self.p - &r;
            (!magnitude.is_even(), magnitude.bit_len() as u32)
        } else {
            (!r.is_even(), r.bit_len() as u32)
        }
    }

    /// Symmetric (secret-key) encryption `c = q·p + 2r + m`: same
    /// ciphertext shape as the public-key path but without the subset sum —
    /// used to reach paper-scale γ quickly in benchmarks.
    pub fn encrypt_symmetric<R: Rng + ?Sized>(&self, message: bool, rng: &mut R) -> Ciphertext {
        let q = UBig::random_bits(rng, (self.params.gamma - self.params.eta) as usize);
        let r = UBig::random_bits(rng, self.params.rho as usize);
        let mut c = &(&q * &self.p) + &(&r << 1);
        if message {
            c += &UBig::one();
        }
        Ciphertext::new(c, self.params.rho + 1)
    }
}

impl PublicKey {
    /// Crate-internal constructor (used by the compressed-key expansion in
    /// [`crate::compress`]).
    pub(crate) fn from_parts(params: DghvParams, x0: UBig, elements: Vec<UBig>) -> PublicKey {
        let reducer = BarrettReducer::new(x0.clone()).expect("x0 is nonzero");
        PublicKey {
            params,
            x0,
            elements,
            reducer,
        }
    }

    /// The parameters the key was generated for.
    pub fn params(&self) -> DghvParams {
        self.params
    }

    /// The public modulus `x_0`.
    pub fn modulus(&self) -> &UBig {
        &self.x0
    }

    /// The noisy public elements `x_1 … x_τ`.
    pub fn elements(&self) -> &[UBig] {
        &self.elements
    }

    /// Noise ceiling in bits; a ciphertext at or above this no longer
    /// decrypts reliably.
    pub fn noise_ceiling_bits(&self) -> u32 {
        self.params.noise_ceiling_bits()
    }

    /// Encrypts one bit: `c = (m + 2r + 2·Σ_{i∈S} x_i) mod x_0` for a
    /// random subset `S`.
    pub fn encrypt<R: Rng + ?Sized>(&self, message: bool, rng: &mut R) -> Ciphertext {
        let mut acc = UBig::from(message as u64);
        let r = UBig::random_bits(rng, self.params.rho as usize);
        acc += &(&r << 1);
        for x in &self.elements {
            if rng.gen::<bool>() {
                acc += &(x << 1);
            }
        }
        Ciphertext::new(self.reducer.reduce(&acc), self.params.fresh_noise_bits())
    }

    /// Homomorphic XOR: `(c_1 + c_2) mod x_0`.
    pub fn add(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        let sum = a.value() + b.value();
        Ciphertext::new(
            self.reducer.reduce(&sum),
            a.noise_bits().max(b.noise_bits()) + 1,
        )
    }

    /// Homomorphic AND: `(c_1 · c_2) mod x_0`, multiplied by the chosen
    /// backend — for the paper's parameters this is the 786,432-bit product
    /// the accelerator exists for.
    ///
    /// # Errors
    ///
    /// Returns [`DghvError::NoiseBudgetExhausted`] if the product's noise
    /// estimate would reach the decryption ceiling, and
    /// [`DghvError::Multiply`] if the backend fails the product.
    pub fn mul<M: Multiplier + ?Sized>(
        &self,
        backend: &M,
        a: &Ciphertext,
        b: &Ciphertext,
    ) -> Result<Ciphertext, DghvError> {
        let would_be = a.noise_bits() + b.noise_bits() + 1;
        if would_be >= self.noise_ceiling_bits() {
            return Err(DghvError::NoiseBudgetExhausted {
                would_be_bits: would_be,
                ceiling_bits: self.noise_ceiling_bits(),
            });
        }
        let mut product = UBig::zero();
        backend.multiply_job_into(&ProductJob::Raw(a.value(), b.value()), &mut product)?;
        Ok(Ciphertext::new(self.reducer.reduce(&product), would_be))
    }

    /// Homomorphic AND of one ciphertext against a whole batch: `a` is
    /// prepared **once** (on the SSA backend its forward transform is paid
    /// a single time) and each product then costs two transforms instead
    /// of three — the cached-operand batching the accelerator paper's
    /// related work motivates.
    ///
    /// # Errors
    ///
    /// Returns [`DghvError::NoiseBudgetExhausted`] if any pairing would
    /// reach the noise ceiling; the check runs for the whole batch before
    /// any product is computed, so the expensive work never starts on a
    /// doomed batch. Returns [`DghvError::Multiply`] if the backend fails
    /// the preparation or any product.
    pub fn mul_many<M: Multiplier + ?Sized>(
        &self,
        backend: &M,
        a: &Ciphertext,
        others: &[Ciphertext],
    ) -> Result<Vec<Ciphertext>, DghvError> {
        if others.is_empty() {
            // Don't pay the preparation transform for zero products.
            return Ok(Vec::new());
        }
        for b in others {
            let would_be = a.noise_bits() + b.noise_bits() + 1;
            if would_be >= self.noise_ceiling_bits() {
                return Err(DghvError::NoiseBudgetExhausted {
                    would_be_bits: would_be,
                    ceiling_bits: self.noise_ceiling_bits(),
                });
            }
        }
        let values: Vec<&UBig> = others.iter().map(Ciphertext::value).collect();
        let products = products_against(backend, a.value(), &values)?;
        Ok(others
            .iter()
            .zip(products)
            .map(|(b, product)| {
                Ciphertext::new(
                    self.reducer.reduce(&product),
                    a.noise_bits() + b.noise_bits() + 1,
                )
            })
            .collect())
    }

    /// Homomorphic AND of many independent pairs as **one batch**: the
    /// whole slice goes through [`Multiplier::multiply_batch_into`], so
    /// batch-capable backends (the SSA sharded batch, a served engine)
    /// schedule a whole circuit level at once instead of gate by gate.
    ///
    /// # Errors
    ///
    /// Returns [`DghvError::NoiseBudgetExhausted`] if any pairing would
    /// reach the noise ceiling; the check runs for the whole batch before
    /// any product is computed. Returns [`DghvError::Multiply`] if the
    /// backend fails any product.
    pub fn mul_pairs<M: Multiplier + ?Sized>(
        &self,
        backend: &M,
        pairs: &[(&Ciphertext, &Ciphertext)],
    ) -> Result<Vec<Ciphertext>, DghvError> {
        for (a, b) in pairs {
            let would_be = a.noise_bits() + b.noise_bits() + 1;
            if would_be >= self.noise_ceiling_bits() {
                return Err(DghvError::NoiseBudgetExhausted {
                    would_be_bits: would_be,
                    ceiling_bits: self.noise_ceiling_bits(),
                });
            }
        }
        let jobs: Vec<ProductJob<'_>> = pairs
            .iter()
            .map(|(a, b)| ProductJob::Raw(a.value(), b.value()))
            .collect();
        let mut products = vec![UBig::zero(); jobs.len()];
        backend.multiply_batch_into(&jobs, &mut products)?;
        Ok(pairs
            .iter()
            .zip(products)
            .map(|((a, b), product)| {
                Ciphertext::new(
                    self.reducer.reduce(&product),
                    a.noise_bits() + b.noise_bits() + 1,
                )
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

    fn keys(seed: u64) -> KeyPair {
        let mut rng = StdRng::seed_from_u64(seed);
        KeyPair::generate(DghvParams::tiny(), &mut rng).unwrap()
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let keys = keys(1);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..50 {
            for m in [false, true] {
                let ct = keys.public().encrypt(m, &mut rng);
                assert_eq!(keys.secret().decrypt(&ct), m);
            }
        }
    }

    #[test]
    fn symmetric_encrypt_decrypt_roundtrip() {
        let keys = keys(3);
        let mut rng = StdRng::seed_from_u64(4);
        for m in [false, true] {
            let ct = keys.secret().encrypt_symmetric(m, &mut rng);
            assert_eq!(keys.secret().decrypt(&ct), m);
            // p·q of exact η-bit and (γ−η)-bit factors has γ or γ−1 bits,
            // so the ciphertext width is seed-dependent within that range.
            let gamma = DghvParams::tiny().gamma;
            let got = ct.bit_len() as u32;
            assert!(
                got == gamma || got == gamma - 1,
                "bit_len {got} vs gamma {gamma}"
            );
        }
    }

    #[test]
    fn homomorphic_xor_truth_table() {
        let keys = keys(5);
        let mut rng = StdRng::seed_from_u64(6);
        for a in [false, true] {
            for b in [false, true] {
                let ca = keys.public().encrypt(a, &mut rng);
                let cb = keys.public().encrypt(b, &mut rng);
                let sum = keys.public().add(&ca, &cb);
                assert_eq!(keys.secret().decrypt(&sum), a ^ b, "{a} XOR {b}");
            }
        }
    }

    #[test]
    fn homomorphic_and_truth_table() {
        let keys = keys(7);
        let mut rng = StdRng::seed_from_u64(8);
        let backend = Karatsuba;
        for a in [false, true] {
            for b in [false, true] {
                let ca = keys.public().encrypt(a, &mut rng);
                let cb = keys.public().encrypt(b, &mut rng);
                let product = keys.public().mul(&backend, &ca, &cb).unwrap();
                assert_eq!(keys.secret().decrypt(&product), a & b, "{a} AND {b}");
            }
        }
    }

    #[test]
    fn mul_many_matches_individual_muls() {
        let keys = keys(21);
        let mut rng = StdRng::seed_from_u64(22);
        let backend = Karatsuba;
        let a = keys.public().encrypt(true, &mut rng);
        let bits = [true, false, true];
        let cts: Vec<Ciphertext> = bits
            .iter()
            .map(|&b| keys.public().encrypt(b, &mut rng))
            .collect();
        let batch = keys.public().mul_many(&backend, &a, &cts).unwrap();
        for ((product, ct), &b) in batch.iter().zip(&cts).zip(&bits) {
            let single = keys.public().mul(&backend, &a, ct).unwrap();
            assert_eq!(product.value(), single.value());
            assert_eq!(product.noise_bits(), single.noise_bits());
            assert_eq!(keys.secret().decrypt(product), b);
        }
        // The cached SSA backend is bit-exact against the classical one.
        let ssa = SsaSoftware::for_operand_bits(keys.public().params().gamma as usize).unwrap();
        let cached = keys.public().mul_many(&ssa, &a, &cts).unwrap();
        for (x, y) in cached.iter().zip(&batch) {
            assert_eq!(x.value(), y.value());
        }
    }

    #[test]
    fn noise_estimate_upper_bounds_actual() {
        let keys = keys(9);
        let mut rng = StdRng::seed_from_u64(10);
        let ca = keys.public().encrypt(true, &mut rng);
        let cb = keys.public().encrypt(true, &mut rng);
        let (_, actual_fresh) = keys.secret().decrypt_with_noise(&ca);
        assert!(
            actual_fresh <= ca.noise_bits(),
            "{actual_fresh} vs {}",
            ca.noise_bits()
        );
        let product = keys.public().mul(&Karatsuba, &ca, &cb).unwrap();
        let (_, actual_prod) = keys.secret().decrypt_with_noise(&product);
        assert!(actual_prod <= product.noise_bits());
    }

    #[test]
    fn noise_budget_exhaustion_detected() {
        let keys = keys(11);
        let mut rng = StdRng::seed_from_u64(12);
        let backend = Karatsuba;
        let mut acc = keys.public().encrypt(true, &mut rng);
        let other = keys.public().encrypt(true, &mut rng);
        // Square until the budget runs out; the error must fire before
        // decryption breaks.
        for _ in 0..20 {
            match keys.public().mul(&backend, &acc, &other) {
                Ok(next) => {
                    assert!(keys.secret().decrypt(&next));
                    acc = next;
                }
                Err(DghvError::NoiseBudgetExhausted { .. }) => return,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        panic!("budget never exhausted");
    }

    #[test]
    fn deep_xor_chain_decrypts() {
        let keys = keys(13);
        let mut rng = StdRng::seed_from_u64(14);
        let mut expected = false;
        let mut acc = keys.public().encrypt(false, &mut rng);
        for i in 0..40 {
            let bit = i % 3 == 0;
            let ct = keys.public().encrypt(bit, &mut rng);
            acc = keys.public().add(&acc, &ct);
            expected ^= bit;
        }
        assert_eq!(keys.secret().decrypt(&acc), expected);
    }

    #[test]
    fn ciphertexts_are_gamma_sized() {
        let keys = keys(15);
        let mut rng = StdRng::seed_from_u64(16);
        let ct = keys.public().encrypt(true, &mut rng);
        assert!(ct.bit_len() <= DghvParams::tiny().gamma as usize);
        assert!(keys.public().modulus().bit_len() <= DghvParams::tiny().gamma as usize + 1);
    }
}
