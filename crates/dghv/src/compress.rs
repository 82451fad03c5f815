//! Compressed public keys — the technique of Coron, Naccache and Tibouchi
//! (EUROCRYPT 2012), the paper's reference \[34\].
//!
//! A plain DGHV public key stores τ integers of γ bits each — at the
//! paper's scale (γ = 786,432, τ = 572) that is ≈ 54 MB, which \[34\] notes
//! is the scheme's main practicality obstacle besides multiplication speed.
//! The compression replaces each stored `x_i` by a **seed-generated**
//! pseudorandom value plus a small correction:
//!
//! 1. draw `χ_i` deterministically from a public seed, uniform in `[0, x_0)`;
//! 2. compute the correction `δ_i = χ_i − x_i` where
//!    `x_i = p·⌊χ_i/p⌋ + 2r_i` is the usual noisy multiple nearest `χ_i`;
//! 3. publish `(seed, x_0, δ_1 … δ_τ)`; anyone re-derives
//!    `x_i = χ_i − δ_i` by replaying the seed.
//!
//! Each `δ_i` is at most ≈ η + 1 bits instead of γ, so the stored key
//! shrinks by roughly γ/η — ≈ 500× at the paper's parameters. Nothing
//! about ciphertexts or homomorphic evaluation changes: expansion yields a
//! bona-fide [`PublicKey`] whose elements still satisfy
//! `x_i ≡ 2r_i (mod p)`.
//!
//! # Example
//!
//! ```
//! use he_dghv::{CompressedKeyPair, DghvParams};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let keys = CompressedKeyPair::generate(DghvParams::tiny(), 0xC0FFEE, &mut rng)?;
//! let public = keys.compressed().expand(); // a regular public key
//! let ct = public.encrypt(true, &mut rng);
//! assert!(keys.secret().decrypt(&ct));
//! assert!(keys.compressed().compression_ratio() > 2.0);
//! # Ok::<(), he_dghv::DghvError>(())
//! ```

use he_bigint::{IBig, UBig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::DghvError;
use crate::keys::{PublicKey, SecretKey};
use crate::params::DghvParams;

/// A DGHV public key in compressed form: a seed, the public modulus
/// `x_0`, and one small correction per public element.
#[derive(Debug, Clone)]
pub struct CompressedPublicKey {
    params: DghvParams,
    seed: u64,
    x0: UBig,
    deltas: Vec<IBig>,
}

/// A key pair whose public half is stored compressed.
#[derive(Debug, Clone)]
pub struct CompressedKeyPair {
    secret: SecretKey,
    compressed: CompressedPublicKey,
}

impl CompressedKeyPair {
    /// Generates a key pair with a seed-compressed public key.
    ///
    /// `seed` is public (it is part of the published key); `rng` supplies
    /// the actual secrets (the key `p` and the noises `r_i`).
    ///
    /// # Errors
    ///
    /// Returns [`DghvError::InvalidParams`] if the parameters are
    /// inconsistent.
    pub fn generate<R: Rng + ?Sized>(
        params: DghvParams,
        seed: u64,
        rng: &mut R,
    ) -> Result<CompressedKeyPair, DghvError> {
        params.validate()?;

        // Secret p: odd, exactly η bits (same sampling as KeyPair).
        let mut p = UBig::random_bits(rng, params.eta as usize);
        p.set_bit(0, true);

        // Public modulus x_0 = q_0 · p with γ-bit magnitude.
        let q0 = UBig::random_bits(rng, (params.gamma - params.eta) as usize);
        let x0 = &q0 * &p;

        // χ_i from the public seed; δ_i = χ_i − (p·⌊χ_i/p⌋ + 2·r_i).
        let mut chi_rng = StdRng::seed_from_u64(seed);
        let mut deltas = Vec::with_capacity(params.tau as usize);
        for _ in 0..params.tau {
            let chi = UBig::random_below(&mut chi_rng, &x0);
            let (_, chi_mod_p) = chi.div_rem(&p);
            let ri = UBig::random_bits(rng, params.rho as usize);
            let noise = &ri << 1;
            // δ = (χ mod p) − 2r, signed: x = χ − δ = p·⌊χ/p⌋ + 2r.
            let delta = IBig::from(chi_mod_p) - IBig::from(noise);
            deltas.push(delta);
        }

        Ok(CompressedKeyPair {
            secret: SecretKey::from_parts(p, params),
            compressed: CompressedPublicKey {
                params,
                seed,
                x0,
                deltas,
            },
        })
    }

    /// The secret key.
    pub fn secret(&self) -> &SecretKey {
        &self.secret
    }

    /// The compressed public key.
    pub fn compressed(&self) -> &CompressedPublicKey {
        &self.compressed
    }

    /// Splits the pair into its parts.
    pub fn into_parts(self) -> (SecretKey, CompressedPublicKey) {
        (self.secret, self.compressed)
    }
}

impl CompressedPublicKey {
    /// The parameters the key was generated for.
    pub fn params(&self) -> DghvParams {
        self.params
    }

    /// The public seed the `χ_i` are derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The public modulus `x_0` (stored uncompressed).
    pub fn modulus(&self) -> &UBig {
        &self.x0
    }

    /// The stored corrections `δ_1 … δ_τ`.
    pub fn deltas(&self) -> &[IBig] {
        &self.deltas
    }

    /// Expands to a regular [`PublicKey`] by replaying the seed:
    /// `x_i = χ_i − δ_i`.
    ///
    /// Expansion is deterministic — expanding twice yields identical keys —
    /// and the result encrypts/evaluates exactly like an uncompressed key.
    pub fn expand(&self) -> PublicKey {
        let mut chi_rng = StdRng::seed_from_u64(self.seed);
        let elements = self
            .deltas
            .iter()
            .map(|delta| {
                let chi = UBig::random_below(&mut chi_rng, &self.x0);
                let x = IBig::from(chi) - delta.clone();
                debug_assert!(!x.is_negative(), "x_i = χ_i − δ_i is nonnegative");
                x.into_ubig().expect("x_i is nonnegative")
            })
            .collect();
        PublicKey::from_parts(self.params, self.x0.clone(), elements)
    }

    /// Bits needed to store the compressed key: the seed, `x_0`, and the
    /// corrections (each with one sign bit).
    pub fn stored_bits(&self) -> usize {
        64 + self.x0.bit_len()
            + self
                .deltas
                .iter()
                .map(|d| d.magnitude().bit_len() + 1)
                .sum::<usize>()
    }

    /// Bits the equivalent uncompressed key occupies: `x_0` plus τ
    /// elements of up to γ bits.
    pub fn expanded_bits(&self) -> usize {
        self.x0.bit_len() + (self.params.tau as usize) * self.params.gamma as usize
    }

    /// Compression factor `expanded_bits / stored_bits` (≈ γ/η for large
    /// τ — about 500× at the paper's scale).
    pub fn compression_ratio(&self) -> f64 {
        self.expanded_bits() as f64 / self.stored_bits() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use he_accel::Karatsuba;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pair(seed: u64) -> CompressedKeyPair {
        let mut rng = StdRng::seed_from_u64(seed);
        CompressedKeyPair::generate(DghvParams::tiny(), 0xBEEF + seed, &mut rng).unwrap()
    }

    #[test]
    fn expanded_key_encrypts_and_decrypts() {
        let keys = pair(1);
        let public = keys.compressed().expand();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..25 {
            for m in [false, true] {
                let ct = public.encrypt(m, &mut rng);
                assert_eq!(keys.secret().decrypt(&ct), m);
            }
        }
    }

    #[test]
    fn expansion_is_deterministic() {
        let keys = pair(3);
        let a = keys.compressed().expand();
        let b = keys.compressed().expand();
        assert_eq!(a.modulus(), b.modulus());
        assert_eq!(a.elements(), b.elements());
    }

    #[test]
    fn elements_are_noisy_multiples_of_p() {
        // Every expanded element must satisfy x_i ≡ 2·r_i (mod p) with
        // r_i < 2^ρ — the DGHV public-key invariant.
        let keys = pair(4);
        let public = keys.compressed().expand();
        let p = keys.secret().raw_p();
        let rho = keys.secret().params().rho;
        for x in public.elements() {
            let (_, rem) = x.div_rem(p);
            assert!(rem.is_even(), "noise must be even");
            assert!(
                rem.bit_len() <= rho as usize + 1,
                "noise {} bits exceeds ρ + 1 = {}",
                rem.bit_len(),
                rho + 1
            );
        }
    }

    #[test]
    fn elements_are_below_the_modulus() {
        let keys = pair(5);
        let public = keys.compressed().expand();
        for x in public.elements() {
            assert!(x < public.modulus());
        }
    }

    #[test]
    fn corrections_are_small() {
        // Each δ_i must be ≈ η bits, not γ bits — that is the whole point.
        let keys = pair(6);
        let eta = keys.secret().params().eta as usize;
        let gamma = keys.secret().params().gamma as usize;
        for d in keys.compressed().deltas() {
            let bits = d.magnitude().bit_len();
            assert!(bits <= eta + 1, "correction of {bits} bits exceeds η + 1");
            assert!(bits < gamma / 2);
        }
    }

    #[test]
    fn compression_ratio_approaches_gamma_over_eta() {
        let keys = pair(7);
        let params = keys.secret().params();
        let ratio = keys.compressed().compression_ratio();
        let ideal = params.gamma as f64 / params.eta as f64; // ≈ 8.3 for tiny
        assert!(ratio > 1.5, "ratio {ratio}");
        assert!(
            ratio < ideal * 1.5,
            "ratio {ratio} cannot beat the information bound {ideal} by much"
        );
        assert!(keys.compressed().stored_bits() < keys.compressed().expanded_bits());
    }

    #[test]
    fn homomorphic_evaluation_on_expanded_key() {
        let keys = pair(8);
        let public = keys.compressed().expand();
        let mut rng = StdRng::seed_from_u64(9);
        let backend = Karatsuba;
        for a in [false, true] {
            for b in [false, true] {
                let ca = public.encrypt(a, &mut rng);
                let cb = public.encrypt(b, &mut rng);
                let xor = public.add(&ca, &cb);
                let and = public.mul(&backend, &ca, &cb).unwrap();
                assert_eq!(keys.secret().decrypt(&xor), a ^ b);
                assert_eq!(keys.secret().decrypt(&and), a & b);
            }
        }
    }

    #[test]
    fn different_seeds_give_different_keys_for_same_secret_randomness() {
        let mut rng_a = StdRng::seed_from_u64(10);
        let mut rng_b = StdRng::seed_from_u64(10);
        let ka = CompressedKeyPair::generate(DghvParams::tiny(), 111, &mut rng_a).unwrap();
        let kb = CompressedKeyPair::generate(DghvParams::tiny(), 222, &mut rng_b).unwrap();
        // Same secret randomness ⇒ same p and x0; different seeds ⇒
        // different public elements.
        assert_eq!(ka.compressed().modulus(), kb.compressed().modulus());
        assert_ne!(
            ka.compressed().expand().elements(),
            kb.compressed().expand().elements()
        );
    }

    #[test]
    fn invalid_params_rejected() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut params = DghvParams::tiny();
        params.tau = 0;
        assert!(CompressedKeyPair::generate(params, 1, &mut rng).is_err());
    }

    #[test]
    fn toy_scale_roundtrip() {
        // The γ ≈ 147K-bit "toy" setting: compression is ≈ 100×.
        let mut rng = StdRng::seed_from_u64(12);
        let keys = CompressedKeyPair::generate(DghvParams::toy(), 0xDADA, &mut rng).unwrap();
        let ratio = keys.compressed().compression_ratio();
        assert!(ratio > 50.0, "toy-scale ratio {ratio} should exceed 50×");
        let public = keys.compressed().expand();
        let ct = public.encrypt(true, &mut rng);
        assert!(keys.secret().decrypt(&ct));
    }
}
