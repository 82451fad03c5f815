//! Ciphertext-size laddering — the modulus-reduction technique from the
//! paper's reference \[34\] (Coron–Naccache–Tibouchi, EUROCRYPT 2012).
//!
//! DGHV ciphertexts are γ bits because the *public modulus* `x_0` must be
//! large for security of the public key; the payload — the noise plus the
//! message bit — only needs η bits. After homomorphic evaluation finishes,
//! a result can therefore be **compressed for transmission** by reducing it
//! modulo a smaller exact multiple of the secret `p`:
//!
//! ```text
//! c' = c mod x_0^(k),   x_0^(k) = q^(k)·p,   |x_0^(k)| ≪ γ bits.
//! ```
//!
//! Because every rung is an exact multiple of `p`, the reduction changes
//! `c` only by multiples of `p`: `c' ≡ c (mod p)`, so decryption — and the
//! decrypted bit — is untouched, while the ciphertext shrinks from γ bits
//! to the rung size. The rungs are public (exact multiples of `p` reveal
//! nothing beyond what `x_0` already does, and the ladder stops well above
//! η bits to keep the approximate-GCD problem hard).
//!
//! # Example
//!
//! ```
//! use he_dghv::{DghvParams, KeyPair, ModulusLadder};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let keys = KeyPair::generate(DghvParams::tiny(), &mut rng)?;
//! let ladder = ModulusLadder::generate(keys.secret(), &mut rng);
//!
//! let ct = keys.public().encrypt(true, &mut rng);
//! let small = ladder.compress(&ct, ladder.num_rungs() - 1);
//! assert!(small.bit_len() < ct.bit_len());
//! assert!(keys.secret().decrypt(&small)); // same plaintext
//! # Ok::<(), he_dghv::DghvError>(())
//! ```

use he_bigint::UBig;
use rand::Rng;

use crate::ciphertext::Ciphertext;
use crate::keys::SecretKey;
use crate::params::DghvParams;

/// Headroom (in bits) kept between the smallest rung and the secret size
/// η, so compressed ciphertexts stay far from the approximate-GCD regime.
pub const MIN_RUNG_MARGIN_BITS: u32 = 2;

/// A descending ladder of public exact multiples of the secret `p`, used
/// to shrink ciphertexts after evaluation.
#[derive(Debug, Clone)]
pub struct ModulusLadder {
    params: DghvParams,
    rungs: Vec<UBig>,
}

impl ModulusLadder {
    /// Generates the default ladder for a secret key: rung sizes start at
    /// γ/2 and halve until `2η + margin` bits.
    pub fn generate<R: Rng + ?Sized>(secret: &SecretKey, rng: &mut R) -> ModulusLadder {
        let params = secret.params();
        let mut sizes = Vec::new();
        let mut bits = params.gamma / 2;
        let floor = 2 * params.eta + MIN_RUNG_MARGIN_BITS;
        while bits > floor {
            sizes.push(bits);
            bits /= 2;
        }
        ModulusLadder::generate_with_sizes(secret, &sizes, rng)
    }

    /// Generates a ladder with explicit rung sizes (bits, descending).
    ///
    /// Sizes at or below `η + MIN_RUNG_MARGIN_BITS` are skipped: a rung
    /// must stay comfortably above the secret so the reduction cannot
    /// disturb the noise term.
    pub fn generate_with_sizes<R: Rng + ?Sized>(
        secret: &SecretKey,
        sizes: &[u32],
        rng: &mut R,
    ) -> ModulusLadder {
        let params = secret.params();
        let p = secret.raw_p();
        let rungs = sizes
            .iter()
            .filter(|&&bits| bits > params.eta + MIN_RUNG_MARGIN_BITS)
            .map(|&bits| {
                // q uniform with (bits − η) bits makes |q·p| ≈ bits.
                let q = UBig::random_bits(rng, (bits - params.eta) as usize);
                &q * p
            })
            .collect();
        ModulusLadder { params, rungs }
    }

    /// The parameters the ladder was generated for.
    pub fn params(&self) -> DghvParams {
        self.params
    }

    /// Number of rungs (compression levels).
    pub fn num_rungs(&self) -> usize {
        self.rungs.len()
    }

    /// The public rung moduli, largest first.
    pub fn rungs(&self) -> &[UBig] {
        &self.rungs
    }

    /// Compresses a ciphertext to rung `level` (0 = largest rung).
    ///
    /// The decrypted bit and the noise magnitude are unchanged; only the
    /// ciphertext's size shrinks. Compressed ciphertexts are *terminal*:
    /// they are meant for transmission/storage, not for further
    /// homomorphic operations under the original `x_0`.
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range.
    pub fn compress(&self, ct: &Ciphertext, level: usize) -> Ciphertext {
        let reduced = ct.value().rem_euclid(&self.rungs[level]);
        Ciphertext::new(reduced, ct.noise_bits())
    }

    /// The best (smallest) rung a ciphertext can take, or `None` when the
    /// ladder is empty.
    pub fn compress_fully(&self, ct: &Ciphertext) -> Option<Ciphertext> {
        if self.rungs.is_empty() {
            return None;
        }
        Some(self.compress(ct, self.num_rungs() - 1))
    }

    /// Bits saved by full compression of a fresh γ-bit ciphertext.
    pub fn max_savings_bits(&self) -> usize {
        match self.rungs.last() {
            Some(smallest) => (self.params.gamma as usize).saturating_sub(smallest.bit_len()),
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyPair;
    use he_accel::Karatsuba;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(seed: u64) -> (KeyPair, ModulusLadder, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let keys = KeyPair::generate(DghvParams::tiny(), &mut rng).unwrap();
        let ladder = ModulusLadder::generate(keys.secret(), &mut rng);
        (keys, ladder, rng)
    }

    #[test]
    fn default_ladder_has_multiple_rungs() {
        let (_, ladder, _) = setup(1);
        // tiny: γ = 800, η = 96 ⇒ rungs at 400, 200 (floor 194).
        assert!(ladder.num_rungs() >= 2, "{} rungs", ladder.num_rungs());
        for pair in ladder.rungs().windows(2) {
            assert!(pair[0] > pair[1], "rungs must descend");
        }
    }

    #[test]
    fn compression_preserves_the_plaintext_at_every_level() {
        let (keys, ladder, mut rng) = setup(2);
        for m in [false, true] {
            let ct = keys.public().encrypt(m, &mut rng);
            for level in 0..ladder.num_rungs() {
                let small = ladder.compress(&ct, level);
                assert_eq!(keys.secret().decrypt(&small), m, "level {level}");
            }
        }
    }

    #[test]
    fn compression_preserves_evaluated_results() {
        let (keys, ladder, mut rng) = setup(3);
        let backend = Karatsuba;
        for a in [false, true] {
            for b in [false, true] {
                let ca = keys.public().encrypt(a, &mut rng);
                let cb = keys.public().encrypt(b, &mut rng);
                let and = keys.public().mul(&backend, &ca, &cb).unwrap();
                let xor = keys.public().add(&ca, &cb);
                let and_small = ladder.compress_fully(&and).unwrap();
                let xor_small = ladder.compress_fully(&xor).unwrap();
                assert_eq!(keys.secret().decrypt(&and_small), a & b);
                assert_eq!(keys.secret().decrypt(&xor_small), a ^ b);
            }
        }
    }

    #[test]
    fn compression_shrinks_ciphertexts_substantially() {
        let (keys, ladder, mut rng) = setup(4);
        let ct = keys.public().encrypt(true, &mut rng);
        let small = ladder.compress_fully(&ct).unwrap();
        // γ = 800 → last rung ~200 bits: at least 4× smaller.
        assert!(small.bit_len() * 4 <= ct.bit_len() + 3);
        assert!(ladder.max_savings_bits() >= 600 - 8);
        // Noise estimate carried through unchanged.
        assert_eq!(small.noise_bits(), ct.noise_bits());
    }

    #[test]
    fn actual_noise_is_unchanged_by_compression() {
        let (keys, ladder, mut rng) = setup(5);
        let ct = keys.public().encrypt(true, &mut rng);
        let (_, noise_before) = keys.secret().decrypt_with_noise(&ct);
        let small = ladder.compress_fully(&ct).unwrap();
        let (_, noise_after) = keys.secret().decrypt_with_noise(&small);
        assert_eq!(noise_before, noise_after);
    }

    #[test]
    fn explicit_sizes_respect_the_eta_floor() {
        let mut rng = StdRng::seed_from_u64(6);
        let keys = KeyPair::generate(DghvParams::tiny(), &mut rng).unwrap();
        // η = 96: the 90-bit and 98-bit requests must be dropped.
        let ladder = ModulusLadder::generate_with_sizes(keys.secret(), &[400, 98, 90], &mut rng);
        assert_eq!(ladder.num_rungs(), 1);
        assert!(ladder.rungs()[0].bit_len() >= 390);
    }

    #[test]
    fn rungs_are_exact_multiples_of_p() {
        let (keys, ladder, _) = setup(7);
        let p = keys.secret().raw_p();
        for rung in ladder.rungs() {
            let (_, rem) = rung.div_rem(p);
            assert!(rem.is_zero(), "rung must be an exact multiple of p");
        }
    }

    #[test]
    fn empty_ladder_handles_gracefully() {
        let mut rng = StdRng::seed_from_u64(8);
        let keys = KeyPair::generate(DghvParams::tiny(), &mut rng).unwrap();
        let ladder = ModulusLadder::generate_with_sizes(keys.secret(), &[], &mut rng);
        assert_eq!(ladder.num_rungs(), 0);
        assert_eq!(ladder.max_savings_bits(), 0);
        let ct = keys.public().encrypt(true, &mut rng);
        assert!(ladder.compress_fully(&ct).is_none());
    }
}
