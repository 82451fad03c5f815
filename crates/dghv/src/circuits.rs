//! Homomorphic boolean circuits on DGHV ciphertexts.
//!
//! DGHV evaluates circuits over encrypted bits: addition is XOR,
//! multiplication is AND, and everything else is built from those. This
//! module provides the standard gates and a ripple-carry adder over
//! encrypted bit-vectors — a concrete "computation on encrypted data"
//! workload of the kind the paper's introduction motivates.

use he_accel::Multiplier;
use rand::Rng;

use crate::ciphertext::Ciphertext;
use crate::error::DghvError;
use crate::keys::PublicKey;

/// A gate evaluator bound to a public key and a multiplication backend.
///
/// Every gate that multiplies also fails with [`DghvError::Multiply`]
/// when the backend fails a product.
pub struct CircuitEvaluator<'a, M: Multiplier + ?Sized> {
    public_key: &'a PublicKey,
    backend: &'a M,
}

impl<'a, M: Multiplier + ?Sized> CircuitEvaluator<'a, M> {
    /// Creates an evaluator.
    pub fn new(public_key: &'a PublicKey, backend: &'a M) -> CircuitEvaluator<'a, M> {
        CircuitEvaluator {
            public_key,
            backend,
        }
    }

    /// The public key in use.
    pub fn public_key(&self) -> &PublicKey {
        self.public_key
    }

    /// XOR (free: one ciphertext addition).
    pub fn xor(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        self.public_key.add(a, b)
    }

    /// AND (one ciphertext multiplication).
    ///
    /// # Errors
    ///
    /// Returns [`DghvError::NoiseBudgetExhausted`] if the product would
    /// exceed the noise ceiling.
    pub fn and(&self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, DghvError> {
        self.public_key.mul(self.backend, a, b)
    }

    /// AND of one ciphertext against many (`a ∧ bᵢ` for every `i`): the
    /// recurring operand is prepared once, so on caching backends each
    /// product costs two transforms instead of three
    /// (see [`crate::PublicKey::mul_many`]).
    ///
    /// # Errors
    ///
    /// Returns [`DghvError::NoiseBudgetExhausted`] if any product would
    /// exceed the noise ceiling (checked before any product runs).
    pub fn and_many(
        &self,
        a: &Ciphertext,
        others: &[Ciphertext],
    ) -> Result<Vec<Ciphertext>, DghvError> {
        self.public_key.mul_many(self.backend, a, others)
    }

    /// AND of many independent pairs, scheduled as **one batch** through
    /// the backend (see [`crate::PublicKey::mul_pairs`]): a whole circuit
    /// level in one call, so batch-capable backends shard or micro-batch
    /// it instead of running gate by gate.
    ///
    /// # Errors
    ///
    /// Returns [`DghvError::NoiseBudgetExhausted`] if any product would
    /// exceed the noise ceiling (checked before any product runs).
    pub fn and_pairs(
        &self,
        pairs: &[(&Ciphertext, &Ciphertext)],
    ) -> Result<Vec<Ciphertext>, DghvError> {
        self.public_key.mul_pairs(self.backend, pairs)
    }

    /// AND of a whole bit-vector, reduced as a balanced tree whose levels
    /// each run as **one batch** ([`CircuitEvaluator::and_pairs`]): depth
    /// `⌈log2(len)⌉`, and every level's independent products share one
    /// schedule — on a resident serving engine, one micro-batch per
    /// level.
    ///
    /// # Errors
    ///
    /// Returns [`DghvError::NoiseBudgetExhausted`] when the tree outruns
    /// the noise budget.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is empty.
    pub fn and_tree(&self, bits: &[Ciphertext]) -> Result<Ciphertext, DghvError> {
        assert!(!bits.is_empty(), "and_tree of zero bits");
        let mut layer: Vec<Ciphertext> = bits.to_vec();
        while layer.len() > 1 {
            let pairs: Vec<(&Ciphertext, &Ciphertext)> = layer
                .chunks_exact(2)
                .map(|pair| (&pair[0], &pair[1]))
                .collect();
            let mut next = self.and_pairs(&pairs)?;
            if layer.len() % 2 == 1 {
                next.push(layer.last().expect("non-empty layer").clone());
            }
            layer = next;
        }
        Ok(layer.pop().expect("non-empty reduction"))
    }

    /// NOT: `a ⊕ Enc(1)` with a fresh encryption of one.
    pub fn not<R: Rng + ?Sized>(&self, a: &Ciphertext, rng: &mut R) -> Ciphertext {
        let one = self.public_key.encrypt(true, rng);
        self.xor(a, &one)
    }

    /// OR: `a ⊕ b ⊕ (a ∧ b)`.
    ///
    /// # Errors
    ///
    /// Returns [`DghvError::NoiseBudgetExhausted`] if the AND would exceed
    /// the noise ceiling.
    pub fn or(&self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, DghvError> {
        Ok(self.xor(&self.xor(a, b), &self.and(a, b)?))
    }

    /// Half adder: returns `(sum, carry)`.
    ///
    /// # Errors
    ///
    /// Returns [`DghvError::NoiseBudgetExhausted`] on budget exhaustion.
    pub fn half_adder(
        &self,
        a: &Ciphertext,
        b: &Ciphertext,
    ) -> Result<(Ciphertext, Ciphertext), DghvError> {
        Ok((self.xor(a, b), self.and(a, b)?))
    }

    /// Full adder: returns `(sum, carry_out)`.
    ///
    /// `sum = a ⊕ b ⊕ c`, `carry = (a ∧ b) ⊕ (c ∧ (a ⊕ b))`.
    ///
    /// # Errors
    ///
    /// Returns [`DghvError::NoiseBudgetExhausted`] on budget exhaustion.
    pub fn full_adder(
        &self,
        a: &Ciphertext,
        b: &Ciphertext,
        carry_in: &Ciphertext,
    ) -> Result<(Ciphertext, Ciphertext), DghvError> {
        let a_xor_b = self.xor(a, b);
        let sum = self.xor(&a_xor_b, carry_in);
        let carry = self.xor(&self.and(a, b)?, &self.and(carry_in, &a_xor_b)?);
        Ok((sum, carry))
    }

    /// XNOR (bit equality): `¬(a ⊕ b)`.
    pub fn xnor<R: Rng + ?Sized>(&self, a: &Ciphertext, b: &Ciphertext, rng: &mut R) -> Ciphertext {
        let x = self.xor(a, b);
        self.not(&x, rng)
    }

    /// 2-to-1 multiplexer: `sel ? a : b`, computed as `b ⊕ (sel ∧ (a ⊕ b))`
    /// — one multiplication.
    ///
    /// # Errors
    ///
    /// Returns [`DghvError::NoiseBudgetExhausted`] if the product would
    /// exceed the noise ceiling.
    pub fn mux(
        &self,
        sel: &Ciphertext,
        a: &Ciphertext,
        b: &Ciphertext,
    ) -> Result<Ciphertext, DghvError> {
        let diff = self.xor(a, b);
        Ok(self.xor(b, &self.and(sel, &diff)?))
    }

    /// Multiplexes whole bit-vectors with one shared select bit:
    /// `out_i = sel ? a_i : b_i`. The select bit recurs in every per-bit
    /// product, so it is prepared once for the vector
    /// ([`CircuitEvaluator::and_many`]) — the batch counterpart of
    /// [`CircuitEvaluator::mux`], and the hot pattern of encrypted
    /// `max`/sorting workloads.
    ///
    /// # Errors
    ///
    /// Returns [`DghvError::NoiseBudgetExhausted`] if any per-bit product
    /// would exceed the noise ceiling.
    ///
    /// # Panics
    ///
    /// Panics if the operand lengths differ.
    pub fn mux_many(
        &self,
        sel: &Ciphertext,
        a: &[Ciphertext],
        b: &[Ciphertext],
    ) -> Result<Vec<Ciphertext>, DghvError> {
        assert_eq!(a.len(), b.len(), "operand widths must match");
        let diffs: Vec<Ciphertext> = a.iter().zip(b).map(|(ai, bi)| self.xor(ai, bi)).collect();
        let selected = self.and_many(sel, &diffs)?;
        Ok(b.iter()
            .zip(&selected)
            .map(|(bi, si)| self.xor(bi, si))
            .collect())
    }

    /// Equality of two encrypted bit-vectors: a level-batched
    /// [`CircuitEvaluator::and_tree`] over per-bit XNORs, so the
    /// multiplicative depth is `⌈log2(width)⌉` and each tree level runs
    /// as one batch.
    ///
    /// # Errors
    ///
    /// Returns [`DghvError::NoiseBudgetExhausted`] when the AND-tree
    /// outruns the noise budget.
    ///
    /// # Panics
    ///
    /// Panics if the operand lengths differ or are empty.
    pub fn equals<R: Rng + ?Sized>(
        &self,
        a: &[Ciphertext],
        b: &[Ciphertext],
        rng: &mut R,
    ) -> Result<Ciphertext, DghvError> {
        assert_eq!(a.len(), b.len(), "operand widths must match");
        assert!(!a.is_empty(), "operands must be non-empty");
        let layer: Vec<Ciphertext> = a
            .iter()
            .zip(b)
            .map(|(ai, bi)| self.xnor(ai, bi, rng))
            .collect();
        self.and_tree(&layer)
    }

    /// Unsigned comparison `a < b` of two little-endian encrypted
    /// bit-vectors.
    ///
    /// Scans from the least-significant bit, maintaining
    /// `lt ← (¬aᵢ ∧ bᵢ) ⊕ (aᵢ ≡ bᵢ) ∧ lt`: at the end `lt` is 1 exactly
    /// when the most significant differing bit favours `b`. The
    /// position-independent half of the sweep — `¬aᵢ ∧ bᵢ` for every
    /// bit — runs upfront as **one batch**
    /// ([`CircuitEvaluator::and_pairs`]), halving the sequential products
    /// in the chain. The noise grows *additively* with width (each step
    /// multiplies the running flag by one fresh-noise XNOR), so even
    /// shallow parameter sets compare several bits.
    ///
    /// # Errors
    ///
    /// Returns [`DghvError::NoiseBudgetExhausted`] when the chain outruns
    /// the noise budget.
    ///
    /// # Panics
    ///
    /// Panics if the operand lengths differ or are empty.
    pub fn less_than<R: Rng + ?Sized>(
        &self,
        a: &[Ciphertext],
        b: &[Ciphertext],
        rng: &mut R,
    ) -> Result<Ciphertext, DghvError> {
        assert_eq!(a.len(), b.len(), "operand widths must match");
        assert!(!a.is_empty(), "operands must be non-empty");
        // The comparator sweep: every position's `¬aᵢ ∧ bᵢ` is
        // independent of the running flag, so the whole sweep is one
        // batch.
        let nots: Vec<Ciphertext> = a.iter().map(|ai| self.not(ai, rng)).collect();
        let pairs: Vec<(&Ciphertext, &Ciphertext)> = nots.iter().zip(b).collect();
        let wins = self.and_pairs(&pairs)?;
        let mut lt = self.public_key.encrypt(false, rng);
        for ((ai, bi), bi_wins) in a.iter().zip(b).zip(&wins) {
            let eq = self.xnor(ai, bi, rng);
            lt = self.xor(bi_wins, &self.and(&eq, &lt)?);
        }
        Ok(lt)
    }

    /// Ripple-carry addition of two little-endian encrypted bit-vectors;
    /// returns `len + 1` encrypted result bits.
    ///
    /// The multiplicative depth grows with the carry chain, so the
    /// supported width is bounded by
    /// [`DghvParams::multiplicative_depth`](crate::DghvParams::multiplicative_depth).
    ///
    /// # Errors
    ///
    /// Returns [`DghvError::NoiseBudgetExhausted`] when the carry chain
    /// outruns the noise budget.
    ///
    /// # Panics
    ///
    /// Panics if the operand lengths differ or are empty.
    pub fn add_numbers(
        &self,
        a: &[Ciphertext],
        b: &[Ciphertext],
    ) -> Result<Vec<Ciphertext>, DghvError> {
        assert_eq!(a.len(), b.len(), "operand widths must match");
        assert!(!a.is_empty(), "operands must be non-empty");
        let mut bits = Vec::with_capacity(a.len() + 1);
        let (sum0, mut carry) = self.half_adder(&a[0], &b[0])?;
        bits.push(sum0);
        for (ai, bi) in a.iter().zip(b).skip(1) {
            let (sum, carry_out) = self.full_adder(ai, bi, &carry)?;
            bits.push(sum);
            carry = carry_out;
        }
        bits.push(carry);
        Ok(bits)
    }
}

/// Encrypts a little-endian bit-vector of `width` bits of `value`.
pub fn encrypt_number<R: Rng + ?Sized>(
    pk: &PublicKey,
    value: u64,
    width: u32,
    rng: &mut R,
) -> Vec<Ciphertext> {
    (0..width)
        .map(|i| pk.encrypt(value >> i & 1 == 1, rng))
        .collect()
}

/// Decrypts a little-endian encrypted bit-vector back to an integer.
pub fn decrypt_number(sk: &crate::keys::SecretKey, bits: &[Ciphertext]) -> u64 {
    bits.iter()
        .enumerate()
        .map(|(i, ct)| (sk.decrypt(ct) as u64) << i)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyPair;
    use crate::params::DghvParams;
    use he_accel::{Karatsuba, SsaSoftware};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(seed: u64) -> (KeyPair, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let keys = KeyPair::generate(DghvParams::tiny(), &mut rng).unwrap();
        (keys, rng)
    }

    #[test]
    fn gate_truth_tables() {
        let (keys, mut rng) = setup(50);
        let backend = Karatsuba;
        let eval = CircuitEvaluator::new(keys.public(), &backend);
        for a in [false, true] {
            for b in [false, true] {
                let ca = keys.public().encrypt(a, &mut rng);
                let cb = keys.public().encrypt(b, &mut rng);
                assert_eq!(keys.secret().decrypt(&eval.xor(&ca, &cb)), a ^ b);
                assert_eq!(keys.secret().decrypt(&eval.and(&ca, &cb).unwrap()), a & b);
                assert_eq!(keys.secret().decrypt(&eval.or(&ca, &cb).unwrap()), a | b);
                assert_eq!(keys.secret().decrypt(&eval.not(&ca, &mut rng)), !a);
            }
        }
    }

    #[test]
    fn full_adder_truth_table() {
        let (keys, mut rng) = setup(51);
        let backend = Karatsuba;
        let eval = CircuitEvaluator::new(keys.public(), &backend);
        for a in [false, true] {
            for b in [false, true] {
                for c in [false, true] {
                    let ca = keys.public().encrypt(a, &mut rng);
                    let cb = keys.public().encrypt(b, &mut rng);
                    let cc = keys.public().encrypt(c, &mut rng);
                    let (sum, carry) = eval.full_adder(&ca, &cb, &cc).unwrap();
                    let total = a as u8 + b as u8 + c as u8;
                    assert_eq!(keys.secret().decrypt(&sum), total & 1 == 1, "{a}{b}{c}");
                    assert_eq!(keys.secret().decrypt(&carry), total >= 2, "{a}{b}{c}");
                }
            }
        }
    }

    #[test]
    fn two_bit_encrypted_addition_exhaustive() {
        let (keys, mut rng) = setup(52);
        let backend = Karatsuba;
        let eval = CircuitEvaluator::new(keys.public(), &backend);
        for x in 0u64..4 {
            for y in 0u64..4 {
                let ex = encrypt_number(keys.public(), x, 2, &mut rng);
                let ey = encrypt_number(keys.public(), y, 2, &mut rng);
                let sum_bits = eval.add_numbers(&ex, &ey).unwrap();
                assert_eq!(decrypt_number(keys.secret(), &sum_bits), x + y, "{x}+{y}");
            }
        }
    }

    #[test]
    fn encrypt_decrypt_number_roundtrip() {
        let (keys, mut rng) = setup(53);
        for v in [0u64, 1, 5, 12, 15] {
            let bits = encrypt_number(keys.public(), v, 4, &mut rng);
            assert_eq!(decrypt_number(keys.secret(), &bits), v);
        }
    }

    #[test]
    fn xnor_and_mux_truth_tables() {
        let (keys, mut rng) = setup(55);
        let backend = Karatsuba;
        let eval = CircuitEvaluator::new(keys.public(), &backend);
        for a in [false, true] {
            for b in [false, true] {
                let ca = keys.public().encrypt(a, &mut rng);
                let cb = keys.public().encrypt(b, &mut rng);
                assert_eq!(
                    keys.secret().decrypt(&eval.xnor(&ca, &cb, &mut rng)),
                    a == b
                );
                for sel in [false, true] {
                    let cs = keys.public().encrypt(sel, &mut rng);
                    let out = eval.mux(&cs, &ca, &cb).unwrap();
                    assert_eq!(
                        keys.secret().decrypt(&out),
                        if sel { a } else { b },
                        "mux({sel}, {a}, {b})"
                    );
                }
            }
        }
    }

    #[test]
    fn and_many_matches_single_ands() {
        let (keys, mut rng) = setup(61);
        let backend = Karatsuba;
        let eval = CircuitEvaluator::new(keys.public(), &backend);
        for a in [false, true] {
            let ca = keys.public().encrypt(a, &mut rng);
            let bits = [true, false, true, true];
            let cts: Vec<Ciphertext> = bits
                .iter()
                .map(|&b| keys.public().encrypt(b, &mut rng))
                .collect();
            let products = eval.and_many(&ca, &cts).unwrap();
            for (product, &b) in products.iter().zip(&bits) {
                assert_eq!(keys.secret().decrypt(product), a & b, "{a} AND {b}");
            }
        }
    }

    #[test]
    fn mux_many_selects_whole_vectors() {
        let (keys, mut rng) = setup(62);
        let backend = Karatsuba;
        let eval = CircuitEvaluator::new(keys.public(), &backend);
        for (x, y) in [(5u64, 10u64), (0, 7), (3, 3)] {
            let ex = encrypt_number(keys.public(), x, 4, &mut rng);
            let ey = encrypt_number(keys.public(), y, 4, &mut rng);
            for sel in [false, true] {
                let cs = keys.public().encrypt(sel, &mut rng);
                let out = eval.mux_many(&cs, &ex, &ey).unwrap();
                assert_eq!(
                    decrypt_number(keys.secret(), &out),
                    if sel { x } else { y },
                    "mux_many({sel}, {x}, {y})"
                );
                // Bit-for-bit agreement with the scalar mux.
                for (i, bit) in out.iter().enumerate() {
                    let scalar = eval.mux(&cs, &ex[i], &ey[i]).unwrap();
                    assert_eq!(keys.secret().decrypt(bit), keys.secret().decrypt(&scalar));
                }
            }
        }
    }

    #[test]
    fn and_tree_matches_sequential_ands() {
        let (keys, mut rng) = setup(63);
        let backend = Karatsuba;
        let eval = CircuitEvaluator::new(keys.public(), &backend);
        for value in 0u64..16 {
            let bits: Vec<bool> = (0..4).map(|i| value >> i & 1 == 1).collect();
            let cts: Vec<Ciphertext> = bits
                .iter()
                .map(|&b| keys.public().encrypt(b, &mut rng))
                .collect();
            let tree = eval.and_tree(&cts).unwrap();
            assert_eq!(
                keys.secret().decrypt(&tree),
                bits.iter().all(|&b| b),
                "AND over {bits:?}"
            );
        }
        // Odd widths carry the trailing bit across levels.
        let cts: Vec<Ciphertext> = [true, true, true]
            .iter()
            .map(|&b| keys.public().encrypt(b, &mut rng))
            .collect();
        assert!(keys.secret().decrypt(&eval.and_tree(&cts).unwrap()));
        // Width 1 is the identity.
        let single = keys.public().encrypt(true, &mut rng);
        assert!(keys
            .secret()
            .decrypt(&eval.and_tree(std::slice::from_ref(&single)).unwrap()));
    }

    #[test]
    fn and_pairs_matches_scalar_ands_on_batched_backends() {
        let (keys, mut rng) = setup(64);
        let karatsuba = Karatsuba;
        let ssa = SsaSoftware::for_operand_bits(keys.public().params().gamma as usize).unwrap();
        let bits = [(true, true), (true, false), (false, true), (false, false)];
        let cts: Vec<(Ciphertext, Ciphertext)> = bits
            .iter()
            .map(|&(x, y)| {
                (
                    keys.public().encrypt(x, &mut rng),
                    keys.public().encrypt(y, &mut rng),
                )
            })
            .collect();
        let pairs: Vec<(&Ciphertext, &Ciphertext)> = cts.iter().map(|(x, y)| (x, y)).collect();
        let classical = CircuitEvaluator::new(keys.public(), &karatsuba)
            .and_pairs(&pairs)
            .unwrap();
        let batched = CircuitEvaluator::new(keys.public(), &ssa)
            .and_pairs(&pairs)
            .unwrap();
        for (((x, y), c), b) in bits.iter().zip(&classical).zip(&batched) {
            assert_eq!(c.value(), b.value(), "SSA batch must be bit-exact");
            assert_eq!(keys.secret().decrypt(c), x & y);
            assert_eq!(c.noise_bits(), b.noise_bits());
        }
    }

    #[test]
    fn equality_exhaustive_three_bits() {
        let (keys, mut rng) = setup(56);
        let backend = Karatsuba;
        let eval = CircuitEvaluator::new(keys.public(), &backend);
        for x in 0u64..8 {
            for y in 0u64..8 {
                let ex = encrypt_number(keys.public(), x, 3, &mut rng);
                let ey = encrypt_number(keys.public(), y, 3, &mut rng);
                let eq = eval.equals(&ex, &ey, &mut rng).unwrap();
                assert_eq!(keys.secret().decrypt(&eq), x == y, "{x} == {y}");
            }
        }
    }

    #[test]
    fn less_than_exhaustive_three_bits() {
        let (keys, mut rng) = setup(57);
        let backend = Karatsuba;
        let eval = CircuitEvaluator::new(keys.public(), &backend);
        for x in 0u64..8 {
            for y in 0u64..8 {
                let ex = encrypt_number(keys.public(), x, 3, &mut rng);
                let ey = encrypt_number(keys.public(), y, 3, &mut rng);
                let lt = eval.less_than(&ex, &ey, &mut rng).unwrap();
                assert_eq!(keys.secret().decrypt(&lt), x < y, "{x} < {y}");
            }
        }
    }

    #[test]
    fn comparator_noise_grows_additively_not_multiplicatively() {
        // The less_than chain must survive more bits than the
        // multiplicative depth (2 at tiny) would allow if noise doubled.
        let (keys, mut rng) = setup(58);
        let backend = Karatsuba;
        let eval = CircuitEvaluator::new(keys.public(), &backend);
        let width = 4u32;
        let ex = encrypt_number(keys.public(), 9, width, &mut rng);
        let ey = encrypt_number(keys.public(), 11, width, &mut rng);
        let lt = eval.less_than(&ex, &ey, &mut rng).unwrap();
        assert!(keys.secret().decrypt(&lt));
        assert!(width as usize > DghvParams::tiny().multiplicative_depth() as usize);
    }

    #[test]
    fn encrypted_maximum_via_mux() {
        // max(x, y) selected bitwise without decrypting: the cloud-side
        // "financial computing" pattern from the paper's introduction.
        let (keys, mut rng) = setup(59);
        let backend = Karatsuba;
        let eval = CircuitEvaluator::new(keys.public(), &backend);
        for (x, y) in [(2u64, 5u64), (5, 2), (3, 3), (0, 7)] {
            let ex = encrypt_number(keys.public(), x, 3, &mut rng);
            let ey = encrypt_number(keys.public(), y, 3, &mut rng);
            let x_lt_y = eval.less_than(&ex, &ey, &mut rng).unwrap();
            let max_bits: Vec<Ciphertext> = ex
                .iter()
                .zip(&ey)
                .map(|(xb, yb)| eval.mux(&x_lt_y, yb, xb).unwrap())
                .collect();
            assert_eq!(
                decrypt_number(keys.secret(), &max_bits),
                x.max(y),
                "max({x},{y})"
            );
        }
    }

    #[test]
    fn equality_single_bit_and_mismatch_panics() {
        let (keys, mut rng) = setup(60);
        let backend = Karatsuba;
        let eval = CircuitEvaluator::new(keys.public(), &backend);
        let a = encrypt_number(keys.public(), 1, 1, &mut rng);
        let b = encrypt_number(keys.public(), 1, 1, &mut rng);
        assert!(keys
            .secret()
            .decrypt(&eval.equals(&a, &b, &mut rng).unwrap()));
        let wider = encrypt_number(keys.public(), 1, 2, &mut rng);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = eval.equals(&a, &wider, &mut rng);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn mismatched_widths_panic() {
        let (keys, mut rng) = setup(54);
        let backend = Karatsuba;
        let eval = CircuitEvaluator::new(keys.public(), &backend);
        let a = encrypt_number(keys.public(), 1, 2, &mut rng);
        let b = encrypt_number(keys.public(), 1, 3, &mut rng);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = eval.add_numbers(&a, &b);
        }));
        assert!(result.is_err());
    }
}
