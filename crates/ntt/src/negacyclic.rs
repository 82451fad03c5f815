//! Negacyclic (twisted) transforms: polynomial multiplication modulo
//! `X^n + 1`.
//!
//! Section III of the paper notes that ultralong multiplication "plays a
//! central role in different fully homomorphic schemes, such as the
//! integer-based approach and solutions based on Lattice problems and
//! Learning with Errors, which may thus be implemented on top of the
//! accelerator". RLWE-based schemes multiply polynomials in
//! `Z_p[X]/(X^n + 1)` — a **negacyclic** convolution, obtained from the
//! cyclic transform by pre-twisting with powers of `ψ` where `ψ² = ω`:
//!
//! ```text
//! (a ⊛ b)[k] = ψ^{-k} · InvNTT( NTT(ψ^i·a[i]) ⊙ NTT(ψ^i·b[i]) )[k]
//! ```
//!
//! The same FFT hardware therefore serves RLWE workloads, exactly as the
//! paper claims; the `rlwe_polymul` example demonstrates it.

use he_field::{roots, Fp};

use crate::error::NttError;
use crate::radix2k::Radix2kPlan;
use crate::scratch::NttScratch;

/// A planned negacyclic transformer for length-`n` polynomials
/// (`n` a power of two, `2n ≤ 2^32`).
///
/// ```
/// use he_field::Fp;
/// use he_ntt::negacyclic::NegacyclicPlan;
///
/// // (X + 1)·(X − 1) = X² − 1 ≡ −1 − 0·X + X² ... in Z[X]/(X²+1): X² ≡ −1,
/// // so the product is −2.
/// let plan = NegacyclicPlan::new(2)?;
/// let a = vec![Fp::ONE, Fp::ONE];            // 1 + X
/// let b = vec![-Fp::ONE, Fp::ONE];           // −1 + X
/// let c = plan.multiply(&a, &b);
/// assert_eq!(c, vec![-Fp::new(2), Fp::ZERO]); // −2
/// # Ok::<(), he_ntt::NttError>(())
/// ```
#[derive(Debug, Clone)]
pub struct NegacyclicPlan {
    n: usize,
    plan: Radix2kPlan,
    /// `ψ^i` for `i ∈ [0, n)`, `ψ` a primitive 2n-th root with `ψ² = ω`.
    psi: Vec<Fp>,
    /// `ψ^{-i}` for `i ∈ [0, n)`.
    psi_inv: Vec<Fp>,
}

impl NegacyclicPlan {
    /// Plans a negacyclic multiplier for length-`n` polynomials.
    ///
    /// # Errors
    ///
    /// Returns [`NttError::UnsupportedSize`] unless `n` is a power of two
    /// with a `2n`-th root of unity available.
    pub fn new(n: usize) -> Result<NegacyclicPlan, NttError> {
        if !n.is_power_of_two() || n < 2 {
            return Err(NttError::UnsupportedSize {
                n,
                reason: "negacyclic length must be a power of two >= 2",
            });
        }
        let psi_root = roots::root_of_unity(2 * n as u64).ok_or(NttError::UnsupportedSize {
            n,
            reason: "2n must divide p-1",
        })?;
        // ψ² is a primitive n-th root; build the cyclic plan on exactly it
        // so the twist identity holds.
        let plan = Radix2kPlan::with_omega(n, psi_root.square())?;
        let psi = roots::power_table(psi_root, n);
        let psi_inv_root = psi_root.inverse().expect("root of unity");
        let psi_inv = roots::power_table(psi_inv_root, n);
        Ok(NegacyclicPlan {
            n,
            plan,
            psi,
            psi_inv,
        })
    }

    /// The polynomial length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the plan is empty (never; provided for convention).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Bytes held by the precomputed tables: the cyclic engine's twiddles
    /// plus the ψ / ψ⁻¹ twist tables. Computed once at construction and
    /// shared by every transform.
    pub fn table_bytes(&self) -> usize {
        self.plan.table_bytes()
            + std::mem::size_of_val(self.psi.as_slice())
            + std::mem::size_of_val(self.psi_inv.as_slice())
    }

    /// Forward negacyclic transform: twist then cyclic NTT.
    ///
    /// Thin allocating wrapper over [`NegacyclicPlan::forward_into`].
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` differs from the plan length.
    pub fn forward(&self, input: &[Fp]) -> Vec<Fp> {
        let mut data = input.to_vec();
        self.forward_into(&mut data);
        data
    }

    /// Inverse negacyclic transform: cyclic inverse NTT then untwist.
    ///
    /// Thin allocating wrapper over [`NegacyclicPlan::inverse_into`].
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` differs from the plan length.
    pub fn inverse(&self, input: &[Fp]) -> Vec<Fp> {
        let mut data = input.to_vec();
        self.inverse_into(&mut data);
        data
    }

    /// In-place forward negacyclic transform (the ψ-twist and the cyclic
    /// pass both operate where the data lives; no scratch is needed).
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the plan length.
    pub fn forward_into(&self, data: &mut [Fp]) {
        assert_eq!(data.len(), self.n, "input length must equal plan length");
        for (a, &psi) in data.iter_mut().zip(&self.psi) {
            *a *= psi;
        }
        self.plan
            .forward_in_place(data)
            .expect("length checked above");
    }

    /// In-place inverse negacyclic transform.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the plan length.
    pub fn inverse_into(&self, data: &mut [Fp]) {
        assert_eq!(data.len(), self.n, "input length must equal plan length");
        self.plan
            .inverse_in_place(data)
            .expect("length checked above");
        for (a, &psi_inv) in data.iter_mut().zip(&self.psi_inv) {
            *a *= psi_inv;
        }
    }

    /// Multiplies two polynomials modulo `X^n + 1`.
    ///
    /// Thin allocating wrapper over [`NegacyclicPlan::multiply_into`].
    ///
    /// # Panics
    ///
    /// Panics if either operand's length differs from the plan length.
    pub fn multiply(&self, a: &[Fp], b: &[Fp]) -> Vec<Fp> {
        let mut out = vec![Fp::ZERO; self.n];
        self.multiply_into(a, b, &mut out, &mut NttScratch::new());
        out
    }

    /// Multiplies two polynomials modulo `X^n + 1` into `out`, staging the
    /// two spectra in `scratch` — allocation-free once the scratch is warm.
    ///
    /// # Panics
    ///
    /// Panics if any buffer's length differs from the plan length.
    pub fn multiply_into(&self, a: &[Fp], b: &[Fp], out: &mut [Fp], scratch: &mut NttScratch) {
        assert_eq!(out.len(), self.n, "output length must equal plan length");
        assert_eq!(a.len(), self.n, "input length must equal plan length");
        assert_eq!(b.len(), self.n, "input length must equal plan length");
        out.copy_from_slice(a);
        self.forward_into(out);
        let mut fb = scratch.take_any(self.n);
        fb.copy_from_slice(b);
        self.forward_into(&mut fb);
        for (x, &y) in out.iter_mut().zip(fb.iter()) {
            *x *= y;
        }
        scratch.put(fb);
        self.inverse_into(out);
    }
}

/// Reference negacyclic convolution by the definition:
/// `c[k] = Σ_{i+j=k} a_i·b_j − Σ_{i+j=k+n} a_i·b_j`.
pub fn naive_negacyclic(a: &[Fp], b: &[Fp]) -> Vec<Fp> {
    assert_eq!(a.len(), b.len());
    let n = a.len();
    let mut out = vec![Fp::ZERO; n];
    for (i, &ai) in a.iter().enumerate() {
        for (j, &bj) in b.iter().enumerate() {
            let k = (i + j) % n;
            let term = ai * bj;
            if i + j < n {
                out[k] += term;
            } else {
                out[k] -= term; // X^n ≡ −1
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poly(n: usize, seed: u64) -> Vec<Fp> {
        (0..n as u64)
            .map(|i| Fp::new(i.wrapping_mul(seed) ^ 0x5a5a))
            .collect()
    }

    #[test]
    fn rejects_bad_lengths() {
        assert!(NegacyclicPlan::new(0).is_err());
        assert!(NegacyclicPlan::new(1).is_err());
        assert!(NegacyclicPlan::new(3).is_err());
    }

    #[test]
    fn transform_roundtrips() {
        // The cyclic core runs on the non-canonical root ψ²: single-pass
        // (n ≤ 64), tabled, and from 1024 up behind the tiled reversal.
        for n in [2usize, 8, 64, 256, 2048] {
            let plan = NegacyclicPlan::new(n).unwrap();
            let a = poly(n, 0x9e37);
            assert_eq!(plan.inverse(&plan.forward(&a)), a, "n = {n}");
        }
    }

    #[test]
    fn multiply_matches_naive() {
        for n in [2usize, 4, 16, 128, 1024] {
            let plan = NegacyclicPlan::new(n).unwrap();
            let a = poly(n, 0x1234);
            let b = poly(n, 0xfeed);
            assert_eq!(plan.multiply(&a, &b), naive_negacyclic(&a, &b), "n = {n}");
        }
    }

    #[test]
    fn x_to_the_n_is_minus_one() {
        // X^{n/2} · X^{n/2} = X^n ≡ −1.
        let n = 16;
        let plan = NegacyclicPlan::new(n).unwrap();
        let mut half = vec![Fp::ZERO; n];
        half[n / 2] = Fp::ONE;
        let sq = plan.multiply(&half, &half);
        let mut expected = vec![Fp::ZERO; n];
        expected[0] = -Fp::ONE;
        assert_eq!(sq, expected);
    }

    #[test]
    fn wraparound_sign_differs_from_cyclic() {
        let n = 8;
        let plan = NegacyclicPlan::new(n).unwrap();
        let a = poly(n, 3);
        let b = poly(n, 5);
        let nega = plan.multiply(&a, &b);
        let cyclic = crate::naive::cyclic_convolve(&a, &b);
        assert_ne!(nega, cyclic, "wrap terms must flip sign");
    }
}
