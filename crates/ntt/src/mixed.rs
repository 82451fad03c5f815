//! General mixed-radix Cooley–Tukey decomposition (paper Eq. 1).
//!
//! For `N = R·M` and index split `n = M·d + m` (`d` the high digit), the
//! DFT factors as
//!
//! ```text
//! F[kA + R·kB] = Σ_m [ (Σ_d a[M·d + m]·ω_R^{d·kA}) · ω^{kA·m} ] · ω_M^{m·kB}
//! ```
//!
//! — an inner `R`-point DFT per residue `m`, a twiddle multiplication
//! (the accelerator's DSP-based modular multipliers), and a recursive
//! `M`-point transform. Choosing radices from `{8, 16, 32, 64}` makes every
//! inner DFT shift-only ([`crate::kernels`]); the paper's 64K plan is the
//! radix list `[64, 64, 16]`.
//!
//! This is an **oracle**, not a production path: it executes the recursion
//! exactly as written, stage by stage on the radix list it is given, so
//! tests can cross-check the compiled engine ([`crate::Radix2kPlan`])
//! against an independent algorithm — including at sizes the engine does
//! not plan at all (any length dividing `p − 1`, power of two or not).

use he_field::{roots, Fp};

use crate::error::NttError;
use crate::kernels::{self, Direction};
use crate::naive;
use crate::scratch::NttScratch;

/// A planned mixed-radix NTT that always executes its radix list.
///
/// Input and output are in natural order.
///
/// ```
/// use he_field::Fp;
/// use he_ntt::MixedRadixPlan;
///
/// // A 4096-point transform as radix-64 × radix-64.
/// let plan = MixedRadixPlan::new(&[64, 64])?;
/// let input: Vec<Fp> = (0..4096).map(Fp::new).collect();
/// let freq = plan.forward(&input);
/// assert_eq!(plan.inverse(&freq), input);
/// # Ok::<(), he_ntt::NttError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MixedRadixPlan {
    n: usize,
    radices: Vec<usize>,
    omega: Fp,
    /// `omega^e` for `e` in `[0, n)`.
    forward_table: Vec<Fp>,
    n_inv: Fp,
}

impl MixedRadixPlan {
    /// Plans a transform of length `Π radices` with the canonical root.
    ///
    /// Radices are listed outermost-first: `radices[0]` is the first
    /// computation stage (the paper's stage operating on the
    /// highest-stride digit).
    ///
    /// # Errors
    ///
    /// Returns [`NttError::UnsupportedSize`] if the radix list is empty, a
    /// radix is `< 2`, or the product does not divide `p − 1`.
    pub fn new(radices: &[usize]) -> Result<MixedRadixPlan, NttError> {
        if radices.is_empty() {
            return Err(NttError::UnsupportedSize {
                n: 0,
                reason: "at least one radix is required",
            });
        }
        if let Some(&r) = radices.iter().find(|&&r| r < 2) {
            return Err(NttError::UnsupportedSize {
                n: r,
                reason: "radices must be at least 2",
            });
        }
        let n: usize = radices.iter().product();
        let omega = roots::root_of_unity(n as u64).ok_or(NttError::UnsupportedSize {
            n,
            reason: "transform length must divide p-1",
        })?;
        let forward_table = roots::power_table(omega, n);
        let n_inv = Fp::new(n as u64).inverse().expect("n < p");
        Ok(MixedRadixPlan {
            n,
            radices: radices.to_vec(),
            omega,
            forward_table,
            n_inv,
        })
    }

    /// The transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the plan is empty (never; provided for convention).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The radix list, outermost stage first.
    pub fn radices(&self) -> &[usize] {
        &self.radices
    }

    /// The primitive root used by the plan.
    pub fn omega(&self) -> Fp {
        self.omega
    }

    /// Forward transform.
    ///
    /// Thin allocating wrapper over [`MixedRadixPlan::forward_into`].
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` differs from the plan length.
    pub fn forward(&self, input: &[Fp]) -> Vec<Fp> {
        let mut data = input.to_vec();
        self.forward_into(&mut data, &mut NttScratch::new());
        data
    }

    /// Inverse transform including the `1/n` scaling.
    ///
    /// Thin allocating wrapper over [`MixedRadixPlan::inverse_into`].
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` differs from the plan length.
    pub fn inverse(&self, input: &[Fp]) -> Vec<Fp> {
        let mut data = input.to_vec();
        self.inverse_into(&mut data, &mut NttScratch::new());
        data
    }

    /// In-place forward transform staging through `scratch`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the plan length.
    pub fn forward_into(&self, data: &mut [Fp], scratch: &mut NttScratch) {
        assert_eq!(data.len(), self.n, "input length must equal plan length");
        let mut out = scratch.take_any(self.n);
        self.transform_rec(
            data,
            &mut out,
            1,
            &self.radices,
            Direction::Forward,
            scratch,
        );
        data.copy_from_slice(&out);
        scratch.put(out);
    }

    /// In-place inverse transform (including the `1/n` scaling) staging
    /// through `scratch`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the plan length.
    pub fn inverse_into(&self, data: &mut [Fp], scratch: &mut NttScratch) {
        assert_eq!(data.len(), self.n, "input length must equal plan length");
        let mut out = scratch.take_any(self.n);
        self.transform_rec(
            data,
            &mut out,
            1,
            &self.radices,
            Direction::Inverse,
            scratch,
        );
        for (slot, &v) in data.iter_mut().zip(out.iter()) {
            *slot = v * self.n_inv;
        }
        scratch.put(out);
    }

    /// Looks up `ω^{±(stride·e)}` from the precomputed table.
    #[inline]
    fn tw(&self, stride: usize, e: usize, direction: Direction) -> Fp {
        // stride ≤ n and e % n < n, so the product fits 64-bit usize for all
        // plannable sizes (n ≤ 2^26).
        let idx = (stride * (e % self.n)) % self.n;
        match direction {
            Direction::Forward => self.forward_table[idx],
            Direction::Inverse => self.forward_table[(self.n - idx) % self.n],
        }
    }

    /// Recursive Cooley–Tukey step writing into `out`. `stride` expresses
    /// the current level's root as `ω_level = ω^stride`; all intermediate
    /// buffers come from (and return to) `scratch`.
    fn transform_rec(
        &self,
        input: &[Fp],
        out: &mut [Fp],
        stride: usize,
        radices: &[usize],
        direction: Direction,
        scratch: &mut NttScratch,
    ) {
        let len = input.len();
        debug_assert_eq!(out.len(), len);
        if radices.len() == 1 {
            self.base_dft_into(input, out, stride, direction);
            return;
        }
        let r = radices[0];
        let m_len = len / r;
        debug_assert_eq!(m_len * r, len);

        // Inner R-point DFTs over the high digit, one per residue m.
        // g[kA·m_len + m] = Σ_d input[M·d + m]·ω_R^{d·kA}
        let mut g = scratch.take_any(len);
        let mut column = scratch.take_any(r);
        let mut sub = scratch.take_any(r);
        for m in 0..m_len {
            for (d, c) in column.iter_mut().enumerate() {
                *c = input[m_len * d + m];
            }
            self.base_dft_into(&column, &mut sub, stride * m_len, direction);
            for (ka, &v) in sub.iter().enumerate() {
                g[ka * m_len + m] = v;
            }
        }
        scratch.put(column);
        scratch.put(sub);

        // Twiddle + recurse on each row.
        let mut row_out = scratch.take_any(m_len);
        for ka in 0..r {
            let row = &mut g[ka * m_len..(ka + 1) * m_len];
            if ka > 0 {
                for (m, v) in row.iter_mut().enumerate() {
                    *v *= self.tw(stride, ka * m, direction);
                }
            }
            self.transform_rec(
                row,
                &mut row_out,
                stride * r,
                &radices[1..],
                direction,
                scratch,
            );
            for (kb, &v) in row_out.iter().enumerate() {
                out[ka + r * kb] = v;
            }
        }
        scratch.put(row_out);
        scratch.put(g);
    }

    /// Base-case DFT with root `ω^stride` into `out`; uses the shift-only
    /// kernel when the root matches the canonical power-of-two root.
    fn base_dft_into(&self, input: &[Fp], out: &mut [Fp], stride: usize, direction: Direction) {
        let r = input.len();
        let omega_base = self.tw(stride, 1, Direction::Forward);
        if kernels::supports(r) {
            let canonical = roots::root_of_unity(r as u64).expect("r divides 192");
            if omega_base == canonical {
                kernels::ntt_small_into(input, out, direction).expect("size checked");
                return;
            }
        }
        match direction {
            Direction::Forward => naive::dft_into(input, out, omega_base),
            Direction::Inverse => {
                naive::dft_into(input, out, omega_base.inverse().expect("root is nonzero"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<Fp> {
        (0..n as u64)
            .map(|i| Fp::new(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
            .collect()
    }

    #[test]
    fn rejects_bad_plans() {
        assert!(MixedRadixPlan::new(&[]).is_err());
        assert!(MixedRadixPlan::new(&[1]).is_err());
        assert!(MixedRadixPlan::new(&[64, 0]).is_err());
        // 3·7 = 21 does not divide p−1? p−1 = 2^32·3·5·17·257·65537, so 21
        // does NOT divide (no factor 7).
        assert!(MixedRadixPlan::new(&[3, 7]).is_err());
    }

    #[test]
    fn single_stage_matches_kernel_sizes() {
        for r in [8usize, 16, 32, 64] {
            let plan = MixedRadixPlan::new(&[r]).unwrap();
            let input = ramp(r);
            assert_eq!(
                plan.forward(&input),
                naive::dft(&input, plan.omega()),
                "r = {r}"
            );
        }
    }

    #[test]
    fn two_stage_matches_naive() {
        for radices in [[8usize, 8], [16, 8], [8, 16], [16, 16], [64, 16]] {
            let plan = MixedRadixPlan::new(&radices).unwrap();
            let input = ramp(plan.len());
            assert_eq!(
                plan.forward(&input),
                naive::dft(&input, plan.omega()),
                "radices = {radices:?}"
            );
        }
    }

    #[test]
    fn three_stage_roundtrip() {
        for radices in [[8usize, 8, 8], [16, 8, 8], [32, 16, 8]] {
            let plan = MixedRadixPlan::new(&radices).unwrap();
            let input = ramp(plan.len());
            assert_eq!(
                plan.inverse(&plan.forward(&input)),
                input,
                "radices = {radices:?}"
            );
        }
    }

    #[test]
    fn non_power_of_two_radices_work() {
        // Radix 3 and 5 divide p−1; base case falls back to the naive DFT.
        let plan = MixedRadixPlan::new(&[3, 5]).unwrap();
        let input = ramp(15);
        assert_eq!(plan.forward(&input), naive::dft(&input, plan.omega()));
        assert_eq!(plan.inverse(&plan.forward(&input)), input);
    }

    #[test]
    fn into_matches_allocating_including_naive_base_cases() {
        let mut scratch = NttScratch::new();
        for radices in [vec![8usize, 8], vec![64, 16], vec![3, 5], vec![8, 8, 8]] {
            let plan = MixedRadixPlan::new(&radices).unwrap();
            let input = ramp(plan.len());
            let expected = plan.forward(&input);
            let mut data = input.clone();
            for _ in 0..2 {
                plan.forward_into(&mut data, &mut scratch);
                assert_eq!(data, expected, "radices = {radices:?}");
                plan.inverse_into(&mut data, &mut scratch);
                assert_eq!(data, input, "radices = {radices:?}");
            }
        }
    }

    #[test]
    fn paper_plan_shape() {
        let plan = MixedRadixPlan::new(&[64, 64, 16]).unwrap();
        assert_eq!(plan.len(), 65_536);
        assert_eq!(plan.radices(), &[64, 64, 16]);
        assert_eq!(plan.omega(), he_field::roots::omega_64k());
    }

    #[test]
    fn stage_order_is_observable() {
        // [64,16] and [16,64] are different factorizations of 1024 that must
        // agree on the result.
        let a = MixedRadixPlan::new(&[64, 16]).unwrap();
        let b = MixedRadixPlan::new(&[16, 64]).unwrap();
        let input = ramp(1024);
        assert_eq!(a.forward(&input), b.forward(&input));
    }
}
