//! The paper's 64K-point transform (Eq. 2): the production engine pinned
//! to the paper's length and root.
//!
//! The paper decomposes the 64K transform as radix-64 × radix-64 ×
//! radix-16 (input `n = 1024·n3 + 16·n2 + n1`, output
//! `k = kA + 64·kB + 4096·kC`): two stages of 1024 shift-only 64-point
//! DFTs, a stage of 4096 shift-only 16-point DFTs, and DSP modular
//! multipliers for the inter-stage twiddles. That hardware census and the
//! timing model built on it
//! (`T_FFT = 2·(T_C·8·1024)/P + (T_C·2)·4096/P`) live in `he_hwsim::perf`.
//!
//! In software the same transform is a [`Radix2kPlan`] — the radix-2^k
//! schedule `[6, 5, 5]` is the software analogue of the paper's 64/64/16
//! split (radix-64, radix-32, radix-32 groups, each group one data pass
//! with an in-register shift-only network). `Ntt64k` only pins the length
//! to [`N64K`] and the root to the canonical aligned
//! [`roots::omega_64k`] — which is also what
//! [`Radix2kPlan::new`]`(N64K)` plans, so spectra are bit-identical
//! between the two.

use he_field::{roots, Fp};

use crate::radix2k::Radix2kPlan;
use crate::scratch::NttScratch;

/// The transform length of the paper's plan: 64K points.
pub const N64K: usize = 65_536;

/// The paper's 64K-point NTT, forward and inverse, with precomputed
/// twiddle tables.
///
/// The inverse's `1/65536 = 2^{176} (mod p)` scaling costs nothing: the
/// engine's last inverse stage table holds `ω⁻ᵏ/N` — the hardware
/// reading is a stage-3 twiddle ROM with the `1/N` burnt in, zero extra
/// cycles — so an inverse transform costs exactly a forward one.
///
/// ```
/// use he_field::Fp;
/// use he_ntt::{Ntt64k, N64K};
///
/// let plan = Ntt64k::new();
/// let mut x = vec![Fp::ZERO; N64K];
/// x[3] = Fp::new(9);
/// assert_eq!(plan.inverse(&plan.forward(&x)), x);
/// ```
#[derive(Debug, Clone)]
pub struct Ntt64k {
    /// The compiled radix-2^k engine (schedule `[6, 5, 5]`) on the
    /// canonical aligned 65,536th root.
    engine: Radix2kPlan,
}

impl Default for Ntt64k {
    fn default() -> Ntt64k {
        Ntt64k::new()
    }
}

impl Ntt64k {
    /// Builds the plan (the engine computes its stage and micro twiddle
    /// tables once; they are shared by every transform).
    pub fn new() -> Ntt64k {
        Ntt64k {
            engine: Radix2kPlan::with_omega(N64K, roots::omega_64k())
                .expect("the canonical 65536th root plans a 64K transform"),
        }
    }

    /// The transform length (always [`N64K`]).
    pub fn len(&self) -> usize {
        N64K
    }

    /// Whether the plan is empty (never; provided for convention).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The primitive 65,536th root in use.
    pub fn omega(&self) -> Fp {
        self.engine.omega()
    }

    /// Bytes held by the engine's precomputed twiddle tables (computed
    /// once at construction, shared by every transform).
    pub fn table_bytes(&self) -> usize {
        self.engine.table_bytes()
    }

    /// Forward 64K-point transform (natural order in and out).
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != 65536`.
    pub fn forward(&self, input: &[Fp]) -> Vec<Fp> {
        self.engine.forward(input)
    }

    /// Inverse 64K-point transform including the `1/n` scaling.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != 65536`.
    pub fn inverse(&self, input: &[Fp]) -> Vec<Fp> {
        self.engine.inverse(input)
    }

    // The engine is fully in place, so `_scratch` is never touched; the
    // parameter stays because `benchmark/` (frozen) calls these two with
    // that signature.

    /// In-place forward transform.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != 65536`.
    pub fn forward_into(&self, data: &mut [Fp], _scratch: &mut NttScratch) {
        self.engine
            .forward_in_place(data)
            .expect("Ntt64k operates on 65536 points");
    }

    /// In-place inverse transform (including the `1/n` scaling, carried
    /// by the last stage's twiddle table).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != 65536`.
    pub fn inverse_into(&self, data: &mut [Fp], _scratch: &mut NttScratch) {
        self.engine
            .inverse_in_place(data)
            .expect("Ntt64k operates on 65536 points");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mixed::MixedRadixPlan;

    fn sparse_input() -> Vec<Fp> {
        let mut v = vec![Fp::ZERO; N64K];
        v[0] = Fp::new(3);
        v[1] = Fp::new(1);
        v[17] = Fp::new(255);
        v[1024] = Fp::new(7);
        v[65_535] = Fp::new(11);
        v
    }

    #[test]
    fn impulse_spectrum_is_flat() {
        let plan = Ntt64k::new();
        let mut v = vec![Fp::ZERO; N64K];
        v[0] = Fp::new(42);
        let f = plan.forward(&v);
        assert!(f.iter().all(|&x| x == Fp::new(42)));
    }

    #[test]
    fn shifted_impulse_spectrum_is_geometric() {
        let plan = Ntt64k::new();
        let mut v = vec![Fp::ZERO; N64K];
        v[1] = Fp::ONE;
        let f = plan.forward(&v);
        let w = plan.omega();
        // Spot-check a handful of frequencies (the full check is O(n log n)
        // worth of pows).
        for k in [0usize, 1, 2, 63, 64, 4095, 4096, 65_535] {
            assert_eq!(f[k], w.pow(k as u64), "k = {k}");
        }
    }

    #[test]
    fn roundtrip() {
        let plan = Ntt64k::new();
        let v = sparse_input();
        assert_eq!(plan.inverse(&plan.forward(&v)), v);
    }

    #[test]
    fn into_matches_allocating_and_never_takes_scratch() {
        let plan = Ntt64k::new();
        let v = sparse_input();
        let expected = plan.forward(&v);
        let mut scratch = NttScratch::new();
        let mut data = v.clone();
        // Two roundtrips through the same scratch: values must bit-match
        // the allocating API every time.
        for _ in 0..2 {
            plan.forward_into(&mut data, &mut scratch);
            assert_eq!(data, expected);
            plan.inverse_into(&mut data, &mut scratch);
            assert_eq!(data, v);
        }
        assert_eq!(
            scratch.pooled(),
            0,
            "the radix-2^k engine is fully in-place: no staging buffer"
        );
    }

    #[test]
    fn single_thread_matches_parallel() {
        // The parallel fan-out must be a pure scheduling change.
        let plan = Ntt64k::new();
        let v = sparse_input();
        let expected = plan.forward(&v);
        crate::par::set_threads(1);
        let sequential = plan.forward(&v);
        crate::par::set_threads(0);
        assert_eq!(sequential, expected);
    }

    #[test]
    fn matches_generic_mixed_radix() {
        // The pure Eq. 1 recursion on the paper's radix list is the
        // independent reference implementation, so this cross-checks two
        // distinct algorithms.
        let plan = Ntt64k::new();
        let generic = MixedRadixPlan::new(&[64, 64, 16]).unwrap();
        let v = sparse_input();
        assert_eq!(plan.forward(&v), generic.forward(&v));
    }

    #[test]
    fn alternative_factorizations_agree() {
        // The unit "can be adapted … to compute also Radix-8, Radix-16 and
        // Radix-32 FFTs. This gives us greater flexibility in choosing an
        // FFT order": any factorization of 64K must give the same spectrum.
        let plan = Ntt64k::new();
        let v = sparse_input();
        let reference = plan.forward(&v);
        for radices in [
            vec![32usize, 32, 8, 8],
            vec![16, 64, 64],
            vec![8, 8, 8, 8, 16],
        ] {
            let alt = MixedRadixPlan::new(&radices).unwrap();
            assert_eq!(alt.len(), N64K);
            assert_eq!(alt.forward(&v), reference, "radices {radices:?}");
        }
    }

    #[test]
    fn table_footprint_is_shared_and_bounded() {
        // Twiddle tables live on the plan (built once at construction),
        // not in any scratch: the 64K plan's whole footprint stays under
        // 2 MiB and transforms take nothing from the pool.
        let plan = Ntt64k::new();
        assert!(plan.table_bytes() > 0);
        assert!(plan.table_bytes() < 2 * 1024 * 1024);
    }
}
