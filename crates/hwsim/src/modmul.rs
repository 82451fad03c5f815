//! DSP-based 64×64-bit modular multipliers (Section IV-d).
//!
//! The paper: "To compute 64x64 multiplications we can split our operands in
//! 32-bit components and use a basic 32x32-bit DSP multiplier, which
//! requires only two DSP blocks. Using school-book multiplication, four
//! 32x32-bit multipliers are needed; partial products are then summed and
//! modular reduced by Equation 4."
//!
//! [`DspModMul`] models exactly that; [`Dsp27ModMul`] models the
//! alternative 27×27-mode tiling (nine partial products, one DSP each) used
//! by the baseline design's resource estimate.

use he_field::{reduce, Fp};

/// One partial product of a tiled multiplication, for inspection/debugging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartialProduct {
    /// Row limb index of the tile.
    pub i: usize,
    /// Column limb index of the tile.
    pub j: usize,
    /// The tile's product value.
    pub value: u128,
}

/// The proposed modular multiplier: four 32×32 partial products
/// (two DSP blocks each → 8 DSPs), schoolbook accumulation, Eq. 4 reduction.
///
/// ```
/// use he_field::Fp;
/// use he_hwsim::modmul::DspModMul;
///
/// let unit = DspModMul::new();
/// let a = Fp::new(0x0123_4567_89ab_cdef);
/// let b = Fp::new(0xfedc_ba98_7654_3210 % he_field::P);
/// assert_eq!(unit.multiply(a, b), a * b);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct DspModMul;

impl DspModMul {
    /// Creates the multiplier model.
    pub fn new() -> DspModMul {
        DspModMul
    }

    /// DSP blocks one instance occupies.
    pub const fn dsp_blocks() -> u64 {
        8
    }

    /// The four 32×32 tiles of `a·b`.
    pub fn partial_products(&self, a: Fp, b: Fp) -> Vec<PartialProduct> {
        let (a0, a1) = (a.as_u64() as u32 as u64, a.as_u64() >> 32);
        let (b0, b1) = (b.as_u64() as u32 as u64, b.as_u64() >> 32);
        vec![
            PartialProduct {
                i: 0,
                j: 0,
                value: (a0 * b0) as u128,
            },
            PartialProduct {
                i: 0,
                j: 1,
                value: (a0 * b1) as u128,
            },
            PartialProduct {
                i: 1,
                j: 0,
                value: (a1 * b0) as u128,
            },
            PartialProduct {
                i: 1,
                j: 1,
                value: (a1 * b1) as u128,
            },
        ]
    }

    /// Multiplies through the modeled datapath: tiles → aligned sum →
    /// Normalize (Eq. 4) → AddMod.
    pub fn multiply(&self, a: Fp, b: Fp) -> Fp {
        let parts = self.partial_products(a, b);
        let wide: u128 = parts.iter().map(|p| p.value << (32 * (p.i + p.j))).sum();
        let (coarse, _) = reduce::normalize_eq4(wide);
        Fp::new(reduce::addmod_final(coarse))
    }
}

/// The baseline-style multiplier: 22-bit limbs in 27×27 DSP mode, nine
/// partial products, one DSP block each (9 DSPs total).
#[derive(Debug, Clone, Copy, Default)]
pub struct Dsp27ModMul;

impl Dsp27ModMul {
    /// Creates the multiplier model.
    pub fn new() -> Dsp27ModMul {
        Dsp27ModMul
    }

    /// DSP blocks one instance occupies.
    pub const fn dsp_blocks() -> u64 {
        9
    }

    /// The nine 22×22 tiles of `a·b`.
    pub fn partial_products(&self, a: Fp, b: Fp) -> Vec<PartialProduct> {
        const MASK: u64 = (1 << 22) - 1;
        let limb = |x: u64, i: usize| (x >> (22 * i)) & MASK;
        let mut out = Vec::with_capacity(9);
        for i in 0..3 {
            for j in 0..3 {
                out.push(PartialProduct {
                    i,
                    j,
                    value: (limb(a.as_u64(), i) * limb(b.as_u64(), j)) as u128,
                });
            }
        }
        out
    }

    /// Multiplies through the modeled datapath.
    pub fn multiply(&self, a: Fp, b: Fp) -> Fp {
        let wide: u128 = self
            .partial_products(a, b)
            .iter()
            .map(|p| p.value << (22 * (p.i + p.j)))
            .sum();
        let (coarse, _) = reduce::normalize_eq4(wide);
        Fp::new(reduce::addmod_final(coarse))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use he_field::P;

    fn samples() -> Vec<Fp> {
        vec![
            Fp::ZERO,
            Fp::ONE,
            Fp::new(2),
            Fp::new(0xffff_ffff),
            Fp::new(0x1_0000_0000),
            Fp::new(P - 1),
            Fp::new(P - 2),
            Fp::new(0x0123_4567_89ab_cdef),
            Fp::new(u64::MAX), // reduced by new()
        ]
    }

    #[test]
    fn dsp32_matches_field_multiplication() {
        let unit = DspModMul::new();
        for &a in &samples() {
            for &b in &samples() {
                assert_eq!(unit.multiply(a, b), a * b, "a={a:?} b={b:?}");
            }
        }
    }

    #[test]
    fn dsp27_matches_field_multiplication() {
        let unit = Dsp27ModMul::new();
        for &a in &samples() {
            for &b in &samples() {
                assert_eq!(unit.multiply(a, b), a * b, "a={a:?} b={b:?}");
            }
        }
    }

    #[test]
    fn partial_product_counts_and_dsp_costs() {
        let a = Fp::new(12345);
        let b = Fp::new(67890);
        assert_eq!(DspModMul::new().partial_products(a, b).len(), 4);
        assert_eq!(Dsp27ModMul::new().partial_products(a, b).len(), 9);
        assert_eq!(DspModMul::dsp_blocks(), 8);
        assert_eq!(Dsp27ModMul::dsp_blocks(), 9);
    }

    #[test]
    fn partial_products_reassemble() {
        let a = Fp::new(0xdead_beef_1234_5678);
        let b = Fp::new(0x0fed_cba9_8765_4321);
        let direct = a.as_u64() as u128 * b.as_u64() as u128;
        let sum32: u128 = DspModMul::new()
            .partial_products(a, b)
            .iter()
            .map(|p| p.value << (32 * (p.i + p.j)))
            .sum();
        assert_eq!(sum32, direct);
        let sum27: u128 = Dsp27ModMul::new()
            .partial_products(a, b)
            .iter()
            .map(|p| p.value << (22 * (p.i + p.j)))
            .sum();
        assert_eq!(sum27, direct);
    }
}
