//! Dense polynomials over `F_p`.

use core::fmt;
use core::ops::{Add, AddAssign, Mul, Neg, Sub};

use he_field::Fp;
use he_ntt::{convolution, naive, Radix2kPlan};

/// Coefficient count above which multiplication switches from schoolbook
/// to NTT convolution.
const NTT_MUL_THRESHOLD: usize = 64;

/// A dense polynomial over `F_p`, little-endian coefficients, normalized
/// (no trailing zero coefficients; zero is the empty vector).
///
/// ```
/// use he_field::Fp;
/// use he_poly::Poly;
///
/// let p = Poly::from_coeffs(vec![Fp::new(3), Fp::ZERO, Fp::ONE]); // 3 + X²
/// assert_eq!(p.degree(), Some(2));
/// assert_eq!(p.evaluate(Fp::new(2)), Fp::new(7));
/// ```
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Poly {
    coeffs: Vec<Fp>,
}

impl Poly {
    /// The zero polynomial.
    pub fn zero() -> Poly {
        Poly::default()
    }

    /// The constant polynomial `1`.
    pub fn one() -> Poly {
        Poly {
            coeffs: vec![Fp::ONE],
        }
    }

    /// The monomial `X^k`.
    pub fn monomial(k: usize) -> Poly {
        let mut coeffs = vec![Fp::ZERO; k + 1];
        coeffs[k] = Fp::ONE;
        Poly { coeffs }
    }

    /// Builds from little-endian coefficients, trimming trailing zeros.
    pub fn from_coeffs(mut coeffs: Vec<Fp>) -> Poly {
        while coeffs.last() == Some(&Fp::ZERO) {
            coeffs.pop();
        }
        Poly { coeffs }
    }

    /// A uniformly random polynomial of degree `< n`.
    pub fn random<R: rand::Rng + ?Sized>(rng: &mut R, n: usize) -> Poly {
        Poly::from_coeffs((0..n).map(|_| Fp::new(rng.gen())).collect())
    }

    /// The coefficients (little-endian, no trailing zeros).
    pub fn coeffs(&self) -> &[Fp] {
        &self.coeffs
    }

    /// The coefficient of `X^k` (zero beyond the degree).
    pub fn coeff(&self, k: usize) -> Fp {
        self.coeffs.get(k).copied().unwrap_or(Fp::ZERO)
    }

    /// The degree, or `None` for the zero polynomial.
    pub fn degree(&self) -> Option<usize> {
        self.coeffs.len().checked_sub(1)
    }

    /// Whether this is the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Horner evaluation at `x`.
    pub fn evaluate(&self, x: Fp) -> Fp {
        self.coeffs
            .iter()
            .rev()
            .fold(Fp::ZERO, |acc, &c| acc * x + c)
    }

    /// Schoolbook multiplication (quadratic; reference and small-degree
    /// path).
    pub fn mul_schoolbook(&self, other: &Poly) -> Poly {
        if self.is_zero() || other.is_zero() {
            return Poly::zero();
        }
        let mut out = vec![Fp::ZERO; self.coeffs.len() + other.coeffs.len() - 1];
        for (i, &a) in self.coeffs.iter().enumerate() {
            if a.is_zero() {
                continue;
            }
            for (j, &b) in other.coeffs.iter().enumerate() {
                out[i + j] += a * b;
            }
        }
        Poly::from_coeffs(out)
    }

    /// NTT-backed multiplication: zero-pad to a power of two covering the
    /// product and convolve — the accelerator's dataflow.
    pub fn mul_ntt(&self, other: &Poly) -> Poly {
        if self.is_zero() || other.is_zero() {
            return Poly::zero();
        }
        let product_len = self.coeffs.len() + other.coeffs.len() - 1;
        let n = product_len.next_power_of_two().max(2);
        let pad = |p: &Poly| {
            let mut v = p.coeffs.clone();
            v.resize(n, Fp::ZERO);
            v
        };
        let plan = Radix2kPlan::new(n).expect("power of two within field 2-adicity");
        let fa = plan.forward(&pad(self));
        let fb = plan.forward(&pad(other));
        Poly::from_coeffs(plan.inverse(&convolution::pointwise(&fa, &fb)))
    }

    /// Cyclic product: `self·other mod (X^n − 1)`.
    ///
    /// # Panics
    ///
    /// Panics unless both operands have fewer than `n + 1` coefficients
    /// and `n` is a supported power of two.
    pub fn mul_mod_xn_minus_1(&self, other: &Poly, n: usize) -> Poly {
        assert!(self.coeffs.len() <= n && other.coeffs.len() <= n);
        let pad = |p: &Poly| {
            let mut v = p.coeffs.clone();
            v.resize(n, Fp::ZERO);
            v
        };
        Poly::from_coeffs(naive::cyclic_convolve(&pad(self), &pad(other)))
    }
}

impl fmt::Debug for Poly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "Poly(0)");
        }
        write!(f, "Poly(deg {} [", self.coeffs.len() - 1)?;
        for (i, c) in self.coeffs.iter().take(4).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        if self.coeffs.len() > 4 {
            write!(f, ", …")?;
        }
        write!(f, "])")
    }
}

impl Add<&Poly> for &Poly {
    type Output = Poly;

    fn add(self, rhs: &Poly) -> Poly {
        let n = self.coeffs.len().max(rhs.coeffs.len());
        Poly::from_coeffs((0..n).map(|i| self.coeff(i) + rhs.coeff(i)).collect())
    }
}

impl Add for Poly {
    type Output = Poly;

    fn add(self, rhs: Poly) -> Poly {
        &self + &rhs
    }
}

impl AddAssign<&Poly> for Poly {
    fn add_assign(&mut self, rhs: &Poly) {
        *self = &*self + rhs;
    }
}

impl Sub<&Poly> for &Poly {
    type Output = Poly;

    fn sub(self, rhs: &Poly) -> Poly {
        let n = self.coeffs.len().max(rhs.coeffs.len());
        Poly::from_coeffs((0..n).map(|i| self.coeff(i) - rhs.coeff(i)).collect())
    }
}

impl Sub for Poly {
    type Output = Poly;

    fn sub(self, rhs: Poly) -> Poly {
        &self - &rhs
    }
}

impl Neg for &Poly {
    type Output = Poly;

    fn neg(self) -> Poly {
        Poly::from_coeffs(self.coeffs.iter().map(|&c| -c).collect())
    }
}

impl Neg for Poly {
    type Output = Poly;

    fn neg(self) -> Poly {
        -&self
    }
}

impl Mul<&Poly> for &Poly {
    type Output = Poly;

    fn mul(self, rhs: &Poly) -> Poly {
        if self.coeffs.len().min(rhs.coeffs.len()) < NTT_MUL_THRESHOLD {
            self.mul_schoolbook(rhs)
        } else {
            self.mul_ntt(rhs)
        }
    }
}

impl Mul for Poly {
    type Output = Poly;

    fn mul(self, rhs: Poly) -> Poly {
        &self * &rhs
    }
}

impl Mul<Fp> for &Poly {
    type Output = Poly;

    fn mul(self, rhs: Fp) -> Poly {
        Poly::from_coeffs(self.coeffs.iter().map(|&c| c * rhs).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constructors_and_normalization() {
        assert!(Poly::zero().is_zero());
        assert_eq!(Poly::one().degree(), Some(0));
        assert_eq!(Poly::monomial(5).degree(), Some(5));
        assert_eq!(
            Poly::from_coeffs(vec![Fp::ONE, Fp::ZERO, Fp::ZERO]),
            Poly::from_coeffs(vec![Fp::ONE])
        );
        assert_eq!(Poly::from_coeffs(vec![Fp::ZERO; 4]), Poly::zero());
    }

    #[test]
    fn evaluation() {
        // (X + 1)(X + 2) = X² + 3X + 2 at x = 5 → 42.
        let p = Poly::from_coeffs(vec![Fp::new(2), Fp::new(3), Fp::ONE]);
        assert_eq!(p.evaluate(Fp::new(5)), Fp::new(42));
        assert_eq!(Poly::zero().evaluate(Fp::new(9)), Fp::ZERO);
    }

    #[test]
    fn ntt_mul_matches_schoolbook() {
        let mut rng = StdRng::seed_from_u64(7);
        for (da, db) in [(1usize, 1), (5, 9), (63, 65), (200, 300), (511, 513)] {
            let a = Poly::random(&mut rng, da);
            let b = Poly::random(&mut rng, db);
            assert_eq!(a.mul_ntt(&b), a.mul_schoolbook(&b), "{da}x{db}");
            assert_eq!(&a * &b, a.mul_schoolbook(&b), "{da}x{db} dispatch");
        }
    }

    #[test]
    fn ring_axioms_spot_checks() {
        let mut rng = StdRng::seed_from_u64(8);
        let a = Poly::random(&mut rng, 40);
        let b = Poly::random(&mut rng, 30);
        let c = Poly::random(&mut rng, 35);
        assert_eq!(&a * &b, &b * &a);
        assert_eq!(&(&a + &b) * &c, &(&a * &c) + &(&b * &c));
        assert_eq!(&(&a - &a) * &b, Poly::zero());
        assert_eq!(&a * &Poly::one(), a.clone());
    }

    #[test]
    fn evaluation_is_a_homomorphism() {
        let mut rng = StdRng::seed_from_u64(9);
        let a = Poly::random(&mut rng, 20);
        let b = Poly::random(&mut rng, 25);
        let x = Fp::new(0xabcdef);
        assert_eq!((&a * &b).evaluate(x), a.evaluate(x) * b.evaluate(x));
        assert_eq!((&a + &b).evaluate(x), a.evaluate(x) + b.evaluate(x));
    }

    #[test]
    fn cyclic_product_wraps() {
        // X·X^{n−1} ≡ 1 (mod X^n − 1).
        let n = 8;
        let product = Poly::monomial(1).mul_mod_xn_minus_1(&Poly::monomial(n - 1), n);
        assert_eq!(product, Poly::one());
    }

    #[test]
    fn scalar_multiplication() {
        let p = Poly::from_coeffs(vec![Fp::ONE, Fp::new(2)]);
        assert_eq!(
            &p * Fp::new(3),
            Poly::from_coeffs(vec![Fp::new(3), Fp::new(6)])
        );
        assert_eq!(&p * Fp::ZERO, Poly::zero());
    }

    #[test]
    fn debug_is_compact() {
        let p = Poly::random(&mut StdRng::seed_from_u64(1), 100);
        let s = format!("{p:?}");
        assert!(s.contains("deg 99"));
        assert!(s.len() < 200);
    }
}
