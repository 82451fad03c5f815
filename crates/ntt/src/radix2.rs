//! Iterative radix-2 transform — the conventional approach the paper's
//! mixed-radix design is compared against.

use he_field::{roots, Fp};

use crate::error::NttError;

/// A planned radix-2 NTT of power-of-two length.
///
/// Input and output are in natural order (a bit-reversal permutation is
/// applied internally). This is the "binary recursive splitting" baseline
/// the paper departs from, kept as an independently coded oracle for
/// [`crate::Radix2kPlan`]; the `ntt_radix` bench compares the two.
///
/// ```
/// use he_field::Fp;
/// use he_ntt::Radix2Plan;
///
/// let plan = Radix2Plan::new(8)?;
/// let data: Vec<Fp> = (0..8).map(Fp::new).collect();
/// let freq = plan.forward(&data);
/// assert_eq!(plan.inverse(&freq), data);
/// # Ok::<(), he_ntt::NttError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Radix2Plan {
    n: usize,
    log_n: u32,
    omega: Fp,
    /// Twiddles in bit-reversed layer order: for each butterfly layer `s`
    /// (block size `2^{s+1}`), the `2^s` powers of `ω_{2^{s+1}}`.
    forward_twiddles: Vec<Vec<Fp>>,
    inverse_twiddles: Vec<Vec<Fp>>,
    n_inv: Fp,
}

impl Radix2Plan {
    /// Plans an `n`-point transform using the canonical root
    /// [`roots::root_of_unity`]`(n)`.
    ///
    /// # Errors
    ///
    /// Returns [`NttError::UnsupportedSize`] if `n` is not a power of two
    /// between 2 and `2^32`.
    pub fn new(n: usize) -> Result<Radix2Plan, NttError> {
        let omega = roots::root_of_unity(n as u64).ok_or(NttError::UnsupportedSize {
            n,
            reason: "length must divide p-1",
        })?;
        Radix2Plan::with_omega(n, omega)
    }

    /// Plans an `n`-point transform with an explicit primitive `n`-th root.
    ///
    /// # Errors
    ///
    /// Returns [`NttError::UnsupportedSize`] if `n` is not a power of two
    /// `≥ 2` or `omega` is not a primitive `n`-th root of unity.
    pub fn with_omega(n: usize, omega: Fp) -> Result<Radix2Plan, NttError> {
        if !n.is_power_of_two() || n < 2 {
            return Err(NttError::UnsupportedSize {
                n,
                reason: "radix-2 plans require a power-of-two length >= 2",
            });
        }
        if !roots::is_primitive_root(omega, n as u64) {
            return Err(NttError::UnsupportedSize {
                n,
                reason: "omega is not a primitive n-th root of unity",
            });
        }
        let log_n = n.trailing_zeros();
        let mut forward_twiddles = Vec::with_capacity(log_n as usize);
        let mut inverse_twiddles = Vec::with_capacity(log_n as usize);
        let omega_inv = omega.inverse().expect("root of unity is nonzero");
        for s in 0..log_n {
            let m = 1usize << (s + 1);
            let w_m = omega.pow((n / m) as u64);
            let w_m_inv = omega_inv.pow((n / m) as u64);
            forward_twiddles.push(roots::power_table(w_m, m / 2));
            inverse_twiddles.push(roots::power_table(w_m_inv, m / 2));
        }
        let n_inv = Fp::new(n as u64).inverse().expect("n < p");
        Ok(Radix2Plan {
            n,
            log_n,
            omega,
            forward_twiddles,
            inverse_twiddles,
            n_inv,
        })
    }

    /// The transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the plan is empty (never: lengths are ≥ 2); provided to
    /// satisfy the `len`/`is_empty` convention.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The primitive root the plan was built with.
    pub fn omega(&self) -> Fp {
        self.omega
    }

    /// Bytes held by the per-layer twiddle tables (forward and inverse).
    /// Computed once at construction and shared by every transform.
    pub fn table_bytes(&self) -> usize {
        self.forward_twiddles
            .iter()
            .chain(&self.inverse_twiddles)
            .map(|layer| std::mem::size_of_val(layer.as_slice()))
            .sum()
    }

    /// Forward transform (natural order in and out).
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` differs from the plan length.
    pub fn forward(&self, input: &[Fp]) -> Vec<Fp> {
        let mut data = input.to_vec();
        self.forward_in_place(&mut data)
            .expect("length checked by caller");
        data
    }

    /// Inverse transform including the `1/n` scaling.
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` differs from the plan length.
    pub fn inverse(&self, input: &[Fp]) -> Vec<Fp> {
        let mut data = input.to_vec();
        self.inverse_in_place(&mut data)
            .expect("length checked by caller");
        data
    }

    /// In-place forward transform.
    ///
    /// # Errors
    ///
    /// Returns [`NttError::LengthMismatch`] on a length mismatch.
    pub fn forward_in_place(&self, data: &mut [Fp]) -> Result<(), NttError> {
        self.check_len(data.len())?;
        bit_reverse_permute(data);
        self.butterflies(data, &self.forward_twiddles);
        Ok(())
    }

    /// In-place inverse transform including the `1/n` scaling.
    ///
    /// # Errors
    ///
    /// Returns [`NttError::LengthMismatch`] on a length mismatch.
    pub fn inverse_in_place(&self, data: &mut [Fp]) -> Result<(), NttError> {
        self.check_len(data.len())?;
        bit_reverse_permute(data);
        self.butterflies(data, &self.inverse_twiddles);
        for x in data.iter_mut() {
            *x *= self.n_inv;
        }
        Ok(())
    }

    fn check_len(&self, len: usize) -> Result<(), NttError> {
        if len == self.n {
            Ok(())
        } else {
            Err(NttError::LengthMismatch {
                expected: self.n,
                actual: len,
            })
        }
    }

    fn butterflies(&self, data: &mut [Fp], twiddles: &[Vec<Fp>]) {
        for s in 0..self.log_n {
            let m = 1usize << (s + 1);
            let half = m / 2;
            let tw = &twiddles[s as usize];
            for block in data.chunks_exact_mut(m) {
                for j in 0..half {
                    let t = tw[j] * block[j + half];
                    let u = block[j];
                    block[j] = u + t;
                    block[j + half] = u - t;
                }
            }
        }
    }
}

/// In-place bit-reversal permutation: the plain swap loop, also the
/// oracle for [`crate::radix2k::bit_reverse_permute`]'s tiled kernel.
pub(crate) fn bit_reverse_permute(data: &mut [Fp]) {
    let n = data.len();
    let shift = (usize::BITS - n.trailing_zeros()) % usize::BITS;
    for i in 0..n {
        let j = i.reverse_bits() >> shift;
        if i < j {
            data.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive;

    #[test]
    fn rejects_bad_sizes() {
        assert!(matches!(
            Radix2Plan::new(0),
            Err(NttError::UnsupportedSize { .. })
        ));
        assert!(matches!(
            Radix2Plan::new(1),
            Err(NttError::UnsupportedSize { .. })
        ));
        assert!(matches!(
            Radix2Plan::new(3),
            Err(NttError::UnsupportedSize { .. })
        ));
        assert!(matches!(
            Radix2Plan::new(48),
            Err(NttError::UnsupportedSize { .. })
        ));
    }

    #[test]
    fn rejects_non_primitive_omega() {
        // 4 has order 96, not 8.
        assert!(Radix2Plan::with_omega(8, Fp::new(4)).is_err());
    }

    #[test]
    fn length_mismatch_error() {
        let plan = Radix2Plan::new(8).unwrap();
        let mut data = vec![Fp::ZERO; 4];
        let err = plan.forward_in_place(&mut data).unwrap_err();
        assert_eq!(
            err,
            NttError::LengthMismatch {
                expected: 8,
                actual: 4
            }
        );
        assert!(err.to_string().contains("does not match"));
    }

    #[test]
    fn matches_naive_dft() {
        for log_n in 1..=10 {
            let n = 1usize << log_n;
            let plan = Radix2Plan::new(n).unwrap();
            let input: Vec<Fp> = (0..n as u64).map(|i| Fp::new(i * 37 + 11)).collect();
            assert_eq!(
                plan.forward(&input),
                naive::dft(&input, plan.omega()),
                "n = {n}"
            );
        }
    }

    #[test]
    fn roundtrip_large() {
        let n = 1 << 14;
        let plan = Radix2Plan::new(n).unwrap();
        let input: Vec<Fp> = (0..n as u64)
            .map(|i| Fp::new(i.wrapping_mul(0x9e3779b9)))
            .collect();
        assert_eq!(plan.inverse(&plan.forward(&input)), input);
    }

    #[test]
    fn linearity() {
        let n = 64;
        let plan = Radix2Plan::new(n).unwrap();
        let a: Vec<Fp> = (0..n as u64).map(|i| Fp::new(i + 1)).collect();
        let b: Vec<Fp> = (0..n as u64).map(|i| Fp::new(3 * i + 2)).collect();
        let sum: Vec<Fp> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
        let fa = plan.forward(&a);
        let fb = plan.forward(&b);
        let fsum = plan.forward(&sum);
        for k in 0..n {
            assert_eq!(fsum[k], fa[k] + fb[k]);
        }
    }
}
