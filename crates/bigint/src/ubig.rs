//! The unsigned big-integer type.

use core::cmp::Ordering;
use core::fmt;
use core::ops::{Add, AddAssign, Shl, ShlAssign, Shr, ShrAssign, Sub, SubAssign};

use rand::Rng;

use crate::ArithmeticError;

/// An arbitrary-precision unsigned integer.
///
/// Stored as little-endian 64-bit limbs with no trailing zero limbs (the
/// canonical representation of zero is an empty limb vector).
///
/// Arithmetic operators are implemented for both owned values and
/// references; prefer `&a + &b` in loops to avoid clones.
///
/// # Example
///
/// ```
/// use he_bigint::UBig;
///
/// let a = UBig::pow2(100); // 2^100
/// let b = &a - &UBig::one();
/// assert_eq!(b.bit_len(), 100);
/// assert_eq!(&b + &UBig::one(), a);
/// ```
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct UBig {
    limbs: Vec<u64>,
}

impl UBig {
    /// The value zero.
    #[inline]
    pub fn zero() -> UBig {
        UBig { limbs: Vec::new() }
    }

    /// The value one.
    #[inline]
    pub fn one() -> UBig {
        UBig { limbs: vec![1] }
    }

    /// `2^bits`.
    pub fn pow2(bits: usize) -> UBig {
        let mut limbs = vec![0u64; bits / 64 + 1];
        limbs[bits / 64] = 1u64 << (bits % 64);
        UBig::from_limbs(limbs)
    }

    /// Constructs from little-endian limbs, normalizing trailing zeros.
    pub fn from_limbs(mut limbs: Vec<u64>) -> UBig {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        UBig { limbs }
    }

    /// Overwrites this value from little-endian limbs, reusing the
    /// existing allocation (no heap traffic once the capacity fits).
    ///
    /// The allocation-free carry-recovery path of the SSA multiplier
    /// (`he-ssa`) writes each product into a caller-owned `UBig` this way.
    pub fn assign_from_limbs(&mut self, limbs: &[u64]) {
        let significant = limbs
            .iter()
            .rposition(|&l| l != 0)
            .map_or(0, |last| last + 1);
        self.limbs.clear();
        self.limbs.extend_from_slice(&limbs[..significant]);
    }

    /// Lends this value's limb vector to `fill` to be rewritten in place,
    /// then trims trailing zero limbs: [`UBig::assign_from_limbs`] without
    /// the staging buffer and the copy out of it.
    pub fn assign_with(&mut self, fill: impl FnOnce(&mut Vec<u64>)) {
        fill(&mut self.limbs);
        self.normalize();
    }

    /// Constructs from little-endian bytes.
    pub fn from_le_bytes(bytes: &[u8]) -> UBig {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        for chunk in bytes.chunks(8) {
            let mut limb = [0u8; 8];
            limb[..chunk.len()].copy_from_slice(chunk);
            limbs.push(u64::from_le_bytes(limb));
        }
        UBig::from_limbs(limbs)
    }

    /// The value as little-endian bytes (no trailing zeros, empty for 0).
    pub fn to_le_bytes(&self) -> Vec<u8> {
        let mut bytes: Vec<u8> = self.limbs.iter().flat_map(|l| l.to_le_bytes()).collect();
        while bytes.last() == Some(&0) {
            bytes.pop();
        }
        bytes
    }

    /// A view of the little-endian limbs.
    #[inline]
    pub fn as_limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Consumes the value, returning its limbs.
    #[inline]
    pub fn into_limbs(self) -> Vec<u64> {
        self.limbs
    }

    /// Whether the value is zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Whether the value is one.
    #[inline]
    pub fn is_one(&self) -> bool {
        self.limbs == [1]
    }

    /// Whether the value is even.
    #[inline]
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// The number of significant bits (`0` for zero).
    ///
    /// ```
    /// use he_bigint::UBig;
    /// assert_eq!(UBig::zero().bit_len(), 0);
    /// assert_eq!(UBig::from(1u64).bit_len(), 1);
    /// assert_eq!(UBig::pow2(786_432).bit_len(), 786_433);
    /// ```
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(top) => self.limbs.len() * 64 - top.leading_zeros() as usize,
        }
    }

    /// The bit at position `i` (little-endian).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        if limb >= self.limbs.len() {
            false
        } else {
            (self.limbs[limb] >> (i % 64)) & 1 == 1
        }
    }

    /// Sets the bit at position `i`, growing the number if needed.
    pub fn set_bit(&mut self, i: usize, value: bool) {
        let limb = i / 64;
        if value {
            if limb >= self.limbs.len() {
                self.limbs.resize(limb + 1, 0);
            }
            self.limbs[limb] |= 1u64 << (i % 64);
        } else if limb < self.limbs.len() {
            self.limbs[limb] &= !(1u64 << (i % 64));
            self.normalize();
        }
    }

    /// The number of trailing zero bits, or `None` for zero.
    pub fn trailing_zeros(&self) -> Option<usize> {
        for (i, &l) in self.limbs.iter().enumerate() {
            if l != 0 {
                return Some(i * 64 + l.trailing_zeros() as usize);
            }
        }
        None
    }

    /// The low 64 bits.
    #[inline]
    pub fn low_u64(&self) -> u64 {
        self.limbs.first().copied().unwrap_or(0)
    }

    /// Converts to `u64` if the value fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// Converts to `u128` if the value fits.
    pub fn to_u128(&self) -> Option<u128> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0] as u128),
            2 => Some(self.limbs[0] as u128 | (self.limbs[1] as u128) << 64),
            _ => None,
        }
    }

    /// Extracts `count` bits starting at bit `start` as a `u64`
    /// (`count ≤ 64`); bits beyond the end read as zero.
    ///
    /// This is the coefficient-decomposition primitive of the
    /// Schönhage–Strassen front-end ("decompose operands into groups of `m`
    /// bits", paper Section III).
    ///
    /// # Panics
    ///
    /// Panics if `count > 64`.
    pub fn bits_at(&self, start: usize, count: u32) -> u64 {
        assert!(count <= 64, "bits_at extracts at most 64 bits");
        if count == 0 {
            return 0;
        }
        let limb = start / 64;
        let offset = (start % 64) as u32;
        let lo = self.limbs.get(limb).copied().unwrap_or(0) >> offset;
        let hi = if offset == 0 {
            0
        } else {
            self.limbs
                .get(limb + 1)
                .copied()
                .unwrap_or(0)
                .checked_shl(64 - offset)
                .unwrap_or(0)
        };
        let word = lo | hi;
        if count == 64 {
            word
        } else {
            word & ((1u64 << count) - 1)
        }
    }

    /// Uniformly random integer with exactly `bits` significant bits
    /// (the top bit is forced to one); `bits == 0` gives zero.
    pub fn random_bits<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> UBig {
        if bits == 0 {
            return UBig::zero();
        }
        let limbs = bits.div_ceil(64);
        let mut v: Vec<u64> = (0..limbs).map(|_| rng.gen()).collect();
        let top_bits = bits - (limbs - 1) * 64;
        let top = &mut v[limbs - 1];
        if top_bits < 64 {
            *top &= (1u64 << top_bits) - 1;
        }
        *top |= 1u64 << (top_bits - 1);
        UBig::from_limbs(v)
    }

    /// Uniformly random integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn random_below<R: Rng + ?Sized>(rng: &mut R, bound: &UBig) -> UBig {
        assert!(!bound.is_zero(), "random_below: zero bound");
        let bits = bound.bit_len();
        loop {
            // Rejection sampling from [0, 2^bits).
            let limbs = bits.div_ceil(64);
            let mut v: Vec<u64> = (0..limbs).map(|_| rng.gen()).collect();
            let top_bits = bits - (limbs - 1) * 64;
            if top_bits < 64 {
                v[limbs - 1] &= (1u64 << top_bits) - 1;
            }
            let candidate = UBig::from_limbs(v);
            if &candidate < bound {
                return candidate;
            }
        }
    }

    /// `self + other`, reusing `self`'s allocation.
    pub fn add_assign_ref(&mut self, other: &UBig) {
        if other.limbs.len() > self.limbs.len() {
            self.limbs.resize(other.limbs.len(), 0);
        }
        let mut carry = 0u64;
        for (i, a) in self.limbs.iter_mut().enumerate() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (s1, c1) = a.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            *a = s2;
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry != 0 {
            self.limbs.push(carry);
        }
    }

    /// `self − other`, or an error on underflow.
    ///
    /// # Errors
    ///
    /// Returns [`ArithmeticError::Underflow`] if `other > self`.
    pub fn checked_sub(&self, other: &UBig) -> Result<UBig, ArithmeticError> {
        if self < other {
            return Err(ArithmeticError::Underflow);
        }
        let mut out = self.limbs.clone();
        let mut borrow = 0u64;
        for (i, a) in out.iter_mut().enumerate() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = a.overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            *a = d2;
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        Ok(UBig::from_limbs(out))
    }

    /// Restores the no-trailing-zero invariant.
    pub(crate) fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }
}

impl From<u64> for UBig {
    fn from(value: u64) -> UBig {
        if value == 0 {
            UBig::zero()
        } else {
            UBig { limbs: vec![value] }
        }
    }
}

impl From<u128> for UBig {
    fn from(value: u128) -> UBig {
        UBig::from_limbs(vec![value as u64, (value >> 64) as u64])
    }
}

impl From<u32> for UBig {
    fn from(value: u32) -> UBig {
        UBig::from(value as u64)
    }
}

impl PartialOrd for UBig {
    fn partial_cmp(&self, other: &UBig) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for UBig {
    fn cmp(&self, other: &UBig) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
            match a.cmp(b) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

// --- addition -------------------------------------------------------------

impl Add<&UBig> for &UBig {
    type Output = UBig;

    fn add(self, rhs: &UBig) -> UBig {
        let mut out = self.clone();
        out.add_assign_ref(rhs);
        out
    }
}

impl Add for UBig {
    type Output = UBig;

    fn add(mut self, rhs: UBig) -> UBig {
        self.add_assign_ref(&rhs);
        self
    }
}

impl Add<&UBig> for UBig {
    type Output = UBig;

    fn add(mut self, rhs: &UBig) -> UBig {
        self.add_assign_ref(rhs);
        self
    }
}

impl Add<UBig> for &UBig {
    type Output = UBig;

    fn add(self, mut rhs: UBig) -> UBig {
        rhs.add_assign_ref(self);
        rhs
    }
}

impl AddAssign<&UBig> for UBig {
    fn add_assign(&mut self, rhs: &UBig) {
        self.add_assign_ref(rhs);
    }
}

impl AddAssign for UBig {
    fn add_assign(&mut self, rhs: UBig) {
        self.add_assign_ref(&rhs);
    }
}

// --- subtraction (panics on underflow, like std unsigned ints) -------------

impl Sub<&UBig> for &UBig {
    type Output = UBig;

    /// # Panics
    ///
    /// Panics if `rhs > self`; use [`UBig::checked_sub`] for a fallible
    /// version.
    fn sub(self, rhs: &UBig) -> UBig {
        self.checked_sub(rhs).expect("UBig subtraction underflow")
    }
}

impl Sub for UBig {
    type Output = UBig;

    fn sub(self, rhs: UBig) -> UBig {
        &self - &rhs
    }
}

impl Sub<&UBig> for UBig {
    type Output = UBig;

    fn sub(self, rhs: &UBig) -> UBig {
        &self - rhs
    }
}

impl Sub<UBig> for &UBig {
    type Output = UBig;

    fn sub(self, rhs: UBig) -> UBig {
        self - &rhs
    }
}

impl SubAssign<&UBig> for UBig {
    fn sub_assign(&mut self, rhs: &UBig) {
        *self = &*self - rhs;
    }
}

impl SubAssign for UBig {
    fn sub_assign(&mut self, rhs: UBig) {
        *self = &*self - &rhs;
    }
}

// --- shifts ----------------------------------------------------------------

impl Shl<usize> for &UBig {
    type Output = UBig;

    fn shl(self, shift: usize) -> UBig {
        if self.is_zero() {
            return UBig::zero();
        }
        let limb_shift = shift / 64;
        let bit_shift = shift % 64;
        let mut out = vec![0u64; self.limbs.len() + limb_shift + 1];
        for (i, &l) in self.limbs.iter().enumerate() {
            out[i + limb_shift] |= l.checked_shl(bit_shift as u32).unwrap_or(0);
            if bit_shift != 0 {
                out[i + limb_shift + 1] |= l >> (64 - bit_shift);
            }
        }
        UBig::from_limbs(out)
    }
}

impl Shl<usize> for UBig {
    type Output = UBig;

    fn shl(self, shift: usize) -> UBig {
        &self << shift
    }
}

impl ShlAssign<usize> for UBig {
    fn shl_assign(&mut self, shift: usize) {
        *self = &*self << shift;
    }
}

impl Shr<usize> for &UBig {
    type Output = UBig;

    fn shr(self, shift: usize) -> UBig {
        let limb_shift = shift / 64;
        if limb_shift >= self.limbs.len() {
            return UBig::zero();
        }
        let bit_shift = shift % 64;
        let n = self.limbs.len() - limb_shift;
        let mut out = vec![0u64; n];
        for (i, slot) in out.iter_mut().enumerate() {
            let lo = self.limbs[i + limb_shift] >> bit_shift;
            let hi = if bit_shift == 0 {
                0
            } else {
                self.limbs
                    .get(i + limb_shift + 1)
                    .copied()
                    .unwrap_or(0)
                    .checked_shl(64 - bit_shift as u32)
                    .unwrap_or(0)
            };
            *slot = lo | hi;
        }
        UBig::from_limbs(out)
    }
}

impl Shr<usize> for UBig {
    type Output = UBig;

    fn shr(self, shift: usize) -> UBig {
        &self >> shift
    }
}

impl ShrAssign<usize> for UBig {
    fn shr_assign(&mut self, shift: usize) {
        *self = &*self >> shift;
    }
}

// --- formatting -------------------------------------------------------------

impl fmt::Debug for UBig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.bit_len() <= 128 {
            write!(f, "UBig({self})")
        } else {
            write!(
                f,
                "UBig(<{} bits> {:#x}...)",
                self.bit_len(),
                self.limbs.last().unwrap()
            )
        }
    }
}

impl fmt::Display for UBig {
    /// Decimal representation (computed by repeated division; intended for
    /// small-to-moderate values, not megabit operands).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return f.pad_integral(true, "", "0");
        }
        let mut digits = Vec::new();
        let mut cur = self.clone();
        while !cur.is_zero() {
            let (q, r) = cur.div_rem_small(10_000_000_000_000_000_000); // 10^19
            digits.push(r);
            cur = q;
        }
        let mut s = digits.pop().unwrap().to_string();
        while let Some(d) = digits.pop() {
            s.push_str(&format!("{d:019}"));
        }
        f.pad_integral(true, "", &s)
    }
}

impl fmt::LowerHex for UBig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return f.pad_integral(true, "0x", "0");
        }
        let mut s = format!("{:x}", self.limbs.last().unwrap());
        for l in self.limbs.iter().rev().skip(1) {
            s.push_str(&format!("{l:016x}"));
        }
        f.pad_integral(true, "0x", &s)
    }
}

impl fmt::UpperHex for UBig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return f.pad_integral(true, "0x", "0");
        }
        let mut s = format!("{:X}", self.limbs.last().unwrap());
        for l in self.limbs.iter().rev().skip(1) {
            s.push_str(&format!("{l:016X}"));
        }
        f.pad_integral(true, "0x", &s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_one() {
        assert!(UBig::zero().is_zero());
        assert!(UBig::one().is_one());
        assert_eq!(UBig::from(0u64), UBig::zero());
        assert!(UBig::default().is_zero());
        assert_eq!(UBig::zero().bit_len(), 0);
    }

    #[test]
    fn normalization() {
        let a = UBig::from_limbs(vec![1, 0, 0]);
        assert_eq!(a.as_limbs(), &[1]);
        assert_eq!(UBig::from_limbs(vec![0, 0]), UBig::zero());
        // In-place rewrites re-normalize, keeping the allocation.
        let mut b = UBig::from_limbs(vec![7, 8, 9]);
        let ptr = b.as_limbs().as_ptr();
        b.assign_with(|limbs| limbs.copy_from_slice(&[5, 0, 0]));
        assert_eq!((b.as_limbs(), b.as_limbs().as_ptr()), (&[5][..], ptr));
        b.assign_with(|limbs| limbs[0] = 0);
        assert_eq!(b, UBig::zero());
    }

    #[test]
    fn add_with_carry_chain() {
        let a = UBig::from_limbs(vec![u64::MAX, u64::MAX]);
        let b = UBig::one();
        let sum = &a + &b;
        assert_eq!(sum.as_limbs(), &[0, 0, 1]);
        assert_eq!(sum - b, a);
    }

    #[test]
    fn sub_underflow_is_error() {
        let err = UBig::one().checked_sub(&UBig::from(2u64)).unwrap_err();
        assert_eq!(err, ArithmeticError::Underflow);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = UBig::one() - UBig::from(2u64);
    }

    #[test]
    fn shifts_roundtrip() {
        let a = UBig::from(0xdead_beefu64);
        for s in [0usize, 1, 63, 64, 65, 127, 128, 1000] {
            assert_eq!((&a << s) >> s, a, "shift {s}");
        }
        assert_eq!(UBig::pow2(100), UBig::one() << 100);
        assert_eq!(&UBig::from(1u64) >> 1, UBig::zero());
    }

    #[test]
    fn ordering() {
        assert!(UBig::zero() < UBig::one());
        assert!(UBig::pow2(64) > UBig::from(u64::MAX));
        assert_eq!(UBig::pow2(10).cmp(&UBig::from(1024u64)), Ordering::Equal);
    }

    #[test]
    fn bit_access() {
        let mut a = UBig::zero();
        a.set_bit(100, true);
        assert_eq!(a, UBig::pow2(100));
        assert!(a.bit(100));
        assert!(!a.bit(99));
        assert!(!a.bit(10_000));
        a.set_bit(100, false);
        assert!(a.is_zero());
    }

    #[test]
    fn bits_at_extraction() {
        // 0b1111_0000_1010 = 0xF0A
        let a = UBig::from(0xF0Au64);
        assert_eq!(a.bits_at(0, 4), 0xA);
        assert_eq!(a.bits_at(4, 4), 0x0);
        assert_eq!(a.bits_at(8, 4), 0xF);
        assert_eq!(a.bits_at(12, 4), 0);
        // Straddling a limb boundary.
        let b = &UBig::from(0b1011u64) << 62;
        assert_eq!(b.bits_at(62, 4), 0b1011);
        assert_eq!(b.bits_at(60, 24), 0b1011 << 2);
        // Full 64-bit extraction.
        let c = UBig::from_limbs(vec![0x0123_4567_89ab_cdef, 0xfedc_ba98_7654_3210]);
        assert_eq!(c.bits_at(0, 64), 0x0123_4567_89ab_cdef);
        assert_eq!(c.bits_at(64, 64), 0xfedc_ba98_7654_3210);
        assert_eq!(c.bits_at(32, 64), 0x7654_3210_0123_4567);
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn bits_at_rejects_large_count() {
        UBig::zero().bits_at(0, 65);
    }

    #[test]
    fn le_bytes_roundtrip() {
        let a = UBig::from_limbs(vec![0x0123_4567_89ab_cdef, 0xff]);
        assert_eq!(UBig::from_le_bytes(&a.to_le_bytes()), a);
        assert_eq!(UBig::zero().to_le_bytes(), Vec::<u8>::new());
        assert_eq!(UBig::from_le_bytes(&[]), UBig::zero());
    }

    #[test]
    fn random_bits_has_exact_length() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for bits in [1usize, 2, 63, 64, 65, 1000] {
            let v = UBig::random_bits(&mut rng, bits);
            assert_eq!(v.bit_len(), bits, "bits = {bits}");
        }
        assert!(UBig::random_bits(&mut rng, 0).is_zero());
    }

    #[test]
    fn random_below_respects_bound() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let bound = UBig::from(1000u64);
        for _ in 0..200 {
            assert!(UBig::random_below(&mut rng, &bound) < bound);
        }
    }

    #[test]
    fn display_and_hex() {
        assert_eq!(UBig::zero().to_string(), "0");
        assert_eq!(
            UBig::from(1234567890123456789u64).to_string(),
            "1234567890123456789"
        );
        // A 2-limb value: 2^64 = 18446744073709551616.
        assert_eq!(UBig::pow2(64).to_string(), "18446744073709551616");
        assert_eq!(format!("{:x}", UBig::pow2(64)), "10000000000000000");
        assert_eq!(format!("{:#x}", UBig::from(255u64)), "0xff");
        assert_eq!(format!("{:X}", UBig::from(255u64)), "FF");
    }

    #[test]
    fn to_u64_u128() {
        assert_eq!(UBig::zero().to_u64(), Some(0));
        assert_eq!(UBig::from(5u64).to_u64(), Some(5));
        assert_eq!(UBig::pow2(64).to_u64(), None);
        assert_eq!(UBig::pow2(64).to_u128(), Some(1u128 << 64));
        assert_eq!(UBig::pow2(128).to_u128(), None);
        assert_eq!(
            UBig::from(u128::MAX),
            UBig::from_limbs(vec![u64::MAX, u64::MAX])
        );
    }

    #[test]
    fn trailing_zeros() {
        assert_eq!(UBig::zero().trailing_zeros(), None);
        assert_eq!(UBig::one().trailing_zeros(), Some(0));
        assert_eq!(UBig::pow2(100).trailing_zeros(), Some(100));
    }

    #[test]
    fn is_even() {
        assert!(UBig::zero().is_even());
        assert!(!UBig::one().is_even());
        assert!(UBig::pow2(64).is_even());
    }
}
