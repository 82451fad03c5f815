//! Reusable staging buffers for the product pipeline.
//!
//! The engine ([`crate::Radix2kPlan`]) transforms in place and needs no
//! staging; what a product still needs are the coefficient vectors
//! themselves, and an [`NttScratch`] pools those instead of allocating
//! fresh ones per product — mirroring the accelerator's fixed on-chip
//! buffers: the FPGA performs the entire three-stage 64K transform inside
//! the PE-local memories and never touches fresh storage per product.
//! `he-ssa` keeps one per scratch unit, and the [`crate::MixedRadixPlan`]
//! recursion stages its intermediates there. After a warm-up call a reused
//! scratch serves every subsequent product with **zero heap allocations**
//! — verified by the counting-allocator test in `he-ssa`.

use he_field::Fp;

/// A pool of reusable `Vec<Fp>` buffers.
///
/// [`NttScratch::take`] hands out a zeroed buffer of the requested length,
/// reusing the largest pooled allocation; [`NttScratch::put`] returns it.
/// The pool is intentionally dumb — callers borrow a handful of buffers
/// in LIFO order, so a small vector of spares is exactly right.
///
/// ```
/// use he_field::Fp;
/// use he_ntt::NttScratch;
///
/// let mut scratch = NttScratch::new();
/// let buf = scratch.take(1024); // zero-filled, allocates once
/// let ptr = buf.as_ptr();
/// scratch.put(buf);
/// let again = scratch.take(1024); // the same allocation, re-zeroed
/// assert_eq!(again.as_ptr(), ptr);
/// assert!(again.iter().all(|x| *x == Fp::ZERO));
/// ```
#[derive(Debug, Default)]
pub struct NttScratch {
    pool: Vec<Vec<Fp>>,
}

impl NttScratch {
    /// An empty pool; buffers are created on first use.
    pub fn new() -> NttScratch {
        NttScratch { pool: Vec::new() }
    }

    /// A pool pre-warmed for a transform of `n` points, so even the first
    /// `*_into` call allocates nothing.
    pub fn for_len(n: usize) -> NttScratch {
        let mut scratch = NttScratch::new();
        let buf = scratch.take(n);
        scratch.put(buf);
        scratch
    }

    /// Borrows a zero-filled buffer of exactly `len` elements.
    ///
    /// Reuses the best-fitting pooled allocation (smallest capacity that
    /// already holds `len`, so small requests don't pin the big staging
    /// buffers); the buffer only allocates if every pooled buffer is
    /// smaller than `len`.
    pub fn take(&mut self, len: usize) -> Vec<Fp> {
        let mut buf = self.select(len);
        buf.clear();
        buf.resize(len, Fp::ZERO);
        buf
    }

    /// Best-fit selection: the smallest pooled buffer with capacity
    /// ≥ `len`, else the largest one (it grows once and then sticks).
    fn select(&mut self, len: usize) -> Vec<Fp> {
        let fitting = self
            .pool
            .iter()
            .enumerate()
            .filter(|(_, b)| b.capacity() >= len)
            .min_by_key(|(_, b)| b.capacity())
            .map(|(i, _)| i);
        let chosen = fitting.or_else(|| {
            self.pool
                .iter()
                .enumerate()
                .max_by_key(|(_, b)| b.capacity())
                .map(|(i, _)| i)
        });
        match chosen {
            Some(i) => self.pool.swap_remove(i),
            None => Vec::new(),
        }
    }

    /// Borrows a buffer of exactly `len` elements with **unspecified
    /// contents** — for staging buffers every element of which is about to
    /// be overwritten. Skips the zero-fill [`NttScratch::take`] performs.
    pub fn take_any(&mut self, len: usize) -> Vec<Fp> {
        let mut buf = self.select(len);
        buf.resize(len, Fp::ZERO);
        buf
    }

    /// Returns a buffer to the pool for reuse.
    pub fn put(&mut self, buf: Vec<Fp>) {
        // Keep only buffers that actually hold an allocation.
        if buf.capacity() > 0 {
            self.pool.push(buf);
        }
    }

    /// Number of buffers currently pooled (diagnostic).
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }

    /// Total pooled capacity in elements (diagnostic).
    pub fn pooled_capacity(&self) -> usize {
        self.pool.iter().map(|b| b.capacity()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_picks_the_best_fitting_buffer() {
        let mut s = NttScratch::new();
        let big = s.take(1024);
        let big_ptr = big.as_ptr();
        s.put(big);
        let small = vec![Fp::ZERO; 16];
        let small_ptr = small.as_ptr();
        s.put(small);
        // A small request must NOT pin the big staging buffer.
        let tiny = s.take(8);
        assert_eq!(tiny.as_ptr(), small_ptr);
        // A request only the big buffer can hold reuses it.
        let mid = s.take(100);
        assert_eq!(mid.as_ptr(), big_ptr);
        assert_eq!(mid.len(), 100);
        assert!(mid.iter().all(|x| *x == Fp::ZERO));
        s.put(tiny);
        s.put(mid);
    }

    #[test]
    fn take_zeroes_previous_contents() {
        let mut s = NttScratch::new();
        let mut buf = s.take(8);
        buf.iter_mut().for_each(|x| *x = Fp::new(9));
        s.put(buf);
        assert!(s.take(8).iter().all(|x| *x == Fp::ZERO));
    }

    #[test]
    fn for_len_prewarms() {
        let mut s = NttScratch::for_len(256);
        assert_eq!(s.pooled(), 1);
        assert!(s.pooled_capacity() >= 256);
        let buf = s.take(256);
        assert_eq!(s.pooled(), 0);
        s.put(buf);
    }
}
