//! Schönhage–Strassen multiplication over the Solinas prime — the algorithm
//! the DATE 2016 accelerator implements (paper Section III).
//!
//! The algorithm computes `c = a·b` as:
//!
//! 1. decompose the operands into groups of `m` bits, treated as polynomial
//!    coefficients (`m = 24` in the paper's configuration);
//! 2. NTT both coefficient vectors (64K points for the paper's 786,432-bit
//!    operands);
//! 3. multiply component-wise;
//! 4. inverse NTT;
//! 5. recover the integer with a shifted sum (carry recovery).
//!
//! Over `Z/pZ` with `p = 2^64 − 2^32 + 1` the convolution is **exact** as
//! long as `min(n_a, n_b)·(2^m − 1)² < p`, where `n_a, n_b` are the operand
//! coefficient counts — no ring splitting or CRT is needed, which is what
//! makes the hardware datapath so regular.
//!
//! # One kernel
//!
//! Like the accelerator's fixed dataflow, the crate has a single product
//! body. [`SsaMultiplier::multiply_into`], the transform-caching forms
//! ([`SsaMultiplier::multiply_one_cached_into`],
//! [`SsaMultiplier::multiply_transformed_into`]) and the batch forms
//! ([`SsaMultiplier::multiply_job_into`], [`SsaMultiplier::multiply_batch`])
//! all run it over the two sides of an [`SsaJob`]: check capacity
//! (`coeffs(a) + coeffs(b) − 1 ≤ N`), answer a zero operand at once, check
//! out one scratch unit, forward-transform only the sides that are still
//! raw integers (a cached [`TransformedOperand`] is read as is, so a
//! product costs 2, 1 or 0 forward transforms), multiply pointwise, run
//! the one inverse transform and recover carries into the caller's
//! integer — with **zero heap allocations** once the pool is warm. Every
//! transform runs on one `he_ntt::Radix2kPlan` planned for `N` points.
//!
//! # Example
//!
//! ```
//! use he_bigint::UBig;
//! use he_ssa::SsaMultiplier;
//!
//! let ssa = SsaMultiplier::with_params(he_ssa::SsaParams::new(8, 64)?)?;
//! let a = UBig::from(0xffff_ffffu64);
//! let b = UBig::from(0x1234_5678u64);
//! assert_eq!(ssa.multiply(&a, &b)?, &a * &b);
//! # Ok::<(), he_ssa::SsaError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod cached;
mod error;
mod multiplier;
mod params;
mod pool;
mod recompose;

pub use batch::SsaJob;
pub use cached::TransformedOperand;
pub use error::SsaError;
pub use multiplier::SsaMultiplier;
pub use params::SsaParams;
pub use recompose::{decompose, recompose};

/// The paper's operand size: 786,432 bits (the "small" DGHV security
/// setting, Section III).
pub const PAPER_OPERAND_BITS: usize = 786_432;
