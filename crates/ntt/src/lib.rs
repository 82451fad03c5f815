//! Number-theoretic transforms over the Solinas prime `p = 2^64 − 2^32 + 1`.
//!
//! This crate implements the transform layer of the DATE 2016 accelerator
//! (Section III of the paper). Like the accelerator — one FFT-64 datapath
//! reused for all three stages of Eq. 2 — it has **one production
//! engine**, kept honest by two independently coded oracles and the
//! `O(n²)` definition:
//!
//! * [`radix2k`] / [`Radix2kPlan`] — **the engine**: a radix-2^k stage
//!   compiler that groups up to [`radix2k::MAX_DEG`] butterfly layers
//!   into one data pass through an in-register, shift-only micro network,
//!   with per-plan twiddle tables built once at construction (a 64K
//!   transform is 4 memory passes instead of 17). Every product in the
//!   workspace runs on it: `he-ssa` plans it for every transform length,
//!   and [`Ntt64k`] is it, pinned to the paper's length and root;
//! * [`Ntt64k`] — the paper's 64K-point transform (Eq. 2): a
//!   [`Radix2kPlan`] of [`N64K`] points on [`he_field::roots::omega_64k`]
//!   (schedule `[6, 5, 5]`, the software analogue of the 64/64/16 split).
//!   The hardware operation census of Eq. 2 (FFT-64 and FFT-16 counts,
//!   twiddle multiplies) lives with the cycle model that uses it, in
//!   `he_hwsim::perf`;
//! * [`Radix2Plan`] — oracle: the conventional iterative radix-2
//!   transform the paper *avoids* ("instead of the more common binary
//!   recursive splitting approach relying on a radix-2 transform"), one
//!   pass per butterfly layer; the baseline rung of the ablation benches;
//! * [`MixedRadixPlan`] — oracle: the general Cooley–Tukey recursion of
//!   paper Eq. 1, executing exactly the radix list it is given (any size
//!   dividing `p − 1`, power of two or not) on the shift-only [`kernels`];
//! * [`naive`] — the `O(n²)` reference DFT used as ground truth in tests;
//! * [`kernels`] — shift-only transforms of 8/16/32/64 points: in this
//!   field the `n`-th root of unity for `n | 192` is a power of two, so
//!   every twiddle inside these blocks is a shift (paper Eq. 3);
//! * [`convolution`] — the pointwise (dot-product) phase between the
//!   forward and inverse transforms of a Schönhage–Strassen product.
//!
//! All transforms take and produce **natural-order** coefficient vectors
//! on the same canonical roots, so they are mutually checkable —
//! `tests/inplace_equivalence.rs` holds the matrix.
//!
//! # API shapes
//!
//! Every plan offers an **allocating** form (`forward(&[Fp]) -> Vec<Fp>` /
//! `inverse`) for one-off transforms and tests, and an **in-place** form
//! that transforms the buffer where it lives: `forward_in_place` /
//! `inverse_in_place` on [`Radix2kPlan`] and [`Radix2Plan`], which need
//! no staging at all, and `forward_into(&mut [Fp], &mut NttScratch)` /
//! `inverse_into` on [`MixedRadixPlan`], whose recursion stages its
//! intermediates in a reusable [`NttScratch`] pool. The engine performs
//! **zero heap allocations** per transform, mirroring the accelerator's
//! fixed on-chip buffers.
//!
//! # Multi-core execution
//!
//! The paper's decomposition exposes 1024 (stages 1–2) and 4096 (stage 3)
//! *independent* sub-transforms per stage — the parallelism its four-PE
//! hypercube exploits in hardware. The engine fans the independent orbit
//! groups of each compiled pass out over the available cores via scoped
//! threads ([`par`]); set `HE_NTT_THREADS=1` (or call
//! [`par::set_threads`]) for strictly sequential execution. The fan-out
//! is a pure scheduling change: results are bit-identical either way.
//!
//! # Example
//!
//! ```
//! use he_field::Fp;
//! use he_ntt::{Radix2Plan, Radix2kPlan};
//!
//! let plan = Radix2kPlan::new(4096)?;
//! let mut data: Vec<Fp> = (0..4096).map(Fp::new).collect();
//! let freq = plan.forward(&data); // allocating
//! assert_eq!(freq, Radix2Plan::new(4096)?.forward(&data)); // oracle agrees
//!
//! plan.forward_in_place(&mut data)?; // in place, no heap traffic
//! assert_eq!(data, freq);
//! plan.inverse_in_place(&mut data)?;
//! assert_eq!(data[3], Fp::new(3));
//! # Ok::<(), he_ntt::NttError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod convolution;
mod error;
pub mod kernels;
mod mixed;
pub mod naive;
pub mod par;
mod plan64k;
mod radix2;
pub mod radix2k;
mod scratch;

pub use error::NttError;
pub use mixed::MixedRadixPlan;
pub use plan64k::{Ntt64k, N64K};
pub use radix2::Radix2Plan;
pub use radix2k::Radix2kPlan;
pub use scratch::NttScratch;
