//! `he-accel` — a Rust reproduction of *"Securing the Cloud with
//! Reconfigurable Computing: An FPGA Accelerator for Homomorphic
//! Encryption"* (Cilardo & Argenziano, DATE 2016).
//!
//! The paper builds an FPGA accelerator for the bottleneck of integer-based
//! fully homomorphic encryption: multiplying 786,432-bit integers via
//! Schönhage–Strassen over the Solinas prime `p = 2^64 − 2^32 + 1`, with a
//! 64K-point mixed-radix NTT distributed over four hypercube-connected
//! processing elements. This workspace reproduces the complete system in
//! software:
//!
//! * [`field`] — the prime field and its shift-only twiddle arithmetic;
//! * [`bigint`] — from-scratch big integers and the classical baselines;
//! * [`ntt`] — radix-2, shift-kernel, mixed-radix and 64K transforms;
//! * [`ssa`] — the Schönhage–Strassen multiplier (paper Section III);
//! * [`hwsim`] — the cycle-level accelerator simulation and resource model
//!   (paper Sections IV–V, Tables I–II, Figs. 1–5).
//!
//! The DGHV encryption scheme the accelerator serves is the `he-dghv`
//! crate, a client of this one: its homomorphic AND takes any
//! [`Multiplier`], a serving fleet included ([`ServedMultiplier`]).
//!
//! The repository-level `README.md` is the guided tour; `ARCHITECTURE.md`
//! maps every paper component (FFT unit, dot unit, carry adder, host
//! interface, …) to the module that models it and draws the serving data
//! flow; `benchmark/README.md` documents the product-path benchmark.
//!
//! The crate-level API is the [`Multiplier`] trait with one implementation
//! per evaluated system, so workloads can switch between the software
//! algorithms and the simulated hardware:
//!
//! ```
//! use he_accel::prelude::*;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let a = UBig::random_bits(&mut rng, 100_000);
//! let b = UBig::random_bits(&mut rng, 100_000);
//!
//! let software = SsaSoftware::paper();
//! let hardware = HardwareSim::paper();
//! let expected = Karatsuba.multiply(&a, &b)?;
//! assert_eq!(software.multiply(&a, &b)?, expected);
//! assert_eq!(hardware.multiply(&a, &b)?, expected);
//! # Ok::<(), he_accel::MultiplyError>(())
//! ```
//!
//! For throughput, the unit of work is a **batch over cached operands**
//! rather than a one-shot call: [`Multiplier::prepare`] captures a
//! recurring operand's forward spectrum behind an [`OperandHandle`], and
//! the [`EvalEngine`] shards a slice of [`ProductJob`]s across worker
//! threads — the cached-transform optimization the paper's related work
//! adopts (3 transforms per product drop to 2/1/0 as operands recur),
//! fused with product-level parallelism:
//!
//! ```
//! use he_accel::prelude::*;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(2);
//! let fixed = UBig::random_bits(&mut rng, 50_000);
//! let stream: Vec<UBig> = (0..4).map(|_| UBig::random_bits(&mut rng, 50_000)).collect();
//!
//! let engine = EvalEngine::new(SsaSoftware::paper());
//! let handle = engine.prepare(&fixed)?; // forward NTT paid once
//! let products = engine.run_stream(&handle, &stream)?;
//! assert_eq!(products[0], Karatsuba.multiply(&fixed, &stream[0])?);
//! # Ok::<(), he_accel::MultiplyError>(())
//! ```
//!
//! For the deployment shape — resident engines behind a bounded queue,
//! deadline-aware claiming, one card or a whole fleet — see
//! [`serve`] ([`ServerPool`]); clients stream against it without a
//! thread per in-flight product via [`CompletionQueue`] (tagged,
//! completion-ordered draining) and [`ClientSession`] (register a
//! recurring operand once, pinned in every card's cache).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use he_bigint as bigint;
pub use he_field as field;
pub use he_hwsim as hwsim;
pub use he_ntt as ntt;
pub use he_ssa as ssa;

pub mod engine;
pub mod fault;
mod multiplier;
pub mod serve;

pub use engine::{EvalEngine, HandleProvenance, OperandHandle, ProductJob};
pub use fault::{FaultPlan, FaultyMultiplier};
pub use multiplier::{
    HardwareSim, Karatsuba, Multiplier, MultiplyError, Schoolbook, SsaSoftware, Toom3,
};
pub use serve::{
    completion_channel, CancelHandle, CardHealth, ClientSession, Completion, CompletionMint,
    CompletionQueue, CompletionReceiver, CompletionSink, DrainOutcome, PoolStats, ProductRequest,
    ProductTicket, ServeConfig, ServeError, ServeStats, ServedMultiplier, ServerPool, SubmitError,
    Submitter,
};

/// What `benchmark/`, `examples/`, `tests/` and the doctests import through
/// the glob; everything else stays reachable at its crate path.
pub mod prelude {
    pub use crate::engine::{EvalEngine, OperandHandle, ProductJob};
    pub use crate::fault::{FaultPlan, FaultyMultiplier};
    pub use crate::multiplier::{
        HardwareSim, Karatsuba, Multiplier, MultiplyError, Schoolbook, SsaSoftware, Toom3,
    };
    pub use crate::serve::{
        completion_channel, CardHealth, ClientSession, Completion, CompletionQueue, CompletionSink,
        PoolStats, ProductRequest, ProductTicket, ServeConfig, ServeError, ServeStats,
        ServedMultiplier, ServerPool, SubmitError, Submitter,
    };
    pub use he_bigint::UBig;
    pub use he_field::Fp;
    pub use he_hwsim::AcceleratorConfig;
    pub use he_ssa::SsaMultiplier;
}
