//! Cycle-level simulator and resource model of the DATE 2016 FPGA
//! accelerator for homomorphic encryption.
//!
//! The paper's hardware (Section IV) is reproduced here as a set of
//! composable models, each checkable against the software reference in
//! `he-ntt`/`he-ssa`. Every module names the paper table, figure or formula
//! it reproduces, or the production caller it serves — a module with
//! neither does not belong here:
//!
//! | Module | Models | Reproduces / called by |
//! |---|---|---|
//! | [`pe`] | Processing Element (buffers, FFT unit, twiddle multipliers, data route) | Fig. 1 |
//! | [`network`], [`distributed`] | data distribution & exchange pattern over the hypercube | Fig. 2; every transform of [`accel`] runs on [`distributed`] |
//! | [`fft_unit`] | baseline radix-64 unit of \[28\] and the optimized FFT-64 unit (Eq. 5 sharing, 4-shift twiddle mux, 8 reductors) | Fig. 3, Fig. 4 |
//! | [`memory`] | 2-D banked memory buffer | Fig. 5 |
//! | [`modmul`] | DSP-based 64×64 modular multipliers | Section IV-d; the dot unit of [`distributed`] and [`accel`] |
//! | [`perf`] | timing formulas `T_FFT`, `T_DOTPROD`, `T_MULT` | Section V; priced into [`accel`], [`batch`], [`fleet`] |
//! | [`carry`] | carry-recovery adder ("≈ 20 µs") | Section V |
//! | [`resources`], [`device`] | resource comparison | Table I |
//! | [`comparators`], [`accel`] | execution-time comparison; one whole multiplication on the card | Table II; `he_accel::HardwareSim` |
//! | [`batch`] | batched products over cached operand spectra | `he_accel::HardwareSim` under `EvalEngine` |
//! | [`fleet`] | multi-card fleet behind one host queue (EDF/FIFO) | `benchmark/src/ladder.rs` (`hwsim.*_predicted`) |
//! | [`program`] | PE control FSM as burst-level micro-ops | Section V cross-check in `tests/paper_numbers.rs` |
//! | [`stream`] | back-to-back multiplication throughput | Section V cross-check in `tests/paper_numbers.rs`; the oracle [`batch`] reduces to |
//! | [`primitive`] | scheme-primitive costs (AND = product + two Barrett products) | the model-side prediction for ROADMAP item 3's `dghv.reduce_share` |
//! | [`config`] | the Section IV/V design point | every model above |
//!
//! Functional models are **bit-exact**: the FFT-64 units compute on the same
//! 192-bit end-around-carry datapath as the hardware
//! ([`he_field::U192`]) and are asserted equal to the reference NTT; the
//! distributed simulation reproduces the full 64K transform and the complete
//! SSA multiplication.
//!
//! # Example
//!
//! ```
//! use he_hwsim::accel::AcceleratorSim;
//! use he_bigint::UBig;
//!
//! let sim = AcceleratorSim::paper();
//! let a = UBig::from(123_456_789u64);
//! let b = UBig::from(987_654_321u64);
//! let (product, report) = sim.multiply(&a, &b)?;
//! assert_eq!(product, &a * &b);
//! // The default configuration reproduces the paper's 122 µs estimate.
//! assert!((report.total_us() - 122.4).abs() < 1.0);
//! # Ok::<(), he_hwsim::HwSimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accel;
pub mod batch;
pub mod carry;
pub mod comparators;
pub mod config;
pub mod device;
pub mod distributed;
pub mod fft_unit;
pub mod fleet;
pub mod memory;
pub mod modmul;
pub mod network;
pub mod pe;
pub mod perf;
pub mod primitive;
pub mod program;
pub mod resources;
pub mod stream;

mod error;

pub use config::AcceleratorConfig;
pub use error::HwSimError;
