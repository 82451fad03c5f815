//! One layered benchmark for the product path
//! `he-field -> he-ntt -> he-ssa -> EvalEngine -> serve -> he-net`.
//!
//! Six workloads at one operand size, on one box, in one run; end-to-end
//! metrics with tracing off, per-layer metrics from a traced run and a
//! single-threaded ladder. Layers are measured from outside, by timing
//! calls into their public functions. See `README.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fingerprint;
pub mod inputs;
pub mod json;
pub mod ladder;
pub mod manifest;
pub mod report;
pub mod run;
pub mod stats;
pub mod suite;
pub mod trace;
pub mod workloads;
