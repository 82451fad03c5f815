//! The batch-first evaluation engine: cached-operand handles and a sharded
//! product scheduler over any [`Multiplier`] backend.
//!
//! The paper's accelerator earns its throughput by *amortizing* transforms:
//! a product whose operands recur pays 2, 1 or even 0 fresh forward FFTs
//! instead of 3 (the cached-transform optimization of its reference
//! \[25\]), and independent products pipeline over the hardware resources.
//! Server-style homomorphic traffic has exactly that shape — streams of
//! products sharing a running accumulator or a fixed key element — so the
//! unit of work here is a **batch over cached operands**, not a one-shot
//! `multiply(a, b)` call:
//!
//! 1. [`Multiplier::prepare`] captures an operand's forward spectrum
//!    behind an opaque [`OperandHandle`] (backends without a transform
//!    domain fall back to holding the raw integer);
//! 2. a batch is a slice of [`ProductJob`]s — handle×handle, handle×raw,
//!    or raw×raw, freely mixed;
//! 3. [`EvalEngine::run`] shards the batch across scoped worker threads
//!    and returns the products in job order. Each SSA-backed product
//!    checks a private scratch unit out of the multiplier's pool, so
//!    workers never serialize on a lock.
//!
//! # Example
//!
//! ```
//! use he_accel::prelude::*;
//!
//! let engine = EvalEngine::new(SsaSoftware::for_operand_bits(256)?);
//! let fixed = UBig::from(0xdead_beefu64);
//! let handle = engine.prepare(&fixed)?; // forward NTT paid once
//! let xs = [UBig::from(3u64), UBig::from(5u64)];
//! let jobs = [
//!     ProductJob::OnePrepared(&handle, &xs[0]),
//!     ProductJob::OnePrepared(&handle, &xs[1]),
//!     ProductJob::Raw(&xs[0], &xs[1]),
//! ];
//! let products = engine.run(&jobs)?;
//! assert_eq!(products[0], &fixed * &xs[0]);
//! assert_eq!(products[1], &fixed * &xs[1]);
//! assert_eq!(products[2], &xs[0] * &xs[1]);
//! # Ok::<(), he_accel::MultiplyError>(())
//! ```

use he_bigint::UBig;
use he_hwsim::batch::PreparedOperand;
use he_ssa::{SsaParams, TransformedOperand};

use crate::multiplier::{Multiplier, MultiplyError};

/// Identity of the backend *instance* that prepared an [`OperandHandle`]:
/// the backend name plus the transform geometry the cached spectrum was
/// computed in.
///
/// The name alone is not enough — two differently-configured instances of
/// the same backend (say `SsaSoftware::for_operand_bits(2_000)` and
/// `::for_operand_bits(500_000)`) share a name but produce spectra of
/// different lengths, and mixing them would yield a wrong product or a
/// panic deep in the transform. Geometry-stamped handles turn that misuse
/// into a typed [`MultiplyError::HandleMismatch`] before any work starts.
/// Backends without a transform domain carry a zero geometry, so their
/// handles stay valid across instances (unit-struct backends have no
/// instance state to disagree on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HandleProvenance {
    backend: &'static str,
    coeff_bits: u32,
    n_points: usize,
}

impl HandleProvenance {
    /// Provenance of a raw (transform-less) handle.
    pub(crate) fn raw(backend: &'static str) -> HandleProvenance {
        HandleProvenance {
            backend,
            coeff_bits: 0,
            n_points: 0,
        }
    }

    /// Provenance of a handle cached under an SSA transform plan.
    pub(crate) fn transform(backend: &'static str, params: SsaParams) -> HandleProvenance {
        HandleProvenance {
            backend,
            coeff_bits: params.coeff_bits(),
            n_points: params.n_points(),
        }
    }

    /// Name of the preparing backend.
    pub fn backend(&self) -> &'static str {
        self.backend
    }

    /// The preparing instance's transform geometry as
    /// `(coefficient bits, transform points)`, or `None` for raw handles.
    pub fn geometry(&self) -> Option<(u32, usize)> {
        (self.n_points != 0).then_some((self.coeff_bits, self.n_points))
    }
}

impl core::fmt::Display for HandleProvenance {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self.geometry() {
            Some((m, n)) => write!(f, "{} (m={m}, N={n})", self.backend),
            None => write!(f, "{} (raw)", self.backend),
        }
    }
}

/// An operand captured by [`Multiplier::prepare`] for reuse across many
/// products.
///
/// The representation is backend-specific and opaque: the SSA backend
/// caches the operand's forward NTT spectrum, the hardware simulation
/// caches the spectrum computed on the PE-array datapath, and the
/// classical backends hold the raw integer. A handle is only valid with
/// the backend **instance** that prepared it (same backend, same transform
/// geometry — see [`HandleProvenance`]); using it elsewhere yields
/// [`MultiplyError::HandleMismatch`].
#[derive(Debug, Clone)]
pub struct OperandHandle {
    provenance: HandleProvenance,
    repr: HandleRepr,
}

#[derive(Debug, Clone)]
pub(crate) enum HandleRepr {
    /// The raw integer (no transform domain to cache in).
    Raw(UBig),
    /// A software SSA forward spectrum.
    Ssa(TransformedOperand),
    /// A spectrum resident in the simulated accelerator's PE memory.
    Hw(PreparedOperand),
}

impl OperandHandle {
    pub(crate) fn new(provenance: HandleProvenance, repr: HandleRepr) -> OperandHandle {
        OperandHandle { provenance, repr }
    }

    /// Name of the backend that prepared this handle.
    pub fn backend(&self) -> &'static str {
        self.provenance.backend
    }

    /// Full identity of the preparing backend instance.
    pub fn provenance(&self) -> HandleProvenance {
        self.provenance
    }

    /// Whether the handle holds a cached spectrum (saving forward
    /// transforms on every product) rather than a raw fallback.
    pub fn is_cached(&self) -> bool {
        !matches!(self.repr, HandleRepr::Raw(_))
    }

    /// Bytes this handle keeps resident: its cached spectrum (512 KiB at
    /// the paper's 64K-point plan), or the raw operand of a fallback
    /// handle.
    pub fn resident_bytes(&self) -> usize {
        match &self.repr {
            HandleRepr::Raw(raw) => size_of_val(raw.as_limbs()),
            HandleRepr::Ssa(spectrum) => size_of_val(spectrum.spectrum()),
            HandleRepr::Hw(spectrum) => size_of_val(spectrum.spectrum()),
        }
    }

    pub(crate) fn raw_checked(&self, expected: HandleProvenance) -> Result<&UBig, MultiplyError> {
        match &self.repr {
            HandleRepr::Raw(raw) if self.provenance == expected => Ok(raw),
            _ => Err(self.mismatch(expected)),
        }
    }

    pub(crate) fn ssa_checked(
        &self,
        expected: HandleProvenance,
    ) -> Result<&TransformedOperand, MultiplyError> {
        match &self.repr {
            HandleRepr::Ssa(spectrum) if self.provenance == expected => Ok(spectrum),
            _ => Err(self.mismatch(expected)),
        }
    }

    pub(crate) fn hw_checked(
        &self,
        expected: HandleProvenance,
    ) -> Result<&PreparedOperand, MultiplyError> {
        match &self.repr {
            HandleRepr::Hw(spectrum) if self.provenance == expected => Ok(spectrum),
            _ => Err(self.mismatch(expected)),
        }
    }

    fn mismatch(&self, expected: HandleProvenance) -> MultiplyError {
        MultiplyError::HandleMismatch {
            expected,
            found: self.provenance,
        }
    }
}

/// One product in a batch: how much of it is already in the transform
/// domain.
#[derive(Debug, Clone, Copy)]
pub enum ProductJob<'a> {
    /// Both operands prepared (cheapest: zero fresh forward transforms on
    /// caching backends).
    Prepared(&'a OperandHandle, &'a OperandHandle),
    /// One prepared operand times a raw integer.
    OnePrepared(&'a OperandHandle, &'a UBig),
    /// Two raw integers — the classic three-transform product.
    Raw(&'a UBig, &'a UBig),
}

/// A batch scheduler bound to one multiplication backend.
///
/// [`EvalEngine::run`] executes a slice of [`ProductJob`]s through the
/// backend's session API. By default it hands the whole batch to the
/// backend's native [`Multiplier::multiply_batch_into`], so one knob
/// ([`he_ntt::par::set_threads`] / `HE_NTT_THREADS`) pins the whole
/// stack — the SSA backend's batch sharding *and* the per-transform
/// fan-out inside each shard (shards divide the machine between them via
/// per-shard thread budgets). [`EvalEngine::with_threads`] switches to
/// generic engine-level sharding with an explicit width instead;
/// transform-level parallelism keeps following `he_ntt::par` — in
/// particular, a single-worker run still transforms each product on all
/// configured cores.
#[derive(Debug, Clone)]
pub struct EvalEngine<M> {
    backend: M,
    threads: usize,
}

impl<M: Multiplier> EvalEngine<M> {
    /// An engine with automatic worker count.
    pub fn new(backend: M) -> EvalEngine<M> {
        EvalEngine {
            backend,
            threads: 0,
        }
    }

    /// Opts into generic engine-level sharding with an explicit width —
    /// how many worker threads a batch is split across (`0` restores the
    /// default: delegate to the backend's native batch path).
    ///
    /// This does **not** bound transform-level parallelism: each shard's
    /// NTT fan-out follows `he_ntt::par` (capped to a fair share of
    /// [`he_ntt::par::thread_count`] when several shards run, never below
    /// one thread per shard — an explicit width above `thread_count`
    /// deliberately wins, so `width` shards run concurrently even under
    /// [`he_ntt::par::set_threads`]`(1)`). To pin the entire stack to one
    /// thread, use `set_threads(1)` and leave the width automatic.
    pub fn with_threads(mut self, threads: usize) -> EvalEngine<M> {
        self.threads = threads;
        self
    }

    /// The backend in use.
    pub fn backend(&self) -> &M {
        &self.backend
    }

    /// Captures an operand for reuse (see [`Multiplier::prepare`]).
    ///
    /// # Errors
    ///
    /// Propagates the backend's preparation errors (operand exceeds the
    /// transform capacity).
    pub fn prepare(&self, a: &UBig) -> Result<OperandHandle, MultiplyError> {
        self.backend.prepare(a)
    }

    /// Sharding width for the explicit-width path (`run` delegates to the
    /// backend's native batch before this is consulted when `threads == 0`).
    fn workers(&self, jobs: usize) -> usize {
        self.threads.min(jobs).max(1)
    }

    /// How many products this engine computes at once: the explicit
    /// [`EvalEngine::with_threads`] width when set, otherwise
    /// [`he_ntt::par::thread_count`].
    pub(crate) fn width(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            he_ntt::par::thread_count()
        }
    }
}

impl<M: Multiplier + Sync> EvalEngine<M> {
    /// Captures many operands at once, parallelizing the preparations at
    /// the **product level**: each forward transform already fans out
    /// across cores internally, but independent operands no longer wait
    /// on each other — the serving front uses this so a flush's cache
    /// misses prepare concurrently instead of one-at-a-time on the
    /// worker.
    ///
    /// Results come back in operand order, one per operand; a failing
    /// preparation (operand exceeds the transform capacity) fails only
    /// its own slot. Worker width follows [`EvalEngine::with_threads`]
    /// when set, otherwise [`he_ntt::par::thread_count`]; each shard runs
    /// under a fair share of the transform-thread budget, exactly like a
    /// product batch.
    ///
    /// ```
    /// use he_accel::prelude::*;
    ///
    /// let engine = EvalEngine::new(SsaSoftware::for_operand_bits(256)?);
    /// let operands = [UBig::from(3u64), UBig::from(5u64), UBig::from(7u64)];
    /// let refs: Vec<&UBig> = operands.iter().collect();
    /// let handles: Vec<OperandHandle> = engine
    ///     .prepare_many(&refs)
    ///     .into_iter()
    ///     .collect::<Result<_, _>>()?;
    /// let jobs = [
    ///     ProductJob::Prepared(&handles[0], &handles[1]),
    ///     ProductJob::Prepared(&handles[1], &handles[2]),
    /// ];
    /// let products = engine.run(&jobs)?;
    /// assert_eq!(products[0], UBig::from(15u64));
    /// assert_eq!(products[1], UBig::from(35u64));
    /// # Ok::<(), he_accel::MultiplyError>(())
    /// ```
    pub fn prepare_many(&self, operands: &[&UBig]) -> Vec<Result<OperandHandle, MultiplyError>> {
        let mut out: Vec<Option<Result<OperandHandle, MultiplyError>>> = Vec::new();
        out.resize_with(operands.len(), || None);
        let workers = self.width();
        // Per-slot results only — the closure is infallible, so the
        // lowest-index-error machinery of the sharded runner never fires.
        let sharded: Result<(), (usize, core::convert::Infallible)> =
            he_ntt::par::run_sharded_into(operands, &mut out, workers, |_, operand, slot| {
                *slot = Some(self.backend.prepare(operand));
                Ok(())
            });
        match sharded {
            Ok(()) => {}
            Err((_, infallible)) => match infallible {},
        }
        out.into_iter()
            .map(|slot| slot.expect("every slot written by its shard"))
            .collect()
    }
}

impl<M: Multiplier + Sync> EvalEngine<M> {
    /// Runs a batch of product jobs and returns the products in job order.
    ///
    /// Without an explicit [`EvalEngine::with_threads`] width the batch
    /// goes straight to the backend's native
    /// [`Multiplier::multiply_batch_into`]
    /// — each backend parallelizes (or deliberately doesn't) the way it
    /// knows best: the SSA multiplier shards across cores with per-shard
    /// scratch, while the hardware simulation runs jobs in order with
    /// full per-transform fan-out (its distributed model serializes
    /// transforms internally, so engine-level sharding would only add
    /// contention). With an explicit width the engine shards generically,
    /// splitting the transform-thread budget fairly between shards.
    ///
    /// # Errors
    ///
    /// Returns the error of the lowest-index failing job (deterministic
    /// regardless of scheduling; native batch paths pre-validate handle
    /// provenance, see [`Multiplier::multiply_batch_into`]).
    pub fn run(&self, jobs: &[ProductJob<'_>]) -> Result<Vec<UBig>, MultiplyError> {
        // Write-once slots: `UBig::zero()` holds no limbs, so this is one
        // allocation for the spine — never `len` limb buffers — and each
        // slot is first touched by its own job's result.
        let mut out: Vec<UBig> = Vec::new();
        out.resize_with(jobs.len(), UBig::zero);
        self.run_into(jobs, &mut out)?;
        Ok(out)
    }

    /// [`EvalEngine::run`] into a caller-owned result slice.
    ///
    /// Slots are written once each, and backends with pooled buffers (the
    /// SSA multiplier) recompose directly into them — a slice reused
    /// across batches keeps its limb capacity, so a warm serving loop pays
    /// no per-product result allocations (see
    /// [`he_ssa::SsaMultiplier::multiply_batch_into`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`EvalEngine::run`]; on error the contents of
    /// `out` are unspecified (successful jobs may have written their
    /// slots).
    ///
    /// # Panics
    ///
    /// Panics if `jobs.len() != out.len()`.
    pub fn run_into(&self, jobs: &[ProductJob<'_>], out: &mut [UBig]) -> Result<(), MultiplyError> {
        if self.threads == 0 {
            return self.backend.multiply_batch_into(jobs, out);
        }
        // The sharding (contiguous runs, fair per-shard transform-thread
        // budgets, lowest-index error) lives in he-ntt's par module,
        // shared with the SSA multiplier's native batch path.
        he_ntt::par::run_sharded_into(jobs, out, self.workers(jobs.len()), |_, job, slot| {
            self.backend.multiply_job_into(job, slot)
        })
        .map_err(|(_, error)| error)
    }

    /// Convenience for the dominant traffic shape: one recurring prepared
    /// operand times a stream of fresh integers.
    ///
    /// # Errors
    ///
    /// Same conditions as [`EvalEngine::run`].
    pub fn run_stream(
        &self,
        fixed: &OperandHandle,
        stream: &[UBig],
    ) -> Result<Vec<UBig>, MultiplyError> {
        let jobs: Vec<ProductJob<'_>> = stream
            .iter()
            .map(|b| ProductJob::OnePrepared(fixed, b))
            .collect();
        self.run(&jobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multiplier::{HardwareSim, Karatsuba, Schoolbook, SsaSoftware};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn operands(seed: u64, n: usize, bits: usize) -> Vec<UBig> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| UBig::random_bits(&mut rng, bits)).collect()
    }

    #[test]
    fn engine_runs_mixed_jobs_on_every_backend() {
        let xs = operands(1, 4, 2_000);
        let expected: Vec<UBig> = xs.iter().map(|x| xs[0].mul_schoolbook(x)).collect();
        // One engine per backend kind: raw-fallback, SSA-cached, HW-cached.
        let schoolbook = EvalEngine::new(Schoolbook);
        let ssa = EvalEngine::new(SsaSoftware::for_operand_bits(2_000).unwrap());
        let hw = EvalEngine::new(HardwareSim::paper());
        run_backend(&schoolbook, &xs, &expected, false);
        run_backend(&ssa, &xs, &expected, true);
        run_backend(&hw, &xs, &expected, true);
    }

    fn run_backend<M: Multiplier + Sync>(
        engine: &EvalEngine<M>,
        xs: &[UBig],
        expected: &[UBig],
        cached: bool,
    ) {
        let fixed = engine.prepare(&xs[0]).unwrap();
        assert_eq!(fixed.is_cached(), cached);
        let other = engine.prepare(&xs[1]).unwrap();
        let jobs = [
            ProductJob::Prepared(&fixed, &fixed),
            ProductJob::Prepared(&fixed, &other),
            ProductJob::OnePrepared(&fixed, &xs[2]),
            ProductJob::Raw(&xs[0], &xs[3]),
        ];
        let products = engine.run(&jobs).unwrap();
        let squared = xs[0].mul_schoolbook(&xs[0]);
        assert_eq!(products[0], squared, "{}", engine.backend().name());
        assert_eq!(products[1], expected[1], "{}", engine.backend().name());
        assert_eq!(products[2], expected[2], "{}", engine.backend().name());
        assert_eq!(products[3], expected[3], "{}", engine.backend().name());
    }

    #[test]
    fn forced_fan_out_matches_single_thread() {
        let xs = operands(2, 9, 1_500);
        let engine = EvalEngine::new(SsaSoftware::for_operand_bits(1_500).unwrap());
        let fixed = engine.prepare(&xs[0]).unwrap();
        let stream = &xs[1..];
        let wide = engine
            .clone()
            .with_threads(4)
            .run_stream(&fixed, stream)
            .unwrap();
        let narrow = engine.with_threads(1).run_stream(&fixed, stream).unwrap();
        assert_eq!(wide, narrow);
        for (product, b) in narrow.iter().zip(stream) {
            assert_eq!(*product, xs[0].mul_schoolbook(b));
        }
    }

    /// One job through the backend's one job body.
    fn run_job<M: Multiplier>(backend: &M, job: ProductJob<'_>) -> Result<UBig, MultiplyError> {
        let mut out = UBig::zero();
        backend.multiply_job_into(&job, &mut out).map(|()| out)
    }

    #[test]
    fn handles_do_not_cross_backends() {
        let x = UBig::from(7u64);
        let ssa = SsaSoftware::for_operand_bits(64).unwrap();
        let handle = ssa.prepare(&x).unwrap();
        let err = run_job(&Karatsuba, ProductJob::Prepared(&handle, &handle)).unwrap_err();
        assert!(matches!(err, MultiplyError::HandleMismatch { .. }));
        let err = run_job(&HardwareSim::paper(), ProductJob::OnePrepared(&handle, &x)).unwrap_err();
        assert!(matches!(err, MultiplyError::HandleMismatch { .. }));
        // Raw handles are also backend-bound.
        let raw = Schoolbook.prepare(&x).unwrap();
        assert!(!raw.is_cached());
        assert!(run_job(&Karatsuba, ProductJob::Prepared(&raw, &raw)).is_err());
        assert_eq!(
            run_job(&Schoolbook, ProductJob::Prepared(&raw, &raw)).unwrap(),
            UBig::from(49u64)
        );
    }

    #[test]
    fn handles_do_not_cross_instances_of_the_same_backend() {
        // The foregrounded provenance bug: two differently-configured
        // instances of the SAME backend share a name, but their transform
        // geometries differ — using one's handle with the other must be a
        // typed HandleMismatch, not a wrong product or a panic.
        let x = UBig::from(12_345u64);
        let small = SsaSoftware::for_operand_bits(2_000).unwrap();
        let large = SsaSoftware::for_operand_bits(500_000).unwrap();
        assert_ne!(small.provenance(), large.provenance());
        let handle = small.prepare(&x).unwrap();
        for err in [
            run_job(&large, ProductJob::OnePrepared(&handle, &x)).unwrap_err(),
            run_job(&large, ProductJob::Prepared(&handle, &handle)).unwrap_err(),
            EvalEngine::new(large.clone())
                .run(&[ProductJob::OnePrepared(&handle, &x)])
                .unwrap_err(),
            EvalEngine::new(large.clone())
                .with_threads(2)
                .run(&[
                    ProductJob::Raw(&x, &x),
                    ProductJob::OnePrepared(&handle, &x),
                ])
                .unwrap_err(),
        ] {
            match err {
                MultiplyError::HandleMismatch { expected, found } => {
                    assert_eq!(found, small.provenance());
                    assert_eq!(expected, large.provenance());
                    assert_eq!(found.backend(), expected.backend());
                    assert_ne!(found.geometry(), expected.geometry());
                }
                other => panic!("expected HandleMismatch, got {other:?}"),
            }
        }
        // Same geometry, different instance: spectra are interchangeable
        // (the plans are deterministic), so this stays accepted.
        let twin = SsaSoftware::for_operand_bits(2_000).unwrap();
        assert_eq!(
            run_job(&twin, ProductJob::OnePrepared(&handle, &x)).unwrap(),
            x.mul_schoolbook(&x)
        );
    }

    #[test]
    fn run_into_reuses_caller_slots() {
        let xs = operands(7, 5, 1_200);
        let engine = EvalEngine::new(SsaSoftware::for_operand_bits(1_200).unwrap());
        let fixed = engine.prepare(&xs[0]).unwrap();
        let jobs: Vec<ProductJob<'_>> = xs[1..]
            .iter()
            .map(|b| ProductJob::OnePrepared(&fixed, b))
            .collect();
        let mut out: Vec<UBig> = Vec::new();
        out.resize_with(jobs.len(), UBig::zero);
        engine.run_into(&jobs, &mut out).unwrap();
        for (product, b) in out.iter().zip(&xs[1..]) {
            assert_eq!(*product, xs[0].mul_schoolbook(b));
        }
        // A second batch into the same (now warm) slots stays bit-exact.
        let again = out.clone();
        engine.run_into(&jobs, &mut out).unwrap();
        assert_eq!(out, again);
    }

    #[test]
    fn empty_batch() {
        let engine = EvalEngine::new(Karatsuba);
        assert!(engine.run(&[]).unwrap().is_empty());
    }

    #[test]
    fn errors_surface_the_lowest_failing_job() {
        let engine = EvalEngine::new(SsaSoftware::for_operand_bits(64).unwrap()).with_threads(3);
        let ok = UBig::from(5u64);
        let too_big = UBig::pow2(100_000);
        let jobs = [
            ProductJob::Raw(&ok, &ok),
            ProductJob::Raw(&too_big, &too_big),
            ProductJob::Raw(&too_big, &too_big),
        ];
        assert!(matches!(
            engine.run(&jobs).unwrap_err(),
            MultiplyError::Ssa(_)
        ));
    }
}
