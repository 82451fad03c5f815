//! The unified [`Multiplier`] interface over every evaluated system.

use core::fmt;

use he_bigint::UBig;
use he_hwsim::accel::{AcceleratorSim, MultiplyReport};
use he_hwsim::batch::{BatchReport, HwJob};
use he_hwsim::HwSimError;
use he_ssa::{SsaError, SsaJob, SsaMultiplier};

use crate::engine::{HandleProvenance, HandleRepr, OperandHandle, ProductJob};

/// Error from a multiplication backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MultiplyError {
    /// Software Schönhage–Strassen error (operand too large, bad params).
    Ssa(SsaError),
    /// Hardware-simulation error.
    HwSim(HwSimError),
    /// An [`OperandHandle`] was used with a backend instance other than
    /// the one that prepared it — a different backend entirely, or the
    /// same backend configured with a different transform geometry.
    HandleMismatch {
        /// The backend instance the handle was used with.
        expected: HandleProvenance,
        /// The backend instance that prepared the handle.
        found: HandleProvenance,
    },
    /// A device-level fault: the card rejected the work for reasons that
    /// are not a property of the operands — a transient transfer error, a
    /// device reset, an injected fault from
    /// [`crate::fault::FaultyMultiplier`]. Unlike the capacity errors,
    /// retrying the same job (possibly on another card) may succeed; the
    /// serving fleet does exactly that up to
    /// `crate::serve::ServeConfig::retry_limit`.
    Device(String),
    /// A backend error reported by a **remote** fleet: a wire protocol
    /// preserves the error family (`kind`) and the rendered message, but
    /// not the far end's in-process payload, so it decodes to this
    /// variant. Never retried locally — the remote fleet already applied
    /// its own retry/quarantine policy before answering.
    Remote {
        /// The remote error family (e.g. `"ssa"`, `"hwsim"`,
        /// `"handle-mismatch"`, `"protocol"`).
        kind: String,
        /// The remote error's rendered message.
        detail: String,
    },
}

impl fmt::Display for MultiplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MultiplyError::Ssa(e) => write!(f, "{e}"),
            MultiplyError::HwSim(e) => write!(f, "{e}"),
            MultiplyError::HandleMismatch { expected, found } => write!(
                f,
                "operand handle was prepared by `{found}` but used with `{expected}`"
            ),
            MultiplyError::Device(reason) => write!(f, "device fault: {reason}"),
            MultiplyError::Remote { kind, detail } => {
                write!(f, "remote {kind} error: {detail}")
            }
        }
    }
}

impl std::error::Error for MultiplyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MultiplyError::Ssa(e) => Some(e),
            MultiplyError::HwSim(e) => Some(e),
            MultiplyError::HandleMismatch { .. }
            | MultiplyError::Device(_)
            | MultiplyError::Remote { .. } => None,
        }
    }
}

impl From<SsaError> for MultiplyError {
    fn from(e: SsaError) -> MultiplyError {
        MultiplyError::Ssa(e)
    }
}

impl From<HwSimError> for MultiplyError {
    fn from(e: HwSimError) -> MultiplyError {
        MultiplyError::HwSim(e)
    }
}

/// A big-integer multiplication system.
///
/// Implementations: [`Schoolbook`], [`Karatsuba`], [`Toom3`] (classical
/// baselines), [`SsaSoftware`] (the paper's algorithm in software), and
/// [`HardwareSim`] (the paper's accelerator, simulated).
///
/// Beyond the one-shot [`Multiplier::multiply`], every backend speaks the
/// *session model* of the batch engine ([`crate::engine`]): capture a
/// recurring operand once with [`Multiplier::prepare`], then multiply
/// through the handle — caching backends (SSA, the hardware simulation)
/// skip the cached operand's forward transform on every product. There is
/// **one job body**, [`Multiplier::multiply_job_into`], and one batch body
/// over it, [`Multiplier::multiply_batch_into`]; a backend that caches
/// overrides those two and nothing else.
pub trait Multiplier {
    /// Multiplies two nonnegative integers.
    ///
    /// # Errors
    ///
    /// Returns [`MultiplyError`] if the operands exceed the backend's
    /// capacity (the classical algorithms never fail).
    fn multiply(&self, a: &UBig, b: &UBig) -> Result<UBig, MultiplyError>;

    /// Backend name for reports.
    fn name(&self) -> &'static str;

    /// Identity of this backend instance for handle stamping: the name
    /// plus the transform geometry, so handles prepared by a
    /// differently-configured instance of the *same* backend are rejected
    /// instead of silently misused. The default (raw provenance, no
    /// geometry) fits backends without per-instance transform state.
    fn provenance(&self) -> HandleProvenance {
        HandleProvenance::raw(self.name())
    }

    /// Captures an operand for reuse across many products.
    ///
    /// Caching backends store the operand's forward spectrum; the default
    /// stores the raw integer so every backend supports the session API.
    ///
    /// # Errors
    ///
    /// Returns [`MultiplyError`] if the operand alone exceeds the
    /// backend's transform capacity.
    fn prepare(&self, a: &UBig) -> Result<OperandHandle, MultiplyError> {
        Ok(OperandHandle::new(
            self.provenance(),
            HandleRepr::Raw(a.clone()),
        ))
    }

    /// Runs one job — handle×handle, handle×raw or raw×raw — into a
    /// caller-owned slot (write-once; backends with pooled buffers
    /// recompose directly into a warm slot).
    ///
    /// The default serves backends whose handles hold the raw integer: it
    /// checks each handle's provenance and dispatches to
    /// [`Multiplier::multiply`].
    ///
    /// # Errors
    ///
    /// Returns [`MultiplyError::HandleMismatch`] if a handle was prepared
    /// by a different backend instance (name or transform geometry
    /// differs), plus the backend's usual capacity conditions; `out` is
    /// unchanged on error.
    fn multiply_job_into(&self, job: &ProductJob<'_>, out: &mut UBig) -> Result<(), MultiplyError> {
        let provenance = self.provenance();
        *out = match *job {
            ProductJob::Prepared(a, b) => {
                self.multiply(a.raw_checked(provenance)?, b.raw_checked(provenance)?)
            }
            ProductJob::OnePrepared(a, b) => self.multiply(a.raw_checked(provenance)?, b),
            ProductJob::Raw(a, b) => self.multiply(a, b),
        }?;
        Ok(())
    }

    /// Multiplies a batch of jobs into a caller-owned result slice, in job
    /// order.
    ///
    /// The default runs sequentially; backends with native batch support
    /// (the SSA multiplier's sharded scheduler, the accelerator's
    /// pipelined instruction stream) override it. For backend-agnostic
    /// sharded execution use [`crate::engine::EvalEngine`]. A slice
    /// reused across batches keeps each slot's limb capacity, so warm
    /// serving loops pay no per-product result allocations on the SSA
    /// backend.
    ///
    /// # Errors
    ///
    /// The lowest-index failing job's error, with one deliberate
    /// exception: backends with native batch support validate handle
    /// provenance for the *whole* batch before executing anything, so a
    /// [`MultiplyError::HandleMismatch`] at any index is reported before
    /// an earlier job's execution error — no work starts on a batch with
    /// foreign handles. On error the contents of `out` are unspecified.
    ///
    /// # Panics
    ///
    /// Panics if `jobs.len() != out.len()`.
    fn multiply_batch_into(
        &self,
        jobs: &[ProductJob<'_>],
        out: &mut [UBig],
    ) -> Result<(), MultiplyError> {
        assert_eq!(
            jobs.len(),
            out.len(),
            "one result slot per job ({} jobs, {} slots)",
            jobs.len(),
            out.len()
        );
        for (job, slot) in jobs.iter().zip(out.iter_mut()) {
            self.multiply_job_into(job, slot)?;
        }
        Ok(())
    }

    /// Releases idle working memory the backend retains between products
    /// (scratch pools, staging buffers). The default is a no-op; the SSA
    /// backend frees its idle scratch units. Long-lived servers call this
    /// when traffic goes quiet — the next product re-grows what it needs.
    fn trim_resources(&self) {}

    /// The widest operand (in bits) this instance can multiply, or `None`
    /// when unbounded (the classical algorithms). Sized backends — the
    /// SSA multiplier, the simulated accelerator — report their transform
    /// plan's capacity; the serving fleet's [`crate::serve::RoutePolicy::BySize`]
    /// routes jobs to cards whose capacity fits them.
    fn operand_capacity_bits(&self) -> Option<usize> {
        None
    }
}

// Full delegation (not just the required methods), so backend overrides —
// cached preparation, native batch scheduling — survive borrowing, e.g.
// `EvalEngine::new(&backend)`.
impl<M: Multiplier + ?Sized> Multiplier for &M {
    fn multiply(&self, a: &UBig, b: &UBig) -> Result<UBig, MultiplyError> {
        (**self).multiply(a, b)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn provenance(&self) -> HandleProvenance {
        (**self).provenance()
    }

    fn prepare(&self, a: &UBig) -> Result<OperandHandle, MultiplyError> {
        (**self).prepare(a)
    }

    fn multiply_job_into(&self, job: &ProductJob<'_>, out: &mut UBig) -> Result<(), MultiplyError> {
        (**self).multiply_job_into(job, out)
    }

    fn multiply_batch_into(
        &self,
        jobs: &[ProductJob<'_>],
        out: &mut [UBig],
    ) -> Result<(), MultiplyError> {
        (**self).multiply_batch_into(jobs, out)
    }

    fn trim_resources(&self) {
        (**self).trim_resources();
    }

    fn operand_capacity_bits(&self) -> Option<usize> {
        (**self).operand_capacity_bits()
    }
}

/// Schoolbook `O(n²)` multiplication.
#[derive(Debug, Clone, Copy, Default)]
pub struct Schoolbook;

impl Multiplier for Schoolbook {
    fn multiply(&self, a: &UBig, b: &UBig) -> Result<UBig, MultiplyError> {
        Ok(a.mul_schoolbook(b))
    }

    fn name(&self) -> &'static str {
        "schoolbook"
    }
}

/// Karatsuba `O(n^1.585)` multiplication.
#[derive(Debug, Clone, Copy, Default)]
pub struct Karatsuba;

impl Multiplier for Karatsuba {
    fn multiply(&self, a: &UBig, b: &UBig) -> Result<UBig, MultiplyError> {
        Ok(a.mul_karatsuba(b))
    }

    fn name(&self) -> &'static str {
        "karatsuba"
    }
}

/// Toom-3 `O(n^1.465)` multiplication.
#[derive(Debug, Clone, Copy, Default)]
pub struct Toom3;

impl Multiplier for Toom3 {
    fn multiply(&self, a: &UBig, b: &UBig) -> Result<UBig, MultiplyError> {
        Ok(a.mul_toom3(b))
    }

    fn name(&self) -> &'static str {
        "toom-3"
    }
}

/// The paper's Schönhage–Strassen algorithm, software execution.
#[derive(Debug, Clone)]
pub struct SsaSoftware {
    inner: SsaMultiplier,
}

impl SsaSoftware {
    /// The paper's parameters (24-bit coefficients, 64K points).
    pub fn paper() -> SsaSoftware {
        SsaSoftware {
            inner: SsaMultiplier::paper(),
        }
    }

    /// Auto-sized for operands of `bits` bits.
    ///
    /// # Errors
    ///
    /// Returns [`MultiplyError::Ssa`] if no parameter set fits.
    pub fn for_operand_bits(bits: usize) -> Result<SsaSoftware, MultiplyError> {
        Ok(SsaSoftware {
            inner: SsaMultiplier::for_operand_bits(bits)?,
        })
    }

    /// The underlying planned multiplier.
    pub fn inner(&self) -> &SsaMultiplier {
        &self.inner
    }
}

impl SsaSoftware {
    /// Lowers one engine-level job to a native [`SsaJob`], verifying
    /// handle provenance (backend *and* transform geometry).
    fn lower_job<'a>(&self, job: ProductJob<'a>) -> Result<SsaJob<'a>, MultiplyError> {
        let provenance = self.provenance();
        Ok(match job {
            ProductJob::Prepared(a, b) => {
                SsaJob::BothCached(a.ssa_checked(provenance)?, b.ssa_checked(provenance)?)
            }
            ProductJob::OnePrepared(a, b) => SsaJob::OneCached(a.ssa_checked(provenance)?, b),
            ProductJob::Raw(a, b) => SsaJob::Uncached(a, b),
        })
    }

    /// [`SsaSoftware::lower_job`] over a whole batch.
    fn lower_jobs<'a>(&self, jobs: &'a [ProductJob<'_>]) -> Result<Vec<SsaJob<'a>>, MultiplyError> {
        jobs.iter().map(|job| self.lower_job(*job)).collect()
    }
}

impl Multiplier for SsaSoftware {
    fn multiply(&self, a: &UBig, b: &UBig) -> Result<UBig, MultiplyError> {
        Ok(self.inner.multiply(a, b)?)
    }

    fn name(&self) -> &'static str {
        "ssa-software"
    }

    fn provenance(&self) -> HandleProvenance {
        HandleProvenance::transform(self.name(), self.inner.params())
    }

    fn prepare(&self, a: &UBig) -> Result<OperandHandle, MultiplyError> {
        Ok(OperandHandle::new(
            self.provenance(),
            HandleRepr::Ssa(self.inner.transform(a)?),
        ))
    }

    fn multiply_job_into(&self, job: &ProductJob<'_>, out: &mut UBig) -> Result<(), MultiplyError> {
        Ok(self.inner.multiply_job_into(self.lower_job(*job)?, out)?)
    }

    fn multiply_batch_into(
        &self,
        jobs: &[ProductJob<'_>],
        out: &mut [UBig],
    ) -> Result<(), MultiplyError> {
        // Native sharded batch: workers check private scratch units out of
        // the multiplier's pool and recompose into the caller's slots.
        Ok(self
            .inner
            .multiply_batch_into(&self.lower_jobs(jobs)?, out)?)
    }

    fn trim_resources(&self) {
        self.inner.trim_scratch();
    }

    fn operand_capacity_bits(&self) -> Option<usize> {
        Some(self.inner.params().max_operand_bits())
    }
}

/// The paper's accelerator, cycle-simulated.
#[derive(Debug, Clone)]
pub struct HardwareSim {
    inner: AcceleratorSim,
}

impl HardwareSim {
    /// The paper's configuration: 4 PEs at 200 MHz.
    pub fn paper() -> HardwareSim {
        HardwareSim {
            inner: AcceleratorSim::paper(),
        }
    }

    /// Wraps an explicitly configured simulator.
    pub fn from_sim(inner: AcceleratorSim) -> HardwareSim {
        HardwareSim { inner }
    }

    /// The underlying simulator.
    pub fn inner(&self) -> &AcceleratorSim {
        &self.inner
    }

    /// Multiplies and returns the cycle-level timing report alongside the
    /// product.
    ///
    /// # Errors
    ///
    /// Returns [`MultiplyError::HwSim`] if the operands exceed the
    /// 786,432-bit capacity.
    pub fn multiply_with_report(
        &self,
        a: &UBig,
        b: &UBig,
    ) -> Result<(UBig, MultiplyReport), MultiplyError> {
        Ok(self.inner.multiply(a, b)?)
    }

    /// Runs a batch as a pipelined instruction stream on the simulated
    /// accelerator and returns the cycle-level schedule alongside the
    /// products — [`Multiplier::multiply_batch_into`] with the schedule
    /// kept.
    ///
    /// # Errors
    ///
    /// Returns [`MultiplyError::HandleMismatch`] for foreign handles and
    /// [`MultiplyError::HwSim`] for capacity violations.
    pub fn multiply_batch_with_report(
        &self,
        jobs: &[ProductJob<'_>],
    ) -> Result<(Vec<UBig>, BatchReport), MultiplyError> {
        Ok(self.inner.multiply_batch(&self.lower_jobs(jobs)?)?)
    }

    /// Lowers engine-level jobs to native [`HwJob`]s, verifying handle
    /// provenance (backend *and* transform geometry).
    fn lower_jobs<'a>(&self, jobs: &'a [ProductJob<'_>]) -> Result<Vec<HwJob<'a>>, MultiplyError> {
        let provenance = Multiplier::provenance(self);
        jobs.iter()
            .map(|job| {
                Ok(match job {
                    ProductJob::Prepared(a, b) => {
                        HwJob::BothPrepared(a.hw_checked(provenance)?, b.hw_checked(provenance)?)
                    }
                    ProductJob::OnePrepared(a, b) => {
                        HwJob::OnePrepared(a.hw_checked(provenance)?, b)
                    }
                    ProductJob::Raw(a, b) => HwJob::Raw(a, b),
                })
            })
            .collect()
    }
}

impl Multiplier for HardwareSim {
    fn multiply(&self, a: &UBig, b: &UBig) -> Result<UBig, MultiplyError> {
        Ok(self.inner.multiply(a, b)?.0)
    }

    fn name(&self) -> &'static str {
        "accelerator-sim"
    }

    fn provenance(&self) -> HandleProvenance {
        HandleProvenance::transform(self.name(), self.inner.params())
    }

    fn prepare(&self, a: &UBig) -> Result<OperandHandle, MultiplyError> {
        let (prepared, _) = self.inner.prepare(a)?;
        Ok(OperandHandle::new(
            Multiplier::provenance(self),
            HandleRepr::Hw(prepared),
        ))
    }

    fn multiply_job_into(&self, job: &ProductJob<'_>, out: &mut UBig) -> Result<(), MultiplyError> {
        // One job is a one-instruction stream.
        self.multiply_batch_into(core::slice::from_ref(job), core::slice::from_mut(out))
    }

    fn multiply_batch_into(
        &self,
        jobs: &[ProductJob<'_>],
        out: &mut [UBig],
    ) -> Result<(), MultiplyError> {
        assert_eq!(
            jobs.len(),
            out.len(),
            "one result slot per job ({} jobs, {} slots)",
            jobs.len(),
            out.len()
        );
        // Native pipelined batch: provenance is validated for the whole
        // batch before the instruction stream starts.
        let (products, _) = self.multiply_batch_with_report(jobs)?;
        for (slot, product) in out.iter_mut().zip(products) {
            *slot = product;
        }
        Ok(())
    }

    fn operand_capacity_bits(&self) -> Option<usize> {
        Some(self.inner.params().max_operand_bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn all_backends_agree() {
        let mut rng = StdRng::seed_from_u64(42);
        let a = UBig::random_bits(&mut rng, 20_000);
        let b = UBig::random_bits(&mut rng, 18_000);
        let expected = a.mul_schoolbook(&b);
        let backends: Vec<Box<dyn Multiplier>> = vec![
            Box::new(Schoolbook),
            Box::new(Karatsuba),
            Box::new(Toom3),
            Box::new(SsaSoftware::paper()),
            Box::new(HardwareSim::paper()),
        ];
        for backend in &backends {
            assert_eq!(
                backend.multiply(&a, &b).unwrap(),
                expected,
                "backend {}",
                backend.name()
            );
        }
    }

    #[test]
    fn names_are_unique() {
        let backends: Vec<Box<dyn Multiplier>> = vec![
            Box::new(Schoolbook),
            Box::new(Karatsuba),
            Box::new(Toom3),
            Box::new(SsaSoftware::paper()),
            Box::new(HardwareSim::paper()),
        ];
        let names: std::collections::HashSet<_> = backends.iter().map(|b| b.name()).collect();
        assert_eq!(names.len(), backends.len());
    }

    #[test]
    fn hardware_report_is_exposed() {
        let hw = HardwareSim::paper();
        let (product, report) = hw
            .multiply_with_report(&UBig::from(7u64), &UBig::from(6u64))
            .unwrap();
        assert_eq!(product, UBig::from(42u64));
        assert!(report.total_us() > 0.0);
    }

    #[test]
    fn error_conversion_chain() {
        let hw = HardwareSim::paper();
        let too_big = UBig::pow2(900_000);
        let err = hw.multiply(&too_big, &too_big).unwrap_err();
        assert!(matches!(err, MultiplyError::HwSim(_)));
        assert!(std::error::Error::source(&err).is_some());
    }
}
