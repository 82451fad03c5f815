//! Batch-first multiplication: shard independent products across cores.
//!
//! The ROADMAP's throughput target above PR 1's per-transform fan-out is
//! *product-level* parallelism: a server answering homomorphic-AND traffic
//! sees a stream of independent 786,432-bit products, often sharing one
//! operand (a running accumulator, a fixed key element). A batch is a slice
//! of [`SsaJob`]s — both-cached, one-cached, or uncached, freely mixed —
//! and [`SsaMultiplier::multiply_batch`] shards it over scoped worker
//! threads. Each worker checks a whole scratch unit out of the multiplier's
//! pool, so shards never serialize on a lock the way the old
//! single-`Mutex` pool forced them to.
//!
//! Worker count follows [`he_ntt::par::thread_count`] (`HE_NTT_THREADS`
//! or [`he_ntt::par::set_threads`]), so batch sharding and the
//! per-transform stage fan-out are pinned by one knob.
//!
//! # Example
//!
//! ```
//! use he_bigint::UBig;
//! use he_ssa::{SsaJob, SsaMultiplier, SsaParams};
//!
//! let ssa = SsaMultiplier::with_params(SsaParams::new(8, 64)?)?;
//! let fixed = UBig::from(0xdead_beefu64);
//! let tf = ssa.transform(&fixed)?; // forward NTT paid once for the batch
//! let xs = [UBig::from(3u64), UBig::from(5u64)];
//! let jobs = [
//!     SsaJob::OneCached(&tf, &xs[0]),
//!     SsaJob::OneCached(&tf, &xs[1]),
//!     SsaJob::Uncached(&xs[0], &xs[1]),
//! ];
//! let products = ssa.multiply_batch(&jobs)?;
//! assert_eq!(products[0], &fixed * &xs[0]);
//! assert_eq!(products[1], &fixed * &xs[1]);
//! assert_eq!(products[2], &xs[0] * &xs[1]);
//! # Ok::<(), he_ssa::SsaError>(())
//! ```

use he_bigint::UBig;

use crate::cached::TransformedOperand;
use crate::error::SsaError;
use crate::multiplier::SsaMultiplier;

/// One product in a batch, classified by how many operands are already in
/// the transform domain (the fewer fresh forward transforms, the cheaper —
/// 1, 2 or 3 transforms total; see [`TransformedOperand`]).
#[derive(Debug, Clone, Copy)]
pub enum SsaJob<'a> {
    /// Both spectra cached: pointwise product + one inverse transform.
    BothCached(&'a TransformedOperand, &'a TransformedOperand),
    /// One cached spectrum times a raw integer: two transforms.
    OneCached(&'a TransformedOperand, &'a UBig),
    /// Two raw integers: the full three-transform product.
    Uncached(&'a UBig, &'a UBig),
}

impl SsaJob<'_> {
    /// Fresh forward transforms this job performs (0, 1 or 2).
    pub fn fresh_transforms(&self) -> u32 {
        match self {
            SsaJob::BothCached(..) => 0,
            SsaJob::OneCached(..) => 1,
            SsaJob::Uncached(..) => 2,
        }
    }
}

impl SsaMultiplier {
    /// Runs one batch job into a caller-owned result.
    ///
    /// # Errors
    ///
    /// The job kind's usual conditions: [`SsaError::OperandTooLarge`] when
    /// the acyclic product would wrap the transform,
    /// [`SsaError::InvalidParams`] when a cached spectrum belongs to a
    /// different plan. On error `out` is left unchanged.
    pub fn multiply_job_into(&self, job: SsaJob<'_>, out: &mut UBig) -> Result<(), SsaError> {
        match job {
            SsaJob::BothCached(a, b) => self.multiply_transformed_into(a, b, out),
            SsaJob::OneCached(a, b) => self.multiply_one_cached_into(a, b, out),
            SsaJob::Uncached(a, b) => self.multiply_into(a, b, out),
        }
    }

    /// Multiplies a batch of independent products, sharded across worker
    /// threads, and returns the results in job order.
    ///
    /// # Errors
    ///
    /// Returns the error of the lowest-index failing job (deterministic
    /// regardless of scheduling); see [`SsaMultiplier::multiply_job_into`]
    /// for the per-job conditions.
    pub fn multiply_batch(&self, jobs: &[SsaJob<'_>]) -> Result<Vec<UBig>, SsaError> {
        let mut out: Vec<UBig> = std::iter::repeat_with(UBig::zero)
            .take(jobs.len())
            .collect();
        self.multiply_batch_into(jobs, &mut out)?;
        Ok(out)
    }

    /// [`SsaMultiplier::multiply_batch`] into a caller-owned result slice —
    /// per-product allocation-free once the pool and the slots are warm.
    ///
    /// Sharding rides on [`he_ntt::par::run_sharded_into`]: jobs split
    /// into contiguous runs, one per worker, each worker checks its own
    /// scratch unit out of the pool (no lock contention) and runs its
    /// transforms under a fair share of the machine's thread budget. With
    /// one worker (or one job) everything runs inline on the caller's
    /// thread.
    ///
    /// # Errors
    ///
    /// Returns the error of the lowest-index failing job. On error the
    /// contents of `out` are unspecified (successful shards may have
    /// written their slots).
    ///
    /// # Panics
    ///
    /// Panics if `jobs.len() != out.len()`.
    pub fn multiply_batch_into(
        &self,
        jobs: &[SsaJob<'_>],
        out: &mut [UBig],
    ) -> Result<(), SsaError> {
        let workers = he_ntt::par::thread_count();
        // Let the scratch pool retain one idle unit per worker between
        // batches (auto mode only): a thread budget above the core count
        // would otherwise free and reallocate the excess units on every
        // batch.
        self.note_scratch_concurrency(workers.min(jobs.len()));
        he_ntt::par::run_sharded_into(jobs, out, workers, |_, job, slot| {
            self.multiply_job_into(*job, slot)
        })
        .map_err(|(_, error)| error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SsaParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small() -> SsaMultiplier {
        SsaMultiplier::with_params(SsaParams::new(8, 64).unwrap()).unwrap()
    }

    #[test]
    fn mixed_batch_matches_sequential() {
        let mut rng = StdRng::seed_from_u64(61);
        let ssa = small();
        let fixed = UBig::random_bits(&mut rng, 120);
        let tf = ssa.transform(&fixed).unwrap();
        let raws: Vec<UBig> = (0..6).map(|_| UBig::random_bits(&mut rng, 100)).collect();
        let spectra: Vec<_> = raws.iter().map(|x| ssa.transform(x).unwrap()).collect();
        let jobs: Vec<SsaJob> = (0..raws.len())
            .map(|i| match i % 3 {
                0 => SsaJob::BothCached(&tf, &spectra[i]),
                1 => SsaJob::OneCached(&tf, &raws[i]),
                _ => SsaJob::Uncached(&fixed, &raws[i]),
            })
            .collect();
        let batch = ssa.multiply_batch(&jobs).unwrap();
        for (i, product) in batch.iter().enumerate() {
            assert_eq!(*product, ssa.multiply(&fixed, &raws[i]).unwrap(), "job {i}");
        }
    }

    #[test]
    fn forced_fan_out_matches_sequential() {
        let mut rng = StdRng::seed_from_u64(62);
        let ssa = small();
        let raws: Vec<UBig> = (0..32).map(|_| UBig::random_bits(&mut rng, 90)).collect();
        let jobs: Vec<SsaJob> = raws
            .windows(2)
            .map(|w| SsaJob::Uncached(&w[0], &w[1]))
            .collect();
        he_ntt::par::set_threads(4);
        let parallel = ssa.multiply_batch(&jobs);
        he_ntt::par::set_threads(1);
        let sequential = ssa.multiply_batch(&jobs);
        he_ntt::par::set_threads(0);
        assert_eq!(parallel.unwrap(), sequential.unwrap());
    }

    #[test]
    fn empty_batch() {
        let ssa = small();
        assert!(ssa.multiply_batch(&[]).unwrap().is_empty());
    }

    #[test]
    fn reports_the_lowest_index_error() {
        let ssa = small();
        let too_big = UBig::pow2(256); // 33 coefficients — 33+33−1 > 64
        let ok = UBig::from(7u64);
        let jobs = [
            SsaJob::Uncached(&ok, &ok),
            SsaJob::Uncached(&too_big, &too_big),
            SsaJob::Uncached(&too_big, &too_big),
        ];
        he_ntt::par::set_threads(3);
        let err = ssa.multiply_batch(&jobs).unwrap_err();
        he_ntt::par::set_threads(0);
        assert!(matches!(err, SsaError::OperandTooLarge { .. }));
    }

    #[test]
    fn fresh_transform_counts() {
        let ssa = small();
        let x = UBig::from(9u64);
        let tx = ssa.transform(&x).unwrap();
        assert_eq!(SsaJob::BothCached(&tx, &tx).fresh_transforms(), 0);
        assert_eq!(SsaJob::OneCached(&tx, &x).fresh_transforms(), 1);
        assert_eq!(SsaJob::Uncached(&x, &x).fresh_transforms(), 2);
    }

    #[test]
    #[should_panic(expected = "one result slot per item")]
    fn mismatched_result_slice_panics() {
        let ssa = small();
        let x = UBig::from(3u64);
        let jobs = [SsaJob::Uncached(&x, &x)];
        let mut out = [];
        let _ = ssa.multiply_batch_into(&jobs, &mut out);
    }
}
