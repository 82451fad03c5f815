//! Deterministic fault injection: a [`Multiplier`] wrapper that panics,
//! errors and stalls on a seeded, reproducible schedule.
//!
//! A self-healing fleet is only as trustworthy as the faults it has been
//! exercised against. [`FaultyMultiplier`] wraps any backend and injects
//! the three failure shapes a real accelerator card exhibits —
//!
//! * **panics** (the card "dies" mid-flush: a device reset, a driver
//!   crash — the serving worker's `catch_unwind` supervision and the
//!   restart/backoff machinery are built against exactly this),
//! * **transient errors** ([`MultiplyError::Device`] returns: a DMA
//!   transfer glitch, a recoverable ECC event — the fleet's
//!   retry-with-failover path re-queues these jobs),
//! * **latency stalls** (a slow card: queueing and deadline accounting
//!   must attribute the misses correctly),
//!
//! plus an optional **poison operand** that panics the device whenever it
//! is prepared or multiplied raw, so the quarantine path
//! (`he_accel::serve::ServeError::Poisoned`) can be driven end to end: a
//! poison job takes down every flush it joins until the fleet isolates
//! and quarantines it.
//!
//! Every fault fires on a schedule derived **only** from the plan's seed
//! and the wrapper's own call counter — no clocks, no thread identity —
//! so a chaos test that fails replays identically under the same seed.
//! The flush counter advances once per batch call
//! ([`Multiplier::multiply_batch_into`]), which is exactly once per
//! serving-fleet flush on an [`crate::EvalEngine`] with the default
//! (native-batch) width.
//!
//! ```
//! use he_accel::prelude::*;
//! use he_accel::fault::{FaultPlan, FaultyMultiplier};
//!
//! // Every 3rd flush returns a transient device error; the schedule is
//! // reproducible from the seed alone.
//! let plan = FaultPlan::new(7).error_every(3);
//! let faulty = FaultyMultiplier::new(SsaSoftware::for_operand_bits(256)?, plan);
//! let a = UBig::from(6u64);
//! let jobs = [ProductJob::Raw(&a, &a)];
//! let mut failures = 0;
//! for _ in 0..9 {
//!     let mut out = [UBig::zero()];
//!     if faulty.multiply_batch_into(&jobs, &mut out).is_err() {
//!         failures += 1;
//!     } else {
//!         assert_eq!(out[0], UBig::from(36u64));
//!     }
//! }
//! assert_eq!(failures, 3, "every 3rd flush faulted, deterministically");
//! # Ok::<(), he_accel::MultiplyError>(())
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use he_bigint::UBig;

use crate::engine::{HandleProvenance, OperandHandle, ProductJob};
use crate::multiplier::{Multiplier, MultiplyError};

/// splitmix64 — the standard 64-bit mixer; enough entropy to decorrelate
/// the per-fault-kind phases of nearby seeds without pulling in an RNG
/// dependency.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A seeded, deterministic fault schedule for [`FaultyMultiplier`].
///
/// Each fault kind fires once every `N` flushes (batch calls), at a phase
/// offset derived from the seed — so two plans with the same periods but
/// different seeds fault on different flush numbers, and the same seed
/// always reproduces the same schedule. A period of `0` (the default)
/// disables that fault kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    panic_every: u64,
    error_every: u64,
    stall_every: u64,
    stall: Duration,
    poison: Option<UBig>,
}

impl FaultPlan {
    /// A plan with no faults enabled (add them with the builder methods).
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            panic_every: 0,
            error_every: 0,
            stall_every: 0,
            stall: Duration::ZERO,
            poison: None,
        }
    }

    /// Panic on every `period`-th flush (`0` disables).
    pub fn panic_every(mut self, period: u64) -> FaultPlan {
        self.panic_every = period;
        self
    }

    /// Return [`MultiplyError::Device`] on every `period`-th flush (`0`
    /// disables). A flush due for both a panic and an error panics.
    pub fn error_every(mut self, period: u64) -> FaultPlan {
        self.error_every = period;
        self
    }

    /// Sleep `stall` before every `period`-th flush (`0` disables) — the
    /// slow-card shape; stalls compose with the other faults.
    pub fn stall_every(mut self, period: u64, stall: Duration) -> FaultPlan {
        self.stall_every = period;
        self.stall = stall;
        self
    }

    /// Designates a poison operand: preparing it (or multiplying it
    /// one-shot) panics **every** time, independent of the flush
    /// schedule — the misbehaving-workload shape the fleet's quarantine
    /// exists for.
    pub fn poison(mut self, operand: UBig) -> FaultPlan {
        self.poison = Some(operand);
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether fault kind `salt` (period `every`) fires on flush `k`.
    fn due(&self, k: u64, every: u64, salt: u64) -> bool {
        if every == 0 {
            return false;
        }
        let phase = splitmix64(self.seed ^ salt) % every;
        k % every == phase
    }

    fn panic_due(&self, k: u64) -> bool {
        self.due(k, self.panic_every, 0x70a1)
    }

    fn error_due(&self, k: u64) -> bool {
        self.due(k, self.error_every, 0xe770)
    }

    fn stall_due(&self, k: u64) -> bool {
        self.due(k, self.stall_every, 0x57a1)
    }
}

/// A [`Multiplier`] wrapper injecting the faults of a [`FaultPlan`] on a
/// reproducible schedule — the chaos harness behind `tests/chaos.rs`
/// and `examples/chaos_fleet.rs`.
///
/// Name and provenance delegate to the inner backend, so prepared handles
/// interchange with the clean backend's and the wrapper is invisible to
/// the caching layers; only the fault schedule is added. The serving
/// fleet's supervision (`ServerPool::with_backend_factory`) rebuilds a
/// fresh wrapper after each injected death:
///
/// ```
/// use he_accel::prelude::*;
/// use he_accel::fault::{FaultPlan, FaultyMultiplier};
///
/// // A 2-card fleet where card 0 panics every 4th flush; the factory
/// // supervision restarts it and traffic keeps flowing.
/// let pool = ServerPool::with_backend_factory(
///     2,
///     |card| {
///         let plan = if card == 0 {
///             FaultPlan::new(42).panic_every(4)
///         } else {
///             FaultPlan::new(42) // healthy sibling
///         };
///         EvalEngine::new(FaultyMultiplier::new(
///             SsaSoftware::for_operand_bits(256).expect("plan fits"),
///             plan,
///         ))
///     },
///     ServeConfig::default(),
/// );
/// let tickets: Vec<ProductTicket> = (1..=12u64)
///     .map(|k| {
///         pool.submit(ProductRequest::new(UBig::from(k), UBig::from(k)))
///             .expect("intake stays open through card deaths")
///     })
///     .collect();
/// for (k, ticket) in (1..=12u64).zip(tickets) {
///     assert_eq!(ticket.wait().expect("supervised fleet serves"), UBig::from(k * k));
/// }
/// pool.shutdown();
/// ```
#[derive(Debug)]
pub struct FaultyMultiplier<M> {
    inner: M,
    plan: FaultPlan,
    flushes: AtomicU64,
}

impl<M> FaultyMultiplier<M> {
    /// Wraps `inner`, injecting `plan`'s faults.
    pub fn new(inner: M, plan: FaultPlan) -> FaultyMultiplier<M> {
        FaultyMultiplier {
            inner,
            plan,
            flushes: AtomicU64::new(0),
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// The fault schedule.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Batch calls seen so far (the flush counter the schedule runs on).
    pub fn flushes_seen(&self) -> u64 {
        self.flushes.load(Ordering::Relaxed)
    }

    fn poisoned(&self, operand: &UBig) -> bool {
        self.plan.poison.as_ref() == Some(operand)
    }

    /// Applies the flush-granular faults for flush `k`: stall, then panic
    /// or error (panic wins when both are due).
    fn inject(&self, k: u64) -> Result<(), MultiplyError> {
        if self.plan.stall_due(k) {
            std::thread::sleep(self.plan.stall);
        }
        if self.plan.panic_due(k) {
            panic!("injected card death on flush {k} (seed {})", self.plan.seed);
        }
        if self.plan.error_due(k) {
            return Err(MultiplyError::Device(format!(
                "injected transient fault on flush {k} (seed {})",
                self.plan.seed
            )));
        }
        Ok(())
    }
}

impl<M: Multiplier> Multiplier for FaultyMultiplier<M> {
    fn multiply(&self, a: &UBig, b: &UBig) -> Result<UBig, MultiplyError> {
        assert!(
            !self.poisoned(a) && !self.poisoned(b),
            "poison operand reached the device"
        );
        self.inner.multiply(a, b)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn provenance(&self) -> HandleProvenance {
        self.inner.provenance()
    }

    fn prepare(&self, a: &UBig) -> Result<OperandHandle, MultiplyError> {
        assert!(
            !self.poisoned(a),
            "poison operand reached the device's preparation path"
        );
        self.inner.prepare(a)
    }

    fn multiply_job_into(&self, job: &ProductJob<'_>, out: &mut UBig) -> Result<(), MultiplyError> {
        // The raw sides of a job reach the device as they are; a handle
        // was checked when it was prepared.
        let poisoned = match *job {
            ProductJob::Prepared(..) => false,
            ProductJob::OnePrepared(_, b) => self.poisoned(b),
            ProductJob::Raw(a, b) => self.poisoned(a) || self.poisoned(b),
        };
        assert!(!poisoned, "poison operand reached the device");
        self.inner.multiply_job_into(job, out)
    }

    fn multiply_batch_into(
        &self,
        jobs: &[ProductJob<'_>],
        out: &mut [UBig],
    ) -> Result<(), MultiplyError> {
        let k = self.flushes.fetch_add(1, Ordering::Relaxed);
        self.inject(k)?;
        // Job by job through this wrapper's own job body: a serving card
        // runs operands it has not cached raw, inside the batch, and the
        // poison must be as deadly there as in `prepare`.
        jobs.iter()
            .zip(out)
            .try_for_each(|(job, slot)| self.multiply_job_into(job, slot))
    }

    fn trim_resources(&self) {
        self.inner.trim_resources();
    }

    fn operand_capacity_bits(&self) -> Option<usize> {
        self.inner.operand_capacity_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multiplier::{Schoolbook, SsaSoftware};

    fn run_once<M: Multiplier>(m: &M) -> Result<UBig, MultiplyError> {
        let a = UBig::from(6u64);
        let b = UBig::from(7u64);
        let jobs = [ProductJob::Raw(&a, &b)];
        let mut out = [UBig::zero()];
        m.multiply_batch_into(&jobs, &mut out).map(|()| {
            let [product] = out;
            product
        })
    }

    #[test]
    fn schedule_is_reproducible_from_the_seed() {
        let trace = |seed: u64| -> Vec<bool> {
            let faulty = FaultyMultiplier::new(Schoolbook, FaultPlan::new(seed).error_every(3));
            (0..12).map(|_| run_once(&faulty).is_err()).collect()
        };
        assert_eq!(trace(1), trace(1), "same seed, same schedule");
        assert_eq!(trace(1).iter().filter(|&&e| e).count(), 4);
        // Different seeds shift the phase (for these two seeds the phases
        // differ — the point is that the seed participates at all).
        assert_ne!(trace(1), trace(2));
    }

    #[test]
    fn panic_schedule_fires_and_is_caught() {
        let faulty = FaultyMultiplier::new(Schoolbook, FaultPlan::new(9).panic_every(2));
        let mut deaths = 0;
        for _ in 0..6 {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_once(&faulty).unwrap()
            }));
            match outcome {
                Ok(product) => assert_eq!(product, UBig::from(42u64)),
                Err(_) => deaths += 1,
            }
        }
        assert_eq!(deaths, 3, "every 2nd flush died");
    }

    #[test]
    fn poison_operand_panics_wherever_it_reaches_the_device() {
        let poison = UBig::from(0xbad_f00du64);
        let faulty = FaultyMultiplier::new(
            SsaSoftware::for_operand_bits(256).unwrap(),
            FaultPlan::new(3).poison(poison.clone()),
        );
        // Benign operands prepare and multiply fine.
        assert!(faulty.prepare(&UBig::from(5u64)).is_ok());
        assert_eq!(run_once(&faulty).unwrap(), UBig::from(42u64));
        // The poison operand takes the device down at preparation…
        let death = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = faulty.prepare(&poison);
        }));
        assert!(death.is_err());
        // …and wherever a job carries it raw inside a batch, beside a
        // benign operand or a benign handle alike.
        let benign = UBig::from(5u64);
        let benign_handle = faulty.prepare(&benign).unwrap();
        for job in [
            ProductJob::Raw(&poison, &poison),
            ProductJob::Raw(&benign, &poison),
            ProductJob::OnePrepared(&benign_handle, &poison),
        ] {
            let death = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = faulty.multiply_batch_into(&[job], &mut [UBig::zero()]);
            }));
            assert!(death.is_err(), "{job:?}");
        }
        // Two benign handles have no raw side to check and still multiply
        // on the inner backend's cached path.
        assert!(benign_handle.is_cached());
        let mut out = [UBig::zero()];
        faulty
            .multiply_batch_into(
                &[ProductJob::Prepared(&benign_handle, &benign_handle)],
                &mut out,
            )
            .unwrap();
        assert_eq!(out[0], UBig::from(25u64));
    }

    #[test]
    fn provenance_is_transparent() {
        let inner = SsaSoftware::for_operand_bits(256).unwrap();
        let faulty = FaultyMultiplier::new(inner.clone(), FaultPlan::new(0));
        assert_eq!(faulty.provenance(), inner.provenance());
        // Handles prepared through the wrapper run on the inner geometry.
        let handle = faulty.prepare(&UBig::from(9u64)).unwrap();
        let mut product = UBig::zero();
        faulty
            .multiply_job_into(
                &ProductJob::OnePrepared(&handle, &UBig::from(4u64)),
                &mut product,
            )
            .unwrap();
        assert_eq!(product, UBig::from(36u64));
    }
}
