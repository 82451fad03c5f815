//! Per-worker scratch checkout for concurrent products.
//!
//! PR 1 gave the multiplier a single `Mutex<SsaScratch>` pool: correct, but
//! a *contention point* — two threads multiplying through one shared
//! [`SsaMultiplier`](crate::SsaMultiplier) serialized on the lock for the
//! entire product. The batch engine shards independent products across
//! worker threads, so the pool is now a **stack of scratch units**:
//! [`ScratchPool::checkout`] pops a whole unit (or creates one on first
//! use) and hands it to the caller behind a guard; the lock is held only
//! for the pop and the push-back, never across a transform. `k` concurrent
//! workers settle on `k` resident units and then run lock-free for the
//! duration of every product.
//!
//! The single-thread discipline is unchanged: checkout pops the same unit
//! it pushed last time, so the warm path still performs **zero heap
//! allocations** per product (the counting-allocator test in
//! `tests/alloc_counting.rs` keeps this honest).
//!
//! The idle stack is **capped**: a unit returning to a pool that already
//! holds `cap` idle units is freed instead of retained, so a one-off
//! concurrency burst of `k` workers no longer pins `k` multi-MB scratch
//! units for the process lifetime — a cost a long-lived serving process
//! cannot afford. The cap defaults to the machine's parallelism (the
//! steady-state worker count); [`ScratchPool::set_cap`] overrides it and
//! [`ScratchPool::trim`] frees every idle unit on demand (e.g. when a
//! resident server goes idle).

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use he_ntt::par::lock_or_recover;
use he_ntt::NttScratch;

/// Default idle cap: the machine's available parallelism, resolved once
/// (the lookup reads procfs/cgroup files and may allocate, so it must stay
/// off the allocation-free warm path).
fn auto_cap() -> usize {
    static AUTO: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *AUTO.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Reusable working memory for one in-flight product.
#[derive(Debug, Default)]
pub(crate) struct SsaScratch {
    /// Coefficient and transform staging buffers.
    pub(crate) ntt: NttScratch,
}

/// A stack of idle [`SsaScratch`] units shared by one multiplier instance.
#[derive(Debug, Default)]
pub(crate) struct ScratchPool {
    idle: Mutex<Vec<SsaScratch>>,
    /// Maximum idle units retained; `0` means "auto" ([`auto_cap`]).
    cap: AtomicUsize,
    /// Largest batch worker count the owner has announced
    /// ([`ScratchPool::note_concurrency`]). In auto mode the enforced cap
    /// is at least this, so a thread budget above the machine's core
    /// count (legal — `he_ntt::par` oversubscribes by design) keeps its
    /// units pooled between batches instead of freeing and reallocating
    /// multi-MB scratch every batch. [`ScratchPool::trim`] resets it.
    floor: AtomicUsize,
}

impl ScratchPool {
    /// An empty pool; units are created on first checkout.
    pub(crate) fn new() -> ScratchPool {
        ScratchPool::default()
    }

    /// An empty pool with an explicit idle cap (`0` = auto).
    pub(crate) fn with_cap(cap: usize) -> ScratchPool {
        let pool = ScratchPool::new();
        pool.cap.store(cap, Ordering::Relaxed);
        pool
    }

    /// Checks out a scratch unit for exclusive use until the guard drops.
    ///
    /// Pops an idle unit when one exists (no allocation); otherwise builds
    /// a fresh empty unit — that happens once per level of concurrency;
    /// up to the idle cap, the unit is retained afterwards.
    // lint: no-alloc
    pub(crate) fn checkout(&self) -> ScratchGuard<'_> {
        let unit = lock_or_recover(&self.idle).pop().unwrap_or_default();
        ScratchGuard {
            pool: self,
            unit: Some(unit),
        }
    }
    // lint: end no-alloc

    /// Caps the idle stack at `cap` retained units (`0` restores the
    /// default: the machine's available parallelism). Lowering the cap
    /// applies to units as they return; call [`ScratchPool::trim`] to free
    /// already-idle excess immediately.
    pub(crate) fn set_cap(&self, cap: usize) {
        self.cap.store(cap, Ordering::Relaxed);
    }

    /// The configured idle cap (`0` = auto).
    pub(crate) fn cap_setting(&self) -> usize {
        self.cap.load(Ordering::Relaxed)
    }

    /// Announces that `workers` units may be in flight at once (called by
    /// the batch scheduler before sharding); auto mode retains at least
    /// that many idle units until the next [`ScratchPool::trim`]. An
    /// explicit [`ScratchPool::set_cap`] always wins.
    pub(crate) fn note_concurrency(&self, workers: usize) {
        self.floor.fetch_max(workers, Ordering::Relaxed);
    }

    /// The cap actually enforced on push-back.
    fn resolved_cap(&self) -> usize {
        match self.cap.load(Ordering::Relaxed) {
            0 => auto_cap().max(self.floor.load(Ordering::Relaxed)),
            n => n,
        }
    }

    /// Frees every idle scratch unit (units currently checked out are
    /// unaffected and return subject to the cap), and forgets the
    /// announced concurrency floor — after a trim the pool re-grows only
    /// to what the traffic actually uses.
    pub(crate) fn trim(&self) {
        self.floor.store(0, Ordering::Relaxed);
        lock_or_recover(&self.idle).clear();
    }

    /// Number of idle units currently pooled (diagnostic).
    pub(crate) fn idle_units(&self) -> usize {
        lock_or_recover(&self.idle).len()
    }
}

/// Exclusive ownership of one scratch unit; returns it to the pool on drop.
#[derive(Debug)]
pub(crate) struct ScratchGuard<'a> {
    pool: &'a ScratchPool,
    unit: Option<SsaScratch>,
}

impl Deref for ScratchGuard<'_> {
    type Target = SsaScratch;

    fn deref(&self) -> &SsaScratch {
        self.unit.as_ref().expect("unit present until drop")
    }
}

impl DerefMut for ScratchGuard<'_> {
    fn deref_mut(&mut self) -> &mut SsaScratch {
        self.unit.as_mut().expect("unit present until drop")
    }
}

// lint: no-alloc
impl Drop for ScratchGuard<'_> {
    fn drop(&mut self) {
        if let Some(unit) = self.unit.take() {
            let mut idle = lock_or_recover(&self.pool.idle);
            // Retain up to the cap; units beyond it came from a transient
            // concurrency burst and are freed rather than pinned forever.
            if idle.len() < self.pool.resolved_cap() {
                idle.push(unit);
            }
        }
    }
}
// lint: end no-alloc

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_reuses_the_same_unit_single_threaded() {
        let pool = ScratchPool::new();
        let ptr = {
            let mut guard = pool.checkout();
            let buf = guard.ntt.take(8);
            let ptr = buf.as_ptr();
            guard.ntt.put(buf);
            ptr
        };
        assert_eq!(pool.idle_units(), 1);
        let mut guard = pool.checkout();
        let buf = guard.ntt.take(8);
        assert_eq!(buf.as_ptr(), ptr, "warm checkout must reuse");
        assert_eq!(pool.idle_units(), 0);
    }

    #[test]
    fn concurrent_checkouts_get_distinct_units() {
        // Explicit cap: the auto cap is 1 on single-core hosts, which
        // would free the second unit on push-back.
        let pool = ScratchPool::with_cap(2);
        let a = pool.checkout();
        let b = pool.checkout();
        assert_ne!(
            &*a as *const SsaScratch, &*b as *const SsaScratch,
            "overlapping checkouts must not share a unit"
        );
        drop(a);
        drop(b);
        assert_eq!(pool.idle_units(), 2);
    }

    #[test]
    fn burst_units_beyond_the_cap_are_freed() {
        let pool = ScratchPool::with_cap(2);
        // A concurrency burst: five overlapping checkouts create five
        // units…
        let burst: Vec<ScratchGuard<'_>> = (0..5).map(|_| pool.checkout()).collect();
        assert_eq!(pool.idle_units(), 0);
        drop(burst);
        // …but the idle stack retains only the cap's worth.
        assert_eq!(pool.idle_units(), 2);
    }

    #[test]
    fn trim_frees_idle_units_and_checkout_recovers() {
        let pool = ScratchPool::with_cap(4);
        let burst: Vec<ScratchGuard<'_>> = (0..3).map(|_| pool.checkout()).collect();
        drop(burst);
        assert_eq!(pool.idle_units(), 3);
        pool.trim();
        assert_eq!(pool.idle_units(), 0);
        // The pool keeps working after a trim (fresh unit on demand).
        drop(pool.checkout());
        assert_eq!(pool.idle_units(), 1);
    }

    #[test]
    fn lowering_the_cap_applies_on_push_back() {
        let pool = ScratchPool::with_cap(8);
        let burst: Vec<ScratchGuard<'_>> = (0..4).map(|_| pool.checkout()).collect();
        drop(burst);
        assert_eq!(pool.idle_units(), 4);
        pool.set_cap(1);
        // Already-idle units stay until trimmed…
        assert_eq!(pool.idle_units(), 4);
        pool.trim();
        // …and returning units now respect the lower cap.
        let a = pool.checkout();
        let b = pool.checkout();
        drop(a);
        drop(b);
        assert_eq!(pool.idle_units(), 1);
    }

    #[test]
    fn auto_cap_is_positive() {
        assert!(ScratchPool::new().resolved_cap() >= 1);
        assert_eq!(ScratchPool::new().cap_setting(), 0);
        assert_eq!(ScratchPool::with_cap(3).cap_setting(), 3);
    }

    #[test]
    fn announced_concurrency_raises_the_auto_cap_until_trim() {
        let pool = ScratchPool::new(); // auto mode
        let workers = auto_cap() + 2; // above any machine's auto cap
        pool.note_concurrency(workers);
        let burst: Vec<ScratchGuard<'_>> = (0..workers).map(|_| pool.checkout()).collect();
        drop(burst);
        // Every worker's unit stays pooled: no churn between batches.
        assert_eq!(pool.idle_units(), workers);
        pool.trim();
        assert_eq!(pool.idle_units(), 0);
        // The floor is forgotten: the pool re-grows only to the auto cap.
        let burst: Vec<ScratchGuard<'_>> = (0..workers).map(|_| pool.checkout()).collect();
        drop(burst);
        assert_eq!(pool.idle_units(), auto_cap());
    }

    #[test]
    fn explicit_cap_wins_over_announced_concurrency() {
        let pool = ScratchPool::with_cap(1);
        pool.note_concurrency(5);
        let burst: Vec<ScratchGuard<'_>> = (0..3).map(|_| pool.checkout()).collect();
        drop(burst);
        assert_eq!(pool.idle_units(), 1);
    }

    #[test]
    fn buffers_survive_a_checkout_cycle() {
        let pool = ScratchPool::new();
        {
            let mut guard = pool.checkout();
            let buf = guard.ntt.take(64);
            guard.ntt.put(buf);
        }
        let guard = pool.checkout();
        assert!(guard.ntt.pooled_capacity() >= 64);
    }
}
