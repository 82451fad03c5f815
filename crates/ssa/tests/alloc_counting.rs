//! Counting-allocator proof of the zero-allocation multiply path.
//!
//! The acceptance bar for the in-place pipeline: after warm-up,
//! `SsaMultiplier::multiply_into` (and the cached `_into` forms) touch the
//! heap **zero** times per product. A wrapping global allocator counts
//! every `alloc`/`realloc` **on the measuring thread** (the harness's own
//! threads allocate at uncontrolled instants — see `COUNTING` below); the
//! test pins the transforms to one thread
//! (`he_ntt::par::set_threads(1)`) because the multi-core fan-out's thread
//! spawns are the one part of the parallel path that allocates (the
//! buffers never do).
//!
//! This file is its own integration-test binary so the allocator override
//! and the env var cannot leak into other tests, and its three scenarios
//! run inside one `#[test]` so no sibling test thread is ever scheduled
//! against a timed region.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use he_bigint::UBig;
use he_ssa::{SsaMultiplier, SsaParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Only the measuring thread counts: the libtest harness allocates on
    /// its own threads at uncontrolled instants (its result-channel
    /// machinery lazily initializes a park context on the *main* thread
    /// while a test runs, which used to land mid-timed-region and flake
    /// the zero-allocation assertions on 1-core hosts). Const-initialized
    /// so reading the flag never allocates.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn measured_thread(counting: bool) {
    COUNTING.with(|c| c.set(counting));
}

fn on_measured_thread() -> bool {
    // `try_with` so an allocation during TLS teardown can never panic
    // inside the allocator.
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

// SAFETY: delegates directly to the system allocator; the counter has no
// safety impact.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if on_measured_thread() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if on_measured_thread() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn allocations() -> usize {
    ALLOCATIONS.load(Ordering::Relaxed)
}

// The counter is process-global, and the libtest harness itself
// allocates on its own threads (spawning the next test's thread lands
// mid-timed-region on a 1-core host), so the three scenarios run inside
// ONE #[test]: nothing else is scheduled while a timed region runs.

fn multiply_into_is_allocation_free_after_warmup() {
    // Sequential transforms: thread spawning is the only allocating part
    // of the parallel path, and this test pins it off.
    he_ntt::par::set_threads(1);

    let mut rng = StdRng::seed_from_u64(0xA110C);
    let ssa = SsaMultiplier::with_params(SsaParams::new(16, 1 << 10).unwrap()).unwrap();
    let a = UBig::random_bits(&mut rng, 4000);
    let b = UBig::random_bits(&mut rng, 4000);
    let expected = a.mul_karatsuba(&b);

    // Warm-up: grows the scratch pool and the result's limb buffer.
    let mut out = UBig::zero();
    ssa.multiply_into(&a, &b, &mut out).unwrap();
    ssa.multiply_into(&a, &b, &mut out).unwrap();
    assert_eq!(out, expected);

    let before = allocations();
    for _ in 0..5 {
        ssa.multiply_into(&a, &b, &mut out).unwrap();
    }
    let delta = allocations() - before;
    assert_eq!(out, expected);
    assert_eq!(
        delta, 0,
        "multiply_into allocated {delta} times in 5 warm calls"
    );
}

fn cached_paths_are_allocation_free_after_warmup() {
    he_ntt::par::set_threads(1);

    let mut rng = StdRng::seed_from_u64(0xA110D);
    let ssa = SsaMultiplier::with_params(SsaParams::new(16, 1 << 10).unwrap()).unwrap();
    let a = UBig::random_bits(&mut rng, 4000);
    let b = UBig::random_bits(&mut rng, 4000);
    let ta = ssa.transform(&a).unwrap();
    let tb = ssa.transform(&b).unwrap();

    let mut cached_both = UBig::zero();
    let mut cached_one = UBig::zero();
    // Warm-up.
    ssa.multiply_transformed_into(&ta, &tb, &mut cached_both)
        .unwrap();
    ssa.multiply_one_cached_into(&ta, &b, &mut cached_one)
        .unwrap();

    let before = allocations();
    for _ in 0..3 {
        ssa.multiply_transformed_into(&ta, &tb, &mut cached_both)
            .unwrap();
        ssa.multiply_one_cached_into(&ta, &b, &mut cached_one)
            .unwrap();
    }
    let delta = allocations() - before;
    assert_eq!(delta, 0, "cached paths allocated {delta} times warm");

    let expected = a.mul_karatsuba(&b);
    assert_eq!(cached_both, expected);
    assert_eq!(cached_one, expected);
}

fn paper_plan_multiply_into_is_allocation_free_after_warmup() {
    // The full three-stage 64K plan, exercised at a modest operand size so
    // the test stays fast; the buffers are still full 64K-point vectors.
    he_ntt::par::set_threads(1);

    let mut rng = StdRng::seed_from_u64(0xA110E);
    let ssa = SsaMultiplier::paper();
    let a = UBig::random_bits(&mut rng, 100_000);
    let b = UBig::random_bits(&mut rng, 100_000);

    let mut out = UBig::zero();
    ssa.multiply_into(&a, &b, &mut out).unwrap();
    ssa.multiply_into(&a, &b, &mut out).unwrap();

    let before = allocations();
    ssa.multiply_into(&a, &b, &mut out).unwrap();
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "64K-plan multiply_into allocated {delta} times warm"
    );
    assert_eq!(out, a.mul_karatsuba(&b));
}

#[test]
fn warm_paths_are_allocation_free() {
    measured_thread(true);
    multiply_into_is_allocation_free_after_warmup();
    cached_paths_are_allocation_free_after_warmup();
    paper_plan_multiply_into_is_allocation_free_after_warmup();
    measured_thread(false);
}
